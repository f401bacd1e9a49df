"""Exact pattern engine: allowed/forbidden/minimal sets and realization checks.

The deeper structural claims (closure, partition, the dense rational
oracle) live in the acceptance checklist; here the engine is pinned on
small frozen values and cross-checked against brute force on a map that
is NOT in the catalog, so the pins cannot all be wrong together.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patlab import (
    BadParameter,
    PwlMap,
    PwlPiece,
    ResourceLimit,
    all_perms,
    alt_sawtooth,
    avoiders,
    exact_allowed,
    exact_basic_forbidden,
    exact_forbidden,
    is_realized,
    reduce_values,
    sawtooth,
    shortest_forbidden_length,
    tent,
    witness,
)
from patlab import engine
from patlab.engine import _cut, _place, _scaled, _span, walk

F = Fraction


def perm_set(strings):
    return {tuple(int(c) for c in s) for s in strings}


# discontinuous, non-catalog three-piece map used for generic cross-checks
def jagged():
    return PwlMap(
        (
            PwlPiece(0, F(1, 3), True, False, 2, F(1, 3)),
            PwlPiece(F(1, 3), F(2, 3), True, False, -1, 1),
            PwlPiece(F(2, 3), 1, True, True, 3, -2),
        )
    )


class TestAllowed:
    def test_tent_small(self):
        assert set(exact_allowed(tent(), 2)) == perm_set(["12", "21"])
        assert set(exact_allowed(tent(), 3)) == perm_set(
            ["123", "132", "213", "231", "312"]
        )

    def test_sawtooth2_fills_length_three(self):
        assert len(exact_allowed(sawtooth(2), 3)) == 6

    def test_length_one(self):
        assert set(exact_allowed(tent(), 1)) == {(1,)}

    def test_bad_n(self):
        with pytest.raises(BadParameter):
            exact_allowed(tent(), 0)

    def test_cell_budget(self):
        with pytest.raises(ResourceLimit):
            exact_allowed(sawtooth(4), 9, cell_budget=50)

    def test_budget_counts_items_of_one_depth(self):
        widest = max(Counter(item[0] for item in walk(alt_sawtooth(3), 5)).values())
        assert len(exact_allowed(alt_sawtooth(3), 6, cell_budget=widest)) == 300
        with pytest.raises(ResourceLimit, match=f"{widest} items at depth 5 of 5"):
            exact_allowed(alt_sawtooth(3), 6, cell_budget=widest - 1)


class TestBudgetChecks:
    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget(self, budget):
        for run in (exact_allowed, exact_forbidden, exact_basic_forbidden, shortest_forbidden_length):
            with pytest.raises(BadParameter, match=f"cell budget must be positive, got {budget}"):
                run(tent(), 3, cell_budget=budget)
        with pytest.raises(BadParameter, match="cell budget must be positive"):
            is_realized(tent(), (1, 2, 3), cell_budget=budget)

    def test_wide_walk_refused_before_the_first_item(self, monkeypatch):
        def no_part(*args, **kwargs):
            raise AssertionError("split an item although the walk is too wide for the budget")

        monkeypatch.setattr("patlab.engine._span", no_part)
        monkeypatch.setattr("patlab.engine._place", no_part)
        monkeypatch.setattr("patlab.engine._cut", no_part)
        # sawtooth:4 has 4**11 = 4,194,304 cylinders at depth 11
        with pytest.raises(
            ResourceLimit, match="cell budget of 4000000: at least 4194304 items at depth 11 of 11"
        ):
            exact_allowed(sawtooth(4), 12)
        with pytest.raises(ResourceLimit, match="cell budget of 63: at least 64 items at depth 3 of 5"):
            next(walk(sawtooth(4), 5, cell_budget=63))

    def test_shortest_checks_each_length_on_its_own(self):
        # tent has 2**29 cylinders at depth 29, but the answer comes from depth 2
        assert shortest_forbidden_length(tent(), 30) == 3


class TestForbidden:
    def test_tent(self):
        assert set(exact_forbidden(tent(), 3)) == {(3, 2, 1)}
        assert len(exact_forbidden(tent(), 1)) == 0

    def test_sawtooth2_empty_below_four(self):
        assert len(exact_forbidden(sawtooth(2), 3)) == 0

    def test_default_cap(self):
        with pytest.raises(ResourceLimit):
            exact_forbidden(tent(), 11)

    @pytest.mark.parametrize("n", [4, 5, 6])
    def test_candidates_count_against_the_budget(self, n, monkeypatch):
        budget = math.factorial(n)
        assert exact_forbidden(tent(), n, cell_budget=budget) == exact_forbidden(tent(), n)

        def no_walk(*args, **kwargs):
            raise AssertionError("walked although the candidates exceed the budget")

        monkeypatch.setattr("patlab.engine._walk", no_walk)
        with pytest.raises(ResourceLimit, match=f"{budget} candidates.*budget of {budget - 1}"):
            exact_forbidden(tent(), n, cell_budget=budget - 1)


class TestBasicForbidden:
    def test_tent_three_four(self):
        assert set(exact_basic_forbidden(tent(), 3)) == {(3, 2, 1)}
        assert set(exact_basic_forbidden(tent(), 4)) == perm_set(
            ["1423", "2134", "2143", "3142", "4231"]
        )

    def test_independent_of_gluing(self):
        """Gluing must agree with the definition: forbidden with both
        length-(n-1) windows allowed, filtered straight out of S_n."""
        for m in (tent(), jagged(), one_minus_x(), identity_then_doubling(), point_and_jump()):
            for n in range(2, 7):
                al = exact_allowed(m, n)
                shorter = exact_allowed(m, n - 1)
                direct = {
                    p
                    for p in all_perms(n)
                    if p not in al
                    and reduce_values(p[:-1]) in shorter
                    and reduce_values(p[1:]) in shorter
                }
                assert set(exact_basic_forbidden(m, n)) == direct, (m, n)

    def test_closure_identity(self):
        """The allowed patterns are exactly the avoiders of the basic forbidden ones."""
        basis = []
        for n in range(3, 11):
            basis += list(exact_basic_forbidden(tent(), n))
            allowed = exact_allowed(tent(), n)
            assert avoiders(basis, n) == allowed, n
        assert len(allowed) == 2137

    def test_antichain_across_lengths(self):
        from patlab import is_antichain

        members = []
        for n in range(2, 7):
            members += list(exact_basic_forbidden(tent(), n))
        assert is_antichain(members)


class TestShortest:
    def test_catalog_values(self):
        assert shortest_forbidden_length(tent(), 6) == 3
        assert shortest_forbidden_length(sawtooth(2), 6) == 4
        assert shortest_forbidden_length(sawtooth(3), 6) == 5

    def test_none_when_saturated(self):
        assert shortest_forbidden_length(sawtooth(3), 4) is None

    def test_bad_n_max(self):
        with pytest.raises(BadParameter):
            shortest_forbidden_length(tent(), 1)


def one_minus_x():
    return PwlMap((PwlPiece(0, 1, True, True, -1, 1),))


def identity_then_doubling():
    """x on [0, 1/2), 2x - 1 on [1/2, 1]: every point of the first piece is fixed."""
    return PwlMap((PwlPiece(0, F(1, 2), True, False, 1, 0), PwlPiece(F(1, 2), 1, True, True, 2, -1)))


def point_and_jump():
    """2x on [0, 1/2), 1/3 at the point 1/2, 1 - x on (1/2, 1]."""
    return PwlMap(
        (
            PwlPiece(0, F(1, 2), True, False, 2, 0),
            PwlPiece(F(1, 2), F(1, 2), True, True, 0, F(1, 3)),
            PwlPiece(F(1, 2), 1, False, True, -1, 1),
        )
    )


class TestKeptWalk:
    """The engine keeps the most recent full walk for later calls on the same map."""

    @pytest.fixture(autouse=True)
    def no_entry(self, monkeypatch):
        monkeypatch.setattr(engine, "_entry", None)

    @staticmethod
    def answers(m, clear, lengths):
        out = []
        for n in lengths:
            calls = [exact_allowed, exact_forbidden]
            if n >= 2:
                calls += [exact_basic_forbidden, shortest_forbidden_length]
            for fn in calls:
                if clear:
                    engine._entry = None
                out.append((fn.__name__, n, fn(m, n)))
        return out

    maps = pytest.mark.parametrize(
        "make",
        [tent, lambda: sawtooth(2), lambda: sawtooth(3), lambda: alt_sawtooth(3),
         one_minus_x, identity_then_doubling, point_and_jump],
        ids=["tent", "sawtooth:2", "sawtooth:3", "alt_sawtooth:3", "1-x", "identity", "point-jump"],
    )

    @maps
    def test_reused_entry_gives_fresh_answers(self, make):
        up = range(1, 9)
        assert self.answers(make(), False, up) == self.answers(make(), True, up)

    @maps
    def test_deeper_entry_serves_shallower_calls(self, make):
        # n descending: the first walk is the deepest, and it serves every later call
        down = range(8, 0, -1)
        assert self.answers(make(), False, down) == self.answers(make(), True, down)

    @maps
    def test_levels_walk_makes_no_item_at_its_last_depth(self, make):
        m = make()
        exact_allowed(m, 6)
        masks, created = [], []
        items = Counter(item[0] for item in engine._walk(
            engine._full_scaled(m, 5, 10**6), 5, 10**6, None, created, masks))
        public = Counter(item[0] for item in walk(m, 5))
        assert items[5] == 0 and all(items[k] == public[k] for k in range(5))
        assert created == engine._entry.created
        assert created[1:] == [public[k] for k in range(1, len(created))]

    def test_childless_items_count_as_allowed_windows(self):
        # 1 - x: x and f(x) realize 12 and 21, but f(f(x)) = x at every point
        assert len(exact_allowed(one_minus_x(), 3)) == 0
        assert set(exact_basic_forbidden(one_minus_x(), 3)) == set(all_perms(3))

    def test_equal_map_is_served_without_a_walk(self, monkeypatch):
        allowed = exact_allowed(tent(), 8)
        depths = []
        real = engine._walk

        def spy(m, depth, *args):
            depths.append(depth)
            return real(m, depth, *args)

        monkeypatch.setattr(engine, "_walk", spy)
        assert exact_allowed(tent(), 8) == allowed
        assert len(exact_forbidden(tent(), 8)) == math.factorial(8) - len(allowed)
        assert len(exact_basic_forbidden(tent(), 8)) == 110
        assert shortest_forbidden_length(tent(), 9) == 3
        assert depths == []

    def test_smaller_budget_raises_as_a_first_walk(self):
        m = alt_sawtooth(3)
        exact_allowed(m, 6)
        widest = max(engine._entry.created)
        assert len(exact_allowed(m, 6, cell_budget=widest)) == 300
        with pytest.raises(ResourceLimit) as hit:
            exact_basic_forbidden(m, 6, cell_budget=widest - 1)
        engine._entry = None
        with pytest.raises(ResourceLimit) as fresh:
            exact_basic_forbidden(m, 6, cell_budget=widest - 1)
        assert str(hit.value) == str(fresh.value)
        assert f"{widest} items at depth 5 of 5" in str(fresh.value)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_on_a_hit(self, budget):
        # the walk to depth 0 makes no item past the first, so its widest count is 0
        for n, runs in ((1, (exact_allowed, exact_forbidden)),
                        (4, (exact_allowed, exact_forbidden, exact_basic_forbidden,
                             shortest_forbidden_length))):
            exact_allowed(tent(), n)
            for run in runs:
                with pytest.raises(BadParameter, match="cell budget must be positive"):
                    run(tent(), n, cell_budget=budget)

    def test_shallower_call_is_served_without_a_walk(self, monkeypatch):
        exact_allowed(tent(), 8)
        kept = engine._entry
        monkeypatch.setattr(engine, "_walk", None)  # any walk would raise
        exact_allowed(tent(), 5)
        exact_basic_forbidden(tent(), 4)
        shortest_forbidden_length(tent(), 7)
        assert engine._entry is kept and kept.depth == 7 and len(kept.levels) == 8

    def test_deeper_walk_or_another_map_replaces_the_entry(self):
        exact_allowed(tent(), 5)
        exact_allowed(tent(), 6)
        assert engine._entry.m == tent() and len(engine._entry.created) == 6
        exact_allowed(sawtooth(2), 3)
        assert engine._entry.m == sawtooth(2) and len(engine._entry.created) == 3

    def test_walk_that_raises_leaves_no_entry(self):
        exact_allowed(tent(), 5)
        with pytest.raises(ResourceLimit):
            exact_allowed(tent(), 9, cell_budget=20)
        assert engine._entry is None
        exact_allowed(tent(), 5)
        with pytest.raises(ResourceLimit):
            exact_allowed(sawtooth(4), 9, cell_budget=50)
        assert engine._entry is None


class TestIsRealized:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_agrees_with_allowed_set(self, n):
        for m in (tent(), alt_sawtooth(3)):
            allowed = exact_allowed(m, n)
            for p in all_perms(n):
                assert is_realized(m, p) == (p in allowed), (m, n, p)

    def test_spot_checks_depth_six(self):
        assert is_realized(tent(), (1, 2, 3, 4, 5, 6))
        assert not is_realized(tent(), (6, 5, 4, 3, 2, 1))

    def test_feasible_where_enumeration_is_not(self):
        """A single length-10 query against the 9-ramp alternating map; full
        enumeration at this depth would need ~9^9 cells."""
        w = (3, 5, 7, 9, 10, 8, 6, 4, 2, 1)
        assert not is_realized(alt_sawtooth(9), w)
        assert is_realized(alt_sawtooth(9), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10))

    @pytest.mark.parametrize(
        "ramps, w, expected",
        [
            (9, (3, 5, 7, 9, 10, 8, 6, 4, 2, 1), [1, 8, 32, 88, 192, 552, 688, 576, 256, 0]),
            (11, (3, 5, 7, 9, 11, 12, 10, 8, 6, 4, 2, 1),
             [1, 10, 50, 170, 450, 1002, 2972, 4048, 4096, 2816, 1024, 0]),
        ],
        ids=["alt_sawtooth:9", "alt_sawtooth:11"],
    )
    def test_pruned_walk_items_per_depth(self, ramps, w, expected):
        """The pruned walk behind the alt_sawtooth witness keeps these items
        (2,393 for alt_sawtooth:9, 16,639 for alt_sawtooth:11)."""
        counts = Counter(item[0] for item in walk(alt_sawtooth(ramps), ramps, pattern=w))
        assert [counts[k] for k in range(ramps + 1)] == expected

    @pytest.mark.parametrize(
        "m, x, w, expected",
        [
            (alt_sawtooth(5), F(1234, 10007),
             (2, 7, 12, 5, 13, 8, 10, 1, 6, 15, 11, 3, 16, 14, 9, 4),
             [1, 4, 8, 20, 28, 36, 44, 52, 60, 68, 76, 84, 16, 16, 16, 16]),
            (tent(), None, (1, 2, 5, 3, 4), [1, 2, 2, 1, 0]),
        ],
        ids=["alt_sawtooth:5-orbit", "tent-12534"],
    )
    def test_pruned_walk_items_per_depth_past_the_placement(self, m, x, w, expected):
        """The pruned walk keeps these items on patterns the greedy placement
        accepts, the only ones is_realized walks: the pattern of the exact
        orbit of x, which the walk realizes, and one it refutes."""
        if x is not None:
            values = [x]
            while len(values) < len(w):
                values.append(m(values[-1]))
            assert reduce_values(values) == w
        q, pieces = _scaled(m, 1)
        assert engine._placeable(pieces, q, w)
        counts = Counter(item[0] for item in walk(m, len(w) - 1, pattern=w))
        assert [counts[k] for k in range(len(w))] == expected
        assert is_realized(m, w) is (x is not None)

    @pytest.mark.parametrize(
        "ramps, calls", [(9, 5461), (11, 38090)], ids=["alt_sawtooth:9", "alt_sawtooth:11"]
    )
    def test_pruned_walk_cuts_every_part_of_a_whole_piece(self, ramps, calls, monkeypatch):
        """The witness's walk splits each item by whole pieces, as the full
        walk does, and hands every part to _cut; _cut keeps the items pinned
        above."""
        seen = []
        real = engine._cut

        def counting(*args):
            seen.append(real(*args))
            return seen[-1]

        monkeypatch.setattr(engine, "_cut", counting)
        w = witness((ramps - 1) // 2)
        assert not any(item[0] == ramps for item in walk(alt_sawtooth(ramps), ramps, pattern=w))
        assert len(seen) == calls
        assert sum(part is not None for part in seen) == {9: 2392, 11: 16638}[ramps]

    def test_witnesses_are_refuted_without_a_walk(self, monkeypatch):
        """The greedy placement refutes witness(k) on alt_sawtooth:2k+1 up to
        length 42, a horizon the walk alone could not reach."""
        def no_walk(*args):
            raise AssertionError("walked")

        monkeypatch.setattr(engine, "_walk", no_walk)
        for k in range(1, 21):
            assert not is_realized(alt_sawtooth(2 * k + 1), witness(k)), k

    def test_budget_is_checked_before_the_placement(self):
        with pytest.raises(BadParameter, match="cell budget must be positive"):
            is_realized(alt_sawtooth(9), witness(4), cell_budget=0)

    @pytest.mark.parametrize(
        "m, w, expected",
        [
            (tent(), (1, 2, 5, 3, 4), False),
            (tent(), (1, 5, 2, 4, 3), False),
            (tent(), (5, 1, 4, 2, 3), False),
            (sawtooth(3), (3, 2, 4, 1, 5), False),
            (alt_sawtooth(9), (1, 2, 3, 4, 5, 6, 7, 8, 9, 10), True),
        ],
        ids=["tent-12534", "tent-15243", "tent-51423", "sawtooth:3-32415", "alt_sawtooth:9-up"],
    )
    def test_patterns_the_placement_accepts_are_walked(self, m, w, expected, monkeypatch):
        """These forbidden patterns can be placed in the pieces, so the walk
        refutes them; the increasing pattern is realized."""
        q, pieces = _scaled(m, 1)
        assert engine._placeable(pieces, q, w)
        walked = []
        real = engine._walk

        def spy(*args):
            walked.append(args[1])
            return real(*args)

        monkeypatch.setattr(engine, "_walk", spy)
        assert is_realized(m, w) is expected
        assert walked == [len(w) - 1]

    @pytest.mark.parametrize(
        "m, w",
        [(tent(), (1, 2, 5, 3, 4)), (tent(), (1, 2, 3, 5, 4)), (alt_sawtooth(9), witness(4)),
         (tent(), (1,))],
        ids=["walked-forbidden", "walked-allowed", "refuted-unwalked", "length-1"],
    )
    def test_scales_and_checks_the_budget_once(self, m, w, monkeypatch):
        calls = Counter()

        def counted(name):
            real = getattr(engine, name)

            def wrapper(*args):
                calls[name] += 1
                return real(*args)
            return wrapper

        for name in ("_scaled", "_check_budget"):
            monkeypatch.setattr(engine, name, counted(name))
        is_realized(m, w)
        assert (calls["_scaled"], calls["_check_budget"]) == (1, 1)

    def test_pruned_walk_refuses_past_the_budget(self):
        # depth first, depth 5 (552 items in all) passes 100 before depth 4 (192) does
        w = (3, 5, 7, 9, 10, 8, 6, 4, 2, 1)
        with pytest.raises(
            ResourceLimit,
            match=r"^refinement exceeded the cell budget of 100: 101 items at depth 5 of 9$",
        ):
            list(walk(alt_sawtooth(9), 9, cell_budget=100, pattern=w))


class TestDepthZero:
    """A walk to depth 0 splits nothing, so it scales no piece: at
    Q = q**0 = 1 a fractional piece end would be truncated."""

    MAPS = (tent(), jagged(), point_and_jump())

    def test_scaled_has_no_piece(self):
        for m in self.MAPS:
            assert _scaled(m, 0) == (1, [])

    @pytest.mark.parametrize("pattern", [None, (1,)], ids=["full", "pruned"])
    def test_walk_is_the_root_item(self, pattern):
        for m in self.MAPS:
            assert list(walk(m, 0, pattern=pattern)) == [(0, 0, 1, 1, 1, True, True, (1,), (0,), (0,))]

    def test_a_length_one_pattern_is_realized(self):
        assert is_realized(tent(), (1,))


class TestWalkInputs:
    def test_negative_depth(self):
        for pruned in ({}, {"pattern": (1,)}):
            with pytest.raises(BadParameter, match=r"^the depth must be at least 0, got -1$"):
                list(walk(tent(), -1, **pruned))

    @pytest.mark.parametrize("pattern", [(), (1, 3, 3), (0, 1, 2), (2, 4, 1)])
    def test_pattern_must_be_a_permutation(self, pattern):
        with pytest.raises(BadParameter, match="permutation"):
            list(walk(tent(), 2, pattern=pattern))

    @pytest.mark.parametrize("pattern", [(1, 2), (1, 3, 2, 4)])
    def test_pattern_length_is_the_depth_plus_one(self, pattern):
        with pytest.raises(BadParameter, match=r"^a walk to depth 2 takes a length-3 pattern$"):
            list(walk(tent(), 2, pattern=pattern))

    def test_any_sequence_is_a_pattern(self):
        assert list(walk(tent(), 2, pattern=[2, 3, 1])) == list(walk(tent(), 2, pattern=(2, 3, 1)))


def neighbours(order, target):
    """The target rank's neighbours as _cut takes them: (iterate, +1) below
    the new iterate and (iterate, -1) above it."""
    return tuple((order[i], sign) for i, sign in ((target - 1, 1), (target, -1))
                 if 0 <= i < len(order))


def place(A, B, order, fa, fb, part):
    """_place's segments on a part, over the ranks _span finds there, as
    the full walk cuts them; none where _span drops the part."""
    ln, ld, _, hn, hd, _ = part
    span = _span(A, B, order, fa, fb, ln, ld, hn, hd)
    return [] if span is None else _place(A, B, order, fa, fb, *span, *part)


def placed(A, B, order, fa, fb, part, target):
    """A part cut to the target rank, and the full placement's segment of
    that rank."""
    whole = [seg[:-1] for seg in place(A, B, order, fa, fb, part) if seg[-1] == target]
    assert len(whole) <= 1
    return _cut(A, B, fa, fb, neighbours(order, target), *part), (whole[0] if whole else None)


class TestPlaceTarget:
    """_cut to one target rank against the full placement filtered to it.

    Iterates are A[j] * x + B[j]; parts are (lo_num, lo_den, lo_closed,
    hi_num, hi_den, hi_closed).
    """

    UNIT = (0, 1, True, 1, 1, True)

    @pytest.mark.parametrize(
        "fa, fb, target, expected",
        [
            # the new iterate 4x - 1 crosses 2x inside, at x = 1/2
            (4, -1, 0, (0, 1, True, 1, 2, False)),
            (4, -1, 1, (1, 2, False, 1, 1, True)),
            # 4x crosses 2x at the left end: that end opens, keeping 0/1
            (4, 0, 1, (0, 1, False, 1, 1, True)),
            (4, 0, 0, None),
            # 4x - 2 crosses 2x at the right end
            (4, -2, 0, (0, 1, True, 1, 1, False)),
            (4, -2, 1, None),
            # the new iterate repeats its only neighbour
            (2, 0, 0, None),
            (2, 0, 1, None),
        ],
    )
    def test_one_old_iterate(self, fa, fb, target, expected):
        cut, whole = placed((2,), (0,), (0,), fa, fb, self.UNIT, target)
        assert cut == whole == expected

    @pytest.mark.parametrize("target", [0, 1, 2])
    def test_repeats_an_iterate_that_is_not_a_neighbour(self, target):
        # old iterates 2x < 2x + 1; the new one repeats 2x
        cut, whole = placed((2, 2), (0, 1), (0, 1), 2, 0, self.UNIT, target)
        assert cut is whole is None

    def test_lowest_and_highest_rank_have_one_neighbour(self):
        # old iterates 2x < -2x + 4 on [0, 1]; the new 8x - 2 crosses them
        # at 2/6 and 6/10, ends written unreduced as the crossings give them
        A, B, order = (2, -2), (0, 4), (0, 1)
        assert [len(neighbours(order, t)) for t in (0, 1, 2)] == [1, 2, 1]
        got = {t: placed(A, B, order, 8, -2, self.UNIT, t) for t in (0, 1, 2)}
        assert all(cut == whole for cut, whole in got.values())
        assert got[0][0] == (0, 1, True, 2, 6, False)
        assert got[1][0] == (2, 6, False, 6, 10, False)
        assert got[2][0] == (6, 10, False, 1, 1, True)

    @pytest.mark.parametrize(
        "fa, fb, expected",
        [(3, 0, {1}), (1, 0, {0}), (4, -1, set())],  # above, below and tied with 2x at 1/2
    )
    def test_point_item(self, fa, fb, expected):
        point = (1, 2, True, 1, 2, True)
        for target in (0, 1):
            cut, whole = placed((2,), (0,), (0,), fa, fb, point, target)
            assert cut == whole == (point if target in expected else None)


def place_rank_by_rank(A, B, order, fa, fb, ln, ld, lc, hn, hd, hc):
    """The full placement cut rank by rank: every rank from r0, the new
    iterate's rank just right of the left end, to r1, its rank just left of
    the right end, both found by a linear scan, each rank cut by both
    neighbour inequalities."""

    def rank_near(xn, xd, side):
        # a linear scan: the old iterates below the new one just beside xn/xd
        below = 0
        for j in order:
            da = fa - A[j]
            d = da * xn + (fb - B[j]) * xd
            below += d > 0 or d == 0 and da * side > 0
        return below

    r0, r1 = rank_near(ln, ld, 1), rank_near(hn, hd, -1)
    step = 1 if r1 >= r0 else -1
    out = []
    for r in range(r0, r1 + step, step):
        sln, sld, slc, shn, shd, shc = ln, ld, lc, hn, hd, hc
        for i, sign in ((r - 1, 1), (r, -1)):
            if not 0 <= i < len(order):
                continue
            j = order[i]
            da, db = sign * (fa - A[j]), sign * (fb - B[j])
            if da > 0:
                if -db * shd >= shn * da:
                    break
                t = -db * sld - sln * da
                if t > 0:
                    sln, sld, slc = -db, da, False
                elif t == 0:
                    slc = False
            elif da < 0:
                if db * sld <= -sln * da:
                    break
                t = db * shd + shn * da
                if t < 0:
                    shn, shd, shc = db, -da, False
                elif t == 0:
                    shc = False
            elif db <= 0:
                break
        else:
            out.append((sln, sld, slc, shn, shd, shc, r))
    return out


@st.composite
def placements(draw):
    """Old iterates A[j] * x + B[j] that do not cross inside a part of [0, 1],
    their order there, the part and a new iterate (fa, fb).

    The part's ends are points where two old iterates tie (then open), grid
    points of twelfths, or 0 and 1; a point part is closed and holds no tie.
    The new iterate may pass through an old one at an end of the part.
    """
    coef = st.integers(-6, 6)
    lines = draw(st.lists(st.tuples(coef, coef), min_size=1, max_size=4, unique=True))
    A, B = tuple(a for a, _ in lines), tuple(b for _, b in lines)
    pairs = itertools.combinations(lines, 2)
    ties = {F(b2 - b1, a1 - a2) for (a1, b1), (a2, b2) in pairs if a1 != a2}
    cuts = sorted({F(0), F(1), *(x for x in ties if 0 < x < 1)})
    i = draw(st.integers(0, len(cuts) - 2))
    grid = (F(k, 12) for k in range(13))
    ends = sorted({cuts[i], cuts[i + 1], *(x for x in grid if cuts[i] < x < cuts[i + 1])})
    if draw(st.sampled_from([False, False, False, True])):  # a point part
        lo = hi = draw(st.sampled_from(ends))
        assume(lo not in ties)
        lc = hc = True
    else:
        lo = draw(st.sampled_from(ends[:-1]))
        hi = draw(st.sampled_from([x for x in ends if x > lo]))
        lc = lo not in ties and draw(st.booleans())
        hc = hi not in ties and draw(st.booleans())
    mid = (lo + hi) / 2
    order = tuple(sorted(range(len(lines)), key=lambda j: A[j] * mid + B[j]))
    if draw(st.booleans()):  # a steep one, near a value of [-12, 12] at mid
        fa = draw(st.integers(-60, 60))
        fb = math.floor(draw(st.integers(-12, 12)) - fa * mid)
    else:  # through old iterate j at an end x = num / den
        j = draw(st.integers(0, len(lines) - 1))
        x, t = draw(st.sampled_from([lo, hi])), draw(st.integers(-3, 3))
        fa, fb = A[j] + t * x.denominator, B[j] - t * x.numerator
    # ends as unreduced pairs, as crossings are
    k, l = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    part = (lo.numerator * k, lo.denominator * k, lc, hi.numerator * l, hi.denominator * l, hc)
    return A, B, order, fa, fb, part


class TestPlace:
    """The full placement, _place over _span's ranks, stepping one rank at
    each crossing, against the same inequalities cut rank by rank."""

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(placements())
    def test_matches_the_rank_by_rank_cut(self, placement):
        A, B, order, fa, fb, part = placement
        expected = place_rank_by_rank(A, B, order, fa, fb, *part)
        assert place(A, B, order, fa, fb, part) == expected

    # old iterates x < x + 1 on [0, 1]
    @pytest.mark.parametrize(
        "fa, fb, expected",
        [
            # 4x - 1 rises across x at 1/3 and x + 1 at 2/3
            (4, -1, [(0, 1, True, 1, 3, False, 0), (1, 3, False, 2, 3, False, 1),
                     (2, 3, False, 1, 1, True, 2)]),
            # -4x + 3 falls across x + 1 at 2/5 and x at 3/5
            (-4, 3, [(0, 1, True, 2, 5, False, 2), (2, 5, False, 3, 5, False, 1),
                     (3, 5, False, 1, 1, True, 0)]),
        ],
    )
    def test_passes_three_ranks(self, fa, fb, expected):
        A, B, order, unit = (1, 1), (0, 1), (0, 1), (0, 1, True, 1, 1, True)
        assert place(A, B, order, fa, fb, unit) == expected
        assert place_rank_by_rank(A, B, order, fa, fb, *unit) == expected


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(placements())
def test_cut_matches_the_placement_of_each_rank(placement):
    A, B, order, fa, fb, part = placement
    for target in range(len(order) + 1):
        cut, whole = placed(A, B, order, fa, fb, part, target)
        assert cut == whole, target


def place_span(A, B, order, fa, fb, part):
    """The ranks of the first and last segment of the rank-by-rank cut, or
    None if it cuts none."""
    ranks = [seg[-1] for seg in place_rank_by_rank(A, B, order, fa, fb, *part)]
    return (ranks[0], ranks[-1]) if ranks else None


class TestSpan:
    """_span, the ranks the full walk reads at a part's two ends, against
    the first and last rank of the rank-by-rank cut.

    The old iterates are the constants 1 < 2 < 3; parts are (lo_num,
    lo_den, lo_closed, hi_num, hi_den, hi_closed).
    """

    A, B, order = (0, 0, 0), (1, 2, 3), (0, 1, 2)

    @pytest.mark.parametrize(
        "fa, fb, part, expected",
        [
            # 4x rises across all three, from rank 0 to the top rank 3
            (4, 0, (0, 1, True, 1, 1, True), (0, 3)),
            # 4 - 4x falls across all three
            (-4, 4, (0, 1, True, 1, 1, True), (3, 0)),
            # 4x ties 1 at the open left end 1/4 and 3 at the right end 3/4
            (4, 0, (1, 4, False, 3, 4, True), (1, 2)),
            # 4x rises across 1 only, on [0, 3/8]
            (4, 0, (0, 1, True, 3, 8, True), (0, 1)),
            # below every old iterate, or above every one: rank 0, the top rank
            (1, 0, (0, 1, True, 1, 1, True), (0, 0)),
            (0, 5, (0, 1, True, 1, 1, True), (3, 3)),
            # equal to order[r] on the whole part
            (0, 2, (0, 1, True, 1, 1, True), None),
            # a point part that ties a neighbour, below it and above it
            (4, 0, (1, 2, True, 1, 2, True), None),
            (4, 0, (3, 4, True, 3, 4, True), None),
            # a point part strictly between two
            (4, 0, (3, 8, True, 3, 8, True), (1, 1)),
        ],
        ids=["rising-across", "falling-across", "ties-at-both-ends", "part-way",
             "rank-0", "top-rank", "equal", "point-tie-below", "point-tie-above", "point"],
    )
    def test_rank_range(self, fa, fb, part, expected):
        A, B, order = self.A, self.B, self.order
        assert _span(A, B, order, fa, fb, part[0], part[1], part[3], part[4]) == expected
        assert place_span(A, B, order, fa, fb, part) == expected

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(placements())
    def test_matches_the_placement(self, placement):
        A, B, order, fa, fb, (ln, ld, lc, hn, hd, hc) = placement
        expected = place_span(A, B, order, fa, fb, (ln, ld, lc, hn, hd, hc))
        assert _span(A, B, order, fa, fb, ln, ld, hn, hd) == expected


class TestGenericMapProperties:
    """Closure and partition on the non-catalog jagged map."""

    def test_closure_under_windows(self):
        for n in range(3, 6):
            al = set(exact_allowed(jagged(), n))
            shorter = set(exact_allowed(jagged(), n - 1))
            for p in al:
                assert reduce_values(p[:-1]) in shorter
                assert reduce_values(p[1:]) in shorter

    def test_partition(self):
        for n in range(2, 6):
            al = set(exact_allowed(jagged(), n))
            forb = set(exact_forbidden(jagged(), n))
            assert not (al & forb)
            assert len(al) + len(forb) == math.factorial(n)

    def test_realization_matches_membership(self):
        rng = random.Random(17)
        al = exact_allowed(jagged(), 5)
        sample = list(all_perms(5))
        rng.shuffle(sample)
        for p in sample[:40]:
            assert is_realized(jagged(), p) == (p in al)
