"""Permutation core: reduction, containment, avoiders, text and JSON forms.

Avoider values are cross-checked against a brute-force filter of S_n and
against a recurrence written here, so the state table never gets to
grade its own homework.
"""

import itertools
import math
import operator
import random
from functools import lru_cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patlab import (
    BadParameter,
    DuplicateValue,
    ParseError,
    PatternSet,
    ResourceLimit,
    all_perms,
    avoiders,
    contains,
    count_avoiders,
    format_perm,
    is_antichain,
    parse_perm,
    reduce_values,
)
from patlab.perms import DEFAULT_NODE_BUDGET, _expander, _forward, _group_by_length

# the basic forbidden patterns of the tent map of lengths 3..5
TENT_BASIS_3_5 = "1423,14523,2134,2143,23415,23514,31245,31254,3142,321,41253,41352,4231,45132,52341"


class TestReduce:
    def test_basic(self):
        assert reduce_values((0.5, 0.1, 0.9)) == (2, 1, 3)
        assert reduce_values([10, 20, 15, 5]) == (2, 4, 3, 1)
        assert reduce_values((7,)) == (1,)

    def test_duplicate_rejected(self):
        with pytest.raises(DuplicateValue):
            reduce_values((1, 2, 1))

    def test_empty_rejected(self):
        with pytest.raises(BadParameter):
            reduce_values(())

    def test_idempotent_on_permutations(self):
        rng = random.Random(7)
        for _ in range(200):
            n = rng.randint(1, 8)
            p = list(range(1, n + 1))
            rng.shuffle(p)
            assert reduce_values(p) == tuple(p)


class TestContains:
    def test_window_hit(self):
        assert contains((1, 4, 2, 3), (3, 1, 2))
        assert contains((1, 4, 2, 3), (1, 4, 2, 3))

    def test_window_miss(self):
        # only contiguous windows count
        assert not contains((1, 4, 2, 3), (1, 2, 3))

    def test_longer_pattern_never_contained(self):
        assert not contains((2, 1), (1, 2, 3))

    def test_length_one_pattern_always_contained(self):
        assert contains((1,), (1,)) and contains((3, 1, 2), (1,))

    def test_brute_force_agreement(self):
        rng = random.Random(11)
        for _ in range(100):
            n = rng.randint(3, 7)
            k = rng.randint(2, n)
            pi = list(range(1, n + 1))
            rng.shuffle(pi)
            sigma = list(range(1, k + 1))
            rng.shuffle(sigma)
            windows = {
                reduce_values(pi[i : i + k]) for i in range(n - k + 1)
            }
            assert contains(pi, sigma) == (tuple(sigma) in windows)


class TestAntichain:
    def test_incomparable_pair(self):
        assert is_antichain([(1, 3, 2), (2, 3, 1)])

    def test_same_length_always_incomparable(self):
        assert is_antichain([(1, 2), (2, 1)])

    def test_nested_pair(self):
        assert not is_antichain([(2, 1), (3, 2, 1)])

    def test_empty_and_singleton(self):
        assert is_antichain([])
        assert is_antichain([(1, 2, 3)])


def brute_avoiders(patterns, n):
    """S_n in lexicographic order, filtered by a direct check of every window.

    The windows that reduce to sigma are sigma's shape filled with any k
    of the values 1..n, so each window is looked up, not reduced.
    """
    bad = {}
    for s in patterns:
        k = len(s)
        for values in itertools.combinations(range(1, n + 1), k):
            bad.setdefault(k, set()).add(tuple(values[e - 1] for e in s))
    return [
        p
        for p in all_perms(n)
        if not any(p[i : i + k] in windows for k, windows in bad.items() for i in range(n - k + 1))
    ]


def no_double_ascent(n):
    """Permutations of 1..n with no 123 window (A049774), by a recurrence.

    The state after each placed value is (unused values below it, unused
    values above it, whether the step into it rose); a rise may not
    follow a rise.
    """

    @lru_cache(maxsize=None)
    def ways(below, above, rose):
        if below + above == 0:
            return 1
        down = sum(ways(i, below - 1 - i + above, False) for i in range(below))
        up = 0 if rose else sum(ways(below + j, above - 1 - j, True) for j in range(above))
        return down + up

    return sum(ways(i, n - 1 - i, False) for i in range(n))


class TestAvoiders:
    def test_no_patterns_gives_everything(self):
        assert count_avoiders([], 4) == 24
        assert len(avoiders([], 4)) == 24

    def test_single_descent_pattern(self):
        # only the ascending word has no 21 window
        assert set(avoiders([(2, 1)], 5)) == {(1, 2, 3, 4, 5)}

    def test_known_counts(self):
        assert count_avoiders([(3, 2, 1)], 4) == 17
        assert count_avoiders([(1, 3, 2), (2, 3, 1)], 10) == 512

    def test_length_one_pattern_kills_all(self):
        assert count_avoiders([(1,)], 4) == 0
        assert len(avoiders([(1,)], 4)) == 0

    def test_matches_brute_force(self):
        """The state table equals a plain filter of S_n, listed in the same order."""
        rng = random.Random(23)
        for _ in range(30):
            npat = rng.randint(1, 3)
            pats = []
            for _ in range(npat):
                k = rng.randint(2, 5)
                s = list(range(1, k + 1))
                rng.shuffle(s)
                pats.append(tuple(s))
            n = rng.randint(1, 8)
            expected = brute_avoiders(pats, n)
            listing = avoiders(pats, n).patterns
            assert list(listing) == expected, (pats, n)
            assert all(a < b for a, b in zip(listing, listing[1:]))
            assert count_avoiders(pats, n) == len(listing)

    def test_no_double_ascent(self):
        assert [no_double_ascent(n) for n in range(1, 10)] == [
            1, 2, 5, 17, 70, 349, 2017, 13358, 99377
        ]
        for n in range(1, 26):
            assert count_avoiders([(1, 2, 3)], n) == no_double_ascent(n), n

    def test_long_count(self):
        # no 132 or 231 window means no peak: the values fall, then rise
        assert count_avoiders([(1, 3, 2), (2, 3, 1)], 40) == 2**39

    def test_downward_closure(self):
        """Every window of an avoider is itself an avoider."""
        pats = [(1, 3, 2), (3, 2, 1)]
        for n in range(3, 8):
            shorter = avoiders(pats, n - 1)
            for p in avoiders(pats, n):
                assert reduce_values(p[:-1]) in shorter
                assert reduce_values(p[1:]) in shorter

    def test_node_budget(self):
        with pytest.raises(ResourceLimit):
            count_avoiders([(1, 3, 2)], 8, node_budget=5)

    def test_budget_message_names_depth_and_states(self):
        # depth 0 charges 8 moves; depth 1 holds 8 states of 7 moves each
        for run in (count_avoiders, avoiders):
            with pytest.raises(ResourceLimit) as info:
                run([(1, 3, 2)], 8, node_budget=20)
            assert "node budget of 20: 8 states at depth 1 of 8" in str(info.value)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget(self, budget):
        for run in (count_avoiders, avoiders):
            with pytest.raises(BadParameter, match=f"node budget must be positive, got {budget}"):
                run([(1, 3, 2)], 4, node_budget=budget)

    def test_listing_is_charged_before_any_word_is_built(self, monkeypatch):
        # 17 avoiders of 321 at n = 4 hold 68 entries; the table needs far fewer moves
        assert len(avoiders([(3, 2, 1)], 4, node_budget=68)) == 17
        monkeypatch.setattr("patlab.perms.PatternSet", None)  # building the listing would fail
        with pytest.raises(ResourceLimit, match="node budget of 67: 17 avoiders of length 4"):
            avoiders([(3, 2, 1)], 4, node_budget=67)

    @pytest.mark.parametrize("budget", [0, -1])
    def test_non_positive_budget_with_no_pattern(self, budget):
        for run in (count_avoiders, avoiders):
            with pytest.raises(BadParameter, match=f"node budget must be positive, got {budget}"):
                run([], 3, node_budget=budget)

    def test_no_pattern_listing_is_charged_before_any_word_is_built(self, monkeypatch):
        # every word avoids no pattern: 5! = 120 words of 5 entries each
        assert len(avoiders([], 5, node_budget=600)) == 120
        monkeypatch.setattr("patlab.perms.all_perms", None)  # building the listing would fail
        with pytest.raises(ResourceLimit, match=r"node budget of 599: 120 avoiders of length 5$"):
            avoiders([], 5, node_budget=599)
        with pytest.raises(ResourceLimit, match=r"budget of 10: more than 3! = 6 avoiders of length 5$"):
            avoiders([], 5, node_budget=10)
        # 11! * 11 = 439,084,800 entries pass the default budget
        with pytest.raises(ResourceLimit, match=r"of 50000000: 39916800 avoiders of length 11$"):
            avoiders([], 11)
        # the product stops once it passes the budget, so a huge n is refused at once
        with pytest.raises(ResourceLimit, match=r": more than 1! = 1 avoiders of length 10{20}$"):
            avoiders([], 10**20)

    def test_forward_stops_at_the_first_empty_depth(self):
        # no state survives the pattern 1, so a search that went on would
        # yield one more empty depth per unused value
        n = 4 * 10**7
        expand = _expander(_group_by_length([(1,)]), n)
        assert list(itertools.islice(_forward(expand, n, DEFAULT_NODE_BUDGET), 5)) == [{(): {(): 1}}, {}]
        # depth 0 has no move to charge; no deeper depth is reached
        assert count_avoiders([(1,)], 10**20, node_budget=10**21) == 0
        assert len(avoiders([(1,)], 10**20, node_budget=10**21)) == 0

    def test_states_per_depth(self):
        # every depth's states are grouped by the order of their entries
        patterns = [parse_perm(w) for w in TENT_BASIS_3_5.split(",")]
        layers = list(_forward(_expander(_group_by_length(patterns), 10), 10, DEFAULT_NODE_BUDGET))
        assert [sum(map(len, layer.values())) for layer in layers] == [
            1, 10, 90, 600, 1470, 910, 525, 275, 125, 45, 10
        ]
        for layer in layers:
            for order, group in layer.items():
                assert all(tuple(map(sorted(tail).index, tail)) == order for tail in group)

    @pytest.mark.parametrize(
        "text, n, budget, states, depth",
        [(TENT_BASIS_3_5, 10, 21610, 45, 9), ("132,231", 12, 2729, 5, 11), ("123", 9, 879, 5, 8)],
    )
    def test_smallest_admitted_budget(self, text, n, budget, states, depth):
        # the moves charged sum to budget, the last of them at the last depth with a move
        patterns = [parse_perm(w) for w in text.split(",")]
        assert count_avoiders(patterns, n, node_budget=budget) == count_avoiders(patterns, n)
        with pytest.raises(ResourceLimit) as info:
            count_avoiders(patterns, n, node_budget=budget - 1)
        assert str(info.value) == (
            f"avoider search exceeded the node budget of {budget - 1}: "
            f"{states} states at depth {depth} of {n}"
        )


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.integers(3, 6).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple),
        min_size=1,
        max_size=3,
    ),
    st.integers(4, 7),
)
def test_long_tails_match_brute_force(patterns, n):
    """Patterns of up to 6 entries keep tails of up to 5 values, in several orders a depth."""
    expected = brute_avoiders(patterns, n)
    assert list(avoiders(patterns, n)) == expected
    assert count_avoiders(patterns, n) == len(expected)


def listing_and_meet(monkeypatch, patterns, n):
    """avoiders(patterns, n), and the depth k at which its words were built.

    Each completion of a state at depth k < n - 1 is an itemgetter of its
    n - k positions, the widest built; depth n - 1 builds none.
    """
    widths = []
    itemgetter = operator.itemgetter

    def spy(*positions):
        widths.append(len(positions))
        return itemgetter(*positions)

    with monkeypatch.context() as mp:
        mp.setattr(operator, "itemgetter", spy)
        found = avoiders(patterns, n)
    return found, n - max(widths, default=1)


def valleys(n):
    """The permutations of 1..n that fall to 1 and then rise, in lexicographic order."""
    found = []
    for mask in range(2 ** (n - 1)):
        left = [v for v in range(2, n + 1) if mask >> (v - 2) & 1]
        right = [v for v in range(2, n + 1) if not mask >> (v - 2) & 1]
        found.append((*reversed(left), 1, *right))
    return sorted(found)


class TestMeetingDepth:
    """The listing meets its prefixes and completions at one depth k.

    Depth 0 makes count completions there, at least the live prefixes of
    length 1 that depth 1 makes in their place; depth n - 1 makes count
    prefixes, at least the completions of depth n - 2.  So neither end
    costs less than its neighbour, and as the first of the cheapest
    depths, n - 1 is picked only when n = 1.
    """

    @pytest.mark.parametrize(
        "text, n, meet",
        [
            ("21", 6, 0),  # one prefix and one completion a depth: every depth costs the same
            ("123", 2, 0),  # the same tie
            ("123", 1, 0),  # k = n - 1
            ("321", 3, 1),  # k = n - 2
            ("123", 8, 4),
            (TENT_BASIS_3_5, 8, 5),
        ],
    )
    def test_against_brute_force(self, monkeypatch, text, n, meet):
        patterns = [parse_perm(w) for w in text.split(",")]
        found, k = listing_and_meet(monkeypatch, patterns, n)
        assert k == meet
        assert list(found) == brute_avoiders(patterns, n)
        assert all(a < b for a, b in zip(found.patterns, found.patterns[1:]))

    def test_comma_form(self, monkeypatch):
        # no 132 or 231 window means no peak; S_11 is too large to filter
        found, k = listing_and_meet(monkeypatch, [(1, 3, 2), (2, 3, 1)], 11)
        assert k == 3
        assert found.to_json()["patterns"] == [",".join(map(str, p)) for p in valleys(11)]

    def test_budget_messages_are_unchanged(self):
        patterns = [parse_perm(w) for w in TENT_BASIS_3_5.split(",")]
        with pytest.raises(ResourceLimit, match="node budget of 100: 56 states at depth 2 of 8$"):
            avoiders(patterns, 8, node_budget=100)
        # 1,872 avoiders of length 8 hold 14,976 entries
        with pytest.raises(ResourceLimit, match="node budget of 14975: 1872 avoiders of length 8$"):
            avoiders(patterns, 8, node_budget=14975)
        assert len(avoiders(patterns, 8, node_budget=14976)) == 1872


class TestTextForms:
    def test_digit_form(self):
        assert format_perm((1, 4, 2, 3)) == "1423"
        assert parse_perm("1423") == (1, 4, 2, 3)

    def test_comma_form_for_wide_patterns(self):
        p = tuple(range(1, 11))
        text = format_perm(p)
        assert "," in text
        assert parse_perm(text) == p

    @pytest.mark.parametrize("bad", ["", "10", "1,0", "122", "13", "1,2,4"])
    def test_parse_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_perm(bad)

    def test_round_trip_random(self):
        rng = random.Random(3)
        for _ in range(100):
            n = rng.randint(1, 13)
            p = list(range(1, n + 1))
            rng.shuffle(p)
            assert parse_perm(format_perm(tuple(p))) == tuple(p)


class TestPatternSet:
    def test_sorted_dedup(self):
        ps = PatternSet.from_perms(2, [(2, 1), (1, 2), (2, 1)])
        assert ps.patterns == ((1, 2), (2, 1))
        assert len(ps) == 2
        assert (2, 1) in ps

    def test_length_mismatch(self):
        with pytest.raises(BadParameter):
            PatternSet.from_perms(3, [(1, 2)])

    def test_json_round_trip(self):
        ps = PatternSet.from_perms(3, [(3, 1, 2), (1, 2, 3)])
        data = ps.to_json()
        assert data == {"n": 3, "patterns": ["123", "312"]}
        assert PatternSet.from_json(data) == ps

    @pytest.mark.parametrize("n", [1, 2, 7, 9, 10, 11, 15, 23])
    def test_json_words_are_format_perm(self, n):
        # to_json formats without re-checking; format_perm checks first
        rng = random.Random(n)
        words = [tuple(rng.sample(range(1, n + 1), n)) for _ in range(60)]
        ps = PatternSet.from_perms(n, words)
        assert ps.to_json()["patterns"] == [format_perm(p) for p in ps]
        assert PatternSet.from_json(ps.to_json()) == ps

    def test_bad_json(self):
        with pytest.raises(ParseError):
            PatternSet.from_json({"patterns": ["12"]})

    @pytest.mark.parametrize("data", [{"n": 2, "patterns": [12]}, {"n": 2, "patterns": None}])
    def test_malformed_patterns_json(self, data):
        # a cache body is outside input: it must fail as ParseError, not crash
        with pytest.raises(ParseError):
            PatternSet.from_json(data)
