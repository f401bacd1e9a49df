"""Property tests of the exact engine and the diagonal geometry on random
small rational PWL maps.

The maps have two or three ramps on a grid of twelfths, with random
ownership of every breakpoint (so jumps land on either side), and may
carry a zero-length point piece at a breakpoint or at an end of [0, 1].
Each property is checked against exact Fraction orbits, against the
itinerary oracle of itineraries.py, which shares no code with the
engine, or against another entry point of the engine.  The walk's lower
bound on the items of each depth is checked on maps of quarters whose
ramps may also be the identity or an involution, which fully cover
themselves and yet carry no item past the first depth.
"""

import random
from collections import Counter, defaultdict
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from patlab import (
    PwlMap,
    PwlPiece,
    all_perms,
    alt_sawtooth,
    avoiders,
    count_avoiders,
    diagonal_region,
    exact_allowed,
    exact_basic_forbidden,
    is_realized,
    load_map_spec,
    reduce_values,
    refined_piece_count,
    sawtooth,
    shortest_bound,
    shortest_forbidden_length,
    tent,
    witness,
)
from patlab import engine
from patlab.bounds import METHODS, ORIENTATIONS
from patlab.engine import _cylinder_counts, _scaled, _word, walk

from itineraries import itinerary_patterns

F = Fraction
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True, database=None)


@st.composite
def pwl_maps(draw):
    cuts = draw(st.lists(st.integers(1, 11), min_size=1, max_size=2, unique=True))
    edges = [F(0), *sorted(F(c, 12) for c in cuts), F(1)]
    point_at = draw(st.sampled_from([None, *edges]))
    heights = st.integers(0, 6).map(lambda k: F(k, 6))
    pieces = []
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        y_lo = draw(heights)
        y_hi = draw(heights.filter(lambda y: y != y_lo))
        slope = (y_hi - y_lo) / (hi - lo)
        # a breakpoint belongs to the ramp on its left or its right, or to a point piece
        lo_closed = lo != point_at and (i == 0 or not pieces[-1].hi_closed)
        hi_closed = hi != point_at and (hi == 1 or draw(st.booleans()))
        pieces.append(PwlPiece(lo, hi, lo_closed, hi_closed, slope, y_lo - slope * lo))
    if point_at is not None:
        pieces.append(PwlPiece(point_at, point_at, True, True, 0, draw(heights)))
    return PwlMap(tuple(pieces))


def orbit(m, x, n):
    values = [x]
    while len(values) < n:
        values.append(m(values[-1]))
    return values


@PROPERTY
@given(pwl_maps(), st.integers(2, 5))
def test_grid_orbits_are_allowed(m, n):
    allowed = exact_allowed(m, n)
    for i in range(98):
        values = orbit(m, F(i, 97), n)
        if len(set(values)) == n:
            assert reduce_values(values) in allowed


@PROPERTY
@given(pwl_maps(), st.integers(2, 5))
def test_every_allowed_pattern_has_a_witness(m, n):
    """Each item of the last depth holds a point realizing its order."""
    witnessed = set()
    for k, ln, ld, hn, hd, _, _, _, _, order in walk(m, n - 1):
        if k == n - 1:
            values = orbit(m, (F(ln, ld) + F(hn, hd)) / 2, n)
            assert [values[j] for j in order] == sorted(values)
            assert len(set(values)) == n
            witnessed.add(reduce_values(values))
    assert witnessed == set(exact_allowed(m, n))


@PROPERTY
@given(pwl_maps(), st.integers(3, 6))
def test_windows_of_allowed_patterns_are_allowed(m, n):
    shorter = exact_allowed(m, n - 1)
    for p in exact_allowed(m, n):
        assert reduce_values(p[:-1]) in shorter
        assert reduce_values(p[1:]) in shorter


@PROPERTY
@given(pwl_maps(), st.integers(1, 5))
def test_is_realized_matches_allowed(m, n):
    allowed = exact_allowed(m, n)
    for p in all_perms(n):
        assert is_realized(m, p) == (p in allowed), p


@PROPERTY
@given(pwl_maps())
def test_pruned_walk_is_the_filtered_full_walk(m):
    """The walk with a pattern keeps exactly the full walk's items whose
    order agrees with the pattern's prefix."""
    for n in range(1, 6):
        full = list(walk(m, n - 1))
        for pi in all_perms(n):
            agree = [tuple(sorted(range(k + 1), key=pi.__getitem__)) for k in range(n)]
            kept = [item for item in full if item[-1] == agree[item[0]]]
            assert sorted(walk(m, n - 1, pattern=pi)) == sorted(kept), pi


@PROPERTY
@given(pwl_maps(), st.integers(2, 6))
def test_allowed_patterns_avoid_the_basic_forbidden_ones(m, n):
    basis = [p for k in range(2, n + 1) for p in exact_basic_forbidden(m, k)]
    assert avoiders(basis, n) == exact_allowed(m, n)


@PROPERTY
@given(pwl_maps())
def test_basic_forbidden_matches_its_definition(m):
    """The glued basic set is S_n filtered by the definition: forbidden,
    with both length-(n-1) windows allowed."""
    for n in range(2, 7):
        allowed, shorter = exact_allowed(m, n), exact_allowed(m, n - 1)
        direct = [
            p for p in all_perms(n)
            if p not in allowed
            and reduce_values(p[:-1]) in shorter
            and reduce_values(p[1:]) in shorter
        ]
        assert list(exact_basic_forbidden(m, n)) == direct, n


# f(x) < x on both sides of x = 1/2, where f(x) = x: a point piece there,
# then the right ramp owning it
HALF = F(1, 2)
TIE_BETWEEN = [
    PwlMap((PwlPiece(0, HALF, True, False, HALF, 0), PwlPiece(HALF, HALF, True, True, 0, HALF),
            PwlPiece(HALF, 1, False, True, 1, -HALF / 2))),
    PwlMap((PwlPiece(0, HALF, True, False, HALF, 0), PwlPiece(HALF, 1, True, True, HALF, HALF / 2))),
]


@PROPERTY
@given(pwl_maps(), st.sampled_from(["below", "above"]))
@example(TIE_BETWEEN[0], "below")
@example(TIE_BETWEEN[1], "below")
def test_diagonal_region_matches_exact_evaluation(m, orientation):
    """Against Fraction evaluation at every point where the side of the
    diagonal can change (piece ends and fixed points) and between them."""
    side = (lambda x: m(x) < x) if orientation == "below" else (lambda x: m(x) > x)
    region = diagonal_region(m, orientation)
    cuts = {x for p in m.pieces for x in (p.lo, p.hi)}
    cuts |= {p.intercept / (1 - p.slope) for p in m.pieces if p.slope != 1}
    cuts = sorted(x for x in cuts if 0 <= x <= 1)
    points = sorted({*cuts, *((a + b) / 2 for a, b in zip(cuts, cuts[1:]))})
    for x in points:
        assert any(iv.contains(x) for iv in region) == side(x), x
    for left, right in zip(region, region[1:]):
        assert any(left.hi <= x <= right.lo and not side(x) for x in points), (left, right)


@PROPERTY
@given(pwl_maps(), st.sampled_from(["below", "above"]))
def test_refined_piece_count_matches_its_definition(m, orientation):
    """A rising piece counts when its affine extension is strictly past the
    diagonal at its left end (below) or right end (above); a falling piece
    counts when one of its points is, checked at its owned ends, its fixed
    point and between them."""
    def past(p, x):
        return p.value_at(x) < x if orientation == "below" else p.value_at(x) > x

    count = 0
    for p in m.pieces:
        if p.lo == p.hi:
            continue
        if p.slope > 0:
            count += past(p, p.lo if orientation == "below" else p.hi)
            continue
        cuts = sorted(x for x in {p.lo, p.hi, p.intercept / (1 - p.slope)} if p.lo <= x <= p.hi)
        xs = [*cuts, *((a + b) / 2 for a, b in zip(cuts, cuts[1:]))]
        count += any(past(p, x) for x in xs if p.interval.contains(x))
    assert refined_piece_count(m, orientation) == count


@PROPERTY
@given(pwl_maps())
def test_shortest_forbidden_length_is_within_the_bound(m):
    """The paper's bound, for both methods and both orientations: some
    pattern of length at most shortest_bound(...).bound is forbidden."""
    for method in METHODS:
        for orientation in ORIENTATIONS:
            bound = shortest_bound(m, method, orientation).bound
            assert shortest_forbidden_length(m, bound) is not None, (method, orientation)


@PROPERTY
@given(pwl_maps())
def test_simple_witness_of_the_below_count_is_forbidden(m):
    """With k components below the diagonal, witness(k, "simple") is not
    realized; for k = 0 its formula gives 21, forbidden since f(x) >= x."""
    k = len(diagonal_region(m, "below"))
    assert not is_realized(m, witness(k, "simple") if k else (2, 1)), k


@st.composite
def bound_maps(draw):
    """Ramps on a grid of quarters, each a line, the identity or the
    involution x -> lo + hi - x, with point pieces at some breakpoints,
    of slope 0 or of a steep slope that no item may follow."""
    cuts = draw(st.lists(st.integers(1, 3), max_size=2, unique=True))
    edges = [F(0), *sorted(F(c, 4) for c in cuts), F(1)]
    points = draw(st.sets(st.sampled_from(edges), max_size=2))
    heights = st.integers(0, 4).map(lambda k: F(k, 4))
    pieces = []
    for i, (lo, hi) in enumerate(zip(edges, edges[1:])):
        kind = draw(st.sampled_from(["line", "identity", "involution"]))
        if kind == "line":
            y_lo = draw(heights)
            y_hi = draw(heights.filter(lambda y: y != y_lo))
        else:
            y_lo, y_hi = (lo, hi) if kind == "identity" else (hi, lo)
        slope = (y_hi - y_lo) / (hi - lo)
        lo_closed = lo not in points and (i == 0 or not pieces[-1].hi_closed)
        hi_closed = hi not in points and (hi == 1 or draw(st.booleans()))
        pieces.append(PwlPiece(lo, hi, lo_closed, hi_closed, slope, y_lo - slope * lo))
    for x in sorted(points):
        slope, y = draw(st.sampled_from([0, 4, -4])), draw(heights)
        pieces.append(PwlPiece(x, x, True, True, slope, y - slope * x))
    return PwlMap(tuple(pieces))


@PROPERTY
@given(st.one_of(pwl_maps(), bound_maps()), st.integers(0, 5), st.data())
def test_items_hold_their_order_at_their_closed_ends(m, depth, data):
    """No item of the full or the pruned walk holds a point where two of its
    iterates tie: at each closed end the Fraction orbit realizes the
    item's order."""
    pattern = tuple(data.draw(st.permutations(range(1, depth + 2))))
    for pruned in (None, pattern):
        for k, ln, ld, hn, hd, lc, hc, _, _, order in walk(m, depth, pattern=pruned):
            for closed, x in ((lc, F(ln, ld)), (hc, F(hn, hd))):
                if closed:
                    values = orbit(m, x, k + 1)
                    assert len(set(values)) == k + 1, (k, x)
                    assert [values[j] for j in order] == sorted(values), (k, x)


@PROPERTY
@given(st.one_of(pwl_maps(), bound_maps()), st.integers(1, 4), st.data())
def test_every_part_the_split_hands_on_is_nonempty(m, depth, data):
    """The split has no test for an empty part: its scan keeps only pieces
    whose preimage meets the item, and a point piece is closed at both ends,
    so each part it hands to _span and _place (full walk) or _cut (pruned)
    is nonempty.  _span reads only the part's ends, and it sees every part
    of the full walk, also those it drops and those of the last depth of
    the walk behind exact_allowed, which makes no item."""
    parts, spans = [], []

    def spy(real, seen, width):
        def recording(*args):
            seen.append(args[-width:])  # each takes the part as its last arguments
            return real(*args)
        return recording

    pattern = data.draw(st.permutations(range(1, depth + 2)))
    engine._entry = None
    try:
        with mock.patch.object(engine, "_span", spy(engine._span, spans, 4)), \
                mock.patch.object(engine, "_place", spy(engine._place, parts, 6)), \
                mock.patch.object(engine, "_cut", spy(engine._cut, parts, 6)):
            for _ in walk(m, depth):
                pass
            for _ in walk(m, depth, pattern=pattern):
                pass
            exact_allowed(m, depth + 1)
    finally:
        engine._entry = None
    assert parts and spans
    for ln, ld, lc, hn, hd, hc in parts:
        assert ln * hd < hn * ld or ln * hd == hn * ld and lc and hc, (ln, ld, lc, hn, hd, hc)
    for ln, ld, hn, hd in spans:
        assert ln * hd <= hn * ld, (ln, ld, hn, hd)


@PROPERTY
@given(st.one_of(pwl_maps(), bound_maps()), st.integers(0, 4))
def test_levels_are_the_rank_words_of_the_walks_items(m, depth):
    """The walk behind _level makes no item at its last depth, and _level
    glues each level from the masks of the one above; its words, their
    masks and the items made at each depth must still be those of the
    public walk's items."""
    words, masks, counts = defaultdict(set), defaultdict(int), Counter()
    for item in walk(m, depth):
        k, order = item[0], item[-1]
        words[k].add(_word(order))
        counts[k] += 1
        if k:  # the parent's word, and the last value of this item's word
            parent = _word(tuple(j for j in order if j != k))
            masks[parent] |= 1 << order.index(k) + 1
    engine._entry = None
    try:
        engine._level(m, depth, 10**6)
        entry = engine._entry
        created = entry.created
        assert created[0] == 0 and all(counts[k] == created[k] for k in range(1, len(created)))
        assert not any(counts[k] for k in range(len(created), depth + 1))
        for k in range(depth + 1):
            level = engine._level(m, k, 10**6)
            assert set(level) == words[k], k
            assert all(bits == (masks[w] if k < depth else 0) for w, bits in level.items()), k
        assert engine._entry is entry  # every level was served from the one walk
    finally:
        engine._entry = None


@PROPERTY
@given(st.one_of(pwl_maps(), bound_maps()))
def test_allowed_sets_match_the_itinerary_oracle(m):
    """exact_allowed and exact_basic_forbidden against the itinerary oracle,
    which shares no code with the walk, and against its refilter."""
    oracle = itinerary_patterns(m, 6)
    for n in range(1, 7):
        assert set(exact_allowed(m, n)) == oracle[n - 1], n
    for n in range(2, 7):
        shorter = oracle[n - 2]
        basic = {p for p in all_perms(n) if p not in oracle[n - 1]
                 and reduce_values(p[:-1]) in shorter and reduce_values(p[1:]) in shorter}
        assert set(exact_basic_forbidden(m, n)) == basic, n


@PROPERTY
@given(st.one_of(pwl_maps(), bound_maps()))
def test_is_realized_matches_the_itinerary_oracle(m):
    oracle = itinerary_patterns(m, 5)
    for n in range(1, 6):
        for pi in all_perms(n):
            assert is_realized(m, pi) == (pi in oracle[n - 1]), pi


@PROPERTY
@given(st.one_of(pwl_maps(), bound_maps()))
def test_greedy_placement_accepts_every_allowed_pattern(m):
    """is_realized answers False without a walk where _placeable fails, so
    _placeable must accept every pattern an orbit realizes, here each one
    the itinerary oracle finds."""
    q, pieces = _scaled(m, 1)
    for patterns in itinerary_patterns(m, 6):
        for pi in patterns:
            assert engine._placeable(pieces, q, pi), pi


def cylinder_bounds(m, depth):
    q, pieces = _scaled(m, depth)
    return list(islice(_cylinder_counts(pieces, q), depth))


def assert_bound_below_items(m, depth):
    items = Counter(item[0] for item in walk(m, depth, cell_budget=10**9))
    bounds = cylinder_bounds(m, depth)
    assert all(bound <= items[k] for k, bound in enumerate(bounds, start=1)), (bounds, items)


@PROPERTY
@given(bound_maps(), st.integers(1, 3))
def test_cylinder_bound_is_at_most_the_items_of_each_depth(m, depth):
    assert_bound_below_items(m, depth)


SKEW_TENT = load_map_spec(
    '{"type":"pwl","pieces":[{"lo":"0","hi":"2/5","slope":"5/2","intercept":"0"},'
    '{"lo":"2/5","hi":"1","slope":"-5/3","intercept":"5/3"}]}'
).require_exact()


@pytest.mark.parametrize(
    "m, depth",
    [(tent(), 10), (sawtooth(3), 6), (alt_sawtooth(5), 5), (SKEW_TENT, 8)],
    ids=["tent", "sawtooth:3", "alt_sawtooth:5", "skew-tent"],
)
def test_cylinder_bound_on_the_benchmark_maps(m, depth):
    assert_bound_below_items(m, depth)


@pytest.mark.parametrize(
    "m", [sawtooth(3), alt_sawtooth(5), SKEW_TENT],
    ids=["sawtooth:3", "alt_sawtooth:5", "skew-tent"],
)
def test_pruned_walk_is_the_filtered_full_walk_in_order(m):
    """The pruned walk yields the full walk's items whose order agrees with
    the pattern's prefix, in the full walk's depth-first order, on the
    patterns of seeded exact orbits and on seeded permutations."""
    rng = random.Random(19)
    for n in (6, 7, 8):
        patterns = []
        while len(patterns) < 3:
            values = orbit(m, Fraction(rng.randrange(1, 10007), 10007), n)
            if len(set(values)) == n:
                patterns.append(reduce_values(values))
        patterns.append(tuple(rng.sample(range(1, n + 1), n)))
        # the items of each pattern, keyed by the order they agree with at each depth
        kept = [[] for _ in patterns]
        agreeing = {}
        for p, pi in enumerate(patterns):
            for k in range(n):
                order = tuple(sorted(range(k + 1), key=pi.__getitem__))
                agreeing.setdefault((k, order), []).append(p)
        for item in walk(m, n - 1):
            for p in agreeing.get((item[0], item[-1]), ()):
                kept[p].append(item)
        for pi, items in zip(patterns, kept):
            assert list(walk(m, n - 1, pattern=pi)) == items, pi


def test_cylinder_bound_counts_the_catalog_cylinders():
    for n in (2, 3, 5):
        assert cylinder_bounds(sawtooth(n), 4) == [n, n**2, n**3, n**4]
    assert cylinder_bounds(tent(), 3) == [2, 4, 8]
    # alt_sawtooth:5 at n = 9 stays within the default cell budget
    assert cylinder_bounds(alt_sawtooth(5), 8)[-1] == 390_625


patterns = st.lists(
    st.integers(1, 5).flatmap(lambda k: st.permutations(range(1, k + 1))).map(tuple),
    min_size=1,
    max_size=3,
)


@PROPERTY
@given(patterns, st.integers(1, 7))
def test_avoiders_match_a_filter_of_all_perms(pats, n):
    expected = [
        p for p in all_perms(n)
        if not any(reduce_values(p[i:i + len(s)]) == s for s in pats for i in range(n - len(s) + 1))
    ]
    assert list(avoiders(pats, n)) == expected
    assert count_avoiders(pats, n) == len(expected)
