"""Property tests of the exact engine and the diagonal geometry on random
small rational PWL maps.

The maps have two or three ramps on a grid of twelfths, with random
ownership of every breakpoint (so jumps land on either side), and may
carry a zero-length point piece at a breakpoint or at an end of [0, 1].
Each property is checked against exact Fraction orbits or against
another entry point of the engine.
"""

from fractions import Fraction

from hypothesis import example, given, settings
from hypothesis import strategies as st

from patlab import (
    PwlMap,
    PwlPiece,
    all_perms,
    avoiders,
    diagonal_region,
    exact_allowed,
    exact_basic_forbidden,
    is_realized,
    reduce_values,
    refined_piece_count,
)
from patlab.engine import walk

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
@given(pwl_maps(), st.integers(2, 6))
def test_allowed_patterns_avoid_the_basic_forbidden_ones(m, n):
    basis = [p for k in range(2, n + 1) for p in exact_basic_forbidden(m, k)]
    assert avoiders(basis, n) == exact_allowed(m, n)


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
