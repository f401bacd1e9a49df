"""Exact piecewise-linear maps: catalog shapes, validation, diagonal geometry,
and the refinement walk that the pattern engine is built on."""

import random
from fractions import Fraction

import pytest

from patlab import (
    BadParameter,
    OutOfDomain,
    PwlMap,
    PwlPiece,
    ResourceLimit,
    ValidationError,
    alt_sawtooth,
    diagonal_region,
    refined_piece_count,
    sawtooth,
    tent,
)
from patlab.engine import walk

F = Fraction


class TestCatalog:
    def test_tent_values(self):
        m = tent()
        assert m(F(0)) == 0
        assert m(F(1, 4)) == F(1, 2)
        assert m(F(1, 2)) == 1
        assert m(F(3, 4)) == F(1, 2)
        assert m(F(1)) == 0

    def test_sawtooth_wraps_to_zero_at_one(self):
        for n in (2, 3, 5):
            m = sawtooth(n)
            assert m(F(1)) == 0
            # interior breakpoints belong to the ramp on their right
            for j in range(1, n):
                assert m(F(j, n)) == 0

    def test_sawtooth_slope(self):
        m = sawtooth(3)
        assert m(F(1, 6)) == F(1, 2)
        assert m(F(1, 2)) == F(1, 2)
        assert m(F(5, 6)) == F(1, 2)

    def test_alt_sawtooth_matches_folded_formula(self):
        """alt_sawtooth(N) must equal the tent map applied to (Nx/2) mod 1."""
        t = tent()
        for n in (2, 3, 4, 5, 9):
            m = alt_sawtooth(n)
            rng = random.Random(n)
            for _ in range(50):
                x = F(rng.randint(0, 10**6), 10**6)
                folded = (n * x / 2) % 1
                assert m(x) == t(folded), (n, x)

    def test_alt_sawtooth_endpoint(self):
        assert alt_sawtooth(3)(F(1)) == 1  # odd ramp count ends rising
        assert alt_sawtooth(4)(F(1)) == 0

    def test_alt_sawtooth_continuous(self):
        for n in (3, 4, 9):
            m = alt_sawtooth(n)
            for j in range(1, n):
                x = F(j, n)
                left = [p for p in m.pieces if p.hi == x]
                right = [p for p in m.pieces if p.lo == x]
                assert left and right
                assert left[0].value_at(x) == right[0].value_at(x)

    @pytest.mark.parametrize("build", [sawtooth, alt_sawtooth])
    def test_ramp_limit(self, build, monkeypatch):
        monkeypatch.setattr("patlab.pwl._MAX_RAMPS", 4)
        assert len(build(4).pieces) >= 4
        with pytest.raises(ResourceLimit, match="exceeds the limit of 4 ramps"):
            build(5)


class TestValidation:
    def test_gap(self):
        with pytest.raises(ValidationError, match="gap"):
            PwlMap(
                (
                    PwlPiece(0, F(1, 4), True, False, 2, 0),
                    PwlPiece(F(1, 2), 1, True, True, -1, 1),
                )
            )

    def test_overlap(self):
        with pytest.raises(ValidationError, match="overlap"):
            PwlMap(
                (
                    PwlPiece(0, F(2, 3), True, True, 1, 0),
                    PwlPiece(F(1, 3), 1, True, True, -1, 1),
                )
            )

    def test_image_escape(self):
        with pytest.raises(ValidationError, match="escape"):
            PwlPiece(0, 1, True, True, 2, 0)

    def test_zero_slope_rejected(self):
        with pytest.raises(ValidationError):
            PwlPiece(0, 1, True, True, 0, F(1, 2))

    def test_domain_must_start_at_zero(self):
        with pytest.raises(ValidationError):
            PwlMap((PwlPiece(F(1, 4), 1, True, True, 1, 0),))

    def test_right_end_must_be_owned(self):
        with pytest.raises(ValidationError):
            PwlMap((PwlPiece(0, 1, True, False, 1, 0),))

    def test_piece_order_irrelevant(self):
        a = PwlPiece(0, F(1, 2), True, False, 2, 0)
        b = PwlPiece(F(1, 2), 1, True, True, -2, 2)
        assert PwlMap((a, b)) == PwlMap((b, a)) == tent()

    def test_eval_outside_domain(self):
        with pytest.raises(OutOfDomain):
            tent()(F(3, 2))

    @pytest.mark.parametrize(
        "slope",
        ["1e-99999999", "1e-4300", "1" * 4301, F(1, 10**4300), 10**4300],
        ids=["huge-exponent", "denominator-4301-digits", "digits-4301", "fraction", "int"],
    )
    def test_value_too_large(self, slope):
        with pytest.raises(BadParameter, match="more than 4300 digits"):
            PwlPiece(0, 1, True, True, slope, 0)

    @pytest.mark.parametrize("slope", ["1e-4299", F(1, 10**4300 - 1)])
    def test_value_at_the_digit_limit(self, slope):
        assert PwlPiece(0, 1, True, True, slope, 0).slope == F(slope)


class TestDiagonalGeometry:
    def test_tent_descent_region(self):
        (iv,) = diagonal_region(tent(), "below")
        assert (iv.lo, iv.hi) == (F(2, 3), F(1))

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_sawtooth_descent_count(self, n):
        assert len(diagonal_region(sawtooth(n), "below")) == n - 1

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_alt_sawtooth_descent_count(self, n):
        assert len(diagonal_region(alt_sawtooth(n), "below")) == (n - 1) // 2

    def test_ascent_counts(self):
        assert len(diagonal_region(tent(), "above")) == 1
        assert len(diagonal_region(sawtooth(2), "above")) == 1

    def test_refined_counts(self):
        assert refined_piece_count(tent(), "below") == 1
        assert refined_piece_count(sawtooth(2), "below") == 1

    def test_refined_counts_alt_sawtooth(self):
        """Rising ramps of the alternating sawtooth start at height 0, which is
        strictly below the diagonal everywhere but the origin, so interior
        rising ramps qualify alongside the falling ones."""
        assert refined_piece_count(alt_sawtooth(9), "below") == 8
        assert refined_piece_count(alt_sawtooth(3), "below") == 2


def items_at(m, depth):
    """Items of the engine's walk at one depth as (lo, hi, lo_closed,
    hi_closed, A, B, order), sorted along [0, 1]."""
    out = [
        (F(ln, ld), F(hn, hd), lc, hc, A, B, order)
        for k, ln, ld, hn, hd, lc, hc, A, B, order in walk(m, depth)
        if k == depth
    ]
    return sorted(out, key=lambda it: (it[0], not it[2], it[1]))


def orbit(m, x, depth):
    values = [x]
    for _ in range(depth):
        values.append(m(values[-1]))
    return values


class TestOrbitLinearization:
    """The refinement walk of the exact engine: on each item the iterates
    are affine and strictly ordered, and ties are cut out."""

    def test_tent_depth_three_breakpoints(self):
        bounds = {it[0] for it in items_at(tent(), 2)} | {it[1] for it in items_at(tent(), 2)}
        # the preimages of 1/2 plus every tie among x, f(x), f(f(x)) inside (0, 1)
        assert sorted(bounds - {0, 1}) == [
            F(1, 4), F(1, 3), F(2, 5), F(1, 2), F(2, 3), F(3, 4), F(4, 5)
        ]

    def test_degenerate_endpoint_cell(self):
        # the {1} point piece of the sawtooth survives as its own item
        items = items_at(sawtooth(2), 1)
        assert len(items) == 3
        assert items[-1][:2] == (1, 1)

    def test_forms_match_iteration(self):
        """Stored integer forms must reproduce honest iterated evaluation, in
        the stored order and free of ties, at closed endpoints too."""
        rng = random.Random(5)
        for m in (tent(), sawtooth(3), alt_sawtooth(5)):
            for lo, hi, lc, hc, A, B, order in items_at(m, 4):
                xs = [lo + (hi - lo) * F(rng.randint(1, 99), 100) for _ in range(2)]
                xs += [x for x, closed in ((lo, lc), (hi, hc)) if closed]
                for x in xs:
                    values = orbit(m, x, 4)
                    assert [(a * x + b) / A[0] for a, b in zip(A, B)] == values
                    assert [values[j] for j in order] == sorted(values)
                    assert len(set(values)) == len(values)

    def test_cells_partition_domain(self):
        """Items tile [0, 1] but for the points where two iterates tie."""
        for m in (tent(), sawtooth(2), alt_sawtooth(3)):
            for depth in (0, 1, 3):
                items = items_at(m, depth)
                assert items[0][0] == 0 and items[-1][1] == 1
                tied = lambda x: len(set(orbit(m, x, depth))) <= depth
                if not items[0][2]:
                    assert tied(F(0))
                if not items[-1][3]:
                    assert tied(F(1))
                for left, right in zip(items, items[1:]):
                    assert left[1] == right[0]
                    assert not (left[3] and right[2])
                    if not (left[3] or right[2]):
                        assert tied(left[1])

    def test_cell_budget(self):
        with pytest.raises(ResourceLimit, match="items at depth"):
            list(walk(sawtooth(4), 7, cell_budget=100))
