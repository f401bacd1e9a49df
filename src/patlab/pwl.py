"""Piecewise-linear self-maps of [0, 1] with exact rational arithmetic.

A map is a finite list of affine pieces whose intervals partition [0, 1];
every point is owned by exactly one piece, so evaluation is unambiguous
even at jump discontinuities.  The catalog builds the standard examples:
the tent map, the mod-one sawtooth with N ramps, and the alternating
sawtooth whose ramps flip slope sign from one to the next.

The sawtooth convention: ramps are half-open [lo, hi) and the endpoint
x = 1 sits in its own zero-length piece with value 0, matching the mod-1
definition.  Degenerate pieces are carried through every computation but
are never treated as monotone ramps.

Where the graph sits against the diagonal is not computed here:
patlab.bounds reads it off the depth-1 items of the engine's refinement
walk, which cuts every piece where f(x) = x.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import BadParameter, OutOfDomain, ResourceLimit, ValidationError

# most ramps sawtooth and alt_sawtooth build; a ramp is a piece of four
# Fractions, about 0.6 kB, so a spec load stays near 6 MB
_MAX_RAMPS = 10_000


def _frac(value) -> Fraction:
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise BadParameter(f"not a rational value: {value!r}") from exc


@dataclass(frozen=True)
class Interval:
    """A nonempty subinterval of the line; each end is open or closed."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    def contains(self, x: Fraction) -> bool:
        return (self.lo < x < self.hi or x == self.lo and self.lo_closed
                or x == self.hi and self.hi_closed)


@dataclass(frozen=True)
class PwlPiece:
    """One affine piece: x -> slope*x + intercept on its interval."""

    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool
    slope: Fraction
    intercept: Fraction

    def __post_init__(self):
        for name in ("lo", "hi", "slope", "intercept"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        if self.lo > self.hi:
            raise ValidationError(f"piece has lo > hi: {self.lo} > {self.hi}")
        if self.lo == self.hi:
            if not (self.lo_closed and self.hi_closed):
                raise ValidationError("zero-length piece must be closed on both sides")
        elif self.slope == 0:
            raise ValidationError("piece of positive length must have nonzero slope")
        for x in (self.lo, self.hi):
            if not 0 <= (v := self.value_at(x)) <= 1:
                raise ValidationError(f"image escapes [0, 1]: piece maps {x} to {v}")

    @property
    def interval(self) -> Interval:
        return Interval(self.lo, self.hi, self.lo_closed, self.hi_closed)

    def value_at(self, x: Fraction) -> Fraction:
        return self.slope * x + self.intercept


@dataclass(frozen=True)
class PwlMap:
    """An ordered tuple of pieces partitioning [0, 1]."""

    pieces: tuple[PwlPiece, ...]

    def __post_init__(self):
        pieces = tuple(sorted(self.pieces, key=lambda p: (p.lo, not p.lo_closed, p.hi)))
        object.__setattr__(self, "pieces", pieces)
        if not pieces:
            raise ValidationError("a map needs at least one piece")
        first, last = pieces[0], pieces[-1]
        if first.lo != 0 or not first.lo_closed:
            raise ValidationError("gap: the domain must start closed at 0")
        if last.hi != 1 or not last.hi_closed:
            raise ValidationError("gap: the domain must end closed at 1")
        for left, right in zip(pieces, pieces[1:]):
            if left.hi < right.lo:
                raise ValidationError(f"gap between {left.hi} and {right.lo}")
            if left.hi > right.lo:
                raise ValidationError(f"overlap: pieces cross at {right.lo}")
            if left.hi_closed and right.lo_closed:
                raise ValidationError(f"overlap: both pieces own the point {left.hi}")
            if not left.hi_closed and not right.lo_closed:
                raise ValidationError(f"gap: no piece owns the point {left.hi}")

    def piece_at(self, x) -> PwlPiece:
        x = _frac(x)
        if x < 0 or x > 1:
            raise OutOfDomain(f"{x} is outside [0, 1]")
        for piece in self.pieces:
            if piece.interval.contains(x):
                return piece
        raise AssertionError(f"partition invariant broken at {x}")

    def __call__(self, x) -> Fraction:
        x = _frac(x)
        return self.piece_at(x).value_at(x)


# ---------------------------------------------------------------------------
# catalog


def tent() -> PwlMap:
    """The symmetric tent map: 2x up to 1/2, then 2 - 2x."""
    h = Fraction(1, 2)
    return PwlMap(
        (
            PwlPiece(Fraction(0), h, True, False, Fraction(2), Fraction(0)),
            PwlPiece(h, Fraction(1), True, True, Fraction(-2), Fraction(2)),
        )
    )


def _ramp_count(ramp_count: int, name: str) -> int:
    """The ramp count as an int, checked before any piece is built."""
    n = int(ramp_count)
    if n < 2:
        raise BadParameter(f"{name} needs at least 2 ramps")
    if n > _MAX_RAMPS:
        raise ResourceLimit(f"{name} with {n} ramps exceeds the limit of {_MAX_RAMPS} ramps")
    return n


def sawtooth(ramp_count: int) -> PwlMap:
    """N*x mod 1 with N rising ramps; x = 1 maps to 0 in its own point piece."""
    n = _ramp_count(ramp_count, "sawtooth")
    pieces = [
        PwlPiece(Fraction(m, n), Fraction(m + 1, n), True, False, Fraction(n), Fraction(-m))
        for m in range(n)
    ]
    pieces.append(PwlPiece(Fraction(1), Fraction(1), True, True, Fraction(0), Fraction(0)))
    return PwlMap(tuple(pieces))


def alt_sawtooth(ramp_count: int) -> PwlMap:
    """N ramps of slope +-N, alternating sign and starting positive.

    Consecutive ramps meet continuously (rising ramps end at 1 where the
    next falling ramp starts, and vice versa at 0), so no extra endpoint
    piece is needed.
    """
    n = _ramp_count(ramp_count, "alt_sawtooth")
    pieces = []
    for m in range(n):
        lo, hi = Fraction(m, n), Fraction(m + 1, n)
        last = m == n - 1
        if m % 2 == 0:
            slope, intercept = Fraction(n), Fraction(-m)
        else:
            slope, intercept = Fraction(-n), Fraction(m + 1)
        pieces.append(PwlPiece(lo, hi, True, last, slope, intercept))
    return PwlMap(tuple(pieces))
