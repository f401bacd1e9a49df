"""Exact subintervals of the line with individually open or closed endpoints.

Everything here works over fractions.Fraction so downstream code never
meets rounding.  Constructors return None for empty results instead of
raising; an Interval instance is always nonempty.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class Interval:
    lo: Fraction
    hi: Fraction
    lo_closed: bool
    hi_closed: bool

    @property
    def is_point(self) -> bool:
        return self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True

    def midpoint(self) -> Fraction:
        return (self.lo + self.hi) / 2


def make_interval(lo: Fraction, hi: Fraction, lo_closed: bool, hi_closed: bool) -> Interval | None:
    """Interval with the given endpoints, or None when that set is empty."""
    if lo > hi:
        return None
    if lo == hi and not (lo_closed and hi_closed):
        return None
    return Interval(lo, hi, lo_closed, hi_closed)


def clip_below(iv: Interval, bound: Fraction, strict: bool = True) -> Interval | None:
    """Part of iv with x < bound (x <= bound when strict is False)."""
    if bound < iv.lo:
        return None
    if bound == iv.lo:
        if strict or not iv.lo_closed:
            return None
        return Interval(iv.lo, iv.lo, True, True)
    if bound < iv.hi:
        return Interval(iv.lo, bound, iv.lo_closed, not strict)
    if bound == iv.hi:
        if strict and iv.hi_closed:
            return make_interval(iv.lo, iv.hi, iv.lo_closed, False)
        return iv
    return iv


def clip_above(iv: Interval, bound: Fraction, strict: bool = True) -> Interval | None:
    """Part of iv with x > bound (x >= bound when strict is False)."""
    if bound > iv.hi:
        return None
    if bound == iv.hi:
        if strict or not iv.hi_closed:
            return None
        return Interval(iv.hi, iv.hi, True, True)
    if bound > iv.lo:
        return Interval(bound, iv.hi, not strict, iv.hi_closed)
    if bound == iv.lo:
        if strict and iv.lo_closed:
            return make_interval(iv.lo, iv.hi, False, iv.hi_closed)
        return iv
    return iv
