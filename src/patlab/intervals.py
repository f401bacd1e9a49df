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

    def contains(self, x: Fraction) -> bool:
        if x < self.lo or x > self.hi:
            return False
        if x == self.lo and not self.lo_closed:
            return False
        if x == self.hi and not self.hi_closed:
            return False
        return True


def clip_below(iv: Interval, bound: Fraction) -> Interval | None:
    """Part of iv with x < bound, or None when that set is empty."""
    if bound <= iv.lo:
        return None
    if bound < iv.hi or bound == iv.hi and iv.hi_closed:
        return Interval(iv.lo, bound, iv.lo_closed, False)
    return iv


def clip_above(iv: Interval, bound: Fraction) -> Interval | None:
    """Part of iv with x > bound, or None when that set is empty."""
    if bound >= iv.hi:
        return None
    if bound > iv.lo or bound == iv.lo and iv.lo_closed:
        return Interval(bound, iv.hi, False, iv.hi_closed)
    return iv
