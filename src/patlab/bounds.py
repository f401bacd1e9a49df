"""Upper bounds on the shortest forbidden pattern, and antichain obstructions.

A continuous interval map whose graph leaves the diagonal forces certain
rank words to be unrealizable, and how soon depends only on coarse
geometry: count the maximal intervals where f(x) < x and some pattern of
length 2k+2 is already forbidden; a refined count over monotone pieces
gives 2k+3.  Both counts come with an explicit structural witness family,
mirrored for the f(x) > x side.  The diagonal geometry is read off the
depth-1 items of the engine's refinement walk, which cuts every piece
where f(x) = x and labels each part with the order of x and f(x).

The same witnesses power a negative test for basis sets: if the refined
witness of every order m up to a cutoff avoids all patterns of a
candidate set, no map with few monotone pieces can have exactly that set
as its minimal forbidden family.  A separate counting inequality rules
out antichains whose lengths are too short for the number of patterns a
piecewise-monotone map must forbid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .engine import walk
from .errors import BadParameter, ResourceLimit
from .perms import Perm, check_perm, contains
from .pwl import _DIGITS_BOUND, Interval, PwlMap

METHODS = ("simple", "refined")
ORIENTATIONS = ("below", "above")
_SIDE_ORDER = {"below": (1, 0), "above": (0, 1)}  # indices of x, f(x), smaller value first
# the largest shortest length basis_length_check accepts: it gives h = 1000,
# and 1000! has 2,568 digits, within the 4,300 that Python converts to text
MAX_SHORTEST_LENGTH = 2_000
# the largest m_max basis_obstruction accepts: order m builds a witness
# of length 2m + 3 and scans its windows, so the cost grows with m_max**2
MAX_OBSTRUCTION_ORDER = 1_000


def _check_choice(name: str, value: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise BadParameter(f"{name} must be one of {choices}, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# where the graph sits below (or above) the diagonal


def diagonal_region(m: PwlMap, orientation: str = "below") -> tuple[Interval, ...]:
    """Maximal intervals of {x : f(x) < x} (or > for 'above').

    The depth-1 items of the refinement walk hold x and f(x) in a fixed
    order; the set is the union of the items with the wanted order.  The
    walk drops the points where f(x) = x, so such a point separates
    components even when the inequality holds on both sides of it.
    """
    side = _SIDE_ORDER[_check_choice("orientation", orientation, ORIENTATIONS)]
    parts = sorted(
        (Interval(Fraction(ln, ld), Fraction(hn, hd), lc, hc)
         for _, ln, ld, hn, hd, lc, hc, _, _, order in walk(m, 1) if order == side),
        key=lambda iv: (iv.lo, not iv.lo_closed),
    )
    merged: list[Interval] = []
    for part in parts:
        if merged and part.lo == merged[-1].hi and (merged[-1].hi_closed or part.lo_closed):
            prev = merged.pop()
            part = Interval(prev.lo, part.hi, prev.lo_closed, part.hi_closed)
        merged.append(part)
    return tuple(merged)


def refined_piece_count(m: PwlMap, orientation: str = "below") -> int:
    """Count monotone pieces that can carry an orbit across the diagonal.

    For orientation 'below' a piece qualifies when f(lo) < lo on an
    increasing piece or f(hi) < hi on a decreasing one: f(x) - x is
    monotone on an affine piece, so that end decides whether it meets
    f(x) < x.  'above' mirrors both (f(hi) > hi rising, f(lo) > lo
    falling).  Zero-length pieces are not monotone ramps and are skipped.
    """
    sign = 1 if _check_choice("orientation", orientation, ORIENTATIONS) == "below" else -1
    count = 0
    for p in m.pieces:
        if p.lo < p.hi:
            x = p.lo if (p.slope > 0) == (sign > 0) else p.hi
            count += sign * (x - p.value_at(x)) > 0
    return count


@dataclass(frozen=True)
class BoundReport:
    """Shortest-forbidden-length bound derived from diagonal geometry."""

    component_count: int
    bound: int
    method: str
    orientation: str


def shortest_bound(m: PwlMap, method: str = "simple", orientation: str = "below") -> BoundReport:
    """Upper bound on the shortest forbidden pattern length of the map.

    method 'simple' counts components of the strict below/above-diagonal
    region and yields 2k+2; 'refined' counts qualifying monotone pieces
    and yields 2k+3.
    """
    if _check_choice("method", method, METHODS) == "simple":
        count, extra = len(diagonal_region(m, orientation)), 2
    else:
        count, extra = refined_piece_count(m, orientation), 3
    return BoundReport(count, 2 * count + extra, method, orientation)


# ---------------------------------------------------------------------------
# witness family


def _check_order(k: int) -> None:
    if k < 1:
        raise BadParameter("the witness order k must be at least 1")


def witness(k: int, variant: str = "simple") -> Perm:
    """Explicit member of the order-k witness class.

    variant 'simple' has length 2k+2: the odd values 3..2k+1 ascending,
    then 2k+2 followed by the even values descending, then 1.  variant
    'refined' has length 2k+3: evens descending from 2k+2 to 2, then 1,
    then the odd values 3..2k+3 ascending.
    """
    _check_order(k)
    _check_choice("variant", variant, METHODS)
    if variant == "refined":
        word = list(range(2 * k + 2, 0, -2)) + [1] + list(range(3, 2 * k + 4, 2))
    else:
        word = list(range(3, 2 * k + 2, 2)) + [2 * k + 2] + list(range(2 * k, 0, -2)) + [1]
    return tuple(word)


def in_witness_class(pi: Sequence[int], k: int, variant: str = "simple") -> bool:
    """Membership test for the order-k witness class.

    Some index i must start a run of k descents, each straddling a value
    that sits at an ascent elsewhere, followed by one more descent.  The
    'refined' variant additionally requires a later entry rising back
    above the bottom of that final descent.
    """
    p = check_perm(pi)
    _check_order(k)
    _check_choice("variant", variant, METHODS)
    n = len(p)
    ascent_values = [p[ell] for ell in range(n - 1) if p[ell] < p[ell + 1]]
    for i in range(n - k - 1):
        # p[i..i+k-1] each strictly above an ascent value above the next entry
        if not all(
            any(p[j] > v > p[j + 1] for v in ascent_values) for j in range(i, i + k)
        ):
            continue
        if p[i + k] <= p[i + k + 1]:
            continue
        if variant == "refined" and not any(
            p[h] > p[i + k + 1] for h in range(i + k + 2, n)
        ):
            continue
        return True
    return False


# ---------------------------------------------------------------------------
# antichain obstructions


@dataclass(frozen=True)
class AntichainLengthCheck:
    """Counting inequality a basis of a piecewise-monotone map must satisfy."""

    lengths: tuple[int, ...]
    half_min: int
    total: int
    required: int
    satisfied: bool


def basis_length_check(lengths: Iterable[int]) -> AntichainLengthCheck:
    """Test whether pattern lengths k_1 <= ... <= k_m could form such a basis.

    With h = k_1 // 2, the lengths must satisfy
    sum(k_i) >= h! + m*(h - 1); a violation certifies that no interval
    map with finitely many monotone pieces has a basis with exactly
    those pattern lengths.
    """
    ks = tuple(sorted(int(k) for k in lengths))
    if not ks:
        raise BadParameter("need at least one pattern length")
    if ks[0] < 2:
        raise BadParameter("basis pattern lengths must be at least 2")
    if ks[0] > MAX_SHORTEST_LENGTH:
        raise ResourceLimit(
            f"shortest length {ks[0]} exceeds the limit of {MAX_SHORTEST_LENGTH}"
        )
    half_min = ks[0] // 2
    total = sum(ks)
    if total >= _DIGITS_BOUND:  # a report's total must convert to text
        raise BadParameter("the lengths sum to a number of more than 4,300 digits")
    required = math.factorial(half_min) + len(ks) * (half_min - 1)
    return AntichainLengthCheck(ks, half_min, total, required, total >= required)


def basis_obstruction(patterns: Iterable[Sequence[int]], m_max: int) -> list[int]:
    """Orders m <= m_max whose refined witness avoids every given pattern.

    Each listed m certifies that no interval map with m monotone pieces
    has exactly the given set as its basis: the witness would have to be
    forbidden for such a map, yet it avoids every pattern of the set.
    """
    if m_max < 1:
        raise BadParameter("m_max must be at least 1")
    if m_max > MAX_OBSTRUCTION_ORDER:
        raise ResourceLimit(f"m_max {m_max} exceeds the limit of {MAX_OBSTRUCTION_ORDER}")
    pats = [check_perm(p) for p in patterns]
    if not pats:
        raise BadParameter("need at least one pattern")
    out = []
    for m in range(1, m_max + 1):
        w = witness(m, "refined")
        if all(not contains(w, sigma) for sigma in pats):
            out.append(m)
    return out
