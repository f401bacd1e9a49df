"""Exact enumeration of the consecutive patterns realized by a PWL map.

The orbit pattern of x at length n is the rank word of
x, f(x), ..., f^{n-1}(x); it is undefined whenever two of those values
coincide.  A pattern is allowed when some point realizes it, forbidden
otherwise, and basic forbidden when it is forbidden while both of its
length-(n-1) windows are allowed.

Everything runs on one depth-first refinement walk over integers.  An
item at depth k is an interval on which iterates 0..k are all affine and
pairwise distinct, so their rank order is constant there; the item
carries that order.  One step splits an item by the preimages of the
map's pieces under its last iterate, then places the new iterate among
the others.  The split runs inside the walk's own loop: it starts at the
first piece the item's image reaches, found by bisection on the piece
ends, and each part is placed as soon as it is split off, so no list of
parts is built.  Each part is nonempty: the scan keeps only pieces whose
preimage meets the item, and a point piece is closed at both ends.

One rule places the new iterate: it has rank r exactly where it lies
strictly above the old iterate of rank r - 1 and strictly below that of
rank r, two linear inequalities that cut a part straight to one segment
or to none.  Within a part the old iterates never cross, so the new one
crosses each at most once and its rank moves by one at every crossing.
The full walk starts at the rank the new iterate takes just right of
the part's left end, so there each inequality holds or ties, and inside
the part it cuts only upper ends; only _cut, below, cuts a lower end
inside a part.  Where a segment's upper end is a crossing strictly
inside the part, the next segment starts there, open, one rank up or
down; the inequality that crossing solved holds on it already, so only
its other one is cut.  Each crossing is solved once, and the walk
stops at the segment that reaches the part's right end.  A pattern fixes
the order at each depth, and with it the new iterate's rank and its two
neighbours, so a walk pruned by one (is_realized's) builds these once,
before the first item; _cut cuts each part to that rank by the two
inequalities as the part is split off.  It fixes whether iterate k + 1
lies above iterate k too, so an item of depth k is split only by the
parts of pieces on that side of the diagonal (_sides).  The crossing
points are ties and are dropped, and so is a tied endpoint.  A tie at
depth k is a tie at every later depth, so nothing dropped could realize
a longer pattern.

Arithmetic is integer only: with q the least common denominator of the
map's data and Q = q**depth, iterate j at x is (A_j * x + B_j) / Q for
integers A_j, B_j, and every endpoint is a pair (num, den) with den > 0,
compared by cross-multiplication.

The budget counts the items created at one depth (every segment between
crossings is an item), so it bounds the time spent at the widest level.
A full walk checks it before the first item as well: the itineraries
through pieces of slope above 1 in absolute value, each piece's image
covering the next, have cylinders of positive length, and each such
cylinder holds at least one item of its depth.  That count is N**k for
sawtooth:N at depth k, so a walk too wide for the budget is refused at
once instead of after the budget is spent.  The count does not depend on
Q, so it runs before Q is built, and it stops once the counts repeat.
A full walk then refuses a depth whose Q would have more than 4,300
digits, the limit pwl puts on map data, so a huge depth on a map with no
expanding piece and q > 1 is refused at once too.  exact_forbidden also
counts its n! candidates against the budget.

One walk serves every exact query on a map.  The module keeps one entry
in process, the most recent full walk: the map, its depth, the items made
at each depth and the rank words of the items at every depth it reached.
exact_allowed, exact_forbidden, exact_basic_forbidden and each step of
shortest_forbidden_length read their depth from it when the map compares
equal, the depth is at most the walk's and no depth up to it made more
items than the caller's budget.  Any other call frees the entry and
walks.  is_realized's pruned walk neither reads nor keeps it.

Basic forbidden sets are generated by gluing: every candidate at length n
is an allowed (n-1)-pattern alpha extended by one final value v, which
bounds the candidate pool by n * |allowed(n-1)| instead of n!.  The
allowed (n-1)-patterns are the words of depth n - 2 of the same walk.
One index over them maps each reduced (n-2)-prefix to a bitmask of the
last values that extend it to an allowed (n-1)-pattern.  All n candidates
of alpha share the reduced prefix of their right window, so one lookup
per alpha and one bit per candidate tell whether the right window is
allowed; only those candidates are built and looked up among the allowed
n-patterns.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator, NamedTuple

from .errors import BadParameter, ResourceLimit
from .perms import PatternSet, Perm, all_perms, check_perm
from .pwl import _MAX_DIGITS, PwlMap

DEFAULT_CELL_BUDGET = 4_000_000


def walk(
    m: PwlMap, depth: int, cell_budget: int = DEFAULT_CELL_BUDGET, ranks=None
) -> Iterator[tuple]:
    """Yield every item of the refinement down to iterate `depth`, depth first.

    An item is (k, lo_num, lo_den, hi_num, hi_den, lo_closed, hi_closed,
    A, B, order): iterate j is (A[j] * x + B[j]) / A[0] on it, and order
    lists the iterates 0..k from the smallest value up.  Items of one depth
    tile [0, 1] except for the points where two of their iterates tie.
    With `ranks`, only items whose order agrees with a pattern are kept:
    ranks[k] is where iterate k must sit among iterates 0..k.  The pattern
    fixes the order at each depth and the two iterates the new one must lie
    between, and each part is cut to that rank by _cut as it is split off
    an item, which is split only by the parts of pieces on the side of the
    diagonal the pattern asks (_sides); without `ranks`, _place cuts each
    part into one segment per rank the new iterate takes on it.
    """
    return _walk(m, depth, cell_budget, ranks, [])


def _walk(m: PwlMap, depth: int, cell_budget: int, ranks, created: list[int]) -> Iterator[tuple]:
    """walk, counting in the empty list `created` the items made at each depth
    it reaches."""
    _check_budget(cell_budget)
    if ranks is None:
        # the counts do not depend on the scale, so check them before Q is built
        q, pieces = _scaled(m, 1)
        for k, bound in zip(range(1, depth + 1), _cylinder_counts(pieces, q)):
            if bound > cell_budget:
                raise ResourceLimit(
                    f"refinement would exceed the cell budget of {cell_budget}: "
                    f"at least {bound} items at depth {k} of {depth}"
                )
        if depth * math.log10(q) >= _MAX_DIGITS:  # q**depth has floor(depth * log10(q)) + 1 digits
            raise ResourceLimit(
                f"refinement to depth {depth} needs the scale {q}**{depth}, "
                f"which has more than {_MAX_DIGITS} digits"
            )
    # depth 0 splits nothing, and Q = 1 would truncate fractional piece ends
    q, pieces = _scaled(m, depth) if depth else (1, [])
    whole = pieces, [p[0] for p in pieces], [p[1] for p in pieces]
    scale = q**depth
    if ranks is not None:
        # the pattern fixes the order at each depth, the new iterate's
        # neighbours there, (j, +1) below it and (j, -1) above it, and the
        # side of the diagonal whose pieces split the items of depth k
        below, above = ((side, [p[0] for p in side], [p[1] for p in side])
                        for side in _sides(pieces, q))
        orders, cuts, splits = [(0,)], [()], []
        for k in range(1, depth + 1):
            order, t = orders[-1], ranks[k]
            cuts.append(tuple((order[i], sign) for i, sign in ((t - 1, 1), (t, -1))
                              if 0 <= i < len(order)))
            splits.append(above if order.index(k - 1) < t else below)
            orders.append(order[:t] + (k,) + order[t:])
    created.append(0)
    stack = [(0, 0, 1, 1, 1, True, True, (scale,), (0,), (0,))]
    while stack:
        item = stack.pop()
        yield item
        k, ln, ld, hn, hd, lc, hc, A, B, order = item
        if k == depth:
            continue
        k1 = k + 1
        a, b = A[k], B[k]
        pieces, los, his = whole if ranks is None else splits[k]
        # split the item by the preimages of the pieces its last iterate a*x + b
        # lands in; they come left to right, so start at the first piece that
        # reaches the image of the left end and stop past the item (the pieces
        # are disjoint, so a point item gets at most one part)
        y = a * ln + b * ld  # the image of the left end, times ld
        if a > 0:
            scan = pieces[bisect.bisect_left(his, -(-y // ld)):]
        else:
            scan = reversed(pieces[:bisect.bisect_right(los, y // ld)])
        for lo, hi, plc, phc, s, c in scan:
            if a > 0:
                pln, phn, den, pc_lo, pc_hi = lo - b, hi - b, a, plc, phc
            else:
                pln, phn, den, pc_lo, pc_hi = b - hi, b - lo, -a, phc, plc
            t = phn * ld - ln * den
            if t < 0 or t == 0 and not (pc_hi and lc):
                continue
            t = pln * hd - hn * den
            if t > 0 or t == 0 and not (pc_lo and hc):
                break
            t = pln * ld - ln * den
            sln, sld, slc = (pln, den, pc_lo) if t > 0 else (ln, ld, lc if t else lc and pc_lo)
            t = phn * hd - hn * den
            shn, shd, shc = (phn, den, pc_hi) if t < 0 else (hn, hd, hc if t else hc and pc_hi)
            fa, fb = s * a // q, s * b // q + c
            if ranks is None:
                segments = _place(A, B, order, fa, fb, sln, sld, slc, shn, shd, shc)
                if not segments:
                    continue
                A1, B1 = A + (fa,), B + (fb,)
                for nln, nld, nlc, nhn, nhd, nhc, r in segments:
                    stack.append((k1, nln, nld, nhn, nhd, nlc, nhc, A1, B1,
                                  order[:r] + (k1,) + order[r:]))
                made = len(segments)
            else:
                part = _cut(A, B, fa, fb, cuts[k1], sln, sld, slc, shn, shd, shc)
                if part is None:
                    continue
                nln, nld, nlc, nhn, nhd, nhc = part
                stack.append((k1, nln, nld, nhn, nhd, nlc, nhc, A + (fa,), B + (fb,), orders[k1]))
                made = 1
            if k1 == len(created):
                created.append(0)
            created[k1] += made
            if created[k1] > cell_budget:
                raise ResourceLimit(
                    f"refinement exceeded the cell budget of {cell_budget}: "
                    f"{created[k1]} items at depth {k1} of {depth}"
                )


def _scaled(m: PwlMap, depth: int) -> tuple[int, list[tuple]]:
    """q, the least common denominator of the map's data, and the pieces as
    (lo, hi, lo_closed, hi_closed, slope, intercept) in integers: the
    ends and the intercept times Q = q**depth, the slope times q."""
    q = math.lcm(*(v.denominator for p in m.pieces for v in (p.lo, p.hi, p.slope, p.intercept)))
    scale = q**depth
    return q, [
        (int(p.lo * scale), int(p.hi * scale), p.lo_closed, p.hi_closed,
         int(p.slope * q), int(p.intercept * scale))
        for p in m.pieces
    ]


def _sides(pieces, q) -> tuple[list[tuple], list[tuple]]:
    """(below, above): the parts of scaled pieces where f(X) < X and > X.

    f(X) - X has the sign of (s - q) * X + c * q, zero at X* = -c*q/(s - q),
    so a part runs from X* to an end of its piece.  Its cut is moved one
    unit outward, to ceil(X*) - 1 or floor(X*) + 1, closed and clipped to
    the piece, so its ends stay integers.  The unit added is tied or on the
    other side, and the rank cuts drop it with the same ends as on the
    whole piece, since the new iterate's neighbours are on the wanted side
    of the old one: the pruned walk keeps the same items.
    """
    below, above = [], []
    for piece in pieces:
        lo, hi, lc, hc, s, c = piece
        d, e = s - q, c * q
        for sign, side in ((-1, below), (1, above)):
            at_lo, at_hi = sign * (d * lo + e), sign * (d * hi + e)
            if at_lo > 0 and at_hi > 0:
                side.append(piece)
            elif at_hi > 0:  # on this side right of X*, lo <= X* < hi
                cut = -(e // d) - 1
                side.append((cut, hi, True, hc, s, c) if cut > lo else piece)
            elif at_lo > 0:  # on this side left of X*, lo < X* <= hi
                cut = -e // d + 1
                side.append((lo, cut, lc, True, s, c) if cut < hi else piece)
    return below, above


def _check_budget(cell_budget: int) -> None:
    if cell_budget < 1:
        raise BadParameter(f"the cell budget must be positive, got {cell_budget}")


def _cylinder_counts(pieces, q) -> Iterator[int]:
    """Yield, for k = 1, 2, ..., a lower bound on the items of depth k.

    It counts the itineraries of k pieces, each of positive length and
    slope above 1 in absolute value, whose pieces each lie inside the
    image of the one before.  Each has a cylinder of positive length on
    which no two iterates coincide, so at least one item of depth k lies
    in it.  It stops once the counts repeat, since every later count
    would equal them.  q and `pieces` are as _scaled returns them.
    """
    expanding = [(lo, hi, s, c) for lo, hi, _, _, s, c in pieces if lo < hi and abs(s) > q]
    # image ends and piece ends, both times Q * q
    starts = [lo * q for lo, *_ in expanding]
    ends = [hi * q for _, hi, *_ in expanding]
    runs = []  # the pieces inside each image are a contiguous run
    for lo, hi, s, c in expanding:
        y0, y1 = sorted((s * lo + c * q, s * hi + c * q))
        runs.append((bisect.bisect_left(starts, y0), bisect.bisect_right(ends, y1)))
    counts = [1] * len(expanding)
    while True:
        yield sum(counts)
        diff = [0] * (len(counts) + 1)
        for count, (a, b) in zip(counts, runs):
            if a < b:
                diff[a] += count
                diff[b] -= count
        counts, last = list(itertools.accumulate(diff[:-1])), counts
        if counts == last:
            return  # every later count equals this one


def _place(A, B, order, fa, fb, ln, ld, lc, hn, hd, hc) -> list[tuple]:
    """Cut a part into segments (lo, hi, flags, rank of the new iterate),
    one for each rank the new iterate takes on it, left to right.

    The new iterate has rank r exactly where it lies strictly above iterate
    order[r - 1] and strictly below order[r]: two linear inequalities in x.
    The walk starts at the rank the new iterate takes just right of the
    left end (a bisection over the order, the slope breaking a tie), so at
    the left end each inequality holds, or is an equality that holds just
    right of it (that end is opened, and a point part is dropped), or is an
    equality on the whole part (the new iterate equals an old one, and the
    part is dropped).  No lower end is cut inside the part; only _cut does
    that.  Within a part the old iterates never cross, so where a segment's
    upper end is cut strictly inside the part by neighbour order[i], the
    new iterate crosses order[i] there and takes the rank on order[i]'s
    other side.  The next segment starts open at that crossing; its
    inequality with order[i] holds there already, and the other one holds
    strictly there, since the old iterates are distinct inside the part, so
    it can only cut the upper end.  The walk stops at the segment that
    reaches the part's right end.
    """
    r, top = 0, len(order)
    while r < top:
        mid = (r + top) // 2
        j = order[mid]
        da = fa - A[j]
        d = da * ln + (fb - B[j]) * ld
        if d > 0 or d == 0 and da > 0:
            r = mid + 1
        else:
            top = mid
    met = None  # the neighbour a carried crossing has already passed
    out = []
    while True:
        shn, shd, shc = hn, hd, hc
        crossed = None
        for i, sign in ((r - 1, 1), (r, -1)):
            if i == met or not 0 <= i < len(order):
                continue  # the lowest or highest rank has one neighbour
            j = order[i]
            # the new iterate is on the right side of j where da * x + db > 0
            da, db = sign * (fa - A[j]), sign * (fb - B[j])
            if da > 0:  # x > -db / da, which holds just right of the left end
                if -db * ld == ln * da:  # a tie at the left end
                    if ln * hd == hn * ld:
                        return out  # on a point part
                    lc = False
            elif da < 0:  # x < db / -da, which holds at the left end
                t = db * shd + shn * da
                if t < 0:
                    shn, shd, shc, crossed = db, -da, False, i
                elif t == 0:
                    shc = False
            elif db == 0:  # equal to j on the whole part
                return out
        out.append((ln, ld, lc, shn, shd, shc, r))
        if crossed is None:
            return out
        # carry the crossing: it is the next segment's open lower end
        ln, ld, lc, met = shn, shd, False, crossed
        r += 1 if crossed == r else -1


def _cut(A, B, fa, fb, cuts, ln, ld, lc, hn, hd, hc) -> tuple | None:
    """Cut a part to where the new iterate fa*x + fb takes one rank, or None
    if it takes it nowhere; the part and the result are (lo, hi, flags).

    `cuts` holds the rank's neighbours as (iterate j, sign): the new
    iterate must lie above j where sign is +1 and below it where sign is
    -1, the linear inequality sign * ((fa - A[j]) * x + fb - B[j]) > 0.
    The rank is the pattern's, not the one the new iterate takes at the
    left end as in _place, so either end may be cut, inside the part or at
    it: this is the only place a lower end is cut inside a part.  A cut
    strictly inside becomes an open end at the crossing; a cut at an end
    opens that end, so a tie there is dropped.
    """
    for j, sign in cuts:
        da, db = sign * (fa - A[j]), sign * (fb - B[j])
        if da > 0:  # x > -db / da
            if -db * hd >= hn * da:
                return None
            t = -db * ld - ln * da
            if t > 0:
                ln, ld, lc = -db, da, False
            elif t == 0:
                lc = False
        elif da < 0:  # x < db / -da
            if db * ld <= -ln * da:
                return None
            t = db * hd + hn * da
            if t < 0:
                hn, hd, hc = db, -da, False
            elif t == 0:
                hc = False
        elif db <= 0:  # wrong side of j, or equal to it, on the whole part
            return None
    return ln, ld, lc, hn, hd, hc


def _word(order) -> Perm:
    """The rank word of an order (iterate indices from the smallest value up)."""
    word = [0] * len(order)
    for rank, j in enumerate(order, start=1):
        word[j] = rank
    return tuple(word)


class _Entry(NamedTuple):
    """What a later exact call needs of a full walk."""

    m: PwlMap
    depth: int
    created: list[int]  # items made at each depth the walk reached
    levels: list[set[Perm]]  # levels[k]: the rank words of the items at depth k


_entry: _Entry | None = None  # the most recent full walk, see _level


def _level(m: PwlMap, depth: int, cell_budget: int) -> set[Perm]:
    """The rank words of the items at `depth` of m's full walk.

    The module keeps one entry, the most recent full walk with the words of
    every level it reached, and serves a call from it when the map compares
    equal, `depth` is at most the walk's and no depth up to `depth` made
    more items than cell_budget.  Any other call frees the entry and walks,
    so a smaller budget raises as a first walk would.  A depth the walk
    never reached has no items.
    """
    global _entry
    _check_budget(cell_budget)
    e = _entry
    if e is None or e.m != m or depth > e.depth or max(e.created[:depth + 1]) > cell_budget:
        _entry = None  # free the old entry before the walk
        created, orders = [], []
        for item in _walk(m, depth, cell_budget, None, created):
            if item[0] == len(orders):
                orders.append(set())
            orders[item[0]].add(item[-1])
        levels = []
        for level in orders:
            words = set()
            while level:  # free each order as its word is made, to keep the peak low
                words.add(_word(level.pop()))
            levels.append(words)
        e = _entry = _Entry(m, depth, created, levels)
    return e.levels[depth] if depth < len(e.levels) else set()


def exact_allowed(m: PwlMap, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> PatternSet:
    """All length-n patterns realized by some orbit of the map."""
    if n < 1:
        raise BadParameter("n must be at least 1")
    return PatternSet(n, tuple(sorted(_level(m, n - 1, cell_budget))))


def exact_forbidden(m: PwlMap, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> PatternSet:
    """Complement of exact_allowed within S_n.

    Its n! candidates count against cell_budget before any walk starts:
    10! = 3,628,800 fits the default budget, 11! does not.  The product
    stops once it passes the budget, so a huge n is refused at once.
    """
    if n < 1:
        raise BadParameter("n must be at least 1")
    _check_budget(cell_budget)
    candidates = 1
    for k in range(2, n + 1):
        candidates *= k
        if candidates > cell_budget:
            count = f"{candidates}" if k == n else f"more than {k}! = {candidates}"
            raise ResourceLimit(
                f"forbidden-set enumeration at n = {n} has {count} candidates, "
                f"over the cell budget of {cell_budget}"
            )
    allowed = exact_allowed(m, n, cell_budget)
    return PatternSet(n, tuple(p for p in all_perms(n) if p not in allowed))


def exact_basic_forbidden(
    m: PwlMap, n: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> PatternSet:
    """Forbidden length-n patterns whose two length-(n-1) windows are both allowed.

    The allowed (n-1)-patterns are the words of the walk's level n - 2.
    Each candidate is one of them, alpha, extended by a last value v; its
    right window is allowed iff a bit of the right-window index is set, and
    only then is the candidate built and looked up among the allowed.
    """
    if n < 2:
        raise BadParameter("basic forbidden patterns need n >= 2")
    full = _level(m, n - 1, cell_budget)
    shorter = _level(m, n - 2, cell_budget)
    # the right-window index: for each reduced prefix of an allowed (n-1)-pattern,
    # the bits of the last values that extend it to one (reduced with no sort:
    # close the gap the last value leaves)
    last_values: dict[Perm, int] = {}
    for beta in shorter:
        u = beta[-1]
        key = tuple(e - (e > u) for e in beta[:-1])
        last_values[key] = last_values.get(key, 0) | 1 << u
    found: list[Perm] = []
    for alpha in shorter:
        a0 = alpha[0]
        # the reduced prefix that the right windows of all alpha's candidates share
        mask = last_values.get(tuple(e - (e > a0) for e in alpha[1:]), 0)
        for v in range(1, n + 1):
            # the right window of pi = alpha + v ends in v, less one if above
            # pi[0], which is a0 or a0 + 1, so exactly when v > a0
            if mask >> (v - (v > a0)) & 1:
                pi = tuple(e + (e >= v) for e in alpha) + (v,)
                if pi not in full:
                    found.append(pi)
    return PatternSet(n, tuple(sorted(found)))


def shortest_forbidden_length(
    m: PwlMap, n_max: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> int | None:
    """Least n <= n_max with a forbidden pattern, or None if every length fills S_n."""
    if n_max < 2:
        raise BadParameter("n_max must be at least 2")
    for n in range(2, n_max + 1):
        if len(_level(m, n - 1, cell_budget)) < math.factorial(n):
            return n
    return None


def is_realized(m: PwlMap, pattern, cell_budget: int = DEFAULT_CELL_BUDGET) -> bool:
    """Exact check whether one specific pattern is realized by the map.

    The same walk as exact_allowed, keeping only items whose order agrees
    with the pattern's prefix and stopping at the first item of full
    depth, so single patterns stay cheap even at horizons where the full
    refinement would be enormous.  Items are split only by the pieces on
    the side of the diagonal the pattern asks.
    """
    pi = check_perm(pattern)
    depth = len(pi) - 1
    ranks = [sum(pi[i] < pi[k] for i in range(k)) for k in range(len(pi))]
    return any(item[0] == depth for item in walk(m, depth, cell_budget, ranks))
