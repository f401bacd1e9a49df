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

The full walk hands each part to one call (_place_part).  Two bisections
over the old order find the ranks the new iterate takes on the part: its
rank just right of the part's left end and just left of its right end,
the slope breaking a tie one way and then the other.  Within a part the
old iterates never cross, so the new one crosses each at most once and
its rank is monotone there: it takes every rank between those two, one
up or down at each crossing.  The same call pushes one item per rank
onto the walk's stack, each but the last ending, open, at its crossing
with the old iterate the new one passes next, strictly inside the part.
A part is dropped where the new iterate equals an old one on all of it,
and a point part where it ties an old one there; an end of a part is
opened where the new iterate ties a neighbour of its rank there.  A
pattern fixes the order at each depth, and with it the new iterate's
rank and its two neighbours, so a walk pruned by one (is_realized's)
builds these once, before the first item; _cut cuts each part to that
rank, strictly above the neighbour below and strictly below the one
above, two linear inequalities, as the part is split off.  The crossing
points are ties and are dropped, and so is a tied endpoint.  A tie at
depth k is a tie at every later depth, so nothing dropped could realize
a longer pattern.

Before its pruned walk, is_realized runs one greedy pass (_placeable)
that refutes many patterns at once.  The pieces are disjoint intervals
in order, so an orbit that realizes pi puts its points x_0 .. x_{n-2},
sorted by value, in consecutive runs, one per piece from left to right.
A run holds its points only on the side of the diagonal each asks (above
where pi[i + 1] > pi[i]), keeps its successors' order on a rising piece
and swaps it on a falling one, and switches between points below and
above the diagonal only the way f(x) - x moves on its piece.  Every
condition is on one point or two adjacent points of a run, so letting
each piece take the longest run it can is exact: the pass fails only when
no placement exists, and then the pattern is forbidden without a walk.
It sorts the points and then makes O(n + pieces) integer comparisons on
the pieces scaled for the walk, O(n log n + pieces) in all; where it
succeeds the walk decides, on the same scaled pieces.

Arithmetic is integer only: with q the least common denominator of the
map's data and Q = q**depth, iterate j at x is (A_j * x + B_j) / Q for
integers A_j, B_j, and every endpoint is a pair (num, den) with den > 0,
compared by cross-multiplication.

The budget counts the items created at one depth (every segment between
crossings is an item, and the last depth of the walk behind the exact
queries counts the segments its rank ranges span, though it makes none),
so it bounds the time spent at the widest level.  A full walk checks it
before the first item as well: the itineraries through pieces of slope
above 1 in absolute value, each piece's image covering the next, have
cylinders of positive length, and each such cylinder holds at least one
item of its depth.  That count is N**k for sawtooth:N at depth k, so a
walk too wide for the budget is refused at once instead of after the
budget is spent.  The count does not depend on Q, so it runs before Q is
built, and it stops once the counts repeat.  A full walk then refuses a
depth whose Q would have more than 4,300 digits, the limit pwl puts on
map data, so a huge depth on a map with no expanding piece and q > 1 is
refused at once too.  exact_forbidden also counts its n! candidates
against the budget, through the capped factorial that avoiders uses to
charge its listing (perms._factorial_over), and both modules refuse a
budget below 1 through one check (perms._check_budget).

One walk serves every exact query on a map, and at its last depth it
makes no items.  For each order of the items one depth up it records one
bitmask of the ranks the new iterate takes on their parts, the ranges
_place_part finds; every other depth records the same masks, and there
_place_part also pushes each range's items.  An item's rank word is its
parent's word with the values from v = r + 1 up raised by one, then v,
where r is its new iterate's rank; so level 0 is the word (1,) and each
level's words are the words of the one before glued to the last values
of their masks.  A level has one word per bit of the masks above it, so
where it has as many orders with children, every word is one of theirs
and nothing is glued; for tent that holds at every depth but the last.
The module keeps one entry in process, the most recent full walk: the
map, its depth, the items made at each depth and, at every depth it
reached, each rank word with the mask of its children's last values.
exact_allowed, exact_forbidden, exact_basic_forbidden and each step of
shortest_forbidden_length read their depth from it when the map compares
equal, the depth is at most the walk's and no depth up to it made more
items than the caller's budget.  Any other call frees the entry and
walks.  is_realized's pruned walk neither reads nor keeps it, and the
public walk still yields every item of every depth.

Basic forbidden sets are generated by gluing: every candidate at length n
is an allowed (n-1)-pattern alpha, a word of level n - 2, extended by one
final value v, which bounds the candidate pool by n * |allowed(n-1)|
instead of n!.  The candidate is allowed exactly where v is a bit of
alpha's mask.  Its right window is alpha's reduced right window, a word
of level n - 3, extended by v, less one if v > alpha[0].  So the mask of
that word, with its bits from alpha[0] up moved up one, holds the v whose
right window is allowed, and alpha's basic forbidden extensions are the
bits of that mask that alpha's own mask lacks: one lookup and a few mask
operations per alpha, and only the basic patterns are built.
"""

from __future__ import annotations

import bisect
import itertools
import math
from typing import Iterator, NamedTuple

from .errors import BadParameter, ResourceLimit
from .perms import PatternSet, Perm, _check_budget, _factorial_over, all_perms, check_perm
from .pwl import _MAX_DIGITS, PwlMap

DEFAULT_CELL_BUDGET = 4_000_000


def walk(
    m: PwlMap, depth: int, cell_budget: int = DEFAULT_CELL_BUDGET, pattern=None
) -> Iterator[tuple]:
    """Yield every item of the refinement down to iterate `depth`, depth first.

    An item is (k, lo_num, lo_den, hi_num, hi_den, lo_closed, hi_closed,
    A, B, order): iterate j is (A[j] * x + B[j]) / A[0] on it, and order
    lists the iterates 0..k from the smallest value up.  Items of one depth
    tile [0, 1] except for the points where two of their iterates tie.
    With `pattern`, a permutation of 1..depth + 1, only items whose order
    agrees with its prefix are kept.  The pattern fixes the order at each
    depth and the two iterates the new one must lie between, and each part
    is cut to that rank by _cut as it is split off an item; without
    `pattern`, _place_part cuts each part into one item per rank the new
    iterate takes on it.
    """
    if depth < 0:
        raise BadParameter(f"the depth must be at least 0, got {depth}")
    _check_budget(cell_budget, "cell")
    if pattern is not None:
        pattern = check_perm(pattern)
        if len(pattern) != depth + 1:
            raise BadParameter(f"a walk to depth {depth} takes a length-{depth + 1} pattern")
    scaled = _full_scaled(m, depth, cell_budget) if pattern is None else _scaled(m, depth)
    yield from _walk(scaled, depth, cell_budget, pattern, [])


def _full_scaled(m: PwlMap, depth: int, cell_budget: int) -> tuple[int, list[tuple]]:
    """_scaled(m, depth), once a full walk to `depth` is known to fit: its
    cylinder counts within cell_budget and its scale within _MAX_DIGITS."""
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
    return _scaled(m, depth)


def _walk(scaled, depth: int, cell_budget: int, pattern, created: list[int],
          masks: list[dict] | None = None) -> Iterator[tuple]:
    """walk on the pieces `scaled` = (q, pieces) as _scaled(m, depth)
    returns them, (1, []) at depth 0, once the caller has checked
    cell_budget and `pattern`, counting in the empty list `created` the
    items made at each depth it reaches.  With `pattern`, the walk is
    pruned to its prefix at each depth.

    With the empty list `masks`, a full walk also records in masks[k], for
    each order of its items at depth k, the ranks r its new iterate takes
    on their parts, as the bits r + 1 of a mask; at the last depth it then
    makes no item, only these masks.
    """
    q, pieces = scaled
    los, his = [p[0] for p in pieces], [p[1] for p in pieces]
    scale = q**depth
    if pattern is not None:
        # the pattern fixes the order at each depth and the new iterate's
        # neighbours there, (j, +1) below it and (j, -1) above it; its rank
        # is where pattern[k] goes among the values of the order before it
        orders, cuts = [(0,)], [()]
        for k in range(1, depth + 1):
            order = orders[-1]
            t = bisect.bisect(order, pattern[k], key=pattern.__getitem__)
            cuts.append(tuple((order[i], sign) for i, sign in ((t - 1, 1), (t, -1))
                              if 0 <= i < len(order)))
            orders.append(order[:t] + (k,) + order[t:])
    bare = depth if masks is not None else -1  # the depth that makes no item
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
            if pattern is None:
                span = _place_part(stack if k1 != bare else None,
                                   A, B, order, fa, fb, sln, sld, slc, shn, shd, shc)
                if span is None:
                    continue
                r0, r1 = span
                if r0 > r1:
                    r0, r1 = r1, r0
                made = r1 - r0 + 1  # the rank moves by one at each crossing
                if masks is not None:
                    if k == len(masks):
                        masks.append({})
                    ranked = masks[k]
                    ranked[order] = ranked.get(order, 0) | (4 << r1) - (2 << r0)
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
    ends and the intercept times Q = q**depth, the slope times q.  Each
    product is taken in integers, exact for depth >= 1, where every
    denominator divides q and Q.  Depth 0 gives (1, []): a walk to depth 0
    splits nothing, and at Q = 1 a fractional piece end is no integer."""
    if depth == 0:
        return 1, []
    q = math.lcm(*(v.denominator for p in m.pieces for v in (p.lo, p.hi, p.slope, p.intercept)))
    scale = q**depth

    def times(v, t):
        return v.numerator * (t // v.denominator)

    return q, [
        (times(p.lo, scale), times(p.hi, scale), p.lo_closed, p.hi_closed,
         times(p.slope, q), times(p.intercept, scale))
        for p in m.pieces
    ]


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


def _place_part(stack, A, B, order, fa, fb, ln, ld, lc, hn, hd, hc) -> tuple[int, int] | None:
    """The ranks r and s the new iterate fa*x + fb takes on a part just
    right of its left end and just left of its right end, or None where
    the part holds no item; with a list `stack`, also push the part's
    items onto it, one per rank from r to s, left to right.

    Each end's rank is a bisection over the order, the slope breaking a
    tie one way at the left end and the other way at the right.  The part
    is dropped where the new iterate equals order[r] on all of it (an old
    iterate it equals can only sit there), and a point part where it ties
    an old iterate there, which is where r and s part.  An item ends, open,
    where the rank steps: at the crossing with order[r] where it rises and
    order[r - 1] where it falls.  An end of the part is opened where the
    new iterate ties a neighbour of its rank there.
    """
    top = len(order)
    r, t = 0, top
    while r < t:
        mid = (r + t) // 2
        j = order[mid]
        da = fa - A[j]
        d = da * ln + (fb - B[j]) * ld
        if d > 0 or d == 0 and da > 0:
            r = mid + 1
        else:
            t = mid
    if r < top and fa == A[order[r]] and fb == B[order[r]]:
        return None
    s, t = 0, top
    while s < t:
        mid = (s + t) // 2
        j = order[mid]
        da = fa - A[j]
        d = da * hn + (fb - B[j]) * hd
        if d > 0 or d == 0 and da < 0:
            s = mid + 1
        else:
            t = mid
    if r != s and ln * hd == hn * ld:
        return None
    if stack is not None:
        k1, A1, B1 = top, A + (fa,), B + (fb,)  # the items' depth k + 1 is len(order)
        if lc:
            for j in order[r - 1 if r else 0:r + 1]:
                if (fa - A[j]) * ln + (fb - B[j]) * ld == 0:
                    lc = False
                    break
        if hc:
            for j in order[s - 1 if s else 0:s + 1]:
                if (fa - A[j]) * hn + (fb - B[j]) * hd == 0:
                    hc = False
                    break
        step, i = 1 if s > r else -1, r
        while i != s:
            j = order[i if step > 0 else i - 1]
            xn, xd = step * (B[j] - fb), step * (fa - A[j])  # the crossing, xd > 0
            stack.append((k1, ln, ld, xn, xd, lc, False, A1, B1, order[:i] + (k1,) + order[i:]))
            ln, ld, lc, i = xn, xd, False, i + step
        stack.append((k1, ln, ld, hn, hd, lc, hc, A1, B1, order[:s] + (k1,) + order[s:]))
    return r, s


def _cut(A, B, fa, fb, cuts, ln, ld, lc, hn, hd, hc) -> tuple | None:
    """Cut a part to where the new iterate fa*x + fb takes one rank, or None
    if it takes it nowhere; the part and the result are (lo, hi, flags).

    `cuts` holds the rank's neighbours as (iterate j, sign): the new
    iterate must lie above j where sign is +1 and below it where sign is
    -1, the linear inequality sign * ((fa - A[j]) * x + fb - B[j]) > 0.
    The rank is the pattern's, not one the full walk finds, so either end
    may be cut, inside the part or at it: this is the only place a lower
    end is cut inside a part.  A cut strictly inside becomes an open end
    at the crossing; a cut at an end opens that end, so a tie there is
    dropped.
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


def _glued(alpha: Perm, bits: int) -> Iterator[Perm]:
    """alpha extended by each last value v of the mask `bits`: alpha with
    its values from v up raised by one, then v."""
    while bits:
        low = bits & -bits
        v = low.bit_length() - 1
        yield tuple([e + (e >= v) for e in alpha]) + (v,)
        bits ^= low


class _Entry(NamedTuple):
    """What a later exact call needs of a full walk."""

    m: PwlMap
    depth: int
    created: list[int]  # items made at each depth the walk reached
    # levels[k]: the rank words of the items at depth k, each with the mask
    # of the last values its children at depth k + 1 take (0 at the last depth)
    levels: list[dict[Perm, int]]


_entry: _Entry | None = None  # the most recent full walk, see _level
_ABOVE_ROOT: dict[Perm, int] = {(): 2}  # level -1: the empty word, whose one child is (1,)


def _level(m: PwlMap, depth: int, cell_budget: int) -> dict[Perm, int]:
    """The rank words of the items at `depth` of m's full walk, each with
    the mask of the last values its children take.

    The module keeps one entry, the most recent full walk with the words of
    every level it reached, and serves a call from it when the map compares
    equal, `depth` is at most the walk's and no depth up to `depth` made
    more items than cell_budget.  Any other call frees the entry and walks,
    so a smaller budget raises as a first walk would.  A depth the walk
    never reached has no items.  Level 0 is the word (1,), and level k + 1
    is each word of level k glued to each last value of its mask; it is
    glued only where it holds words with no children, since the words
    with children are already the walk's orders at depth k + 1.
    """
    global _entry
    _check_budget(cell_budget, "cell")
    e = _entry
    if e is None or e.m != m or depth > e.depth or max(e.created[:depth + 1]) > cell_budget:
        _entry = None  # free the old entry before the walk
        created, masks = [], []
        scaled = _full_scaled(m, depth, cell_budget)
        for _ in _walk(scaled, depth, cell_budget, None, created, masks):
            pass
        level, levels = _ABOVE_ROOT, []
        for ranked in [*masks, {}]:  # the orders of one depth, each with its mask
            whole = sum(bits.bit_count() for bits in level.values()) == len(ranked)
            words = {}
            while ranked:  # free each order as its word is made, to keep the peak low
                order, bits = ranked.popitem()
                words[_word(order)] = bits
            if not whole:
                for alpha, bits in level.items():
                    for w in _glued(alpha, bits):
                        words.setdefault(w, 0)  # a word with no children
            level = words
            levels.append(level)
        e = _entry = _Entry(m, depth, created, levels)
    return e.levels[depth] if depth < len(e.levels) else {}


def exact_allowed(m: PwlMap, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> PatternSet:
    """All length-n patterns realized by some orbit of the map."""
    if n < 1:
        raise BadParameter("n must be at least 1")
    return PatternSet(n, tuple(sorted(_level(m, n - 1, cell_budget))))


def exact_forbidden(m: PwlMap, n: int, cell_budget: int = DEFAULT_CELL_BUDGET) -> PatternSet:
    """Complement of exact_allowed within S_n.

    Its n! candidates count against cell_budget before any walk starts:
    10! = 3,628,800 fits the default budget, 11! does not.  _factorial_over
    stops the product once it passes the budget, so a huge n is refused at
    once.  Each candidate is looked up in the walk's level n - 1 (see
    _level); no allowed set is built.
    """
    if n < 1:
        raise BadParameter("n must be at least 1")
    _check_budget(cell_budget, "cell")
    if (count := _factorial_over(n, cell_budget)) is not None:
        raise ResourceLimit(
            f"forbidden-set enumeration at n = {n} has {count} candidates, "
            f"over the cell budget of {cell_budget}"
        )
    allowed = _level(m, n - 1, cell_budget)
    return PatternSet(n, tuple(p for p in all_perms(n) if p not in allowed))


def exact_basic_forbidden(
    m: PwlMap, n: int, cell_budget: int = DEFAULT_CELL_BUDGET
) -> PatternSet:
    """Forbidden length-n patterns whose two length-(n-1) windows are both allowed.

    Each candidate is an allowed (n-1)-pattern alpha, a word of the walk's
    level n - 2, extended by a last value v.  Its left window is alpha, so
    it is allowed exactly where v is a bit of alpha's mask.  Its right
    window is alpha's reduced right window, a word of level n - 3,
    extended by v, less one if v > alpha[0]; so that word's mask, with its
    bits from alpha[0] up moved up one, holds the v whose right window is
    allowed.  Only the candidates in that mask and not in alpha's are built.
    """
    if n < 2:
        raise BadParameter("basic forbidden patterns need n >= 2")
    _level(m, n - 1, cell_budget)  # an entry that reaches n - 1 masks level n - 2
    shorter = _level(m, n - 2, cell_budget)
    windows = _level(m, n - 3, cell_budget) if n > 2 else _ABOVE_ROOT
    found: list[Perm] = []
    for alpha, own in shorter.items():
        a0 = alpha[0]
        right = windows.get(tuple([e - (e > a0) for e in alpha[1:]]), 0)
        # the right window of alpha + v ends in v, less one if above pi[0],
        # which is a0 or a0 + 1, so exactly when v > a0
        right = (right & (2 << a0) - 1) | (right >> a0 << a0 + 1)
        found.extend(_glued(alpha, right & ~own))
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


def _placeable(pieces, q, pi) -> bool:
    """Whether the points x_0 .. x_{n-2} of an orbit with pattern pi, sorted
    by value, can lie in consecutive runs, one per piece from left to right
    (see the module docstring for why taking the longest run is exact).

    x_{n-1} asks nothing of its piece.  Point i is up when pi[i + 1] > pi[i];
    a piece holds an up point only if f(X) > X at one of its ends, a down
    point only if f(X) < X there.  On a scaled piece f(X) = s * X / q + c,
    so f(X) - X has the sign of (s - q) * X + c * q.  Two points of one run
    need a piece of positive length, and their successors keep their order
    on a rising piece and swap it on a falling one.  f(X) - X is affine on
    a piece, so a run switches from down to up points only where the slope
    is above 1 and from up to down only where it is below 1.  q and
    `pieces` are as _scaled returns them at any depth: scaling by Q scales
    X and c alike, and leaves lo == hi and every sign as it is.
    """
    points = sorted(range(len(pi) - 1), key=pi.__getitem__)
    up = [pi[i + 1] > pi[i] for i in range(len(pi) - 1)]
    p = 0
    for lo, hi, _, _, s, c in pieces:
        if p == len(points):
            break
        d, e = s - q, c * q
        at_lo, at_hi = d * lo + e, d * hi + e
        holds = (at_lo < 0 or at_hi < 0, at_lo > 0 or at_hi > 0)  # (down, up)
        first = p
        while p < len(points):
            i = points[p]
            if not holds[up[i]]:
                break
            if p > first:
                j = points[p - 1]
                if lo == hi or (pi[j + 1] < pi[i + 1]) != (s > 0):
                    break
                if up[i] != up[j] and up[i] != (d > 0):
                    break
            p += 1
    return p == len(points)


def is_realized(m: PwlMap, pattern, cell_budget: int = DEFAULT_CELL_BUDGET) -> bool:
    """Exact check whether one specific pattern is realized by the map.

    First a greedy pass (_placeable) tries to place the pattern's points,
    sorted by value, in consecutive runs on the map's pieces from left to
    right, each run on the side of the diagonal its points ask and in the
    order the piece's slope allows.  Any orbit that realizes the pattern
    gives such a placement, since the pieces are disjoint intervals in
    order, and the greedy pass finds one whenever one exists; where it
    fails the pattern is forbidden and nothing is walked.  Otherwise the
    answer comes from the same walk as exact_allowed, keeping only items
    whose order agrees with the pattern's prefix and stopping at the first
    item of full depth, so single patterns stay cheap even at horizons
    where the full refinement would be enormous.
    """
    pi = check_perm(pattern)
    _check_budget(cell_budget, "cell")
    depth = len(pi) - 1
    q, pieces = _scaled(m, depth)
    if not _placeable(pieces, q, pi):
        return False
    return any(item[0] == depth for item in _walk((q, pieces), depth, cell_budget, pi, []))
