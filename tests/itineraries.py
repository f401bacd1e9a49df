"""An exact oracle for the patterns of a PWL map, by itineraries.

It shares no code with the engine's walk: no integer scaling, no rank
placement, no crossing bookkeeping, no bisection over pieces.  Every
orbit x, f(x), ..., f^{n-1}(x) follows an itinerary of pieces, and on the
set of points that follow one (its cylinder, an interval) every iterate
is affine.  Two affine iterates cross at most once unless they are equal,
so the orbit's pattern is constant between two adjacent crossings inside
the cylinder.  Reading it at the midpoint of each such gap, and at each
closed end of the cylinder where no two iterates tie, finds every
pattern the cylinder realizes.  Everything is in Fractions.

Its cost grows as pieces**(n - 1), so it serves small n only.
"""

from fractions import Fraction


def _preimage(piece, a, b, lo, lc, hi, hc):
    """The points of [lo, hi] (each end closed where lc, hc) at which the
    affine map a*x + b lands in the piece, as (lo, lc, hi, hc), or None."""
    if a == 0:
        y = b
        inside = (piece.lo < y or piece.lo == y and piece.lo_closed) and (
            y < piece.hi or y == piece.hi and piece.hi_closed)
        return (lo, lc, hi, hc) if inside else None
    ends = [((piece.lo - b) / a, piece.lo_closed), ((piece.hi - b) / a, piece.hi_closed)]
    if a < 0:
        ends.reverse()
    (plo, plc), (phi, phc) = ends
    if plo > lo or plo == lo and not plc:
        lo, lc = plo, plc
    if phi < hi or phi == hi and not phc:
        hi, hc = phi, phc
    if lo < hi or lo == hi and lc and hc:
        return lo, lc, hi, hc
    return None


def _pattern(lines, x):
    """The rank word of the values a*x + b, or None where two tie."""
    values = [a * x + b for a, b in lines]
    ranked = sorted(values)
    if len(set(ranked)) < len(ranked):
        return None
    return tuple(ranked.index(v) + 1 for v in values)


def _read(lines, lo, lc, hi, hc, found):
    """Add to `found` every pattern the iterates `lines` take on the interval."""
    xs = {lo, hi}
    for i, (a1, b1) in enumerate(lines):
        for a2, b2 in lines[:i]:
            if a1 != a2:
                x = (b2 - b1) / (a1 - a2)
                if lo < x < hi:
                    xs.add(x)
    xs = sorted(xs)
    points = [(u + v) / 2 for u, v in zip(xs, xs[1:])]
    points += [x for x, closed in ((lo, lc), (hi, hc)) if closed]
    for x in points:
        pattern = _pattern(lines, x)
        if pattern is not None:
            found.add(pattern)


def itinerary_patterns(m, n):
    """The patterns of lengths 1..n that some orbit of m realizes, as a list
    of sets, the one of length k at index k - 1."""
    found = [set() for _ in range(n)]
    zero, one = Fraction(0), Fraction(1)

    def visit(lines, lo, lc, hi, hc):
        _read(lines, lo, lc, hi, hc, found[len(lines) - 1])
        if len(lines) == n:
            return
        a, b = lines[-1]
        for piece in m.pieces:
            cylinder = _preimage(piece, a, b, lo, lc, hi, hc)
            if cylinder is not None:
                s, c = Fraction(piece.slope), Fraction(piece.intercept)
                visit(lines + [(s * a, s * b + c)], *cylinder)

    visit([(one, zero)], zero, True, one, True)
    return found
