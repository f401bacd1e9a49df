"""The paper's basic forbidden patterns of the tent map, the conjugate of
L_4, past the lengths the full walk reaches, and an oracle for its basic
sets that shares no code with the walk.

A pattern is basic forbidden exactly when it is not realized while both
of its length-(n-1) windows are, so three single-pattern walks check one
family member at any length.  The four families give n distinct members
at each length n >= 5, the paper's lower bound on |basic(n)|.

The itinerary oracle's allowed sets, glued by that definition, give the
basic sets again: every candidate is an allowed (n-1)-pattern with one
last value added.  `python tests/test_tent_basic.py N_MIN N_MAX` runs the
family check at lengths N_MIN..N_MAX; `--glued` runs the oracle check
instead.
"""

import sys

from patlab import exact_basic_forbidden, is_realized, reduce_values, tent
from patlab.verify import family_first, family_pivot, family_rotated, family_swapped

from itineraries import itinerary_patterns


def families(n):
    """The members of the paper's four families at length n >= 5."""
    pivots = [family_pivot(n, k) for k in range(2, n - 1)]
    return [family_first(n), family_swapped(n), *pivots, family_rotated(n)]


def assert_families_basic(lengths):
    m = tent()
    for n in lengths:
        members = families(n)
        assert len(set(members)) == n, n
        for w in members:
            assert not is_realized(m, w), (n, w)
            assert is_realized(m, reduce_values(w[:-1])), (n, w)
            assert is_realized(m, reduce_values(w[1:])), (n, w)


def glued_basic(shorter, full, n):
    """The basic forbidden length-n patterns, from the allowed patterns of
    lengths n - 1 (`shorter`) and n (`full`)."""
    found = set()
    for alpha in shorter:
        for v in range(1, n + 1):
            p = tuple(e + (e >= v) for e in alpha) + (v,)
            if p not in full and reduce_values(p[1:]) in shorter:
                found.add(p)
    return found


def assert_glued_basic(lengths):
    allowed = itinerary_patterns(tent(), max(lengths))
    for n in lengths:
        got = set(exact_basic_forbidden(tent(), n))
        assert got == glued_basic(allowed[n - 2], allowed[n - 1], n), n


def test_families_are_basic_past_enumeration():
    assert_families_basic(range(13, 41))


def test_glued_oracle_basic_sets():
    assert_glued_basic(range(2, 9))


if __name__ == "__main__":
    glued = "--glued" in sys.argv
    lo, hi = (int(a) for a in sys.argv[1:] if a != "--glued")
    (assert_glued_basic if glued else assert_families_basic)(range(lo, hi + 1))
    print("tent", "glued basic sets" if glued else "families", f"hold at n = {lo}..{hi}")
