"""Quick self-test of the benchmark's oracles against published values.

    python3 perfbench/selftest.py

Runs in a few seconds, imports nothing from patlab, and exits 1 if any
oracle disagrees with a value from the literature or with brute force.
"""

from __future__ import annotations

import itertools
import math
import sys
from fractions import Fraction

import oracles as O


def _brute_avoiders(patterns, n):
    return sum(
        not any(O.occurs(tuple(s), p) for s in patterns)
        for p in itertools.permutations(range(1, n + 1))
    )


def _shortest(sets):
    return next((n for n in sorted(sets) if len(sets[n]) < math.factorial(n)), None)


def _decreasing_orbit_pattern(x: Fraction, n: int):
    vals = [x]
    for _ in range(n - 1):
        vals.append(1 - vals[-1] ** 2)
    return O.standardize(vals)


def checks():
    tent = O.grid_allowed(O.tent_pieces(), 8)
    saw2 = O.grid_allowed(O.sawtooth_pieces(2), 5)
    saw3 = O.grid_allowed(O.sawtooth_pieces(3), 6)
    alt3 = O.grid_allowed(O.alt_sawtooth_pieces(3), 5)
    alt5 = O.grid_allowed(O.alt_sawtooth_pieces(5), 6)
    basic = {n: O.basic_from_allowed(tent[n - 1], tent[n], n) for n in range(3, 9)}

    yield "tent basic counts n=3..8 are 1, 5, 9, 28, 53, 110", (
        {n: len(b) for n, b in basic.items()} == O.TENT_BASIC_COUNTS
    )
    yield "tent basic sets at n=3 and n=4", (
        basic[3] == {(3, 2, 1)}
        and basic[4] == {O.parse_word(w) for w in ("1423", "2134", "2143", "3142", "4231")}
    )
    yield "the paper's tent families are basic for n=4..8", all(
        O.tent_families(n) <= basic[n] for n in range(4, 9)
    )
    yield "gluing equals the refilter of S_n (tent n<=7, sawtooth:3 n<=6)", all(
        O.basic_from_allowed(s[n - 1], s[n], n) == O.basic_by_refilter(s[n - 1], s[n], n)
        for s, top in ((tent, 7), (saw3, 6))
        for n in range(3, top + 1)
    )
    yield "grid sets are window closed", all(
        O.window_closed(s[n], s[n - 1]) for s in (tent, saw2, saw3, alt5) for n in range(3, max(s) + 1)
    )
    yield "shortest forbidden length N+2 for sawtooth:2, sawtooth:3", (
        _shortest(saw2) == 4 and _shortest(saw3) == 5
    )
    yield "shortest forbidden length N+1 for alt_sawtooth:3, alt_sawtooth:5", (
        _shortest(alt3) == 4 and _shortest(alt5) == 6
    )
    yield "simple witnesses forbidden: order 1 for sawtooth:2, order 2 for alt_sawtooth:5", (
        O.simple_witness(1) not in saw2[4] and O.simple_witness(2) not in alt5[6]
    )
    yield "refined witness of order 1 is 42135 and tent forbids it", (
        O.refined_witness(1) == (4, 2, 1, 3, 5) and O.refined_witness(1) not in tent[5]
    )
    yield "exact Fraction orbits land in the grid sets", all(
        O.standardize(O.orbit(O.tent_pieces(), Fraction(j, 9973), 8)) in tent[8]
        for j in range(1, 9973, 997)
    )
    yield "below-diagonal components: tent 1, sawtooth:3 2, alt_sawtooth:9 4", (
        O.below_diagonal_components(O.tent_pieces()) == 1
        and O.below_diagonal_components(O.sawtooth_pieces(3)) == 2
        and O.below_diagonal_components(O.alt_sawtooth_pieces(9)) == 4
    )
    yield "1 - x^2 realizes exactly the two alternating patterns", all(
        {_decreasing_orbit_pattern(x, n) for x in (Fraction(1, 2), Fraction(9, 10))}
        == O.decreasing_map_patterns(n)
        for n in range(2, 7)
    ) and O.decreasing_map_patterns(3) == {(2, 1, 3), (2, 3, 1)}
    yield "A049774 by the up/down DP matches the published terms", (
        [O.a049774(n) for n in range(len(O.A049774))] == O.A049774
    )
    yield "avoider DP: {123} gives A049774, {132,231} gives 2^(n-1)", all(
        O.count_avoiders([(1, 2, 3)], n) == O.A049774[n] for n in range(1, 13)
    ) and all(O.count_avoiders([(1, 3, 2), (2, 3, 1)], n) == 2 ** (n - 1) for n in range(1, 15))
    tent_basis = [p for n in (3, 4, 5) for p in basic[n]]
    yield "avoider DP equals brute force for the tent basis of lengths 3-5, n<=8", all(
        O.count_avoiders(tent_basis, n) == _brute_avoiders(tent_basis, n) for n in range(1, 9)
    )
    yield "avoider DP gives the 53,571 tent-basis avoiders at n=10 that ROADMAP records", (
        O.count_avoiders(tent_basis, 10) == 53571
    )
    yield "peakless set {132,231} is obstructed for m=1..5", (
        O.obstructed_orders([(1, 3, 2), (2, 3, 1)], 5) == [1, 2, 3, 4, 5]
    )
    yield "length budget: single lengths 6..12 fail, [3,3] passes", (
        not any(O.length_budget([k])["satisfied"] for k in range(6, 13))
        and O.length_budget([3, 3])["satisfied"]
    )


def main() -> int:
    failed = 0
    for name, ok in checks():
        print(f"{'PASS' if ok else 'FAIL'} {name}")
        failed += not ok
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
