"""Reference answers computed without patlab.

Nothing here imports patlab.  The benchmark checks every program output
against these values or against properties that must hold whatever the
implementation:

* a dense integer-grid orbit oracle for maps with integer slopes and
  intercepts (every x = j/D with D prime stays on the grid);
* exact Fraction orbits, which certify that a pattern is realized;
* a transfer-state DP for consecutive-pattern avoiders, plus the closed
  forms 2^(n-1) for {132, 231} and A049774 for {123};
* the paper's witness and tent (L_4) basic-pattern families, written out
  from their definitions;
* window closure, the gluing construction of basic forbidden sets and the
  two allowed patterns of the decreasing map 1 - x^2.
"""

from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction

import numpy as np

GRID_DENOM = 1_000_003  # prime, so no interior breakpoint lands on the grid
_GRID_CHUNK = 1 << 17

Perm = tuple[int, ...]

# ---------------------------------------------------------------------------
# maps, written as (lo, slope, intercept) pieces; piece i owns [lo_i, lo_{i+1})
# and the last piece owns [lo, 1]


def tent_pieces():
    return [(Fraction(0), Fraction(2), Fraction(0)), (Fraction(1, 2), Fraction(-2), Fraction(2))]


def sawtooth_pieces(n: int):
    ramps = [(Fraction(m, n), Fraction(n), Fraction(-m)) for m in range(n)]
    return ramps + [(Fraction(1), Fraction(0), Fraction(0))]  # x = 1 maps to 0


def alt_sawtooth_pieces(n: int):
    return [
        (Fraction(m, n), Fraction(n), Fraction(-m))
        if m % 2 == 0
        else (Fraction(m, n), Fraction(-n), Fraction(m + 1))
        for m in range(n)
    ]


def skew_tent_pieces():
    """x -> 5x/2 on [0, 2/5), 5(1-x)/3 on [2/5, 1]: a full unimodal map conjugate to tent."""
    return [(Fraction(0), Fraction(5, 2), Fraction(0)), (Fraction(2, 5), Fraction(-5, 3), Fraction(5, 3))]


SKEW_TENT_SPEC = (
    '{"type":"pwl","pieces":['
    '{"lo":"0","hi":"2/5","slope":"5/2","intercept":"0"},'
    '{"lo":"2/5","hi":"1","slope":"-5/3","intercept":"5/3"}]}'
)


def pieces_for(label: str):
    """Oracle pieces for a catalog shorthand or the skew-tent spec."""
    if label == "tent":
        return tent_pieces()
    if label == SKEW_TENT_SPEC:
        return skew_tent_pieces()
    name, _, param = label.partition(":")
    if name == "sawtooth":
        return sawtooth_pieces(int(param))
    if name == "alt_sawtooth":
        return alt_sawtooth_pieces(int(param))
    raise KeyError(label)


def evaluate(pieces, x: Fraction) -> Fraction:
    los = [p[0] for p in pieces]
    _, slope, intercept = pieces[bisect.bisect_right(los, x) - 1]
    return slope * x + intercept


def orbit(pieces, x: Fraction, n: int) -> list[Fraction]:
    vals = [x]
    for _ in range(n - 1):
        vals.append(evaluate(pieces, vals[-1]))
    return vals


# ---------------------------------------------------------------------------
# permutations


def standardize(values) -> Perm:
    """Ranks 1..k of pairwise-distinct values, in their order of appearance."""
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    for rank, idx in enumerate(order, start=1):
        ranks[idx] = rank
    return tuple(ranks)


def windows(p: Perm) -> tuple[Perm, Perm]:
    return standardize(p[:-1]), standardize(p[1:])


def occurs(sigma: Perm, pi: Perm) -> bool:
    k = len(sigma)
    return any(standardize(pi[i : i + k]) == sigma for i in range(len(pi) - k + 1))


def word(p: Perm) -> str:
    return "".join(map(str, p)) if len(p) <= 9 else ",".join(map(str, p))


def parse_word(text: str) -> Perm:
    return tuple(int(t) for t in text.split(",")) if "," in text else tuple(int(c) for c in text)


# ---------------------------------------------------------------------------
# dense integer-grid orbit oracle


def _decode(code: int, n: int) -> Perm:
    # code = mixed-radix digits r_2..r_n, r_k = 0-based rank of value k among values 1..k
    digits = []
    for k in range(n, 1, -1):
        code, r = divmod(code, k)
        digits.append(r)
    ranks = [0]
    for k, r in enumerate(reversed(digits), start=2):
        ranks = [q + (q >= r) for q in ranks] + [r]
    return tuple(q + 1 for q in ranks)


def grid_allowed(pieces, n_max: int, denom: int = GRID_DENOM) -> dict[int, set[Perm]]:
    """Patterns of lengths 1..n_max realized by the orbits of every x = j/denom.

    Needs integer slopes and intercepts, so the grid maps into itself.  Every
    returned pattern is realized; with denom = 1,000,003 the sets are the
    complete allowed sets for tent up to n = 11, sawtooth:3 up to 8 and
    alt_sawtooth:5 up to 6.
    """
    for _, slope, intercept in pieces:
        if slope.denominator != 1 or intercept.denominator != 1:
            raise ValueError("grid oracle needs integer slopes and intercepts")
    breaks = [(lo.numerator, lo.denominator) for lo, _, _ in pieces[1:]]
    slopes = np.array([int(s) for _, s, _ in pieces], dtype=np.int64)
    offsets = np.array([int(c) * denom for _, _, c in pieces], dtype=np.int64)
    codes: dict[int, set[int]] = {k: set() for k in range(2, n_max + 1)}
    for start in range(0, denom + 1, _GRID_CHUNK):
        v = np.arange(start, min(start + _GRID_CHUNK, denom + 1), dtype=np.int64)
        vals = [v]
        for _ in range(n_max - 1):
            idx = np.zeros(len(v), dtype=np.int64)
            for num, den in breaks:
                idx += v * den >= num * denom
            v = slopes[idx] * v + offsets[idx]
            vals.append(v)
        alive = np.ones(len(v), dtype=bool)
        code = np.zeros(len(v), dtype=np.int64)
        for k in range(1, n_max):
            cur = vals[k]
            below = np.zeros(len(v), dtype=np.int64)
            for i in range(k):
                below += vals[i] < cur
                alive &= vals[i] != cur
            code = code * (k + 1) + below
            codes[k + 1].update(np.unique(code[alive]).tolist())
    out = {1: {(1,)}}
    for k, found in codes.items():
        out[k] = {_decode(c, k) for c in found}
    return out


# ---------------------------------------------------------------------------
# derived sets and properties


def basic_from_allowed(shorter: set[Perm], full: set[Perm], n: int) -> set[Perm]:
    """Forbidden length-n patterns whose two windows are allowed (by gluing)."""
    out = set()
    for alpha in shorter:
        for v in range(1, n + 1):
            pi = tuple(e + (e >= v) for e in alpha) + (v,)
            if pi not in full and standardize(pi[1:]) in shorter:
                out.add(pi)
    return out


def basic_by_refilter(shorter: set[Perm], full: set[Perm], n: int) -> set[Perm]:
    """The same set by filtering all of S_n; for small n only."""
    return {
        p
        for p in itertools.permutations(range(1, n + 1))
        if p not in full and all(w in shorter for w in windows(p))
    }


def window_closed(longer: set[Perm], shorter: set[Perm]) -> bool:
    return all(w in shorter for p in longer for w in windows(p))


def prefix_closed(longer: set[Perm], shorter: set[Perm]) -> bool:
    return all(standardize(p[:-1]) in shorter for p in longer)


def decreasing_map_patterns(n: int) -> set[Perm]:
    """The two length-n patterns of 1 - x^2 (n >= 2).

    The map is a decreasing bijection of [0,1] with one repelling fixed
    point p; for x < p the even iterates fall below p and the odd ones rise
    above it, and for x > p the roles swap.
    """
    evens = list(range(0, n, 2))
    odds = list(range(1, n, 2))
    low_start = [0] * n  # x < p: evens descend at the bottom, odds ascend on top
    for rank, i in enumerate(reversed(evens), start=1):
        low_start[i] = rank
    for rank, i in enumerate(odds, start=len(evens) + 1):
        low_start[i] = rank
    high_start = [0] * n  # x > p: odds descend at the bottom, evens ascend on top
    for rank, i in enumerate(reversed(odds), start=1):
        high_start[i] = rank
    for rank, i in enumerate(evens, start=len(odds) + 1):
        high_start[i] = rank
    return {tuple(low_start), tuple(high_start)}


def cap(n: int) -> Perm:
    """(n-1) 1 2 ... (n-2) n."""
    return (n - 1, *range(1, n - 1), n)


# ---------------------------------------------------------------------------
# witnesses and the tent map's basic families


def simple_witness(k: int) -> Perm:
    """Odd values 3..2k+1 rising, then 2k+2, the even values 2k..2 falling, then 1."""
    return (*range(3, 2 * k + 2, 2), 2 * k + 2, *range(2 * k, 1, -2), 1)


def refined_witness(k: int) -> Perm:
    """Even values 2k+2..2 falling, then 1, then the odd values 3..2k+3 rising."""
    return (*range(2 * k + 2, 1, -2), 1, *range(3, 2 * k + 4, 2))


def tent_families(n: int) -> set[Perm]:
    """Members of the tent map's basic forbidden set at length n >= 4 named in the paper."""
    fams = {
        (n - 2, *range(1, n - 2), n - 1, n),
        (n - 2, *range(1, n - 2), n, n - 1),
    }
    fams |= {(n - 1, *range(1, k), *range(k + 1, n - 1), n, k) for k in range(2, n - 1)}
    if n >= 5:
        fams.add((n - 3, n - 2, n - 1, *range(1, n - 3), n))
    return fams


TENT_BASIC_COUNTS = {3: 1, 4: 5, 5: 9, 6: 28, 7: 53, 8: 110}


def obstructed_orders(patterns, m_max: int) -> list[int]:
    """Orders m whose refined witness avoids every pattern."""
    return [
        m
        for m in range(1, m_max + 1)
        if not any(occurs(tuple(s), refined_witness(m)) for s in patterns)
    ]


def length_budget(lengths) -> dict:
    ks = sorted(lengths)
    h = ks[0] // 2
    required = math.factorial(h) + len(ks) * (h - 1)
    return {"total": sum(ks), "required": required, "satisfied": sum(ks) >= required}


def below_diagonal_components(pieces, denom: int = 20011) -> int:
    """Maximal runs of grid points x = j/denom with f(x) < x (fine enough for catalog maps)."""
    runs, inside = 0, False
    for j in range(denom + 1):
        x = Fraction(j, denom)
        below = evaluate(pieces, x) < x
        runs += below and not inside
        inside = below
    return runs


# ---------------------------------------------------------------------------
# avoider counts


def count_avoiders(patterns, n: int) -> int:
    """Permutations of 1..n with no window reducing to any pattern.

    State: how many values are still unused, and the positions of the last
    L-1 placed values in the sorted union of those and the unused values,
    where L is the longest pattern.  That is all a future window can see.
    """
    by_len: dict[int, set[Perm]] = {}
    for p in patterns:
        by_len.setdefault(len(p), set()).add(tuple(p))
    if 1 in by_len:
        return 0
    if not by_len:
        return math.factorial(n)
    keep = max(by_len) - 1
    ok_ranks: dict[Perm, list[bool]] = {}

    def allowed_ranks(tail_pattern: Perm) -> list[bool]:
        # ok[r]: a new value ranked r (0-based) among the tail completes no pattern
        if tail_pattern not in ok_ranks:
            ok = []
            for r in range(len(tail_pattern) + 1):
                new = tuple(e + (e > r) for e in tail_pattern) + (r + 1,)
                ok.append(not any(
                    len(new) >= ell and standardize(new[-ell:]) in forb
                    for ell, forb in by_len.items()
                ))
            ok_ranks[tail_pattern] = ok
        return ok_ranks[tail_pattern]

    memo: dict[tuple[int, Perm], int] = {}

    def go(free: int, tail: Perm) -> int:
        if free == 0:
            return 1
        key = (free, tail)
        if key in memo:
            return memo[key]
        ok = allowed_ranks(standardize(tail)) if tail else [True]
        ordered = sorted(tail)
        total = 0
        for q in range(len(tail) + free):
            r = bisect.bisect_left(ordered, q)
            if r < len(ordered) and ordered[r] == q or not ok[r]:
                continue
            new = tail + (q,)
            if len(new) > keep:
                dropped = new[0]
                new = tuple(e - (e > dropped) for e in new[1:])
            total += go(free - 1, new)
        memo[key] = total
        return total

    return go(n, ())


def a049774(n: int) -> int:
    """Permutations of 1..n with no consecutive 123 (no double ascent), by an up/down DP."""
    if n <= 1:
        return 1
    # up[j] / down[j]: permutations of length m ending at rank j whose last step rose / fell
    up, down = [0], [1]
    for m in range(2, n + 1):
        new_up = [sum(down[:j]) for j in range(m)]
        new_down = [sum(up[j:]) + sum(down[j:]) for j in range(m)]
        up, down = new_up, new_down
    return sum(up) + sum(down)


A049774 = [1, 1, 2, 5, 17, 70, 349, 2017, 13358, 99377, 822041, 7477162, 74207209]

