"""Acceptance checklist: the quantitative claims this package stands behind.

Each check recomputes a published or independently derived value with the
exact engine (or, where sampling is the only tool, at a fixed seed) and
compares.  The CLI command ``patlab verify`` runs all of them; the test
suite runs them one by one.  Checks are ordered so the cheap desk checks
come first and the heavier enumerations last.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from .bounds import basis_length_check, basis_obstruction, in_witness_class, shortest_bound, witness
from .engine import (
    exact_allowed,
    exact_basic_forbidden,
    exact_forbidden,
    is_realized,
    shortest_forbidden_length,
)
from .numeric import NumericMap, SampleConfig, sampled_allowed
from .perms import Perm, all_perms, count_avoiders, parse_perm, reduce_values
from .pwl import PwlMap, PwlPiece, alt_sawtooth, sawtooth, tent


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    elapsed_s: float


_REGISTRY: list[tuple[str, Callable[[], tuple[bool, str]]]] = []


def _check(name: str):
    def wrap(fn):
        _REGISTRY.append((name, fn))
        return fn

    return wrap


def check_names() -> list[str]:
    return [name for name, _ in _REGISTRY]


def run_all(names: list[str] | None = None) -> list[CheckResult]:
    wanted = set(names) if names is not None else None
    results = []
    for name, fn in _REGISTRY:
        if wanted is not None and name not in wanted:
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as exc:  # a crash is a failed check, not a crashed report
            passed, detail = False, f"raised {type(exc).__name__}: {exc}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results


# ---------------------------------------------------------------------------
# pattern families that seed the tent map's minimal forbidden sets


def family_first(n: int) -> Perm:
    """(n-2) 1 2 .. (n-3) (n-1) n"""
    return (n - 2, *range(1, n - 2), n - 1, n)


def family_swapped(n: int) -> Perm:
    """(n-2) 1 2 .. (n-3) n (n-1)"""
    return (n - 2, *range(1, n - 2), n, n - 1)


def family_pivot(n: int, k: int) -> Perm:
    """(n-1) 1 .. (k-1) (k+1) .. (n-2) n k, for 2 <= k <= n-2"""
    return (n - 1, *range(1, k), *range(k + 1, n - 1), n, k)


def family_rotated(n: int) -> Perm:
    """(n-3) (n-2) (n-1) 1 2 .. (n-4) n, for n >= 5"""
    return (n - 3, n - 2, n - 1, *range(1, n - 3), n)


# ---------------------------------------------------------------------------
# exact-engine checks


TENT_BASIC_SIZES = {3: 1, 4: 5, 5: 9, 6: 28, 7: 53, 8: 110, 9: 229, 10: 474, 11: 934, 12: 1912}


@_check("01-tent-minimal-counts")
def _tent_minimal_counts() -> tuple[bool, str]:
    got = {n: len(exact_basic_forbidden(tent(), n)) for n in TENT_BASIC_SIZES}
    ok = got == TENT_BASIC_SIZES
    return ok, f"sizes for n=3..12: {sorted(got.items())}"


@_check("02-tent-minimal-small-sets")
def _tent_minimal_small_sets() -> tuple[bool, str]:
    b3 = set(exact_basic_forbidden(tent(), 3))
    b4 = set(exact_basic_forbidden(tent(), 4))
    want4 = {parse_perm(s) for s in ("1423", "2134", "2143", "3142", "4231")}
    ok = b3 == {(3, 2, 1)} and b4 == want4
    return ok, f"n=3: {sorted(b3)}; n=4 matches the five expected: {b4 == want4}"


@_check("03-tent-seed-families")
def _tent_seed_families() -> tuple[bool, str]:
    missing = []
    for n in range(4, 13):
        basic = exact_basic_forbidden(tent(), n)
        fams = [family_first(n), family_swapped(n)]
        fams += [family_pivot(n, k) for k in range(2, n - 1)]
        missing += [(n, f) for f in fams if f not in basic]
    ok = not missing
    return ok, "all (n-1)-member families present for n=4..12" if ok else f"missing: {missing}"


@_check("04-tent-rotated-family")
def _tent_rotated_family() -> tuple[bool, str]:
    missing = [
        n for n in range(5, 13) if family_rotated(n) not in exact_basic_forbidden(tent(), n)
    ]
    ok = not missing
    return ok, "rotated member present for n=5..12" if ok else f"missing at n={missing}"


@_check("05-sawtooth-shortest")
def _sawtooth_shortest() -> tuple[bool, str]:
    got = {n: shortest_forbidden_length(sawtooth(n), n + 3) for n in (2, 3, 4)}
    ok = all(got[n] == n + 2 for n in got)
    return ok, f"shortest forbidden length by ramp count: {sorted(got.items())}"


@_check("06-alt-sawtooth-bounds")
def _alt_sawtooth_bounds() -> tuple[bool, str]:
    notes = []
    ok = True

    for label, m in [("tent", tent())] + [(f"sawtooth:{n}", sawtooth(n)) for n in (2, 3, 4)]:
        rep = shortest_bound(m, "simple", "below")
        actual = shortest_forbidden_length(m, rep.bound)
        valid = actual is not None and actual <= rep.bound
        ok &= valid
        notes.append(f"{label}: shortest {actual} <= bound {rep.bound}")

    for n in (3, 5):  # small enough for full enumeration: bound met with equality
        rep = shortest_bound(alt_sawtooth(n), "simple", "below")
        actual = shortest_forbidden_length(alt_sawtooth(n), rep.bound)
        ok &= rep.component_count == (n - 1) // 2 and actual == rep.bound
        notes.append(f"alt_sawtooth:{n}: shortest {actual} == bound {rep.bound}")

    for n in (7, 9, 11):
        # full enumeration at this length is out of desk range; instead show
        # one explicit pattern of exactly the bound's length is unrealizable
        rep = shortest_bound(alt_sawtooth(n), "simple", "below")
        w = witness(rep.component_count, "simple")
        hit = is_realized(alt_sawtooth(n), w)
        ok &= rep.component_count == (n - 1) // 2 and len(w) == rep.bound and not hit
        notes.append(f"alt_sawtooth:{n}: witness of length {len(w)} unrealizable")

    return ok, "; ".join(notes)


LISTED_REFINED_WITNESSES = ("34215", "35214", "42135", "45213", "45312", "52134")


@_check("07-witness-classes-forbidden")
def _witness_classes_forbidden() -> tuple[bool, str]:
    simple4 = {p for p in all_perms(4) if in_witness_class(p, 1, "simple")}
    forb_saw2 = exact_forbidden(sawtooth(2), 4)
    ok = bool(simple4) and all(p in forb_saw2 for p in simple4)

    refined5 = {p for p in all_perms(5) if in_witness_class(p, 1, "refined")}
    listed = {parse_perm(s) for s in LISTED_REFINED_WITNESSES}
    forb_tent = exact_forbidden(tent(), 5)
    ok &= listed <= refined5 and all(p in forb_tent for p in refined5)
    return ok, (
        f"{len(simple4)} simple members of S_4 all forbidden for sawtooth:2; "
        f"{len(refined5)} refined members of S_5 (incl. the 6 named) all forbidden for tent"
    )


@_check("08-peakless-avoider-counts")
def _peakless_avoider_counts() -> tuple[bool, str]:
    sigma = [(1, 3, 2), (2, 3, 1)]
    got = [count_avoiders(sigma, n) for n in range(1, 15)]
    ok = got == [2 ** (n - 1) for n in range(1, 15)]
    return ok, f"counts n=1..14: {got}"


@_check("09-single-length-budget")
def _single_length_budget() -> tuple[bool, str]:
    bad = [k for k in range(6, 13) if basis_length_check([k]).satisfied]
    pair_ok = basis_length_check([3, 3]).satisfied
    ok = not bad and pair_ok
    return ok, (
        "every single length 6..12 violates the budget; [3,3] satisfies it"
        if ok
        else f"unexpectedly satisfied: {bad}; [3,3] satisfied: {pair_ok}"
    )


@_check("10-peakless-obstruction")
def _peakless_obstruction() -> tuple[bool, str]:
    got = basis_obstruction([(1, 3, 2), (2, 3, 1)], 5)
    ok = got == [1, 2, 3, 4, 5]
    return ok, f"obstructed piece counts: {got}"


def _dense_tent_patterns(n: int) -> set[Perm]:
    # independent oracle: exact tent orbits of every x = j/2^16, done in
    # integers (numerators over the fixed denominator 2^16)
    denom = 1 << 16
    out: set[Perm] = set()
    for j in range(denom + 1):
        vals = [j]
        v = j
        for _ in range(n - 1):
            v = 2 * v if 2 * v < denom else 2 * denom - 2 * v
            vals.append(v)
        if len(set(vals)) == n:
            out.add(reduce_values(vals))
    return out


def _windows(p: Perm) -> tuple[Perm, Perm]:
    return reduce_values(p[:-1]), reduce_values(p[1:])


@_check("11-closure-partition-oracle")
def _closure_partition_oracle() -> tuple[bool, str]:
    ok = True
    notes = []
    for label, m in (("tent", tent()), ("sawtooth:2", sawtooth(2)), ("sawtooth:3", sawtooth(3))):
        for n in range(3, 8):
            al = exact_allowed(m, n)
            shorter = exact_allowed(m, n - 1)
            ok &= all(w in shorter for p in al for w in _windows(p))
            forb = exact_forbidden(m, n)
            ok &= len(al) + len(forb) == math.factorial(n)
            ok &= not (set(al) & set(forb))
            if n <= 6:
                # the gluing construction against a straight filter of the complement
                refilter = {p for p in forb if all(w in shorter for w in _windows(p))}
                ok &= refilter == set(exact_basic_forbidden(m, n))
        notes.append(f"{label}: closure+partition n<=7, minimal-set refilter n<=6")
    for n in range(2, 7):
        ok &= _dense_tent_patterns(n) == set(exact_allowed(tent(), n))
    notes.append("tent matches the 2^16-point rational oracle for n<=6")
    return ok, "; ".join(notes)


@_check("12-sampling-vs-exact")
def _sampling_vs_exact() -> tuple[bool, str]:
    cfg = SampleConfig()
    logistic4 = NumericMap.logistic(4.0)
    ok = True
    eq_to = 0
    for n in range(2, 8):
        sampled = set(sampled_allowed(logistic4, n, cfg))
        exact = set(exact_allowed(tent(), n))
        ok &= sampled <= exact
        if n <= 5:
            ok &= sampled == exact
            eq_to = n if sampled == exact else eq_to
    g = NumericMap.one_minus_x_squared()
    got3 = set(sampled_allowed(g, 3, cfg))
    want3 = {(2, 1, 3), (2, 3, 1)}
    never = {parse_perm(s) for s in ("123", "132", "312", "321")}
    ok &= got3 == want3 and not (got3 & never)
    return ok, (
        f"logistic r=4 sampled within tent exact up to n=7, equal up to n={eq_to}; "
        f"1-x^2 length-3 samples: {sorted(''.join(map(str, p)) for p in got3)}"
    )


@_check("13-monotone-classification")
def _monotone_classification() -> tuple[bool, str]:
    half = Fraction(1, 2)
    crossing = PwlMap((PwlPiece(0, 1, True, True, half, Fraction(1, 4)),))
    above = PwlMap((PwlPiece(0, 1, True, True, half, half),))
    want3 = {parse_perm(s) for s in ("132", "213", "231", "312")}
    ok = set(exact_basic_forbidden(crossing, 3)) == want3
    for n in range(2, 7):
        asc = tuple(range(1, n + 1))
        desc = tuple(range(n, 0, -1))
        ok &= set(exact_allowed(crossing, n)) == {asc, desc}
        ok &= set(exact_allowed(above, n)) == {asc}
    ok &= set(exact_basic_forbidden(above, 2)) == {(2, 1)}
    return ok, (
        "single diagonal crossing: the four non-monotone length-3 words are the "
        "minimal forbidden set and only the two monotone words survive to n=6; "
        "map above the diagonal: minimal forbidden set {21}"
    )
