"""Permutations in one-line notation and consecutive-pattern combinatorics.

A permutation is a tuple of the integers 1..n.  A pattern sigma occurs
consecutively in pi when some window of adjacent entries of pi reduces
to sigma; all containment in this package is consecutive containment.

The avoider search enumerates (or counts) the permutations of 1..n none
of whose windows reduce to a forbidden pattern.  It extends prefixes one
value at a time and only ever inspects the window that ends at the newly
placed entry, so a match is detected the moment it is completed and the
whole subtree below it is skipped.  That pruning is what makes counting
feasible well past the reach of a scan over all of S_n.

>>> reduce_values([3, 4.2, -2, 1.7, 1])
(4, 5, 1, 3, 2)
>>> contains((4, 2, 1, 3, 5), (1, 3, 2))
False
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Sequence

from .errors import BadParameter, DuplicateValue, ParseError, ResourceLimit

# A permutation of 1..n in one-line notation.
Perm = tuple[int, ...]

DEFAULT_NODE_BUDGET = 50_000_000


def reduce_values(values: Sequence) -> Perm:
    """Relabel pairwise-distinct comparable values with 1..n, preserving order.

    The i-th output entry is the rank of values[i], with rank 1 for the
    smallest.  Raises DuplicateValue when two entries compare equal, since
    ranks are undefined in that case.
    """
    if len(values) == 0:
        raise BadParameter("cannot reduce an empty sequence")
    order = sorted(range(len(values)), key=values.__getitem__)
    ranks = [0] * len(values)
    prev = order[0]
    for rank, idx in enumerate(order, start=1):
        if rank > 1 and not values[prev] < values[idx]:
            raise DuplicateValue(
                f"positions {prev} and {idx} hold equal values ({values[idx]!r})"
            )
        ranks[idx] = rank
        prev = idx
    return tuple(ranks)


def check_perm(word: Sequence[int]) -> Perm:
    """Validate that word is a permutation of 1..n and return it as a tuple."""
    p = tuple(word)
    n = len(p)
    if n == 0:
        raise BadParameter("empty permutation")
    if sorted(p) != list(range(1, n + 1)):
        raise BadParameter(f"not a permutation of 1..{n}: {p}")
    return p


def all_perms(n: int) -> Iterator[Perm]:
    """Yield all of S_n in lexicographic order."""
    if n < 1:
        raise BadParameter("n must be at least 1")
    return itertools.permutations(range(1, n + 1))


def contains(pi: Sequence[int], sigma: Sequence[int]) -> bool:
    """True when some window of adjacent entries of pi reduces to sigma."""
    pi = check_perm(pi)
    sigma = check_perm(sigma)
    k = len(sigma)
    if k > len(pi):
        return False
    return any(
        reduce_values(pi[i : i + k]) == sigma for i in range(len(pi) - k + 1)
    )


def is_antichain(patterns: Iterable[Sequence[int]]) -> bool:
    """True when no pattern in the collection occurs consecutively in another.

    Patterns of equal length never contain one another (short of being
    equal), so only cross-length pairs need a window check.
    """
    pats = sorted({check_perm(p) for p in patterns}, key=len)
    for a, b in itertools.combinations(pats, 2):
        if len(a) < len(b) and contains(b, a):
            return False
    return True


# ---------------------------------------------------------------------------
# avoider search


def _tiny_reduce(vals: Sequence[int]) -> Perm:
    # rank the tail of a window; tails are short, so special-case the hot sizes
    m = len(vals)
    if m == 1:
        return (1,)
    if m == 2:
        return (1, 2) if vals[0] < vals[1] else (2, 1)
    return reduce_values(vals)


def _extend_pattern(tail: Perm, rank: int) -> Perm:
    # pattern of (tail values, v) when v ranks `rank` among the full window
    return tuple(e + (e >= rank) for e in tail) + (rank,)


def _group_by_length(patterns: Iterable[Sequence[int]]) -> dict[int, frozenset[Perm]]:
    by_len: dict[int, set[Perm]] = {}
    for p in patterns:
        q = check_perm(p)
        by_len.setdefault(len(q), set()).add(q)
    return {length: frozenset(s) for length, s in by_len.items()}


def _walk_avoiders(n: int, by_len: dict[int, frozenset[Perm]], node_budget: int, sink) -> None:
    """Depth-first prefix extension with incremental window checks.

    For each forbidden length L only the window ending at the new entry is
    examined, and only through a precomputed table: the reduction of the
    last L-1 placed values indexes a bitmask of ranks that would complete a
    forbidden window.  Candidates are tried in ascending order, so sinks
    receive avoiders lexicographically.
    """
    lengths = sorted(by_len)
    tables: dict[int, dict[Perm, int]] = {length: {} for length in lengths}

    def bad_mask(length: int, tail_pat: Perm) -> int:
        table = tables[length]
        mask = table.get(tail_pat)
        if mask is None:
            forb = by_len[length]
            mask = 0
            for r in range(1, length + 1):
                if _extend_pattern(tail_pat, r) in forb:
                    mask |= 1 << r
            table[tail_pat] = mask
        return mask

    prefix: list[int] = []
    used = [False] * (n + 1)
    remaining = node_budget

    def rec() -> None:
        nonlocal remaining
        k = len(prefix)
        if k == n:
            sink(prefix)
            return
        ctx = []
        for length in lengths:
            if k + 1 >= length:
                tail = prefix[k - length + 1 :]
                mask = bad_mask(length, _tiny_reduce(tail))
                if mask:
                    ctx.append((tail, mask))
        for v in range(1, n + 1):
            if used[v]:
                continue
            remaining -= 1
            if remaining < 0:
                raise ResourceLimit(
                    f"avoider search exceeded the node budget of {node_budget}"
                )
            ok = True
            for tail, mask in ctx:
                r = 1
                for t in tail:
                    if t < v:
                        r += 1
                if (mask >> r) & 1:
                    ok = False
                    break
            if ok:
                used[v] = True
                prefix.append(v)
                rec()
                prefix.pop()
                used[v] = False

    rec()


def avoiders(
    patterns: Iterable[Sequence[int]],
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> "PatternSet":
    """All permutations of 1..n with no window reducing to a given pattern."""
    if n < 1:
        raise BadParameter("n must be at least 1")
    by_len = _group_by_length(patterns)
    if not by_len:
        return PatternSet.from_perms(n, all_perms(n))
    if 1 in by_len:
        # a length-1 pattern occurs in every nonempty permutation
        return PatternSet.from_perms(n, ())
    found: list[Perm] = []
    _walk_avoiders(n, by_len, node_budget, lambda pre: found.append(tuple(pre)))
    return PatternSet.from_perms(n, found)


def count_avoiders(
    patterns: Iterable[Sequence[int]],
    n: int,
    node_budget: int = DEFAULT_NODE_BUDGET,
) -> int:
    """|avoiders(patterns, n)| without materializing the set."""
    if n < 1:
        raise BadParameter("n must be at least 1")
    by_len = _group_by_length(patterns)
    if not by_len:
        return math.factorial(n)
    if 1 in by_len:
        return 0
    count = 0

    def bump(_pre) -> None:
        nonlocal count
        count += 1

    _walk_avoiders(n, by_len, node_budget, bump)
    return count


# ---------------------------------------------------------------------------
# text and JSON forms


def format_perm(p: Sequence[int]) -> str:
    """Digit string for n <= 9, comma-separated entries otherwise."""
    q = check_perm(p)
    if len(q) <= 9:
        return "".join(str(e) for e in q)
    return ",".join(str(e) for e in q)


def parse_perm(text: str) -> Perm:
    """Inverse of format_perm; accepts either textual form."""
    s = text.strip()
    if not s:
        raise ParseError("empty permutation text")
    try:
        if "," in s:
            entries = [int(tok) for tok in s.split(",")]
        else:
            entries = [int(ch) for ch in s]
    except ValueError as exc:
        raise ParseError(f"bad permutation text {text!r}") from exc
    try:
        return check_perm(entries)
    except BadParameter as exc:
        raise ParseError(str(exc)) from exc


@dataclass(frozen=True)
class PatternSet:
    """An immutable set of same-length permutations, iterated lexicographically."""

    n: int
    patterns: tuple[Perm, ...]

    @classmethod
    def from_perms(cls, n: int, perms: Iterable[Sequence[int]]) -> "PatternSet":
        if n < 1:
            raise BadParameter("pattern length must be at least 1")
        uniq = sorted({check_perm(p) for p in perms})
        for p in uniq:
            if len(p) != n:
                raise BadParameter(f"pattern {p} has length {len(p)}, expected {n}")
        return cls(n, tuple(uniq))

    @cached_property
    def _members(self) -> frozenset[Perm]:
        return frozenset(self.patterns)

    def __contains__(self, item: object) -> bool:
        return item in self._members

    def __iter__(self) -> Iterator[Perm]:
        return iter(self.patterns)

    def __len__(self) -> int:
        return len(self.patterns)

    def to_json(self) -> dict:
        return {"n": self.n, "patterns": [format_perm(p) for p in self.patterns]}

    @classmethod
    def from_json(cls, data: dict) -> "PatternSet":
        try:
            n = int(data["n"])
            words = data["patterns"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad pattern-set JSON: {data!r}") from exc
        return cls.from_perms(n, [parse_perm(w) for w in words])
