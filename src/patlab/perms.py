"""Permutations in one-line notation and consecutive-pattern combinatorics.

A permutation is a tuple of the integers 1..n.  A pattern sigma occurs
consecutively in pi when some window of adjacent entries of pi reduces
to sigma; all containment in this package is consecutive containment.

The avoider search counts or lists the permutations of 1..n none of
whose windows reduce to a forbidden pattern, by a transfer-state table
(Elizalde and Noy, Adv. Appl. Math. 2003).  Placing values one at a
time, a state keeps only the ranks of the longest suffix of the placed
values that reduces to a proper prefix of a forbidden pattern, among
those values and the unused ones; many prefixes share a state.  Each
depth's states are grouped by the order of their entries among
themselves, which fixes their moves, so a pass over a depth looks up
each order's moves once.  One forward pass sums the counts a depth at
a time; `count_avoiders` keeps only the last depth.  `avoiders` keeps
every depth, expands each again from the last one back to keep the
moves into live states, and builds the words from each live state's
completions at one meeting depth.

>>> reduce_values([3, 4.2, -2, 1.7, 1])
(4, 5, 1, 3, 2)
>>> contains((4, 2, 1, 3, 5), (1, 3, 2))
False
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass
from functools import cache, cached_property
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
    # a window reduces to sigma when its entries rise along the positions
    # of sigma's values 1, 2, ..., k: test each step at every offset at once
    pos = sorted(range(k), key=sigma.__getitem__)
    steps = [[x < y for x, y in zip(pi[a:], pi[b:])] for a, b in zip(pos, pos[1:])]
    return any(map(all, zip(*steps))) if steps else True


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


def _group_by_length(patterns: Iterable[Sequence[int]]) -> dict[int, set[Perm]]:
    by_len: dict[int, set[Perm]] = {}
    for p in map(check_perm, patterns):
        by_len.setdefault(len(p), set()).add(p)
    return by_len


def _row(order: Perm, by_len: dict[int, set[Perm]], prefixes: set[Perm]) -> list:
    """Moves out of the tails whose entries rank `order` (from 0) among themselves.

    One entry (r, lo, hi, d, adj, shift, succ) for each r, ascending, such
    that a new value above exactly r tail values completes no forbidden
    window; it lies above the tail entry at position lo and below the one
    at hi (None past either end).  The move keeps the longest suffix of
    (tail, new value) that reduces to a proper prefix of some forbidden
    pattern: the first d tail values are dropped (adj is None if d = 0),
    the kept ones and the new value lose adj and shift ranks to the
    dropped values below them, and the kept values rank succ by themselves.
    """
    ends = [None, *sorted(range(len(order)), key=order.__getitem__), None]
    row = []
    for r in range(len(order) + 1):
        w = tuple(e + (e >= r) for e in order) + (r,)
        if any(k <= len(w) and reduce_values(w[-k:]) in forb for k, forb in by_len.items()):
            continue
        d = next(i for i in range(len(w)) if reduce_values(w[i:]) in prefixes)
        drop = order[:d]
        adj = tuple(sum(x < e for x in drop) for e in order[d:]) if d else None
        succ = tuple(x - 1 for x in reduce_values(w[d:]))
        row.append((r, ends[r], ends[r + 1], d, adj, sum(x < r for x in drop), succ))
    return row


def _expander(by_len: dict[int, set[Perm]], n: int):
    """Return expand(layer, depth), which yields (group, row, top) for each
    order group of a depth whose row (see _row) is not empty.

    The state after `depth` placed values is the tail: the ranks (from 0),
    among the tail values and the n - depth unused ones, of the longest
    suffix of the placed values that reduces to a proper prefix of a
    forbidden pattern; no window completed later can reach further back.
    A layer maps each order to its group of tails.  A move (j, next tail)
    places the j-th smallest unused value as the next tail's last entry,
    q = j + r < top; moves come in ascending j.
    """
    prefixes = {reduce_values(p[:k]) for forb in by_len.values() for p in forb for k in range(1, len(p))}
    row_of = cache(lambda order: _row(order, by_len, prefixes))

    def expand(layer: dict[Perm, dict], depth: int) -> Iterator[tuple[dict, list, int]]:
        for order, group in layer.items():
            if row := row_of(order):
                yield group, row, len(order) + n - depth

    return expand


def _check_node_budget(node_budget: int) -> None:
    if node_budget < 1:
        raise BadParameter(f"the node budget must be positive, got {node_budget}")


def _forward(expand, n: int, node_budget: int) -> Iterator[dict[Perm, dict[Perm, int]]]:
    """Yield the states of each depth 0..n, grouped by order, each with the
    number of ways to reach it.

    The budget bounds the moves examined: each state at depth k whose row
    is not empty is charged one move per unused value, n - k, before its
    first move is drawn; charges only add up, so it runs out at the same
    depth as a whole-depth charge would.  The first depth with no state is
    the last one yielded: no deeper depth can hold one.  The caller has
    checked that node_budget is positive.
    """
    remaining = node_budget
    layer: dict[Perm, dict[Perm, int]] = {(): {(): 1}}
    yield layer
    for depth in range(n):
        nxt: dict[Perm, dict[Perm, int]] = {}
        for group, row, top in expand(layer, depth):
            remaining -= len(group) * (n - depth)
            if remaining < 0:
                raise ResourceLimit(
                    f"avoider search exceeded the node budget of {node_budget}: "
                    f"{sum(map(len, layer.values()))} states at depth {depth} of {n}"
                )
            for _, lo, hi, d, adj, shift, succ in row:
                out = nxt.setdefault(succ, {})
                for tail, c in group.items():
                    base = tuple(map(operator.sub, tail[d:], adj)) if adj else tail[d:]
                    for q in range(0 if lo is None else tail[lo] + 1, top if hi is None else tail[hi]):
                        t = base + (q - shift,)
                        out[t] = out.get(t, 0) + c
        layer = {succ: group for succ, group in nxt.items() if group}
        yield layer
        if not layer:
            return


def avoiders(
    patterns: Iterable[Sequence[int]], n: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> "PatternSet":
    """All permutations of 1..n with no window reducing to a given pattern.

    The listing holds count * n entries, charged against the node budget
    before any word is built.  The words are built at one meeting depth
    k: each live prefix of length k, walked in ascending order, is joined
    to each completion of its state, held as the positions of the values
    it places among the prefix's unused ones.  k is the first depth that
    makes the fewest live prefixes of lengths 1..k plus completions of
    the states of depths k..n - 1.  Every completion at a depth extends
    a live prefix to a distinct avoider, so each depth's completions
    hold at most count * n entries too.  With no pattern every word
    avoids, and its n! * n entries are charged the same way; the product
    stops once it passes the budget, so a huge n is refused at once.
    """
    if n < 1:
        raise BadParameter("n must be at least 1")
    _check_node_budget(node_budget)
    by_len = _group_by_length(patterns)
    if not by_len:
        words = 1
        for k in range(1, n + 1):
            words *= k
            if words * n > node_budget:
                count = f"{words}" if k == n else f"more than {k}! = {words}"
                raise ResourceLimit(
                    f"avoider listing exceeded the node budget of {node_budget}: "
                    f"{count} avoiders of length {n}"
                )
        return PatternSet(n, tuple(all_perms(n)))
    expand = _expander(by_len, n)
    layers = list(_forward(expand, n, node_budget))
    count = sum(sum(group.values()) for group in layers[-1].values())
    if count == 0:
        return PatternSet(n, ())
    if count * n > node_budget:
        raise ResourceLimit(
            f"avoider listing exceeded the node budget of {node_budget}: "
            f"{count} avoiders of length {n}"
        )
    # backward pass: expand each depth again, keeping only the moves into states
    # that reach depth n, and count each kept state's completions
    ways = dict.fromkeys(itertools.chain.from_iterable(layers.pop().values()), 1)
    tables: list[dict[Perm, list]] = [{} for _ in range(n)]
    prefixes = [0] * n  # live prefixes of each length
    completions = [0] * (n + 1)  # [k]: completions of the live states of depths k..n-1
    for depth in reversed(range(n)):
        layer, below, ways = layers.pop(), ways, {}
        for group, row, top in expand(layer, depth):
            outs: dict[Perm, list] = {tail: [] for tail in group}
            for r, lo, hi, d, adj, shift, _ in row:
                for tail, out in outs.items():
                    base = tuple(map(operator.sub, tail[d:], adj)) if adj else tail[d:]
                    qs = range(0 if lo is None else tail[lo] + 1, top if hi is None else tail[hi])
                    out += [(q - r, t) for q in qs if (t := base + (q - shift,)) in below]
            for tail, out in outs.items():
                if out:
                    tables[depth][tail] = out
                    ways[tail] = sum(below[t] for _, t in out)
                    prefixes[depth] += group[tail]
        completions[depth] = completions[depth + 1] + sum(ways.values())
    # meet at the first depth k with the fewest live prefixes of lengths up to k
    # plus completions of depths k..n-1
    costs = list(map(operator.add, itertools.accumulate(prefixes), completions))
    meet = costs.index(min(costs))
    # a completion of a state at depth d picks the unused values, sorted, at
    # its positions; at depth n - 1, tuple keeps the single value left as it is
    getters: dict[Perm, list] = dict.fromkeys(tables[n - 1], [tuple])
    for depth in reversed(range(meet, n - 1)):
        # the positions left among the unused values once position j is placed
        positions = tuple(range(n - depth))
        placed = {j for out in tables[depth].values() for j, _ in out}
        lift = {j: positions[:j] + positions[j + 1 :] for j in placed}
        getters = {
            tail: [operator.itemgetter(j, *g(lift[j])) for j, nxt in out for g in getters[nxt]]
            for tail, out in tables[depth].items()
        }
    # prefixes depth first, smallest value first, then their completions in
    # order: the avoiders come out in lexicographic order
    found: list[Perm] = []
    stack = [((), tuple(range(1, n + 1)), ())]
    while stack:
        prefix, rest, tail = stack.pop()
        if len(prefix) == meet:
            found.extend([prefix + g(rest) for g in getters[tail]])
            continue
        for j, nxt in reversed(tables[len(prefix)][tail]):
            stack.append((prefix + (rest[j],), rest[:j] + rest[j + 1 :], nxt))
    return PatternSet(n, tuple(found))


def count_avoiders(
    patterns: Iterable[Sequence[int]], n: int, node_budget: int = DEFAULT_NODE_BUDGET
) -> int:
    """|avoiders(patterns, n)|, keeping the counts of one depth at a time."""
    if n < 1:
        raise BadParameter("n must be at least 1")
    _check_node_budget(node_budget)
    by_len = _group_by_length(patterns)
    if not by_len:
        return math.factorial(n)
    for layer in _forward(_expander(by_len, n), n, node_budget):
        pass
    return sum(sum(group.values()) for group in layer.values())


# ---------------------------------------------------------------------------
# text and JSON forms


def format_perm(p: Sequence[int]) -> str:
    """Digit string for n <= 9, comma-separated entries otherwise."""
    q = check_perm(p)
    return _template(len(q)) % q


def _template(n: int) -> str:
    """The %-format string that format_perm fills with a word of length n."""
    return ("" if n <= 9 else ",").join(["%d"] * n)


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
        # no check_perm here: from_perms checks every word, and the engines
        # build permutations
        # an empty set builds no template: it would hold n strings, too many for a huge n
        template = _template(self.n) if self.patterns else ""
        return {"n": self.n, "patterns": [template % p for p in self.patterns]}

    @classmethod
    def from_json(cls, data: dict) -> "PatternSet":
        try:
            n = int(data["n"])
            perms = [parse_perm(w) for w in data["patterns"]]
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ParseError(f"bad pattern-set JSON: {data!r}") from exc
        return cls.from_perms(n, perms)
