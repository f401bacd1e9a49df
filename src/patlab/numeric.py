"""Floating-point orbit patterns and sampled lower bounds on allowed sets.

Smooth maps (the logistic family, 1 - x^2) have no exact piecewise-linear
engine, so realized patterns are estimated by sampling: iterate many start
points in double precision, rank each orbit, and union the patterns.  The
result is a LOWER bound on the allowed set.  Sampling never certifies that
a pattern is forbidden; rounding can only lose patterns near boundaries,
never invent certified claims.

A NumericMap is one vectorized step function, built by
NumericMap.logistic, NumericMap.one_minus_x_squared or
NumericMap.from_pwl; nothing downstream asks which map it came from.

Orbits with two iterates closer than a tie tolerance are discarded whole:
the pattern of a tied orbit is undefined, and a false pattern is worse
than a lost sample.

Start points are streamed in chunks of at most _CHUNK, so no more than
one chunk of them and its orbits is held at a time.  The orbit length n
alone picks one of two paths.

- n <= _MAX_CODED: no orbit is sorted.  One pass over the pairs of
  positions i < j counts, for each value, the values below it (its rank
  less one) and finds the smallest |x_j - x_i|, which is the smallest
  gap between neighbours in sorted order because float subtraction is
  monotone.  Each untied orbit becomes one int64 code, its rank word
  read as base-n digits, so codes sort as the words do: a sort of the
  codes deduplicates them per chunk and once more at the end, and the
  distinct codes decode to rank words already in lexicographic order.
- n > _MAX_CODED: the word does not fit in an int64, so each orbit is
  argsorted once.  That argsort serves the tie check, and the argsort
  rows (inverse patterns) are deduplicated by a lexicographic row sort
  before the distinct ones are turned into rank words.

The cap scan needs no sort at all: one pass over the start points steps
the orbits and tests every length up to n_max as it goes, dropping each
orbit once it can realize no longer cap.  pattern_at computes its orbit
with the same helper as sampled_allowed, so one start point gets the
same pattern from pattern_at as on either path.

>>> lm = NumericMap.logistic(4.0)
>>> format_perm(pattern_at(lm, 0.8, 4))
'3241'
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterator
from dataclasses import dataclass

import numpy as np

from .errors import BadParameter, OutOfDomain, ResourceLimit, TieDetected, ValidationError
from .perms import PatternSet, Perm, format_perm
from .pwl import PwlMap

DEFAULT_TIE_EPSILON = 1e-12
_CONSTRUCTION_GRID = 1001
_CHUNK = 1 << 15
# most start points x orbit values held for each, per call; when every orbit
# is distinct, peak RSS grows about 13 bytes a value for n <= _MAX_CODED and
# 15 for longer orbits, most of it the result's tuples.  The cap scan holds
# three values an orbit and also charges, as it goes, every value it steps
_SAMPLE_BUDGET = 10_000_000
# most values in one orbit: _orbits steps one column per Python iteration,
# about 10 us each, so this many keep a call near a second
_MAX_ORBIT = 100_000
# longest orbit whose rank word fits one int64 code: 15**15 < 2**63 <= 16**16
_MAX_CODED = 15


@dataclass(frozen=True)
class SampleConfig:
    """How many orbits to sample and how to seed them.

    grid_count equally spaced interior points j/(grid_count+1), then
    random_count uniform points from a Philox stream seeded with seed.
    Points are generated chunk by chunk, and Philox yields the same
    stream in pieces, so results do not depend on the chunk size.  The
    defaults saturate the length-5 allowed sets of the catalog maps in a
    fraction of a second while staying reproducible.
    """

    grid_count: int = 100_000
    random_count: int = 100_000
    seed: int = 1
    tie_epsilon: float = DEFAULT_TIE_EPSILON

    def __post_init__(self):
        if self.grid_count < 0 or self.random_count < 0:
            raise BadParameter("sample counts must be nonnegative")
        if self.grid_count + self.random_count < 1:
            raise BadParameter("need at least one sample point")
        if self.seed < 0:
            raise BadParameter("seed must be nonnegative")
        if not 0 < self.tie_epsilon < math.inf:
            raise BadParameter("tie_epsilon must be positive and finite")


class NumericMap:
    """A self-map of [0,1] evaluated in double precision.

    It wraps a vectorized step function; the constructors build one for
    the logistic map r x (1-x) with 1 < r <= 4, for 1 - x^2, and for the
    float evaluation of an exact piecewise-linear map.  Construction
    samples a 1001-point grid to confirm the image stays in [0,1];
    stepping clamps to the domain so roundoff cannot escape it.
    """

    def __init__(self, raw_step: Callable[[np.ndarray], np.ndarray]):
        self._raw_step = raw_step
        image = raw_step(np.linspace(0.0, 1.0, _CONSTRUCTION_GRID))
        if not (np.all(image >= -1e-9) and np.all(image <= 1.0 + 1e-9)):
            raise ValidationError("image escapes [0,1]")

    @classmethod
    def logistic(cls, r: float) -> "NumericMap":
        r = float(r)
        if not 1.0 < r <= 4.0:
            raise BadParameter("logistic parameter must satisfy 1 < r <= 4")
        return cls(lambda x: r * x * (1.0 - x))

    @classmethod
    def one_minus_x_squared(cls) -> "NumericMap":
        return cls(lambda x: 1.0 - x * x)

    @classmethod
    def from_pwl(cls, pwl: PwlMap) -> "NumericMap":
        # float breakpoints and coefficients, one entry per piece
        lo = np.array([float(p.lo) for p in pwl.pieces])
        slope = np.array([float(p.slope) for p in pwl.pieces])
        icept = np.array([float(p.intercept) for p in pwl.pieces])

        def raw_step(x: np.ndarray) -> np.ndarray:
            # ownership of shared breakpoints does not matter in floats: the
            # exact map is continuous wherever two pieces share an endpoint,
            # and discontinuity points are a rounding-level event regardless
            idx = np.clip(np.searchsorted(lo, x, side="right") - 1, 0, len(lo) - 1)
            return slope[idx] * x + icept[idx]

        return cls(raw_step)

    def step(self, x: np.ndarray) -> np.ndarray:
        """One iteration, clamped to [0,1]."""
        return np.clip(self._raw_step(x), 0.0, 1.0)

    def __call__(self, x: float) -> float:
        return float(self.step(np.asarray([x]))[0])


def _orbits(nm: NumericMap, pts: np.ndarray, n: int) -> np.ndarray:
    """Orbit matrix: column k holds the first n iterates of pts[k]."""
    orbit = np.empty((n, len(pts)))
    orbit[0] = pts
    for i in range(1, n):
        orbit[i] = nm.step(orbit[i - 1])
    return orbit


def _rank_codes(orbit: np.ndarray, eps: float) -> np.ndarray:
    """Codes of the columns of orbit whose values are pairwise eps apart.

    A column of n <= _MAX_CODED values with ranks r_0, ..., r_{n-1} has
    code sum_j (r_j - 1) n^(n-1-j), so codes sort as the rank words do.
    """
    n, m = orbit.shape
    # below[j] counts the values under x_j: start from the falling word,
    # then each rising pair i < j moves one count from i to j.  For
    # distinct floats x_j - x_i > 0 exactly when x_j > x_i.  gap ends as
    # the smallest neighbour gap in sorted order, the tie test of
    # _untied_orders and pattern_at.
    below = np.repeat(np.arange(n - 1, -1, -1, dtype=np.int8)[:, None], m, axis=1)
    gap = np.full(m, np.inf)
    d = np.empty(m)
    rising = np.empty(m, dtype=bool)
    for j in range(1, n):
        for i in range(j):
            np.subtract(orbit[j], orbit[i], out=d)
            np.greater(d, 0.0, out=rising)
            below[j] += rising
            below[i] -= rising
            np.minimum(gap, np.abs(d, out=d), out=gap)
    code = np.zeros(m, dtype=np.int64)
    for j in range(n):
        code *= n
        code += below[j]
    return code[gap >= eps]


def _distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct entries of a 1-d array, ascending.

    A sort and a neighbour test: np.unique hashes first on NumPy 2.3 and
    later, which measured several times slower on a chunk of codes.
    """
    codes = np.sort(codes)
    keep = np.ones(len(codes), dtype=bool)
    np.not_equal(codes[1:], codes[:-1], out=keep[1:])
    return codes[keep]


def _untied_orders(orbit: np.ndarray, eps: float) -> np.ndarray:
    """Row-wise argsort of orbit, keeping the rows whose sorted values are eps apart.

    Each kept row lists positions from the smallest value to the largest,
    the inverse of the row's pattern.
    """
    order = np.argsort(orbit, axis=1)
    gaps = np.diff(np.take_along_axis(orbit, order, axis=1), axis=1)
    # the narrowest integer type keeps the later row sorts cheap
    return order[(gaps >= eps).all(axis=1)].astype(np.min_scalar_type(orbit.shape[1] - 1))


def _unique_rows(rows: np.ndarray) -> np.ndarray:
    """The distinct rows of a 2-d integer array, in lexicographic order."""
    if len(rows) < 2:
        return rows
    rows = rows[np.lexsort(rows.T[::-1])]
    keep = np.empty(len(rows), dtype=bool)
    keep[0] = True
    np.any(rows[1:] != rows[:-1], axis=1, out=keep[1:])
    return rows[keep]


def pattern_at(
    nm: NumericMap, x: float, n: int, tie_epsilon: float = DEFAULT_TIE_EPSILON
) -> Perm:
    """Rank word of the first n orbit values of x, in double precision.

    Raises TieDetected when two orbit values are within tie_epsilon: the
    pattern is not defined there, and the caller should discard the
    sample rather than order the values arbitrarily.
    """
    if not 0.0 <= x <= 1.0:
        raise OutOfDomain(f"start point {x} outside [0,1]")
    if n < 1:
        raise BadParameter("n must be at least 1")
    orbit = _orbits(nm, np.asarray([x], dtype=np.float64), n)[:, 0]
    order = np.argsort(orbit)
    # float subtraction is monotone, so the closest pair of values is
    # adjacent in sorted order
    gaps = np.diff(orbit[order])
    if n > 1 and gaps.min() < tie_epsilon:
        k = int(gaps.argmin())
        i, j = sorted((int(order[k]), int(order[k + 1])))
        raise TieDetected(f"orbit values {i} and {j} within {tie_epsilon} of each other")
    return tuple((np.argsort(order) + 1).tolist())


def _sample_points(cfg: SampleConfig) -> Iterator[np.ndarray]:
    """Start points in chunks of at most _CHUNK: the grid, then the seeded draws."""
    g = cfg.grid_count
    for start in range(0, g, _CHUNK):
        yield np.arange(start + 1, min(start + _CHUNK, g) + 1, dtype=np.float64) / (g + 1)
    # counter-based generator: drawing the stream in pieces cannot change
    # it, so results are independent of chunking
    rng = np.random.Generator(np.random.Philox(cfg.seed))
    for start in range(0, cfg.random_count, _CHUNK):
        yield rng.random(min(_CHUNK, cfg.random_count - start))


def _check_budget(cfg: SampleConfig, width: int) -> None:
    """Raise ResourceLimit, before any allocation, past _SAMPLE_BUDGET values
    or _MAX_ORBIT values in one orbit."""
    points = cfg.grid_count + cfg.random_count
    if points * width > _SAMPLE_BUDGET:
        raise ResourceLimit(f"{points} start points x {width} orbit values = {points * width}, "
                            f"over the sample budget of {_SAMPLE_BUDGET}")
    if width > _MAX_ORBIT:
        raise ResourceLimit(f"orbits of {width} values exceed the limit of {_MAX_ORBIT} "
                            "values per orbit")


def sampled_allowed(nm: NumericMap, n: int, cfg: SampleConfig | None = None) -> PatternSet:
    """Patterns realized by sampled orbits: a lower bound on the allowed set.

    Deterministic for a fixed config; tied orbits are discarded.
    """
    if n < 1:
        raise BadParameter("n must be at least 1")
    cfg = cfg or SampleConfig()
    _check_budget(cfg, n)
    if n > _MAX_CODED:
        found: set[Perm] = set()
        for pts in _sample_points(cfg):
            orders = _unique_rows(_untied_orders(_orbits(nm, pts, n).T, cfg.tie_epsilon))
            found.update(map(tuple, (np.argsort(orders, axis=1) + 1).tolist()))
        return PatternSet(n, tuple(sorted(found)))
    codes = _distinct(np.concatenate([
        _distinct(_rank_codes(_orbits(nm, pts, n), cfg.tie_epsilon)) for pts in _sample_points(cfg)
    ]))
    weights = n ** np.arange(n - 1, -1, -1, dtype=np.int64)[:, None]
    words: list[Perm] = []
    for start in range(0, len(codes), _CHUNK):
        # one row of digits per position, a chunk of codes at a time so
        # that only the words are held whole; zip turns the rows into words
        words += zip(*(codes[start:start + _CHUNK] // weights % n + 1).tolist())
    return PatternSet(n, tuple(words))


def cap_pattern(n: int) -> Perm:
    """(n-1) 1 2 ... (n-2) n: second-largest entry first, rising to the top."""
    if n < 2:
        raise BadParameter("cap pattern needs n >= 2")
    return tuple([n - 1, *range(1, n - 1), n])


def first_missing_cap(
    nm: NumericMap, n_max: int, cfg: SampleConfig | None = None
) -> int | None:
    """Smallest n <= n_max whose cap pattern no sample realizes.

    Empirical only: non-observation at one seed is evidence, not proof,
    that the pattern is forbidden from that length on.

    The three values held per orbit count against the sample budget before
    the scan starts, and every value stepped past them counts as it is
    computed: a map whose orbits keep rising ends in ResourceLimit once
    the scan passes the budget or an orbit passes _MAX_ORBIT values.
    """
    if n_max < 3:
        raise BadParameter("n_max must be at least 3")
    cfg = cfg or SampleConfig()
    _check_budget(cfg, 3)  # x_0, x_{n-2} and x_{n-1}, whatever n_max is
    eps = cfg.tie_epsilon
    seen: set[int] = set()
    stepped = 0  # values computed past the first three of each orbit
    for pts in _sample_points(cfg):
        # cap(n) sorts as x_1 < ... < x_{n-2} < x_0 < x_{n-1}, so an orbit
        # realizes it untied iff each of those steps rises by eps.  One pass
        # steps the orbits, holding x_0, x_{n-2} and x_{n-1}, and keeps only
        # those whose x_1, ..., x_{n-2} still rise: no other can realize a
        # longer cap.
        x0 = pts
        lo = nm.step(x0)
        hi = nm.step(lo)
        for n in range(3, n_max + 1):
            if n not in seen and np.any((x0 - lo >= eps) & (hi - x0 >= eps)):
                seen.add(n)
            rising = hi - lo >= eps
            if n == n_max or not rising.any():
                break
            x0, lo = x0[rising], hi[rising]
            stepped += len(lo)
            if n >= _MAX_ORBIT:
                raise ResourceLimit(f"the cap scan reached orbits of {n + 1} values, over the "
                                    f"limit of {_MAX_ORBIT} values per orbit")
            if stepped > _SAMPLE_BUDGET:
                raise ResourceLimit(f"the cap scan stepped {stepped} orbit values by length "
                                    f"{n + 1}, over the sample budget of {_SAMPLE_BUDGET}")
            hi = nm.step(lo)
        if len(seen) == n_max - 2:
            return None
    return next(n for n in range(3, n_max + 1) if n not in seen)
