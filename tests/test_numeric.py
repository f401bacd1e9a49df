"""Sampled pattern sets for smooth maps.

Sampling gives lower bounds only, so the assertions here are of three
kinds: exact small cases that dense sampling provably saturates,
non-occurrence of specific patterns at a fixed seed, and determinism.
"""

from fractions import Fraction as F

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from patlab import (
    BadParameter,
    NumericMap,
    OutOfDomain,
    PatternSet,
    PwlMap,
    PwlPiece,
    ResourceLimit,
    SampleConfig,
    TieDetected,
    ValidationError,
    cap_pattern,
    first_missing_cap,
    pattern_at,
    sampled_allowed,
    sawtooth,
    tent,
)
from patlab import numeric as numeric_mod

SMALL = SampleConfig(grid_count=20_000, random_count=20_000, seed=1)


def perm_set(strings):
    return {tuple(int(c) for c in s) for s in strings}


class TestNumericMap:
    def test_logistic_range(self):
        with pytest.raises(BadParameter):
            NumericMap.logistic(1.0)
        with pytest.raises(BadParameter):
            NumericMap.logistic(4.5)

    def test_logistic_values(self):
        lm = NumericMap.logistic(4.0)
        assert lm(0.5) == pytest.approx(1.0)
        assert lm(0.8) == pytest.approx(0.64)

    def test_parabola_values(self):
        g = NumericMap.one_minus_x_squared()
        assert g(0.5) == pytest.approx(0.75)
        assert g(1.0) == pytest.approx(0.0)

    def test_pwl_wrapper_tracks_exact_map(self):
        nm = NumericMap.from_pwl(tent())
        for x in (0.0, 0.2, 0.5, 0.8, 1.0):
            expected = 2 * x if x < 0.5 else 2 - 2 * x
            assert nm(x) == pytest.approx(expected)

    def test_step_clamps(self):
        lm = NumericMap.logistic(4.0)
        out = lm.step(np.linspace(0, 1, 1001))
        assert np.all((out >= 0.0) & (out <= 1.0))


class TestPatternAt:
    def test_published_orbit(self):
        assert pattern_at(NumericMap.logistic(4.0), 0.8, 4) == (3, 2, 4, 1)

    def test_parabola_orbit(self):
        # 0.5 -> 0.75 -> 0.4375
        assert pattern_at(NumericMap.one_minus_x_squared(), 0.5, 3) == (2, 3, 1)

    def test_tie_at_fixed_point(self):
        nm = NumericMap.from_pwl(tent())
        with pytest.raises(TieDetected):
            pattern_at(nm, 1 / 3, 3)

    def test_domain_check(self):
        with pytest.raises(OutOfDomain):
            pattern_at(NumericMap.logistic(4.0), 1.5, 3)
        with pytest.raises(BadParameter):
            pattern_at(NumericMap.logistic(4.0), 0.5, 0)


class TestSampleConfig:
    def test_needs_a_sample(self):
        with pytest.raises(BadParameter):
            SampleConfig(grid_count=0, random_count=0)

    def test_negative_counts(self):
        with pytest.raises(BadParameter):
            SampleConfig(grid_count=-1)

    def test_positive_epsilon(self):
        with pytest.raises(BadParameter):
            SampleConfig(tie_epsilon=0.0)

    @pytest.mark.parametrize("eps", [float("inf"), float("nan")])
    def test_finite_epsilon(self, eps):
        with pytest.raises(BadParameter):
            SampleConfig(tie_epsilon=eps)

    def test_nonnegative_seed(self):
        with pytest.raises(BadParameter):
            SampleConfig(seed=-1)
        assert SampleConfig(seed=0).seed == 0


class TestSampledAllowed:
    def test_logistic4_length_three(self):
        got = set(sampled_allowed(NumericMap.logistic(4.0), 3, SMALL))
        assert got == perm_set(["123", "132", "213", "231", "312"])

    def test_parabola_length_three(self):
        got = set(sampled_allowed(NumericMap.one_minus_x_squared(), 3, SMALL))
        assert got == perm_set(["213", "231"])

    def test_logistic2_length_three(self):
        # orbits below the fixed point 1/2 rise; orbits above dip under it, then rise
        got = set(sampled_allowed(NumericMap.logistic(2.0), 3, SMALL))
        assert got == perm_set(["123", "312"])

    def test_length_one_and_validation(self):
        assert set(sampled_allowed(NumericMap.logistic(3.0), 1, SMALL)) == {(1,)}
        with pytest.raises(BadParameter):
            sampled_allowed(NumericMap.logistic(3.0), 0, SMALL)

    def test_deterministic(self):
        cfg = SampleConfig(grid_count=5_000, random_count=5_000, seed=9)
        lm = NumericMap.logistic(3.7)
        assert sampled_allowed(lm, 5, cfg) == sampled_allowed(lm, 5, cfg)

    def test_chunking_cannot_change_the_result(self, monkeypatch):
        lm = NumericMap.logistic(3.9)
        whole = sampled_allowed(lm, 4, SMALL)
        monkeypatch.setattr(numeric_mod, "_CHUNK", 777)
        assert sampled_allowed(lm, 4, SMALL) == whole


class TestSampleBudget:
    """Start points times the orbit values held for each may not exceed
    _SAMPLE_BUDGET, nor one orbit _MAX_ORBIT values; the checks come before
    any orbit is computed."""

    CFG = SampleConfig(grid_count=5, random_count=5, seed=1)

    def test_limit_is_inclusive(self, monkeypatch):
        monkeypatch.setattr(numeric_mod, "_SAMPLE_BUDGET", 40)
        lm = NumericMap.logistic(3.7)
        assert len(sampled_allowed(lm, 4, self.CFG)) > 0
        monkeypatch.setattr(numeric_mod, "_orbits", None)  # fail if the sampler starts
        with pytest.raises(ResourceLimit, match="10 start points x 5 orbit values = 50"):
            sampled_allowed(lm, 5, self.CFG)

    def test_orbit_length_limit(self, monkeypatch):
        monkeypatch.setattr(numeric_mod, "_MAX_ORBIT", 6)
        lm = NumericMap.logistic(3.7)
        one_point = SampleConfig(grid_count=1, random_count=0)
        assert len(sampled_allowed(lm, 6, one_point)) == 1
        monkeypatch.setattr(numeric_mod, "_orbits", None)  # fail if the sampler starts
        with pytest.raises(ResourceLimit, match="orbits of 7 values exceed the limit of 6"):
            sampled_allowed(lm, 7, one_point)

    def test_scan_holds_three_values_per_orbit(self, monkeypatch):
        lm = NumericMap.logistic(3.7)
        monkeypatch.setattr(numeric_mod, "_SAMPLE_BUDGET", 30)
        first_missing_cap(lm, 1_000_000, self.CFG)
        monkeypatch.setattr(numeric_mod, "_SAMPLE_BUDGET", 29)
        monkeypatch.setattr(numeric_mod, "_sample_points", None)  # fail if the scan starts
        with pytest.raises(ResourceLimit, match="over the sample budget of 29"):
            first_missing_cap(lm, 4, self.CFG)


class TestSeededEvidence:
    """Non-occurrence at a fixed seed: evidence, not proof, of forbidden-ness."""

    @pytest.mark.parametrize("r", [2.5, 3.5])
    def test_descending_head_family_never_seen(self, r):
        lm = NumericMap.logistic(r)
        for n in range(5, 8):
            head = (n - 2, *range(1, n - 2), n - 1, n)
            assert head not in sampled_allowed(lm, n, SMALL), (r, n)

    def test_cap_pattern_missing_at_seven(self):
        lm = NumericMap.logistic(3.5)
        assert cap_pattern(7) not in sampled_allowed(lm, 7, SMALL)

    @pytest.mark.parametrize("r", [2.5, 3.5, 4.0])
    def test_monotone_families_do_occur(self, r):
        lm = NumericMap.logistic(r)
        for m in range(2, 7):
            got = sampled_allowed(lm, m, SMALL)
            assert tuple(range(1, m + 1)) in got, (r, m)
            assert (m, *range(1, m)) in got, (r, m)


class TestCapScan:
    def test_cap_pattern_shape(self):
        assert cap_pattern(4) == (3, 1, 2, 4)
        assert cap_pattern(7) == (6, 1, 2, 3, 4, 5, 7)
        with pytest.raises(BadParameter):
            cap_pattern(1)

    def test_scan_is_deterministic_and_bounded(self):
        lm = NumericMap.logistic(3.5)
        first = first_missing_cap(lm, 7, SMALL)
        assert first == first_missing_cap(lm, 7, SMALL)
        assert first is not None and 3 <= first <= 7

    def test_long_scan_stays_small(self):
        # the scan steps orbits one iterate at a time and stops when no
        # orbit can realize a longer cap: n_max sizes no array
        lm = NumericMap.logistic(3.83)
        assert first_missing_cap(lm, 1_000_000, SMALL) == first_missing_cap(lm, 9, SMALL) == 5

    def test_full_logistic_never_misses_small_caps(self):
        assert first_missing_cap(NumericMap.logistic(4.0), 5, SMALL) is None

    # x -> x + (1 - x) / 100: every orbit rises for over 2,000 steps, so a
    # longer scan ends only at the sample budget or the orbit limit
    CREEP = NumericMap.from_pwl(PwlMap((PwlPiece(0, 1, True, True, F(99, 100), F(1, 100)),)))
    TEN = SampleConfig(grid_count=5, random_count=5, seed=1)

    def test_scan_charges_each_value_it_steps(self, monkeypatch):
        monkeypatch.setattr(numeric_mod, "_SAMPLE_BUDGET", 1000)
        # the first chunk is the five grid points: they step five values a
        # length, and the 201st length past the first three passes 1,000
        with pytest.raises(ResourceLimit, match="stepped 1005 orbit values by length 204, "
                                                "over the sample budget of 1000"):
            first_missing_cap(self.CREEP, 5000, self.TEN)

    def test_scan_stops_at_the_orbit_limit(self, monkeypatch):
        monkeypatch.setattr(numeric_mod, "_MAX_ORBIT", 50)
        assert first_missing_cap(self.CREEP, 50, self.TEN) == 3
        with pytest.raises(ResourceLimit, match="reached orbits of 51 values, over the limit of 50"):
            first_missing_cap(self.CREEP, 51, self.TEN)


def start_points(cfg):
    """The sampler's start points, built without the sampler: grid, then Philox draws."""
    g = cfg.grid_count
    grid = [j / (g + 1) for j in range(1, g + 1)]
    draws = np.random.Generator(np.random.Philox(cfg.seed)).random(cfg.random_count)
    return grid + draws.tolist()


def pointwise_patterns(nm, n, cfg):
    """pattern_at over every start point, tied orbits skipped; also the tie count."""
    found, ties = set(), 0
    for x in start_points(cfg):
        try:
            found.add(pattern_at(nm, x, n, cfg.tie_epsilon))
        except TieDetected:
            ties += 1
    return found, ties


class TestPointwiseOracle:
    """The vectorized sampler against pattern_at, one start point at a time."""

    @pytest.mark.parametrize("n", [6, 10, 12, 15, 16])
    def test_tent_on_a_dyadic_grid(self, n):
        # j/1024 reaches the fixed point 0 within eleven steps, so many orbits tie
        cfg = SampleConfig(grid_count=1023, random_count=0)
        expected, ties = pointwise_patterns(NumericMap.from_pwl(tent()), n, cfg)
        assert ties > 0
        assert set(sampled_allowed(NumericMap.from_pwl(tent()), n, cfg)) == expected

    @pytest.mark.parametrize("n", [15, 16])
    def test_tent_dyadic_grid_and_draws(self, n):
        # every grid orbit ties from n = 13 on; the draws carry the patterns,
        # on either side of the longest coded orbit
        cfg = SampleConfig(grid_count=1023, random_count=1500, seed=5)
        expected, ties = pointwise_patterns(NumericMap.from_pwl(tent()), n, cfg)
        assert ties >= 1023 and len(expected) > 100
        assert set(sampled_allowed(NumericMap.from_pwl(tent()), n, cfg)) == expected

    @pytest.mark.parametrize("r, n, eps", [
        (3.99, 14, 1e-12), (4.0, 20, 1e-12), (3.7, 8, 1e-3), (4.0, 15, 1e-12), (4.0, 16, 1e-12),
    ])
    def test_logistic_long_orbits(self, r, n, eps):
        cfg = SampleConfig(grid_count=1500, random_count=1500, seed=4, tie_epsilon=eps)
        expected, ties = pointwise_patterns(NumericMap.logistic(r), n, cfg)
        got = set(sampled_allowed(NumericMap.logistic(r), n, cfg))
        assert len(got) > 50 and ties < 3000
        assert got == expected


def argsort_codes(orbit, eps):
    """Codes of the untied columns of orbit, from a stable argsort of each column."""
    n = orbit.shape[0]
    codes = []
    for column in orbit.T:
        order = np.argsort(column, kind="stable")
        if n > 1 and np.diff(column[order]).min() < eps:
            continue
        codes.append(sum(int(r) * n ** (n - 1 - j) for j, r in enumerate(np.argsort(order))))
    return codes


@st.composite
def orbit_matrices(draw):
    """A float matrix of n <= 15 rows, some column pairs tied exactly or set
    eps apart, one float below or above; and that eps."""
    n = draw(st.integers(1, numeric_mod._MAX_CODED))
    m = draw(st.integers(1, 12))
    # a power of two is often exactly the difference of x and x + eps
    eps = draw(st.sampled_from([1e-12, 2.0**-40, 2.0**-20, 0.01, 0.5]))
    orbit = np.array(draw(st.lists(st.floats(0, 1), min_size=n * m, max_size=n * m))).reshape(n, m)
    for _ in range(draw(st.integers(0, 6)) if n > 1 else 0):
        k = draw(st.integers(0, m - 1))
        i, j = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        near = orbit[i, k] + eps
        orbit[j, k] = draw(st.sampled_from(
            [orbit[i, k], near, np.nextafter(near, -np.inf), np.nextafter(near, np.inf)]
        ))
    return orbit, eps


class TestRankCodes:
    """Orbits of at most _MAX_CODED values are coded without a sort; longer
    ones are argsorted.  n alone picks the path."""

    CFG = SampleConfig(grid_count=300, random_count=300, seed=2)

    def test_bound(self):
        assert numeric_mod._MAX_CODED == 15
        assert 15**15 < 2**63 <= 16**16

    def test_codes_are_rank_words_in_base_n(self):
        # ranks 3 1 2 -> digits 2 0 1 in base 3; the third column ties
        orbit = np.array([[0.3, 0.1, 0.5], [0.1, 0.2, 0.5], [0.2, 0.3, 0.7]])
        assert numeric_mod._rank_codes(orbit, 1e-12).tolist() == [2 * 9 + 0 * 3 + 1, 0 * 9 + 1 * 3 + 2]
        assert numeric_mod._rank_codes(np.array([[0.4, 0.4]]), 1e-12).tolist() == [0, 0]

    @given(orbit_matrices())
    def test_codes_agree_with_argsort_ranks(self, case):
        orbit, eps = case
        assert numeric_mod._rank_codes(orbit, eps).tolist() == argsort_codes(orbit, eps)

    def test_n_alone_picks_the_path(self, monkeypatch):
        lm = NumericMap.logistic(4.0)
        monkeypatch.setattr(numeric_mod, "_untied_orders", None)  # fail if the sort path runs
        for n in (1, 2, 15):
            assert len(sampled_allowed(lm, n, self.CFG)) > 0
        with pytest.raises(TypeError):
            sampled_allowed(lm, 16, self.CFG)
        monkeypatch.undo()
        monkeypatch.setattr(numeric_mod, "_rank_codes", None)  # fail if the code path runs
        for n in (16, 20):
            assert len(sampled_allowed(lm, n, self.CFG)) > 0
        with pytest.raises(TypeError):
            sampled_allowed(lm, 15, self.CFG)

    @pytest.mark.parametrize("n", [2, 5, 15, 16, 20])
    def test_every_orbit_tied(self, n):
        # no two values of [0, 1] are 2 apart: nothing to concatenate or decode
        cfg = SampleConfig(grid_count=300, random_count=300, tie_epsilon=2.0)
        assert sampled_allowed(NumericMap.logistic(3.7), n, cfg) == PatternSet(n, ())

    def test_one_value_never_ties(self):
        cfg = SampleConfig(grid_count=300, random_count=300, tie_epsilon=2.0)
        assert sampled_allowed(NumericMap.logistic(3.7), 1, cfg) == PatternSet(1, ((1,),))


def cap_scan_oracle(nm, n_max, cfg):
    return min(
        (n for n in range(3, n_max + 1) if cap_pattern(n) not in sampled_allowed(nm, n, cfg)),
        default=None,
    )


CAP_MAPS = {
    "logistic:3.5": NumericMap.logistic(3.5),
    "logistic:3.83": NumericMap.logistic(3.83),
    "logistic:3.99": NumericMap.logistic(3.99),
    "logistic:4": NumericMap.logistic(4.0),
    "one_minus_x_squared": NumericMap.one_minus_x_squared(),
    "tent": NumericMap.from_pwl(tent()),
    "sawtooth:2": NumericMap.from_pwl(sawtooth(2)),
    "sawtooth:3": NumericMap.from_pwl(sawtooth(3)),
}


class TestCapScanOracle:
    """first_missing_cap's single orbit pass against one sampled_allowed per length."""

    @pytest.mark.parametrize("n_max", [6, 9])
    @pytest.mark.parametrize("seed, eps", [(2, 1e-12), (7, 1e-12), (2, 0.06)])
    @pytest.mark.parametrize("name", sorted(CAP_MAPS))
    def test_matches_per_length_sampling(self, name, seed, eps, n_max, monkeypatch):
        nm = CAP_MAPS[name]
        cfg = SampleConfig(grid_count=2000, random_count=1000, seed=seed, tie_epsilon=eps)
        expected = cap_scan_oracle(nm, n_max, cfg)
        assert first_missing_cap(nm, n_max, cfg) == expected
        # 2000 is no multiple of 777: the last grid chunk is a short one
        monkeypatch.setattr(numeric_mod, "_CHUNK", 777)
        assert first_missing_cap(nm, n_max, cfg) == expected
        assert cap_scan_oracle(nm, n_max, cfg) == expected

    def test_scan_values_vary(self):
        # the oracle comparison above is only worth something if answers differ
        cfg = SampleConfig(grid_count=2000, random_count=1000, seed=2)
        values = {first_missing_cap(nm, n_max, cfg) for nm in CAP_MAPS.values() for n_max in (6, 9)}
        assert None in values and len(values) >= 5
