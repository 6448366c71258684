import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sp_stats

from scalefree.errors import ParameterError
from scalefree.synth import (KINDS, GeneratorSpec, _fgn_root, _omega_root,
                             gen_fbm, gen_fgn, gen_mrw, generate,
                             theoretical_zeta)

from oracles import generated_samples


def fgn_rho(hurst, k):
    return 0.5 * (abs(k + 1) ** (2 * hurst) - 2 * abs(k) ** (2 * hurst)
                  + abs(k - 1) ** (2 * hurst))


class TestSpecValidation:
    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            GeneratorSpec("cascade", 0.5, 64, 0)

    def test_hurst_range(self):
        with pytest.raises(ParameterError):
            GeneratorSpec("fgn", 1.0, 64, 0)

    def test_fgn_rejects_lambda2(self):
        with pytest.raises(ParameterError):
            GeneratorSpec("fgn", 0.5, 64, 0, lambda2=0.1)

    def test_mrw_lambda2_cap(self):
        with pytest.raises(ParameterError):
            GeneratorSpec("mrw", 0.5, 64, 0, lambda2=0.7)

    def test_power_of_two_required(self):
        with pytest.raises(ParameterError, match="power of two"):
            gen_fgn(GeneratorSpec("fgn", 0.5, 1000, 0))

    def test_integral_scale_bound(self):
        with pytest.raises(ParameterError):
            GeneratorSpec("mrw", 0.5, 64, 0, lambda2=0.05, integral_scale=128)


class TestFgn:
    def test_h_half_is_white(self):
        x = gen_fgn(GeneratorSpec("fgn", 0.5, 2**14, seed=0)).samples
        n = x.size
        lag1 = float(np.mean(x[1:] * x[:-1]))
        assert abs(lag1) <= 3.0 / math.sqrt(n)

    def test_lag1_autocorrelation_h07(self):
        # rho(1) = (2^1.4 - 2)/2 ~ 0.3195
        target = fgn_rho(0.7, 1)
        vals = [float(np.mean(
            (x := gen_fgn(GeneratorSpec("fgn", 0.7, 2**16, seed=s)).samples)[1:]
            * x[:-1])) for s in range(5)]
        assert abs(np.mean(vals) - target) <= 0.02

    def test_unit_variance(self):
        x = gen_fgn(GeneratorSpec("fgn", 0.7, 2**14, seed=3)).samples
        assert abs(float(x.var()) - 1.0) <= 0.05

    def test_seed_determinism(self):
        spec = GeneratorSpec("fgn", 0.3, 2**10, seed=99)
        assert np.array_equal(gen_fgn(spec).samples, gen_fgn(spec).samples)

    def test_distinct_seeds_differ(self):
        a = gen_fgn(GeneratorSpec("fgn", 0.3, 2**10, seed=1)).samples
        b = gen_fgn(GeneratorSpec("fgn", 0.3, 2**10, seed=2)).samples
        assert not np.array_equal(a, b)

    def test_gaussianity_jarque_bera(self):
        # 1%-level normality check should pass on at least 95 of 100 seeds
        passed = 0
        for seed in range(100):
            x = gen_fgn(GeneratorSpec("fgn", 0.7, 2**12, seed=seed)).samples
            if sp_stats.jarque_bera(x).pvalue > 0.01:
                passed += 1
        assert passed >= 95

    def test_covariance_matches_target(self):
        # ensemble covariance at several lags against the closed form
        hurst = 0.8
        lags = [1, 2, 5, 10]
        acc = np.zeros(len(lags))
        n_seeds = 40
        for seed in range(n_seeds):
            x = gen_fgn(GeneratorSpec("fgn", hurst, 2**13, seed=seed)).samples
            for i, lag in enumerate(lags):
                acc[i] += np.mean(x[lag:] * x[:-lag])
        acc /= n_seeds
        for i, lag in enumerate(lags):
            assert abs(acc[i] - fgn_rho(hurst, lag)) <= 0.03


class TestFbm:
    def test_increments_reproduce_fgn(self):
        fgn = gen_fgn(GeneratorSpec("fgn", 0.6, 2**12, seed=5)).samples
        fbm = gen_fbm(GeneratorSpec("fbm", 0.6, 2**12, seed=5)).samples
        recovered = np.diff(fbm, prepend=0.0)
        assert np.allclose(recovered, fgn, rtol=0, atol=1e-9 * np.abs(fbm).max())

    def test_variance_growth_slope(self):
        hurst = 0.7
        dyadic = 2 ** np.arange(3, 9)
        acc = np.zeros(len(dyadic))
        n_seeds = 30
        for seed in range(n_seeds):
            x = gen_fbm(GeneratorSpec("fbm", hurst, 2**13, seed=seed)).samples
            for i, lag in enumerate(dyadic):
                acc[i] += np.mean((x[lag:] - x[:-lag]) ** 2)
        slope = np.polyfit(np.log2(dyadic), np.log2(acc / n_seeds), 1)[0]
        assert abs(slope - 2 * hurst) <= 0.15

    def test_h_half_is_random_walk(self):
        n = 2**14
        finals = [gen_fbm(GeneratorSpec("fbm", 0.5, n, seed=s)).samples[-1]
                  for s in range(60)]
        var = float(np.var(finals))
        assert abs(var - n) <= 0.25 * n


class TestMrw:
    def test_lambda2_zero_degenerates_to_fbm(self):
        walk = gen_mrw(GeneratorSpec("mrw", 0.6, 2**12, seed=9, lambda2=0.0))
        fbm = gen_fbm(GeneratorSpec("fbm", 0.6, 2**12, seed=9))
        assert np.array_equal(walk.samples, fbm.samples)

    def test_lambda2_zero_increments_equal_fgn(self):
        walk = gen_mrw(GeneratorSpec("mrw", 0.6, 2**12, seed=9, lambda2=0.0))
        fgn = gen_fgn(GeneratorSpec("fgn", 0.6, 2**12, seed=9)).samples
        inc = np.diff(walk.samples, prepend=0.0)
        assert np.allclose(inc, fgn, rtol=0, atol=1e-9 * np.abs(walk.samples).max())

    def test_increment_stationarity(self):
        # first vs second half moments agree within 3 standard errors
        n = 2**14
        mean_gap = []
        var_gap = []
        for seed in range(30):
            inc = np.diff(gen_mrw(GeneratorSpec(
                "mrw", 0.5, n, seed=seed, lambda2=0.05)).samples, prepend=0.0)
            a, b = inc[: n // 2], inc[n // 2:]
            mean_gap.append(a.mean() - b.mean())
            var_gap.append(a.var() - b.var())
        for gaps in (mean_gap, var_gap):
            gaps = np.asarray(gaps)
            se = gaps.std(ddof=1) / math.sqrt(gaps.size)
            assert abs(gaps.mean()) <= 3.0 * se + 1e-12

    def test_excess_kurtosis_positive(self):
        kurts = []
        for seed in range(30):
            inc = np.diff(gen_mrw(GeneratorSpec(
                "mrw", 0.5, 2**13, seed=seed, lambda2=0.03)).samples, prepend=0.0)
            kurts.append(sp_stats.kurtosis(inc, fisher=True))
        assert np.mean(kurts) > 0.0

    def test_seed_determinism(self):
        spec = GeneratorSpec("mrw", 0.5, 2**11, seed=4, lambda2=0.05)
        assert np.array_equal(gen_mrw(spec).samples, gen_mrw(spec).samples)

    def test_generate_dispatch(self):
        spec = GeneratorSpec("mrw", 0.5, 2**10, seed=4, lambda2=0.05)
        assert np.array_equal(generate(spec).samples, gen_mrw(spec).samples)


class TestMemoisedSpectra:
    @given(kind=st.sampled_from(KINDS), hurst=st.floats(0.01, 0.99),
           log_n=st.integers(1, 12), seed=st.integers(0, 2**63),
           lambda2=st.floats(0.0, 0.5), scale_fraction=st.floats(0.0, 1.0),
           cleared=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_generators_equal_one_pass_oracle(self, kind, hurst, log_n, seed,
                                              lambda2, scale_fraction,
                                              cleared):
        """Memoised spectra, on a hit and after cache_clear, give the
        samples of spectra computed afresh bit for bit."""
        n = 2**log_n
        mrw = {"lambda2": lambda2,
               "integral_scale": max(2, round(scale_fraction * n))}
        spec = GeneratorSpec(kind, hurst, n, seed=seed,
                             **(mrw if kind == "mrw" else {}))
        if cleared:
            _fgn_root.cache_clear()
            _omega_root.cache_clear()
        try:
            expected = generated_samples(spec)
        except AssertionError:  # clipped energy above tolerance
            with pytest.raises(AssertionError):
                generate(spec)
            return
        for _ in range(2):
            assert generate(spec).samples.tobytes() == expected.tobytes()

    def test_memoised_roots_are_read_only(self):
        for memo, args in ((_fgn_root, (0.7, 64)),
                           (_omega_root, (0.05, 16, 64))):
            root = memo(*args)
            assert memo(*args) is root
            with pytest.raises(ValueError):
                root[0] = 0.0


class TestTheoreticalZeta:
    def test_fbm_linear(self):
        spec = GeneratorSpec("fbm", 0.7, 2**10, seed=0)
        assert theoretical_zeta(spec, 2.0) == pytest.approx(1.4)

    def test_zeta_zero_is_zero(self):
        for spec in (GeneratorSpec("fgn", 0.3, 2**10, seed=0),
                     GeneratorSpec("mrw", 0.5, 2**10, seed=0, lambda2=0.05)):
            assert theoretical_zeta(spec, 0.0) == 0.0

    def test_mrw_concavity_gap_equals_c2(self):
        spec = GeneratorSpec("mrw", 0.5, 2**10, seed=0, lambda2=0.05)
        gap = theoretical_zeta(spec, 2.0) - 2.0 * theoretical_zeta(spec, 1.0)
        assert gap == pytest.approx(-0.05)

    def test_moment_range_enforced(self):
        spec = GeneratorSpec("mrw", 0.5, 2**10, seed=0, lambda2=0.5)
        with pytest.raises(ParameterError):
            theoretical_zeta(spec, 5.0)
        with pytest.raises(ParameterError):
            theoretical_zeta(GeneratorSpec("fgn", 0.5, 2**10, seed=0), -1.5)

    def test_mrw_strictly_concave(self):
        spec = GeneratorSpec("mrw", 0.5, 2**10, seed=0, lambda2=0.08)
        qs = np.array([-0.9, -0.5, 0.5, 1.0, 2.0, 3.0])
        zs = np.array([theoretical_zeta(spec, q) for q in qs])
        first = np.diff(zs) / np.diff(qs)
        second = np.diff(first) / (qs[2:] - qs[:-2])
        assert np.all(second < 0)
