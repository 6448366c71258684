import math
import random
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import kstat

from scalefree.errors import (DegenerateInputError, ParameterError,
                              ScaleRangeError)
from scalefree.leaders_mf import (DEFAULT_Q_GRID, _k_statistics, _moments,
                                  compute_leaders, global_regularity,
                                  legendre_spectrum, log_cumulants,
                                  multifractal_estimate, select_gamma)
from scalefree.scaling import fit_loglog
from scalefree.synth import GeneratorSpec, gen_fbm, gen_fgn, gen_mrw
from scalefree.wavelet import Signal, WaveletPyramid, build_wavelet, dwt

from oracles import assert_leaders_match_oracle as assert_matches_oracle
from oracles import (brute_force_leaders, legendre_by_outer_product,
                     valid_leaders_before)


def make_pyramid(coeff_arrays, wavelet, source_length=None):
    """Fully valid synthetic pyramid for closed-form leader tests."""
    arrays = tuple(np.asarray(a, dtype=np.float64) for a in coeff_arrays)
    n = source_length if source_length else 2 * arrays[0].size
    return WaveletPyramid(
        coeffs=arrays,
        valid_start=tuple(0 for _ in arrays),
        valid_stop=tuple(a.size for a in arrays),
        source_length=n,
        sampling_rate=1.0,
        wavelet=wavelet,
        source_scale=max(float(np.max(np.abs(a))) for a in arrays) or 1.0,
    )


class TestGlobalRegularity:
    def test_exact_sup_sequence(self, db3):
        # craft levels whose sup is exactly 2^(0.3 j)
        arrays = []
        rng = np.random.default_rng(0)
        for j in range(1, 7):
            n_j = 2**10 // 2**j
            a = rng.uniform(0.0, 0.5, n_j) * 2.0 ** (0.3 * j)
            a[n_j // 2] = 2.0 ** (0.3 * j)
            arrays.append(a)
        p = make_pyramid(arrays, db3, source_length=2**10)
        assert global_regularity(p, 1, 6) == pytest.approx(0.3, abs=1e-12)

    def test_fbm_regularity_near_h(self, db3):
        vals = [global_regularity(
            dwt(gen_fbm(GeneratorSpec("fbm", 0.7, 2**13, seed=s)), db3, 6), 3, 6)
            for s in range(20)]
        assert abs(np.mean(vals) - 0.7) <= 0.1

    def test_fgn_regularity_negative(self, db3):
        vals = [global_regularity(
            dwt(gen_fgn(GeneratorSpec("fgn", 0.7, 2**13, seed=s)), db3, 6), 3, 6)
            for s in range(20)]
        assert np.mean(vals) < 0.0

    def test_degenerate_all_zero(self, db3):
        p = dwt(Signal(np.full(1024, 2.0), 1.0, "const"), db3, 5)
        with pytest.raises(DegenerateInputError):
            global_regularity(p, 2, 5)


class TestSelectGamma:
    def test_positive_regularity_needs_no_weight(self):
        assert select_gamma(0.5, mode="auto") == 0.0

    def test_negative_regularity_formula(self):
        assert select_gamma(-0.3, mode="auto", eps=0.1) == pytest.approx(0.4)

    def test_fixed_mode(self):
        assert select_gamma(-0.9, mode="fixed", value=2.0) == 2.0

    def test_fixed_negative_rejected(self):
        with pytest.raises(ParameterError):
            select_gamma(0.0, mode="fixed", value=-1.0)

    def test_auto_requires_positive_eps(self):
        with pytest.raises(ParameterError):
            select_gamma(-0.1, mode="auto", eps=0.0)

    def test_non_finite_values_rejected(self):
        cases = [
            ({"mode": "fixed", "value": math.nan},
             "value: fixed gamma value must be >= 0 and finite, got nan"),
            ({"mode": "fixed", "value": math.inf},
             "value: fixed gamma value must be >= 0 and finite, got inf"),
            ({"mode": "auto", "eps": math.inf},
             "eps: inf must be > 0 and finite in auto mode"),
        ]
        for kwargs, message in cases:
            with pytest.raises(ParameterError) as exc:
                select_gamma(-0.3, **kwargs)
            assert str(exc.value) == message

    @given(st.floats(-5, 5, allow_nan=False), st.floats(0.01, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_auto_mode_lifts_regularity_above_zero(self, h_min, eps):
        gamma = select_gamma(h_min, mode="auto", eps=eps)
        assert gamma >= 0.0
        # the weighted analysis always sees strictly positive regularity
        assert h_min + gamma > 0.0 or (h_min > 0 and gamma == 0.0)


class TestComputeLeaders:
    def test_single_nonzero_coefficient(self, haar):
        n = 256
        k0 = 100
        arrays = [np.zeros(n // 2**j) for j in range(1, 6)]
        arrays[0][k0] = 1.0
        p = make_pyramid(arrays, haar, source_length=n)
        leaders = compute_leaders(p, 0.0)
        for j in range(1, leaders.max_octave + 1):
            level = leaders.level(j)
            start = leaders.valid_start[j - 1]
            stop = leaders.valid_stop[j - 1]
            for k in range(start, stop):
                covered = ((k - 1) * 2**j <= k0 * 2 and
                           (k0 + 1) * 2 <= (k + 2) * 2**j)
                if covered:
                    assert level[k] == 1.0
                else:
                    assert level[k] == 0.0  # zero leader, excluded from stats
            valid = leaders.valid_values(j)
            assert np.all(valid == 1.0)
        assert_matches_oracle(p, 0.0)

    def test_all_equal_magnitudes(self, haar):
        m = 0.37
        arrays = [np.full(128 // 2**j, m) * (-1.0) ** j for j in range(1, 5)]
        p = make_pyramid(arrays, haar, source_length=128)
        leaders = compute_leaders(p, 0.0)
        for j in range(1, leaders.max_octave + 1):
            assert np.all(leaders.valid_values(j) == m)

    @pytest.mark.parametrize("gamma", [0.0, 0.5, 2.0])
    def test_brute_force_equivalence_random(self, gamma):
        rng = np.random.default_rng(hash(gamma) % 2**31)
        for trial in range(20):
            n = int(rng.integers(64, 513))
            n_vanishing = int(rng.integers(1, 4))
            w = build_wavelet(n_vanishing)
            x = rng.standard_normal(n)
            max_j = min(6, int(math.floor(math.log2(n / w.support_length))))
            if max_j < 2:
                continue
            p = dwt(Signal(x, 1.0, f"trial{trial}"), w, max_j)
            assert_matches_oracle(p, gamma)
        # octaves of 1, 2 and 3 coefficients, of whole-valid arrays and of
        # dwt; an array of 2 or fewer has no leader with both neighbours
        short = [make_pyramid([rng.standard_normal(m) for m in sizes],
                              build_wavelet(1))
                 for sizes in ([2, 1], [3, 1], [4, 2, 1], [6, 3, 1])]
        short += [dwt(Signal(rng.standard_normal(n), 1.0), build_wavelet(1), 2)
                  for n in (8, 12, 16, 24)]
        for p in short:
            if any(ok.any() for _, ok in brute_force_leaders(p, gamma)):
                assert_matches_oracle(p, gamma)
            else:
                with pytest.raises(ScaleRangeError, match="no octave"):
                    compute_leaders(p, gamma)

    def test_monotone_nesting_gamma0(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.6, 2**12, seed=3))
        leaders = compute_leaders(dwt(sig, db3, 6), 0.0)
        for j in range(1, leaders.max_octave):
            parent = leaders.level(j + 1)
            child = leaders.level(j)
            for k in range(leaders.valid_start[j], leaders.valid_stop[j]):
                for c in (2 * k, 2 * k + 1):
                    if (leaders.valid_start[j - 1] <= c
                            < leaders.valid_stop[j - 1]):
                        assert parent[k] >= child[c]

    def test_valid_values_filtered_once_and_read_only(self, db3):
        """Each octave's valid, positive leaders are filtered once per
        pyramid, equal the per-call filter and cannot be written; an octave
        with no zero leader is the slice of its leaders itself, and one
        with only zero leaders is empty and fails the moments alone."""
        x = gen_fgn(GeneratorSpec("fgn", 0.6, 2048, seed=4)).samples
        x[512:1024] = 0.0  # leaders inside a silent stretch are exactly zero
        pyramid = dwt(Signal(x, 1.0), db3, 7)
        leaders = compute_leaders(pyramid, 0.0)
        views = 0
        for j in range(1, leaders.max_octave + 1):
            valid = leaders.valid_values(j)
            assert leaders.valid_values(j) is valid
            assert valid.tobytes() == valid_leaders_before(leaders, j).tobytes()
            assert (valid > 0.0).all()
            with pytest.raises(ValueError, match="read-only"):
                valid[0] = 1.0
            span = leaders.valid_stop[j - 1] - leaders.valid_start[j - 1]
            views += np.shares_memory(valid, leaders.level(j))
            assert np.shares_memory(valid, leaders.level(j)) == (valid.size
                                                                 == span)
        assert 0 < views < leaders.max_octave  # both kinds are seen
        silent = compute_leaders(replace(pyramid, coeffs=(
            np.zeros_like(pyramid.coeffs[0]),) + pyramid.coeffs[1:]), 0.0)
        empty = silent.valid_values(1)
        assert empty.size == 0 and not empty.flags.writeable
        for j in range(2, silent.max_octave + 1):
            assert (silent.valid_values(j).tobytes()
                    == valid_leaders_before(silent, j).tobytes())
        with pytest.raises(ScaleRangeError,
                           match="^octave 1 has no valid leaders$"):
            _moments(silent, DEFAULT_Q_GRID, 3, 6)

    def test_negative_gamma_rejected(self, db3):
        """A negative or non-finite gamma raises naming it, in place of
        all-inf leaders (inf) or none valid (nan)."""
        p = dwt(gen_fgn(GeneratorSpec("fgn", 0.5, 512, seed=0)), db3, 4)
        for gamma in (-0.5, -1.0, math.nan, math.inf):
            with pytest.raises(ParameterError, match=(
                    f"gamma={gamma} must be >= 0 and finite")):
                compute_leaders(p, gamma)

    def test_needs_two_octaves(self, db3):
        p = dwt(gen_fgn(GeneratorSpec("fgn", 0.5, 512, seed=0)), db3, 4)
        single = WaveletPyramid(
            coeffs=p.coeffs[:1], valid_start=p.valid_start[:1],
            valid_stop=p.valid_stop[:1], source_length=p.source_length,
            sampling_rate=1.0, wavelet=p.wavelet, source_scale=p.source_scale)
        with pytest.raises(ParameterError, match="2 octaves"):
            compute_leaders(single, 0.0)


def moments(leaders, q_grid):
    """S(j, q) of every octave of leaders, row j - 1 for octave j."""
    return _moments(leaders, q_grid, 1, leaders.max_octave)[1]


def estimate_zeta(pyramid, j1, j2, gamma, q_grid=(-1.0, 1.0, 2.0)):
    """The (q, zeta_hat) rows that analyze_series computes, with gamma
    fixed and the series' own exponents (no reference shift)."""
    return multifractal_estimate(pyramid, j1, j2, q_grid=q_grid,
                                 gamma_value=gamma).zeta


class TestStructureFunctions:
    def test_constant_leaders_power_law(self, haar):
        m = 0.37
        arrays = [np.full(256 // 2**j, m) for j in range(1, 5)]
        p = make_pyramid(arrays, haar, source_length=256)
        for row in moments(compute_leaders(p, 0.0), [-1.0, 0.0, 1.0, 2.0]):
            assert row[0] == pytest.approx(1 / m)
            assert row[1] == 1.0  # q = 0 exactly
            assert row[2] == pytest.approx(m)
            assert row[3] == pytest.approx(m * m)

    def test_q_zero_is_exactly_one(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**12, seed=1))
        assert np.all(moments(compute_leaders(dwt(sig, db3, 6), 2.0), [0.0])
                      == 1.0)

    def test_empty_q_grid(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**12, seed=1))
        with pytest.raises(ParameterError):
            moments(compute_leaders(dwt(sig, db3, 6), 2.0), [])

    def test_fbm_slope_qh(self, db3):
        # leaders of a motion need no weighting; slope of log2 S is ~ qH
        acc = np.zeros(2)
        seeds = 20
        for s in range(seeds):
            sig = gen_fbm(GeneratorSpec("fbm", 0.7, 2**13, seed=s))
            values = moments(compute_leaders(dwt(sig, db3, 6), 0.0), [1.0, 2.0])
            for i in range(2):
                acc[i] += fit_loglog(values[2:6, i], 3, 6).slope
        acc /= seeds
        assert abs(acc[0] - 0.7) <= 0.1
        assert abs(acc[1] - 1.4) <= 0.15

    def test_log_s_convex_in_q_per_octave(self, db3):
        # moments of a positive variable: log S(j, q) convex in q
        sig = gen_mrw(GeneratorSpec("mrw", 0.5, 2**13, seed=6, lambda2=0.05))
        q = np.array(DEFAULT_Q_GRID)
        for row in np.log(moments(compute_leaders(dwt(sig, db3, 6), 0.5), q)):
            chords = np.diff(row) / np.diff(q)
            assert np.all(np.diff(chords) >= -1e-9)


class TestZetaExponents:
    def test_fbm_zeta2(self, db3):
        vals = []
        for s in range(20):
            sig = gen_fbm(GeneratorSpec("fbm", 0.7, 2**14, seed=s))
            vals.append(estimate_zeta(dwt(sig, db3, 7), 3, 6, 0.0)[2, 1])
        assert abs(np.mean(vals) - 1.4) <= 0.1

    def test_mrw_strictly_concave_gap(self, db3):
        gaps = []
        for s in range(15):
            sig = gen_mrw(GeneratorSpec("mrw", 0.5, 2**14, seed=s, lambda2=0.08))
            z = estimate_zeta(dwt(sig, db3, 8), 3, 8, 0.0)
            gaps.append(z[2, 1] - 2 * z[1, 1])
        # concavity gap approximates c2 = -lambda2, clearly below zero
        assert np.mean(gaps) < -0.02

    def test_gamma_consistency_on_fbm(self, db3):
        diffs = []
        for s in range(15):
            p = dwt(gen_fbm(GeneratorSpec("fbm", 0.7, 2**13, seed=s)), db3, 6)
            z = {gamma: estimate_zeta(p, 3, 6, gamma)[:, 1]
                 for gamma in (0.5, 1.0)}
            diffs.append(np.abs(z[0.5] - z[1.0]).max())
        assert np.mean(diffs) <= 0.03


class TestLogCumulants:
    def test_fgn_cumulants_via_increment_referencing(self, db3):
        # stationary noise: exponents quoted for the cumulative process
        c1s, c2s = [], []
        for s in range(25):
            p = dwt(gen_fgn(GeneratorSpec("fgn", 0.7, 2**13, seed=s)), db3, 6)
            est = multifractal_estimate(p, 3, 6, reference_shift=1)
            c1s.append(est.c1)
            c2s.append(est.c2)
        assert abs(np.mean(c1s) - 0.7) <= 0.05
        assert abs(np.mean(c2s)) <= 0.03

    def test_mrw_c2_recovers_minus_lambda2(self, db3):
        c2s = []
        for s in range(25):
            p = dwt(gen_mrw(GeneratorSpec("mrw", 0.5, 2**15, seed=s,
                                          lambda2=0.05)), db3, 9)
            c_p, _ = log_cumulants(compute_leaders(p, 2.0), 3, 9)
            c2s.append(c_p[1])
        assert abs(np.mean(c2s) + 0.05) <= 0.02

    def test_gamma_invariance_of_corrected_estimates(self, db3):
        d1, d2 = [], []
        for s in range(15):
            p = dwt(gen_fbm(GeneratorSpec("fbm", 0.7, 2**13, seed=s)), db3, 6)
            c_by_gamma = {}
            for gamma in (1.0, 2.0):
                c_p, _ = log_cumulants(compute_leaders(p, gamma), 3, 6)
                c_by_gamma[gamma] = c_p
            d1.append(c_by_gamma[1.0][0] - c_by_gamma[2.0][0])
            d2.append(c_by_gamma[1.0][1] - c_by_gamma[2.0][1])
        assert abs(np.mean(d1)) <= 0.03
        assert abs(np.mean(d2)) <= 0.01

    def test_regression_matches_polyfit(self, db3):
        # c_p is the OLS slope of the octave k-statistics of ln L on j ln 2
        sig = gen_mrw(GeneratorSpec("mrw", 0.6, 2**13, seed=3, lambda2=0.04))
        leaders = compute_leaders(dwt(sig, db3, 7), 2.0)
        c_p, diag = log_cumulants(leaders, 3, 7)
        assert c_p.shape == diag["r_squared"].shape == (2,)
        x = np.arange(3, 8) * math.log(2.0)
        for p in (1, 2):
            y = np.array([kstat(np.log(leaders.valid_values(j)), p)
                          for j in range(3, 8)])
            slope, intercept = np.polyfit(x, y, 1)
            ss_res = np.sum((y - slope * x - intercept) ** 2)
            r2 = 1.0 - ss_res / np.sum((y - y.mean()) ** 2)
            if p == 1:
                slope -= leaders.gamma
            assert c_p[p - 1] == pytest.approx(slope, rel=1e-12, abs=1e-12)
            assert diag["r_squared"][p - 1] == pytest.approx(r2, rel=1e-12)

    @given(st.integers(8, 4096), st.integers(0, 2**32 - 1),
           st.floats(1e-3, 1e3), st.floats(-100.0, 100.0))
    @settings(max_examples=200, deadline=None)
    def test_k_statistics_equal_scipy_kstat(self, n, seed, scale, offset):
        # log-leader-like sample: ln of a 3-neighbourhood sup of |N(0, 1)|
        rng = np.random.default_rng(seed)
        sups = np.abs(rng.standard_normal((3, n))).max(axis=0)
        x = offset + scale * np.log(sups)
        k1, k2 = _k_statistics(x)
        assert k1 == kstat(x, 1)
        assert k2 == kstat(x, 2)

    def test_thin_octave_proposes_smaller_j2(self, db3):
        p = dwt(gen_fgn(GeneratorSpec("fgn", 0.5, 512, seed=0)), db3, 6)
        leaders = compute_leaders(p, 2.0)
        with pytest.raises(ScaleRangeError, match="workable j2"):
            log_cumulants(leaders, 2, leaders.max_octave)

    def test_amplitude_invariance(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**12, seed=7))
        big = Signal(123.0 * sig.samples, 1.0, "big")
        out = {}
        for name, s in (("unit", sig), ("big", big)):
            pyramid = dwt(s, db3, 6)
            c_p, _ = log_cumulants(compute_leaders(pyramid, 2.0), 2, 6)
            out[name] = (c_p, estimate_zeta(pyramid, 2, 6, 2.0))
        # c2 and all zeta slopes are scale-free
        assert out["big"][0][1] == pytest.approx(out["unit"][0][1], abs=1e-10)
        assert np.allclose(out["big"][1][:, 1], out["unit"][1][:, 1], atol=1e-9)


class TestSpectra:
    def test_legendre_exact_linear(self):
        pairs = np.array([[q, 0.7 * q] for q in np.linspace(-5, 5, 21)])
        dh = legendre_spectrum(pairs)
        peak = dh[np.argmax(dh[:, 1])]
        assert abs(peak[0] - 0.7) <= 2e-3
        assert abs(peak[1] - 1.0) <= 1e-9

    def test_legendre_exact_parabola(self):
        q = np.linspace(-5, 5, 101)
        pairs = np.column_stack([q, 0.75 * q - 0.035 * q * q])
        dh = legendre_spectrum(pairs)
        lo, hi = 0.75 - 0.35, 0.75 + 0.35  # attainable slope range
        inner = (dh[:, 0] >= lo + 1e-9) & (dh[:, 0] <= hi - 1e-9)
        closed_form = 1 - (dh[inner, 0] - 0.75) ** 2 / 0.14
        assert np.max(np.abs(dh[inner, 1] - closed_form)) <= 1e-3

    def test_legendre_needs_two_finite_distinct_q(self):
        for q in ([2.0], [math.nan, 1.0, 2.0], [1.0, 1.0, 2.0],
                  [-math.inf, 1.0]):
            pairs = np.column_stack([q, np.multiply(0.6, q)])
            with pytest.raises(ParameterError) as exc:
                legendre_spectrum(pairs)
            assert str(exc.value) == (
                f"q_grid: {q} must hold >= 2 finite, distinct values")

    def test_legendre_names_first_non_finite_zeta(self):
        """A NaN or infinite zeta(q) raises naming the smallest such q, in
        place of a D(h) with no rows; q = -5 and q = 5 are the grid's ends,
        where one slope alone is not finite."""
        q = np.array([-5.0, -1.0, 1.0, 2.0, 5.0])
        for bad, named in (({4: math.nan}, "zeta(5) = nan"),
                           ({0: math.inf}, "zeta(-5) = inf"),
                           ({2: -math.inf}, "zeta(1) = -inf"),
                           ({3: math.nan, 4: math.inf}, "zeta(2) = nan")):
            zeta = 0.7 * q
            zeta[list(bad)] = list(bad.values())
            with pytest.raises(ParameterError) as exc:
                legendre_spectrum(np.column_stack([q, zeta])[::-1])
            assert str(exc.value) == (
                f"{named} is not finite; D(h) needs finite exponents")

    @pytest.mark.parametrize("tiny", [1e-310, 5e-324])
    def test_legendre_names_q_pair_with_non_finite_slope(self, tiny):
        """Finite zetas whose slope between two neighbouring q overflows
        (q closer than about 1e-307, which the config accepts) raise naming
        that pair, with no RuntimeWarning, in place of a D(h) on a
        non-finite h grid."""
        q = np.array([-1.0, 0.0, tiny, 1.0, 2.0])
        zeta = np.array([-1.2, 0.0, 0.5, 0.7, 1.2])
        with pytest.raises(ParameterError) as exc:
            legendre_spectrum(np.column_stack([q, zeta]))
        assert str(exc.value) == (
            f"q_grid: the slope of zeta between q = 0.0 and q = {tiny!r} is "
            "inf; D(h) needs finite slopes, so q values this close cannot "
            "be used")

    def test_legendre_names_q_pair_whose_table_overflows(self):
        """Finite slopes so large that 1 + q h - zeta(q) overflows raise
        naming the pair with the largest slope, with no RuntimeWarning, in
        place of a D(h) with no rows."""
        q = np.array([-1.0, 0.0, 2.2250738585072014e-308, 1.0, 4.0])
        zeta = np.array([-1.0, 0.0, 1.0, 1.0, 2.0])
        with pytest.raises(ParameterError) as exc:
            legendre_spectrum(np.column_stack([q, zeta]))
        assert str(exc.value) == (
            "q_grid: the slope of zeta between q = 0.0 and q = "
            "2.2250738585072014e-308 is 4.49423283715579e+307; D(h) needs a "
            "finite h grid and 1 + q h - zeta(q), so q values this close "
            "cannot be used")

    def test_legendre_single_signed_grid_warns(self):
        pairs = np.array([[q, 0.6 * q] for q in (0.5, 1.0, 2.0, 3.0)])
        with pytest.warns(UserWarning, match="single-signed"):
            dh = legendre_spectrum(pairs)
        assert dh.size > 0

    @given(q=st.lists(st.floats(-8, 8, allow_subnormal=False), min_size=2,
                      max_size=16, unique=True)
           .filter(lambda q: min(q) < 0 < max(q)),
           zeta=st.lists(st.floats(-20, 20, allow_subnormal=False),
                         min_size=16, max_size=16),
           shuffle=st.randoms(use_true_random=False))
    @example(q=[-1.0, 0.0, 2.2250738585072014e-308],
             zeta=[-1.0, 0.0, 5.0] + [0.0] * 13, shuffle=random.Random(0))
    @example(q=[-1.0, 0.0, 2.2250738585072014e-308, 1.0, 4.0],
             zeta=[-1.0, 0.0, 1.0, 1.0, 2.0] + [0.0] * 11,
             shuffle=random.Random(0))
    @settings(max_examples=200, deadline=None)
    def test_legendre_equals_outer_product_bitwise(self, q, zeta, shuffle):
        """The one (q, h) table gives the D(h) rows of the whole (h, q)
        table bit for bit, on mixed-sign grids in any order; q so close
        that a slope or the table overflows raises instead."""
        pairs = np.column_stack([q, zeta[:len(q)]])
        pairs = pairs[shuffle.sample(range(len(q)), len(q))]
        try:
            with np.errstate(over="raise", invalid="raise"):
                expected = legendre_by_outer_product(pairs)
        except FloatingPointError:
            with pytest.raises(ParameterError, match="slope of zeta between"):
                legendre_spectrum(pairs)
            return
        assert legendre_spectrum(pairs).tobytes() == expected.tobytes()

    def test_spectrum_width_grows_with_intermittency(self, db3):
        # width of {h : D(h) >= 0.9} tracks the cascade strength
        widths = {}
        for lambda2 in (0.02, 0.08):
            acc = []
            for s in range(12):
                sig = gen_mrw(GeneratorSpec("mrw", 0.5, 2**14, seed=s,
                                            lambda2=lambda2))
                est = multifractal_estimate(dwt(sig, db3, 8), 3, 8)
                dh = est.spectrum
                top = dh[dh[:, 1] >= 0.9, 0]
                acc.append(top.max() - top.min() if top.size else 0.0)
            widths[lambda2] = float(np.mean(acc))
        assert widths[0.08] > widths[0.02]


class TestMultifractalEstimate:
    @given(j1=st.integers(2, 4), width=st.integers(2, 3),
           kind=st.sampled_from(["fgn", "mrw"]), seed=st.integers(0, 2**32),
           gamma=st.sampled_from([("fixed", 2.0), ("fixed", 0.0),
                                  ("auto", None)]),
           shift=st.sampled_from([0, 1]))
    @settings(max_examples=40, deadline=None)
    def test_fitted_octaves_equal_full_rows(self, db3, j1, width, kind, seed,
                                            gamma, shift):
        """Moments of octaves j1..j2 only give the estimates of moments of
        every octave, bit for bit, and the ln L those took for every octave
        give the cumulants of octaves j1..j2."""
        j2 = j1 + width
        spec = GeneratorSpec(kind, 0.7, 2048, seed=seed,
                             lambda2=0.05 if kind == "mrw" else 0.0)
        pyramid = dwt(gen_fgn(spec) if kind == "fgn" else gen_mrw(spec),
                      db3, j2)
        est = multifractal_estimate(pyramid, j1, j2, gamma_mode=gamma[0],
                                    gamma_value=gamma[1],
                                    reference_shift=shift)
        q = np.array(DEFAULT_Q_GRID)
        leaders = compute_leaders(pyramid, est.gamma)
        values = moments(leaders, q)
        c_p = log_cumulants(leaders, j1, j2)[0]
        assert [c_p[0] + shift, c_p[1]] == [est.c1, est.c2]
        fits = [fit_loglog(values[j1 - 1:j2, iq], j1, j2)
                for iq in range(q.size)]
        zeta = np.empty((q.size, 2))
        zeta[:, 0] = q
        zeta[:, 1] = [f.slope for f in fits] - (est.gamma - shift) * q
        assert est.zeta.tobytes() == zeta.tobytes()
        assert (est.diagnostics["zeta_r_squared"].tobytes()
                == np.array([f.r_squared for f in fits]).tobytes())
        assert (est.spectrum.tobytes()
                == legendre_by_outer_product(zeta).tobytes())

    def test_octave_without_leader_below_range_still_fails(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2048, seed=3))
        pyramid = dwt(sig, db3, 7)
        silent = replace(pyramid, coeffs=(np.zeros_like(pyramid.coeffs[0]),)
                         + pyramid.coeffs[1:])
        multifractal_estimate(pyramid, 3, 7)
        with pytest.raises(ScaleRangeError,
                           match="octave 1 has no valid leaders"):
            multifractal_estimate(silent, 3, 7)

    def test_zeta_concavity_tolerance(self, db3):
        for maker, kwargs in (
            (gen_fgn, dict(kind="fgn", hurst=0.7)),
            (gen_fbm, dict(kind="fbm", hurst=0.7)),
            (gen_mrw, dict(kind="mrw", hurst=0.5, lambda2=0.05)),
        ):
            sig = maker(GeneratorSpec(length=2**13, seed=11, **kwargs))
            shift = 1 if kwargs["kind"] == "fgn" else 0
            est = multifractal_estimate(dwt(sig, db3, 6), 3, 6,
                                        reference_shift=shift)
            q = est.zeta[:, 0]
            z = est.zeta[:, 1]
            chords = np.diff(z) / np.diff(q)
            assert np.all(np.diff(chords) <= 0.02)

    def test_c2_sign_over_generators(self, db3):
        for maker, kwargs in (
            (gen_fgn, dict(kind="fgn", hurst=0.6)),
            (gen_fbm, dict(kind="fbm", hurst=0.6)),
            (gen_mrw, dict(kind="mrw", hurst=0.5, lambda2=0.05)),
        ):
            c2s = []
            for s in range(15):
                sig = maker(GeneratorSpec(length=2**13, seed=s, **kwargs))
                est = multifractal_estimate(dwt(sig, db3, 6), 3, 6)
                c2s.append(est.c2)
            assert np.mean(c2s) <= 0.01

    def test_monofractal_null(self, db3):
        devs, c2s = [], []
        for s in range(20):
            sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**13, seed=s))
            est = multifractal_estimate(dwt(sig, db3, 6), 3, 6,
                                        reference_shift=1)
            mask = (est.zeta[:, 0] >= -2) & (est.zeta[:, 0] <= 2)
            devs.append(np.max(np.abs(
                est.zeta[mask, 1] - est.zeta[mask, 0] * est.c1)))
            c2s.append(est.c2)
        assert abs(np.mean(c2s)) <= 0.03
        assert np.mean(devs) <= 0.1

    def test_auto_gamma_on_motion(self, db3):
        sig = gen_fbm(GeneratorSpec("fbm", 0.7, 2**12, seed=0))
        est = multifractal_estimate(dwt(sig, db3, 6), 3, 6, gamma_mode="auto")
        assert est.gamma == 0.0
        assert est.h_min > 0

    def test_auto_gamma_on_noise(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**12, seed=0))
        est = multifractal_estimate(dwt(sig, db3, 6), 3, 6, gamma_mode="auto",
                                    gamma_eps=0.1, reference_shift=1)
        assert est.gamma == pytest.approx(-est.h_min + 0.1)

    def test_spectrum_diagnostics_present(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**12, seed=0))
        est = multifractal_estimate(dwt(sig, db3, 6), 3, 6)
        assert est.zeta.shape == (len(DEFAULT_Q_GRID), 2)
        assert est.diagnostics["zeta_r_squared"].shape == (len(DEFAULT_Q_GRID),)
        assert est.spectrum.shape[1] == 2
        assert est.octave_range == (3, 6)
