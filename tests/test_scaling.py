import csv
import dataclasses
import math

import numpy as np
import pytest
import scipy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import fft as sp_fft
from scipy import signal as sp_signal

from scalefree.errors import EstimationError, ParameterError, ScaleRangeError
from scalefree.pipeline import (AnalysisConfig, _spectrum_rows,
                                _welch_beta_crosscheck, run_full_analysis)
from scalefree.scaling import (ScalingFit, SpectrumEstimate, _octave_design,
                               _ols_design, _ols_fit, _psd_window, _welch_plan,
                               default_segment_length, estimate_hurst,
                               fit_loglog, fit_psd_powerlaw,
                               scale_to_frequency, welch_psd,
                               wavelet_spectrum)
from scalefree.synth import GeneratorSpec, gen_fgn
from scalefree.wavelet import Signal, dwt

from oracles import fit_loglog_before, ols_line, welch_beta_before


# numpy 2's FFT is the C++ pocketfft that scipy.fft runs; numpy 1.x has the
# older C pocketfft, whose bits are not checked here.
NUMPY_CXX_FFT = int(np.__version__.split(".")[0]) >= 2

# welch_psd repeats the operations of scipy 1.17's welch, which is built on
# ShortTimeFFT, so from that version on, with numpy's FFT equal to scipy's,
# the two are equal bitwise.  Older welch scales the power after the FFT and
# averages another memory layout, which rounds differently: about 1e-14
# relative at worst.
SCIPY_WELCH_BITWISE = NUMPY_CXX_FFT and tuple(
    int(part) for part in scipy.__version__.split(".")[:2]) >= (1, 17)


def wavelet_hurst(pyramid, j1, j2):
    """(fit, HurstEstimate): the spectrum fit over j1..j2 and its Hurst
    mapping, as analyze_series computes them."""
    fit = _spectrum_rows(pyramid, j1, j2)[0]
    return fit, estimate_hurst(fit)


class TestScaleToFrequency:
    def test_band_edges_at_two_thirds_hz(self):
        # a 1.5 s sampling interval gives fs = 2/3 Hz; octaves 3 and 6
        # bracket the 0.008-0.063 Hz band
        fs = 2.0 / 3.0
        assert scale_to_frequency(3, fs) == pytest.approx(0.0625, abs=1e-15)
        assert scale_to_frequency(6, fs) == pytest.approx(0.0078125, abs=1e-15)

    def test_direct_formula(self):
        assert scale_to_frequency(1, 1.0) == pytest.approx(0.375)

    def test_octave_must_be_positive(self):
        with pytest.raises(ParameterError):
            scale_to_frequency(0, 1.0)


class TestFitLoglog:
    def test_exact_power_law(self):
        fit = fit_loglog(2.0 ** (0.8 * np.arange(2, 7)), 2, 6)
        assert fit.slope == pytest.approx(0.8, abs=1e-12)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert fit.n_points == 5

    def test_noisy_decay(self):
        rng = np.random.default_rng(0)
        slopes = []
        for _ in range(50):
            values = [3.0 * 2.0**-j * (1 + 0.01 * rng.uniform(-1, 1))
                      for j in range(1, 9)]
            slopes.append(fit_loglog(values, 1, 8).slope)
        assert abs(np.mean(slopes) + 1.0) <= 0.02

    def test_constant_values(self):
        fit = fit_loglog(np.full(5, 5.0), 1, 5)
        assert fit.slope == pytest.approx(0.0, abs=1e-14)
        assert fit.r_squared == pytest.approx(1.0)

    def test_nonpositive_value_names_octave(self):
        with pytest.raises(ParameterError,
                           match="nonpositive value at octave 4; cannot take log2"):
            fit_loglog([1.0, 1.0, 0.0, 1.0], 2, 5)

    @pytest.mark.parametrize("values, octave", [
        ([1.0, -0.0, 1.0, 1.0], 3),
        ([2.0, 1.0, 1.0, -1e-300], 5), ([-3.0, 0.0, 1.0, 1.0], 2),
        # NaN passes, so a NaN before or after the 0 leaves it reported
        ([math.nan, 0.0, 1.0, 1.0], 3), ([1.0, math.nan, 1.0, 0.0], 5),
        ([0.0, math.nan, 1.0, 1.0], 2)])
    def test_nonpositive_value_names_first_such_octave(self, values, octave):
        with pytest.raises(ParameterError, match=(
                f"nonpositive value at octave {octave}; cannot take log2")):
            fit_loglog(values, 2, 5)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_nan_and_inf_pass_the_positivity_check(self, bad):
        for k in range(4):
            values = [1.0, 2.0, 4.0, 8.0]
            values[k] = bad
            with np.errstate(invalid="ignore"):
                fit = fit_loglog(values, 2, 5)
                assert repr((fit.slope, fit.intercept, fit.stderr_slope,
                             fit.r_squared)) == repr(fit_loglog_before(values, 2, 5))

    def test_wrong_length(self):
        # values are positional: a missing or extra octave is a shape error
        for values in ([1.0, 1.0, 1.0], [1.0] * 5, [[1.0] * 4], np.ones((4, 1))):
            with pytest.raises(ParameterError, match="values for octaves 1..4"):
                fit_loglog(values, 1, 4)

    def test_range_too_narrow(self):
        with pytest.raises(ParameterError):
            fit_loglog([1.0, 1.0], 1, 2)

    @given(n=st.integers(2, 12), seed=st.integers(0, 2**32 - 1),
           scale=st.floats(1e-3, 1e3))
    @settings(max_examples=200, deadline=None)
    def test_ols_line_equals_one_pass_oracle(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        x = scale * rng.standard_normal(n)
        y = rng.standard_normal(n) + 0.3 * x
        # repr tells apart -0.0 and 0.0 and matches nan with nan
        assert repr(_ols_fit(_ols_design(x), y)) == repr(ols_line(x, y))

    @given(j1=st.integers(1, 8), width=st.integers(2, 11),
           seed=st.integers(0, 2**32 - 1), cleared=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_one_pass_oracle(self, j1, width, seed, cleared):
        """Memoised designs, on a hit and after cache_clear, give the fit
        of the one-pass OLS bit for bit, over 3 to 12 octaves."""
        j2 = j1 + width
        rng = np.random.default_rng(seed)
        values = rng.lognormal(0.0, 3.0, width + 1)
        expected = ols_line(np.arange(j1, j2 + 1).astype(np.float64),
                            np.log2(values))
        if cleared:
            _octave_design.cache_clear()
        for _ in range(2):
            fit = fit_loglog(values, j1, j2)
            assert repr((fit.slope, fit.intercept, fit.stderr_slope,
                         fit.r_squared)) == repr(expected)

    def test_memoised_design_is_read_only(self):
        x, w, _, dx, _ = _octave_design(3, 6)
        assert _octave_design(3, 6)[0] is x
        for a in (x, w, dx):
            with pytest.raises(ValueError):
                a[0] = 0.0


class TestEstimateHurst:
    def test_white_noise_case(self):
        fit = ScalingFit(-1.0, 0.0, 0.0, (3, 6), 1.0, 4)
        beta, hurst, stationary = estimate_hurst(fit)
        assert beta == pytest.approx(0.0)
        assert hurst == pytest.approx(0.5)
        assert stationary

    def test_nonstationary_flag(self):
        fit = ScalingFit(0.4, 0.0, 0.0, (3, 6), 1.0, 4)  # beta = 1.4
        beta, hurst, stationary = estimate_hurst(fit)
        assert beta == pytest.approx(1.4)
        assert hurst == pytest.approx(1.2)
        assert not stationary

    def test_fgn_ensemble_recovery(self, db3):
        estimates = []
        for seed in range(30):
            sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**13, seed=seed))
            _, hurst = wavelet_hurst(dwt(sig, db3, 6), 3, 6)
            estimates.append(hurst.hurst)
        assert abs(np.mean(estimates) - 0.7) <= 0.03


class TestWelch:
    @given(n=st.integers(64, 20_000), fraction=st.floats(0.0, 0.5),
           overlap=st.floats(0.0, 0.99), fs=st.floats(1e-2, 1e3),
           window=st.sampled_from(["hann", "rect"]), j1=st.integers(1, 4),
           width=st.integers(2, 6), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=150, deadline=None)
    def test_crosscheck_equals_the_formulas_before(self, n, fraction, overlap,
                                                   fs, window, j1, width, seed):
        """analyze_series's Welch beta, from per-length plans and band
        slices, has the bits of the oracle that segments, averages, masks
        and fits afresh on every call (NaN where either finds no fit)."""
        cfg = AnalysisConfig(synthetic={}, octave_range=(j1, j1 + width),
                             welch_segment_length=max(8, int(fraction * n)),
                             welch_overlap=overlap, welch_window=window,
                             sampling_rate=fs)
        x = np.random.default_rng(seed).standard_normal(n)
        for _ in range(2):  # the plans built, then memoised
            beta = _welch_beta_crosscheck(Signal(x, fs), cfg)
            assert (np.float64(beta).tobytes()
                    == np.float64(welch_beta_before(x, fs, cfg)).tobytes())

    def test_sinusoid_peak_at_f0(self):
        fs, f0, n = 100.0, 12.5, 4096
        t = np.arange(n) / fs
        sig = Signal(np.sin(2 * math.pi * f0 * t), fs, "sine")
        spec = welch_psd(sig, segment_length=512)
        peak = spec.frequencies[np.argmax(spec.power)]
        df = fs / 512
        assert abs(peak - f0) <= df

    def test_integral_approximates_variance(self):
        x = gen_fgn(GeneratorSpec("fgn", 0.5, 2**13, seed=1))
        spec = welch_psd(x)
        df = np.diff(spec.frequencies).mean()
        integral = float(np.sum(spec.power) * df)
        assert abs(integral - x.samples.var()) <= 0.1 * x.samples.var()

    def test_white_noise_flat_slope(self):
        slopes = []
        for seed in range(50):
            sig = gen_fgn(GeneratorSpec("fgn", 0.5, 4096, seed=seed))
            spec = welch_psd(sig)
            fit = fit_psd_powerlaw(spec, 0.01, 0.25)
            slopes.append(-fit.beta)
        assert abs(np.mean(slopes)) <= 0.1

    def test_fgn_beta_recovery(self):
        betas = []
        for seed in range(50):
            sig = gen_fgn(GeneratorSpec("fgn", 0.7, 4096, seed=seed))
            fit = fit_psd_powerlaw(welch_psd(sig), 0.01, 0.25)
            betas.append(fit.beta)
        assert abs(np.mean(betas) - 0.4) <= 0.1

    def test_too_few_segments(self):
        sig = Signal(np.random.default_rng(0).standard_normal(64), 1.0, "x")
        with pytest.raises(EstimationError):
            welch_psd(sig, segment_length=64)

    def test_segment_length_outside_2_to_n(self):
        sig = Signal(np.random.default_rng(0).standard_normal(64), 1.0, "x")
        for segment_length in (-4, 0, 1, 65):
            with pytest.raises(ParameterError, match="outside 2..64"):
                welch_psd(sig, segment_length=segment_length)

    def test_memoised_window_is_read_only(self):
        step, n_segments, win, freqs = _welch_plan(1000, 64, 0.5, "hann", 2.0)
        assert (step, n_segments) == (32, 30)
        again = _welch_plan(1000, 64, 0.5, "hann", 2.0)
        assert again[2] is win and again[3] is freqs
        for a in (win, freqs):
            with pytest.raises(ValueError):
                a[0] = 1.0

    def test_windows_equal_get_window(self):
        # every length the settings allow up to 4096, odd ones included
        for segment_length in range(2, 4097):
            for window, name in (("hann", "hann"), ("rect", "boxcar")):
                ref = sp_signal.get_window(name, segment_length)
                ref = ref * (1 / np.sqrt(sum(ref**2) / (1 / 2.5)))
                assert np.array_equal(
                    _psd_window(window, segment_length, 2.5), ref), (
                    window, segment_length)

    @given(n=st.integers(16, 20_000), fraction=st.floats(0.0, 0.5),
           overlap=st.floats(0.0, 0.99), fs=st.floats(1e-2, 1e3),
           window=st.sampled_from(["hann", "rect"]),
           seed=st.integers(0, 2**32 - 1))
    @example(n=1000, fraction=0.127, overlap=0.5, fs=2.5, window="hann",
             seed=0)  # odd segment length 127, non-unit sampling rate
    @settings(max_examples=150, deadline=None)
    def test_equals_scipy_welch(self, n, fraction, overlap, fs, window, seed):
        segment_length = max(8, int(fraction * n))
        x = np.random.default_rng(seed).standard_normal(n)
        spec = welch_psd(Signal(x, fs), segment_length=segment_length,
                         overlap_fraction=overlap, window=window)
        freqs, power = sp_signal.welch(
            x, fs=fs, window="hann" if window == "hann" else "boxcar",
            nperseg=segment_length,
            noverlap=int(overlap * segment_length), detrend="constant",
            scaling="density", return_onesided=True)
        assert np.array_equal(spec.frequencies, freqs[1:])
        if SCIPY_WELCH_BITWISE:
            assert np.array_equal(spec.power, power[1:])
        else:
            np.testing.assert_allclose(spec.power, power[1:], rtol=1e-12)

    def test_default_segment_length(self):
        assert default_segment_length(4096) == 512
        assert default_segment_length(5000) == 512

    @pytest.mark.skipif(not NUMPY_CXX_FFT, reason="numpy 1.x FFT bits unchecked")
    @given(k=st.integers(1, 19), length=st.integers(2, 8192),
           seed=st.integers(0, 2**32 - 1))
    @example(k=19, length=375, seed=0)
    @example(k=2, length=8192, seed=1)
    @settings(max_examples=200, deadline=None)
    def test_numpy_rfft_equals_scipy_fft(self, k, length, seed):
        """welch_psd's np.fft.rfft and rfftfreq give scipy.fft's bits, on
        (k, L) batches of odd and even segment lengths."""
        x = np.random.default_rng(seed).standard_normal((k, length))
        assert (np.fft.rfft(x, axis=-1).tobytes()
                == sp_fft.rfft(x, axis=-1).tobytes())
        assert (np.fft.rfftfreq(length, 1 / 2.5).tobytes()
                == sp_fft.rfftfreq(length, 1 / 2.5).tobytes())


class TestWaveletSpectrum:
    def test_white_noise_slope_minus_one(self, db3):
        # L1 normalization turns beta = 0 into a slope of -1
        slopes = []
        for seed in range(50):
            sig = gen_fgn(GeneratorSpec("fgn", 0.5, 4096, seed=seed))
            power = wavelet_spectrum(dwt(sig, db3, 6))
            slopes.append(fit_loglog(power, 1, 6).slope)
        assert abs(np.mean(slopes) + 1.0) <= 0.15

    def test_frequencies_match_octaves(self, tmp_path):
        run_full_analysis(AnalysisConfig(
            synthetic={"subjects": 3, "length": 1024,
                       "maps": {"F": 2, "A": 2, "U": 2}},
            sampling_rate=2.0, output_dir=str(tmp_path)))
        with open(tmp_path / "spectra.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for row in rows:
            assert float(row["frequency_hz"]) == scale_to_frequency(
                int(row["octave"]), 2.0)

    def test_power_is_mean_square_per_octave(self, db3):
        # 1000 samples: octaves of uneven valid lengths
        sig = gen_fgn(GeneratorSpec("fgn", 0.6, 1024, seed=7))
        pyramid = dwt(Signal(sig.samples[:1000], 1.0), db3, 6)
        power = wavelet_spectrum(pyramid)
        assert power.dtype == np.float64 and power.shape == (6,)
        for j in range(1, 7):
            expected = float(np.mean(pyramid.valid_values(j) ** 2))
            assert power[j - 1].tobytes() == np.float64(expected).tobytes()

    def test_spectrum_rows_ascend_over_every_octave(self, db3):
        pyramid = dwt(gen_fgn(GeneratorSpec("fgn", 0.7, 2048, seed=1)), db3, 7)
        fit, rows = _spectrum_rows(pyramid, 3, 6)
        assert [row[0] for row in rows] == list(range(1, 8))
        power = wavelet_spectrum(pyramid)
        for j, logp, fitted in rows:
            assert type(j) is int
            assert logp == math.log2(power[j - 1])
            assert fitted == fit.slope * j + fit.intercept

    def test_amplitude_invariance(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2048, seed=2))
        big = Signal(37.0 * sig.samples, 1.0, "big")
        fit1, h1 = wavelet_hurst(dwt(sig, db3, 6), 3, 6)
        fit2, h2 = wavelet_hurst(dwt(big, db3, 6), 3, 6)
        assert fit2.slope == pytest.approx(fit1.slope, abs=1e-12)
        assert h2.hurst == pytest.approx(h1.hurst, abs=1e-12)
        assert fit2.intercept - fit1.intercept == pytest.approx(
            2 * math.log2(37.0), abs=1e-9)

    def test_energy_transfer_on_fitted_line(self, db3):
        # the fitted power law transfers energy across frequencies exactly:
        # P(f2)/P(f1) = (f2/f1)^-beta on the PSD fit line
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 4096, seed=5))
        welch_fit = fit_psd_powerlaw(welch_psd(sig), 0.01, 0.2)
        f1, f2 = 0.02, 0.11
        p1 = 2.0 ** (welch_fit.intercept - welch_fit.beta * math.log2(f1))
        p2 = 2.0 ** (welch_fit.intercept - welch_fit.beta * math.log2(f2))
        assert p2 / p1 == pytest.approx((f2 / f1) ** -welch_fit.beta, rel=1e-12)

        # on the L1 wavelet line the same relation carries the -(beta-1) slope
        fit, hurst = wavelet_hurst(dwt(sig, db3, 6), 3, 6)
        fs = sig.sampling_rate
        f3, f6 = scale_to_frequency(3, fs), scale_to_frequency(6, fs)
        p3 = 2.0 ** (fit.intercept + fit.slope * 3)
        p6 = 2.0 ** (fit.intercept + fit.slope * 6)
        assert p6 / p3 == pytest.approx(
            (f6 / f3) ** -(hurst.beta - 1.0), rel=1e-9)

    def test_dilation_shifts_one_octave(self, db3):
        # the L1 convention makes coefficients of a 2x-dilated signal land
        # one octave coarser with (near) unchanged values
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**13, seed=4))
        x = sig.samples
        grid = np.arange(2 * x.size) / 2.0
        dilated = Signal(np.interp(grid, np.arange(x.size, dtype=float), x),
                         1.0, "dilated")
        s_orig = wavelet_spectrum(dwt(sig, db3, 7))
        s_dil = wavelet_spectrum(dwt(dilated, db3, 8))
        # octave j is at index j - 1, so octave j + 1 of the dilation at j
        for j in range(3, 8):
            assert abs(math.log2(s_dil[j]) - math.log2(s_orig[j - 1])) <= 0.15

    def test_decimation_shifts_one_octave(self, db3):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**14, seed=8))
        dec = Signal(sig.samples[::2], sig.sampling_rate / 2.0, "dec")
        full_fit, _ = wavelet_hurst(dwt(sig, db3, 7), 3, 7)
        dec_fit, _ = wavelet_hurst(dwt(dec, db3, 6), 3, 6)
        assert abs(dec_fit.slope - full_fit.slope) <= 0.15
        # same physical frequency: octave j of the decimated series sits at
        # octave j+1 of the original
        assert scale_to_frequency(3, dec.sampling_rate) == pytest.approx(
            scale_to_frequency(4, sig.sampling_rate))

    def test_empty_octave_rejected(self, db3):
        # dwt never makes such an octave: shrink the valid range of octave 6
        sig = gen_fgn(GeneratorSpec("fgn", 0.5, 1024, seed=0))
        pyramid = dwt(sig, db3, 6)
        start = pyramid.valid_start[-1]
        for n_valid in (0, 1):
            short = dataclasses.replace(
                pyramid, valid_stop=pyramid.valid_stop[:-1] + (start + n_valid,))
            with pytest.raises(ScaleRangeError,
                               match=f"octave 6 has {n_valid} valid coefficient"):
                wavelet_spectrum(short)

    def test_decreasing_frequencies_rejected(self):
        with pytest.raises(ParameterError, match="strictly increasing"):
            SpectrumEstimate(np.array([2.0, 1.0]), np.array([1.0, 1.0]))


class TestWelchWaveletAgreement:
    def test_fgn_betas_match(self, db3):
        diffs = []
        for seed in range(30):
            sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2**13, seed=seed))
            _, hurst = wavelet_hurst(dwt(sig, db3, 6), 3, 6)
            band = (scale_to_frequency(6, 1.0), scale_to_frequency(3, 1.0))
            welch_fit = fit_psd_powerlaw(welch_psd(sig), *band)
            diffs.append(welch_fit.beta - hurst.beta)
        assert abs(np.mean(diffs)) <= 0.15
