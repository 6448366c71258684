import math

import numpy as np
import pytest

from scalefree.errors import ParameterError, ScaleRangeError
from scalefree.wavelet import (Signal, build_wavelet, dwt, max_feasible_octave,
                               sup_magnitudes)

from oracles import direct_detail_octave1, dwt_periodic_level


class TestSignal:
    def test_rejects_nan(self):
        with pytest.raises(ParameterError, match="index 2"):
            Signal(np.array([1.0, 2.0, np.nan, 4.0]), 1.0, "bad")

    def test_rejects_inf(self):
        with pytest.raises(ParameterError):
            Signal(np.array([1.0, np.inf]), 1.0)

    def test_rejects_nonpositive_rate(self):
        with pytest.raises(ParameterError, match="sampling_rate"):
            Signal(np.zeros(16), 0.0)


class TestBuildWavelet:
    def test_haar_is_unique_n1_case(self):
        w = build_wavelet(1)
        assert np.allclose(w.lowpass_taps, [1 / math.sqrt(2), 1 / math.sqrt(2)])
        assert w.support_length == 2

    @pytest.mark.parametrize("n", range(1, 11))
    def test_support_and_sum(self, n):
        w = build_wavelet(n)
        assert w.support_length == 2 * n
        assert abs(w.lowpass_taps.sum() - math.sqrt(2)) < 1e-12
        assert abs(np.sum(w.lowpass_taps**2) - 1.0) < 1e-12

    @pytest.mark.parametrize("n", range(2, 11))
    def test_quadrature_mirror(self, n):
        w = build_wavelet(n)
        m = w.support_length
        expected = (-1.0) ** np.arange(m) * w.lowpass_taps[::-1]
        assert np.array_equal(w.highpass_taps, expected)

    @pytest.mark.parametrize("bad", [0, 11, -3])
    def test_out_of_range(self, bad):
        with pytest.raises(ParameterError):
            build_wavelet(bad)

    def test_n2_annihilates_ramp(self):
        w = build_wavelet(2)
        t = np.arange(512, dtype=float)
        p = dwt(Signal(t, 1.0, "ramp"), w, 5)
        scale = np.abs(t).max()
        for j in range(1, 6):
            assert np.max(np.abs(p.valid_values(j))) <= 1e-10 * scale

    def test_n3_annihilates_quadratic(self):
        w = build_wavelet(3)
        t = np.arange(1024, dtype=float)
        sig = 3.0 * t**2 - 11.0 * t + 5.0
        p = dwt(Signal(sig, 1.0, "quad"), w, 6)
        scale = np.abs(sig).max()
        for j in range(1, 7):
            assert np.max(np.abs(p.valid_values(j))) <= 1e-10 * scale

    def test_n2_does_not_annihilate_quadratic(self):
        w = build_wavelet(2)
        t = np.arange(512, dtype=float)
        p = dwt(Signal(t**2, 1.0, "quad"), w, 4)
        assert np.max(np.abs(p.valid_values(3))) > 1e-6


class TestDwt:
    def test_constant_details_vanish(self, db3):
        p = dwt(Signal(np.full(512, 7.25), 1.0, "const"), db3, 5)
        for j in range(1, 6):
            assert np.max(np.abs(p.valid_values(j)), initial=0.0) <= 1e-12

    def test_impulse_haar_matches_direct_convolution(self, haar):
        x = np.zeros(128)
        x[64] = 1.0
        p = dwt(Signal(x, 1.0, "impulse"), haar, 3)
        ref, first, stop = direct_detail_octave1(x, haar)
        assert np.allclose(p.level(1), ref, atol=1e-15)
        assert p.valid_start[0] == first
        assert p.valid_stop[0] == stop
        # decimation keeps one polyphase: every nonzero coefficient is an
        # L1-rescaled highpass tap at the impulse location
        nonzero = p.level(1)[np.abs(p.level(1)) > 0]
        taps = haar.highpass_taps * 2.0**-0.5
        assert nonzero.size >= 1
        for value in nonzero:
            assert np.min(np.abs(taps - value)) < 1e-15

    @pytest.mark.parametrize("n_vanishing", [1, 2, 3])
    def test_octave1_equals_direct_convolution(self, n_vanishing):
        w = build_wavelet(n_vanishing)
        rng = np.random.default_rng(123 + n_vanishing)
        x = rng.standard_normal(300)
        p = dwt(Signal(x, 1.0, "rand"), w, 3)
        ref, first, stop = direct_detail_octave1(x, w)
        assert np.allclose(p.level(1), ref, atol=1e-14)
        assert (p.valid_start[0], p.valid_stop[0]) == (first, stop)

    def test_n_valid_counts(self, db3):
        p = dwt(Signal(np.random.default_rng(1).standard_normal(1024),
                       1.0, "x"), db3, 6)
        n_valid = p.n_valid
        for j, count in enumerate(n_valid, start=1):
            assert count <= 1024 // 2**j
        assert all(a > b for a, b in zip(n_valid, n_valid[1:]))

    def test_too_short_names_feasible_octave(self, db3):
        # 384 = 6 * 2^6 exactly, so octave 6 is the last feasible one
        with pytest.raises(ScaleRangeError, match="at most octave 6"):
            dwt(Signal(np.ones(384), 1.0, "short"), db3, 8)
        assert max_feasible_octave(384, db3) == 6
        assert max_feasible_octave(383, db3) == 5

    def test_reproducible_bitwise(self, db3):
        x = np.random.default_rng(7).standard_normal(2048)
        p1 = dwt(Signal(x, 1.0, "a"), db3, 6)
        p2 = dwt(Signal(x.copy(), 1.0, "a"), db3, 6)
        for j in range(1, 7):
            assert np.array_equal(p1.level(j), p2.level(j))
        assert p1.valid_start == p2.valid_start
        assert p1.valid_stop == p2.valid_stop

    def test_l1_l2_rescaling_roundtrip(self, db3):
        x = np.random.default_rng(3).standard_normal(512)
        p = dwt(Signal(x, 1.0, "x"), db3, 4)
        p2 = p.rescaled("l2")
        for j in range(1, 5):
            assert np.allclose(p2.level(j), p.level(j) * 2.0 ** (j / 2.0))
        back = p2.rescaled("l1")
        for j in range(1, 5):
            assert np.allclose(back.level(j), p.level(j))

    def test_parseval_periodic_variant(self, db3):
        rng = np.random.default_rng(11)
        x = rng.standard_normal(512)
        approx = x.copy()
        energy = 0.0
        for _ in range(5):
            approx, detail = dwt_periodic_level(approx, db3)
            energy += float(np.sum(detail**2))
        energy += float(np.sum(approx**2))
        assert abs(energy - np.sum(x**2)) <= 1e-8 * np.sum(x**2)

    def test_sup_magnitudes_degenerate(self, db3):
        from scalefree.errors import DegenerateInputError
        p = dwt(Signal(np.full(512, 1.0), 1.0, "const"), db3, 5)
        with pytest.raises(DegenerateInputError):
            sup_magnitudes(p, 3, 5)
