"""Second-order scale-free analysis: Welch and wavelet spectra, log2-log2
regression, and the beta <-> Hurst mapping.

Conventions: the wavelet spectrum is computed on L1-normalized coefficients,
so its log2 slope equals beta - 1 for a power-law PSD ~ |f|^-beta;
estimate_hurst adds the +1 back before mapping to H = (beta + 1)/2
(stationary-increment convention).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sp_fft
from scipy.signal import get_window

from .errors import EstimationError, ParameterError, ScaleRangeError
from .wavelet import Signal, WaveletPyramid

WINDOWS = ("hann", "rect")


@dataclass(frozen=True)
class SpectrumEstimate:
    """One-sided PSD samples, frequencies strictly increasing.

    For method='wavelet', octave_index[i] is the octave j whose band center
    is frequencies[i] = 3 fs / (4 * 2^j).
    """

    frequencies: np.ndarray
    power: np.ndarray
    method: str
    octave_index: np.ndarray | None = None

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        if f.shape != p.shape or f.ndim != 1:
            raise ParameterError("frequencies and power must be 1-D, same length")
        if np.any(np.diff(f) <= 0):
            raise ParameterError("frequencies must be strictly increasing")
        if np.any(p < 0):
            raise ParameterError("power must be nonnegative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "power", p)

    def octave_pairs(self):
        """(octave, power) pairs for fit_loglog; wavelet method only."""
        if self.method != "wavelet" or self.octave_index is None:
            raise ParameterError("octave pairs exist only for wavelet spectra")
        return list(zip(self.octave_index.tolist(), self.power.tolist()))


@dataclass(frozen=True)
class ScalingFit:
    """OLS fit of log2(value) against octave index."""

    slope: float
    intercept: float
    stderr_slope: float
    octave_range: tuple
    r_squared: float
    n_points: int


class HurstEstimate(NamedTuple):
    beta: float
    hurst: float
    stationary: bool


@dataclass(frozen=True)
class PsdPowerLawFit:
    """OLS fit of log2(power) against log2(frequency); beta = -slope."""

    beta: float
    intercept: float
    stderr_beta: float
    r_squared: float
    n_points: int
    band: tuple


def default_segment_length(n: int) -> int:
    """n/8 rounded down to a power of two, at least 8."""
    return max(8, 2 ** int(math.floor(math.log2(max(n // 8, 8)))))


def welch_psd(signal: Signal, segment_length: int | None = None,
              overlap_fraction: float = 0.5, window: str = "hann") -> SpectrumEstimate:
    """Averaged windowed periodogram, one-sided, density scaling.

    The integral of the returned PSD over frequency approximates the
    signal variance (segments are mean-detrended).  The operations are
    those of scipy.signal.welch in scipy 1.17 (built on ShortTimeFFT), in
    its order, on all segments at once: with scipy >= 1.17 power and
    frequencies equal its output bitwise (detrend="constant", the DC bin
    dropped).  Older scipy's welch scales the power after the FFT and
    averages another memory layout; its frequencies are the same and its
    power agrees to about 1e-14 relative.

    Raises:
        EstimationError: if the segmentation yields fewer than 2 segments.
    """
    x = signal.samples
    n = x.size
    if segment_length is None:
        segment_length = default_segment_length(n)
    if not 2 <= segment_length <= n:
        raise ParameterError(
            f"segment_length={segment_length} outside 2..{n} (signal length)")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ParameterError(f"overlap_fraction={overlap_fraction} outside [0, 1)")
    if window not in WINDOWS:
        raise ParameterError(f"window {window!r} not one of {WINDOWS}")

    noverlap = int(overlap_fraction * segment_length)
    step = segment_length - noverlap
    n_segments = 1 + (n - segment_length) // step
    if n_segments < 2:
        raise EstimationError(
            f"only {n_segments} segment(s) of length {segment_length}; "
            "shorten segments or provide more data"
        )
    # Bitwise equality with scipy 1.17's welch needs its exact operations:
    # the builtin sum in the window norm, and the average over segments
    # taken along contiguous memory (numpy sums a strided axis in another
    # order).
    fs = signal.sampling_rate
    win = _psd_window(window, segment_length, fs)
    segments = sliding_window_view(x, segment_length)[::step][:n_segments]
    segments = segments - np.mean(segments, axis=-1, keepdims=True)
    spectra = sp_fft.rfft(segments * win, axis=-1)
    power = spectra.real**2 + spectra.imag**2
    power[:, 1:None if segment_length % 2 else -1] *= 2
    power = np.ascontiguousarray(power.T).mean(axis=-1)
    freqs = sp_fft.rfftfreq(segment_length, 1 / fs)
    return SpectrumEstimate(frequencies=freqs[1:], power=power[1:], method="welch")


@lru_cache(maxsize=8)
def _psd_window(window: str, segment_length: int, fs: float) -> np.ndarray:
    """The window scaled for PSD density at rate fs, read-only."""
    win = get_window("hann" if window == "hann" else "boxcar", segment_length)
    win = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    win.setflags(write=False)
    return win


def scale_to_frequency(octave: int, sampling_rate: float) -> float:
    """Band-center frequency of octave j: 3 fs / (4 * 2^j)."""
    if octave < 1:
        raise ParameterError(f"octave={octave} must be >= 1")
    return 3.0 * sampling_rate / (4.0 * 2.0**octave)


def wavelet_spectrum(pyramid: WaveletPyramid) -> SpectrumEstimate:
    """Per-octave mean of squared L1-normalized coefficients.

    Raises:
        ScaleRangeError: if any octave has fewer than 2 valid coefficients.
    """
    octaves = np.arange(1, pyramid.max_octave + 1)
    values = []
    for j in octaves:
        v = pyramid.valid_values(int(j))
        if v.size < 2:
            raise ScaleRangeError(
                f"octave {j} has {v.size} valid coefficient(s); need >= 2"
            )
        values.append(float(np.mean(v**2)))
    freqs = np.array([scale_to_frequency(int(j), pyramid.sampling_rate)
                      for j in octaves])
    order = np.argsort(freqs)
    return SpectrumEstimate(
        frequencies=freqs[order],
        power=np.array(values)[order],
        method="wavelet",
        octave_index=octaves[order],
    )


def _ols_design(x: np.ndarray, weights: np.ndarray | None) -> tuple:
    """(x, w, xbar, x - xbar, sxx): what OLS fits on abscissa x share."""
    if weights is None:
        weights = np.ones_like(x)
    w = weights / weights.sum()
    xbar = float(np.dot(w, x))
    dx = x - xbar
    sxx = float(np.dot(w, dx ** 2))
    if sxx == 0.0:
        raise ParameterError("degenerate abscissa: all octaves identical")
    return x, w, xbar, dx, sxx


@lru_cache(maxsize=16)
def _octave_design(j1: int, j2: int) -> tuple:
    """The unweighted design of octaves j1..j2, arrays read-only."""
    design = _ols_design(np.arange(j1, j2 + 1, dtype=np.float64), None)
    for a in (design[0], design[1], design[3]):  # x, w, x - xbar
        a.setflags(write=False)
    return design


def _ols_fit(design: tuple, y: np.ndarray):
    """(slope, intercept, stderr of the slope, r^2) of y on a design."""
    x, w, xbar, dx, sxx = design
    ybar = float(np.dot(w, y))
    slope = float(np.dot(w, dx * (y - ybar))) / sxx
    intercept = ybar - slope * xbar
    resid = y - (intercept + slope * x)
    n = x.size
    ss_res = float(np.dot(w, resid**2)) * n
    ss_tot = float(np.dot(w, (y - ybar) ** 2)) * n
    r_squared = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    if n > 2:
        stderr = math.sqrt(max(ss_res, 0.0) / (n - 2) / (n * sxx))
    else:
        stderr = float("nan")
    return slope, intercept, stderr, r_squared


def _ols_line(x: np.ndarray, y: np.ndarray, weights: np.ndarray | None):
    return _ols_fit(_ols_design(x, weights), y)


def fit_loglog(points, j1: int, j2: int,
               weights: np.ndarray | None = None) -> ScalingFit:
    """OLS of log2(value) on octave over j1..j2.

    points: iterable of (octave, value) pairs; every octave in [j1, j2] must
    be present with a strictly positive value.  weights (optional, aligned
    with j1..j2) switch on weighted regression; plain OLS is the default.
    """
    if j2 - j1 < 2:
        raise ParameterError(f"octave range ({j1}, {j2}) too narrow; need j2-j1 >= 2")
    table = {}
    for j, v in points:
        table[int(j)] = float(v)
    octs = np.arange(j1, j2 + 1)
    missing = [int(j) for j in octs if int(j) not in table]
    if missing:
        raise ScaleRangeError(f"no value supplied for octave(s) {missing}")
    vals = np.array([table[int(j)] for j in octs])
    bad = octs[vals <= 0]
    if bad.size:
        raise ParameterError(
            f"nonpositive value at octave {int(bad[0])}; cannot take log2"
        )
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != octs.shape or np.any(weights <= 0):
            raise ParameterError("weights must be positive and aligned with j1..j2")
    design = (_octave_design(j1, j2) if weights is None
              else _ols_design(octs.astype(np.float64), weights))
    slope, intercept, stderr, r2 = _ols_fit(design, np.log2(vals))
    return ScalingFit(
        slope=slope, intercept=intercept, stderr_slope=stderr,
        octave_range=(j1, j2), r_squared=r2, n_points=octs.size,
    )


def estimate_hurst(fit: ScalingFit) -> HurstEstimate:
    """Map a wavelet-spectrum fit to (beta, H, stationarity).

    The L1 normalization makes the spectrum slope equal beta - 1, so
    beta = slope + 1; then H = (beta + 1)/2 and the series is flagged
    stationary when H < 1.  The fit must come from a wavelet spectrum
    (a Welch fit would be off by the +1 offset).
    """
    beta = fit.slope + 1.0
    hurst = (beta + 1.0) / 2.0
    return HurstEstimate(beta=beta, hurst=hurst, stationary=bool(hurst < 1.0))


def hurst_from_pyramid(pyramid: WaveletPyramid, j1: int, j2: int,
                       weighted: bool = False):
    """Convenience composition: wavelet spectrum -> fit -> Hurst mapping.

    Returns (ScalingFit, HurstEstimate).
    """
    spectrum = wavelet_spectrum(pyramid)
    weights = None
    if weighted:
        n_valid = pyramid.n_valid
        weights = np.array([n_valid[j - 1] for j in range(j1, j2 + 1)],
                           dtype=np.float64)
    fit = fit_loglog(spectrum.octave_pairs(), j1, j2, weights=weights)
    return fit, estimate_hurst(fit)


def fit_psd_powerlaw(spectrum: SpectrumEstimate, f_min: float,
                     f_max: float) -> PsdPowerLawFit:
    """Fit power ~ f^-beta on a frequency band of a PSD estimate."""
    if not 0 < f_min < f_max:
        raise ParameterError(f"invalid band [{f_min}, {f_max}]")
    mask = (spectrum.frequencies >= f_min) & (spectrum.frequencies <= f_max)
    if int(mask.sum()) < 3:
        raise EstimationError(
            f"only {int(mask.sum())} PSD bins inside [{f_min}, {f_max}]; need >= 3"
        )
    f = spectrum.frequencies[mask]
    p = spectrum.power[mask]
    if np.any(p <= 0):
        raise ParameterError("nonpositive power inside the fit band")
    slope, intercept, stderr, r2 = _ols_line(np.log2(f), np.log2(p), None)
    return PsdPowerLawFit(
        beta=-slope, intercept=intercept, stderr_beta=stderr,
        r_squared=r2, n_points=f.size, band=(f_min, f_max),
    )
