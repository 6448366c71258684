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
from numpy.lib.stride_tricks import as_strided

from .errors import EstimationError, ParameterError, ScaleRangeError
from .wavelet import Signal, WaveletPyramid

WINDOWS = ("hann", "rect")


@dataclass(frozen=True)
class SpectrumEstimate:
    """A Welch PSD estimate: one-sided power at strictly increasing
    frequencies."""

    frequencies: np.ndarray
    power: np.ndarray

    def __post_init__(self):
        f = np.asarray(self.frequencies, dtype=np.float64)
        p = np.asarray(self.power, dtype=np.float64)
        if f.shape != p.shape or f.ndim != 1:
            raise ParameterError("frequencies and power must be 1-D, same length")
        # every comparison with NaN is False, so NaN fails both checks
        if not (f[1:] > f[:-1]).all() or np.isnan(f[:1]).any():
            raise ParameterError("frequencies must be strictly increasing")
        if not (p >= 0).all():
            raise ParameterError("power must be nonnegative")
        object.__setattr__(self, "frequencies", f)
        object.__setattr__(self, "power", p)


class ScalingFit(NamedTuple):
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


class PsdPowerLawFit(NamedTuple):
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
    its order, on all segments at once, with numpy's FFT: with numpy >= 2.0
    (whose FFT is scipy.fft's C++ pocketfft) and scipy >= 1.17, power and
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
    _check_welch(segment_length, overlap_fraction, window, n)
    step, n_segments, win, freqs = _welch_plan(
        n, segment_length, overlap_fraction, window, signal.sampling_rate)
    # Bitwise equality with scipy 1.17's welch needs its exact operations:
    # the builtin sum in the window norm, and the average over segments
    # taken along contiguous memory (numpy sums a strided axis in another
    # order).  np.add.reduce / count is np.mean's arithmetic.
    stride = x.strides[0]
    segments = as_strided(x, (n_segments, segment_length), (step * stride, stride),
                          writeable=False)
    segments = segments - np.add.reduce(segments, -1, keepdims=True) / segment_length
    segments *= win
    spectra = np.fft.rfft(segments, axis=-1)
    power = np.square(spectra.real)
    power += np.square(spectra.imag)
    power[:, 1:None if segment_length % 2 else -1] *= 2
    power = np.add.reduce(np.ascontiguousarray(power.T), -1) / n_segments
    return SpectrumEstimate(frequencies=freqs, power=power[1:])


@lru_cache(maxsize=8)
def _welch_plan(n: int, segment_length: int, overlap_fraction: float,
                window: str, fs: float) -> tuple:
    """(step, n_segments, window, frequencies but DC) of welch_psd on n
    samples at rate fs, read-only; EstimationError below 2 segments."""
    step = segment_length - int(overlap_fraction * segment_length)
    n_segments = 1 + (n - segment_length) // step
    if n_segments < 2:
        raise EstimationError(
            f"only {n_segments} segment(s) of length {segment_length}; "
            "shorten segments or provide more data"
        )
    freqs = np.fft.rfftfreq(segment_length, 1 / fs)[1:]
    freqs.setflags(write=False)
    return step, n_segments, _psd_window(window, segment_length, fs), freqs


def _check_welch(segment_length: int | None, overlap_fraction: float, window: str,
                 n: int | None = None, prefix: str = "") -> None:
    """welch_psd's rule for its settings on n samples, or on any length if n
    is None; a None segment_length (the default) passes."""
    if segment_length is not None and not 2 <= segment_length <= (n or segment_length):
        raise ParameterError(f"{prefix}segment_length: {segment_length} outside "
                             f"2..{n or 'n'} (signal length)")
    if not 0.0 <= overlap_fraction < 1.0:
        raise ParameterError(
            f"{prefix}overlap_fraction: {overlap_fraction} outside [0, 1)")
    if window not in WINDOWS:
        raise ParameterError(f"{prefix}window: {window!r} not one of {WINDOWS}")


def _psd_window(window: str, segment_length: int, fs: float) -> np.ndarray:
    """The window scaled for PSD density at rate fs, read-only.

    Before scaling it equals the window scipy.signal.welch takes for
    "hann" or "boxcar", bitwise: the periodic Hann window is built with the
    operations of scipy's general-cosine window, in their order, on
    segment_length + 1 points with the last one dropped.
    """
    if window == "hann":
        fac = np.linspace(-np.pi, np.pi, segment_length + 1)
        win = np.zeros(segment_length + 1)
        for k in (0, 1):
            win += 0.5 * np.cos(k * fac)
        win = win[:-1]
    else:
        win = np.ones(segment_length)
    win = win * (1 / np.sqrt(sum(win**2) / (1 / fs)))
    win.setflags(write=False)
    return win


def scale_to_frequency(octave: int, sampling_rate: float) -> float:
    """Band-center frequency of octave j: 3 fs / (4 * 2^j)."""
    if octave < 1:
        raise ParameterError(f"octave={octave} must be >= 1")
    return 3.0 * sampling_rate / (4.0 * 2.0**octave)


def wavelet_spectrum(pyramid: WaveletPyramid) -> np.ndarray:
    """Per-octave mean of squared L1-normalized coefficients: a float64
    array over octaves 1..max_octave, octave j at index j - 1.

    Raises:
        ScaleRangeError: if any octave has fewer than 2 valid coefficients.
    """
    power = np.empty(pyramid.max_octave)
    for j in range(1, pyramid.max_octave + 1):
        v = pyramid.valid_values(j)
        if v.size < 2:
            raise ScaleRangeError(
                f"octave {j} has {v.size} valid coefficient(s); need >= 2"
            )
        power[j - 1] = np.add.reduce(v**2) / v.size  # np.mean's arithmetic
    return power


def _ols_design(x: np.ndarray) -> tuple:
    """(x, w, xbar, x - xbar, sxx), arrays read-only copies: what OLS fits
    on abscissa x share, w the uniform weights 1/n."""
    x = np.array(x, dtype=np.float64)
    w = np.ones_like(x) / x.size
    xbar = float(np.dot(w, x))
    dx = x - xbar
    sxx = float(np.dot(w, dx ** 2))
    if sxx == 0.0:
        raise ParameterError("degenerate abscissa: all octaves identical")
    for a in (x, w, dx):
        a.setflags(write=False)
    return x, w, xbar, dx, sxx


@lru_cache(maxsize=16)
def _octave_design(j1: int, j2: int, unit: float = 1.0) -> tuple:
    """The design of octaves j1..j2, each octave j at abscissa j unit."""
    return _ols_design(np.arange(j1, j2 + 1, dtype=np.float64) * unit)


def _ols_fit(design: tuple, y: np.ndarray):
    """(slope, intercept, stderr of the slope, r^2) of y on a design.

    Each fit keeps one 1-D np.dot per vector, since a batched fit changes
    bits: under OpenBLAS 0.3.31 (Haswell kernel) numpy's 1-D dot of 4
    values matched an exact fused multiply-add chain on 20,000 of 20,000
    draws and a left-to-right sum on 12,353; the means of 15 q columns by
    one w @ Y matched per-column dots only at 4 octaves, by a row-by-row
    sum only at 4 and 8, where 1/n is a power of two.

    r^2 and the stderr take dot(dy, dy) and dot(r, r), r = dy - slope dx
    about the means, which round unlike the residuals y - (intercept +
    slope x); slope and intercept never read them."""
    x, w, xbar, dx, sxx = design
    ybar = float(np.dot(w, y))
    dy = y - ybar
    slope = float(np.dot(w, dx * dy)) / sxx
    intercept = ybar - slope * xbar
    r = dy - slope * dx
    ss_res = float(np.dot(r, r))
    ss_tot = float(np.dot(dy, dy))
    n = x.size
    r_squared = 1.0 if ss_tot <= 1e-300 else 1.0 - ss_res / ss_tot
    stderr = math.sqrt(ss_res / (n - 2) / (n * sxx)) if n > 2 else math.nan
    return slope, intercept, stderr, r_squared


def _check_octaves(j1: int, j2: int, prefix: str = "") -> None:
    """The octaves j1..j2 of a scaling fit: at least 3, from octave 1 on."""
    if not 1 <= j1 <= j2 - 2:
        raise ParameterError(
            f"{prefix}octave_range: ({j1}, {j2}) must have 1 <= j1 <= j2 - 2")


def fit_loglog(values, j1: int, j2: int) -> ScalingFit:
    """OLS of log2(value) on octave over j1..j2.

    values: the j2 - j1 + 1 values of octaves j1..j2 in order, 1-D, every
    one strictly positive.
    """
    if j2 - j1 < 2:
        raise ParameterError(f"octave range ({j1}, {j2}) too narrow; need j2-j1 >= 2")
    vals = np.asarray(values, dtype=np.float64)
    if vals.shape != (j2 - j1 + 1,):
        raise ParameterError(f"values for octaves {j1}..{j2} have shape "
                             f"{vals.shape}; need ({j2 - j1 + 1},)")
    # builtin min, no numpy reduction: > 0 only if all are; a NaN passes
    bad = () if min(vals.tolist()) > 0 else np.flatnonzero(vals <= 0)
    if len(bad):
        raise ParameterError(
            f"nonpositive value at octave {j1 + int(bad[0])}; cannot take log2"
        )
    slope, intercept, stderr, r2 = _ols_fit(_octave_design(j1, j2), np.log2(vals))
    return ScalingFit(slope, intercept, stderr, (j1, j2), r2, vals.size)


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


def fit_psd_powerlaw(spectrum: SpectrumEstimate, f_min: float,
                     f_max: float) -> PsdPowerLawFit:
    """Fit power ~ f^-beta on a frequency band of a PSD estimate."""
    if not 0 < f_min < f_max:
        raise ParameterError(f"invalid band [{f_min}, {f_max}]")
    band, design = _psd_band(spectrum.frequencies.tobytes(), f_min, f_max)
    p = spectrum.power[band]
    if not min(p.tolist()) > 0 and (p <= 0).any():
        raise ParameterError("nonpositive power inside the fit band")
    slope, intercept, stderr, r2 = _ols_fit(design, np.log2(p))
    return PsdPowerLawFit(
        beta=-slope, intercept=intercept, stderr_beta=stderr,
        r_squared=r2, n_points=p.size, band=(f_min, f_max),
    )


@lru_cache(maxsize=8)
def _psd_band(frequencies: bytes, f_min: float, f_max: float) -> tuple:
    """Indices of the float64 frequencies inside [f_min, f_max] and the OLS
    design on their log2; EstimationError below 3 bins."""
    f = np.frombuffer(frequencies)
    inside = np.flatnonzero((f >= f_min) & (f <= f_max))
    if inside.size < 3:
        raise EstimationError(
            f"only {inside.size} PSD bins inside [{f_min}, {f_max}]; need >= 3"
        )
    return inside, _ols_design(np.log2(f[inside]))
