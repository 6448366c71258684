"""Discrete wavelet transform with Daubechies filters and L1 scaling normalization.

The decimating Mallat filter bank is computed with zero extension of the
input; every coefficient whose filter support overlaps a boundary is marked
invalid and excluded from downstream statistics.  Coefficients are stored in
the L1 convention (templates 2^(-j) psi0(2^(-j) t - k)), which is obtained
from the orthonormal filter-bank output by a 2^(-j/2) rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateInputError, ParameterError, ScaleRangeError

MAX_VANISHING = 10


@dataclass(frozen=True)
class Signal:
    """A uniformly sampled real-valued time series.

    Attributes:
        samples: finite real values, arbitrary physical units.
        sampling_rate: sampling frequency in Hz, strictly positive.
        label: opaque identifier used in error messages and reports.
    """

    samples: np.ndarray
    sampling_rate: float
    label: str = ""

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise ParameterError(f"signal {self.label!r}: samples must be 1-D")
        if samples.size < 2:
            raise ParameterError(f"signal {self.label!r}: need at least 2 samples")
        if not np.all(np.isfinite(samples)):
            bad = int(np.flatnonzero(~np.isfinite(samples))[0])
            raise ParameterError(
                f"signal {self.label!r}: non-finite value at index {bad}"
            )
        if not (self.sampling_rate > 0):
            raise ParameterError(f"signal {self.label!r}: sampling_rate must be > 0")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size


@dataclass(frozen=True)
class MotherWavelet:
    """Minimal-support Daubechies analysis filter pair.

    lowpass_taps sum to sqrt(2) (L2 filter convention); highpass_taps are the
    quadrature mirror of the lowpass and annihilate polynomials of degree
    below n_vanishing.
    """

    n_vanishing: int
    lowpass_taps: np.ndarray
    highpass_taps: np.ndarray
    support_length: int

    @property
    def name(self) -> str:
        return f"db{self.n_vanishing}"


def _daubechies_lowpass(n_vanishing: int) -> np.ndarray:
    """Generate the minimal-phase Daubechies lowpass filter.

    Spectral factorization of the half-band polynomial
    P(y) = sum_k C(N-1+k, k) y^k: each root y0 is mapped to the z-plane via
    y = (2 - z - 1/z)/4 and the root inside the unit circle is kept, so the
    factor q(z) is minimal phase.  The filter is (1+z)^N q(z), rescaled to
    sum sqrt(2).
    """
    n = n_vanishing
    if n == 1:
        return np.array([1.0, 1.0]) / math.sqrt(2.0)

    # P(y), highest degree first for np.roots.
    p_coeffs = np.array([math.comb(n - 1 + k, k) for k in range(n)], dtype=np.float64)
    y_roots = np.roots(p_coeffs[::-1])

    z_roots = []
    for y0 in y_roots:
        b = 2.0 - 4.0 * y0
        disc = np.sqrt(b * b - 4.0 + 0j)
        r1 = (b + disc) / 2.0
        r2 = (b - disc) / 2.0
        z_roots.append(r1 if abs(r1) < 1.0 else r2)

    # (1+z)^N contributes N roots at -1.
    all_roots = np.concatenate([np.full(n, -1.0 + 0j), np.array(z_roots)])
    taps = np.real(np.poly(all_roots))
    taps *= math.sqrt(2.0) / taps.sum()

    # Deterministic orientation: energy front-loaded (minimal phase).
    half = taps.size // 2
    if np.sum(taps[:half] ** 2) < np.sum(taps[half:] ** 2):
        taps = taps[::-1]
    return taps


def _check_filters(n_vanishing: int, lowpass: np.ndarray) -> None:
    """Validate the generated filter against the Daubechies relations."""
    if abs(lowpass.sum() - math.sqrt(2.0)) > 1e-10:
        raise AssertionError("lowpass taps do not sum to sqrt(2)")
    # Orthonormality at even shifts: sum_k h[k] h[k+2m] = delta(m).
    m_max = lowpass.size // 2
    for m in range(m_max):
        acc = float(np.dot(lowpass[: lowpass.size - 2 * m], lowpass[2 * m:]))
        target = 1.0 if m == 0 else 0.0
        if abs(acc - target) > 1e-9:
            raise AssertionError(f"orthonormality fails at shift {2 * m}")
    # Discrete vanishing moments of the mirror filter, relative to the
    # moment's natural magnitude (k^m weights grow fast with m).
    highpass = _mirror(lowpass)
    k = np.arange(lowpass.size, dtype=np.float64)
    for moment in range(n_vanishing):
        weights = k**moment
        resid = abs(float(np.dot(weights, highpass)))
        scale = float(np.dot(weights, np.abs(highpass)))
        if resid > 1e-8 * max(scale, 1.0):
            raise AssertionError(f"moment {moment} does not vanish")


def _mirror(lowpass: np.ndarray) -> np.ndarray:
    m = lowpass.size
    signs = (-1.0) ** np.arange(m)
    return signs * lowpass[::-1]


def build_wavelet(n_vanishing: int) -> MotherWavelet:
    """Build the minimal-support Daubechies wavelet with the given number
    of vanishing moments.

    Filters are generated from the spectral-factorization recurrence and
    validated against the orthonormality and moment relations, so no
    hard-coded coefficient tables are involved.

    Raises:
        ParameterError: if n_vanishing is outside [1, 10].
    """
    if not isinstance(n_vanishing, (int, np.integer)) or isinstance(n_vanishing, bool):
        raise ParameterError("n_vanishing must be an integer")
    if not 1 <= n_vanishing <= MAX_VANISHING:
        raise ParameterError(
            f"n_vanishing={n_vanishing} unsupported (valid range 1..{MAX_VANISHING})"
        )
    lowpass = _daubechies_lowpass(int(n_vanishing))
    _check_filters(int(n_vanishing), lowpass)
    highpass = _mirror(lowpass)
    lowpass.setflags(write=False)
    highpass.setflags(write=False)
    return MotherWavelet(
        n_vanishing=int(n_vanishing),
        lowpass_taps=lowpass,
        highpass_taps=highpass,
        support_length=lowpass.size,
    )


@dataclass(frozen=True)
class WaveletPyramid:
    """Per-octave L1-normalized detail coefficients d(j, k), j = 1..J.

    coeffs[j-1][k] nominally covers samples [k 2^j, (k+1) 2^j); positions
    outside [valid_start[j-1], valid_stop[j-1]) are boundary-affected and
    must not enter any statistic.
    """

    coeffs: tuple
    valid_start: tuple
    valid_stop: tuple
    source_length: int
    sampling_rate: float
    wavelet: MotherWavelet
    source_scale: float = 1.0
    label: str = ""
    normalization: str = field(default="l1")

    @property
    def max_octave(self) -> int:
        return len(self.coeffs)

    @property
    def n_valid(self) -> tuple:
        return tuple(
            max(0, stop - start)
            for start, stop in zip(self.valid_start, self.valid_stop)
        )

    def level(self, j: int) -> np.ndarray:
        """All coefficients at octave j (including boundary-affected ones)."""
        if not 1 <= j <= self.max_octave:
            raise ScaleRangeError(f"octave {j} outside 1..{self.max_octave}")
        return self.coeffs[j - 1]

    def valid_slice(self, j: int) -> slice:
        if not 1 <= j <= self.max_octave:
            raise ScaleRangeError(f"octave {j} outside 1..{self.max_octave}")
        return slice(self.valid_start[j - 1], self.valid_stop[j - 1])

    def valid_values(self, j: int) -> np.ndarray:
        """Boundary-free coefficients at octave j."""
        return self.level(j)[self.valid_slice(j)]

    def rescaled(self, normalization: str) -> "WaveletPyramid":
        """Exact conversion between the L1 and L2 coefficient conventions.

        Level j is multiplied by 2^(j/2) when going L1 -> L2 and by
        2^(-j/2) when going back.
        """
        if normalization not in ("l1", "l2"):
            raise ParameterError(f"unknown normalization {normalization!r}")
        if normalization == self.normalization:
            return self
        sign = +0.5 if normalization == "l2" else -0.5
        coeffs = tuple(
            c * 2.0 ** (sign * j) for j, c in enumerate(self.coeffs, start=1)
        )
        return WaveletPyramid(
            coeffs=coeffs,
            valid_start=self.valid_start,
            valid_stop=self.valid_stop,
            source_length=self.source_length,
            sampling_rate=self.sampling_rate,
            wavelet=self.wavelet,
            source_scale=self.source_scale,
            label=self.label,
            normalization=normalization,
        )


def max_feasible_octave(n_samples: int, wavelet: MotherWavelet) -> int:
    """Coarsest octave J such that n_samples >= support_length * 2^J."""
    if n_samples < 2 * wavelet.support_length:
        return 0
    return int(math.floor(math.log2(n_samples / wavelet.support_length)))


def dwt(signal: Signal, wavelet: MotherWavelet, max_octave: int) -> WaveletPyramid:
    """Decimating pyramidal transform over octaves 1..max_octave.

    The input is implicitly zero-extended; outputs whose filter support
    reaches outside the observed samples are retained in the arrays but
    flagged invalid.  Coefficients are rescaled to the L1 convention.

    Raises:
        ScaleRangeError: signal too short for max_octave; the message names
            the maximum feasible octave.
    """
    if max_octave < 1:
        raise ParameterError("max_octave must be >= 1")
    n = len(signal)
    feasible = max_feasible_octave(n, wavelet)
    if max_octave > feasible:
        raise ScaleRangeError(
            f"signal {signal.label!r} of length {n} supports at most octave "
            f"{feasible} with {wavelet.name} (requested {max_octave})"
        )

    lowpass = wavelet.lowpass_taps
    highpass = wavelet.highpass_taps
    m = wavelet.support_length

    approx = signal.samples
    # Contiguous range of approximation samples untouched by the boundary.
    a_first, a_last = 0, n - 1

    coeffs = []
    starts = []
    stops = []
    for j in range(1, max_octave + 1):
        n_out = approx.size // 2
        full_d = np.convolve(approx, highpass, mode="full")
        full_a = np.convolve(approx, lowpass, mode="full")
        # Output t depends on inputs t-m+1 .. t; keep phase t = 2k+1.
        idx = 2 * np.arange(n_out) + 1
        detail = full_d[idx]
        next_approx = full_a[idx]

        # Valid t range: [a_first + m - 1, a_last].
        k_first = max(0, math.ceil((a_first + m - 2) / 2))
        k_last = min(n_out - 1, (a_last - 1) // 2)
        starts.append(min(k_first, n_out))
        stops.append(max(k_last + 1, starts[-1]))
        coeffs.append(detail * 2.0 ** (-j / 2.0))

        approx = next_approx
        a_first, a_last = k_first, k_last
        if k_last < k_first:
            raise ScaleRangeError(
                f"signal {signal.label!r}: no boundary-free coefficients at "
                f"octave {j}; maximum feasible octave is {j - 1}"
            )

    for arr in coeffs:
        arr.setflags(write=False)
    pyramid = WaveletPyramid(
        coeffs=tuple(coeffs),
        valid_start=tuple(starts),
        valid_stop=tuple(stops),
        source_length=n,
        sampling_rate=signal.sampling_rate,
        wavelet=wavelet,
        source_scale=float(np.max(np.abs(signal.samples))),
        label=signal.label,
    )
    n_valid = pyramid.n_valid
    if any(b >= a for a, b in zip(n_valid, n_valid[1:])):
        raise ScaleRangeError(
            f"signal {signal.label!r}: valid coefficient counts {n_valid} are "
            "not strictly decreasing; reduce max_octave"
        )
    return pyramid


def sup_magnitudes(pyramid: WaveletPyramid, j1: int, j2: int) -> np.ndarray:
    """Per-octave suprema of |d(j, k)| over the valid coefficients, j1..j2."""
    if not 1 <= j1 < j2 <= pyramid.max_octave:
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside pyramid range 1..{pyramid.max_octave}"
        )
    # Details of a constant (or low-degree polynomial) input vanish only to
    # roundoff; measure against the input amplitude, not absolute zero.
    floor = 1e-12 * pyramid.source_scale
    sups = []
    for j in range(j1, j2 + 1):
        values = pyramid.valid_values(j)
        if values.size == 0:
            raise ScaleRangeError(f"no valid coefficients at octave {j}")
        sup = float(np.max(np.abs(values)))
        if sup <= floor:
            raise DegenerateInputError(
                f"wavelet coefficients at octave {j} vanish relative to the "
                "signal amplitude; no resolvable fluctuations"
            )
        sups.append(sup)
    return np.array(sups)
