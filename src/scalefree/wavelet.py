"""Discrete wavelet transform with Daubechies filters and L1 scaling normalization.

The decimating Mallat filter bank is computed with zero extension of the
input; every coefficient whose filter support overlaps a boundary is marked
invalid and excluded from downstream statistics.  Coefficients are stored in
the L1 convention (templates 2^(-j) psi0(2^(-j) t - k)), which is obtained
from the orthonormal filter-bank output by a 2^(-j/2) rescaling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache

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
        _check_rate(self.sampling_rate, f"signal {self.label!r}: ")
        object.__setattr__(self, "samples", samples)

    def __len__(self):
        return self.samples.size


def _check_rate(sampling_rate: float, prefix: str = "") -> None:
    if not 0 < sampling_rate < math.inf:
        raise ParameterError(
            f"{prefix}sampling_rate: {sampling_rate} must be finite and > 0")


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


def _check_vanishing(n_vanishing: int, prefix: str = "") -> None:
    if not isinstance(n_vanishing, (int, np.integer)) or isinstance(n_vanishing, bool):
        raise ParameterError(f"{prefix}n_vanishing: {n_vanishing!r} not an integer")
    if not 1 <= n_vanishing <= MAX_VANISHING:
        raise ParameterError(
            f"{prefix}n_vanishing: {n_vanishing} outside 1..{MAX_VANISHING}")


def build_wavelet(n_vanishing: int) -> MotherWavelet:
    """Build the minimal-support Daubechies wavelet with the given number
    of vanishing moments.

    Filters are generated from the spectral-factorization recurrence and
    validated against the orthonormality and moment relations, so no
    hard-coded coefficient tables are involved.

    Raises:
        ParameterError: if n_vanishing is outside [1, 10].
    """
    _check_vanishing(n_vanishing)
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
    must not enter any statistic.  source_scale is the input's largest
    magnitude, against which vanishing coefficients are judged.
    """

    coeffs: tuple
    valid_start: tuple
    valid_stop: tuple
    source_scale: float = 1.0

    @property
    def max_octave(self) -> int:
        return len(self.coeffs)

    def level(self, j: int) -> np.ndarray:
        """All coefficients at octave j (including boundary-affected ones)."""
        if not 1 <= j <= self.max_octave:
            raise ScaleRangeError(f"octave {j} outside 1..{self.max_octave}")
        return self.coeffs[j - 1]

    def valid_values(self, j: int) -> np.ndarray:
        """Boundary-free coefficients at octave j."""
        return self.level(j)[self.valid_start[j - 1]:self.valid_stop[j - 1]]

    @cached_property
    def _sups(self) -> dict:
        """sup_magnitudes' memo: octave -> sup_k |d(j, k)| over valid k."""
        return {}


def max_feasible_octave(n_samples: int, wavelet: MotherWavelet) -> int:
    """Coarsest octave J such that n_samples >= support_length * 2^J."""
    if n_samples < 2 * wavelet.support_length:
        return 0
    return int(math.floor(math.log2(n_samples / wavelet.support_length)))


def _check_feasible(n: int, wavelet: MotherWavelet, max_octave: int,
                    prefix: str) -> None:
    """The feasibility rule: n samples carry octaves up to
    max_feasible_octave; ScaleRangeError, prefixed, beyond it."""
    feasible = max_feasible_octave(n, wavelet)
    if max_octave > feasible:
        raise ScaleRangeError(
            f"{prefix}length {n} supports octaves up to {feasible} with "
            f"{wavelet.name}, requested {max_octave}")


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
    _check_feasible(len(signal), wavelet, max_octave,
                    f"signal {signal.label!r}: ")
    layout = _dwt_layout(len(signal), wavelet.support_length, max_octave)
    approx = signal.samples
    coeffs = []
    for phase, _, _, scale in layout:
        coeffs.append(np.convolve(approx, wavelet.highpass_taps)[phase] * scale)
        coeffs[-1].setflags(write=False)
        approx = np.convolve(approx, wavelet.lowpass_taps)[phase]
    return WaveletPyramid(
        coeffs=tuple(coeffs),
        valid_start=tuple(a for _, a, _, _ in layout),
        valid_stop=tuple(b for _, _, b, _ in layout),
        source_scale=float(np.max(np.abs(signal.samples))),
    )


@lru_cache(maxsize=32)
def _dwt_layout(n: int, m: int, max_octave: int) -> tuple:
    """Per octave j = 1..max_octave of a transform of n samples with m taps:
    (slice of the kept phase t = 2k + 1 of the full convolution, valid
    start, valid stop, L1 rescaling 2^(-j/2)); up to max_feasible_octave
    every octave keeps at least 2 boundary-free coefficients."""
    layout = []
    a_first, a_last = 0, n - 1  # approximation samples free of the boundary
    for j in range(1, max_octave + 1):
        n = n // 2
        # output t depends on inputs t-m+1 .. t: valid t in [a_first + m - 1, a_last]
        a_first = max(0, math.ceil((a_first + m - 2) / 2))
        a_last = min(n - 1, (a_last - 1) // 2)
        layout.append((slice(1, 2 * n, 2), a_first, a_last + 1, 2.0 ** (-j / 2.0)))
    return tuple(layout)


def sup_magnitudes(pyramid: WaveletPyramid, j1: int, j2: int) -> np.ndarray:
    """Per-octave suprema of |d(j, k)| over the valid coefficients, j1..j2."""
    if not 1 <= j1 < j2 <= pyramid.max_octave:
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside pyramid range 1..{pyramid.max_octave}"
        )
    # Details of a constant (or low-degree polynomial) input vanish only to
    # roundoff; measure against the input amplitude, not absolute zero.
    floor = 1e-12 * pyramid.source_scale
    memo = pyramid._sups  # each octave's supremum taken once per pyramid
    sups = []
    for j in range(j1, j2 + 1):
        if j not in memo:
            values = pyramid.valid_values(j)
            if values.size == 0:
                raise ScaleRangeError(f"no valid coefficients at octave {j}")
            memo[j] = float(np.maximum.reduce(np.abs(values)))
        sup = memo[j]
        if sup <= floor:
            raise DegenerateInputError(
                f"wavelet coefficients at octave {j} vanish relative to the "
                "signal amplitude; no resolvable fluctuations"
            )
        sups.append(sup)
    return np.array(sups)
