"""Ground-truth signal generators: fGn, fBm, and a log-normal multifractal
random walk.

All generators are exact-covariance circulant-embedding constructions,
deterministic given GeneratorSpec.seed, so they can serve as oracles for
every estimator in the package.  The random-walk cumulant identities used
by theoretical_zeta are derived in docs/mrw_cumulants.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ParameterError
from .wavelet import Signal

_OMEGA_STREAM_TAG = 0x6F6D6567  # distinct child stream for the cascade field

KINDS = ("fgn", "fbm", "mrw")


@dataclass(frozen=True)
class GeneratorSpec:
    """Parameters of one synthetic realization.

    length is a power of two (circulant embedding requirement); lambda2 is
    the cascade intermittency (mrw only); integral_scale is the correlation
    horizon of the log-weight field in samples (mrw only, defaults to the
    signal length).
    """

    kind: str
    hurst: float
    length: int
    seed: int
    lambda2: float = 0.0
    integral_scale: int | None = None
    sampling_rate: float = 1.0

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ParameterError(f"unknown generator kind {self.kind!r}")
        if not 0.0 < self.hurst < 1.0:
            raise ParameterError(f"hurst={self.hurst} outside (0, 1)")
        if self.length < 2:
            raise ParameterError("length must be >= 2")
        if self.length & (self.length - 1):
            raise ParameterError(f"length={self.length} is not a power of two "
                                 "(circulant embedding requirement)")
        if self.kind in ("fgn", "fbm"):
            if self.lambda2 not in (0, 0.0):
                raise ParameterError(f"{self.kind} takes no lambda2")
        else:
            # lambda2 = 0 is the degenerate cascade (reduces to fgn increments).
            if not 0.0 <= self.lambda2 <= 0.5:
                raise ParameterError(
                    f"lambda2={self.lambda2} outside [0, 0.5]; cascade moments "
                    "degrade beyond that"
                )
            scale = self.length if self.integral_scale is None else self.integral_scale
            if not 2 <= scale <= self.length:
                raise ParameterError(
                    f"integral_scale={scale} must lie in [2, length]"
                )


def _fgn_autocovariance(hurst: float, lags: np.ndarray) -> np.ndarray:
    k = lags.astype(np.float64)
    two_h = 2.0 * hurst
    return 0.5 * (
        np.abs(k + 1.0) ** two_h - 2.0 * np.abs(k) ** two_h + np.abs(k - 1.0) ** two_h
    )


def _circulant_root(cov_row: np.ndarray, clip_tol: float | None) -> np.ndarray:
    """Read-only square roots of the eigenvalues of the circulant embedding
    of cov_row, the autocovariance at lags 0..n.  When clip_tol is None the
    embedding must be positive semidefinite; otherwise negative eigenvalues
    are clipped at zero and their energy fraction asserted below clip_tol.
    """
    circ = np.concatenate([cov_row, cov_row[-2:0:-1]])  # length 2n
    eigs = np.fft.fft(circ).real
    if clip_tol is None:
        if eigs.min() < -1e-9 * max(1.0, eigs.max()):
            raise AssertionError(
                f"circulant embedding not positive semidefinite (min eig {eigs.min()})"
            )
    else:
        neg = -eigs[eigs < 0.0].sum()
        total = np.abs(eigs).sum()
        if total > 0 and neg > clip_tol * total:
            raise AssertionError(
                f"clipped eigenvalue energy {neg / total:.3e} exceeds {clip_tol:.1e}"
            )
    root = np.sqrt(np.maximum(eigs, 0.0))
    root.setflags(write=False)
    return root


@lru_cache(maxsize=16)  # a study draws many seeds from few parameter sets
def _fgn_root(hurst: float, length: int) -> np.ndarray:
    return _circulant_root(
        _fgn_autocovariance(hurst, np.arange(length + 1)), clip_tol=None)


@lru_cache(maxsize=16)
def _omega_root(lambda2: float, scale: int, length: int) -> np.ndarray:
    lags = np.arange(length + 1, dtype=np.float64)
    cov = np.zeros(length + 1)
    inside = lags < scale
    cov[inside] = lambda2 * np.log(scale / (lags[inside] + 1.0))
    return _circulant_root(cov, clip_tol=1e-6)


def _circulant_draw(root: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Exact stationary Gaussian sample from the root of its embedding."""
    n = root.size // 2
    z_re = rng.standard_normal(n + 1)
    z_im = rng.standard_normal(n + 1)
    z = np.empty(2 * n, dtype=np.complex128)
    z[0] = z_re[0]
    z[n] = z_re[n]
    half = (z_re[1:n] + 1j * z_im[1:n]) / math.sqrt(2.0)
    z[1:n] = half
    z[n + 1:] = np.conj(half[::-1])
    sample = np.fft.ifft(root * z) * math.sqrt(2 * n)
    return sample.real[:n]


def gen_fgn(spec: GeneratorSpec) -> Signal:
    """Exact unit-variance fractional Gaussian noise.

    The autocovariance rho(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H)/2 is embedded
    in a circulant matrix whose eigenvalues are provably nonnegative for
    H in (0, 1) at power-of-two lengths, so the sample carries the target
    covariance exactly rather than approximately.
    """
    if spec.kind != "fgn":
        raise ParameterError(f"gen_fgn called with kind={spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    samples = _circulant_draw(_fgn_root(spec.hurst, spec.length), rng)
    return Signal(samples, spec.sampling_rate,
                  label=f"fgn(H={spec.hurst},seed={spec.seed})")


def gen_fbm(spec: GeneratorSpec) -> Signal:
    """Fractional Brownian motion as the cumulative sum of exact fGn.

    The walk starts at zero before the first increment, so
    np.diff(x, prepend=0) reproduces the fGn sample bit for bit.
    """
    if spec.kind != "fbm":
        raise ParameterError(f"gen_fbm called with kind={spec.kind!r}")
    rng = np.random.default_rng(spec.seed)
    root = _fgn_root(spec.hurst, spec.length)
    samples = np.cumsum(_circulant_draw(root, rng))
    return Signal(samples, spec.sampling_rate,
                  label=f"fbm(H={spec.hurst},seed={spec.seed})")


def gen_mrw(spec: GeneratorSpec) -> Signal:
    """Log-normal multifractal random walk.

    Increments are eps_k * exp(omega_k) with eps exact fGn(H) and omega an
    independent Gaussian field with logarithmic covariance
    cov(omega_i, omega_j) = lambda2 * ln(L / (|i-j| + 1)) for |i-j| < L.
    The mean of omega is set to -lambda2*ln(L)/2 so that exp(omega) has unit
    mean analytically.  With lambda2 = 0 the increments reduce to the fGn
    sample of the same seed, bit for bit.
    """
    if spec.kind != "mrw":
        raise ParameterError(f"gen_mrw called with kind={spec.kind!r}")
    n = spec.length
    scale = n if spec.integral_scale is None else spec.integral_scale

    rng_eps = np.random.default_rng(spec.seed)
    eps = _circulant_draw(_fgn_root(spec.hurst, n), rng_eps)

    rng_omega = np.random.default_rng([_OMEGA_STREAM_TAG, spec.seed])
    omega = _circulant_draw(_omega_root(spec.lambda2, scale, n), rng_omega)
    omega += -0.5 * spec.lambda2 * math.log(scale)

    samples = np.cumsum(eps * np.exp(omega))
    return Signal(
        samples, spec.sampling_rate,
        label=f"mrw(H={spec.hurst},l2={spec.lambda2},seed={spec.seed})",
    )


def generate(spec: GeneratorSpec) -> Signal:
    """Dispatch on spec.kind."""
    if spec.kind == "fgn":
        return gen_fgn(spec)
    if spec.kind == "fbm":
        return gen_fbm(spec)
    return gen_mrw(spec)


def theoretical_zeta(spec: GeneratorSpec, q: float) -> float:
    """Model scaling exponent zeta(q) of the generator's motion increments.

    fgn/fbm are H-self-similar: zeta(q) = qH, defined for q > -1 (absolute
    Gaussian moments).  The log-normal random walk follows the quadratic
    form zeta(q) = c1 q + c2 q^2/2 with c2 = -lambda2 and c1 = H + lambda2
    (derived in docs/mrw_cumulants.md for the implemented construction),
    valid while the associated Legendre spectrum stays nonnegative,
    i.e. |q| <= sqrt(2/lambda2).
    """
    if spec.kind in ("fgn", "fbm"):
        if q <= -1.0:
            raise ParameterError(
                f"q={q} outside the moment-existence range q > -1 for {spec.kind}"
            )
        return float(q * spec.hurst)

    q_max = math.inf if spec.lambda2 == 0 else math.sqrt(2.0 / spec.lambda2)
    if q <= -1.0 or abs(q) > q_max:
        raise ParameterError(
            f"q={q} outside the mrw validity range (-1, {q_max:.3f}]"
        )
    c1 = spec.hurst + spec.lambda2
    c2 = -spec.lambda2
    return float(c1 * q + 0.5 * c2 * q * q)
