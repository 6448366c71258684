"""Ground-truth signal generators: fGn, fBm, and a log-normal multifractal
random walk.

All generators are exact-covariance circulant-embedding constructions,
deterministic given GeneratorSpec.seed, so they can serve as oracles for
every estimator in the package.  The random walk's model log-cumulants
(c1 = H + lambda2, c2 = -lambda2) are derived in docs/mrw_cumulants.md.
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

    length is a power of two (circulant embedding requirement); seed is an
    integer >= 0; lambda2 is the cascade intermittency (mrw only);
    integral_scale is the correlation horizon of the log-weight field in
    samples (mrw only, defaults to the signal length).
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
        if (not isinstance(self.seed, (int, np.integer))
                or isinstance(self.seed, bool) or self.seed < 0):
            raise ParameterError(f"seed={self.seed!r} must be an integer >= 0")
        if self.kind in ("fgn", "fbm"):
            if self.lambda2 not in (0, 0.0):
                raise ParameterError(f"{self.kind} takes no lambda2")
            if self.integral_scale is not None:
                raise ParameterError(f"{self.kind} takes no integral_scale")
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
    # Hermitian z in place: x * (1 / sqrt 2) has the bits of complex x / sqrt 2
    z = np.empty(2 * n, dtype=np.complex128)
    re, im = z.real, z.imag
    re[0], re[n], im[0], im[n] = z_re[0], z_re[n], 0.0, 0.0
    np.multiply(z_re[1:n], 1.0 / math.sqrt(2.0), out=re[1:n])
    np.multiply(z_im[1:n], 1.0 / math.sqrt(2.0), out=im[1:n])
    re[n + 1:] = re[n - 1:0:-1]
    np.negative(im[n - 1:0:-1], out=im[n + 1:])
    z *= root
    # n new samples: a view of the real part would pin the 2n complex buffer
    return np.fft.ifft(z).real[:n] * math.sqrt(2 * n)


def generate(spec: GeneratorSpec) -> Signal:
    """The realization of spec, the one generator body: exact fGn drawn on
    the seed's stream, its cumulative sum for fbm, or for mrw the walk of
    the fGn weighted by exp(omega), omega drawn on a child stream."""
    n = spec.length
    samples = _circulant_draw(_fgn_root(spec.hurst, n),
                              np.random.default_rng(spec.seed))
    if spec.kind == "fbm":
        np.cumsum(samples, out=samples)
    elif spec.kind == "mrw":
        scale = n if spec.integral_scale is None else spec.integral_scale
        omega = _circulant_draw(
            _omega_root(spec.lambda2, scale, n),
            np.random.default_rng([_OMEGA_STREAM_TAG, spec.seed]))
        omega += -0.5 * spec.lambda2 * math.log(scale)
        np.exp(omega, out=omega)  # the walk is built in omega's buffer
        omega *= samples
        samples = np.cumsum(omega, out=omega)
    l2 = f"l2={spec.lambda2}," if spec.kind == "mrw" else ""
    return Signal(samples, spec.sampling_rate,
                  label=f"{spec.kind}(H={spec.hurst},{l2}seed={spec.seed})")


def gen_fgn(spec: GeneratorSpec) -> Signal:
    """Exact unit-variance fractional Gaussian noise.

    The autocovariance rho(k) = (|k+1|^2H - 2|k|^2H + |k-1|^2H)/2 is embedded
    in a circulant matrix whose eigenvalues are provably nonnegative for
    H in (0, 1) at power-of-two lengths, so the sample carries the target
    covariance exactly rather than approximately.
    """
    if spec.kind != "fgn":
        raise ParameterError(f"gen_fgn called with kind={spec.kind!r}")
    return generate(spec)


def gen_fbm(spec: GeneratorSpec) -> Signal:
    """Fractional Brownian motion as the cumulative sum of exact fGn.

    The walk starts at zero before the first increment, so
    np.diff(x, prepend=0) reproduces the fGn sample bit for bit.
    """
    if spec.kind != "fbm":
        raise ParameterError(f"gen_fbm called with kind={spec.kind!r}")
    return generate(spec)


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
    return generate(spec)

