"""Wavelet-leader multifractal formalism.

Leaders, structure functions, scaling exponents zeta(q), log-cumulants c_p,
and the multifractal spectrum D(h).  The leader at position (j, k) is the
supremum of 2^(gamma j') |d(j', k')| over all dyadic intervals at scales
j' <= j contained in the 3-interval neighborhood of (j, k); the gamma
weighting acts as fractional integration and is undone on the estimates
(zeta(q) -> zeta(q, gamma) - gamma q, c1 -> c1^(gamma) - gamma).

Exponent referencing: a stationary, noise-like series is modeled as the
increment process of an underlying walk, and its scale-free fingerprint is
conventionally quoted for that walk (c1 close to the Hurst exponent of the
walk).  multifractal_estimate takes an explicit reference_shift (0 to report
the series' own exponents, 1 to report its cumulative process) so the
composition in `pipeline` can match the spectrum-side Hurst convention.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, ScaleRangeError
from .scaling import _ols_design, _ols_fit, fit_loglog
from .wavelet import WaveletPyramid, sup_magnitudes

DEFAULT_Q_GRID = (-5.0, -4.0, -3.0, -2.0, -1.0, -0.5, -0.25, 0.0,
                  0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
MIN_CUMULANT_COUNT = 8
MAX_P = 4
LEGENDRE_GRID_SIZE = 513
LEGENDRE_MARGIN = 0.1


def global_regularity(pyramid: WaveletPyramid, j1: int, j2: int) -> float:
    """Slope of log2(sup_k |d(j, k)|) against j over j1..j2.

    Estimates the minimal uniform regularity h_m of the series; negative
    values flag noise-like data that needs a gamma correction before leader
    analysis.
    """
    sups = sup_magnitudes(pyramid, j1, j2)
    fit = fit_loglog(list(zip(range(j1, j2 + 1), sups)), j1, j2)
    return fit.slope


def select_gamma(h_min: float, mode: str = "auto", value: float | None = None,
                 eps: float = 0.1) -> float:
    """Weight exponent for the leaders: 0 if h_min > 0, else -h_min + eps.

    mode='fixed' bypasses the rule and returns `value` (must be >= 0).
    """
    _check_gamma(mode, value, eps)
    if mode == "fixed":
        return float(value)
    if h_min > 0:
        return 0.0
    return float(-h_min + eps)


def _check_gamma(mode: str, value: float | None, eps: float) -> None:
    """Raise ParameterError unless select_gamma accepts mode, value, eps."""
    if mode == "fixed":
        if value is None or value < 0:
            raise ParameterError(f"fixed gamma value must be >= 0, got {value}")
    elif mode != "auto":
        raise ParameterError(f"unknown gamma mode {mode!r}")
    elif not eps > 0:
        raise ParameterError(f"eps={eps} must be > 0 in auto mode")


@dataclass(frozen=True)
class LeaderPyramid:
    """Per-octave gamma-weighted wavelet leaders with validity ranges.

    leaders[j-1][k] aligns with the source pyramid's coefficient grid;
    entries outside [valid_start, valid_stop) depend on boundary-affected
    coefficients.  Valid leaders are strictly positive: an exactly zero
    leader (degenerate input) is excluded rather than crashing negative-q
    moments.
    """

    leaders: tuple
    valid_start: tuple
    valid_stop: tuple
    gamma: float

    @property
    def max_octave(self) -> int:
        return len(self.leaders)

    def level(self, j: int) -> np.ndarray:
        if not 1 <= j <= self.max_octave:
            raise ScaleRangeError(f"octave {j} outside 1..{self.max_octave}")
        return self.leaders[j - 1]

    def valid_values(self, j: int) -> np.ndarray:
        vals = self.level(j)[self.valid_start[j - 1]:self.valid_stop[j - 1]]
        return vals[vals > 0.0]


def compute_leaders(pyramid: WaveletPyramid, gamma: float) -> LeaderPyramid:
    """Leaders over the 3-interval dyadic neighborhoods, all octaves.

    Implemented as the usual two-pass recursion: per-interval suprema over
    contained finer-scale intervals, then a max over the three neighboring
    intervals.  Positions whose neighborhood touches a boundary-affected
    coefficient at any contributing scale are invalid.  Trailing octaves
    with no valid position are dropped.
    """
    if gamma < 0:
        raise ParameterError(f"gamma={gamma} must be >= 0")
    if pyramid.max_octave < 2:
        raise ParameterError("leader analysis needs a pyramid with >= 2 octaves")

    leaders = []
    starts = []
    stops = []
    sv = None
    sv_start = sv_stop = 0
    for j in range(1, pyramid.max_octave + 1):
        weighted = 2.0 ** (gamma * j) * np.abs(pyramid.level(j))
        w_start = pyramid.valid_start[j - 1]
        w_stop = pyramid.valid_stop[j - 1]
        if j == 1:
            sv, sv_start, sv_stop = weighted, w_start, w_stop
        else:
            n_out = weighted.size
            child = sv[: 2 * n_out]
            interval_sup = np.maximum(
                weighted,
                np.maximum(child[0::2][:n_out], child[1::2][:n_out]),
            )
            # children 2k and 2k+1 must both be valid
            child_start = (sv_start + 1) // 2
            child_stop = sv_stop // 2
            sv = interval_sup
            sv_start = max(w_start, child_start)
            sv_stop = min(w_stop, child_stop)

        values = np.zeros_like(sv)
        if sv.size >= 3:
            values[1:-1] = np.maximum(sv[:-2], np.maximum(sv[1:-1], sv[2:]))
        start = max(sv_start + 1, 1)
        stop = min(sv_stop - 1, max(sv.size - 1, 0))
        if stop <= start:
            break
        values.setflags(write=False)
        leaders.append(values)
        starts.append(start)
        stops.append(stop)

    if len(leaders) < 1:
        raise ScaleRangeError("no octave retains a valid leader; signal too short")
    return LeaderPyramid(
        leaders=tuple(leaders), valid_start=tuple(starts), valid_stop=tuple(stops),
        gamma=float(gamma),
    )


@dataclass(frozen=True)
class StructureFunctions:
    """Empirical q-th moments of the leaders, octaves x q grid."""

    q_grid: np.ndarray
    values: np.ndarray       # shape (max_octave, len(q_grid))
    log2_values: np.ndarray
    gamma: float

    @property
    def max_octave(self) -> int:
        return self.values.shape[0]


def structure_functions(leaders: LeaderPyramid, q_grid) -> StructureFunctions:
    """S(j, q) = mean over valid leaders of L^q, for every octave."""
    q, values = _moments(leaders, q_grid, 1, leaders.max_octave)
    return StructureFunctions(
        q_grid=q, values=values, log2_values=np.log2(values),
        gamma=leaders.gamma,
    )


def _moments(leaders: LeaderPyramid, q_grid, j1: int, j2: int) -> tuple:
    """(q, S), S[j - j1] the row S(j, .) of octave j, for j1..j2.  Every
    octave of the pyramid, fitted or not, must hold a valid leader."""
    q = np.asarray(q_grid, dtype=np.float64)
    if q.size == 0:
        raise ParameterError("q_grid is empty")
    valid = [leaders.valid_values(j) for j in range(1, leaders.max_octave + 1)]
    for j, v in enumerate(valid, start=1):
        if v.size == 0:
            raise ScaleRangeError(f"octave {j} has no valid leaders")
    if not 1 <= j1 <= j2 <= len(valid):
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside available 1..{len(valid)}")
    return q, np.vstack([np.mean(v[:, None] ** q[None, :], axis=0)
                         for v in valid[j1 - 1:j2]])


def _zeta(q: np.ndarray, rows: np.ndarray, j1: int, j2: int,
          offset: float) -> tuple:
    """(fits, (q, zeta_hat) rows): one fit_loglog per q column of the S(j, q)
    rows of octaves j1..j2, and zeta_hat = slope - offset q, offset being
    gamma less the reference shift."""
    fits = [fit_loglog(zip(range(j1, j2 + 1), column), j1, j2)
            for column in rows.T]
    return fits, np.column_stack([q, [f.slope for f in fits] - offset * q])


def zeta_exponents(sf: StructureFunctions, j1: int, j2: int) -> np.ndarray:
    """Per-q slope of log2 S(j, q) over j1..j2, gamma-corrected.

    Returns an array of (q, zeta_hat) rows with
    zeta_hat(q) = zeta_hat(q, gamma) - gamma q.
    """
    if not 1 <= j1 < j2 <= sf.max_octave:
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside available 1..{sf.max_octave}"
        )
    return _zeta(sf.q_grid, sf.values[j1 - 1:j2], j1, j2, sf.gamma)[1]


def log_cumulants(leaders: LeaderPyramid, p_max: int, j1: int, j2: int):
    """Log-cumulant exponents c_p from per-octave cumulants of ln L.

    Per octave, unbiased sample cumulants (k-statistics) of ln L(j, .) are
    regressed against ln 2^j by OLS; the gamma correction applies to c_1
    only.  The k-statistics come from power sums by the formulas of
    scipy.stats' k-statistic function and are bitwise equal to it.  Returns
    (c_p array ordered p = 1..p_max, diagnostics dict with per-p r_squared
    and per-octave counts).

    Raises:
        ScaleRangeError: some octave in range has fewer than 8 valid
            leaders; the message proposes the largest workable j2.
    """
    if not 1 <= p_max <= MAX_P:
        raise ParameterError(f"p_max={p_max} outside 1..{MAX_P}")
    if not 1 <= j1 < j2 <= leaders.max_octave:
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside available 1..{leaders.max_octave}"
        )
    octaves = range(j1, j2 + 1)
    valid = [leaders.valid_values(j) for j in octaves]
    _require_cumulant_counts({j: v.size for j, v in zip(octaves, valid)})
    cum = np.array([_k_statistics(np.log(v), p_max)
                    for v in valid])  # (n_octaves, p_max)

    x = np.array(octaves, dtype=np.float64) * math.log(2.0)
    design = _ols_design(x, None)
    c_p = np.empty(p_max)
    r2 = np.empty(p_max)
    for p in range(p_max):
        slope, _, _, rsq = _ols_fit(design, cum[:, p])
        c_p[p] = slope
        r2[p] = rsq
    c_p[0] -= leaders.gamma
    diagnostics = {
        "r_squared": r2,
        "counts": np.array([v.size for v in valid]),
    }
    return c_p, diagnostics


def _k_statistics(x: np.ndarray, p_max: int) -> tuple:
    """k-statistics k_1..k_p_max of x from the power sums S_r = sum(x**r) by
    the formulas of scipy.stats' k-statistic function, in its operation
    order, so each equals it bitwise (centred moments round differently)."""
    n = x.size
    s1, s2, s3, s4 = (float(np.sum(x**r)) if r <= p_max else 0.0
                      for r in range(1, MAX_P + 1))
    k = (s1 * 1.0/n,
         (n*s2 - s1**2.0) / (n*(n - 1.0)),
         (2*s1**3 - 3*n*s1*s2 + n*n*s3) / (n*(n - 1.0)*(n - 2.0)),
         (-6*s1**4 + 12*n*s1**2 * s2 - 3*n*(n-1.0)*s2**2
          - 4*n*(n+1)*s1*s3 + n*n*(n+1)*s4) / (n*(n-1.0)*(n-2.0)*(n-3.0)))
    return k[:p_max]


def _require_cumulant_counts(counts: dict, prefix: str = "") -> None:
    """Raise ScaleRangeError, prefixed, if an octave has fewer than
    MIN_CUMULANT_COUNT valid leaders in counts {octave: count}."""
    thin = [j for j, c in counts.items() if c < MIN_CUMULANT_COUNT]
    if thin:
        usable = [j for j in range(min(counts), min(thin))
                  if counts[j] >= MIN_CUMULANT_COUNT]
        hint = (f"; largest workable j2 is {max(usable)}"
                if len(usable) >= 2 else "")
        raise ScaleRangeError(
            f"{prefix}octave {min(thin)} has {counts[min(thin)]} valid leaders "
            f"(< {MIN_CUMULANT_COUNT}) for sample cumulants{hint}"
        )


def legendre_spectrum(zeta_pairs) -> np.ndarray:
    """Discrete Legendre transform D(h) = min_q (1 + q h - zeta(q)).

    The h grid spans the range of discrete slopes of zeta with a 0.1 margin;
    only points with D >= 0 are returned, as (h, D) rows.  A q grid that is
    all one sign cannot reach both spectrum branches; a warning is emitted
    and the reachable half is returned.
    """
    pairs = np.asarray(zeta_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2 or pairs.shape[0] < 2:
        raise ParameterError("zeta_pairs must be an (n, 2) array with n >= 2")
    order = np.argsort(pairs[:, 0])
    q = pairs[order, 0]
    zeta = pairs[order, 1]
    if q.min() >= 0 or q.max() <= 0:
        warnings.warn(
            "q grid is single-signed; only one branch of D(h) is reachable",
            stacklevel=2,
        )
    slopes = np.diff(zeta) / np.diff(q)
    h_grid = np.linspace(slopes.min() - LEGENDRE_MARGIN,
                         slopes.max() + LEGENDRE_MARGIN, LEGENDRE_GRID_SIZE)
    d_vals = np.min(1.0 + np.outer(h_grid, q) - zeta[None, :], axis=1)
    keep = d_vals >= 0.0
    return np.column_stack([h_grid[keep], d_vals[keep]])


def parabolic_spectrum(c1: float, c2: float, h_grid) -> np.ndarray:
    """Log-normal approximation D(h) = 1 - (h - c1)^2 / (2 |c2|).

    c2 must be <= 0; c2 = 0 degenerates to the single point (c1, 1).
    Returns (h, D) rows clipped to D >= 0.
    """
    if c2 > 0:
        raise ParameterError(f"c2={c2} must be <= 0")
    if c2 == 0:
        return np.array([[c1, 1.0]])
    h = np.asarray(h_grid, dtype=np.float64)
    d = 1.0 - (h - c1) ** 2 / (2.0 * abs(c2))
    keep = d >= 0.0
    return np.column_stack([h[keep], d[keep]])


@dataclass(frozen=True)
class MfEstimate:
    """Scale-free fingerprint of one series.

    zeta holds (q, zeta_hat) rows after the gamma correction and reference
    shift; c1/c2 likewise.  beta/hurst/stationary are filled by the pipeline
    from the second-order spectrum path and stay None when the estimate is
    built directly from a pyramid.
    """

    zeta: np.ndarray
    c1: float
    c2: float
    gamma: float
    h_min: float
    octave_range: tuple
    spectrum: np.ndarray
    diagnostics: dict
    higher_cumulants: np.ndarray | None = None
    reference_shift: int = 0
    beta: float | None = None
    hurst: float | None = None
    stationary: bool | None = None


def multifractal_estimate(pyramid: WaveletPyramid, j1: int, j2: int,
                          q_grid=DEFAULT_Q_GRID, gamma_mode: str = "fixed",
                          gamma_value: float | None = 2.0, gamma_eps: float = 0.1,
                          p_max: int = 2, reference_shift: int = 0) -> MfEstimate:
    """Full leader analysis of one pyramid.

    reference_shift = 1 quotes the exponents of the series' cumulative
    process (appropriate for stationary increment-like data); 0 quotes the
    series' own exponents.
    """
    if reference_shift not in (0, 1):
        raise ParameterError(f"reference_shift={reference_shift} must be 0 or 1")
    h_min = global_regularity(pyramid, j1, j2)
    gamma = select_gamma(h_min, mode=gamma_mode, value=gamma_value, eps=gamma_eps)
    leaders = compute_leaders(pyramid, gamma)
    q, rows = _moments(leaders, q_grid, j1, j2)
    fits, zeta = _zeta(q, rows, j1, j2, leaders.gamma - reference_shift)
    c_p, cum_diag = log_cumulants(leaders, p_max, j1, j2)
    c_p = c_p.copy()
    c_p[0] += reference_shift
    spectrum = legendre_spectrum(zeta)
    diagnostics = {
        "zeta_r_squared": np.array([f.r_squared for f in fits]),
        "cumulant_r_squared": cum_diag["r_squared"],
        "leader_counts": cum_diag["counts"],
    }
    return MfEstimate(
        zeta=zeta,
        c1=float(c_p[0]),
        c2=float(c_p[1]) if p_max >= 2 else float("nan"),
        gamma=gamma,
        h_min=h_min,
        octave_range=(j1, j2),
        spectrum=spectrum,
        diagnostics=diagnostics,
        higher_cumulants=c_p[2:] if p_max > 2 else None,
        reference_shift=reference_shift,
    )
