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
from functools import cached_property

import numpy as np

from .errors import ParameterError, ScaleRangeError
from .scaling import _octave_design, _ols_fit, fit_loglog
from .wavelet import WaveletPyramid, sup_magnitudes

DEFAULT_Q_GRID = (-5.0, -4.0, -3.0, -2.0, -1.0, -0.5, -0.25, 0.0,
                  0.25, 0.5, 1.0, 2.0, 3.0, 4.0, 5.0)
MIN_CUMULANT_COUNT = 8
LEGENDRE_GRID_SIZE = 513
LEGENDRE_MARGIN = 0.1


def global_regularity(pyramid: WaveletPyramid, j1: int, j2: int) -> float:
    """Slope of log2(sup_k |d(j, k)|) against j over j1..j2.

    Estimates the minimal uniform regularity h_m of the series; negative
    values flag noise-like data that needs a gamma correction before leader
    analysis.
    """
    sups = sup_magnitudes(pyramid, j1, j2)
    return fit_loglog(sups, j1, j2).slope


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


def _check_gamma(mode: str, value: float | None, eps: float, prefix: str = "") -> None:
    """Raise ParameterError naming the key, after prefix, unless
    select_gamma takes these."""
    if mode == "fixed":
        if value is None or not 0 <= value < math.inf:
            raise ParameterError(
                f"{prefix}value: fixed gamma value must be >= 0 and finite, "
                f"got {value}")
    elif mode != "auto":
        raise ParameterError(f"{prefix}mode: unknown gamma mode {mode!r}")
    elif not 0 < eps < math.inf:
        raise ParameterError(
            f"{prefix}eps: {eps} must be > 0 and finite in auto mode")


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
        """The valid, strictly positive leaders of octave j, read-only."""
        self.level(j)  # the range check
        return self._valid[j - 1]

    @cached_property
    def _valid(self) -> tuple:
        """valid_values of every octave, filtered once per pyramid."""
        valid = tuple(v[a:b][v[a:b] > 0.0] for v, a, b
                      in zip(self.leaders, self.valid_start, self.valid_stop))
        for v in valid:
            v.setflags(write=False)
        return valid


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


def _moments(leaders: LeaderPyramid, q_grid, j1: int, j2: int) -> tuple:
    """(q, S): the structure functions S(j, q), the mean over the valid
    leaders of octave j of L^q, with S[j - j1] the row of octave j, for
    j1..j2.  Every octave of the pyramid, fitted or not, must hold a valid
    leader."""
    q = np.asarray(q_grid, dtype=np.float64)
    if q.size == 0:
        raise ParameterError("q_grid is empty")
    valid = leaders._valid
    for j, v in enumerate(valid, start=1):
        if v.size == 0:
            raise ScaleRangeError(f"octave {j} has no valid leaders")
    if not 1 <= j1 <= j2 <= len(valid):
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside available 1..{len(valid)}")
    # np.add.reduce / count is np.mean's arithmetic
    return q, np.vstack([np.add.reduce(v[:, None] ** q[None, :], 0) / v.size
                         for v in valid[j1 - 1:j2]])


def _zeta(q: np.ndarray, rows: np.ndarray, j1: int, j2: int,
          offset: float) -> tuple:
    """(fits, (q, zeta_hat) rows): one fit_loglog per q column of the S(j, q)
    rows of octaves j1..j2, and zeta_hat = slope - offset q, offset being
    gamma less the reference shift."""
    fits = [fit_loglog(column, j1, j2) for column in rows.T]
    return fits, np.column_stack([q, [f.slope for f in fits] - offset * q])


def log_cumulants(leaders: LeaderPyramid, j1: int, j2: int):
    """Log-cumulant exponents c1 and c2 from per-octave cumulants of ln L.

    Per octave, unbiased sample cumulants (k-statistics) of ln L(j, .) are
    regressed against ln 2^j by OLS; the gamma correction applies to c1
    only.  The k-statistics come from power sums by the formulas of
    scipy.stats' k-statistic function and are bitwise equal to it.  Returns
    (the array [c1, c2], diagnostics dict with their r_squared and the
    per-octave counts).

    Raises:
        ScaleRangeError: some octave in range has fewer than 8 valid
            leaders; the message proposes the largest workable j2.
    """
    if not 1 <= j1 < j2 <= leaders.max_octave:
        raise ScaleRangeError(
            f"octave range ({j1}, {j2}) outside available 1..{leaders.max_octave}"
        )
    valid = leaders._valid[j1 - 1:j2]
    _require_cumulant_counts([v.size for v in valid], j1)
    cum = np.array([_k_statistics(np.log(v)) for v in valid])  # (n_octaves, 2)

    design = _octave_design(j1, j2, math.log(2.0))  # on ln 2^j
    c_p = np.empty(2)
    r2 = np.empty(2)
    for p in range(2):
        slope, _, _, rsq = _ols_fit(design, cum[:, p])
        c_p[p] = slope
        r2[p] = rsq
    c_p[0] -= leaders.gamma
    diagnostics = {
        "r_squared": r2,
        "counts": np.array([v.size for v in valid]),
    }
    return c_p, diagnostics


def _k_statistics(x: np.ndarray) -> tuple:
    """k-statistics (k1, k2) of x from the power sums S_r = sum(x**r) by the
    formulas of scipy.stats' k-statistic function, in its operation order,
    so each equals it bitwise (centred moments round differently)."""
    n = x.size
    s1 = float(np.add.reduce(x))
    s2 = float(np.add.reduce(x**2))
    return s1 * 1.0/n, (n*s2 - s1**2.0) / (n*(n - 1.0))


def _require_cumulant_counts(counts, j1: int, prefix: str = "") -> None:
    """Raise ScaleRangeError, prefixed, if an octave has fewer than
    MIN_CUMULANT_COUNT valid leaders; counts[i] is the count of octave
    j1 + i."""
    for j, count in enumerate(counts, start=j1):
        if count < MIN_CUMULANT_COUNT:
            hint = f"; largest workable j2 is {j - 1}" if j - j1 >= 2 else ""
            raise ScaleRangeError(
                f"{prefix}octave {j} has {count} valid leaders "
                f"(< {MIN_CUMULANT_COUNT}) for sample cumulants{hint}"
            )


def _check_q_grid(q_grid, prefix: str = "") -> None:
    q = np.asarray(q_grid, dtype=np.float64).tolist()  # legendre divides by steps
    if len(q) < 2 or not all(map(math.isfinite, q)) or len(set(q)) < len(q):
        raise ParameterError(f"{prefix}q_grid: {q} must hold >= 2 finite, "
                             "distinct values")


def legendre_spectrum(zeta_pairs) -> np.ndarray:
    """Discrete Legendre transform D(h) = min_q (1 + q h - zeta(q)).

    The h grid spans the range of discrete slopes of zeta with a 0.1 margin;
    only points with D >= 0 are returned, as (h, D) rows.  A q grid that is
    all one sign cannot reach both spectrum branches; a warning is emitted
    and the reachable half is returned.
    """
    pairs = np.asarray(zeta_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ParameterError("zeta_pairs must be an (n, 2) array")
    _check_q_grid(pairs[:, 0])
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
    # a running minimum over q, with no (h, q) table
    d_vals = np.full_like(h_grid, np.inf)
    for q_k, zeta_k in zip(q.tolist(), zeta.tolist()):
        np.minimum(d_vals, h_grid * q_k + 1.0 - zeta_k, out=d_vals)
    keep = d_vals >= 0.0
    return np.column_stack([h_grid[keep], d_vals[keep]])


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
    reference_shift: int = 0
    beta: float | None = None
    hurst: float | None = None
    stationary: bool | None = None


def multifractal_estimate(pyramid: WaveletPyramid, j1: int, j2: int,
                          q_grid=DEFAULT_Q_GRID, gamma_mode: str = "fixed",
                          gamma_value: float | None = 2.0, gamma_eps: float = 0.1,
                          reference_shift: int = 0) -> MfEstimate:
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
    c_p, cum_diag = log_cumulants(leaders, j1, j2)
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
        c2=float(c_p[1]),
        gamma=gamma,
        h_min=h_min,
        octave_range=(j1, j2),
        spectrum=spectrum,
        diagnostics=diagnostics,
        reference_shift=reference_shift,
    )
