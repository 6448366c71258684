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
from functools import cached_property, lru_cache
from typing import NamedTuple

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
        """valid_values of every octave, filtered once per pyramid: the
        slice itself when every leader in it is > 0."""
        valid = [v[a:b] for v, a, b
                 in zip(self.leaders, self.valid_start, self.valid_stop)]
        valid = tuple(v if np.minimum.reduce(v, initial=math.inf) > 0.0
                      else v[v > 0.0] for v in valid)
        for v in valid:
            v.setflags(write=False)
        return valid

    def _log_leaders(self, j1: int, j2: int) -> list:
        """ln of the valid leaders of octaves j1..j2, each octave's taken
        once per pyramid: the structure functions and cumulants share it."""
        memo = self.__dict__.setdefault("_ln", {})  # as cached_property does
        return [memo[j] if j in memo else memo.setdefault(j, np.log(v))
                for j, v in enumerate(self._valid[j1 - 1:j2], start=j1)]


def compute_leaders(pyramid: WaveletPyramid, gamma: float) -> LeaderPyramid:
    """Leaders over the 3-interval dyadic neighborhoods, all octaves.

    Implemented as the usual two-pass recursion: per-interval suprema over
    contained finer-scale intervals, then a max over the three neighboring
    intervals.  Positions whose neighborhood touches a boundary-affected
    coefficient at any contributing scale are invalid.  Trailing octaves
    with no valid position are dropped.
    """
    if not 0 <= gamma < math.inf:
        raise ParameterError(f"gamma={gamma} must be >= 0 and finite")
    if pyramid.max_octave < 2:
        raise ParameterError("leader analysis needs a pyramid with >= 2 octaves")

    leaders = []
    starts = []
    stops = []
    sv = None
    sv_start = sv_stop = 0
    for j in range(1, pyramid.max_octave + 1):
        sup = np.abs(pyramid.level(j))  # 2^(gamma j) |d|, in place
        sup *= 2.0 ** (gamma * j)
        w_start = pyramid.valid_start[j - 1]
        w_stop = pyramid.valid_stop[j - 1]
        if j == 1:
            sv_start, sv_stop = w_start, w_stop
        else:
            n_out = sup.size
            np.maximum(sup, sv[0:2 * n_out:2], out=sup)
            np.maximum(sup, sv[1:2 * n_out:2], out=sup)
            # children 2k and 2k+1 must both be valid
            sv_start = max(w_start, (sv_start + 1) // 2)
            sv_stop = min(w_stop, sv_stop // 2)
        sv = sup
        start = max(sv_start + 1, 1)
        stop = min(sv_stop - 1, max(sv.size - 1, 0))
        if stop <= start:
            break
        values = np.empty_like(sv)  # its ends, never valid, are 0
        values[0] = values[-1] = 0.0
        np.maximum(sv[:-2], sv[1:-1], out=values[1:-1])
        np.maximum(values[1:-1], sv[2:], out=values[1:-1])
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
    leader.

    L^q is taken as exp(q ln L): one log per leader and one exp per
    (q, leader), each q's terms contiguous and summed pairwise.  That is
    within a few ulps of the mean of L ** q (1e-12 relative is the bound),
    S(j, 0) is exactly 1, and an L^q that overflows is inf in both forms."""
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
    rows = np.empty((j2 - j1 + 1, q.size))
    for row, ln in zip(rows, leaders._log_leaders(j1, j2)):
        t = np.multiply.outer(q, ln)  # (q, leader), C-contiguous
        np.exp(t, out=t)
        np.add.reduce(t, -1, out=row)
        row /= ln.size
    return q, rows


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
    counts = [v.size for v in leaders._valid[j1 - 1:j2]]
    _require_cumulant_counts(counts, j1)
    cum = np.array([_k_statistics(ln) for ln in leaders._log_leaders(j1, j2)])

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
        "counts": np.array(counts),
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
    only points with D >= 0 are returned, as (h, D) rows, each D the
    column minimum of one (q, h) table.  A q grid that is all one sign
    cannot reach both spectrum branches; a warning is emitted and the
    reachable half is returned.  A zeta that is NaN or infinite raises
    ParameterError naming its q; finite zetas whose slope between two
    neighbouring q is not finite, or overflows the table (q closer than
    about 1e-307), raise naming that pair.
    """
    pairs = np.asarray(zeta_pairs, dtype=np.float64)
    if pairs.ndim != 2 or pairs.shape[1] != 2:
        raise ParameterError("zeta_pairs must be an (n, 2) array")
    order, q, steps = _q_plan(pairs[:, 0].tobytes())
    if q[0] >= 0 or q[-1] <= 0:
        warnings.warn(
            "q grid is single-signed; only one branch of D(h) is reachable",
            stacklevel=2,
        )
    zeta = pairs[order, 1]
    qs, z = q.tolist(), zeta.tolist()  # Python floats overflow to inf quietly
    slopes = [(b - a) / d for a, b, d in zip(z, z[1:], steps)]
    lo = min(slopes) - LEGENDRE_MARGIN
    hi = max(slopes) + LEGENDRE_MARGIN
    # each table row is monotone in h: its extremes are at lo and hi
    ends = [qk * h + 1.0 - zk for qk, zk in zip(qs, z) for h in (lo, hi)]
    if not all(map(math.isfinite, z + slopes + ends + [hi - lo])):
        bad = [k for k, zk in enumerate(z) if not math.isfinite(zk)]
        if bad:
            raise ParameterError(f"zeta({qs[bad[0]]:g}) = {z[bad[0]]} is not "
                                 "finite; D(h) needs finite exponents")
        i = max(range(len(slopes)), key=lambda k: abs(slopes[k]))  # 1st inf
        need = ("finite slopes" if math.isinf(slopes[i])
                else "a finite h grid and 1 + q h - zeta(q)")
        raise ParameterError(f"q_grid: the slope of zeta between q = {qs[i]!r} "
                             f"and q = {qs[i + 1]!r} is {slopes[i]}; D(h) needs "
                             f"{need}, so q values this close cannot be used")
    h_grid = np.linspace(lo, hi, LEGENDRE_GRID_SIZE)
    table = np.multiply.outer(q, h_grid)
    table += 1.0
    table -= zeta[:, None]
    d_vals = np.minimum.reduce(table, axis=0)
    return np.column_stack([h_grid, d_vals])[d_vals >= 0.0]


@lru_cache(maxsize=8)
def _q_plan(q_bytes: bytes) -> tuple:
    """(order, q sorted, its steps) of the float64 q grid in q_bytes,
    checked by _check_q_grid once per grid; arrays read-only."""
    q = np.frombuffer(q_bytes)
    _check_q_grid(q)
    order = np.argsort(q)
    q = q[order]
    for a in (order, q):
        a.setflags(write=False)
    return order, q, tuple(np.diff(q).tolist())


class MfEstimate(NamedTuple):
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
    # an L^q that overflows gives a zeta(q) that is not finite, which
    # legendre_spectrum reports by q: numpy's warnings would name nothing
    with np.errstate(over="ignore", invalid="ignore"):
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
