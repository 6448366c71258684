"""Independent reference implementations used as test oracles.

These deliberately avoid the code paths they check: leaders by exhaustive
interval enumeration, DWT by direct convolution, ANOVA by spelled-out sums
of squares, WSR by full sign-pattern enumeration, D(h) from the whole (h, q)
table, and OLS fits and circulant-embedding samples in one pass with nothing
shared between calls.
"""

import math

import numpy as np


def brute_force_leaders(pyramid, gamma):
    """Enumerate every dyadic interval contained in each 3-neighborhood.

    Returns per octave (values, valid_mask); a position is valid only if all
    contained intervals at every finer-or-equal scale exist and lie inside
    the pyramid's boundary-free ranges.
    """
    n_oct = pyramid.max_octave
    weighted = [2.0 ** (gamma * j) * np.abs(pyramid.level(j))
                for j in range(1, n_oct + 1)]
    out = []
    for j in range(1, n_oct + 1):
        n_j = weighted[j - 1].size
        values = np.zeros(n_j)
        ok = np.zeros(n_j, dtype=bool)
        for k in range(n_j):
            best = -np.inf
            valid = True
            for jp in range(1, j + 1):
                scale = 2 ** (j - jp)
                lo = (k - 1) * scale
                hi = (k + 2) * scale - 1
                if lo < pyramid.valid_start[jp - 1] or hi >= pyramid.valid_stop[jp - 1]:
                    valid = False
                    break
                seg_max = weighted[jp - 1][lo:hi + 1].max()
                if seg_max > best:
                    best = seg_max
            values[k] = best if valid else 0.0
            ok[k] = valid
        out.append((values, ok))
    return out


def assert_leaders_match_oracle(pyramid, gamma):
    """Fast-path leaders must equal the enumeration oracle bitwise."""
    from scalefree.leaders_mf import compute_leaders
    leaders = compute_leaders(pyramid, gamma)
    oracle = brute_force_leaders(pyramid, gamma)
    for j in range(1, pyramid.max_octave + 1):
        values, ok = oracle[j - 1]
        if j > leaders.max_octave:
            assert not ok.any(), f"octave {j}: oracle valid, fast path trimmed"
            continue
        start = leaders.valid_start[j - 1]
        stop = leaders.valid_stop[j - 1]
        assert ok[start:stop].all(), f"octave {j}: fast path overclaims validity"
        assert not ok[:start].any() and not ok[stop:].any(), \
            f"octave {j}: fast path underclaims validity"
        assert np.array_equal(leaders.level(j)[start:stop], values[start:stop]), \
            f"octave {j}: leader values differ"


def direct_detail_octave1(samples, wavelet):
    """Octave-1 detail coefficients by explicit convolution + decimation,
    L1-rescaled; returns (values, first_valid, last_valid_exclusive)."""
    taps = wavelet.highpass_taps
    m = taps.size
    n = samples.size
    padded = np.concatenate([np.zeros(m - 1), samples, np.zeros(m - 1)])
    full = np.array([np.dot(taps, padded[t:t + m][::-1])
                     for t in range(n + m - 1)])
    idx = 2 * np.arange(n // 2) + 1
    detail = full[idx] * 2.0 ** -0.5
    k_first = int(np.ceil((m - 2) / 2))
    k_last = (n - 2) // 2
    return detail, k_first, k_last + 1


def dwt_periodic_level(x, wavelet):
    """One circular filter-bank step (L2 convention): the periodized
    transform is orthogonal, so it checks the filters by Parseval."""
    n = x.size
    t = np.arange(n)
    full_d = np.array(
        [np.dot(wavelet.highpass_taps, x[(t[k] - np.arange(wavelet.support_length)) % n])
         for k in range(n)]
    )
    full_a = np.array(
        [np.dot(wavelet.lowpass_taps, x[(t[k] - np.arange(wavelet.support_length)) % n])
         for k in range(n)]
    )
    return full_a[1::2], full_d[1::2]


def wsr_brute_force(diffs, sidedness):
    """Signed-rank p by explicit enumeration of all sign patterns."""
    from scipy.stats import rankdata
    d = np.asarray(diffs, dtype=float)
    d = d[d != 0]
    ranks = rankdata(np.abs(d))
    w_obs = ranks[d > 0].sum()
    n = d.size
    ws = []
    for mask in range(2 ** n):
        ws.append(sum(ranks[i] for i in range(n) if (mask >> i) & 1))
    ws = np.asarray(ws)
    p_g = np.mean(ws >= w_obs - 1e-9)
    p_l = np.mean(ws <= w_obs + 1e-9)
    if sidedness == "greater":
        return float(p_g)
    if sidedness == "less":
        return float(p_l)
    return float(min(1.0, 2 * min(p_g, p_l)))


def anova_by_hand(cells):
    """Spelled-out within-subject 2-way ANOVA on a (S, A, B) array."""
    y = np.asarray(cells, dtype=float)
    s, a, b = y.shape
    grand = y.mean()
    ss_total = ((y - grand) ** 2).sum()
    ss_subj = sum(a * b * (y[i].mean() - grand) ** 2 for i in range(s))
    ss_a = sum(s * b * (y[:, i, :].mean() - grand) ** 2 for i in range(a))
    ss_b = sum(s * a * (y[:, :, i].mean() - grand) ** 2 for i in range(b))
    ss_ab = 0.0
    for i in range(a):
        for k in range(b):
            ss_ab += s * (y[:, i, k].mean() - y[:, i, :].mean()
                          - y[:, :, k].mean() + grand) ** 2
    ss_as = 0.0
    for i in range(a):
        for m in range(s):
            ss_as += b * (y[m, i, :].mean() - y[m].mean()
                          - y[:, i, :].mean() + grand) ** 2
    ss_bs = 0.0
    for k in range(b):
        for m in range(s):
            ss_bs += a * (y[m, :, k].mean() - y[m].mean()
                          - y[:, :, k].mean() + grand) ** 2
    ss_abs = ss_total - ss_subj - ss_a - ss_b - ss_ab - ss_as - ss_bs
    return {
        "total": ss_total, "subject": ss_subj, "A": ss_a, "B": ss_b,
        "AxB": ss_ab, "AxS": ss_as, "BxS": ss_bs, "AxBxS": ss_abs,
        "F_A": (ss_a / (a - 1)) / (ss_as / ((a - 1) * (s - 1))),
        "F_B": (ss_b / (b - 1)) / (ss_bs / ((b - 1) * (s - 1))),
        "F_AB": (ss_ab / ((a - 1) * (b - 1)))
                / (ss_abs / ((a - 1) * (b - 1) * (s - 1))),
    }


def legendre_by_outer_product(zeta_pairs):
    """D(h) rows as the library computed them before the running minimum:
    min over q of the whole (h, q) table 1 + outer(h, q) - zeta, on the
    same h grid and with the same D >= 0 cut."""
    from scalefree.leaders_mf import LEGENDRE_GRID_SIZE, LEGENDRE_MARGIN
    pairs = np.asarray(zeta_pairs, dtype=np.float64)
    order = np.argsort(pairs[:, 0])
    q, zeta = pairs[order, 0], pairs[order, 1]
    slopes = np.diff(zeta) / np.diff(q)
    h_grid = np.linspace(slopes.min() - LEGENDRE_MARGIN,
                         slopes.max() + LEGENDRE_MARGIN, LEGENDRE_GRID_SIZE)
    d_vals = np.min(1.0 + np.outer(h_grid, q) - zeta[None, :], axis=1)
    keep = d_vals >= 0.0
    return np.column_stack([h_grid[keep], d_vals[keep]])


def fmt(x):
    """A float cell of every output: 17 significant digits, so it
    round-trips exactly; None is empty and a bool is 1 or 0."""
    if x is None:
        return ""
    if isinstance(x, bool):
        return "1" if x else "0"
    return "%.17g" % float(x)


def csv_text(header, rows):
    """header and rows through csv.writer with \\n line ends."""
    import csv
    import io
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def csv_outputs_by_csv_writer(estimates, failures, battery, subjects, labels,
                              sampling_rate):
    """{name: text} of the four CSV outputs of a study, each row one
    csv.writer row with fmt per float cell, keys in (subject, map, state)
    order: estimates maps each successful key to its MfEstimate, failures
    the others to their error text, and battery gives the p-value rows."""
    from scalefree.scaling import scale_to_frequency

    rows, spectra, dh = [], [], []
    for key in [(s, lab, st) for s in subjects for lab in labels
                for st in ("rest", "task")]:
        e = estimates.get(key)
        if e is None:
            rows.append([*key, "error"] + [""] * 9 + [failures[key]])
            continue
        rows.append([
            *key, "ok", fmt(e.beta), fmt(e.diagnostics.get("welch_beta")),
            fmt(e.hurst), fmt(e.stationary), fmt(e.h_min), fmt(e.gamma),
            str(e.reference_shift), fmt(e.c1), fmt(e.c2), ""])
        for j, logp, fitted in e.diagnostics["spectrum_rows"]:
            spectra.append([*key, str(j),
                            fmt(scale_to_frequency(j, sampling_rate)),
                            fmt(logp), fmt(fitted)])
        for h, d in e.spectrum:
            dh.append([*key, fmt(h), fmt(d)])
    pvalues = [[f"{level}:{state}", unit, param, test,
                fmt(stat), fmt(p), fmt(p_corr)]
               for level, unit, state, param, test, stat, p, p_corr
               in battery.to_rows()]
    return {
        "estimates.csv": csv_text(
            ["subject", "map", "state", "status", "beta", "welch_beta",
             "hurst", "stationary", "h_min", "gamma", "reference_shift",
             "c1", "c2", "error"], rows),
        "spectra.csv": csv_text(
            ["subject", "map", "state", "octave", "frequency_hz",
             "log2_power", "fitted_log2_power"], spectra),
        "dh_curves.csv": csv_text(["subject", "map", "state", "h", "d"], dh),
        "pvalues.csv": csv_text(
            ["level", "map", "parameter", "test", "statistic", "p",
             "p_corrected"], pvalues),
    }


def ols_line(x, y):
    """OLS of y on x in one pass, as the library computed it before the fit
    was split into a shared design and a per-ordinate step: (slope,
    intercept, stderr of the slope, r^2)."""
    from scalefree.errors import ParameterError
    w = np.ones_like(x) / x.size
    xbar = float(np.dot(w, x))
    ybar = float(np.dot(w, y))
    sxx = float(np.dot(w, (x - xbar) ** 2))
    if sxx == 0.0:
        raise ParameterError("degenerate abscissa: all octaves identical")
    slope = float(np.dot(w, (x - xbar) * (y - ybar))) / sxx
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


def fit_loglog_before(values, j1, j2):
    """fit_loglog's (slope, intercept, stderr, r^2) as the library computed
    it before its fits shared per-length designs: a full scan for values
    <= 0, then the one-pass OLS of log2(values) on the octaves."""
    from scalefree.errors import ParameterError
    vals = np.asarray(values, dtype=np.float64)
    bad = np.flatnonzero(vals <= 0)
    if bad.size:
        raise ParameterError(
            f"nonpositive value at octave {j1 + int(bad[0])}; cannot take log2")
    return ols_line(np.arange(j1, j2 + 1, dtype=np.float64), np.log2(vals))


def sup_magnitudes_before(pyramid, j1, j2):
    """sup |d(j, k)| over the valid coefficients of octaves j1..j2, one
    np.max per octave and call."""
    return np.array([float(np.max(np.abs(pyramid.valid_values(j))))
                     for j in range(j1, j2 + 1)])


def valid_leaders_before(leaders, j):
    """The valid leaders of octave j, filtered to > 0 on every call."""
    vals = leaders.level(j)[leaders.valid_start[j - 1]:leaders.valid_stop[j - 1]]
    return vals[vals > 0.0]


def dwt_before(samples, wavelet, max_octave):
    """(coefficients, valid starts, valid stops) of dwt over octaves
    1..max_octave, as dwt computed them per call: each octave's kept phase
    by a fancy index of the full convolutions, its validity range by
    propagating the boundary-free approximation samples."""
    coeffs, starts, stops = [], [], []
    approx, a_first, a_last, m = samples, 0, samples.size - 1, wavelet.support_length
    for j in range(1, max_octave + 1):
        n_out = approx.size // 2
        idx = 2 * np.arange(n_out) + 1
        coeffs.append(np.convolve(approx, wavelet.highpass_taps)[idx]
                      * 2.0 ** (-j / 2.0))
        approx = np.convolve(approx, wavelet.lowpass_taps)[idx]
        a_first = max(0, math.ceil((a_first + m - 2) / 2))
        a_last = min(n_out - 1, (a_last - 1) // 2)
        starts.append(min(a_first, n_out))
        stops.append(max(a_last + 1, starts[-1]))
    return coeffs, starts, stops


def welch_beta_before(samples, fs, config):
    """analyze_series's Welch cross-check as welch_psd and fit_psd_powerlaw
    computed it before per-length plans: sliding_window_view segments,
    np.mean, rfftfreq on every call and a boolean band mask; NaN where the
    segmentation or the band is too thin."""
    from numpy.lib.stride_tricks import sliding_window_view
    from scalefree.scaling import (_psd_window, default_segment_length,
                                   scale_to_frequency)
    n = samples.size
    length = config.welch_segment_length or default_segment_length(n)
    step = length - int(config.welch_overlap * length)
    n_segments = 1 + (n - length) // step
    if n_segments < 2:
        return math.nan
    segments = sliding_window_view(samples, length)[::step][:n_segments]
    segments = segments - np.mean(segments, axis=-1, keepdims=True)
    spectra = np.fft.rfft(segments * _psd_window(config.welch_window, length, fs),
                          axis=-1)
    power = spectra.real**2 + spectra.imag**2
    power[:, 1:None if length % 2 else -1] *= 2
    power = np.ascontiguousarray(power.T).mean(axis=-1)[1:]
    f = np.fft.rfftfreq(length, 1 / fs)[1:]
    j1, j2 = config.octave_range
    mask = ((f >= scale_to_frequency(j2, fs))
            & (f <= scale_to_frequency(j1, fs)))
    if int(mask.sum()) < 3 or np.any(power[mask] <= 0):
        return math.nan
    return -ols_line(np.log2(f[mask]), np.log2(power[mask]))[0]


def moments_before(valid, q):
    """S(j, q) as L ** q averaged by np.mean, one row per array of valid
    leaders in valid: the reference the exp(q ln L) rows of _moments are
    held to."""
    return np.vstack([np.mean(v[:, None] ** q[None, :], axis=0) for v in valid])


def analyze_series_before(signal, config):
    """{field: value} of analyze_series(signal, config) composed from the
    oracles above, computing every per-length and per-series value afresh
    and fitting each q column and cumulant with its own one-pass OLS; S(j, q)
    comes from moments_before and the k-statistics from scipy.stats.kstat.
    dwt, compute_leaders,
    select_gamma and legendre_spectrum are the library's."""
    from scipy.stats import kstat
    from scalefree.leaders_mf import (compute_leaders, legendre_spectrum,
                                      select_gamma)
    from scalefree.wavelet import build_wavelet, dwt
    j1, j2 = config.octave_range
    pyramid = dwt(signal, build_wavelet(config.n_vanishing), j2)
    power = np.array([np.mean(pyramid.valid_values(j) ** 2)
                      for j in range(1, j2 + 1)])
    fit = fit_loglog_before(power[j1 - 1:j2], j1, j2)
    beta = fit[0] + 1.0
    hurst = (beta + 1.0) / 2.0
    shift = 1 if hurst < 1.0 else 0
    h_min = fit_loglog_before(sup_magnitudes_before(pyramid, j1, j2), j1, j2)[0]
    gamma = select_gamma(h_min, config.gamma_mode, config.gamma_value,
                         config.gamma_eps)
    leaders = compute_leaders(pyramid, gamma)
    valid = [valid_leaders_before(leaders, j) for j in range(j1, j2 + 1)]
    q = np.asarray(config.q_grid, dtype=np.float64)
    rows = moments_before(valid, q)
    zeta_fits = [fit_loglog_before(column, j1, j2) for column in rows.T]
    zeta = np.column_stack([q, [f[0] for f in zeta_fits] - (gamma - shift) * q])
    cum = np.array([[kstat(np.log(v), p) for p in (1, 2)] for v in valid])
    x = np.arange(j1, j2 + 1, dtype=np.float64) * math.log(2.0)
    cum_fits = [ols_line(x, cum[:, p]) for p in (0, 1)]
    return {
        "beta": beta, "hurst": hurst, "stationary": hurst < 1.0,
        "h_min": h_min, "gamma": gamma, "reference_shift": shift,
        "c1": cum_fits[0][0] - gamma + shift, "c2": cum_fits[1][0],
        "zeta": zeta, "spectrum": legendre_spectrum(zeta),
        "spectrum_fit": fit,
        "spectrum_rows": tuple((j, float(logp), fit[0] * j + fit[1])
                               for j, logp in enumerate(np.log2(power), 1)),
        "zeta_r_squared": np.array([f[3] for f in zeta_fits]),
        "cumulant_r_squared": np.array([f[3] for f in cum_fits]),
        "leader_counts": np.array([v.size for v in valid]),
        "welch_beta": welch_beta_before(signal.samples, signal.sampling_rate,
                                        config),
    }


def battery_rows_by_hand(table):
    """Every row of run_battery(table).to_rows(), in its order, built from
    the per-cell subject means, the public tests and bonferroni: one-sample
    t and WSR rows by level, unit, state, parameter and test (Bonferroni
    over the level's units), then the ANOVA rows (State x Map per class,
    then State x Network and State x Artifact, each only with >= 2 units),
    then the paired rest-task rows by level, unit and parameter."""
    from scalefree.grouptests import (bonferroni, one_sample_t,
                                      paired_t_two_state, rm_anova_2way,
                                      wilcoxon_signed_rank)
    classes, tags = table.taxonomy.classes, table.taxonomy.tags
    labels = [f"{c.lower()}_{classes[:k + 1].count(c)}"
              for k, c in enumerate(classes)]
    levels = {"map": {lab: [k] for k, lab in enumerate(labels)},
              "class": {}, "network": {}, "artifact": {}}
    for c in ("F", "A", "U"):
        idx = [k for k, x in enumerate(classes) if x == c]
        if idx:
            levels["class"][c] = idx
    for k, (c, tag) in enumerate(zip(classes, tags)):
        if tag and c in ("F", "A"):  # a tag on a U map names no unit
            level = "network" if c == "F" else "artifact"
            levels[level].setdefault(tag, []).append(k)
    levels = {level: units for level, units in levels.items() if units}
    states, params = ("rest", "task"), ("c1", "c2", "H")
    nulls = {"c1": (0.5, "greater"), "c2": (0.0, "less"),
             "H": (0.5, "greater")}
    paired_sides = {"c1": "greater", "c2": "two", "H": "greater"}

    def means(idx, state, param):
        return table.estimates[:, idx, state, param].mean(axis=1)

    rows = []
    for level, units in levels.items():
        found = {}
        for j in range(2):
            for ip, param in enumerate(params):
                mu0, side = nulls[param]
                for test, run in (("t", one_sample_t),
                                  ("wsr", wilcoxon_signed_rank)):
                    results = [run(means(idx, j, ip), mu0, side)
                               for idx in units.values()]
                    corrected = bonferroni([r.p_value for r in results])
                    for unit, r, p in zip(units, results, corrected):
                        found[unit, j, ip, test] = (r, float(p))
        for unit in units:
            for j, state in enumerate(states):
                for ip, param in enumerate(params):
                    for test in ("t", "wsr"):
                        r, p = found[unit, j, ip, test]
                        rows.append((level, unit, state, param, test,
                                     r.statistic, r.p_value, p))
    anova_sets = [(c, "Map", {labels[k]: [k] for k in idx})
                  for c, idx in levels.get("class", {}).items()]
    anova_sets += [(level, level.capitalize(), levels[level])
                   for level in ("network", "artifact") if level in levels]
    for name, factor, units in anova_sets:
        if len(units) < 2:
            continue
        for ip, param in enumerate(params):
            # (S, states, units) in C order: numpy's sums follow the layout
            cells = np.ascontiguousarray(np.transpose(
                [[means(idx, j, ip) for idx in units.values()]
                 for j in range(2)], (2, 0, 1)))
            for source, r in zip(("State", factor, f"State x {factor}"),
                                 rm_anova_2way(cells)):
                rows.append(("anova:" + name, source, "both", param,
                             r.test_kind, r.statistic, r.p_value, None))
    for level, units in levels.items():
        for unit, idx in units.items():
            for ip, param in enumerate(params):
                r = paired_t_two_state(means(idx, 0, ip), means(idx, 1, ip),
                                       paired_sides[param])
                rows.append(("two_sample:" + level, unit, "rest-task", param,
                             r.test_kind, r.statistic, r.p_value, None))
    return rows


def circulant_gaussian(cov_row, rng, clip_tol):
    """Exact stationary Gaussian sample via circulant embedding, computing
    the embedding's spectrum afresh on every call.  cov_row holds the
    autocovariance at lags 0..n; with clip_tol None the embedding must be
    positive semidefinite, else the clipped negative energy stays below
    clip_tol."""
    n = cov_row.size - 1
    circ = np.concatenate([cov_row, cov_row[-2:0:-1]])
    eigs = np.fft.fft(circ).real
    if clip_tol is None:
        if eigs.min() < -1e-9 * max(1.0, eigs.max()):
            raise AssertionError("circulant embedding not positive semidefinite")
        eigs = np.maximum(eigs, 0.0)
    else:
        neg = -eigs[eigs < 0.0].sum()
        total = np.abs(eigs).sum()
        if total > 0 and neg > clip_tol * total:
            raise AssertionError("clipped eigenvalue energy exceeds clip_tol")
        eigs = np.maximum(eigs, 0.0)
    sample = np.fft.ifft(np.sqrt(eigs) * hermitian_normal(n, rng)) * math.sqrt(2 * n)
    return sample.real[:n]


def hermitian_normal(n, rng):
    """The 2n-point conjugate-symmetric complex normal vector of a circulant
    draw, from 2(n + 1) standard normals, built from temporaries with
    np.conj."""
    z_re = rng.standard_normal(n + 1)
    z_im = rng.standard_normal(n + 1)
    z = np.empty(2 * n, dtype=np.complex128)
    z[0] = z_re[0]
    z[n] = z_re[n]
    half = (z_re[1:n] + 1j * z_im[1:n]) / math.sqrt(2.0)
    z[1:n] = half
    z[n + 1:] = np.conj(half[::-1])
    return z


def circulant_draw(root, rng):
    """synth._circulant_draw's sample from the same root and stream, with
    the Hermitian vector from hermitian_normal."""
    n = root.size // 2
    return np.fft.ifft(hermitian_normal(n, rng) * root).real[:n] * math.sqrt(2 * n)


def generated_samples(spec):
    """The samples of synth.generate(spec), each Gaussian field drawn by
    circulant_gaussian from its covariance."""
    from scalefree.synth import _OMEGA_STREAM_TAG, _fgn_autocovariance
    n = spec.length
    eps = circulant_gaussian(_fgn_autocovariance(spec.hurst, np.arange(n + 1)),
                             np.random.default_rng(spec.seed), None)
    if spec.kind == "fgn":
        return eps
    if spec.kind == "fbm":
        return np.cumsum(eps)
    scale = n if spec.integral_scale is None else spec.integral_scale
    lags = np.arange(n + 1, dtype=np.float64)
    cov = np.zeros(n + 1)
    inside = lags < scale
    cov[inside] = spec.lambda2 * np.log(scale / (lags[inside] + 1.0))
    omega = circulant_gaussian(
        cov, np.random.default_rng([_OMEGA_STREAM_TAG, spec.seed]), 1e-6)
    omega += -0.5 * spec.lambda2 * math.log(scale)
    return np.cumsum(eps * np.exp(omega))
