"""Independent reference implementations used as test oracles.

These deliberately avoid the code paths they check: leaders by exhaustive
interval enumeration, DWT by direct convolution, ANOVA by spelled-out sums
of squares, WSR by full sign-pattern enumeration, and OLS fits and
circulant-embedding samples in one pass with nothing shared between calls.
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


def csv_outputs_by_csv_writer(report, subjects, labels, sampling_rate):
    """{name: text} of the four CSV outputs of a report, each row one
    csv.writer row with fmt per float cell, keys in (subject, map, state)
    order."""
    from scalefree.scaling import scale_to_frequency

    estimates, spectra, dh = [], [], []
    for key in [(s, lab, st) for s in subjects for lab in labels
                for st in ("rest", "task")]:
        e = report.results.get(key)
        if e is None:
            estimates.append([*key, "error"] + [""] * 9
                             + [report.failures[key]])
            continue
        estimates.append([
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
               in report.battery.to_rows()]
    return {
        "estimates.csv": csv_text(
            ["subject", "map", "state", "status", "beta", "welch_beta",
             "hurst", "stationary", "h_min", "gamma", "reference_shift",
             "c1", "c2", "error"], estimates),
        "spectra.csv": csv_text(
            ["subject", "map", "state", "octave", "frequency_hz",
             "log2_power", "fitted_log2_power"], spectra),
        "dh_curves.csv": csv_text(["subject", "map", "state", "h", "d"], dh),
        "pvalues.csv": csv_text(
            ["level", "map", "parameter", "test", "statistic", "p",
             "p_corrected"], pvalues),
    }


def ols_line(x, y, weights):
    """Weighted OLS of y on x in one pass, as the library computed it before
    the fit was split into a shared design and a per-ordinate step:
    (slope, intercept, stderr of the slope, r^2)."""
    from scalefree.errors import ParameterError
    if weights is None:
        weights = np.ones_like(x)
    w = weights / weights.sum()
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
    z_re = rng.standard_normal(n + 1)
    z_im = rng.standard_normal(n + 1)
    z = np.empty(2 * n, dtype=np.complex128)
    z[0] = z_re[0]
    z[n] = z_re[n]
    half = (z_re[1:n] + 1j * z_im[1:n]) / math.sqrt(2.0)
    z[1:n] = half
    z[n + 1:] = np.conj(half[::-1])
    sample = np.fft.ifft(np.sqrt(eigs) * z) * math.sqrt(2 * n)
    return sample.real[:n]


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
