"""Acceptance suite: one test per exit criterion, each printing a PASS line
with the measured quantities at its stated tolerance.

Run with `pytest tests/test_acceptance.py -v -s` to see every line.
"""

import hashlib
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats as sp_stats

from scalefree.grouptests import (bonferroni, one_sample_t, rm_anova_2way,
                                  wilcoxon_signed_rank)
from scalefree.leaders_mf import log_cumulants, compute_leaders, \
    multifractal_estimate
from scalefree.pipeline import AnalysisConfig, _spectrum_rows, run_full_analysis
from scalefree.scaling import (estimate_hurst, fit_psd_powerlaw,
                               scale_to_frequency, welch_psd)
from scalefree.synth import GeneratorSpec, gen_fbm, gen_fgn, gen_mrw
from scalefree.wavelet import Signal, build_wavelet, dwt

from oracles import anova_by_hand, assert_leaders_match_oracle

N_SEEDS = 100
FGN_LENGTH = 2**14
MRW_LENGTH = 2**15


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


@pytest.fixture(scope="module")
def db3():
    return build_wavelet(3)


@pytest.fixture(scope="module")
def fgn_ensembles(db3):
    """Per-H arrays of (hurst_hat, c1_hat, c2_hat) plus the elapsed time."""
    t0 = time.monotonic()
    out = {}
    for hurst in (0.3, 0.5, 0.7, 0.9):
        rows = []
        for seed in range(N_SEEDS):
            sig = gen_fgn(GeneratorSpec("fgn", hurst, FGN_LENGTH, seed=seed))
            pyramid = dwt(sig, db3, 6)
            h_est = estimate_hurst(_spectrum_rows(pyramid, 3, 6)[0])
            mf = multifractal_estimate(
                pyramid, 3, 6, reference_shift=1 if h_est.stationary else 0)
            rows.append((h_est.hurst, mf.c1, mf.c2))
        out[hurst] = np.asarray(rows)
    return out, time.monotonic() - t0


def test_criterion_01_hurst_recovery(fgn_ensembles):
    ensembles, elapsed = fgn_ensembles
    for hurst, rows in ensembles.items():
        mean = rows[:, 0].mean()
        sd = rows[:, 0].std(ddof=1)
        assert abs(mean - hurst) <= 0.03, f"H={hurst}: mean {mean:.4f}"
        assert sd <= 0.05, f"H={hurst}: sd {sd:.4f}"
    assert elapsed <= 120.0, f"ensemble stage took {elapsed:.1f} s"
    report(f"criterion 1 PASS: Hurst recovery bias <= 0.03, sd <= 0.05 "
           f"on 4x{N_SEEDS} fGn ensembles ({elapsed:.1f} s)")


def test_criterion_02_monofractal_null(fgn_ensembles):
    ensembles, _ = fgn_ensembles
    for hurst, rows in ensembles.items():
        c1 = rows[:, 1].mean()
        c2 = rows[:, 2].mean()
        assert abs(c1 - hurst) <= 0.05, f"H={hurst}: c1 {c1:.4f}"
        assert abs(c2) <= 0.03, f"H={hurst}: c2 {c2:.4f}"
    report("criterion 2 PASS: fGn ensemble c1 within 0.05 of H and "
           "c2 within 0.03 of 0 for H in {0.3, 0.5, 0.7, 0.9}")


def test_criterion_03_multifractality_detection(db3):
    means = {}
    for lambda2 in (0.03, 0.05, 0.08):
        c2s = []
        for seed in range(N_SEEDS):
            sig = gen_mrw(GeneratorSpec("mrw", 0.5, MRW_LENGTH, seed=seed,
                                        lambda2=lambda2))
            leaders = compute_leaders(dwt(sig, db3, 9), 2.0)
            c_p, _ = log_cumulants(leaders, 3, 9)
            c2s.append(c_p[1])
        means[lambda2] = np.mean(c2s)
        assert abs(means[lambda2] + lambda2) <= 0.02, \
            f"lambda2={lambda2}: c2 {means[lambda2]:.4f}"
    pretty = ", ".join(f"{k}: {v:+.4f}" for k, v in means.items())
    report(f"criterion 3 PASS: MRW c2 within 0.02 of -lambda2 ({pretty}; "
           "derivation in docs/mrw_cumulants.md)")


def test_criterion_04_spectrum_agreement(db3):
    diffs = []
    for seed in range(N_SEEDS):
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, FGN_LENGTH, seed=seed))
        h_est = estimate_hurst(_spectrum_rows(dwt(sig, db3, 6), 3, 6)[0])
        band = (scale_to_frequency(6, 1.0), scale_to_frequency(3, 1.0))
        welch_beta = fit_psd_powerlaw(welch_psd(sig), *band).beta
        diffs.append(abs(welch_beta - h_est.beta))
    mean_gap = float(np.mean(diffs))
    assert mean_gap <= 0.15, f"mean |beta gap| {mean_gap:.4f}"
    report(f"criterion 4 PASS: |beta_welch - beta_wavelet| ensemble mean "
           f"{mean_gap:.4f} <= 0.15 on fGn(0.7)")


def test_criterion_05_leader_oracle():
    rng = np.random.default_rng(20240521)
    checked = 0
    for trial in range(200):
        n = int(rng.integers(64, 513))
        n_vanishing = int(rng.integers(1, 4))
        wavelet = build_wavelet(n_vanishing)
        max_octave = min(6, int(math.floor(math.log2(n / wavelet.support_length))))
        if max_octave < 2:
            continue
        signal = Signal(rng.standard_normal(n), 1.0, f"t{trial}")
        pyramid = dwt(signal, wavelet, max_octave)
        for gamma in (0.0, 0.5, 2.0):
            assert_leaders_match_oracle(pyramid, gamma)
        checked += 1
    assert checked >= 190
    report(f"criterion 5 PASS: leaders equal brute-force enumeration bitwise "
           f"on {checked} random signals x 3 gamma values")


def test_criterion_06_gamma_correction_consistency(db3):
    gaps = []
    for seed in range(50):
        pyramid = dwt(gen_fbm(GeneratorSpec("fbm", 0.7, FGN_LENGTH, seed=seed)),
                      db3, 6)
        c1 = {}
        for gamma in (1.0, 2.0):
            c_p, _ = log_cumulants(compute_leaders(pyramid, gamma), 3, 6)
            c1[gamma] = c_p[0]
        gaps.append(c1[1.0] - c1[2.0])
    mean_gap = float(np.mean(gaps))
    assert abs(mean_gap) <= 0.03, f"corrected c1 gamma gap {mean_gap:.5f}"
    report(f"criterion 6 PASS: corrected c1 under gamma=1 vs 2 differs by "
           f"{mean_gap:+.5f} (<= 0.03) on fBm(0.7)")


def test_criterion_07_frequency_mapping():
    from decimal import ROUND_HALF_UP, Decimal
    fs = 2.0 / 3.0
    f3 = scale_to_frequency(3, fs)
    f6 = scale_to_frequency(6, fs)
    assert f3 == 0.0625
    assert f6 == 0.0078125
    # half-up rounding to 3 decimals lands on the published band edges
    # (both values are exact binary fractions, so Decimal sees them exactly)
    def round3(x):
        return Decimal(x).quantize(Decimal("0.001"), rounding=ROUND_HALF_UP)
    assert round3(f3) == Decimal("0.063")
    assert round3(f6) == Decimal("0.008")
    report("criterion 7 PASS: [f6, f3] = [0.0078125, 0.0625] Hz at "
           "fs = 2/3 Hz, matching the 0.008-0.063 Hz band after rounding")


def test_criterion_08_statistical_oracles():
    t_res = one_sample_t([0.6, 0.7, 0.8], 0.5, "greater")
    assert t_res.statistic == pytest.approx(3.464, abs=5e-4)
    closed_form = 0.5 * (1 - t_res.statistic
                         / math.sqrt(2 + t_res.statistic**2))
    assert t_res.p_value == pytest.approx(closed_form, abs=1e-12)
    assert t_res.p_value == pytest.approx(0.0371, abs=5e-4)

    w_res = wilcoxon_signed_rank([1.0, 2.0, 3.0], 0.0, "greater")
    assert w_res.p_value == 0.125

    assert bonferroni([0.001], family_size=42)[0] == pytest.approx(0.042)
    report("criterion 8 PASS: t(2 df) = 3.464 with one-sided p = 0.0371, "
           "exact WSR p = 0.125, Bonferroni(42) maps 0.001 to 0.042")


def test_criterion_09_anova_validity():
    rng = np.random.default_rng(77)
    cells = rng.normal(size=(3, 2, 2))
    ours = rm_anova_2way(cells)
    ref = anova_by_hand(cells)
    for got, want in zip(ours, (ref["F_A"], ref["F_B"], ref["F_AB"])):
        assert got.statistic == pytest.approx(want, rel=1e-9)

    base = rng.normal(size=(8, 2, 5))
    pvals = []
    for _ in range(500):
        permuted = base.copy()
        flips = rng.integers(0, 2, size=8).astype(bool)
        permuted[flips] = permuted[flips][:, ::-1, :]
        pvals.append(rm_anova_2way(permuted)[0].p_value)
    ks = sp_stats.kstest(pvals, "uniform").statistic
    assert ks < 0.1, f"KS distance {ks:.4f}"
    report(f"criterion 9 PASS: ANOVA matches the hand oracle to 1e-9 and "
           f"permutation-null p-values are uniform (KS = {ks:.4f} < 0.1)")


@pytest.fixture(scope="module")
def full_run(tmp_path_factory):
    root = tmp_path_factory.mktemp("acceptance")
    t0 = time.monotonic()
    outputs = {}
    for name, workers in (("run1", 1), ("run2", 1), ("run4", 4)):
        out = root / name
        config = AnalysisConfig(synthetic={}, seed=2024, workers=workers,
                                output_dir=str(out))
        outputs[name] = (run_full_analysis(config), out)
    return outputs, time.monotonic() - t0


def test_criterion_10_end_to_end_workflow(full_run):
    outputs, elapsed = full_run
    rep, out_dir = outputs["run1"]
    assert not rep.failures
    assert rep.table.n_subjects == 12
    assert rep.table.n_maps == 42
    # report structure: per-class ANOVA tables, per-map corrected one-sample
    # p-values for t and WSR, per-map paired two-state p-values
    for cls in ("F", "A", "U"):
        assert set(rep.battery.anova[cls]["c1"]) == {
            "State", "Map", "State x Map"}
    block = rep.battery.one_sample["map"]["f_1"]["rest"]["c1"]
    assert {"t", "wsr"} <= set(block)
    assert block["t"].p_corrected is not None
    assert "f_18" in rep.battery.two_sample["map"]
    state_p = rep.battery.anova["F"]["c1"]["State"].p_value
    assert state_p < 0.05, f"State effect p = {state_p}"
    for name in ("estimates.csv", "spectra.csv", "dh_curves.csv",
                 "pvalues.csv", "group_report.json"):
        assert (out_dir / name).exists()
    assert elapsed <= 600.0, f"three full runs took {elapsed:.0f} s"
    report(f"criterion 10 PASS: 12x42x2 synthetic workflow reproduces the "
           f"report structure and detects the State effect "
           f"(p = {state_p:.2e}); 3 runs in {elapsed:.0f} s")


def test_criterion_11_determinism(full_run):
    outputs, _ = full_run

    def digests(path: Path):
        return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(path.iterdir())}

    d1 = digests(outputs["run1"][1])
    d2 = digests(outputs["run2"][1])
    d4 = digests(outputs["run4"][1])
    assert d1 == d2, "rerun with identical seeds is not byte-identical"
    assert d1 == d4, "parallel run differs from the serial run"
    report("criterion 11 PASS: byte-identical outputs across reruns and "
           "across 1 vs 4 workers")
