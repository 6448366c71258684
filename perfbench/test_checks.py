"""Tests of the benchmark's own correctness checks and span arithmetic.

    python3 -m pytest -q perfbench/test_checks.py

They need neither the library nor a benchmark run: study outputs are
rebuilt from the committed reference snapshot.
"""

from __future__ import annotations

import csv
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
from tracer import SpanIndex  # noqa: E402

STUDY_REFERENCE = HERE / "reference" / "study_2024.csv"
LONG_REFERENCE = HERE / "reference" / "long_2024.csv"
# The default synthetic study's configured H per (class, state).
STUDY_TARGETS = {("F", "rest"): 0.8, ("A", "rest"): 0.75, ("U", "rest"): 0.78,
                 ("F", "task"): 0.7, ("A", "task"): 0.65, ("U", "task"): 0.67}
LONG_GROUPS = ("fgn/H=0.6", "fgn/H=0.8", "mrw/H=0.6", "mrw/H=0.8")


def write_outputs(out_dir: Path, reference: dict) -> None:
    """An output directory whose estimates.csv reproduces the reference,
    with an extra column, as a later schema may add."""
    out_dir.mkdir()
    with open(out_dir / "estimates.csv", "w", newline="",
              encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["subject", "map", "state", "status",
                    *checks.VALUE_COLUMNS, "extra", "error"])
        for key, values in reference.items():
            w.writerow([*key, "ok", *map(repr, values), "1", ""])
    for name in checks.OUTPUT_FILES[1:]:
        (out_dir / name).write_text("x\n", encoding="utf-8")


@pytest.fixture(scope="module")
def study_reference():
    return checks.read_reference(STUDY_REFERENCE)


def check_study(out_dir, reference):
    keys = list(reference)
    class_of_map = {k[1]: k[1][0].upper() for k in keys}
    return checks.check_study(out_dir, keys, class_of_map, STUDY_TARGETS,
                              reference)


def test_study_reference_passes(tmp_path, study_reference):
    write_outputs(tmp_path / "out", study_reference)
    verdict = check_study(tmp_path / "out", study_reference)
    assert (verdict.attempted, verdict.failed) == (1008, 0), verdict.problems


def test_study_perturbed_estimate_fails_one_series(tmp_path, study_reference):
    perturbed = dict(study_reference)
    key = next(iter(perturbed))
    values = list(perturbed[key])
    values[checks.VALUE_COLUMNS.index("c2")] *= 1 + 1e-9
    perturbed[key] = tuple(values)
    write_outputs(tmp_path / "out", perturbed)
    verdict = check_study(tmp_path / "out", study_reference)
    assert verdict.failed == 1
    assert "/".join(key) in verdict.problems[0]


def test_study_perturbation_within_tolerance_passes(tmp_path,
                                                    study_reference):
    perturbed = dict(study_reference)
    key = next(iter(perturbed))
    values = list(perturbed[key])
    values[checks.VALUE_COLUMNS.index("hurst")] *= 1 + 1e-14
    perturbed[key] = tuple(values)
    write_outputs(tmp_path / "out", perturbed)
    assert check_study(tmp_path / "out", study_reference).failed == 0


@pytest.mark.parametrize("name", checks.OUTPUT_FILES)
def test_study_missing_output_file_fails_every_series(tmp_path,
                                                      study_reference, name):
    write_outputs(tmp_path / "out", study_reference)
    (tmp_path / "out" / name).unlink()
    verdict = check_study(tmp_path / "out", study_reference)
    assert verdict.failed == verdict.attempted == 1008
    assert name in verdict.problems[0]


def test_study_missing_series_fails_every_series(tmp_path, study_reference):
    partial = dict(list(study_reference.items())[:-1])
    write_outputs(tmp_path / "out", partial)
    verdict = check_study(tmp_path / "out", study_reference)
    assert verdict.failed == 1008


def test_study_hurst_off_target_fails_every_series(tmp_path, study_reference):
    write_outputs(tmp_path / "out", study_reference)
    keys = list(study_reference)
    targets = {**STUDY_TARGETS, ("U", "task"): 0.9}
    verdict = checks.check_study(
        tmp_path / "out", keys, {k[1]: k[1][0].upper() for k in keys},
        targets, None)
    assert verdict.failed == 1008
    assert "U" in verdict.problems[0]


def long_pass():
    reference = checks.read_reference(LONG_REFERENCE)
    values = [reference[(str(i),)] for i in range(len(reference))]
    groups = [LONG_GROUPS[i % 4] for i in range(len(values))]
    targets = {"fgn/H=0.6": 0.6, "fgn/H=0.8": 0.8,
               "mrw/H=0.6": 0.6, "mrw/H=0.8": 0.8}
    return values, groups, targets, reference


def test_series_reference_passes():
    values, groups, targets, reference = long_pass()
    verdict = checks.check_series(values, groups, targets, reference, values)
    assert verdict.failed == 0, verdict.problems


def test_series_perturbed_estimate_fails_one_series():
    values, groups, targets, reference = long_pass()
    values = list(values)
    values[5] = tuple(v * (1 + 1e-9) for v in values[5])
    assert checks.check_series(values, groups, targets, reference).failed == 1
    # without a reference snapshot (another seed), the rerun check trips
    previous = long_pass()[0]
    assert checks.check_series(values, groups, targets, None,
                               previous).failed == 1


def test_series_failed_call_counts():
    values, groups, targets, reference = long_pass()
    values = list(values)
    values[0] = None
    assert checks.check_series(values, groups, targets, reference).failed == 1


def test_same_value():
    nan = float("nan")
    assert checks.same_value(nan, nan)
    assert not checks.same_value(nan, 1.0)
    assert checks.same_value(0.0, 0.0)
    assert not checks.same_value(1.0, 1.0 + 1e-9)


def test_span_index_self_and_busy_time():
    # name, start, end, parent, label, raised, size
    spans = [
        ["pipeline.run_full_analysis", 0.0, 10.0, -1, "", False, 0],
        ["synth.generate", 1.0, 3.0, 0, "", False, 0],
        ["synth.gen_mrw", 1.5, 2.5, 1, "", False, 0],
        ["wavelet.dwt", 4.0, 5.0, 0, "s", False, 2048],
        ["scaling.welch_psd", 6.0, 7.0, 0, "s", True, 0],
    ]
    ix = SpanIndex(spans)
    assert ix.self_time("pipeline.run_full_analysis") == pytest.approx(6.0)
    assert ix.calls("synth.generate", "synth.gen_mrw") == 1
    assert ix.busy("synth.generate", "synth.gen_mrw") == pytest.approx(2.0)
    assert ix.calls("synth.gen_mrw") == 1
    assert ix.size("wavelet.dwt") == 2048
    assert ix.errors("scaling.welch_psd") == 1


def test_tracer_wraps_every_binding_and_restores():
    sys.path.insert(0, str(HERE.parent / "src"))
    np = pytest.importorskip("numpy")
    from scalefree import leaders_mf, pipeline, scaling
    from scalefree.wavelet import Signal
    from tracer import Tracer

    original = scaling.fit_loglog
    tracer = Tracer()
    tracer.install()
    try:
        assert scaling.fit_loglog is not original
        assert leaders_mf.fit_loglog is scaling.fit_loglog
        assert pipeline.fit_loglog is scaling.fit_loglog
        config = pipeline.AnalysisConfig(synthetic={})
        samples = np.random.default_rng(0).standard_normal(2048)
        pipeline.analyze_series(Signal(samples, 1.0, label="s/x"), config)
    finally:
        tracer.uninstall()
    assert scaling.fit_loglog is original
    assert leaders_mf.fit_loglog is original
    names = [s[0] for s in tracer.spans]
    assert names[0] == "pipeline.analyze_series"
    assert names.count("scaling.fit_loglog") == 17
    # every span below the call hangs off it and carries its series label
    assert all(s[3] >= 0 and s[4] == "s/x" for s in tracer.spans[1:])
    assert SpanIndex(tracer.spans).calls("pipeline.analyze_series") == 1
