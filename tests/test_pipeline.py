import csv
import hashlib
import json
import os
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from scalefree import pipeline
from scalefree.errors import (DataFormatError, DegenerateInputError,
                              ParameterError, ScaleRangeError)
from scalefree.leaders_mf import compute_leaders
from scalefree.pipeline import (AnalysisConfig, _leader_spans, _pool_size,
                                analyze_series, load_dataset,
                                load_estimates_csv, load_taxonomy,
                                project_onto_maps, run_full_analysis,
                                synthetic_taxonomy)
from scalefree.synth import GeneratorSpec, gen_fgn, gen_mrw
from scalefree.wavelet import Signal, dwt

from oracles import csv_outputs_by_csv_writer

SMALL_SYNTH = {"subjects": 4, "length": 1024, "maps": {"F": 3, "A": 2, "U": 1}}


def write_fixture_dataset(root: Path, n_subjects=2, n_maps=3, n=64, seed=0,
                          ids=None):
    rng = np.random.default_rng(seed)
    tax = root / "taxonomy.csv"
    rows = [["map_index", "class", "network_or_artifact"]]
    classes = ["F", "A", "U"]
    for k in range(n_maps):
        rows.append([str(k + 1), classes[k % 3], "Att" if k % 3 == 0 else ""])
    tax.write_text("\n".join(",".join(r) for r in rows) + "\n")
    subjects = []
    for s in range(n_subjects):
        entry = {"id": ids[s] if ids else f"sub{s}"}
        for state in ("rest", "task"):
            path = root / f"sub{s}_{state}.csv"
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["t"] + [f"map_{k + 1}" for k in range(n_maps)])
                data = rng.standard_normal((n, n_maps))
                for i in range(n):
                    w.writerow([f"{i:.1f}"] + [repr(float(v)) for v in data[i]])
            entry[state] = str(path)
        subjects.append(entry)
    return {"subjects": subjects, "taxonomy": str(tax)}


def flatten_map(path: Path, column: int):
    """Overwrite one map column of a run CSV with a constant."""
    rows = [r.split(",") for r in path.read_text().splitlines()]
    for r in rows[1:]:
        r[column] = "5.0"
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


class TestConfig:
    def test_defaults_resolve(self):
        cfg = AnalysisConfig(synthetic={})
        assert cfg.octave_range == (3, 6)
        assert cfg.synthetic["subjects"] == 12
        assert cfg.synthetic["maps"] == {"F": 25, "A": 13, "U": 4}

    def test_requires_exactly_one_source(self):
        with pytest.raises(ParameterError):
            AnalysisConfig()
        with pytest.raises(ParameterError):
            AnalysisConfig(synthetic={}, inputs={"subjects": []})

    def test_unknown_keys_rejected(self):
        with pytest.raises(DataFormatError):
            AnalysisConfig.from_dict({"synthetic": {}, "typo_key": 1})
        with pytest.raises(DataFormatError):
            AnalysisConfig.from_dict({"synthetic": {"subjcts": 3}})
        with pytest.raises(DataFormatError, match=r"gamma\.vlaue"):
            AnalysisConfig.from_dict({"synthetic": {}, "gamma": {"vlaue": 1}})

    def test_hash_ignores_output_dir_and_workers(self):
        a = AnalysisConfig(synthetic={}, output_dir="x", workers=1)
        b = AnalysisConfig(synthetic={}, output_dir="y", workers=8)
        assert a.sha256() == b.sha256()

    def test_negative_seed_rejected_only_for_synthetic(self):
        assert AnalysisConfig(inputs={"subjects": []}, seed=-1).seed == -1
        with pytest.raises(ParameterError, match="config key seed"):
            AnalysisConfig(synthetic={}, seed=-1)

    def test_synthetic_values_checked_only_for_classes_with_maps(self):
        cfg = AnalysisConfig(synthetic={"maps": {"U": 0},
                                        "rest_hurst": {"U": 1.5}})
        assert cfg.synthetic["rest_hurst"]["U"] == 1.5
        with pytest.raises(ParameterError,
                           match=r"config key synthetic\.rest_hurst\.U: hurst"):
            AnalysisConfig(synthetic={"rest_hurst": {"U": 1.5}})

    def test_gamma_json_nesting(self):
        cfg = AnalysisConfig.from_dict(
            {"synthetic": {}, "gamma": {"mode": "auto", "eps": 0.2}})
        assert cfg.gamma_mode == "auto"
        assert cfg.gamma_eps == 0.2


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        cfg = AnalysisConfig(inputs=inputs, sampling_rate=2.0)
        ds = load_dataset(cfg)
        assert ds.taxonomy.n_maps == 3
        assert ds.runs[("sub0", "rest")].shape == (64, 3)

    def test_nan_located(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        path = Path(inputs["subjects"][1]["task"])
        lines = path.read_text().splitlines()
        parts = lines[18].split(",")
        parts[2] = "nan"
        lines[18] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r":19: column map_2"):
            load_dataset(AnalysisConfig(inputs=inputs))

    def test_bad_token_located(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        path = Path(inputs["subjects"][0]["rest"])
        lines = path.read_text().splitlines()
        parts = lines[3].split(",")
        parts[1] = "oops"
        lines[3] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataFormatError, match=r":4: column map_1"):
            load_dataset(AnalysisConfig(inputs=inputs))

    def test_unknown_taxonomy_class(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        tax = Path(inputs["taxonomy"])
        tax.write_text(tax.read_text().replace("F,", "Z,"))
        with pytest.raises(DataFormatError, match="unknown class"):
            load_dataset(AnalysisConfig(inputs=inputs))

    def test_header_mismatch(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        path = Path(inputs["subjects"][0]["rest"])
        text = path.read_text().splitlines()
        text[0] = "t,map_1,map_2"
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataFormatError, match="taxonomy declares 3"):
            load_dataset(AnalysisConfig(inputs=inputs))

    def test_misnamed_header_names_first_wrong_column(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        path = Path(inputs["subjects"][0]["rest"])
        text = path.read_text().splitlines()
        text[0] = "t,map_1,m1,m2"  # right count, wrong names
        path.write_text("\n".join(text) + "\n")
        with pytest.raises(DataFormatError) as info:
            load_dataset(AnalysisConfig(inputs=inputs))
        message = str(info.value)
        assert f"{path}:1: column 3 is 'm1', expected 'map_2'" in message
        assert "t,map_1..map_3" in message
        assert "declares" not in message

    def test_length_mismatch(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        path = Path(inputs["subjects"][1]["rest"])
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-5]) + "\n")
        with pytest.raises(DataFormatError, match="samples"):
            load_dataset(AnalysisConfig(inputs=inputs))

    def test_expected_counts_enforced(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        inputs["expected_class_counts"] = [25, 13, 4]
        with pytest.raises(DataFormatError, match="cardinalities"):
            load_dataset(AnalysisConfig(inputs=inputs))


class TestProjection:
    def test_orthonormal_maps_reduce_to_product(self):
        rng = np.random.default_rng(0)
        q, _ = np.linalg.qr(rng.standard_normal((50, 4)))
        y = rng.standard_normal((20, 50))
        u = project_onto_maps(y, q)
        assert np.allclose(u, y @ q, atol=1e-12)

    def test_exact_model_recovery(self):
        rng = np.random.default_rng(1)
        v = rng.standard_normal((50, 4))
        u0 = rng.standard_normal((20, 4))
        u = project_onto_maps(u0 @ v.T, v)
        assert np.allclose(u, u0, atol=1e-10)

    def test_matches_lstsq_oracle(self):
        rng = np.random.default_rng(2)
        y = rng.standard_normal((20, 50))
        v = rng.standard_normal((50, 4))
        u = project_onto_maps(y, v)
        ref = np.linalg.lstsq(v, y.T, rcond=None)[0].T
        assert np.allclose(u, ref, atol=1e-8)

    def test_singular_maps_report_rank(self):
        rng = np.random.default_rng(3)
        v = rng.standard_normal((30, 3))
        v = np.column_stack([v, v[:, 0]])  # rank 3 of 4
        with pytest.raises(ParameterError, match="rank 3"):
            project_onto_maps(rng.standard_normal((10, 30)), v)


class TestAnalyzeSeries:
    def test_fgn_fixture(self):
        cfg = AnalysisConfig(synthetic={})
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 4096, seed=123))
        est = analyze_series(sig, cfg)
        assert abs(est.hurst - 0.7) <= 0.1
        assert abs(est.c1 - 0.7) <= 0.12
        assert est.stationary
        assert est.reference_shift == 1
        assert est.gamma == 2.0

    def test_constant_signal_degenerate(self):
        cfg = AnalysisConfig(synthetic={})
        with pytest.raises(DegenerateInputError):
            analyze_series(Signal(np.full(4096, 3.3), 1.0, "const"), cfg)

    def test_mrw_flags_negative_c2(self):
        cfg = AnalysisConfig(synthetic={}, octave_range=(3, 8))
        sig = gen_mrw(GeneratorSpec("mrw", 0.5, 2**14, seed=5, lambda2=0.08))
        est = analyze_series(sig, cfg)
        assert est.c2 < 0.0
        assert not est.stationary  # the walk itself is motion-like

    def test_too_short_names_range(self):
        cfg = AnalysisConfig(synthetic={})
        sig = gen_fgn(GeneratorSpec("fgn", 0.5, 128, seed=0))
        with pytest.raises(ScaleRangeError, match="octaves up to"):
            analyze_series(sig, cfg)
        sig = gen_fgn(GeneratorSpec("fgn", 0.5, 512, seed=0))
        with pytest.raises(ScaleRangeError, match="largest workable j2 is 5"):
            analyze_series(sig, cfg)

    def test_label_in_error(self):
        cfg = AnalysisConfig(synthetic={})
        sig = Signal(np.full(4096, 1.0), 1.0, "flatliner")
        with pytest.raises(DegenerateInputError, match="flatliner"):
            analyze_series(sig, cfg)

    def test_leader_spans_match_a_real_series(self, db3):
        walk = gen_mrw(GeneratorSpec("mrw", 0.6, 4096, seed=2, lambda2=0.04))
        sig = Signal(np.diff(walk.samples)[:3000], 1.0)
        leaders = compute_leaders(dwt(sig, db3, 8), 2.0)
        spans = tuple(b - a for a, b in zip(leaders.valid_start,
                                            leaders.valid_stop))
        assert _leader_spans(3000, 3) == spans
        assert _leader_spans(512, 3) == (252, 123, 58, 26, 10, 2)

    def test_wavelet_built_once_per_process(self, tmp_path, monkeypatch):
        builds = []
        real_build = pipeline.build_wavelet
        monkeypatch.setattr(pipeline, "build_wavelet",
                            lambda n: builds.append(n) or real_build(n))
        pipeline._wavelet.cache_clear()
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, workers=1,
                             output_dir=str(tmp_path / "out"))
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 1024, seed=1))
        analyze_series(sig, cfg)
        analyze_series(sig, cfg)
        run_full_analysis(cfg)
        assert builds == [3]

    def test_memoised_wavelet_is_read_only(self):
        wavelet = pipeline._wavelet(3)
        assert pipeline._wavelet(3) is wavelet
        for taps in (wavelet.lowpass_taps, wavelet.highpass_taps):
            with pytest.raises(ValueError, match="read-only"):
                taps[0] = 0.0

    def test_feasibility_adds_no_dwt_per_series(self, monkeypatch):
        cfg = AnalysisConfig(synthetic={})
        sig = gen_fgn(GeneratorSpec("fgn", 0.7, 2048, seed=1))
        analyze_series(sig, cfg)
        calls = []
        real_dwt = pipeline.dwt
        monkeypatch.setattr(pipeline, "dwt",
                            lambda *args: calls.append(1) or real_dwt(*args))
        analyze_series(sig, cfg)
        assert len(calls) == 1


class TestRunFullAnalysis:
    def test_small_synthetic_end_to_end(self, tmp_path):
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=1,
                             output_dir=str(tmp_path / "out"))
        report = run_full_analysis(cfg)
        assert not report.failures
        assert report.battery is not None
        names = {p.name for p in (tmp_path / "out").iterdir()}
        assert names == {"estimates.csv", "spectra.csv", "dh_curves.csv",
                         "pvalues.csv", "group_report.json",
                         "config_resolved.json"}
        doc = json.loads((tmp_path / "out" / "group_report.json").read_text())
        assert doc["provenance"]["config_sha256"] == cfg.sha256()
        assert doc["battery"]["one_sample"]["map"]["f_1"]["rest"]["c1"]["t"]["p_corrected"] >= 0

    def test_infeasible_octaves_fail_fast(self, tmp_path):
        cfg = AnalysisConfig(
            synthetic={"subjects": 3, "length": 256}, octave_range=(3, 8),
            output_dir=str(tmp_path / "out"))
        with pytest.raises(ScaleRangeError, match="supports octaves up to"):
            run_full_analysis(cfg)

    def test_too_few_leaders_fail_before_any_series(self, tmp_path,
                                                    monkeypatch):
        def unexpected(*args):
            raise AssertionError("a series ran")

        monkeypatch.setattr(pipeline, "analyze_series", unexpected)
        cfg = AnalysisConfig(
            synthetic={"subjects": 3, "length": 512}, octave_range=(3, 6),
            output_dir=str(tmp_path / "out"))
        with pytest.raises(ScaleRangeError, match="largest workable j2 is 5"):
            run_full_analysis(cfg)
        assert not (tmp_path / "out").exists()

    def test_infeasible_synthetic_fails_before_synthesis(self, tmp_path,
                                                         monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a series was synthesized")

        monkeypatch.setattr(pipeline, "gen_mrw", unexpected)
        monkeypatch.setattr(pipeline, "gen_fgn", unexpected)
        cfg = AnalysisConfig(synthetic={}, octave_range=(3, 9),
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(ScaleRangeError, match="length 2048"):
            run_full_analysis(cfg)

    def test_pool_size_is_bounded(self):
        cores = os.cpu_count() or 1
        assert _pool_size(10**6, 5) == min(5, cores)
        assert _pool_size(10**6, 10**6) == cores
        assert _pool_size(1, 100) == 1
        assert _pool_size(4, 0) == 1

    def test_file_backed_end_to_end(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path, n_subjects=4, n_maps=3,
                                       n=512, seed=5)
        cfg = AnalysisConfig(inputs=inputs, octave_range=(2, 5),
                             output_dir=str(tmp_path / "out"), seed=0)
        report = run_full_analysis(cfg)
        assert not report.failures
        assert report.table is not None
        est_rows = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        assert len(est_rows) == 1 + 4 * 3 * 2

    def test_determinism_and_parallel_equivalence(self, tmp_path):
        digests = {}
        for name, workers in (("a", 1), ("b", 1), ("c", 3)):
            out = tmp_path / name
            cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=9,
                                 output_dir=str(out), workers=workers)
            run_full_analysis(cfg)
            digests[name] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())
            }
        assert digests["a"] == digests["b"]
        assert digests["a"] == digests["c"]

    def test_partial_failure_isolation(self, tmp_path):
        self._check_partial_failure_isolation(tmp_path, workers=1)

    def test_partial_failure_isolation_pooled(self, tmp_path):
        self._check_partial_failure_isolation(tmp_path, workers=2)

    @staticmethod
    def _check_partial_failure_isolation(tmp_path, workers):
        inputs = write_fixture_dataset(tmp_path, n_subjects=4, n_maps=3,
                                       n=512, seed=5)
        # flatten one map of one subject; that series alone must fail
        flatten_map(Path(inputs["subjects"][1]["rest"]), 2)
        cfg = AnalysisConfig(inputs=inputs, octave_range=(2, 5),
                             output_dir=str(tmp_path / "out"), seed=0,
                             workers=workers)
        report = run_full_analysis(cfg)
        assert report.provenance["n_series"] == 24
        assert report.provenance["n_failures"] == 1
        assert len(report.failures) == 1
        key = next(iter(report.failures))
        assert key[0] == "sub1" and key[2] == "rest"
        assert "Degenerate" in report.failures[key]
        assert report.dropped_subjects == ("sub1",)
        # remaining three subjects still feed the battery
        assert report.table is not None
        assert report.table.n_subjects == 3
        rows = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        error_rows = [r for r in rows if ",error," in r]
        assert len(error_rows) == 1 and "sub1" in error_rows[0]

    def test_spectra_and_dh_match_csv_writer(self, tmp_path):
        """Every CSV output equals a csv.writer rendering with "%.17g"
        cells, quoting ids and a network tag that hold a comma or a quote;
        an id holding "%" is text, not a template field."""
        ids = ["s,1", 'q"2', "x%5", "sub3"]
        inputs = write_fixture_dataset(tmp_path, n_subjects=4, n_maps=3,
                                       n=512, seed=5, ids=ids)
        with open(inputs["taxonomy"], "w", newline="") as fh:
            csv.writer(fh).writerows([
                ["map_index", "class", "network_or_artifact"],
                [1, "F", 'Net, "x"'], [2, "A", "Ven"], [3, "U", ""]])
        flatten_map(Path(inputs["subjects"][1]["task"]), 2)  # fails alone
        cfg = AnalysisConfig(inputs=inputs, octave_range=(2, 5),
                             sampling_rate=2.0, output_dir=str(tmp_path / "out"))
        report = run_full_analysis(cfg)
        assert list(report.failures) == [('q"2', "a_1", "task")]

        labels = load_taxonomy(inputs["taxonomy"]).display_labels()
        expected = csv_outputs_by_csv_writer(report, ids, labels, 2.0)
        for name, text in expected.items():
            written = (tmp_path / "out" / name).read_bytes()
            assert written == text.encode("utf-8"), name
        assert '"Net, ""x"""' in expected["pvalues.csv"]
        assert ",error," in expected["estimates.csv"]
        for name in ("spectra.csv", "dh_curves.csv"):
            with open(tmp_path / "out" / name, newline="") as fh:
                keys = Counter(tuple(r[:3]) for r in list(csv.reader(fh))[1:])
            assert keys == {
                key: len(e.diagnostics["spectrum_rows"] if name == "spectra.csv"
                         else e.spectrum)
                for key, e in report.results.items()}

    def test_synthetic_recipes_expand_to_samples(self):
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=6)
        ds = pipeline._build_dataset(cfg)
        classes = ds.taxonomy.classes
        assert ds.subjects == ("s01", "s02", "s03", "s04")
        assert set(ds.runs) == {(s, st) for s in ds.subjects
                                for st in ("rest", "task")}
        for (subject, state), run in ds.runs.items():
            matrix = run.matrix(cfg)
            assert matrix.shape == (1024, len(classes))
            s_idx = ds.subjects.index(subject)
            j = ("rest", "task").index(state)
            for k, cls in enumerate(classes):
                expected = pipeline._synthetic_samples(cfg, s_idx, k, j, cls)
                assert np.array_equal(matrix[:, k], expected)

    def test_synthetic_tasks_carry_recipes_not_samples(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a series was synthesized")

        monkeypatch.setattr(pipeline, "gen_mrw", unexpected)
        monkeypatch.setattr(pipeline, "gen_fgn", unexpected)
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=6)
        ds = pipeline._build_dataset(cfg)
        tasks = pipeline._run_tasks(cfg, ds)
        assert [task[0] for task in tasks] == [
            (s, st) for s in ds.subjects for st in ("rest", "task")]
        assert all(isinstance(task[1], pipeline.SyntheticRun)
                   for task in tasks)

    def test_failed_run_leaves_earlier_outputs_whole(self, tmp_path,
                                                    monkeypatch):
        out = tmp_path / "out"
        run_full_analysis(AnalysisConfig(synthetic=SMALL_SYNTH, seed=4,
                                         output_dir=str(out)))
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        per_subject = 2 * 6  # two runs of six maps
        calls = []
        analyze = pipeline.analyze_series

        def die_in_second_subject(*args, **kwargs):
            calls.append(args)
            if len(calls) > per_subject:
                raise RuntimeError("analysis died")
            return analyze(*args, **kwargs)

        monkeypatch.setattr(pipeline, "analyze_series", die_in_second_subject)
        with pytest.raises(RuntimeError, match="analysis died"):
            run_full_analysis(AnalysisConfig(synthetic=SMALL_SYNTH, seed=5,
                                             output_dir=str(out)))
        # the first subject's rows were streamed before the failure
        assert len(calls) == per_subject + 1
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_synthetic_study_needs_subjects(self, tmp_path):
        with pytest.raises(ParameterError,
                           match="config key synthetic.subjects: 0 must be"):
            run_full_analysis(AnalysisConfig(
                synthetic={"subjects": 0}, output_dir=str(tmp_path / "out")))
        assert not (tmp_path / "out").exists()

    def test_file_study_streams_in_subject_order(self, tmp_path):
        ids = ["b", "a", "c"]
        inputs = write_fixture_dataset(tmp_path, n_subjects=3, n_maps=3,
                                       n=512, seed=7, ids=ids)
        flatten_map(Path(inputs["subjects"][1]["task"]), 2)  # fails alone
        digests = {}
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            report = run_full_analysis(AnalysisConfig(
                inputs=inputs, octave_range=(2, 5), output_dir=str(out),
                workers=workers))
            assert list(report.failures) == [("a", "a_1", "task")]
            digests[workers] = {
                p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                for p in sorted(out.iterdir())}
            labels = ("f_1", "a_1", "u_1")
            expected = [(s, lab, st) for s in ids for lab in labels
                        for st in ("rest", "task")]
            for name in ("estimates.csv", "spectra.csv", "dh_curves.csv"):
                with open(out / name, newline="") as fh:
                    keys = [tuple(r[:3]) for r in list(csv.reader(fh))[1:]]
                order = list(dict.fromkeys(keys))
                assert order == (expected if name == "estimates.csv" else
                                 [k for k in expected
                                  if k != ("a", "a_1", "task")]), name
        assert len(digests[1]) == 6
        assert digests[1] == digests[2]

    def test_output_schemas(self, tmp_path):
        out = tmp_path / "out"
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=3, output_dir=str(out))
        run_full_analysis(cfg)
        heads = {
            "estimates.csv": "subject,map,state,status,beta,welch_beta,hurst,"
                             "stationary,h_min,gamma,reference_shift,c1,c2,error",
            "spectra.csv": "subject,map,state,octave,frequency_hz,"
                           "log2_power,fitted_log2_power",
            "dh_curves.csv": "subject,map,state,h,d",
            "pvalues.csv": "level,map,parameter,test,statistic,p,p_corrected",
        }
        for name, header in heads.items():
            first = (out / name).read_text().splitlines()[0]
            assert first == header, name
        doc = json.loads((out / "group_report.json").read_text())
        assert set(doc) == {"provenance", "dropped_subjects", "failures",
                            "aggregate", "battery"}
        two = doc["battery"]["two_sample"]["map"]["f_1"]["c1"]
        assert set(two["significant"]) == {"0.01", "0.05"}

    def test_estimates_csv_round_trips_battery(self, tmp_path):
        out = tmp_path / "out"
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=2, output_dir=str(out))
        report = run_full_analysis(cfg)
        counts = SMALL_SYNTH["maps"]
        tax = synthetic_taxonomy(counts["F"], counts["A"], counts["U"])
        table = load_estimates_csv(out / "estimates.csv", tax)
        assert table.n_subjects == SMALL_SYNTH["subjects"]
        assert np.allclose(table.estimates, report.table.estimates)


class TestSyntheticTaxonomy:
    def test_paper_shape(self):
        tax = synthetic_taxonomy()
        tax.assert_counts(25, 13, 4)
        assert tax.display_labels()[0] == "f_1"
        assert tax.display_labels()[25] == "a_1"
        units = tax.units()
        assert set(units["network"]) == {"Att", "DMN", "Mot", "N-c", "Vis"}
        assert set(units["artifact"]) == {"Ven", "WhM", "Mov", "Oth"}


class TestTaxonomyIO:
    def test_load_taxonomy(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("map_index,class,network_or_artifact\n"
                        "1,F,Att\n2,A,Ven\n3,U,\n")
        tax = load_taxonomy(path)
        assert tax.classes == ("F", "A", "U")
        assert tax.units()["network"] == {"Att": [0]}

    def test_gap_in_indices(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("map_index,class,network_or_artifact\n1,F,\n3,A,\n")
        with pytest.raises(DataFormatError, match="cover"):
            load_taxonomy(path)

    def test_missing_class_located(self, tmp_path):
        path = tmp_path / "tax.csv"
        path.write_text("map_index,class,network_or_artifact\n1,F,\n2\n")
        with pytest.raises(DataFormatError, match=r"tax\.csv:3: expected"):
            load_taxonomy(path)
