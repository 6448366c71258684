import csv
import dataclasses
import hashlib
import json
import math
import os
import pickle
import warnings
import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scalefree import pipeline
from scalefree.cli import _read_column, main
from scalefree.errors import (DataFormatError, DegenerateInputError,
                              ParameterError, ScaleFreeError, ScaleRangeError)
from scalefree.grouptests import GroupTable, run_battery
from scalefree.leaders_mf import (_moments, compute_leaders, global_regularity,
                                  legendre_spectrum, select_gamma)
from scalefree.pipeline import (AnalysisConfig, _leader_spans, _pool_size,
                                analyze_series, load_dataset,
                                load_estimates_csv, load_taxonomy,
                                run_full_analysis, synthetic_taxonomy)
from scalefree.synth import GeneratorSpec, gen_fgn, gen_mrw, generate
from scalefree.scaling import welch_psd
from scalefree.wavelet import Signal, build_wavelet, dwt

from oracles import (analyze_series_before, csv_outputs_by_csv_writer,
                     moments_before)

SMALL_SYNTH = {"subjects": 4, "length": 1024, "maps": {"F": 3, "A": 2, "U": 1}}
DEGENERATE = ("{label}: wavelet coefficients at octave {octave} vanish relative "
              "to the signal amplitude; no resolvable fluctuations")


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


def synthetic_study_as_files(config: AnalysisConfig, root: Path,
                             ids=None) -> dict:
    """The inputs section that reads a synthetic study back: its taxonomy
    CSV and its runs as %.17g run CSVs under root, subject s under ids[s]
    when ids are given, else under its synthetic id."""
    dataset = pipeline._build_dataset(config)
    taxonomy = dataset.taxonomy
    tax = root / "taxonomy.csv"
    tax.write_text("map_index,class,network_or_artifact\n" + "".join(
        f"{k},{cls},{tag}\n" for k, (cls, tag)
        in enumerate(zip(taxonomy.classes, taxonomy.tags), start=1)))
    subjects = []
    for s, sid in enumerate(dataset.subjects):
        entry = {"id": ids[s] if ids else sid}
        for state in ("rest", "task"):
            matrix = dataset.runs[sid, state].matrix(config)
            entry[state] = str(root / f"{sid}_{state}.csv")
            np.savetxt(entry[state], np.column_stack(
                [np.arange(len(matrix)), matrix]), fmt="%.17g",
                delimiter=",", comments="", header="t," + ",".join(
                    f"map_{k}" for k in range(1, matrix.shape[1] + 1)))
        subjects.append(entry)
    return {"taxonomy": str(tax), "subjects": subjects}


def flatten_map(path: Path, column: int, value: str = "5.0"):
    """Overwrite one map column of a run CSV with a constant."""
    rows = [r.split(",") for r in path.read_text().splitlines()]
    for r in rows[1:]:
        r[column] = value
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


# Two valid configs that set every key: a synthetic study in fixed gamma
# mode and a file study in auto mode (from_dict opens no input file).
_CONFIG_SETTINGS = {
    "octave_range": [3, 6], "n_vanishing": 3, "q_grid": [-2, -1, 1, 2],
    "alpha_levels": [0.01, 0.05], "sampling_rate": 1.0,
    "welch": {"segment_length": 256, "overlap_fraction": 0.5, "window": "hann"},
    "output_dir": "out", "workers": 1, "seed": 0}
VALID_CONFIGS = [
    {**_CONFIG_SETTINGS,
     "gamma": {"mode": "fixed", "value": 2.0, "eps": 0.1},
     "synthetic": {"subjects": 3, "length": 1024,
                   "maps": {"F": 2, "A": 1, "U": 1},
                   "rest_hurst": {"F": 0.8, "A": 0.75, "U": 0.78},
                   "task_hurst": {"F": 0.7, "A": 0.65, "U": 0.67},
                   "lambda2": {"F": 0.03, "A": 0.03, "U": 0.03}}},
    {**_CONFIG_SETTINGS,
     "gamma": {"mode": "auto", "value": 2.0, "eps": 0.1},
     "inputs": {"taxonomy": "tax.csv", "expected_class_counts": [1, 1, 1],
                "subjects": [{"id": "a", "rest": "a_rest.csv",
                              "task": "a_task.csv"}]}},
]
# A wrong type, a negative value, NaN, an infinity, an empty list; or an
# unknown key added to the top level or to one section.
UNKNOWN_KEY = object()
CONFIG_MUTANTS = ["x", 7, True, {"zz": 1}, -1, -2.5, math.nan, math.inf,
                  -math.inf, [], UNKNOWN_KEY]


def config_keys(node, path=""):
    """(key path, dict, key) for every key of a nested config, the keys of
    the dicts in a list (inputs.subjects[0].id) included."""
    for key, value in node.items():
        sub = f"{path}.{key}" if path else key
        yield sub, node, key
        if isinstance(value, dict):
            yield from config_keys(value, sub)
        elif isinstance(value, list):
            for i, entry in enumerate(value):
                if isinstance(entry, dict):
                    yield from config_keys(entry, f"{sub}[{i}]")


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

    def test_config_and_layer_apply_one_rule(self):
        """A value the config rejects, the layer that uses it rejects with
        the same message; the config only puts "config key ..." first."""
        def config(**fields):
            return lambda: AnalysisConfig(synthetic={}, **fields)

        table = GroupTable(np.zeros((3, 3, 2, 3)), synthetic_taxonomy(1, 1, 1),
                           ("a", "b", "c"))
        signal = Signal(np.ones(64), 1.0)
        cases = [  # (config call, its prefix, layer call, its prefix)
            (config(n_vanishing=11), "config key ", lambda: build_wavelet(11),
             ""),
            (config(sampling_rate=math.inf), "config key ",
             lambda: Signal(np.zeros(8), math.inf, "x"), "signal 'x': "),
            (config(welch_overlap=1.5), "config key welch.",
             lambda: welch_psd(signal, overlap_fraction=1.5), ""),
            (config(welch_window="flat"), "config key welch.",
             lambda: welch_psd(signal, window="flat"), ""),
            # the segment's upper bound needs the length: the run-level rule
            (lambda: pipeline._require_feasible(64, AnalysisConfig(
                synthetic={}, welch_segment_length=100)), "config key welch.",
             lambda: welch_psd(signal, segment_length=100), ""),
            (config(gamma_value=math.nan), "config key gamma.",
             lambda: select_gamma(0.1, "fixed", math.nan), ""),
            (config(q_grid=(1.0, 1.0, 2.0)), "config key ",
             lambda: legendre_spectrum([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]]),
             ""),
            (config(alpha_levels=(0.05, 7.0)), "config key ",
             lambda: run_battery(table, (0.05, 7.0)), ""),
        ]
        for config_call, config_prefix, layer_call, layer_prefix in cases:
            with pytest.raises(ParameterError) as config_exc:
                config_call()
            with pytest.raises(ParameterError) as layer_exc:
                layer_call()
            config_msg, layer_msg = str(config_exc.value), str(layer_exc.value)
            assert config_msg.startswith(config_prefix), config_msg
            assert layer_msg.startswith(layer_prefix), layer_msg
            assert config_msg[len(config_prefix):] == layer_msg[len(layer_prefix):]

    @given(case=st.sampled_from(VALID_CONFIGS), pick=st.integers(0, 10**6),
           mutant=st.sampled_from(CONFIG_MUTANTS))
    @settings(max_examples=1000, deadline=None)
    def test_mutated_config_named_by_key_path(self, case, pick, mutant):
        """One key of a valid config set to a bad value, or one unknown key
        added: from_dict returns, or raises a ScaleFreeError naming the
        key's path; any other exception fails."""
        raw = json.loads(json.dumps(case))
        keys = list(config_keys(raw))
        if mutant is UNKNOWN_KEY:
            sections = [("", raw)] + [(path, node[key]) for path, node, key
                                      in keys if isinstance(node[key], dict)]
            path, section = sections[pick % len(sections)]
            section["zz_unknown"] = 1
            path = f"{path}.zz_unknown".lstrip(".")
        else:
            path, node, key = keys[pick % len(keys)]
            node[key] = mutant
        try:
            AnalysisConfig.from_dict(raw)
        except ScaleFreeError as exc:
            assert path in str(exc), (path, str(exc))

    def test_gamma_json_nesting(self):
        cfg = AnalysisConfig.from_dict(
            {"synthetic": {}, "gamma": {"mode": "auto", "eps": 0.2}})
        assert cfg.gamma_mode == "auto"
        assert cfg.gamma_eps == 0.2


def set_cells(*cells):
    """An edit of a run CSV's lines: each (line, column, token) puts token
    in that cell of the file's line, counted from 1 before any edit."""
    def edit(lines):
        for line, col, token in cells:
            parts = lines[line - 1].split(",")
            parts[col] = token
            lines[line - 1] = ",".join(parts)
        return lines
    return edit


def outputs(out: Path) -> dict:
    """{name: bytes} of every file in an output directory."""
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


def file_study_config(tmp_path, **fields) -> AnalysisConfig:
    """A feasible 3-subject, 3-map file study of 512-sample runs."""
    inputs = write_fixture_dataset(tmp_path, n_subjects=3, n_maps=3, n=512,
                                   seed=5)
    return AnalysisConfig(inputs=inputs, octave_range=(2, 5), **fields)


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        """load_dataset parses no run CSV, and every run's length is the
        row count of its state's first run; a run's matrix is the file's
        map columns, and the study gives the same outputs with 1 and 2
        workers."""
        cfg = file_study_config(tmp_path, sampling_rate=2.0)
        ds = load_dataset(cfg)
        assert ds.taxonomy.n_maps == 3
        for (sid, state), run in ds.runs.items():
            assert run == pipeline.FileRun(
                cfg.inputs["subjects"][int(sid[3:])][state], 3, 512)
            expected = [[float(c) for c in row[1:]]
                        for row in read_rows(Path(run.path))]
            matrix = run.matrix(cfg)
            assert matrix.tolist() == expected
            assert matrix.flags.c_contiguous
        written = []
        for workers in (1, 2):
            out = tmp_path / f"w{workers}"
            report = run_full_analysis(replace(cfg, output_dir=str(out),
                                               workers=workers))
            assert len(report.cells) == 18 and not report.failures
            written.append(outputs(out))
        assert len(written[0]) == 6 and written[0] == written[1]

    @staticmethod
    def _check_run_fault_located(tmp_path, monkeypatch, subject, state, edit,
                                 message, after_load=False):
        """A run CSV whose body is at fault (edit(lines) gives its lines)
        passes load_dataset, which parses no cell and reads a whole file
        only for a state's first run; with after_load, the file is edited
        once load_dataset has read it.  The fault is found when its run is
        parsed: FileRun.matrix and run_full_analysis with 1 and 2 workers
        raise the same located error, leave no ".partial" file, an earlier
        run's outputs whole, and no output directory of their own."""
        cfg = file_study_config(tmp_path)
        earlier = tmp_path / "earlier"
        run_full_analysis(replace(cfg, output_dir=str(earlier)))
        before = outputs(earlier)

        path = Path(cfg.inputs["subjects"][subject][state])
        text = path.read_text()
        edited = "\n".join(edit(text.splitlines())) + "\n"
        if after_load:
            load = pipeline.load_dataset

            def load_then_edit(config):
                path.write_text(text)
                dataset = load(config)
                path.write_text(edited)
                return dataset

            monkeypatch.setattr(pipeline, "load_dataset", load_then_edit)
        else:
            path.write_text(edited)

        run = pipeline.load_dataset(cfg).runs[f"sub{subject}", state]
        with pytest.raises(DataFormatError) as info:
            run.matrix(cfg)
        located = str(info.value)
        assert located.startswith(f"{path}{message}"), located
        for workers in (1, 2):
            for out in (earlier, tmp_path / f"new_w{workers}"):
                with pytest.raises(DataFormatError) as info:
                    run_full_analysis(replace(cfg, output_dir=str(out),
                                              workers=workers))
                assert str(info.value) == located
            assert outputs(earlier) == before
            assert not (tmp_path / f"new_w{workers}").exists()

    def test_nan_located(self, tmp_path, monkeypatch):
        self._check_run_fault_located(
            tmp_path, monkeypatch, 1, "task", set_cells((19, 2, "nan")),
            ":19: column map_2: non-finite value")

    def test_bad_token_located(self, tmp_path, monkeypatch):
        self._check_run_fault_located(
            tmp_path, monkeypatch, 0, "rest", set_cells((4, 1, "oops")),
            ":4: column map_1: cannot parse 'oops'")

    def test_oversized_cell_located(self, tmp_path, monkeypatch):
        self._check_run_fault_located(
            tmp_path, monkeypatch, 2, "rest",
            set_cells((7, 3, BIG_CELL.decode())),
            f":7: field larger than field limit ({csv.field_size_limit()})")

    def test_bad_cell_after_quoted_line_end_located(self, tmp_path,
                                                    monkeypatch):
        """A quoted cell holding a line end on line 3 moves the nan of
        the file's 19th line onto physical line 20."""
        self._check_run_fault_located(
            tmp_path, monkeypatch, 1, "task",
            set_cells((3, 1, '"0.25\n"'), (19, 2, "nan")),
            ":20: column map_2: non-finite value")

    def test_length_mismatch(self, tmp_path, monkeypatch):
        """The last subject's task run one row short or long: load_dataset
        accepts the study, and the run's task names both lengths."""
        for edit, n in ((lambda lines: lines[:-1], 511),
                        (lambda lines: lines + lines[-1:], 513)):
            root = tmp_path / f"n{n}"
            root.mkdir()
            self._check_run_fault_located(
                root, monkeypatch, 2, "task", edit,
                f": {n} sample rows; the first run of its state had 512")

    def test_file_changed_after_load_located(self, tmp_path, monkeypatch):
        """A state's first run, whose rows load_dataset counted, shortened
        before its task parses it."""
        self._check_run_fault_located(
            tmp_path, monkeypatch, 0, "rest", lambda lines: lines[:-1],
            ": 511 sample rows; the first run of its state had 512",
            after_load=True)

    def test_unknown_taxonomy_class(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        tax = Path(inputs["taxonomy"])
        tax.write_text(tax.read_text().replace("F,", "Z,"))
        with pytest.raises(DataFormatError) as info:
            load_dataset(AnalysisConfig(inputs=inputs))
        assert str(info.value).startswith(f"{tax}:2: unknown class 'Z'")

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

    def test_expected_counts_enforced(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        inputs["expected_class_counts"] = [25, 13, 4]
        with pytest.raises(DataFormatError, match="cardinalities"):
            load_dataset(AnalysisConfig(inputs=inputs))


def write_rows(path: Path, rows, newline=b"\n") -> Path:
    """rows of byte cells as a CSV file, one line each."""
    path.write_bytes(b"".join(b",".join(row) + newline for row in rows))
    return path


def read_rows(path: Path) -> list:
    """The non-blank rows after the header, as csv.reader parses them."""
    with open(path, newline="", encoding="utf-8") as fh:
        return [row for row in list(csv.reader(fh))[1:]
                if any(c.strip() for c in row)]


TAXONOMY_ROWS = [[b"map_index", b"class", b"network_or_artifact"],
                 [b"1", b"F", b"Att"], [b"2", b"A", b"Ven"], [b"3", b"U", b""]]
RUN_ROWS = ([[b"t", b"map_1", b"map_2", b"map_3"]]
            + [[b"%d" % i, b"%.17g" % (0.5 * i), b"%d" % -i, b"1e-3"]
               for i in range(6)])
# A cell over csv.field_size_limit() (131072 characters by default).
BIG_CELL = b"1" * 200_000
ESTIMATE_COLUMNS = ["subject", "map", "state", "status", "c1", "c2", "hurst",
                    "error"]


def estimate_rows(subjects=("s1", "s2", "s3", "s4")) -> list:
    """A valid estimates CSV for TAXONOMY_ROWS' maps, as byte cells."""
    rows = [[c.encode() for c in ESTIMATE_COLUMNS]]
    for i, sid in enumerate(subjects):
        for k, label in enumerate(("f_1", "a_1", "u_1")):
            for j, state in enumerate(("rest", "task")):
                rows.append([sid.encode(), label.encode(), state.encode(), b"ok",
                             b"%.17g" % (0.1 * i + k), b"%.17g" % (-0.01 * j),
                             b"%.17g" % (0.7 + 0.01 * k), b""])
    return rows


class TestIngestErrors:
    """Each branch of the file readers raises a DataFormatError that
    starts with the path of the file at fault."""

    @pytest.mark.parametrize("text, message", [
        (b"", ": empty file"),
        (b"index,class\n1,F\n", ": expected header map_index,class"),
        (b"map_index,class\n", ": taxonomy is empty"),
        (b"map_index,class\n1,F\nx,A\n", ":3: map_index 'x' is not an integer"),
        (b"map_index,class\n1,F\n1,A\n", ":3: duplicate map_index 1"),
    ])
    def test_taxonomy(self, tmp_path, text, message):
        path = tmp_path / "tax.csv"
        path.write_bytes(text)
        with pytest.raises(DataFormatError) as info:
            load_taxonomy(path)
        assert str(info.value).startswith(f"{path}{message}")

    @pytest.mark.parametrize("rows, message", [
        (RUN_ROWS[:3] + [RUN_ROWS[3][:3]] + RUN_ROWS[4:],
         ":4: expected 4 columns, got 3"),
        (RUN_ROWS[:2], ": fewer than 2 sample rows"),
        (RUN_ROWS[:1], ": fewer than 2 sample rows"),
    ])
    def test_run_csv(self, tmp_path, rows, message):
        path = write_rows(tmp_path / "run.csv", rows)
        with pytest.raises(DataFormatError) as info:
            pipeline._load_run_csv(path, 3)
        assert str(info.value).startswith(f"{path}{message}")

    @pytest.mark.parametrize("readers, rows, line", [
        (("taxonomy",), TAXONOMY_ROWS[:2] + [[b"2", b"A", BIG_CELL]]
         + TAXONOMY_ROWS[3:], 3),
        (("taxonomy",), [TAXONOMY_ROWS[0] + [BIG_CELL]] + TAXONOMY_ROWS[1:],
         1),
        (("estimates",), estimate_rows()[:5]
         + [estimate_rows()[5][:4] + [BIG_CELL] + estimate_rows()[5][5:]]
         + estimate_rows()[6:], 6),
        (("run",), [RUN_ROWS[0][:3] + [BIG_CELL]] + RUN_ROWS[1:], 1),
        (("run",), RUN_ROWS[:3] + [[b"2", BIG_CELL, b"0", b"0"]]
         + RUN_ROWS[4:], 4),
        (("run",), RUN_ROWS[:3] + [[b"2", b'"%s"' % BIG_CELL, b"0", b"0"]]
         + RUN_ROWS[4:], 4),
        # a header cell holding a line end: the big cell is on line 4
        (("run",), [[b"t", b'"map_1\n"', b"map_2", b"map_3"]]
         + RUN_ROWS[1:2] + [[b"1", BIG_CELL, b"0", b"0"]] + RUN_ROWS[3:], 4),
        # after a quoted cell holding a line end, the big cell is on line 6
        (("run",), RUN_ROWS[:2] + [[b"1", b'"0.5\n"', b"-1", b"0"]]
         + RUN_ROWS[3:4] + [[b"3", b"1", BIG_CELL, b"0"]] + RUN_ROWS[5:], 6),
    ])
    def test_oversized_cell(self, tmp_path, readers, rows, line):
        """The csv.reader of every input file turns the csv.Error of a cell
        over csv.field_size_limit() into a DataFormatError naming the
        file's path and line."""
        tax = load_taxonomy(write_rows(tmp_path / "tax.csv", TAXONOMY_ROWS))
        loads = {"taxonomy": load_taxonomy,
                 "estimates": lambda p: load_estimates_csv(p, tax),
                 "run": lambda p: pipeline._load_run_csv(p, 3)}
        path = write_rows(tmp_path / "in.csv", rows)
        for reader in readers:
            with pytest.raises(DataFormatError) as info:
                loads[reader](path)
            assert str(info.value) == (
                f"{path}:{line}: field larger than field limit "
                f"({csv.field_size_limit()})"), reader

    def test_subject_entries(self, tmp_path):
        inputs = write_fixture_dataset(tmp_path)
        inputs["subjects"][1]["id"] = "sub0"
        with pytest.raises(DataFormatError, match=(
                r"^config key inputs\.subjects\[1\]\.id: duplicate "
                "subject id 'sub0'$")):
            load_dataset(AnalysisConfig(inputs=inputs))
        inputs["subjects"] = []
        with pytest.raises(DataFormatError, match="^inputs.subjects is empty$"):
            load_dataset(AnalysisConfig(inputs=inputs))

    @pytest.mark.parametrize("edit, message", [
        (lambda rows: [[c for c in row if c != b"c2"] for row in rows[:1]]
         + rows[1:], ": estimates CSV must carry columns"),
        (lambda rows: rows[:2] + [rows[2][:1] + [b"f_9"] + rows[2][2:]]
         + rows[3:], ":3: unknown map label 'f_9' for the taxonomy"),
        (lambda rows: rows[:2] + [rows[2][:2] + [b"nap"] + rows[2][3:]]
         + rows[3:], ":3: unknown state 'nap'"),
        # a second row for one (subject, map, state), ok or failed
        (lambda rows: rows[:3] + [rows[2]] + rows[3:],
         ":4: duplicate row for s1/f_1/task"),
        (lambda rows: rows[:3] + [rows[1][:3] + [b"error"] + [b""] * 3
                                  + [b"EstimationError: x"]] + rows[3:],
         ":4: duplicate row for s1/f_1/rest"),
        # a failed row drops its subject, and 2 complete subjects are too few
        (lambda rows: rows[:2] + [rows[2][:3] + [b"error"] + [b""] * 3
                                  + [b"EstimationError: x"]] + rows[3:-6],
         ": only 2 complete subject(s); need >= 3"),
    ])
    def test_estimates_csv(self, tmp_path, edit, message):
        tax = load_taxonomy(write_rows(tmp_path / "tax.csv", TAXONOMY_ROWS))
        path = write_rows(tmp_path / "est.csv", edit(estimate_rows()))
        with pytest.raises(DataFormatError) as info, warnings.catch_warnings():
            warnings.simplefilter("ignore")
            load_estimates_csv(path, tax)
        assert str(info.value).startswith(f"{path}{message}")

    def test_estimates_csv_drops_incomplete_subjects(self, tmp_path):
        tax = load_taxonomy(write_rows(tmp_path / "tax.csv", TAXONOMY_ROWS))
        rows = estimate_rows()
        rows[8][3] = b"error"  # s2's first row
        path = write_rows(tmp_path / "est.csv", rows)
        with pytest.warns(UserWarning, match=r"dropped incomplete subject\(s\): "
                                             r"\['s2'\]"):
            table = load_estimates_csv(path, tax)
        assert table.subjects == ("s1", "s3", "s4")


# One cell, or one line, of a valid file replaced by a token a hand-edited
# or corrupted file may hold; a cell added to or taken from a row.  Python's
# float reads "1_0" and a full-width digit, which np.loadtxt rejects, and
# rejects the separator \x1c, which np.loadtxt strips; "1e400" reads as inf;
# as a line, " \t " is blank and ",,," all empty cells; an added empty cell
# is a trailing comma.
FUZZ_TOKENS = [b"", b"abc", b"nan", b"inf", b"1_0", b'"2.5"', b"#", b"\xff",
               b" 1.5", b"1e400", b"infinity", "\uff11".encode(), b"1\x1c",
               b" \t ", b",,,"]
FUZZ_EDITS = st.tuples(st.sampled_from(("cell", "line", "extra", "missing")),
                       st.integers(0, 10**6), st.integers(0, 10**6),
                       st.sampled_from(FUZZ_TOKENS))


def fuzzed(rows, edit) -> list:
    mode, r, c, token = edit
    rows = [list(row) for row in rows]
    row = rows[r % len(rows)]
    if mode == "cell":
        row[c % len(row)] = token
    elif mode == "line":
        row[:] = [token]
    elif mode == "extra":
        row.append(token)
    else:
        row.pop()
    return rows


def loads_or_located(load, path):
    """load(path), or None after a DataFormatError that starts with path;
    any other exception propagates and fails the caller."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            return load(path)
    except DataFormatError as exc:
        assert str(exc).startswith(str(path)), exc
        return None


# Per reader of a CSV file: a valid file's rows, the columns where a quoted
# cell may hold a line end and read as it did, and defects (rows, r -> the
# new row r) that each raise a per-row error.
SIGNAL_ROWS = ([[b"t", b"value"]]
               + [[b"%d" % i, b"%.17g" % (0.25 * i - 1)] for i in range(8)])
LINE_END_READERS = {
    "taxonomy": (TAXONOMY_ROWS, (0, 1, 2), (
        lambda rows, r: [b"x"] + rows[r][1:],
        lambda rows, r: rows[r][:1] + [b"Z"] + rows[r][2:],
        lambda rows, r: rows[r][:1],
        lambda rows, r: rows[r - 1][:1] + rows[r][1:],
    )),
    "run": (RUN_ROWS, (0, 1, 2, 3), (
        lambda rows, r: rows[r][:1] + [b"abc"] + rows[r][2:],
        lambda rows, r: rows[r][:2] + [b"nan"] + rows[r][3:],
        lambda rows, r: rows[r][:-1],
        lambda rows, r: rows[r] + [b"0"],
    )),
    "estimates": (estimate_rows(), (4, 5, 6, 7), (
        lambda rows, r: rows[r][:4] + [b"abc"] + rows[r][5:],
        lambda rows, r: rows[r][:1] + [b"f_9"] + rows[r][2:],
        lambda rows, r: rows[r][:2] + [b"nap"] + rows[r][3:],
    )),
    "spectrum": (SIGNAL_ROWS, (0, 1), (
        lambda rows, r: rows[r][:1] + [b"abc"],
        lambda rows, r: rows[r][:1],
    )),
}


class TestLocatedErrorFuzz:
    @given(edit=FUZZ_EDITS)
    @settings(max_examples=150, deadline=None)
    def test_taxonomy(self, tmp_path_factory, edit):
        path = write_rows(tmp_path_factory.mktemp("fuzz") / "tax.csv",
                          fuzzed(TAXONOMY_ROWS, edit))
        tax = loads_or_located(load_taxonomy, path)
        if tax is not None:
            rows = sorted(read_rows(path), key=lambda row: int(row[0]))
            assert tax.classes == tuple(row[1].strip() for row in rows)
            assert tax.tags == tuple(row[2].strip() if len(row) > 2 else ""
                                     for row in rows)

    @given(edit=FUZZ_EDITS)
    @settings(max_examples=150, deadline=None)
    def test_run_csv(self, tmp_path_factory, edit):
        path = write_rows(tmp_path_factory.mktemp("fuzz") / "run.csv",
                          fuzzed(RUN_ROWS, edit))
        matrix = loads_or_located(lambda p: pipeline._load_run_csv(p, 3), path)
        if matrix is not None:
            expected = [[float(c) for c in row] for row in read_rows(path)]
            assert all(map(math.isfinite, sum(expected, [])))
            assert matrix.tolist() == [row[1:] for row in expected]

    def test_run_csv_fast_path_reads_valid_files(self, tmp_path):
        """A valid run CSV, LF or CRLF, reads through the vectorised pass.
        With every cell quoted, as csv.QUOTE_ALL writes, and CRLF line
        ends, that pass declines it and the per-cell reader reads the
        same values."""
        quoted = [[b'"%s"' % cell for cell in row] for row in RUN_ROWS]
        for name, rows, newline in (("lf.csv", RUN_ROWS, b"\n"),
                                    ("crlf.csv", RUN_ROWS, b"\r\n"),
                                    ("quoted.csv", quoted, b"\r\n")):
            path = write_rows(tmp_path / name, rows, newline)
            expected = [[float(c) for c in row] for row in read_rows(path)]
            matrix = pipeline._loadtxt(path, 4)
            assert (matrix is None) == (rows is quoted)
            assert matrix is None or matrix.tolist() == expected
            assert pipeline._load_run_csv(path, 3).tolist() == [
                row[1:] for row in expected]

    @given(edit=FUZZ_EDITS, newline=st.sampled_from((b"\n", b"\r\n")))
    @settings(max_examples=300, deadline=None)
    def test_run_csv_fast_path_parity(self, tmp_path_factory, edit, newline):
        """With the vectorised pass on and off, a run CSV gives the same
        C-contiguous matrix or the same error."""
        path = write_rows(tmp_path_factory.mktemp("fuzz") / "run.csv",
                          fuzzed(RUN_ROWS, edit), newline)

        def load():
            try:
                return pipeline._load_run_csv(path, 3)
            except DataFormatError as exc:
                return str(exc)

        fast = load()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(pipeline, "_loadtxt", lambda path, width: None)
            cells = load()
        if isinstance(cells, str):
            assert isinstance(fast, str) and fast == cells, (fast, cells)
        else:
            assert isinstance(fast, np.ndarray), fast
            assert fast.shape == cells.shape
            assert np.array_equal(fast, cells)
            assert fast.flags.c_contiguous and cells.flags.c_contiguous

    @given(edit=FUZZ_EDITS, newline=st.sampled_from((b"\n", b"\r\n", b"\r")))
    @example(edit=("line", 3, 0, b", \t,"), newline=b"\n")
    @example(edit=("cell", 2, 1, b'"1,\n5"'), newline=b"\r\n")
    @example(edit=("cell", 2, 1, b'"2\n"'), newline=b"\n")
    @example(edit=("line", 3, 0, b'"",,,'), newline=b"\r\n")
    @example(edit=("cell", 2, 3, b'"x"'), newline=b"\n")
    @example(edit=("cell", 0, 2, b'"map_2"'), newline=b"\n")
    @example(edit=("cell", 4, 2, b"1\r2"), newline=b"\n")
    @example(edit=("line", 6, 0, b"\r"), newline=b"\r\n")
    @settings(max_examples=300, deadline=None)
    def test_run_csv_row_count_parity(self, tmp_path_factory, edit, newline):
        """The length load_dataset takes from a state's first run CSV, by
        counting its _csv_rows rows with no cell parsed, equals the row
        count of the matrix _load_run_csv returns, and where the count
        raises, the parse raises the same message.  The examples: a line of
        only commas and whitespace (blank to csv.reader), quoted cells
        holding a line end (with a comma, or a number the parse reads), a
        line of quoted blank cells, a quoted cell, a quoted header cell, a
        lone \\r in a line, and a line that is a lone \\r."""
        root = tmp_path_factory.mktemp("fuzz")
        path = write_rows(root / "run.csv", fuzzed(RUN_ROWS, edit), newline)
        tax = write_rows(root / "tax.csv", TAXONOMY_ROWS)
        config = AnalysisConfig(inputs={"taxonomy": str(tax), "subjects": [
            {"id": "a", "rest": str(path), "task": str(path)}]})

        def outcome(read):
            try:
                return read()
            except DataFormatError as exc:
                return str(exc)

        count = outcome(lambda: load_dataset(config).runs["a", "rest"].length)
        parsed = outcome(lambda: pipeline._load_run_csv(path, 3))
        if isinstance(parsed, np.ndarray):
            assert count == len(parsed), (count, parsed)
        if isinstance(count, str):
            assert parsed == count, (count, parsed)

    @given(edit=FUZZ_EDITS)
    @settings(max_examples=150, deadline=None)
    def test_estimates_csv(self, tmp_path_factory, edit):
        root = tmp_path_factory.mktemp("fuzz")
        tax = load_taxonomy(write_rows(root / "tax.csv", TAXONOMY_ROWS))
        path = write_rows(root / "est.csv", fuzzed(estimate_rows(), edit))
        table = loads_or_located(lambda p: load_estimates_csv(p, tax), path)
        if table is not None:
            with open(path, newline="", encoding="utf-8") as fh:
                header = next(csv.reader(fh))
            cells, subjects = {}, []
            for row in read_rows(path):
                cell = dict(zip(header, row + [""] * len(header)))
                if cell["subject"] not in subjects:
                    subjects.append(cell["subject"])
                if cell["status"] == "ok":
                    cells[cell["subject"], cell["map"], cell["state"]] = [
                        float(cell[col]) for col in ("c1", "c2", "hurst")]
            assert table.subjects == tuple(
                sid for sid in subjects
                if sum(key[0] == sid for key in cells) == 6)
            assert table.estimates.tolist() == [
                [[cells[sid, label, state] for state in ("rest", "task")]
                 for label in ("f_1", "a_1", "u_1")] for sid in table.subjects]

    @pytest.mark.parametrize("reader", sorted(LINE_END_READERS))
    @given(data=st.data(), newline=st.sampled_from((b"\n", b"\r\n")))
    @settings(max_examples=40, deadline=None)
    def test_error_names_first_physical_line(self, tmp_path_factory, reader,
                                             data, newline):
        """Quoted cells holding a line end before a defect move its error
        to the defect row's first physical line and change no other text
        of the message, for each reader: the taxonomy, a run CSV, the
        estimates CSV of battery --estimates and the column of spectrum
        --in."""
        root = tmp_path_factory.mktemp("fuzz")
        tax = load_taxonomy(write_rows(root / "tax.csv", TAXONOMY_ROWS))
        load = {"taxonomy": load_taxonomy,
                "run": lambda p: pipeline._load_run_csv(p, 3),
                "estimates": lambda p: load_estimates_csv(p, tax),
                "spectrum": lambda p: _read_column(p, "value")}[reader]
        valid, columns, defects = LINE_END_READERS[reader]
        rows = [list(row) for row in valid]
        r = data.draw(st.integers(1, len(rows) - 1), label="defect row")
        rows[r] = data.draw(st.sampled_from(defects), label="defect")(rows, r)
        cells = data.draw(st.lists(
            st.tuples(st.integers(0, r - 1), st.sampled_from(columns),
                      st.sampled_from((b"\n", b"\r\n")), st.booleans()),
            min_size=1, max_size=3, unique_by=lambda cell: cell[:2]),
            label="quoted cells holding a line end")

        def message(line_ends):
            quoted = [list(row) for row in rows]
            for q, col, line_end, before in cells:
                text = quoted[q][col]
                if line_ends:
                    text = line_end + text if before else text + line_end
                quoted[q][col] = b'"%s"' % text
            path = write_rows(root / "in.csv", quoted, newline)
            with pytest.raises(DataFormatError) as info:
                load(path)
            return str(info.value), path

        plain, path = message(False)
        assert plain.startswith(f"{path}:{r + 1}: "), plain
        line = r + 1 + len(cells)
        assert message(True)[0] == plain.replace(
            f"{path}:{r + 1}: ", f"{path}:{line}: ", 1)

@lru_cache(maxsize=None)
def affine_series(i: int) -> np.ndarray:
    """Three fGn and three MRW increment series of 2048 samples."""
    if i < 3:
        return gen_fgn(GeneratorSpec("fgn", 0.6 + 0.1 * i, 2048, seed=i)).samples
    walk = gen_mrw(GeneratorSpec("mrw", 0.6, 2048, seed=i, lambda2=0.03 * (i - 2)))
    return np.diff(walk.samples, prepend=0.0)


# Octave ranges of 3 to 11 octaves per length, each feasible at it: at 3,
# 5, 6, 7 and 11 octaves 1/n is inexact, where a fit whose sums are
# reordered (a batched w @ Y, say) gives other bits.
PARITY_RANGES = {2048: [(2, 4), (3, 6), (3, 7), (2, 7)],
                 3000: [(3, 5), (3, 6), (1, 7), (2, 7)],
                 2**16: [(3, 10), (4, 10), (2, 12), (3, 7)]}


def parity_series(kind: str, length: int, seed: int) -> Signal:
    """An fGn, or the increments of an MRW or fBm walk, of length samples
    (the head of a power-of-two draw)."""
    n = 1 << (length - 1).bit_length()
    samples = generate(GeneratorSpec(kind, 0.7, n, seed=seed,
                                     lambda2=0.05 if kind == "mrw" else 0.0)).samples
    if kind != "fgn":
        samples = np.diff(samples, prepend=0.0)
    return Signal(samples[:length], 1.0, label=f"{kind}/{length}")


class TestAnalyzeSeries:
    @given(kind=st.sampled_from(["fgn", "mrw", "fbm"]),
           length=st.sampled_from(sorted(PARITY_RANGES)),
           pick=st.integers(0, 3),
           gamma=st.sampled_from([("fixed", 0.0), ("fixed", 2.0),
                                  ("auto", 2.0)]),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_fields_equal_the_formulas_before(self, kind, length, pick, gamma,
                                              seed):
        """Every field of analyze_series has the bits of the oracle that
        computes each value afresh, fits each q column and cumulant with
        its own one-pass OLS and scans each positivity check in full (its
        pyramid is dwt's, which test_wavelet checks against dwt_before),
        except the three that read S(j, q) and the fits' r^2 and stderr:
        exp(q ln L) is within ulps of the oracle's L ** q, so zeta is held
        to 1e-12 relative (and 1e-12 absolute, for a zeta(q) near 0) and the
        D(h) rows to 1e-12 absolute; r^2 and stderr come from residuals
        about the means, not about the fitted line, and are held to 1e-12
        absolute."""
        j1, j2 = PARITY_RANGES[length][pick]
        cfg = AnalysisConfig(synthetic={}, octave_range=(j1, j2),
                             gamma_mode=gamma[0], gamma_value=gamma[1])
        sig = parity_series(kind, length, seed)
        est = analyze_series(sig, cfg)
        expected = analyze_series_before(sig, cfg)

        def bits(value):
            return np.asarray(value, dtype=np.float64).tobytes()

        for name in ("beta", "hurst", "h_min", "gamma", "c1", "c2"):
            assert bits(getattr(est, name)) == bits(expected[name]), name
        np.testing.assert_allclose(est.zeta, expected["zeta"], rtol=1e-12,
                                   atol=1e-12)
        assert est.spectrum.shape == expected["spectrum"].shape
        np.testing.assert_allclose(est.spectrum, expected["spectrum"],
                                   rtol=0.0, atol=1e-12)
        assert est.stationary == expected["stationary"]
        assert est.reference_shift == expected["reference_shift"]
        diag = est.diagnostics
        fit = diag["spectrum_fit"]
        assert (bits([fit.slope, fit.intercept])
                == bits(expected["spectrum_fit"][:2]))
        np.testing.assert_allclose([fit.stderr_slope, fit.r_squared],
                                   expected["spectrum_fit"][2:], rtol=0.0,
                                   atol=1e-12)
        assert repr(diag["spectrum_rows"]) == repr(expected["spectrum_rows"])
        assert bits(diag["welch_beta"]) == bits(expected["welch_beta"])
        for name in ("zeta_r_squared", "cumulant_r_squared"):
            np.testing.assert_allclose(diag[name], expected[name], rtol=0.0,
                                       atol=1e-12, err_msg=name)
        assert np.array_equal(diag["leader_counts"], expected["leader_counts"])

    @given(kind=st.sampled_from(["fgn", "mrw", "fbm"]),
           length=st.sampled_from(sorted(PARITY_RANGES)),
           pick=st.integers(0, 3),
           gamma=st.sampled_from([("fixed", 0.0), ("fixed", 2.0),
                                  ("auto", 2.0)]),
           q=st.lists(st.floats(-5, 5, allow_subnormal=False), min_size=1,
                      max_size=8),
           seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_structure_functions_equal_the_formula_before(
            self, kind, length, pick, gamma, q, seed):
        """The exp(q ln L) rows of _moments are within 1e-12 relative of
        the mean of L ** q, on the pyramids analyze_series builds and on
        user q grids with negative and fractional values; S(j, 0) is
        exactly 1."""
        j1, j2 = PARITY_RANGES[length][pick]
        pyramid = dwt(parity_series(kind, length, seed), build_wavelet(3), j2)
        gamma = select_gamma(global_regularity(pyramid, j1, j2), *gamma)
        leaders = compute_leaders(pyramid, gamma)
        q = np.array(q + [0.0])
        rows = _moments(leaders, q, j1, j2)[1]
        expected = moments_before(
            [leaders.valid_values(j) for j in range(j1, j2 + 1)], q)
        np.testing.assert_allclose(rows, expected, rtol=1e-12, atol=0.0)
        assert (rows[:, -1] == 1.0).all()

    def test_overflowing_structure_function_is_inf_in_both_forms(self):
        """A leader whose L^5 overflows gives S(j, 5) = inf by exp(5 ln L)
        as by L ** 5; the other moments stay finite and close."""
        samples = gen_fgn(GeneratorSpec("fgn", 0.7, 2048, seed=1)).samples
        pyramid = dwt(Signal(samples * 1e60, 1.0), build_wavelet(3), 7)
        leaders = compute_leaders(pyramid, 2.0)
        q = np.array([-1.0, 0.0, 1.0, 5.0])
        with np.errstate(over="ignore"):
            rows = _moments(leaders, q, 3, 7)[1]
            expected = moments_before(
                [leaders.valid_values(j) for j in range(3, 8)], q)
        assert np.isinf(rows[:, 3]).all() and np.isinf(expected[:, 3]).all()
        np.testing.assert_allclose(rows[:, :3], expected[:, :3], rtol=1e-12,
                                   atol=0.0)

    @pytest.mark.parametrize("samples", [np.zeros(2048), np.full(2048, -0.0),
                                         np.full(2048, 3.3)])
    def test_degenerate_gate_comes_before_the_spectrum_fit(self, samples):
        """An all-zero or constant series fails at the degenerate-input
        gate, not at the spectrum fit's log2 of a zero power."""
        with pytest.raises(DegenerateInputError) as err:
            analyze_series(Signal(samples, 1.0, "s/x"), AnalysisConfig(synthetic={}))
        assert str(err.value) == DEGENERATE.format(label="s/x", octave=3)

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
        """A series that fails is named by its label: a constant one, and
        one scaled by 1e60, whose leaders' 5th power overflows, so zeta(5)
        is NaN (it used to report ok with no D(h) row).  The overflow
        warns of nothing: the labelled error is all it reports."""
        cfg = AnalysisConfig(synthetic={})
        sig = Signal(np.full(4096, 1.0), 1.0, "flatliner")
        with pytest.raises(DegenerateInputError, match="flatliner"):
            analyze_series(sig, cfg)
        samples = gen_fgn(GeneratorSpec("fgn", 0.7, 2048, seed=1)).samples
        with (pytest.raises(ParameterError) as err,
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            analyze_series(Signal(samples * 1e60, 1.0, "s01/f_1/rest"), cfg)
        assert str(err.value) == ("s01/f_1/rest: zeta(5) = nan is not finite; "
                                  "D(h) needs finite exponents")
        assert [str(w.message) for w in caught] == []

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

    @given(series=st.integers(0, 5),
           a=st.sampled_from([3.7, 1e-3, -2.0, 1e4, 0.5]),
           b_over_a=st.floats(-1e3, 1e3), auto_gamma=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, series, a, b_over_a, auto_gamma):
        """H, c1 and c2 of a*x + b are those of x: the wavelet's vanishing
        moments remove b, and every estimate is a log-log slope."""
        cfg = AnalysisConfig(synthetic={},
                             gamma_mode="auto" if auto_gamma else "fixed")
        x = affine_series(series)
        base = analyze_series(Signal(x, 1.0), cfg)
        moved = analyze_series(Signal(a * x + b_over_a * abs(a), 1.0), cfg)
        for name in ("hurst", "c1", "c2"):
            value = getattr(base, name)
            assert abs(getattr(moved, name) - value) <= 1e-9 * max(1, abs(value))

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

    @pytest.mark.parametrize("workers", [1, 2])
    def test_report_cells_equal_estimates_csv(self, tmp_path, workers):
        """The report keeps the (c1, c2, hurst) of each successful series,
        as estimates.csv writes them, and no MfEstimate leaves a task."""
        inputs = write_fixture_dataset(tmp_path, n_subjects=4, n_maps=3,
                                       n=512, seed=5)
        flatten_map(Path(inputs["subjects"][2]["task"]), 1)  # fails alone
        out = tmp_path / "out"
        cfg = AnalysisConfig(inputs=inputs, octave_range=(2, 5),
                             output_dir=str(out), workers=workers)
        report = run_full_analysis(cfg)
        with open(out / "estimates.csv", newline="") as fh:
            rows = [r for r in csv.DictReader(fh) if r["status"] == "ok"]
        assert len(rows) == 23 and list(report.failures) == [
            ("sub2", "f_1", "task")]
        assert report.cells == {
            (r["subject"], r["map"], r["state"]):
                (float(r["c1"]), float(r["c2"]), float(r["hurst"]))
            for r in rows}
        assert not hasattr(report, "results")
        task = pipeline._run_tasks(cfg, pipeline._build_dataset(cfg))[0]
        assert b"MfEstimate" not in pickle.dumps(pipeline._run_one(task))

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

        monkeypatch.setattr(pipeline, "generate", unexpected)
        cfg = AnalysisConfig(synthetic={}, octave_range=(3, 9),
                             output_dir=str(tmp_path / "out"))
        with pytest.raises(ScaleRangeError, match="length 2048"):
            run_full_analysis(cfg)

    def test_infeasible_file_study_fails_before_any_run_is_parsed(
            self, tmp_path, monkeypatch):
        def unexpected(*args):
            raise AssertionError("a run was parsed or a series ran")

        monkeypatch.setattr(pipeline, "_load_run_csv", unexpected)
        monkeypatch.setattr(pipeline, "analyze_series", unexpected)
        cfg = replace(file_study_config(tmp_path), octave_range=(3, 9),
                      output_dir=str(tmp_path / "out"))
        with pytest.raises(ScaleRangeError, match="length 512 supports"):
            run_full_analysis(cfg)
        assert not (tmp_path / "out").exists()

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
        # flatten one map of one subject's rest run to a constant and
        # another of its task run to zeros; those series alone must fail,
        # at the degenerate-input gate
        flatten_map(Path(inputs["subjects"][1]["rest"]), 2)
        flatten_map(Path(inputs["subjects"][1]["task"]), 3, "0")
        cfg = AnalysisConfig(inputs=inputs, octave_range=(2, 5),
                             output_dir=str(tmp_path / "out"), seed=0,
                             workers=workers)
        report = run_full_analysis(cfg)
        assert report.provenance["n_series"] == 24
        assert report.provenance["n_failures"] == 2
        assert report.failures == {
            key: "DegenerateInputError: " + DEGENERATE.format(
                label="/".join(key), octave=2)
            for key in (("sub1", "a_1", "rest"), ("sub1", "u_1", "task"))}
        assert report.dropped_subjects == ("sub1",)
        # remaining three subjects still feed the battery
        assert report.table is not None
        assert report.table.n_subjects == 3
        rows = (tmp_path / "out" / "estimates.csv").read_text().splitlines()
        error_rows = [r for r in rows if ",error," in r]
        assert len(error_rows) == 2 and all("sub1" in r for r in error_rows)

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

        dataset = load_dataset(cfg)
        labels = dataset.taxonomy.display_labels()
        estimates = {}
        for (sid, state), run in dataset.runs.items():
            for label, samples in zip(labels, run.matrix(cfg).T):
                key = (sid, label, state)
                try:
                    estimates[key] = analyze_series(
                        Signal(samples, 2.0, label="/".join(key)), cfg)
                except ScaleFreeError:
                    assert key in report.failures
        expected = csv_outputs_by_csv_writer(
            estimates, report.failures, report.battery, ids, labels, 2.0)
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
                for key, e in estimates.items()}

    def test_synthetic_study_read_back_from_files(self, tmp_path):
        """A synthetic study written as %.17g run CSVs and its taxonomy CSV,
        then read through inputs with 1 and 2 workers, gives the same
        per-series files and p-values byte for byte, and the same report
        but its provenance."""
        synthetic = AnalysisConfig(synthetic=SMALL_SYNTH, seed=3,
                                   output_dir=str(tmp_path / "synthetic"))
        run_full_analysis(synthetic)
        inputs = synthetic_study_as_files(synthetic, tmp_path)

        def report(out):
            doc = json.loads((out / "group_report.json").read_text())
            del doc["provenance"]
            return json.dumps(doc, sort_keys=True)

        expected = tmp_path / "synthetic"
        for workers in (1, 2):
            out = tmp_path / f"files_w{workers}"
            run_full_analysis(AnalysisConfig(
                inputs=inputs, output_dir=str(out), workers=workers))
            for name in ("estimates.csv", "spectra.csv", "dh_curves.csv",
                         "pvalues.csv"):
                assert ((out / name).read_bytes()
                        == (expected / name).read_bytes()), (workers, name)
            assert report(out) == report(expected), workers

    def test_synthetic_study_read_back_under_quoted_ids(self, tmp_path):
        """The same round trip under file-study ids that need CSV quoting:
        with 1 and 2 workers, the per-series rows equal the synthetic
        study's once the subject column is mapped back, and the p-values
        are byte-identical."""
        synthetic = AnalysisConfig(
            synthetic={"subjects": 3, "length": 1024,
                       "maps": {"F": 3, "A": 2, "U": 1}},
            seed=4, output_dir=str(tmp_path / "synthetic"))
        run_full_analysis(synthetic)
        back = {"b,1": "s01", 'q"2': "s02", "x%3": "s03"}
        inputs = synthetic_study_as_files(synthetic, tmp_path, tuple(back))
        expected = tmp_path / "synthetic"
        for workers in (1, 2):
            out = tmp_path / f"files_w{workers}"
            run_full_analysis(AnalysisConfig(
                inputs=inputs, output_dir=str(out), workers=workers))
            assert ((out / "pvalues.csv").read_bytes()
                    == (expected / "pvalues.csv").read_bytes()), workers
            for name in ("estimates.csv", "spectra.csv", "dh_curves.csv"):
                tables = []
                for root in (out, expected):
                    with open(root / name, newline="") as fh:
                        tables.append(list(csv.reader(fh)))
                quoted, rows = tables
                assert {row[0] for row in quoted[1:]} == set(back), name
                assert [[back.get(row[0], row[0])] + row[1:]
                         for row in quoted] == rows, (workers, name)

    @pytest.mark.parametrize("study", ["synthetic", "files"])
    def test_rerun_of_resolved_config_is_byte_identical(self, tmp_path,
                                                        study):
        """scalefree analyze on the config_resolved.json a run wrote, with
        only output_dir added, writes all six outputs again byte for byte,
        for a synthetic and a file study."""
        config = ({"synthetic": {"subjects": 3, "length": 1024,
                                 "maps": {"F": 2, "A": 1, "U": 1}}, "seed": 6}
                  if study == "synthetic" else
                  {"inputs": write_fixture_dataset(tmp_path, n_subjects=3,
                                                   n_maps=3, n=512, seed=5),
                   "octave_range": [2, 5]})

        def analyze(config, out):
            path = tmp_path / f"{out}.json"
            path.write_text(json.dumps({**config,
                                        "output_dir": str(tmp_path / out)}))
            assert main(["analyze", "--config", str(path)]) == 0
            return outputs(tmp_path / out)

        written = analyze(config, "first")
        resolved = json.loads(written["config_resolved.json"])
        assert "output_dir" not in resolved
        assert len(written) == 6
        assert analyze(resolved, "rerun") == written

    def test_relabelled_subjects_change_only_labels(self, tmp_path):
        """The same file study under ids that need CSV quoting, in the same
        order, gives the same p-values byte for byte, the same per-series
        rows once the subject column is mapped back, and the same report
        but its provenance."""
        rng = np.random.default_rng(5)
        tax = tmp_path / "taxonomy.csv"
        tax.write_text("map_index,class,network_or_artifact\n" + "".join(
            f"{k},{cls},\n" for k, cls in enumerate("FFFAAU", start=1)))
        runs = {}
        for s in range(3):
            for state in ("rest", "task"):
                runs[s, state] = str(tmp_path / f"run{s}_{state}.csv")
                np.savetxt(runs[s, state], np.column_stack(
                    [np.arange(1024), rng.standard_normal((1024, 6))]),
                    fmt="%.17g", delimiter=",", comments="",
                    header="t," + ",".join(f"map_{k}" for k in range(1, 7)))
        original = {"b,1": "s1", 'q"2': "s2", "x%3": "s3"}
        for out, ids in (("plain", original.values()), ("quoted", original)):
            run_full_analysis(AnalysisConfig(
                inputs={"taxonomy": str(tax), "subjects": [
                    {"id": sid, "rest": runs[s, "rest"], "task": runs[s, "task"]}
                    for s, sid in enumerate(ids)]},
                output_dir=str(tmp_path / out)))
        plain, quoted = tmp_path / "plain", tmp_path / "quoted"
        assert ((quoted / "pvalues.csv").read_bytes()
                == (plain / "pvalues.csv").read_bytes())
        for name in ("estimates.csv", "spectra.csv", "dh_curves.csv"):
            tables = []
            for out in (plain, quoted):
                with open(out / name, newline="") as fh:
                    tables.append(list(csv.reader(fh)))
            expected, relabelled = tables
            assert {row[0] for row in relabelled[1:]} == set(original), name
            assert [[original.get(row[0], row[0])] + row[1:]
                    for row in relabelled] == expected, name
        reports = []
        for out in (plain, quoted):
            doc = json.loads((out / "group_report.json").read_text())
            del doc["provenance"]
            reports.append(doc)
        assert reports[0] == reports[1]

    def test_tag_on_u_map_changes_nothing(self, tmp_path):
        """A tag on the U map names no unit: with a network tag new to the
        study or one its F maps carry, every CSV output is byte-identical
        and the report equal but its provenance, with 1 and 2 workers."""
        rng = np.random.default_rng(13)
        runs = {}
        for s in range(3):
            for state in ("rest", "task"):
                runs[s, state] = str(tmp_path / f"run{s}_{state}.csv")
                np.savetxt(runs[s, state], np.column_stack(
                    [np.arange(512), rng.standard_normal((512, 6))]),
                    fmt="%.17g", delimiter=",", comments="",
                    header="t," + ",".join(f"map_{k}" for k in range(1, 7)))
        tags = ["Att", "DMN", "Att", "Ven", "WhM"]

        def analyze(u_tag, workers):
            tax = tmp_path / f"tax_{u_tag}.csv"
            tax.write_text("map_index,class,network_or_artifact\n" + "".join(
                f"{k},{cls},{tag}\n" for k, (cls, tag)
                in enumerate(zip("FFFAAU", tags + [u_tag]), start=1)))
            out = tmp_path / f"out_{u_tag}_{workers}"
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the one-map U class
                run_full_analysis(AnalysisConfig(
                    inputs={"taxonomy": str(tax), "subjects": [
                        {"id": f"s{s}", "rest": runs[s, "rest"],
                         "task": runs[s, "task"]} for s in range(3)]},
                    octave_range=(2, 5), output_dir=str(out),
                    workers=workers))
            written = outputs(out)
            doc = json.loads(written.pop("group_report.json"))
            del doc["provenance"]
            del written["config_resolved.json"]  # names the taxonomy file
            return written, doc

        untagged = analyze("", 1)
        assert untagged[1]["battery"]["anova"]  # networks and artifacts
        for u_tag in ("Vis", "Att"):
            for workers in (1, 2):
                assert analyze(u_tag, workers) == untagged, (u_tag, workers)

    def test_permuted_maps_change_no_series(self, tmp_path):
        """Map columns reordered together with their taxonomy rows, each
        class's maps kept in their relative order (so f_1.., a_1.. name
        the same series), give the same per-series rows bitwise, keyed by
        (subject, map, state), and the same battery and class means to
        1e-12: only the order in which means are summed changes."""
        rng = np.random.default_rng(11)
        taxonomy = [("F", "Att"), ("F", "DMN"), ("F", "Att"), ("A", "Ven"),
                    ("A", "WhM"), ("U", "")]
        order = [3, 0, 5, 1, 4, 2]  # A F U F A F
        data = {(s, state): rng.standard_normal((1024, 6))
                for s in range(3) for state in ("rest", "task")}
        for name, perm in (("same", range(6)), ("permuted", order)):
            root = tmp_path / name
            root.mkdir()
            (root / "tax.csv").write_text(
                "map_index,class,network_or_artifact\n" + "".join(
                    f"{k},{cls},{tag}\n" for k, (cls, tag)
                    in enumerate((taxonomy[i] for i in perm), start=1)))
            for (s, state), x in data.items():
                np.savetxt(root / f"run{s}_{state}.csv", np.column_stack(
                    [np.arange(1024), x[:, list(perm)]]),
                    fmt="%.17g", delimiter=",", comments="",
                    header="t," + ",".join(f"map_{k}" for k in range(1, 7)))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")  # the one-map U class
                run_full_analysis(AnalysisConfig(
                    inputs={"taxonomy": str(root / "tax.csv"), "subjects": [
                        {"id": f"s{s}", "rest": str(root / f"run{s}_rest.csv"),
                         "task": str(root / f"run{s}_task.csv")}
                        for s in range(3)]},
                    output_dir=str(root / "out")))
        same, permuted = tmp_path / "same" / "out", tmp_path / "permuted" / "out"

        def by_series(path):
            rows = {}
            with open(path, newline="") as fh:
                for row in list(csv.reader(fh))[1:]:
                    rows.setdefault(tuple(row[:3]), []).append(row)
            return rows

        for name in ("estimates.csv", "spectra.csv", "dh_curves.csv"):
            expected = by_series(same / name)
            assert len(expected) == 36, name
            assert by_series(permuted / name) == expected, name

        # every value of pvalues.csv is also in the report's battery
        def assert_close(a, b, where=""):
            if isinstance(a, dict):
                assert a.keys() == b.keys(), where
                for k in a:
                    assert_close(a[k], b[k], f"{where}/{k}")
            elif isinstance(a, float) and isinstance(b, float):
                assert a == b or math.isclose(a, b, rel_tol=1e-12), where
            else:
                assert a == b, where

        reports = [json.loads((out / "group_report.json").read_text())
                   for out in (same, permuted)]
        for part in ("aggregate", "battery", "failures", "dropped_subjects"):
            assert_close(reports[0][part], reports[1][part], part)

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

    def test_class_without_lambda2_is_fgn(self):
        cfg = AnalysisConfig(synthetic={"maps": {"F": 1, "A": 1, "U": 0},
                                        "lambda2": {"F": 0.0}}, seed=6)
        fgn = pipeline._synthetic_samples(cfg, 1, 0, 1, "F")
        expected = gen_fgn(GeneratorSpec(
            "fgn", 0.7, 2048, seed=pipeline._series_seed(6, 1, 0, 1))).samples
        assert np.array_equal(fgn, expected)
        mrw = pipeline._synthetic_samples(cfg, 1, 1, 1, "A")
        walk = gen_mrw(GeneratorSpec("mrw", 0.65, 2048, lambda2=0.03,
                                     seed=pipeline._series_seed(6, 1, 1, 1)))
        assert np.array_equal(mrw, np.diff(walk.samples, prepend=0.0))

    def test_welch_segment_of_whole_series_gives_nan_welch_beta(self, tmp_path):
        """One segment is too few for Welch; the cross-check is NaN and
        every other estimate is unchanged."""
        out = tmp_path / "out"
        base = dict(synthetic={"subjects": 3, "length": 1024,
                               "maps": {"F": 2, "A": 1, "U": 1}},
                    seed=2, output_dir=str(tmp_path / "base"))
        report = run_full_analysis(AnalysisConfig(**base))
        cfg = AnalysisConfig(**{**base, "output_dir": str(out)},
                             welch_segment_length=1024)
        whole = run_full_analysis(cfg)
        assert not whole.failures and len(whole.cells) == 24
        with open(out / "estimates.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 24
        assert all(r["status"] == "ok" and r["welch_beta"] == "nan"
                   for r in rows)
        assert whole.cells == report.cells

    def test_synthetic_tasks_carry_recipes_not_samples(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a series was synthesized")

        monkeypatch.setattr(pipeline, "generate", unexpected)
        cfg = AnalysisConfig(synthetic=SMALL_SYNTH, seed=6)
        ds = pipeline._build_dataset(cfg)
        tasks = pipeline._run_tasks(cfg, ds)
        assert [task[0] for task in tasks] == [
            (s, st) for s in ds.subjects for st in ("rest", "task")]
        assert all(isinstance(task[1], pipeline.SyntheticRun)
                   for task in tasks)

    def test_file_tasks_carry_recipes_not_samples(self, tmp_path,
                                                  monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("a run CSV was parsed")

        cfg = file_study_config(tmp_path)
        monkeypatch.setattr(pipeline, "_load_run_csv", unexpected)
        ds = pipeline._build_dataset(cfg)
        tasks = pipeline._run_tasks(cfg, ds)
        assert [task[0] for task in tasks] == [
            (s, st) for s in ds.subjects for st in ("rest", "task")]
        assert [task[1] for task in tasks] == [
            pipeline.FileRun(entry[st], 3, 512)
            for entry in cfg.inputs["subjects"] for st in ("rest", "task")]

    def test_serial_file_study_frees_each_run_before_the_next(
            self, tmp_path, monkeypatch):
        """With one worker, each run CSV is parsed once, by its task, and
        no earlier run's matrix is alive when the next is parsed (no
        gc.collect: reference counting alone frees it)."""
        parsed = []
        load = pipeline._load_run_csv

        def tracked(path, n_maps):
            alive = [ref() is not None for ref in parsed]
            assert not any(alive), (path, alive)
            matrix = load(path, n_maps)
            parsed.append(weakref.ref(matrix))
            return matrix

        monkeypatch.setattr(pipeline, "_load_run_csv", tracked)
        report = run_full_analysis(file_study_config(
            tmp_path, output_dir=str(tmp_path / "out"), workers=1))
        assert len(parsed) == 6 and len(report.cells) == 18

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


# Knob liveness: every AnalysisConfig field, set to one valid alternative
# value, changes an output of a small study, in one of two: "synthetic"
# (3 subjects, 6 maps, length 1024, fixed gamma) or "files" (its series
# read back from run CSVs, auto gamma).
KNOB_STUDY = {"subjects": 3, "length": 1024, "maps": {"F": 3, "A": 2, "U": 1}}
KNOB_ALTERNATIVES = {  # field: (study, alternative value)
    "octave_range": ("synthetic", (2, 5)),
    "n_vanishing": ("synthetic", 2),
    "gamma_mode": ("synthetic", "auto"),
    "gamma_value": ("synthetic", 1.0),
    "gamma_eps": ("files", 0.3),
    "q_grid": ("synthetic", (-2.0, -1.0, 1.0, 2.0)),
    "alpha_levels": ("synthetic", (0.01, 0.1)),
    "welch_segment_length": ("synthetic", 256),
    "welch_overlap": ("synthetic", 0.25),
    "welch_window": ("synthetic", "rect"),
    "sampling_rate": ("synthetic", 2.0),
    "inputs": ("files", "each subject's rest and task runs swapped"),
    "synthetic": ("synthetic", {**KNOB_STUDY, "rest_hurst": {"F": 0.6}}),
    "seed": ("synthetic", 1),
}
# Fields inert on purpose, and the studies where they are: the outputs'
# place and worker count; the auto-mode eps under fixed gamma, the fixed
# value under auto gamma, and the synthesis seed in a file study.
INERT_KNOBS = {"workers": ("synthetic", "files"),
               "output_dir": ("synthetic", "files"),
               "gamma_eps": ("synthetic",), "gamma_value": ("files",),
               "seed": ("files",)}


def study_outputs(config: AnalysisConfig, out: Path) -> dict:
    """The outputs of config's study, run into out, less what echoes the
    config: config_resolved.json and the provenance's config hash and
    seed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the one-map U class
        run_full_analysis(replace(config, output_dir=str(out)))
    written = outputs(out)
    del written["config_resolved.json"]
    doc = json.loads(written["group_report.json"])
    del doc["provenance"]["config_sha256"], doc["provenance"]["seed"]
    written["group_report.json"] = doc
    return written


@pytest.fixture(scope="module")
def knob_studies(tmp_path_factory) -> dict:
    """{study: (config, outputs)} of the two knob-liveness studies."""
    root = tmp_path_factory.mktemp("knobs")
    synthetic = AnalysisConfig(synthetic=KNOB_STUDY)
    files = AnalysisConfig(inputs=synthetic_study_as_files(synthetic, root),
                           gamma_mode="auto")
    return {name: (config, study_outputs(config, root / name))
            for name, config in (("synthetic", synthetic), ("files", files))}


@pytest.mark.parametrize(
    "field", [f.name for f in dataclasses.fields(AnalysisConfig)])
def test_every_config_field_reaches_an_output(knob_studies, tmp_path, field):
    if field not in KNOB_ALTERNATIVES:
        assert field in INERT_KNOBS, f"{field} has no alternative value"
        return
    study, value = KNOB_ALTERNATIVES[field]
    assert study not in INERT_KNOBS.get(field, ()), field
    config, expected = knob_studies[study]
    if field == "inputs":
        value = {**config.inputs, "subjects": [
            {**s, "rest": s["task"], "task": s["rest"]}
            for s in config.inputs["subjects"]]}
    changed = study_outputs(replace(config, **{field: value}), tmp_path)
    assert changed != expected, f"{field} changes no output"


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
