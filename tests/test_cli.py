import csv
import json
from math import inf, nan

import numpy as np
import pytest

from scalefree.cli import main
from scalefree.pipeline import _spectrum_rows
from scalefree.scaling import (fit_psd_powerlaw, scale_to_frequency,
                               welch_psd)
from scalefree.synth import GeneratorSpec, gen_fgn
from scalefree.wavelet import Signal, build_wavelet, dwt

from oracles import csv_text, fmt


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


class TestSynthCommand:
    def test_writes_signal(self, tmp_path):
        out = tmp_path / "sig.csv"
        code = main(["synth", "--kind", "fgn", "--hurst", "0.7", "--length",
                     "1024", "--seed", "5", "--rate", "2.5", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["t", "value"]
        assert len(rows) == 1025
        ref = gen_fgn(GeneratorSpec("fgn", 0.7, 1024, seed=5)).samples
        got = np.array([float(r[1]) for r in rows[1:]])
        assert np.array_equal(got, ref)  # 17 digits round-trip exactly
        expected = csv_text(["t", "value"], [[fmt(k / 2.5), fmt(v)]
                                            for k, v in enumerate(ref)])
        assert out.read_bytes() == expected.encode("utf-8")

    def test_rejects_bad_length(self, tmp_path, capsys):
        code = main(["synth", "--kind", "fgn", "--hurst", "0.7",
                     "--length", "1000", "--seed", "1",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "power of two" in capsys.readouterr().err

    def test_rejects_non_finite_rate(self, tmp_path, capsys):
        for rate in ("inf", "nan", "0"):
            code = main(["synth", "--kind", "fgn", "--hurst", "0.7",
                         "--length", "1024", "--seed", "1", "--rate", rate,
                         "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert capsys.readouterr().err == (
                f"error: --rate: sampling_rate: {float(rate)} "
                "must be finite and > 0\n")
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_seed_and_integral_scale_the_kind_cannot_use(
            self, tmp_path, capsys):
        cases = [  # (arguments, the error line)
            (["--kind", "fgn", "--seed", "-1"],
             "error: seed=-1 must be an integer >= 0\n"),
            (["--kind", "fbm", "--seed", "1", "--integral-scale", "5"],
             "error: fbm takes no integral_scale\n"),
            (["--kind", "fgn", "--seed", "1", "--integral-scale", "5"],
             "error: fgn takes no integral_scale\n"),
        ]
        for args, line in cases:
            code = main(["synth", *args, "--hurst", "0.7", "--length", "64",
                         "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert capsys.readouterr().err == line
        assert not (tmp_path / "x.csv").exists()


def spectrum_bytes(rows):
    """The spectrum command's file for rows, by csv.writer and fmt."""
    return csv_text(["octave_or_freq", "log2_value", "fitted_value"],
                    [[fmt(a), fmt(b), fmt(c)] for a, b, c in rows]
                    ).encode("utf-8")


class TestSpectrumCommand:
    @pytest.fixture()
    def signal_csv(self, tmp_path):
        out = tmp_path / "sig.csv"
        main(["synth", "--kind", "fgn", "--hurst", "0.7", "--length", "4096",
              "--seed", "3", "--out", str(out)])
        return out

    def test_wavelet_method(self, tmp_path, signal_csv):
        out = tmp_path / "spec.csv"
        code = main(["spectrum", "--in", str(signal_csv), "--method",
                     "wavelet", "--j2", "6", "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert rows[0] == ["octave_or_freq", "log2_value", "fitted_value"]
        assert len(rows) == 7  # octaves 1..6
        signal = Signal(np.array([float(r[1]) for r in read_csv(signal_csv)[1:]]),
                        1.0)
        _, ref = _spectrum_rows(dwt(signal, build_wavelet(3), 6), 3, 6)
        assert out.read_bytes() == spectrum_bytes(ref)

    def test_welch_method(self, tmp_path, signal_csv):
        out = tmp_path / "specw.csv"
        code = main(["spectrum", "--in", str(signal_csv), "--method", "welch",
                     "--out", str(out)])
        assert code == 0
        rows = read_csv(out)
        assert len(rows) > 10
        signal = Signal(np.array([float(r[1]) for r in read_csv(signal_csv)[1:]]),
                        1.0)
        spectrum = welch_psd(signal)
        fit = fit_psd_powerlaw(spectrum, scale_to_frequency(6, 1.0),
                               scale_to_frequency(3, 1.0))
        ref = [(f, np.log2(p), fit.intercept - fit.beta * np.log2(f))
               for f, p in zip(spectrum.frequencies, spectrum.power) if p > 0]
        assert out.read_bytes() == spectrum_bytes(ref)

    def test_welch_segment_length_outside_2_to_n(self, tmp_path, signal_csv,
                                                 capsys):
        for segment_length in ("0", "1", "8192"):
            code = main(["spectrum", "--in", str(signal_csv), "--method",
                         "welch", "--segment-length", segment_length,
                         "--out", str(tmp_path / "x.csv")])
            err = capsys.readouterr().err
            assert code == 1
            assert err == (f"error: --segment-length: segment_length: "
                           f"{segment_length} outside 2..4096 (signal length)\n")
        assert not (tmp_path / "x.csv").exists()

    def test_rejects_non_finite_rate(self, tmp_path, signal_csv, capsys):
        for method in ("welch", "wavelet"):
            code = main(["spectrum", "--in", str(signal_csv), "--method",
                         method, "--rate", "inf", "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert capsys.readouterr().err == (
                "error: --rate: sampling_rate: inf must be finite and > 0\n")
        assert not (tmp_path / "x.csv").exists()

    def test_octave_range_rejected_before_reading(self, tmp_path, capsys):
        """The config's octave-range, vanishing-moment and overlap rules,
        before the input file is read, each error naming its flag: octave 0
        used to wrap to the last octave, and j1 > j2 reached the Welch fit
        as an invalid band."""
        cases = [(["--j1", str(j1), "--j2", str(j2)], method,
                  f"--j1/--j2: octave_range: ({j1}, {j2}) must have "
                  "1 <= j1 <= j2 - 2")
                 for j1, j2 in ((0, 6), (6, 3), (5, 6))
                 for method in ("welch", "wavelet")]
        cases += [(["--vanishing", "0"], method,
                   "--vanishing: n_vanishing: 0 outside 1..10")
                  for method in ("welch", "wavelet")]
        cases.append((["--overlap", "1.5"], "welch",
                      "--overlap: overlap_fraction: 1.5 outside [0, 1)"))
        for flags, method, message in cases:
            code = main(["spectrum", "--in", str(tmp_path / "none.csv"),
                         "--method", method, *flags,
                         "--out", str(tmp_path / "x.csv")])
            assert code == 1
            assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "x.csv").exists()

    def test_missing_column(self, tmp_path, signal_csv, capsys):
        code = main(["spectrum", "--in", str(signal_csv), "--column", "nope",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no column" in capsys.readouterr().err

    def test_column_index_out_of_range(self, tmp_path, signal_csv, capsys):
        code = main(["spectrum", "--in", str(signal_csv), "--column", "7",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: {signal_csv}: column index 7 out of range\n")
        assert not (tmp_path / "x.csv").exists()

    def test_bad_cell_located(self, tmp_path, signal_csv, capsys):
        lines = signal_csv.read_text().splitlines()
        cases = [  # (line 5 of the file, the error it must end in)
            ("4,nan", "sig.csv:5: column value: non-finite value 'nan'"),
            ("4,-inf", "sig.csv:5: column value: non-finite value '-inf'"),
            ("4,x1", "sig.csv:5: column value: cannot parse 'x1'"),
            ("4", "sig.csv:5: column value: cannot parse ''"),
        ]
        for row, named in cases:
            lines[4] = row
            signal_csv.write_text("\n".join(lines) + "\n")
            code = main(["spectrum", "--in", str(signal_csv),
                         "--out", str(tmp_path / "x.csv")])
            err = capsys.readouterr().err
            assert code == 1, row
            assert err.startswith(f"error: {signal_csv.parent}") and named in err
        # a quoted cell holding a line end ends line 3's row on line 4, so
        # the last case's row starts on line 6
        lines[2] = lines[2].replace(",", ',"') + '\n"'
        signal_csv.write_text("\n".join(lines) + "\n")
        assert main(["spectrum", "--in", str(signal_csv),
                     "--out", str(tmp_path / "x.csv")]) == 1
        assert capsys.readouterr().err == (
            f"error: {signal_csv}:6: column value: cannot parse ''\n")


class TestAnalyzeCommand:
    def test_synthetic_config(self, tmp_path):
        cfg = {"synthetic": {"subjects": 3, "length": 1024,
                             "maps": {"F": 2, "A": 2, "U": 1}},
               "seed": 4, "output_dir": str(tmp_path / "out")}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code = main(["analyze", "--config", str(cfg_path)])
        assert code == 0
        assert (tmp_path / "out" / "group_report.json").exists()

    def test_warnings_are_one_line(self, tmp_path, capfd):
        """analyze, serial and pooled, and battery print a library warning
        as one warning: line, without the source location Python's format
        adds; stderr is read at its file descriptor, so lines a pool worker
        prints count too."""
        out = tmp_path / "out"
        argvs = []
        for workers in (1, 2):
            cfg_path = tmp_path / f"cfg_w{workers}.json"
            cfg_path.write_text(json.dumps({
                "synthetic": {"subjects": 3, "length": 1024,
                              "maps": {"F": 3, "A": 2, "U": 1}},
                "workers": workers, "output_dir": str(out)}))
            argvs.append(["analyze", "--config", str(cfg_path)])
        tax = tmp_path / "tax.csv"
        tax.write_text("map_index,class\n" + "".join(
            f"{k},{c}\n" for k, c in enumerate("FFFAAU", 1)))
        argvs.append(["battery", "--estimates", str(out / "estimates.csv"),
                      "--taxonomy", str(tax),
                      "--out", str(tmp_path / "battery.json")])
        for argv in argvs:
            assert main(argv) == 0
            err = capfd.readouterr().err
            assert "warning: ANOVA for 'U' skipped" in err, err
            assert ".py:" not in err, err
            assert all(line.startswith("warning: ")
                       for line in err.splitlines()), err

    def test_per_series_failures_exit_2(self, tmp_path, capfd):
        """A file study whose series fail alone, one constant map and one
        scaled so far that zeta(5) overflows: analyze writes every output,
        lists both failures in the report and returns 2, serial and
        pooled, and prints no numpy warning for the overflow."""
        rng = np.random.default_rng(2)
        tax = tmp_path / "tax.csv"
        tax.write_text("map_index,class\n1,F\n2,A\n3,U\n")
        subjects = []
        for sid in ("a", "b", "c", "d"):
            entry = {"id": sid}
            for state in ("rest", "task"):
                data = rng.standard_normal((1024, 3))
                if (sid, state) == ("b", "task"):
                    data[:, 0] = 5.0
                    data[:, 1] *= 1e60
                entry[state] = str(tmp_path / f"{sid}_{state}.csv")
                np.savetxt(entry[state],
                           np.column_stack([np.arange(1024), data]),
                           fmt="%.17g", delimiter=",", comments="",
                           header="t,map_1,map_2,map_3")
            subjects.append(entry)
        for workers in (1, 2):
            out = tmp_path / f"out{workers}"
            cfg_path = tmp_path / "cfg.json"
            cfg_path.write_text(json.dumps({
                "inputs": {"taxonomy": str(tax), "subjects": subjects},
                "output_dir": str(out), "workers": workers}))
            assert main(["analyze", "--config", str(cfg_path)]) == 2
            captured = capfd.readouterr()
            assert "24 series, 2 failure(s)" in captured.out
            assert "overflow encountered" not in captured.err, captured.err
            assert "invalid value encountered" not in captured.err, captured.err
            report = json.loads((out / "group_report.json").read_text())
            failures = report["failures"]
            assert sorted(failures) == ["b/a_1/task", "b/f_1/task"]
            assert failures["b/f_1/task"].startswith(
                "DegenerateInputError: b/f_1/task: wavelet coefficients")
            assert failures["b/a_1/task"] == (
                "ParameterError: b/a_1/task: zeta(5) = nan is not finite; "
                "D(h) needs finite exponents")
            assert report["dropped_subjects"] == ["b"]
            assert len(list(out.iterdir())) == 6

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cases = [  # (config, text the error must name)
            ({"synthetic": {}, "octave_range": [3, 3]}, "octave_range"),
            ({"synthetic": {}, "octave_range": [0, 6]},
             "error: config key octave_range: (0, 6) must have "
             "1 <= j1 <= j2 - 2\n"),
            ({"synthetic": {}, "octave_range": [6, 3]},
             "config key octave_range: (6, 3)"),
            ({"synthetic": {}, "gamma": 2}, "config key gamma"),
            ({"synthetic": {}, "octave_range": [3]}, "config key octave_range"),
            ({"synthetic": {}, "workers": "2"}, "config key workers"),
            # the removed log-cumulant order knob is an unknown key
            ({"synthetic": {}, "p_max": 1, "output_dir": out},
             "error: unknown config keys: ['p_max']\n"),
            ({"synthetic": {}, "p_max": 2, "output_dir": out},
             "error: unknown config keys: ['p_max']\n"),
            ({"synthetic": {"length": "2048"}}, "config key synthetic.length"),
            ({"inputs": {"subjects": []}}, "config key inputs.taxonomy"),
            ({"inputs": {"taxonomy": "t.csv", "subjects": [
                {"id": "a", "rest": 3, "task": "t.csv"}]}},
             "config key inputs.subjects[0].rest: expected str, got 3\n"),
            ({"inputs": {"taxonomy": "t.csv", "subjects": [
                {"id": "a", "rest": "r.csv", "task": "t.csv"},
                {"id": 1.5, "rest": "r.csv", "task": "t.csv"}]}},
             "config key inputs.subjects[1].id: expected str | int, got 1.5\n"),
            ({"inputs": {"taxonomy": "t.csv", "subjects": [
                {"id": "a", "rest": "r.csv"}]}},
             "config key inputs.subjects[0].task: expected str, got None\n"),
            ({"synthetic": {"subjects": 3, "length": 512}, "output_dir": out},
             "largest workable j2 is 5"),
            ('{"synthetic": {}', "cfg.json: Expecting ',' delimiter: line 1"),
            # values every series would reject fail before any series runs
            ({"synthetic": {}, "gamma": {"mode": "foo"}},
             "config key gamma.mode: unknown gamma mode 'foo'"),
            ({"synthetic": {}, "gamma": {"value": -1}},
             "config key gamma.value: fixed gamma value must be >= 0"),
            ({"synthetic": {}, "gamma": {"mode": "auto", "eps": 0}},
             "config key gamma.eps: 0 must be > 0"),
            ({"synthetic": {}, "welch": {"window": "blackman"}},
             "config key welch.window"),
            ({"synthetic": {}, "welch": {"overlap_fraction": 1.5}},
             "config key welch.overlap_fraction"),
            ({"synthetic": {}, "q_grid": []}, "config key q_grid"),
            ({"inputs": {"taxonomy": "tax.csv", "subjects": []},
              "sampling_rate": 0}, "config key sampling_rate"),
            ({"synthetic": {}, "sampling_rate": 0}, "config key sampling_rate"),
            ({"synthetic": {}, "seed": -1}, "config key seed"),
            ({"synthetic": {}, "welch": {"segment_length": 0}},
             "config key welch.segment_length: 0 outside 2..n (signal length)"),
            ({"synthetic": {}, "welch": {"segment_length": 1}},
             "config key welch.segment_length: 1 outside 2..n (signal length)"),
            ({"synthetic": {"subjects": 3, "length": 1024},
              "welch": {"segment_length": 4096}, "output_dir": out},
             "config key welch.segment_length: 4096 outside 2..1024 "
             "(signal length)"),
            ({"synthetic": {}, "n_vanishing": 0, "output_dir": out},
             "config key n_vanishing: 0 outside 1..10"),
            ({"synthetic": {}, "n_vanishing": 11, "output_dir": out},
             "config key n_vanishing: 11 outside 1..10"),
            ({"synthetic": {"maps": {"F": 0, "A": 0, "U": 0}},
              "output_dir": out}, "config key synthetic.maps: no map"),
            ({"synthetic": {"maps": {"F": -1}}, "output_dir": out},
             "config key synthetic.maps.F: -1 must be >= 0"),
            ({"synthetic": {"lambda2": {"F": -0.1}}, "output_dir": out},
             "config key synthetic.lambda2.F: lambda2=-0.1 outside"),
            ({"synthetic": {"lambda2": {"A": 0.7}}, "output_dir": out},
             "config key synthetic.lambda2.A: lambda2=0.7 outside"),
            ({"synthetic": {"rest_hurst": {"F": 1.5}}, "output_dir": out},
             "config key synthetic.rest_hurst.F: hurst=1.5 outside"),
            ({"synthetic": {"task_hurst": {"U": 0}}, "output_dir": out},
             "config key synthetic.task_hurst.U: hurst=0 outside"),
            ({"synthetic": {"length": 1000}, "output_dir": out},
             "config key synthetic.length: length=1000 is not a power of two"),
            ({"synthetic": {"subjects": 0}, "output_dir": out},
             "config key synthetic.subjects: 0 must be >= 1"),
            # non-finite values, a q grid the Legendre transform cannot
            # use, and alpha levels outside (0, 1)
            ({"synthetic": {}, "gamma": {"value": nan}, "output_dir": out},
             "config key gamma.value: fixed gamma value must be >= 0 and "
             "finite, got nan"),
            ({"synthetic": {}, "gamma": {"value": inf}, "output_dir": out},
             "config key gamma.value: fixed gamma value must be >= 0 and "
             "finite, got inf"),
            ({"synthetic": {}, "gamma": {"mode": "auto", "eps": inf},
              "output_dir": out},
             "config key gamma.eps: inf must be > 0 and finite in auto mode"),
            ({"synthetic": {}, "sampling_rate": inf, "output_dir": out},
             "config key sampling_rate: inf must be finite and > 0"),
            ({"synthetic": {}, "q_grid": [nan, 1, 2], "output_dir": out},
             "config key q_grid: [nan, 1.0, 2.0] must hold >= 2 finite, "
             "distinct values"),
            ({"synthetic": {}, "q_grid": [1, 1, 2], "output_dir": out},
             "config key q_grid: [1.0, 1.0, 2.0] must hold >= 2 finite, "
             "distinct values"),
            ({"synthetic": {}, "q_grid": [2], "output_dir": out},
             "config key q_grid: [2.0] must hold >= 2 finite, distinct values"),
            ({"synthetic": {}, "alpha_levels": [0, 7], "output_dir": out},
             "config key alpha_levels: 0 outside (0, 1)"),
            # every config section rejects an unknown key
            ({"inputs": {"taxonomy": "t.csv", "subjects": [],
                         "expected_class_count": [25, 13, 4]},
              "output_dir": out},
             "error: unknown config key inputs.expected_class_count\n"),
            ({"inputs": {"taxonomy": "t.csv", "subjects": [
                {"id": "a", "rest": "r.csv", "rset": "r.csv",
                 "task": "t.csv"}]}, "output_dir": out},
             "error: unknown config key inputs.subjects[0].rset\n"),
        ]
        cfg_path = tmp_path / "cfg.json"
        for cfg, named in cases:
            cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
            assert main(["analyze", "--config", str(cfg_path)]) == 1, cfg
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err, (cfg, err)
            assert err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()  # no case opened an output


class TestInputFiles:
    """Each input file a command reads: one error: line naming the file,
    exit 1, no traceback and no output."""

    @pytest.fixture()
    def study(self, tmp_path):
        tax = tmp_path / "tax.csv"
        tax.write_text("map_index,class,network_or_artifact\n"
                       "1,F,Att\n2,A,Ven\n3,U,\n")
        run = tmp_path / "run.csv"
        run.write_text("t,map_1,map_2,map_3\n"
                       + "".join(f"{i},{i},{-i},{i * i}\n" for i in range(8)))
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({
            "inputs": {"taxonomy": str(tax),
                       "subjects": [{"id": "a", "rest": str(run),
                                     "task": str(run)}]},
            "output_dir": str(tmp_path / "out")}))
        return tax, run, config

    def run_fails(self, tmp_path, capsys, argv, named):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 1, argv
        assert err.startswith(f"error: {named}") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()
        assert not (tmp_path / "x.out").exists()
        return err

    def test_bytes_that_are_not_utf8(self, tmp_path, capsys, study):
        tax, run, config = study
        bad = tmp_path / "bad.csv"
        bad.write_bytes(b"t,value\n0,\xff\n")
        cases = [  # (argv, the file the error names)
            (["analyze", "--config", str(config)], run),
            (["analyze", "--config", str(bad)], bad),
            (["battery", "--estimates", str(bad), "--taxonomy", str(tax),
              "--out", str(tmp_path / "x.out")], bad),
            (["battery", "--estimates", str(bad), "--taxonomy", str(bad),
              "--out", str(tmp_path / "x.out")], bad),
            (["spectrum", "--in", str(bad), "--out", str(tmp_path / "x.out")],
             bad),
        ]
        run.write_bytes(run.read_bytes() + b"8,\xff,0,0\n")
        for argv, named in cases:
            err = self.run_fails(tmp_path, capsys, argv, named)
            assert err == (f"error: {named}: not UTF-8 text "
                           "(invalid start byte)\n")

    def test_oversized_cell_located(self, tmp_path, capsys, study):
        """A cell over csv.field_size_limit() in any CSV a command reads."""
        tax, run, config = study
        big = "1" * 200_000
        estimates = tmp_path / "est.csv"
        estimates.write_text(f"subject,map,state,status,c1,c2,hurst\n"
                             f"s1,f_1,rest,ok,{big},0,0.5\n")
        signal = tmp_path / "sig.csv"
        signal.write_text(f"t,value\n0,1\n1,{big}\n")
        cases = [  # (argv, the file at fault, its line)
            (["spectrum", "--in", str(signal), "--out", str(tmp_path / "x.out")],
             signal, 3),
            (["battery", "--estimates", str(estimates), "--taxonomy", str(tax),
              "--out", str(tmp_path / "x.out")], estimates, 2),
            # the first run of a state is read whole when the study loads
            (["analyze", "--config", str(config)], run, 10),
            (["analyze", "--config", str(config)], tax, 3),
        ]
        run.write_text(run.read_text() + f'8,"{big}",0,0\n')
        for argv, named, line in cases:
            if named == tax:
                tax.write_text(tax.read_text().replace("2,A,Ven", f"2,A,{big}"))
            err = self.run_fails(tmp_path, capsys, argv, named)
            assert err == (f"error: {named}:{line}: field larger than field "
                           f"limit ({csv.field_size_limit()})\n")

    def test_unknown_taxonomy_class_located(self, tmp_path, capsys, study):
        tax, _, config = study
        tax.write_text(tax.read_text().replace("2,A,", "2,X,"))
        err = self.run_fails(tmp_path, capsys,
                             ["analyze", "--config", str(config)], tax)
        assert err == (f"error: {tax}:3: unknown class 'X' "
                       "(expected one of ('F', 'A', 'U'))\n")


class TestBatteryCommand:
    def test_round_trip(self, tmp_path):
        out_dir = tmp_path / "out"
        cfg = {"synthetic": {"subjects": 4, "length": 1024,
                             "maps": {"F": 2, "A": 2, "U": 1}},
               "seed": 8, "output_dir": str(out_dir)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(cfg_path)]) == 0

        tax_path = tmp_path / "tax.csv"
        with open(tax_path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["map_index", "class", "network_or_artifact"])
            nets = ["Att", "DMN"]
            arts = ["Ven", "WhM"]
            for k in range(2):
                w.writerow([k + 1, "F", nets[k]])
            for k in range(2):
                w.writerow([k + 3, "A", arts[k]])
            w.writerow([5, "U", ""])
        report_path = tmp_path / "battery.json"
        code = main(["battery", "--estimates", str(out_dir / "estimates.csv"),
                     "--taxonomy", str(tax_path), "--out", str(report_path)])
        assert code == 0
        doc = json.loads(report_path.read_text())
        assert "one_sample" in doc
        assert doc["one_sample"]["map"]["f_1"]["rest"]["c1"]["t"]["p_corrected"] <= 1.0
        # the taxonomy matches the synthetic one, so the battery is the
        # analysis's own, written in the same JSON form
        battery = json.loads((out_dir / "group_report.json").read_text())["battery"]
        assert report_path.read_bytes() == (
            json.dumps(battery, sort_keys=True, indent=1) + "\n").encode("utf-8")

    def test_alpha_outside_0_1_rejected_before_reading(self, tmp_path, capsys):
        code = main(["battery", "--estimates", str(tmp_path / "none.csv"),
                     "--taxonomy", str(tmp_path / "none.csv"),
                     "--alpha", "0", "7", "--out", str(tmp_path / "b.json")])
        assert code == 1
        assert capsys.readouterr().err == (
            "error: --alpha: alpha_levels: 0.0 outside (0, 1)\n")
        assert not (tmp_path / "b.json").exists()

    def test_bad_estimates_cell_located(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        cfg = {"synthetic": {"subjects": 3, "length": 1024,
                             "maps": {"F": 2, "A": 1, "U": 1}},
               "seed": 8, "output_dir": str(out_dir)}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        capsys.readouterr()

        estimates = out_dir / "estimates.csv"
        rows = read_csv(estimates)
        rows[3][rows[0].index("c1")] = "oops"
        with open(estimates, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        tax_path = tmp_path / "tax.csv"
        tax_path.write_text("map_index,class,network_or_artifact\n"
                            "1,F,Att\n2,F,DMN\n3,A,Ven\n4,U,\n")
        code = main(["battery", "--estimates", str(estimates),
                     "--taxonomy", str(tax_path),
                     "--out", str(tmp_path / "battery.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert err.startswith("error:") and "Traceback" not in err
        assert f"{estimates}:4: column c1: cannot parse 'oops'" in err

        # a quoted error cell holding a line end moves that row to line 5
        rows[1][rows[0].index("error")] = "\n"
        with open(estimates, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        assert main(["battery", "--estimates", str(estimates),
                     "--taxonomy", str(tax_path),
                     "--out", str(tmp_path / "battery.json")]) == 1
        assert capsys.readouterr().err == (
            f"error: {estimates}:5: column c1: cannot parse 'oops'\n")
        assert not (tmp_path / "battery.json").exists()
