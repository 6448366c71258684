import csv
import json

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
            assert err == (f"error: segment_length={segment_length} "
                           "outside 2..4096 (signal length)\n")
        assert not (tmp_path / "x.csv").exists()

    def test_missing_column(self, tmp_path, signal_csv, capsys):
        code = main(["spectrum", "--in", str(signal_csv), "--column", "nope",
                     "--out", str(tmp_path / "x.csv")])
        assert code == 1
        assert "no column" in capsys.readouterr().err

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

    def test_invalid_config_exit_1(self, tmp_path, capsys):
        out = str(tmp_path / "out")
        cases = [  # (config, text the error must name)
            ({"synthetic": {}, "octave_range": [3, 3]}, "octave_range"),
            ({"synthetic": {}, "gamma": 2}, "config key gamma"),
            ({"synthetic": {}, "octave_range": [3]}, "config key octave_range"),
            ({"synthetic": {}, "workers": "2"}, "config key workers"),
            ({"synthetic": {}, "p_max": 1}, "p_max"),
            ({"synthetic": {"length": "2048"}}, "config key synthetic.length"),
            ({"inputs": {"subjects": []}}, "config key inputs.taxonomy"),
            ({"synthetic": {"subjects": 3, "length": 512}, "output_dir": out},
             "largest workable j2 is 5"),
            ('{"synthetic": {}', "line 1"),
            # values every series would reject fail before any series runs
            ({"synthetic": {}, "gamma": {"mode": "foo"}},
             "config key gamma: unknown gamma mode 'foo'"),
            ({"synthetic": {}, "gamma": {"value": -1}},
             "config key gamma: fixed gamma value must be >= 0"),
            ({"synthetic": {}, "gamma": {"mode": "auto", "eps": 0}},
             "config key gamma: eps=0 must be > 0"),
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
             "config key welch.segment_length: 0 must be >= 2"),
            ({"synthetic": {}, "welch": {"segment_length": 1}},
             "config key welch.segment_length: 1 must be >= 2"),
            ({"synthetic": {"subjects": 3, "length": 1024},
              "welch": {"segment_length": 4096}, "output_dir": out},
             "config key welch.segment_length: 4096 exceeds 1024 samples"),
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
        ]
        cfg_path = tmp_path / "cfg.json"
        for cfg, named in cases:
            cfg_path.write_text(cfg if isinstance(cfg, str) else json.dumps(cfg))
            assert main(["analyze", "--config", str(cfg_path)]) == 1, cfg
            err = capsys.readouterr().err
            assert err.startswith("error:") and named in err, (cfg, err)
        assert not (tmp_path / "out").exists()  # no case opened an output


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
