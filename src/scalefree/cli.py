"""Command-line interface.

Subcommands:
    analyze   full pipeline driven by a JSON config
    synth     write a generated signal as CSV (t,value)
    spectrum  PSD plot data (octave_or_freq, log2_value, fitted_value)
    battery   statistical battery on an estimates CSV

Exit codes: 0 success, 1 validation error, 2 analysis finished with
per-series failures recorded in the report.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from pathlib import Path

import numpy as np

from .errors import DataFormatError, ScaleFreeError
from .grouptests import _check_alpha_levels, run_battery
from .pipeline import (AnalysisConfig, _csv_rows, _parse_cell, _spectrum_rows,
                       load_estimates_csv, load_taxonomy, run_full_analysis)
from .scaling import (WINDOWS, _check_octaves, _check_welch,
                      fit_psd_powerlaw, scale_to_frequency, welch_psd)
from .synth import GeneratorSpec, generate
from .wavelet import (Signal, _check_rate, _check_vanishing, build_wavelet,
                      dwt)


def _write(path, text: str) -> None:
    """text as the new UTF-8 file at path, lines ending in \\n."""
    Path(path).write_text(text, encoding="utf-8", newline="\n")


def _cmd_analyze(args) -> int:
    config = AnalysisConfig.from_json(args.config)
    report = run_full_analysis(config)
    n_fail = len(report.failures)
    print(f"analyzed {report.provenance['n_series']} series, "
          f"{n_fail} failure(s); outputs in {report.output_dir}")
    return 2 if n_fail else 0


def _cmd_synth(args) -> int:
    _check_rate(args.rate, "--rate: ")
    spec = GeneratorSpec(
        kind=args.kind, hurst=args.hurst, length=args.length, seed=args.seed,
        lambda2=args.lambda2, integral_scale=args.integral_scale,
        sampling_rate=args.rate,
    )
    signal = generate(spec)
    _write(args.out, "t,value\n" + "".join([
        "%.17g,%.17g\n" % (k / args.rate, v)
        for k, v in enumerate(signal.samples.tolist())]))
    print(f"wrote {args.length} samples to {args.out}")
    return 0


def _read_column(path, column):
    with _csv_rows(path) as (header, rows):
        if column in header:
            idx = header.index(column)
        else:
            try:
                idx = int(column)
            except ValueError:
                raise DataFormatError(
                    f"{path}: no column named {column!r}; available: {header}"
                ) from None
            if not 0 <= idx < len(header):
                raise DataFormatError(f"{path}: column index {idx} out of range")
        # a cell missing from a short row reads as empty
        values = [_parse_cell(row[idx] if idx < len(row) else "",
                              f"{path}:{line_no}: column {header[idx]}")
                  for line_no, row in rows]
    return np.asarray(values)


def _cmd_spectrum(args) -> int:
    _check_rate(args.rate, "--rate: ")
    _check_octaves(args.j1, args.j2, "--j1/--j2: ")
    _check_vanishing(args.vanishing, "--vanishing: ")
    if args.method == "welch":
        _check_welch(None, args.overlap, args.window, prefix="--overlap: ")
    samples = _read_column(args.infile, args.column)
    signal = Signal(samples, args.rate, label=args.column)
    rows = []
    if args.method == "welch":
        _check_welch(args.segment_length, args.overlap, args.window,
                     len(signal), "--segment-length: ")
        spectrum = welch_psd(signal, segment_length=args.segment_length,
                             overlap_fraction=args.overlap, window=args.window)
        f_lo = scale_to_frequency(args.j2, args.rate)
        f_hi = scale_to_frequency(args.j1, args.rate)
        fit = fit_psd_powerlaw(spectrum, f_lo, f_hi)
        for f, p in zip(spectrum.frequencies, spectrum.power):
            if p <= 0:
                continue
            fitted = fit.intercept - fit.beta * np.log2(f)
            rows.append((f, np.log2(p), fitted))
    else:
        pyramid = dwt(signal, build_wavelet(args.vanishing), args.j2)
        _, rows = _spectrum_rows(pyramid, args.j1, args.j2)
    _write(args.out, "octave_or_freq,log2_value,fitted_value\n"
           + "".join(["%.17g,%.17g,%.17g\n" % row for row in rows]))
    print(f"wrote {len(rows)} spectrum rows to {args.out}")
    return 0


def _cmd_battery(args) -> int:
    _check_alpha_levels(args.alpha, "--alpha: ")
    taxonomy = load_taxonomy(args.taxonomy)
    table = load_estimates_csv(args.estimates, taxonomy)
    battery = run_battery(table, alpha_levels=tuple(args.alpha))
    _write(args.out,
           json.dumps(battery.to_json_dict(), sort_keys=True, indent=1) + "\n")
    print(f"wrote battery report ({table.n_subjects} subjects, "
          f"{table.n_maps} maps) to {args.out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="scalefree",
        description="Scale-free and multifractal time-series analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="run the full pipeline from a JSON config")
    p.add_argument("--config", required=True)
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("synth", help="generate a synthetic signal as CSV")
    p.add_argument("--kind", required=True, choices=("fgn", "fbm", "mrw"))
    p.add_argument("--hurst", type=float, required=True)
    p.add_argument("--length", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--lambda2", type=float, default=0.0)
    p.add_argument("--integral-scale", type=int, default=None)
    p.add_argument("--rate", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_synth)

    p = sub.add_parser("spectrum", help="PSD plot data for one CSV column")
    cfg = AnalysisConfig  # its class attributes are the field defaults
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--column", default="value")
    p.add_argument("--method", choices=("welch", "wavelet"), default="wavelet")
    p.add_argument("--rate", type=float, default=cfg.sampling_rate)
    p.add_argument("--j1", type=int, default=cfg.octave_range[0])
    p.add_argument("--j2", type=int, default=cfg.octave_range[1])
    p.add_argument("--vanishing", type=int, default=cfg.n_vanishing)
    p.add_argument("--segment-length", type=int, default=cfg.welch_segment_length)
    p.add_argument("--overlap", type=float, default=cfg.welch_overlap)
    p.add_argument("--window", choices=WINDOWS, default=cfg.welch_window)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("battery", help="statistical battery on estimates CSV")
    p.add_argument("--estimates", required=True)
    p.add_argument("--taxonomy", required=True)
    p.add_argument("--alpha", type=float, nargs=2, default=(0.01, 0.05))
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_battery)
    return parser


def _show_warning(message, category, filename, lineno, file=None, line=None):
    print(f"warning: {message}", file=sys.stderr)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # one warning: line, no source location
        warnings.showwarning = _show_warning
        try:
            return args.func(args)
        except (ScaleFreeError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1


if __name__ == "__main__":
    sys.exit(main())
