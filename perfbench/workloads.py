"""The four benchmark workloads: inputs made from the seed, one iteration,
and the check of its outputs.

Library functions are always called through their module attribute
(pipeline.run_full_analysis, not a name imported here), so that the tracer
and the latency probe, which replace module attributes, see every call.
"""

from __future__ import annotations

import functools
import os
import shutil
import struct
from pathlib import Path
from time import perf_counter

import numpy as np

from scalefree import pipeline
from scalefree.errors import ScaleFreeError
from scalefree.grouptests import STATES
from scalefree.synth import GeneratorSpec, gen_fgn, gen_mrw
from scalefree.wavelet import Signal

import checks

DEFAULT_SEED = 2024
HERE = Path(__file__).resolve().parent
REFERENCE_DIR = HERE / "reference"

FILE_SOURCE_LENGTH = 4096
FILE_SERIES_LENGTH = 3000  # not a power of two: exercises DWT boundaries
FILE_FORMAT = "%.17g"

LONG_LENGTH = 2**16
LONG_OCTAVES = (3, 10)
# (kind, H) groups of the long series, assigned round-robin.
LONG_GROUPS = (("fgn", 0.6), ("fgn", 0.8), ("mrw", 0.6), ("mrw", 0.8))
LONG_COUNT = 128
LONG_LAMBDA2 = 0.03


def _child_seed(*entropy) -> int:
    return int(np.random.SeedSequence(entropy).generate_state(1)[0])


@functools.lru_cache(maxsize=None)
def _reference(path):
    """The committed snapshot at path, or None when the seed has none.
    Read on first use, outside the timed region."""
    return None if path is None else checks.read_reference(path)


def estimate_values(estimate) -> tuple:
    """checks.VALUE_COLUMNS of one analyze_series result."""
    return (estimate.beta, estimate.diagnostics["welch_beta"], estimate.hurst,
            estimate.h_min, estimate.gamma, estimate.c1, estimate.c2)


class LatencyProbe:
    """Times every pipeline.analyze_series call, in whichever process runs
    it: each process appends 8-byte durations to its own file, so forked
    pool workers report too.  Installed only for untraced study runs."""

    def __init__(self, directory: Path):
        self.directory = directory

    def install(self) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        original = pipeline.analyze_series
        directory = str(self.directory)
        state = {"pid": None, "fd": None}

        def timed(*args, **kwargs):
            t0 = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - t0
                pid = os.getpid()
                if state["pid"] != pid:
                    state["pid"] = pid
                    state["fd"] = os.open(
                        os.path.join(directory, f"{pid}.bin"),
                        os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
                os.write(state["fd"], struct.pack("d", elapsed))

        pipeline.analyze_series = timed

    def collect_ms(self) -> list:
        """Durations recorded since the last collect, in ms."""
        out = []
        for path in sorted(self.directory.glob("*.bin")):
            data = path.read_bytes()
            path.write_bytes(b"")
            out.extend(1e3 * v for (v,) in struct.iter_unpack("d", data))
        return out


class Study:
    """run_full_analysis on the default 12 x 42 x 2 synthetic study."""

    name = "study_serial"
    workers = 1
    reference_name = "study"

    def setup(self, seed: int, workdir: Path) -> None:
        self.out_dir = workdir / "out"
        syn = pipeline.DEFAULT_SYNTHETIC
        self.taxonomy = pipeline.synthetic_taxonomy(
            syn["maps"]["F"], syn["maps"]["A"], syn["maps"]["U"])
        self.subjects = tuple(f"s{i + 1:02d}" for i in range(syn["subjects"]))
        self.config = self.make_config(seed)
        labels = self.taxonomy.display_labels()
        self.keys = [(s, lab, st) for s in self.subjects for lab in labels
                     for st in STATES]
        self.class_of_map = dict(zip(labels, self.taxonomy.classes))
        self.targets = {(c, st): syn[f"{st}_hurst"][c]
                        for c in syn["maps"] for st in STATES}
        self.reference_path = None
        if seed == DEFAULT_SEED:
            self.reference_path = (
                REFERENCE_DIR / f"{self.reference_name}_{DEFAULT_SEED}.csv")
        self.warm_up()

    def make_config(self, seed: int):
        return pipeline.AnalysisConfig(synthetic={}, seed=seed,
                                       workers=self.workers,
                                       output_dir=str(self.out_dir))

    def warm_up(self) -> None:
        """One analyze_series call on a series of the study's shape, so
        that lazy imports inside the library are paid in set-up."""
        syn = pipeline.DEFAULT_SYNTHETIC
        walk = gen_mrw(GeneratorSpec("mrw", syn["rest_hurst"]["F"],
                                     syn["length"], seed=0,
                                     lambda2=syn["lambda2"]["F"]))
        pipeline.analyze_series(
            Signal(np.diff(walk.samples, prepend=0.0), 1.0), self.config)

    def run(self) -> None:
        shutil.rmtree(self.out_dir, ignore_errors=True)
        pipeline.run_full_analysis(self.config)

    def check(self) -> checks.Verdict:
        return checks.check_study(self.out_dir, self.keys, self.class_of_map,
                                  self.targets, _reference(self.reference_path))

    def digests(self) -> dict:
        return checks.output_digests(self.out_dir)

    def output_counts(self) -> dict:
        """Bytes and rows (lines) of each output file."""
        counts = {}
        for path in sorted(self.out_dir.iterdir()):
            with open(path, "rb") as fh:
                rows = sum(block.count(b"\n")
                           for block in iter(lambda: fh.read(1 << 20), b""))
            counts[path.name] = (path.stat().st_size, rows)
        return counts


class ParallelStudy(Study):
    """The same study on the process pool."""

    name = "study_parallel"
    workers = 2


class FileStudy(Study):
    """The 12 x 42 x 2 design read from CSV files written during set-up."""

    name = "files_study"
    reference_name = "files"

    def setup(self, seed: int, workdir: Path) -> None:
        self.data_dir = workdir / "inputs"
        super().setup(seed, workdir)

    def make_config(self, seed: int):
        inputs = write_file_study(seed, self.data_dir, self.taxonomy,
                                  self.subjects)
        self.input_bytes = sum(p.stat().st_size
                               for p in self.data_dir.iterdir())
        return pipeline.AnalysisConfig(inputs=inputs, seed=seed,
                                       workers=self.workers,
                                       output_dir=str(self.out_dir))

    def warm_up(self) -> None:
        first = self.config.inputs["subjects"][0]["rest"]
        column = np.loadtxt(first, delimiter=",", skiprows=1, usecols=1)
        pipeline.analyze_series(Signal(column, 1.0), self.config)


def write_file_study(seed: int, data_dir: Path, taxonomy, subjects) -> dict:
    """Write the taxonomy and one CSV per (subject, state) run; return the
    config's inputs section.  Each column is the increment series of a
    4096-sample MRW cut to FILE_SERIES_LENGTH samples."""
    syn = pipeline.DEFAULT_SYNTHETIC
    shutil.rmtree(data_dir, ignore_errors=True)
    data_dir.mkdir(parents=True)
    tax_path = data_dir / "taxonomy.csv"
    with open(tax_path, "w", encoding="utf-8") as fh:
        fh.write("map_index,class,network_or_artifact\n")
        for k, (cls, tag) in enumerate(zip(taxonomy.classes, taxonomy.tags)):
            fh.write(f"{k + 1},{cls},{tag}\n")
    header = "t," + ",".join(f"map_{k + 1}" for k in range(taxonomy.n_maps))
    row_format = ",".join(["%d"] + [FILE_FORMAT] * taxonomy.n_maps)
    entries = []
    for s_idx, sid in enumerate(subjects):
        entry = {"id": sid}
        for j, state in enumerate(STATES):
            columns = [np.arange(FILE_SERIES_LENGTH, dtype=np.float64)]
            for k, cls in enumerate(taxonomy.classes):
                walk = gen_mrw(GeneratorSpec(
                    "mrw", syn[f"{state}_hurst"][cls], FILE_SOURCE_LENGTH,
                    seed=_child_seed(seed, s_idx, k, j),
                    lambda2=syn["lambda2"][cls]))
                increments = np.diff(walk.samples, prepend=0.0)
                columns.append(increments[:FILE_SERIES_LENGTH])
            path = data_dir / f"{sid}_{state}.csv"
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(header + "\n")
                fh.write("\n".join(row_format % tuple(r)
                                   for r in np.column_stack(columns)))
                fh.write("\n")
            entry[state] = str(path)
        entries.append(entry)
    return {"taxonomy": str(tax_path), "subjects": entries,
            "expected_class_counts": [len(taxonomy.indices(c))
                                      for c in ("F", "A", "U")]}


class LongSeries:
    """analyze_series, timed per call, on long fGn / MRW increment series."""

    name = "long_series"
    workers = 1

    def setup(self, seed: int, workdir: Path) -> None:
        self.config = pipeline.AnalysisConfig(synthetic={},
                                              octave_range=LONG_OCTAVES)
        self.signals, self.groups = [], []
        for i in range(LONG_COUNT):
            kind, hurst = LONG_GROUPS[i % len(LONG_GROUPS)]
            spec_seed = _child_seed(seed, i)
            if kind == "fgn":
                samples = gen_fgn(GeneratorSpec(
                    "fgn", hurst, LONG_LENGTH, seed=spec_seed)).samples
            else:
                walk = gen_mrw(GeneratorSpec(
                    "mrw", hurst, LONG_LENGTH, seed=spec_seed,
                    lambda2=LONG_LAMBDA2))
                samples = np.diff(walk.samples, prepend=0.0)
            self.signals.append(Signal(samples, 1.0, label=f"long/{i}"))
            self.groups.append(f"{kind}/H={hurst}")
        self.targets = {f"{k}/H={h}": h for k, h in LONG_GROUPS}
        self.reference_path = None
        if seed == DEFAULT_SEED:
            self.reference_path = REFERENCE_DIR / f"long_{DEFAULT_SEED}.csv"
        self.first_pass = None
        self.values = []
        self.latencies_ms = []
        pipeline.analyze_series(self.signals[0], self.config)

    def run(self) -> None:
        self.values, self.latencies_ms = [], []
        for signal in self.signals:
            t0 = perf_counter()
            try:
                estimate = pipeline.analyze_series(signal, self.config)
            except ScaleFreeError:
                self.values.append(None)
            else:
                self.values.append(estimate_values(estimate))
            self.latencies_ms.append(1e3 * (perf_counter() - t0))

    def check(self) -> checks.Verdict:
        verdict = checks.check_series(self.values, self.groups, self.targets,
                                      _reference(self.reference_path),
                                      self.first_pass)
        if self.first_pass is None:
            self.first_pass = self.values
        return verdict


WORKLOADS = {w.name: w for w in (Study, ParallelStudy, FileStudy, LongSeries)}
