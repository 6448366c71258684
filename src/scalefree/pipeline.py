"""Dataset ingestion, per-series orchestration, and report emission.

The pipeline reproduces the full workflow: load (or synthesize) per-subject
map time series, run the spectrum and leader analyses on every series,
assemble the group table, run the statistical battery, and write
deterministic CSV/JSON artifacts.  All floating-point output uses 17
significant digits so files round-trip exactly; reruns with the same config
and seeds are byte-identical regardless of worker count.
"""

from __future__ import annotations

import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import typing
import warnings
from concurrent.futures import ProcessPoolExecutor
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, replace
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (DataFormatError, EstimationError, ParameterError,
                     ScaleFreeError, ScaleRangeError)
from .grouptests import (CLASSES, PARAMS, STATES, BatteryReport, GroupSummary,
                         GroupTable, MapTaxonomy, aggregate, run_battery)
from .leaders_mf import (DEFAULT_Q_GRID, MAX_P, MfEstimate, _check_gamma,
                         _require_cumulant_counts, compute_leaders,
                         multifractal_estimate)
from .scaling import (WINDOWS, estimate_hurst, fit_loglog, fit_psd_powerlaw,
                      scale_to_frequency, welch_psd, wavelet_spectrum)
from .synth import GeneratorSpec, gen_fgn, gen_mrw
from .wavelet import (MAX_VANISHING, MotherWavelet, Signal, build_wavelet,
                      dwt, max_feasible_octave, sup_magnitudes)

DEFAULT_SYNTHETIC = {
    "subjects": 12,
    "length": 2048,
    "maps": {"F": 25, "A": 13, "U": 4},
    "rest_hurst": {"F": 0.8, "A": 0.75, "U": 0.78},
    "task_hurst": {"F": 0.7, "A": 0.65, "U": 0.67},
    "lambda2": {"F": 0.03, "A": 0.03, "U": 0.03},
}

NETWORK_CYCLE = ("Att", "DMN", "Mot", "N-c", "Vis")
ARTIFACT_CYCLE = ("Ven", "WhM", "Mov", "Oth")


def _fits(value, hint) -> bool:
    """Whether a parsed JSON value fits a type hint: int, float (any
    number), str, dict, None, a union of these, or tuple[...] for a list."""
    args = typing.get_args(hint)
    if typing.get_origin(hint) is tuple:
        if args[-1] is Ellipsis:
            args = args[:1] * len(value) if isinstance(value, list) else ()
        return (isinstance(value, list) and len(value) == len(args)
                and all(map(_fits, value, args)))
    if args:
        return any(_fits(value, arg) for arg in args)
    if hint is type(None) or isinstance(value, bool):  # true is no number
        return value is None
    return isinstance(value, (int, float) if hint is float else hint)


def _check(value, hint, path: str) -> None:
    """Raise DataFormatError naming the key path unless value fits hint."""
    if not _fits(value, hint):
        expected = str(hint) if typing.get_args(hint) else hint.__name__
        raise DataFormatError(
            f"config key {path}: expected {expected}, got {value!r}")


# JSON sections whose keys map onto prefixed AnalysisConfig fields.
_SECTIONS = {
    "gamma": {"mode": "gamma_mode", "value": "gamma_value", "eps": "gamma_eps"},
    "welch": {"segment_length": "welch_segment_length",
              "overlap_fraction": "welch_overlap", "window": "welch_window"},
}
# What load_dataset reads from the inputs section and each subject entry.
_INPUTS_KEYS = {"taxonomy": str, "subjects": tuple[dict, ...],
                "expected_class_counts": tuple[int, int, int] | None}
_SUBJECT_KEYS = {"id": str | int, "rest": str, "task": str}


@dataclass(frozen=True)
class AnalysisConfig:
    """Resolved analysis parameters; see README for the JSON schema."""

    octave_range: tuple[int, int] = (3, 6)
    n_vanishing: int = 3
    gamma_mode: str = "fixed"
    gamma_value: float = 2.0
    gamma_eps: float = 0.1
    q_grid: tuple[float, ...] = DEFAULT_Q_GRID
    p_max: int = 2
    alpha_levels: tuple[float, ...] = (0.01, 0.05)
    welch_segment_length: int | None = None
    welch_overlap: float = 0.5
    welch_window: str = "hann"
    sampling_rate: float = 1.0
    inputs: dict | None = None
    synthetic: dict | None = None
    output_dir: str = "scalefree-out"
    workers: int = 1
    seed: int = 0

    def __post_init__(self):
        j1, j2 = self.octave_range
        if not (1 <= j1 < j2):
            raise ParameterError(f"invalid octave_range {self.octave_range}")
        if j2 - j1 < 2:
            raise ParameterError("octave_range must span at least 3 octaves")
        if not 1 <= self.n_vanishing <= MAX_VANISHING:
            raise ParameterError(f"config key n_vanishing: {self.n_vanishing} "
                                 f"outside 1..{MAX_VANISHING}")
        for a in self.alpha_levels:
            if not 0.0 < a < 1.0:
                raise ParameterError(f"alpha level {a} outside (0, 1)")
        if not 2 <= self.p_max <= MAX_P:  # c2 is a reported parameter
            raise ParameterError(f"p_max {self.p_max} outside 2..{MAX_P}")
        if self.workers < 1:
            raise ParameterError("workers must be >= 1")
        try:  # select_gamma's own rule on the three gamma values
            _check_gamma(self.gamma_mode, self.gamma_value, self.gamma_eps)
        except ParameterError as exc:
            raise ParameterError(f"config key gamma: {exc}") from None
        if self.welch_window not in WINDOWS:
            raise ParameterError(f"config key welch.window: "
                                 f"{self.welch_window!r} not one of {WINDOWS}")
        segment = self.welch_segment_length
        if segment is not None and segment < 2:
            raise ParameterError(
                f"config key welch.segment_length: {segment} must be >= 2")
        if not 0.0 <= self.welch_overlap < 1.0:
            raise ParameterError(f"config key welch.overlap_fraction: "
                                 f"{self.welch_overlap} outside [0, 1)")
        if len(self.q_grid) == 0:
            raise ParameterError("config key q_grid: must not be empty")
        if not self.sampling_rate > 0:
            raise ParameterError(
                f"config key sampling_rate: {self.sampling_rate} must be > 0")
        if (self.inputs is None) == (self.synthetic is None):
            raise ParameterError(
                "config must set exactly one of 'inputs' and 'synthetic'"
            )
        if self.synthetic is not None and self.seed < 0:
            raise ParameterError(
                f"config key seed: {self.seed} must be >= 0 for a synthetic study")
        if self.synthetic is not None:
            object.__setattr__(self, "synthetic",
                               _resolve_synthetic(self.synthetic))
            _check_synthetic(self.synthetic)
        object.__setattr__(self, "octave_range", tuple(self.octave_range))
        object.__setattr__(self, "alpha_levels", tuple(self.alpha_levels))
        object.__setattr__(self, "q_grid", tuple(float(q) for q in self.q_grid))

    @classmethod
    def from_dict(cls, raw: dict) -> "AnalysisConfig":
        """Build from the JSON schema, the one place a config is validated:
        an unknown key, or a value that does not fit its field's annotation,
        raises DataFormatError naming the key path."""
        _check(raw, dict, "(top level)")
        hints = typing.get_type_hints(cls)
        data = dict(raw)
        paths = {}
        for section, names in _SECTIONS.items():
            nested = data.pop(section, None)
            if nested is None:
                continue
            _check(nested, dict, section)
            for key, value in nested.items():
                # an unknown key stays under its path and is reported below
                name = names.get(key, f"{section}.{key}")
                data[name] = value
                paths[name] = f"{section}.{key}"
        unknown = set(data) - set(hints)
        if unknown:
            raise DataFormatError(f"unknown config keys: {sorted(unknown)}")
        for name, value in data.items():
            _check(value, hints[name], paths.get(name, name))
        if data.get("inputs") is not None:
            for key, hint in _INPUTS_KEYS.items():
                _check(data["inputs"].get(key), hint, f"inputs.{key}")
            for i, entry in enumerate(data["inputs"]["subjects"]):
                for key, hint in _SUBJECT_KEYS.items():
                    _check(entry.get(key), hint, f"inputs.subjects[{i}].{key}")
        return cls(**data)

    @classmethod
    def from_json(cls, path) -> "AnalysisConfig":
        with open(path, encoding="utf-8") as fh:
            return cls.from_dict(json.load(fh))

    def canonical_json(self) -> str:
        """Analysis-relevant fields only: where the outputs go and how many
        workers computed them must not change the provenance hash."""
        d = dataclasses.asdict(self)
        d.pop("output_dir")
        d.pop("workers")
        return json.dumps(d, sort_keys=True, separators=(",", ":"),
                          default=list)

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()


def _resolve_synthetic(raw: dict, defaults: dict = DEFAULT_SYNTHETIC,
                       path: str = "synthetic") -> dict:
    """A copy of defaults with raw's values, each of its default's kind."""
    out = json.loads(json.dumps(defaults))
    for key, value in raw.items():
        if key not in out:
            raise DataFormatError(f"unknown config key {path}.{key}")
        _check(value, type(out[key]), f"{path}.{key}")
        out[key] = (_resolve_synthetic(value, out[key], f"{path}.{key}")
                    if isinstance(value, dict) else value)
    return out


def _check_synthetic(syn: dict) -> None:
    """Raise ParameterError naming the first key of a resolved synthetic
    section that no study can run with.  Each generator value is checked
    by a GeneratorSpec that takes only that value from syn, so the rules
    stay in GeneratorSpec and the error names the value's key."""
    if syn["subjects"] < 1:
        raise ParameterError(
            f"config key synthetic.subjects: {syn['subjects']} must be >= 1")
    counts = syn["maps"]
    for cls, count in counts.items():
        if count < 0:
            raise ParameterError(
                f"config key synthetic.maps.{cls}: {count} must be >= 0")
    if not any(counts.values()):
        raise ParameterError("config key synthetic.maps: no map to analyze")
    checks = {"length": ("fgn", 0.5, 0.0)}  # key -> (kind, hurst, lambda2)
    for cls in (c for c in CLASSES if counts[c]):
        for key in ("rest_hurst", "task_hurst"):
            checks[f"{key}.{cls}"] = ("fgn", syn[key][cls], 0.0)
        checks[f"lambda2.{cls}"] = ("mrw", 0.5, syn["lambda2"][cls])
    for key, (kind, hurst, lambda2) in checks.items():
        try:
            GeneratorSpec(kind, hurst, syn["length"], 0, lambda2)
        except ParameterError as exc:
            raise ParameterError(f"config key synthetic.{key}: {exc}") from None


def synthetic_taxonomy(n_f: int = 25, n_a: int = 13, n_u: int = 4) -> MapTaxonomy:
    """Paper-shaped taxonomy: F maps tagged with cycling functional networks,
    A maps with cycling artifact types, U maps untagged."""
    classes = ["F"] * n_f + ["A"] * n_a + ["U"] * n_u
    tags = [NETWORK_CYCLE[i % len(NETWORK_CYCLE)] for i in range(n_f)]
    tags += [ARTIFACT_CYCLE[i % len(ARTIFACT_CYCLE)] for i in range(n_a)]
    tags += [""] * n_u
    return MapTaxonomy(classes=tuple(classes), tags=tuple(tags))


@dataclass(frozen=True)
class SyntheticRun:
    """Recipe for the (n, K) matrix of one synthetic (subject, state) run:
    column k is the series seeded by (seed, subject_idx, k, state_idx)."""

    subject_idx: int
    state_idx: int
    classes: tuple

    def matrix(self, config: AnalysisConfig) -> np.ndarray:
        return np.column_stack([
            _synthetic_samples(config, self.subject_idx, k, self.state_idx, cls)
            for k, cls in enumerate(self.classes)])


@dataclass(frozen=True)
class Dataset:
    """Per-subject, per-state runs: (n, K) map time-series matrices read
    from files, or SyntheticRun recipes that expand to them."""

    subjects: tuple
    runs: dict
    taxonomy: MapTaxonomy


@contextmanager
def _csv_rows(path):
    """Yield the stripped header of a CSV file (DataFormatError if empty)
    and an iterator of (line_no, cells) over its non-blank rows."""
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise DataFormatError(f"{path}: empty file")
        yield ([h.strip() for h in header],
               ((line_no, row) for line_no, row in enumerate(reader, start=2)
                if any(c.strip() for c in row)))


def load_taxonomy(path) -> MapTaxonomy:
    """Read the taxonomy CSV (map_index, class, network_or_artifact)."""
    classes = {}
    tags = {}
    with _csv_rows(path) as (header, rows):
        if header[:2] != ["map_index", "class"]:
            raise DataFormatError(
                f"{path}: expected header map_index,class,network_or_artifact"
            )
        for line_no, row in rows:
            if len(row) < 2:
                raise DataFormatError(
                    f"{path}:{line_no}: expected map_index and class columns")
            try:
                k = int(row[0])
            except ValueError:
                raise DataFormatError(
                    f"{path}:{line_no}: map_index {row[0]!r} is not an integer"
                ) from None
            if k in classes:
                raise DataFormatError(f"{path}:{line_no}: duplicate map_index {k}")
            classes[k] = row[1].strip()
            tags[k] = row[2].strip() if len(row) > 2 else ""
    if not classes:
        raise DataFormatError(f"{path}: taxonomy is empty")
    expected = list(range(1, len(classes) + 1))
    if sorted(classes) != expected:
        raise DataFormatError(
            f"{path}: map_index values must cover 1..{len(classes)}"
        )
    return MapTaxonomy(
        classes=tuple(classes[k] for k in expected),
        tags=tuple(tags[k] for k in expected),
    )


def _parse_cell(tok: str, where: str) -> float:
    """A finite float from one CSV cell; DataFormatError prefixed by where."""
    try:
        v = float(tok)
    except ValueError:
        raise DataFormatError(f"{where}: cannot parse {tok!r}") from None
    if not math.isfinite(v):
        raise DataFormatError(f"{where}: non-finite value {tok!r}")
    return v


def _load_run_csv(path, n_maps: int) -> np.ndarray:
    with _csv_rows(path) as (header, lines):
        expected = ["t"] + [f"map_{k}" for k in range(1, n_maps + 1)]
        if len(header) != len(expected):
            raise DataFormatError(
                f"{path}: header has {len(header) - 1} map column(s), "
                f"taxonomy declares {n_maps}"
            )
        for col, (got, want) in enumerate(zip(header, expected), start=1):
            if got != want:
                raise DataFormatError(
                    f"{path}:1: column {col} is {got!r}, expected {want!r} "
                    f"(header t,map_1..map_{n_maps})")
        rows = []
        for line_no, row in lines:
            if len(row) != n_maps + 1:
                raise DataFormatError(
                    f"{path}:{line_no}: expected {n_maps + 1} columns, got {len(row)}"
                )
            rows.append([_parse_cell(tok, f"{path}:{line_no}: column {col}")
                         for col, tok in zip(header[1:], row[1:])])
    if len(rows) < 2:
        raise DataFormatError(f"{path}: fewer than 2 sample rows")
    return np.asarray(rows, dtype=np.float64)


def load_dataset(config: AnalysisConfig) -> Dataset:
    """Load and validate the file-backed dataset declared in config.inputs."""
    if config.inputs is None:
        raise ParameterError("config has no 'inputs' section")
    inputs = config.inputs
    taxonomy = load_taxonomy(inputs["taxonomy"])
    expected = inputs.get("expected_class_counts")
    if expected is not None:
        taxonomy.assert_counts(*expected)
    subjects = []
    runs = {}
    lengths = {}
    for entry in inputs["subjects"]:
        sid = str(entry["id"])
        if sid in subjects:
            raise DataFormatError(f"duplicate subject id {sid!r}")
        subjects.append(sid)
        for state in STATES:
            matrix = _load_run_csv(entry[state], taxonomy.n_maps)
            n = matrix.shape[0]
            if state in lengths and lengths[state] != n:
                raise DataFormatError(
                    f"subject {sid!r} {state} run has {n} samples; previous "
                    f"subjects have {lengths[state]}"
                )
            lengths[state] = n
            runs[(sid, state)] = matrix
    if not subjects:
        raise DataFormatError("inputs.subjects is empty")
    return Dataset(subjects=tuple(subjects), runs=runs, taxonomy=taxonomy)


def project_onto_maps(data: np.ndarray, maps: np.ndarray,
                      cond_warn: float = 1e8) -> np.ndarray:
    """Least-squares projection of voxel data onto spatial maps.

    Solves min ||Y - U V^t||^2 via the closed form U = Y V (V^t V)^{-1}.

    Raises:
        ParameterError: when V^t V is singular; the message reports the
            estimated rank of the map matrix.
    """
    y = np.asarray(data, dtype=np.float64)
    v = np.asarray(maps, dtype=np.float64)
    if y.ndim != 2 or v.ndim != 2 or y.shape[1] != v.shape[0]:
        raise ParameterError(
            f"shape mismatch: data {y.shape} cannot project onto maps {v.shape}"
        )
    gram = v.T @ v
    cond = float(np.linalg.cond(gram))
    if not math.isfinite(cond) or cond > 1.0 / np.finfo(np.float64).eps:
        rank = int(np.linalg.matrix_rank(v))
        raise ParameterError(
            f"map matrix is rank-deficient (estimated rank {rank} of "
            f"{v.shape[1]}); V^t V is singular"
        )
    if cond > cond_warn:
        warnings.warn(
            f"V^t V condition number {cond:.3e}; projection may be unstable",
            stacklevel=2,
        )
    return y @ np.linalg.solve(gram, v.T).T


def analyze_series(signal: Signal, config: AnalysisConfig) -> MfEstimate:
    """Spectrum path plus leader path for one series.

    The wavelet-spectrum fit gives (beta, H, stationarity); the leader
    analysis then runs with reference_shift = 1 when the series is
    stationary (increments convention) and 0 otherwise, so c1 is always
    quoted on the same scale as H.
    """
    j1, j2 = config.octave_range
    try:
        _require_feasible(len(signal), config)
        pyramid = dwt(signal, _wavelet(config.n_vanishing), j2)
        sup_magnitudes(pyramid, j1, j2)  # degenerate-input gate

        fit, rows = _spectrum_rows(pyramid, j1, j2)
        hurst = estimate_hurst(fit)
        shift = 1 if hurst.stationary else 0
        estimate = multifractal_estimate(
            pyramid, j1, j2, q_grid=config.q_grid,
            gamma_mode=config.gamma_mode, gamma_value=config.gamma_value,
            gamma_eps=config.gamma_eps, p_max=config.p_max,
            reference_shift=shift,
        )
        diagnostics = dict(estimate.diagnostics)
        diagnostics["spectrum_fit"] = fit
        diagnostics["spectrum_rows"] = rows
        diagnostics["welch_beta"] = _welch_beta_crosscheck(signal, config)
        return replace(
            estimate, beta=hurst.beta, hurst=hurst.hurst,
            stationary=hurst.stationary, diagnostics=diagnostics,
        )
    except ScaleFreeError as exc:
        if signal.label and signal.label not in str(exc):
            raise type(exc)(f"{signal.label}: {exc}") from exc
        raise


def _spectrum_rows(pyramid, j1: int, j2: int) -> tuple:
    """The wavelet spectrum of a pyramid and its fit over octaves j1..j2:
    (fit, rows), one (octave, log2 power, fitted log2 power) row per
    octave in ascending order."""
    spectrum = wavelet_spectrum(pyramid)
    fit = fit_loglog(spectrum.octave_pairs(), j1, j2)
    order = np.argsort(spectrum.octave_index)
    rows = tuple((j, float(logp), fit.slope * j + fit.intercept)
                 for j, logp in zip(spectrum.octave_index[order].tolist(),
                                    np.log2(spectrum.power[order])))
    return fit, rows


def _welch_beta_crosscheck(signal: Signal, config: AnalysisConfig) -> float:
    """Welch-based beta over the configured octave band; NaN when the
    segmentation or band is too thin for a fit (cross-check only)."""
    j1, j2 = config.octave_range
    try:
        spectrum = welch_psd(
            signal, segment_length=config.welch_segment_length,
            overlap_fraction=config.welch_overlap, window=config.welch_window)
        band = (scale_to_frequency(j2, signal.sampling_rate),
                scale_to_frequency(j1, signal.sampling_rate))
        return fit_psd_powerlaw(spectrum, *band).beta
    except (EstimationError, ParameterError):
        return float("nan")


def _series_seed(seed: int, subject_idx: int, map_idx: int, state_idx: int) -> int:
    ss = np.random.SeedSequence((int(seed), subject_idx, map_idx, state_idx))
    return int(ss.generate_state(2, np.uint64)[0])


def _synthetic_samples(config: AnalysisConfig, subject_idx: int, map_idx: int,
                       state_idx: int, cls: str) -> np.ndarray:
    syn = config.synthetic
    hurst = (syn["rest_hurst"] if state_idx == 0 else syn["task_hurst"])[cls]
    lambda2 = syn["lambda2"][cls]
    seed = _series_seed(config.seed, subject_idx, map_idx, state_idx)
    n = syn["length"]
    if lambda2 > 0:
        walk = gen_mrw(GeneratorSpec(
            kind="mrw", hurst=hurst, length=n, seed=seed, lambda2=lambda2,
            sampling_rate=config.sampling_rate))
        return np.diff(walk.samples, prepend=0.0)
    return gen_fgn(GeneratorSpec(
        kind="fgn", hurst=hurst, length=n, seed=seed,
        sampling_rate=config.sampling_rate)).samples


def _run_one(task) -> list:
    """(key, estimate, error, text) of each series of one (subject, state)
    run; a series that raises a ScaleFreeError fails alone.  The run is
    expanded (if a recipe), analyzed, then formatted, in that order."""
    (subject, state), run, labels, config = task
    matrix = run.matrix(config) if isinstance(run, SyntheticRun) else run
    outcomes = []
    for label, samples in zip(labels, matrix.T):
        key = (subject, label, state)
        try:
            signal = Signal(samples, config.sampling_rate, label="/".join(key))
            outcomes.append((key, analyze_series(signal, config), None))
        except ScaleFreeError as exc:
            outcomes.append((key, None, f"{type(exc).__name__}: {exc}"))
    return [(key, estimate, error,
             _series_text(key, estimate, error, config.sampling_rate))
            for key, estimate, error in outcomes]


@dataclass(frozen=True)
class AnalysisReport:
    """results maps each successful (subject, map, state) key to its
    MfEstimate; failures maps the others to their error text."""

    results: dict
    failures: dict
    table: GroupTable | None
    summary: GroupSummary | None
    battery: BatteryReport | None
    provenance: dict
    dropped_subjects: tuple
    output_dir: str


@lru_cache(maxsize=MAX_VANISHING)
def _wavelet(n_vanishing: int) -> MotherWavelet:
    """The wavelet of a config, built once per process (taps read-only)."""
    return build_wavelet(n_vanishing)


@lru_cache(maxsize=32)
def _leader_spans(n: int, n_vanishing: int) -> tuple:
    """Valid leader positions per octave for any series of n samples: the
    validity ranges of dwt and compute_leaders depend only on n and the
    filter, so they are read once from a zero series of that length."""
    wavelet = _wavelet(n_vanishing)
    pyramid = dwt(Signal(np.zeros(n), 1.0), wavelet,
                  max_feasible_octave(n, wavelet))
    leaders = compute_leaders(pyramid, 0.0)
    spans = [b - a for a, b in zip(leaders.valid_start, leaders.valid_stop)]
    return tuple(spans) + (0,) * (pyramid.max_octave - leaders.max_octave)


def _require_feasible(n: int, config: AnalysisConfig) -> None:
    """The feasibility rule for n samples: octave j2 and a set Welch segment
    fit, and every octave in range keeps enough leaders for cumulants."""
    j1, j2 = config.octave_range
    if (config.welch_segment_length or 0) > n:
        raise ParameterError(f"config key welch.segment_length: "
                             f"{config.welch_segment_length} exceeds {n} samples")
    feasible = max_feasible_octave(n, _wavelet(config.n_vanishing))
    if j2 > feasible:
        raise ScaleRangeError(
            f"length {n} supports octaves up to {feasible}, "
            f"configured range is {config.octave_range}"
        )
    spans = _leader_spans(n, config.n_vanishing)
    _require_cumulant_counts({j: spans[j - 1] for j in range(j1, j2 + 1)},
                             prefix=f"length {n}: ")


def _pool_size(workers: int, n_runs: int) -> int:
    """Processes worth starting: at most one per core and one per
    (subject, state) run, the unit of work handed to the pool."""
    return max(1, min(workers, os.cpu_count() or 1, n_runs))


def _build_dataset(config: AnalysisConfig) -> Dataset:
    """The study's runs: (n, K) matrices read from config.inputs, or one
    SyntheticRun recipe per (subject, state), expanded by the worker."""
    if config.synthetic is None:
        return load_dataset(config)
    syn = config.synthetic
    counts = syn["maps"]
    taxonomy = synthetic_taxonomy(counts["F"], counts["A"], counts["U"])
    subjects = tuple(f"s{idx + 1:02d}" for idx in range(syn["subjects"]))
    runs = {(subject, state): SyntheticRun(s_idx, j, taxonomy.classes)
            for s_idx, subject in enumerate(subjects)
            for j, state in enumerate(STATES)}
    return Dataset(subjects=subjects, runs=runs, taxonomy=taxonomy)


def run_full_analysis(config: AnalysisConfig) -> AnalysisReport:
    """Execute the complete workflow and write all artifacts.

    Each (subject, state) run is one task, serial or in a process pool,
    that analyzes and formats its series; the per-series files are
    written subject by subject as runs come back.  Per-series failures
    are collected, not fatal; subjects with incomplete cells are dropped
    (listwise) before the group stage.  Outputs are byte-identical across
    reruns and worker counts, and are renamed into place only once all six
    are written.
    """
    dataset = _build_dataset(config)
    # Every run of a state has the same length (load_dataset checks it).
    lengths = ({config.synthetic["length"]} if config.synthetic is not None
               else {dataset.runs[(dataset.subjects[0], state)].shape[0]
                     for state in STATES})
    for n in sorted(lengths):
        _require_feasible(n, config)

    with _published(Path(config.output_dir)) as files:
        results, failures = _analyze_runs(config, dataset, files)

        cells = {key: (e.c1, e.c2, e.hurst) for key, e in results.items()}
        table, dropped = _group_table(dataset.subjects, dataset.taxonomy,
                                      cells)
        summary = battery = None
        if table is not None:
            summary = aggregate(table)
            battery = run_battery(table, alpha_levels=config.alpha_levels)

        provenance = {
            "config_sha256": config.sha256(),
            "seed": config.seed,
            "version": __version__,
            "n_series": len(results) + len(failures),
            "n_failures": len(failures),
        }
        report = AnalysisReport(
            results=results, failures=failures, table=table,
            summary=summary, battery=battery, provenance=provenance,
            dropped_subjects=dropped, output_dir=config.output_dir,
        )
        _write_report(config, report, files)
    return report


# Every output file and its header (none for JSON): the per-series files
# first, in the order of _series_text's blocks.
_OUTPUTS = {
    "estimates.csv": "subject,map,state,status,beta,welch_beta,hurst,"
                     "stationary,h_min,gamma,reference_shift,c1,c2,error\n",
    "spectra.csv": "subject,map,state,octave,frequency_hz,log2_power,"
                   "fitted_log2_power\n",
    "dh_curves.csv": "subject,map,state,h,d\n",
    "pvalues.csv": "level,map,parameter,test,statistic,p,p_corrected\n",
    "group_report.json": "",
    "config_resolved.json": "",
}


@contextmanager
def _published(out: Path):
    """{name: file} of every output in _OUTPUTS, each open on a ".partial"
    name in out with its header written.  A clean exit renames every file
    onto its name; if the block raises, the partial files are removed.  A
    failed run thus leaves an earlier run's outputs whole, never mixed
    with its own."""
    out.mkdir(parents=True, exist_ok=True)
    paths = {name: out / f"{name}.partial" for name in _OUTPUTS}
    try:
        with ExitStack() as stack:
            files = {name: stack.enter_context(
                         open(path, "w", newline="\n", encoding="utf-8"))
                     for name, path in paths.items()}
            for name, header in _OUTPUTS.items():
                files[name].write(header)
            yield files
    except BaseException:
        for path in paths.values():
            path.unlink(missing_ok=True)
        raise
    for name, path in paths.items():
        os.replace(path, out / name)


def _run_tasks(config: AnalysisConfig, dataset: Dataset) -> list:
    """One _run_one task per (subject, state) run, subject by subject."""
    labels = dataset.taxonomy.display_labels()
    return [((subject, state), dataset.runs[(subject, state)], labels, config)
            for subject in dataset.subjects for state in STATES]


def _analyze_runs(config: AnalysisConfig, dataset: Dataset,
                  files: dict) -> tuple:
    """(results, failures) of every run.  The rows of estimates.csv,
    spectra.csv and dh_curves.csv (files[name]) are written as each
    subject's runs come back, in (subject, map, state) order, and their
    text is then dropped."""
    tasks = _run_tasks(config, dataset)
    results = {}
    failures = {}
    with ExitStack() as stack:
        workers = _pool_size(config.workers, len(tasks))
        if workers == 1:
            batches = map(_run_one, tasks)
        else:
            pool = stack.enter_context(ProcessPoolExecutor(max_workers=workers))
            batches = pool.map(_run_one, tasks)
        for _ in dataset.subjects:
            runs = [next(batches) for _ in STATES]
            for series in zip(*runs):  # one map, every state
                for key, estimate, error, text in series:
                    if error is None:
                        results[key] = estimate
                    else:
                        failures[key] = error
                    for fh, block in zip(files.values(), text):
                        fh.write(block)
    return results, failures


def _group_table(subjects, taxonomy: MapTaxonomy, cells: dict) -> tuple:
    """Listwise deletion: (GroupTable of the subjects with every (subject,
    map label, state) -> (c1, c2, H) cell, or None below 3; dropped)."""
    labels = taxonomy.display_labels()
    complete = [s for s in subjects
                if all((s, lab, st) in cells for lab in labels for st in STATES)]
    dropped = tuple(s for s in subjects if s not in complete)
    if len(complete) < 3:
        return None, dropped
    est = np.array([[[cells[(s, lab, st)] for st in STATES] for lab in labels]
                    for s in complete], dtype=np.float64)
    return GroupTable(estimates=est, taxonomy=taxonomy,
                      subjects=tuple(complete)), dropped


def _csv_line(fields) -> str:
    """fields as one CSV row, quoted by csv rules, ending in \\n."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(fields)
    return buf.getvalue()


def _series_text(key, e: MfEstimate | None, error: str | None,
                 sampling_rate: float) -> tuple:
    """The estimates.csv row, spectra.csv rows and dh_curves.csv rows of
    one series: "%.17g" templates behind the key quoted once by csv rules.
    A failed series has only its row, quoted whole by csv rules."""
    if e is None:
        return _csv_line([*key, "error"] + [""] * 9 + [error]), "", ""
    prefix = _csv_line(key)[:-1].replace("%", "%%") + ","  # "%" in an id is text
    row = (prefix + "ok,%.17g,%.17g,%.17g,%d,%.17g,%.17g,%d,%.17g,%.17g,\n") % (
        e.beta, e.diagnostics["welch_beta"], e.hurst, e.stationary,
        e.h_min, e.gamma, e.reference_shift, e.c1, e.c2)
    rows = e.diagnostics["spectrum_rows"]
    spectra = (prefix + "%d,%.17g,%.17g,%.17g\n") * len(rows) % tuple(
        v for j, logp, fitted in rows
        for v in (j, scale_to_frequency(j, sampling_rate), logp, fitted))
    dh = (prefix + "%.17g,%.17g\n") * len(e.spectrum) % tuple(
        e.spectrum.ravel().tolist())
    return row, spectra, dh


def _write_report(config: AnalysisConfig, report: AnalysisReport,
                  files: dict) -> None:
    """The rows of pvalues.csv, group_report.json and config_resolved.json,
    each to files[name]."""
    if report.battery is not None:
        files["pvalues.csv"].write("".join([
            "%s,%.17g,%.17g,%s\n" % (
                _csv_line([f"{level}:{state}", unit, param, test])[:-1],
                stat, p, "" if p_corr is None else "%.17g" % p_corr)
            for level, unit, state, param, test, stat, p, p_corr
            in report.battery.to_rows()]))

    doc = {
        "provenance": report.provenance,
        "dropped_subjects": list(report.dropped_subjects),
        "failures": {"/".join(k): v for k, v in sorted(report.failures.items())},
        "aggregate": _summary_json(report.summary),
        "battery": (report.battery.to_json_dict()
                    if report.battery is not None else None),
    }
    files["group_report.json"].write(
        json.dumps(doc, sort_keys=True, indent=1) + "\n")
    files["config_resolved.json"].write(config.canonical_json() + "\n")


def _by_state(block) -> dict:
    """{state: {parameter: value}} from a (2, P) block of means."""
    return {state: dict(zip(PARAMS, block[j])) for j, state in enumerate(STATES)}


def _summary_json(summary: GroupSummary | None):
    if summary is None:
        return None
    doc = {f"{level}_means": {unit: _by_state(m) for unit, m in units.items()}
           for level, units in summary.means.items()}
    doc["class_differences"] = {c: dict(zip(PARAMS, d))
                                for c, d in summary.class_differences.items()}
    return doc


def load_estimates_csv(path, taxonomy: MapTaxonomy) -> GroupTable:
    """Rebuild a GroupTable from a pipeline estimates.csv.

    Subjects with any missing or failed cell are dropped listwise with a
    warning.
    """
    labels = set(taxonomy.display_labels())
    cells = {}
    subjects = []
    with _csv_rows(path) as (header, rows):
        required = {"subject", "map", "state", "status", "c1", "c2", "hurst"}
        if not required <= set(header):
            raise DataFormatError(
                f"{path}: estimates CSV must carry columns {sorted(required)}"
            )
        for line_no, raw in rows:
            # cells missing from a short row read as empty
            row = dict(zip(header, raw + [""] * len(header)))
            sid = row["subject"]
            if sid not in subjects:
                subjects.append(sid)
            if row["status"] != "ok":
                continue
            where = f"{path}:{line_no}"
            if row["map"] not in labels:
                raise DataFormatError(
                    f"{where}: unknown map label {row['map']!r} for the taxonomy"
                )
            if row["state"] not in STATES:
                raise DataFormatError(f"{where}: unknown state {row['state']!r}")
            cells[(sid, row["map"], row["state"])] = tuple(
                _parse_cell(row[col], f"{where}: column {col}")
                for col in ("c1", "c2", "hurst"))
    table, dropped = _group_table(subjects, taxonomy, cells)
    if dropped:
        warnings.warn(f"dropped incomplete subject(s): {sorted(dropped)}",
                      stacklevel=2)
    if table is None:
        raise DataFormatError(f"{path}: only {len(subjects) - len(dropped)} "
                              "complete subject(s); need >= 3")
    return table
