"""Correctness checks applied to every benchmark iteration.

Every check returns a Verdict: how many of the attempted series failed and
why.  A fault that cannot be pinned on one series (a missing output file, a
wrong series count, a class-mean H off target, output bytes differing
between worker counts) fails every series of the iteration.

Pure Python on purpose: the parent process and the tests import this module
without importing numpy, scipy or the library.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# Files a study run must write; criterion 11 hashes every file in the
# output directory, these are the ones whose absence is a failure.
OUTPUT_FILES = ("estimates.csv", "spectra.csv", "dh_curves.csv",
                "pvalues.csv", "group_report.json", "config_resolved.json")
# Numeric estimates compared with the committed reference, read by name so
# that added columns do not break the check.
VALUE_COLUMNS = ("beta", "welch_beta", "hurst", "h_min", "gamma", "c1", "c2")
RTOL = 1e-12
HURST_TOL = 0.05
MAX_PROBLEMS = 10


@dataclass
class Verdict:
    attempted: int
    failed: int = 0
    problems: list = field(default_factory=list)

    def fail_all(self, problem: str) -> None:
        self.failed = self.attempted
        self.note(problem)

    def note(self, problem: str) -> None:
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)


def same_value(a: float, b: float) -> bool:
    """Equal to RTOL relative; NaN matches only NaN."""
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return a == b or abs(a - b) <= RTOL * max(abs(a), abs(b))


def _parse(token: str) -> float:
    return float(token) if token != "" else math.nan


def read_reference(path) -> dict:
    """Reference snapshot: key columns first, then VALUE_COLUMNS."""
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    n_keys = len(header) - len(VALUE_COLUMNS)
    if tuple(header[n_keys:]) != VALUE_COLUMNS:
        raise ValueError(f"{path}: reference columns {header} "
                         f"do not end with {VALUE_COLUMNS}")
    return {tuple(r[:n_keys]): tuple(_parse(t) for t in r[n_keys:])
            for r in body}


def write_reference(path, key_names, rows) -> None:
    """rows: iterable of (key tuple, value tuple); floats as repr."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(list(key_names) + list(VALUE_COLUMNS))
        for key, values in rows:
            w.writerow([str(k) for k in key] + [repr(float(v)) for v in values])


def output_digests(out_dir) -> dict:
    """sha256 of every file in the output directory, as criterion 11 does.
    Files are read in blocks, so that the check does not raise the peak
    memory the benchmark reports."""
    digests = {}
    for path in sorted(Path(out_dir).iterdir()):
        if path.is_file():
            with open(path, "rb") as fh:
                digest = hashlib.file_digest(fh, "sha256")
            digests[path.name] = digest.hexdigest()
    return digests


def check_hurst_means(verdict: Verdict, hurst_by_group: dict,
                      targets: dict) -> None:
    """Mean H of each group within HURST_TOL of the configured H."""
    for group, target in sorted(targets.items()):
        values = [h for h in hurst_by_group.get(group, ()) if not math.isnan(h)]
        if not values:
            verdict.fail_all(f"no H estimates for {group}")
            continue
        mean = sum(values) / len(values)
        if abs(mean - target) > HURST_TOL:
            verdict.fail_all(f"mean H of {group} is {mean:.4f}, "
                             f"configured {target}")


def check_study(out_dir, keys, class_of_map: dict, targets: dict,
                reference: dict | None = None) -> Verdict:
    """Check one run_full_analysis output directory.

    keys: the (subject, map, state) triples the run must report.
    class_of_map: map label -> F/A/U class.
    targets: (class, state) -> configured H.
    reference: (subject, map, state) -> VALUE_COLUMNS values, or None when
    the seed has no committed snapshot.
    """
    out_dir = Path(out_dir)
    verdict = Verdict(attempted=len(keys))
    missing = [name for name in OUTPUT_FILES if not (out_dir / name).is_file()]
    if missing:
        verdict.fail_all(f"missing output file(s) {missing}")
        return verdict
    with open(out_dir / "estimates.csv", newline="", encoding="utf-8") as fh:
        reader = csv.DictReader(fh)
        absent = set(VALUE_COLUMNS + ("subject", "map", "state", "status")) \
            - set(reader.fieldnames or ())
        if absent:
            verdict.fail_all(f"estimates.csv lacks columns {sorted(absent)}")
            return verdict
        rows = {(r["subject"], r["map"], r["state"]): r for r in reader}
    expected = set(keys)
    if set(rows) != expected:
        verdict.fail_all(f"estimates.csv has {len(rows)} series, "
                         f"expected {len(expected)}")
        return verdict

    failed = set()
    hurst_by_group = {}
    for key in keys:
        row = rows[key]
        if row["status"] != "ok":
            failed.add(key)
            verdict.note(f"{'/'.join(key)}: {row.get('error', row['status'])}")
            continue
        values = tuple(_parse(row[c]) for c in VALUE_COLUMNS)
        if reference is not None:
            ref = reference.get(key)
            bad = [c for c, v, r in zip(VALUE_COLUMNS, values, ref or ())
                   if not same_value(v, r)]
            if ref is None or bad:
                failed.add(key)
                verdict.note(f"{'/'.join(key)}: differs from the reference "
                             f"in {bad or 'every column'}")
        group = (class_of_map[key[1]], key[2])
        hurst_by_group.setdefault(group, []).append(
            values[VALUE_COLUMNS.index("hurst")])
    verdict.failed = len(failed)
    check_hurst_means(verdict, hurst_by_group, targets)
    return verdict


def check_series(values: list, groups: list, targets: dict,
                 reference: dict | None = None,
                 previous: list | None = None) -> Verdict:
    """Check one pass of per-series estimates.

    values[i]: VALUE_COLUMNS of series i, or None when the call failed.
    groups[i]: the group of series i, a key of targets (configured H).
    reference: (str(i),) -> VALUE_COLUMNS values, or None.
    previous: the values of an earlier pass over the same series, which a
    deterministic library must reproduce exactly.
    """
    verdict = Verdict(attempted=len(values))
    hurst_by_group = {}
    failed = 0
    for i, vals in enumerate(values):
        if vals is None:
            failed += 1
            verdict.note(f"series {i}: call failed")
            continue
        problems = []
        if reference is not None:
            ref = reference.get((str(i),))
            if ref is None or not all(map(same_value, vals, ref)):
                problems.append("differs from the reference")
        if previous is not None and previous[i] is not None \
                and not all(map(same_value, vals, previous[i])):
            problems.append("differs from the previous pass")
        if problems:
            failed += 1
            verdict.note(f"series {i}: {', '.join(problems)}")
        hurst_by_group.setdefault(groups[i], []).append(
            vals[VALUE_COLUMNS.index("hurst")])
    verdict.failed = failed
    check_hurst_means(verdict, hurst_by_group, targets)
    return verdict
