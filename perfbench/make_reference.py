"""Regenerate the reference snapshots the checks compare against.

    PYTHONPATH=src python3 perfbench/make_reference.py

Runs the serial study, the file-backed study and one long_series pass at
the default seed and writes their estimates to perfbench/reference/.  Only
rerun it when the library's estimates are meant to change; a speed change
must reproduce the committed snapshots to 1e-12 relative.
"""

from __future__ import annotations

import csv
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from checks import VALUE_COLUMNS, write_reference  # noqa: E402
from workloads import (DEFAULT_SEED, REFERENCE_DIR, FileStudy,  # noqa: E402
                       LongSeries, Study)


def study_rows(out_dir: Path):
    with open(out_dir / "estimates.csv", newline="", encoding="utf-8") as fh:
        for row in csv.DictReader(fh):
            if row["status"] != "ok":
                raise SystemExit(f"{row['subject']}/{row['map']}/"
                                 f"{row['state']} failed: {row['error']}")
            yield ((row["subject"], row["map"], row["state"]),
                   tuple(float(row[c]) if row[c] else float("nan")
                         for c in VALUE_COLUMNS))


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="perfbench-ref-",
                                    dir=Path.cwd()))
    try:
        for workload in (Study(), FileStudy()):
            workload.setup(DEFAULT_SEED, workdir / workload.name)
            workload.run()
            write_reference(
                REFERENCE_DIR
                / f"{workload.reference_name}_{DEFAULT_SEED}.csv",
                ("subject", "map", "state"), study_rows(workload.out_dir))
        long = LongSeries()
        long.setup(DEFAULT_SEED, workdir / long.name)
        long.run()
        if any(v is None for v in long.values):
            raise SystemExit("a long_series call failed")
        write_reference(REFERENCE_DIR / f"long_{DEFAULT_SEED}.csv",
                        ("series",),
                        (((i,), v) for i, v in enumerate(long.values)))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
