"""One fresh benchmark process: set up a workload, run iterations of it in a
closed loop, check each, and write the measurements as JSON.

Started by run.py, which times the set-up from outside and reads the
process's peak memory and CPU time from wait4.  Not meant to be run by hand.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from time import perf_counter

sys.path.insert(0, str(Path(__file__).resolve().parent))

import numpy  # noqa: E402
import scipy  # noqa: E402

from metrics import layer_metrics  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, LatencyProbe, Study  # noqa: E402


def _cpu(usage) -> float:
    return usage.ru_utime + usage.ru_stime


def run_iteration(workload, tracer, probe) -> dict:
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    t0 = perf_counter()
    try:
        workload.run()
    finally:
        wall = perf_counter() - t0
        if tracer is not None:
            tracer.uninstall()
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    verdict = workload.check()
    it = {
        "traced": tracer is not None,
        "wall_s": wall,
        "parent_cpu_s": _cpu(self1) - _cpu(self0),
        "workers_cpu_s": _cpu(kids1) - _cpu(kids0),
        "attempted": verdict.attempted,
        "failed": verdict.failed,
        "problems": verdict.problems,
    }
    if probe is not None:
        it["latencies_ms"] = probe.collect_ms()
    elif hasattr(workload, "latencies_ms"):
        it["latencies_ms"] = list(workload.latencies_ms)
    if isinstance(workload, Study):
        it["digests"] = workload.digests()
    if tracer is not None:
        counts = workload.output_counts() if isinstance(workload, Study) else {}
        it["layers"] = layer_metrics(tracer.spans, counts,
                                     getattr(workload, "input_bytes", 0))
    return it


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--deadline", type=float, required=True,
                    help="time.monotonic() after which no iteration starts "
                         "unless less than half of it would run past")
    ap.add_argument("--min-iterations", type=int, default=1)
    ap.add_argument("--max-iterations", type=int, default=1)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="alternate untraced and traced iterations")
    ap.add_argument("--spans-out", default=None,
                    help="where to write the last traced iteration's spans")
    args = ap.parse_args(argv)

    workdir = Path(args.workdir)
    workload = WORKLOADS[args.workload]()
    workload.setup(args.seed, workdir)
    probe = None
    if not args.trace and isinstance(workload, Study):
        probe = LatencyProbe(workdir / "latency")
        probe.install()
    ready_at = time.monotonic()

    tracer = Tracer() if args.trace else None
    iterations = []
    while True:
        traced = tracer if len(iterations) % 2 == 1 else None
        it = run_iteration(workload, traced, probe)
        iterations.append(it)
        n = len(iterations)
        if n >= args.max_iterations:
            break
        if (n >= args.min_iterations
                and time.monotonic() + it["wall_s"] / 2 > args.deadline):
            break
    if tracer is not None and args.spans_out and tracer.spans:
        tracer.dump(args.spans_out)

    result = {
        "ready_at": ready_at,
        "workers": workload.workers,
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "iterations": iterations,
    }
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
