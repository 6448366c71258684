"""Benchmark of the scalefree study pipeline.

    python3 perfbench/run.py --workload study_serial --seed 2024 \
        --seconds 30 --trace 0

Run from the root of a checkout: the library is imported from ./src.  Each
workload is a closed loop with one client: fresh worker processes
(perfbench/worker.py) are started one after another, each sets the
workload up, runs its iterations and checks every output, and the next
starts only when the previous has exited.  Fresh processes make set-up time
and peak memory per-process measurements; wait4 gives the peak RSS of a
worker together with its pool children.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
of traced iterations (alternating with untraced ones, for the overhead).
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from metrics import END_TO_END, PER_LAYER  # noqa: E402

WORKLOADS = ("study_serial", "study_parallel", "files_study", "long_series")
DEFAULT_SEED = 2024
# (min, max) iterations per worker process.  One per process for the
# studies, so every iteration also yields a set-up and a peak-RSS sample;
# long_series passes are short, and two per process keep >= 200 calls in
# a run, so that ten samples lie beyond p95.  Traced runs alternate
# untraced and traced iterations, so they need at least two.
ITERATIONS = {"study_serial": (1, 1), "study_parallel": (1, 1),
              "files_study": (1, 1), "long_series": (2, 4)}
TRACE_ITERATIONS = {"study_serial": (2, 2), "study_parallel": (2, 2),
                    "files_study": (2, 2), "long_series": (2, 4)}
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
RUN_LIMIT_S = 170.0


class WorkerFailed(RuntimeError):
    pass


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    for var in BLAS_VARS:
        env[var] = "1"
    return env


def spawn_worker(workload, seed, workdir: Path, deadline, limit_at,
                 iterations, trace=0, spans_out=None) -> dict:
    """Run one worker process to completion and return its measurements,
    with set-up time and peak RSS (of the worker and its pool children,
    from wait4) measured from outside."""
    workdir.mkdir(parents=True, exist_ok=True)
    result_path = workdir / "result.json"
    result_path.unlink(missing_ok=True)
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--workdir", str(workdir),
            "--result", str(result_path), "--deadline", repr(deadline),
            "--min-iterations", str(iterations[0]),
            "--max-iterations", str(iterations[1]), "--trace", str(trace)]
    if spans_out is not None:
        argv += ["--spans-out", str(spans_out)]
    spawned_at = time.monotonic()
    # stdout of the worker goes to stderr: the last stdout line is ours.
    # setsid lets a timeout kill the worker together with its pool.
    pid = os.posix_spawn(sys.executable, argv, worker_env(),
                         file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)],
                         setsid=True)
    try:
        while True:
            done, status, usage = os.wait4(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > limit_at:
                raise WorkerFailed(f"{workload} worker exceeded the run limit")
            time.sleep(0.02)
    except BaseException:
        try:
            os.killpg(pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        os.wait4(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(status)
    if code != 0 or not result_path.is_file():
        raise WorkerFailed(f"{workload} worker exited with code {code}")
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["setup_s"] = result["ready_at"] - spawned_at
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    return result


def run_loop(workload, seed, seconds, trace, workdir: Path, spans_out):
    """Start fresh workers until the next one would mostly run past the
    deadline; the first always runs."""
    start = time.monotonic()
    deadline = start + seconds
    limit_at = start + RUN_LIMIT_S
    iterations = (TRACE_ITERATIONS if trace else ITERATIONS)[workload]
    workers = []
    last = 0.0
    while not workers or time.monotonic() + last / 2 <= deadline:
        t0 = time.monotonic()
        workers.append(spawn_worker(
            workload, seed, workdir / f"w{len(workers)}", deadline, limit_at,
            iterations, trace, spans_out))
        last = time.monotonic() - t0
    return workers, limit_at


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def end_to_end(workers) -> dict:
    """Medians over iterations (set-up and memory: over processes); the
    latency percentiles pool every call of the run."""
    its = [it for w in workers for it in w["iterations"]]
    latencies = [v for it in its for v in it["latencies_ms"]]
    values = {
        "run_s": statistics.median(it["wall_s"] for it in its),
        "series_per_s": statistics.median(it["attempted"] / it["wall_s"]
                                          for it in its),
        "series_ms.mean": statistics.median(statistics.fmean(
            it["latencies_ms"]) for it in its),
        "series_ms.p50": percentile(latencies, 0.50),
        "series_ms.p95": percentile(latencies, 0.95),
        "cpu_s": statistics.median(it["parent_cpu_s"] + it["workers_cpu_s"]
                                   for it in its),
        "peak_rss_mb": statistics.median(w["peak_rss_mb"] for w in workers),
        "setup_s": statistics.median(w["setup_s"] for w in workers),
    }
    return values, len(latencies)


def per_layer(workers) -> dict:
    its = [(w["workers"], it) for w in workers for it in w["iterations"]]
    plain = [it for _, it in its if not it["traced"]]
    traced = [it for _, it in its if it["traced"]]
    values = {}
    for name in traced[0]["layers"]:
        values[name] = statistics.median(it["layers"][name] for it in traced)
    values["pipeline.parent_cpu_s"] = statistics.median(
        it["parent_cpu_s"] for it in plain)
    values["pipeline.workers_cpu_s"] = statistics.median(
        it["workers_cpu_s"] for it in plain)
    values["pipeline.parallel_efficiency"] = statistics.median(
        (it["parent_cpu_s"] + it["workers_cpu_s"]) / (it["wall_s"] * n)
        for n, it in its if not it["traced"])
    values["trace.overhead_frac"] = (
        statistics.median(it["wall_s"] for it in traced)
        / statistics.median(it["wall_s"] for it in plain) - 1.0)
    return values


def source_fingerprint() -> str:
    """sha256 over the library source, so cached digests follow the code."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0")
            h.update(path.read_bytes())
    return h.hexdigest()


def check_digests(workload, seed, workers, workdir: Path, limit_at) -> list:
    """Criterion 11 across processes: every study iteration's output files
    equal, byte for byte, those of a serial run of the same seed and source.

    The serial digests are cached in the checkout by source fingerprint and
    seed: the first passing serial iteration records them, and a later
    serial rerun or a workers=2 run must match.  When study_parallel finds
    no entry, it runs the serial study once itself, after the timed loop.
    Mismatching iterations count all their series as failed.
    """
    if workload not in ("study_serial", "study_parallel"):
        return []
    cache = (ROOT / ".bench_work" / "serial-digests"
             / f"{source_fingerprint()}-{seed}.json")
    its = [it for w in workers for it in w["iterations"]]
    problems = []
    reference = None
    if cache.is_file():
        reference = json.loads(cache.read_text(encoding="utf-8"))
    else:
        if workload == "study_serial":
            passing = [it for it in its if it["failed"] == 0]
        else:
            serial = spawn_worker("study_serial", seed, workdir / "serial",
                                  0.0, limit_at, (1, 1))
            passing = [it for it in serial["iterations"] if it["failed"] == 0]
            if not passing:
                problems.append("the serial reference run failed its checks")
        if passing:
            reference = passing[0]["digests"]
            cache.parent.mkdir(parents=True, exist_ok=True)
            tmp = cache.with_suffix(f".{os.getpid()}.tmp")
            tmp.write_text(json.dumps(reference, sort_keys=True),
                           encoding="utf-8")
            os.replace(tmp, cache)
    for it in its:
        if reference is None or it["digests"] == reference:
            continue
        differ = sorted(name for name in set(it["digests"]) | set(reference)
                        if it["digests"].get(name) != reference.get(name))
        it["failed"] = it["attempted"]
        problems.append(f"outputs differ from the serial run of seed {seed} "
                        f"in {differ}")
    return problems


def read_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            path = git / ref
            if path.is_file():
                return path.read_text().strip()
            for line in (git / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return head
    except OSError:
        return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(workload, seed, seconds, workers) -> dict:
    src_lines = 0
    for path in sorted((ROOT / "src").rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "commit": read_commit(), "nproc": os.cpu_count(),
        "cpu_model": cpu_model(), "python": platform.python_version(),
        "numpy": workers[0]["numpy"], "scipy": workers[0]["scipy"],
        "blas_threads": {var: "1" for var in BLAS_VARS},
        "src_lines": src_lines, "worker_processes": len(workers),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "scalefree" / "pipeline.py").is_file():
        print(f"error: no library source at {ROOT / 'src' / 'scalefree'}",
              file=sys.stderr)
        return 2

    work_root = ROOT / ".bench_work"
    workdir = work_root / f"{args.workload}-{os.getpid()}"
    spans_out = None
    if args.trace:
        (work_root / "traces").mkdir(parents=True, exist_ok=True)
        spans_out = (work_root / "traces"
                     / f"{args.workload}-seed{args.seed}.json")
    try:
        workers, limit_at = run_loop(args.workload, args.seed, args.seconds,
                                     args.trace, workdir, spans_out)
        problems = check_digests(args.workload, args.seed, workers, workdir,
                                 limit_at)
    except WorkerFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    its = [it for w in workers for it in w["iterations"]]
    attempted = sum(it["attempted"] for it in its)
    failed = sum(it["failed"] for it in its)
    problems = [p for it in its for p in it["problems"]] + problems
    for p in problems[:20]:
        print(f"check failed: {p}", file=sys.stderr)

    if args.trace:
        values = per_layer(workers)
        spec = PER_LAYER
        samples = f"{sum(it['traced'] for it in its)} traced, " \
                  f"{sum(not it['traced'] for it in its)} untraced iterations"
    else:
        values, n_latencies = end_to_end(workers)
        spec = END_TO_END
        samples = f"{len(its)} iterations in {len(workers)} processes, " \
                  f"{n_latencies} series latencies"
    prov = provenance(args.workload, args.seed, args.seconds, workers)
    print(f"# {args.workload} seed={args.seed} trace={args.trace}: {samples}")
    for name, unit in spec:
        print(f"{name:44s} {values[name]:14.6g} {unit}")
    if not args.trace:
        # printed beside the gated metrics, not gated: the p50 jumps with
        # the host's speed level (see metrics.py); failures are gated
        # through "failed" and "correct".
        print(f"{'series_ms.p50':44s} {values['series_ms.p50']:14.6g} ms")
        print(f"{'failed_frac':44s} {failed / attempted:14.6g} ratio")
    print("provenance " + json.dumps(prov, sort_keys=True))
    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
