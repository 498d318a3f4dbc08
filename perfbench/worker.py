"""One workload in one fresh process: set up, then run the closed loop.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S \
        --mode measure|setup|trace --out result.json [--started NS]

``--started`` is the parent's ``time.monotonic_ns()`` just before it
started this process, so ``setup_s`` covers interpreter start, imports,
input generation and one untimed warm-up job.  ``setup`` mode stops there.
``measure`` runs jobs back to back (one client, the next job starts when the
previous one is done) for ``--seconds``.  ``trace`` splits ``--seconds``
into an untraced pass, a pass with timing spans and a ``tracemalloc`` pass.
The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import time

STARTED_NS = time.monotonic_ns()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

def closed_loop(workload, seconds: float, first_job: int, min_jobs: int, tracer=None) -> dict:
    """Run jobs one after another until ``seconds`` have passed."""
    times: dict[int, float] = {}
    failures = []
    j = first_job
    start = time.perf_counter()
    while len(times) < min_jobs or time.perf_counter() - start < seconds:
        if tracer is not None:
            tracer.job = j
        problems = None
        t0 = time.perf_counter()
        try:
            result = workload.run(j)
        except Exception as exc:  # a job that raises counts as failed
            problems = [f"{type(exc).__name__}: {exc}"]
        times[j] = time.perf_counter() - t0
        if problems is None:
            try:
                problems = workload.check(j, result)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            result = None
        if problems:
            failures.append({"job": j, "problems": problems})
        j += 1
    return {"times": times, "failures": failures, "wall_s": time.perf_counter() - start}


def blas_threads() -> int | None:
    """Thread count reported by the OpenBLAS library numpy loaded, if any."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libs = sorted({line.split()[-1] for line in maps.splitlines() if "openblas" in line.lower()})
    for lib in libs:
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def git_sha(root: Path) -> str | None:
    """HEAD commit of the checkout, read from .git without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": git_sha(ROOT),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "threads_env": {k: v for k, v in os.environ.items() if k.endswith("_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("measure", "setup", "trace"), required=True)
    parser.add_argument("--scale", choices=workloads.SCALES, default="full")
    parser.add_argument("--control", help="negative control (see workloads.py)")
    parser.add_argument("--started", type=int, default=STARTED_NS)
    parser.add_argument("--out", required=True)
    parser.add_argument("--spans", help="trace mode: write spans CSV here")
    args = parser.parse_args(argv)

    workdir = ROOT / "perfbench" / ".runs" / f"work-{os.getpid()}"
    try:
        workload = workloads.WORKLOADS[args.workload](workdir, args.seed, args.scale, args.control)
        workload.setup()
        warm = closed_loop(workload, 0.0, 0, 1)
        setup_s = (time.monotonic_ns() - args.started) / 1e9
        result = {"workload": args.workload, "seed": args.seed, "mode": args.mode,
                  "scale": args.scale, "control": args.control, "setup_s": setup_s,
                  "warmup_failures": warm["failures"]}
        if args.mode == "measure":
            loop = closed_loop(workload, args.seconds, 1, 3)
            times = list(loop["times"].values())
            result.update(
                job_s=times, failures=loop["failures"], wall_s=loop["wall_s"],
                peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                environment=environment(), **workload.describe(),
            )
        elif args.mode == "trace":
            result.update(run_trace(workload, args.seconds, args.spans))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    Path(args.out).write_text(json.dumps(result, indent=1) + "\n")
    return 0


def run_trace(workload, seconds: float, spans_path: str | None) -> dict:
    """Untraced, span and tracemalloc passes over consecutive jobs."""
    plain = closed_loop(workload, 0.4 * seconds, 1, 2)
    spans = tracing.Tracer("spans")
    spans.install()
    try:
        traced = closed_loop(workload, 0.4 * seconds, 1 + len(plain["times"]), 2, spans)
    finally:
        spans.uninstall()
    alloc = tracing.Tracer("alloc")
    tracemalloc.start()
    alloc.install()
    try:
        memory = closed_loop(workload, 0.2 * seconds, 1 + len(plain["times"]) + len(traced["times"]), 1)
    finally:
        alloc.uninstall()
        tracemalloc.stop()
    measured = spans.summary(traced["times"])
    measured.update(alloc.alloc_summary())
    measured["trace.overhead_s"] = statistics.median(traced["times"].values()) - statistics.median(plain["times"].values())
    metrics, absent = tracing.layer_metrics(measured, spans.absent)
    if spans_path:
        spans.write_spans(spans_path)
    failures = plain["failures"] + traced["failures"] + memory["failures"]
    return {
        "metrics": metrics,
        "absent": absent,
        "jobs": {"untraced": len(plain["times"]), "spans": len(traced["times"]),
                 "tracemalloc": len(memory["times"])},
        "job_s_p50": {"untraced": statistics.median(plain["times"].values()),
                      "spans": statistics.median(traced["times"].values())},
        "failures": failures,
        "attempted": 1 + len(plain["times"]) + len(traced["times"]) + len(memory["times"]),
        "spans": len(spans.spans),
        "wait_time": "not measured: no layer has a queue, a lock or a second process",
    }


if __name__ == "__main__":
    raise SystemExit(main())
