"""Benchmark of ultrawave: one workload per call, one fresh process per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``, nothing is installed.  The seed generates every input.  With
``--trace 0`` one worker process sets up, then runs jobs as a closed loop
with one client for ``--seconds``; two more workers only set up, and
``setup_s`` is the median of the three set-ups.  With ``--trace 1`` one
worker gives the per-layer numbers.  Every job's outputs are checked.  The
last line of standard output is a JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the full record (environment,
input sizes and digests, every job time, failures, spans) is written under
``perfbench/.runs/``.  The workloads are in ``workloads.py``, the per-layer
metrics in ``tracing.py``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("evolve-spectral", "oracle-potential", "tree-scale", "certify", "certify-tree")
SETUPS = 3  # set-ups per --trace 0 run; setup_s is their median
BUDGET_S = 170.0  # a run must end within 180 s
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


class Runner:
    def __init__(self, args, root: Path):
        self.args = args
        self.root = root
        self.deadline = time.monotonic() + BUDGET_S
        self.out = HERE / ".runs"
        self.out.mkdir(exist_ok=True)
        self.stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
        self.env = dict(os.environ)
        threads = str(len(os.sched_getaffinity(0)))
        for key in BLAS_ENV:
            self.env.setdefault(key, threads)

    def worker(self, mode: str, index: int = 0, extra=()) -> dict:
        out = self.out / f"{self.stem}-{mode}{index}.json"
        out.unlink(missing_ok=True)
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
                "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
                "--mode", mode, "--scale", self.args.scale, "--out", str(out), *extra]
        if self.args.control:
            argv += ["--control", self.args.control]
        argv += ["--started", str(time.monotonic_ns())]
        remaining = self.deadline - time.monotonic()
        # worker output goes to stderr: the last stdout line is the result
        proc = subprocess.run(argv, cwd=self.root, env=self.env, stdout=sys.stderr,
                              timeout=max(remaining, 1.0))
        if proc.returncode != 0:
            raise RuntimeError(f"{mode} worker exited with code {proc.returncode}")
        return json.loads(out.read_text())

    def measure(self) -> dict:
        run = self.worker("measure")
        setups = [run["setup_s"]] + [self.worker("setup", i)["setup_s"] for i in range(1, SETUPS)]
        times = run["job_s"]
        attempted = len(times) + 1  # the warm-up job is checked too
        failed = len(run["failures"]) + len(run["warmup_failures"])
        record = {
            "workload": self.args.workload, "seed": self.args.seed, "jobs": len(times),
            "setup_s_samples": setups, "fail_frac": failed / attempted,
            "job_s_p90": percentile(times, 0.9) if len(times) >= 100 else None,
            "load": "closed loop, 1 client, 1 job in flight",
            "wait_time": "not measured: no layer has a queue, a lock or a second process",
            **run,
        }
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "job_s_p50": (statistics.median(times), "s"),
            "jobs_per_s": (len(times) / run["wall_s"], "1/s"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
        return self.finish(record, metrics, attempted, failed)

    def trace(self) -> dict:
        spans = self.out / f"{self.stem}-spans.csv"
        run = self.worker("trace", extra=["--spans", str(spans)])
        failed = len(run["failures"]) + len(run["warmup_failures"])
        metrics = {k: (v["value"], v["unit"]) for k, v in run["metrics"].items()}
        return self.finish(dict(run, spans_csv=str(spans)), metrics, run["attempted"], failed)

    def finish(self, record: dict, metrics: dict, attempted: int, failed: int) -> dict:
        path = self.out / f"{self.stem}.json"
        path.write_text(json.dumps(record, indent=1) + "\n")
        summary = {k: record[k] for k in ("jobs", "fail_frac", "job_s_p90", "absent") if k in record}
        print(f"# {self.args.workload}: {json.dumps(summary)}; record in {path}")
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    parser.add_argument("--control", choices=("nonzero-mean", "sign-bug"),
                        help="negative control: corrupt every job so that its checks fail")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "ultrawave" / "__init__.py").is_file():
        print(f"error: no ultrawave sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    runner = Runner(args, root)
    try:
        result = runner.trace() if args.trace else runner.measure()
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
