"""The benchmark's own tests, at tiny sizes.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import run
import tracing
import worker
import workloads
from ultrawave import ball_tree, cli, pdo

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = [m["name"] for m in SPEC["end_to_end"]]


def bench(*args, cwd=ROOT):
    proc = subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)
    return proc


def result_line(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_matches_the_code():
    assert list(workloads.WORKLOADS) == list(run.WORKLOADS)
    assert {w["name"] for w in SPEC["workloads"]} <= set(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert w["why"] == workloads.WORKLOADS[w["name"]].why
        assert len(w["why"]) <= 200 and "\n" not in w["why"]
    assert SPEC["per_layer"] == [
        {k: m[k] for k in ("name", "unit", "better")} for m in tracing.LAYER_METRICS
    ]
    assert END_TO_END == ["setup_s", "job_s_p50", "jobs_per_s", "peak_rss_mb"]


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_smoke_every_metric_at_tiny_size(name):
    plain = result_line(bench("--workload", name, "--seed", "5", "--seconds", "0.3",
                              "--trace", "0", "--scale", "tiny"))
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 3
    assert list(plain["metrics"]) == END_TO_END
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = result_line(bench("--workload", name, "--seed", "5", "--seconds", "0.3",
                               "--trace", "1", "--scale", "tiny"))
    assert traced["correct"]
    assert list(traced["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    record = json.loads((BENCH / ".runs" / f"{name}-seed5-trace1.json").read_text())
    assert record["absent"] == []
    # the top-level spans cover the traced jobs, less the loop's own overhead
    assert 0.8 < traced["metrics"]["trace.top_level_share"]["value"] <= 1.0


@pytest.mark.parametrize("name,control", [("evolve-spectral", "nonzero-mean"),
                                          ("certify", "sign-bug")])
def test_negative_control_counts_in_fail_frac(name, control):
    proc = bench("--workload", name, "--seed", "5", "--seconds", "0.2", "--trace", "0",
                 "--scale", "tiny", "--control", control)
    out = result_line(proc)
    assert not out["correct"]
    assert out["failed"] > 0
    summary = json.loads(proc.stdout.splitlines()[-2].split(": ", 1)[1].rsplit("; record", 1)[0])
    assert summary["fail_frac"] > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_same_seed_same_input_digests(name, tmp_path):
    def digests(seed, sub):
        w = workloads.WORKLOADS[name](tmp_path / sub, seed, "tiny")
        w.setup()
        return w.describe()["inputs_sha256"]

    first = digests(3, "a")
    assert first and first == digests(3, "b")
    assert first != digests(4, "c")


def test_self_time_adds_up_to_top_level_time():
    tracer = tracing.Tracer("spans")
    tracer.install()
    try:
        tracer.job = 0
        assert cli.main(["certify", "--instances", "2", "--seed", "1"]) == 0
    finally:
        tracer.uninstall()
    assert cli.main.__module__ == "ultrawave.cli" and not hasattr(cli.main, "__wrapped__")
    names = {s[0] for s in tracer.spans}
    assert {"cli.main", "certify.random_tree", "wavelet.build_basis", "pdo.eigenvalue"} <= names
    summary = tracer.summary({0: 1.0})
    self_total = sum(v for k, v in summary.items() if k.endswith(".self_s"))
    top = sum(end - start for _, parent, _, start, end in tracer.spans if parent < 0)
    assert self_total == pytest.approx(top, rel=1e-9)
    assert summary["wavelet.build_basis.calls"] == 6  # 3 per instance
    assert summary["wavelet.build_basis.trees_per_call"] == 1.0


def test_alloc_pass_sees_the_dense_operator():
    tree = ball_tree.build_tree(ball_tree.padic_preset(2, 6))
    tracer = tracing.Tracer("alloc")
    tracemalloc.start()
    tracer.install()
    try:
        pdo.dense_operator(tree, pdo.vladimirov_kernel(tree, 0.5))
    finally:
        tracer.uninstall()
        tracemalloc.stop()
    # the pair-kernel matrix and the weighted copy are both live at the peak
    n = tree.n_leaves
    assert tracer.alloc_summary()["pdo.dense_operator.peak_alloc_mb"] >= 2 * n * n * 8 / 2**20


def test_missing_function_is_reported_absent(monkeypatch):
    monkeypatch.delattr(pdo, "eigenvalue")
    tracer = tracing.Tracer("spans")
    tracer.install()
    tracer.uninstall()
    assert tracer.absent == ["pdo.eigenvalue"]
    metrics, absent = tracing.layer_metrics({}, tracer.absent)
    assert absent == ["pdo.eigenvalue.calls"]
    assert set(metrics) == {m["name"] for m in tracing.LAYER_METRICS}


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = bench("--workload", "certify", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_closed_loop_counts_raising_jobs():
    class Broken:
        def run(self, j):
            raise RuntimeError("boom")

    loop = worker.closed_loop(Broken(), 0.0, 0, 3)
    assert len(loop["times"]) == 3 and len(loop["failures"]) == 3
