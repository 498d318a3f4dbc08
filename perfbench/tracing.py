"""Traced runs: timing wrappers around ultrawave's public functions.

The wrappers are installed from outside the package.  A function is
replaced in every ``ultrawave.*`` namespace that holds it (``cli``,
``evolution`` and ``certify`` import functions by name), a method on its
class.  Spans (name, start, end, parent span, job id) stay in memory and are
written out when the run ends; a span's self time is its duration minus the
time its child spans cover.  Peak allocation comes from a separate pass under
``tracemalloc``, which would distort the timings.

``LAYER_METRICS`` is the list of per-layer metrics the traced run reports,
each with the end-to-end metrics and workloads it is expected to move.  A
metric whose function no longer exists is reported as absent.
"""

from __future__ import annotations

import csv
import functools
import importlib
import sys
import tracemalloc
import weakref
from collections import defaultdict
from time import perf_counter

STATS = {
    "self_s": ("s", "lower"),
    "calls": ("count", "lower"),
    "peak_alloc_mb": ("MB", "lower"),
    "trees_per_call": ("ratio", "higher"),
    "overhead_s": ("s", "lower"),
    "top_level_share": ("ratio", "higher"),
}

_SUITES = ("random_tree", "orthonormality_checks", "eigenrelation_checks", "unitarity_checks",
           "heat_checks", "localization_checks", "spacetime_checks")

# (metric names, what they should move as "<end-to-end metric>@<workload>")
_GROUPS = [
    ("ball_tree.load_tree_spec.self_s ball_tree.build_tree.self_s ball_tree.build_tree.calls "
     "ball_tree.build_tree.peak_alloc_mb ball_tree.BallTree.ball_support.self_s "
     "ball_tree.BallTree.distance.self_s",
     "job_s_p50@tree-scale peak_rss_mb@tree-scale job_s_p50@certify"),
    ("wavelet.build_basis.self_s wavelet.build_basis.calls wavelet.build_basis.peak_alloc_mb "
     "wavelet.WaveletBasis.analyze.self_s wavelet.WaveletBasis.analyze.peak_alloc_mb "
     "wavelet.WaveletBasis.synthesize.self_s wavelet.WaveletBasis.synthesize.calls "
     "wavelet.WaveletBasis.synthesize.peak_alloc_mb wavelet.WaveletBasis.gram.self_s",
     "job_s_p50@evolve-spectral peak_rss_mb@evolve-spectral job_s_p50@certify "
     "job_s_p50@certify-tree"),
    ("wavelet.build_basis.trees_per_call", "job_s_p50@certify job_s_p50@certify-tree"),
    ("pdo.spectrum.self_s pdo.vladimirov_kernel.self_s", "job_s_p50@tree-scale"),
    ("pdo.dense_operator.self_s pdo.dense_operator.peak_alloc_mb pdo.verify_spectrum.self_s "
     "pdo.write_spectrum.self_s",
     "job_s_p50@oracle-potential job_s_p50@certify job_s_p50@certify-tree"),
    ("evolution.evolve_schrodinger.self_s evolution.evolve_heat.self_s "
     "evolution.write_trajectory.self_s evolution.write_summary.self_s",
     "job_s_p50@evolve-spectral"),
    ("evolution.read_leaf_values.self_s", "job_s_p50@evolve-spectral job_s_p50@tree-scale"),
    ("evolution.evolve_with_potential.self_s evolution.evolve_with_potential.peak_alloc_mb "
     "evolution.DensePropagator.__init__.self_s evolution.DensePropagator.__init__.calls",
     "job_s_p50@oracle-potential peak_rss_mb@oracle-potential"),
    ("evolution.check_localization.self_s evolution.spacetime_product_check.self_s "
     "pdo.eigenvalue.calls " + " ".join(f"certify.{s}.self_s" for s in _SUITES),
     "job_s_p50@certify job_s_p50@certify-tree"),
    ("cli.main.self_s", "job_s_p50@evolve-spectral job_s_p50@oracle-potential job_s_p50@certify "
     "job_s_p50@certify-tree"),
    ("trace.overhead_s trace.top_level_share", "none: checks on the tracing itself"),
]

LAYER_METRICS = [
    {"name": name, "unit": STATS[name.rsplit(".", 1)[1]][0],
     "better": STATS[name.rsplit(".", 1)[1]][1], "moves": moves.split(" ")}
    for names, moves in _GROUPS
    for name in names.split()
]

#: Wrapped functions, "<module>.<qualname>", in the order they are installed.
TARGETS = tuple(dict.fromkeys(
    m["name"].rsplit(".", 1)[0] for m in LAYER_METRICS if not m["name"].startswith("trace.")
))


def _resolve(target: str):
    """Return (owner, attribute, original) or None when the target is gone."""
    module, *path = target.split(".")
    try:
        owner = importlib.import_module(f"ultrawave.{module}")
    except ImportError:
        return None
    for attr in path[:-1]:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    original = getattr(owner, path[-1], None)
    if original is None:
        return None
    return owner, path[-1], original


class Tracer:
    """Installs wrappers for one pass: ``"spans"`` for time, ``"alloc"`` for memory."""

    def __init__(self, mode: str):
        if mode not in ("spans", "alloc"):
            raise ValueError(f"unknown trace mode {mode!r}")
        self.mode = mode
        self.job = -1
        self.spans: list[tuple | None] = []  # span id = index: (name, parent, job, start, end)
        self.peak_alloc: dict[str, float] = defaultdict(float)  # bytes, max over calls
        self.absent: list[str] = []
        self.distinct_trees = 0
        self._trees = weakref.WeakSet()
        self._stack: list = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.absent.append(target)
                continue
            owner, attr, original = found
            wrapper = self._wrap(target, original)
            if isinstance(owner, type):
                self._patch(owner, attr, wrapper)
                continue
            for name, module in list(sys.modules.items()):
                if name == "ultrawave" or name.startswith("ultrawave."):
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._patch(module, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name: str, original):
        if self.mode == "alloc":
            @functools.wraps(original)
            def measured(*args, **kwargs):
                return self._alloc_call(name, original, args, kwargs)

            return measured
        count_trees = name == "wavelet.build_basis"

        @functools.wraps(original)
        def timed(*args, **kwargs):
            if count_trees:
                tree = args[0] if args else kwargs["tree"]
                if tree not in self._trees:
                    self._trees.add(tree)
                    self.distinct_trees += 1
            sid = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(sid)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[sid] = (name, parent, self.job, start, end)

        return timed

    def _alloc_call(self, name: str, original, args, kwargs):
        # reset_peak is global, so hand the peak seen so far to the caller's
        # frame before resetting, and the callee's peak back on return
        current, peak = tracemalloc.get_traced_memory()
        if self._stack:
            self._stack[-1][1] = max(self._stack[-1][1], peak)
        tracemalloc.reset_peak()
        frame = [current, current]
        self._stack.append(frame)
        try:
            return original(*args, **kwargs)
        finally:
            _, peak = tracemalloc.get_traced_memory()
            self._stack.pop()
            top = max(frame[1], peak)
            self.peak_alloc[name] = max(self.peak_alloc[name], top - frame[0])
            if self._stack:
                self._stack[-1][1] = max(self._stack[-1][1], top)

    # -- results -------------------------------------------------------------

    def summary(self, job_times: dict[int, float]) -> dict[str, float]:
        """Per-job self time and calls, build_basis tree ratio, top-level share."""
        child = defaultdict(float)
        for span in self.spans:
            name, parent, job, start, end = span
            if parent >= 0:
                child[parent] += end - start
        self_s: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        top_level = 0.0
        for sid, (name, parent, job, start, end) in enumerate(self.spans):
            self_s[name] += end - start - child[sid]
            calls[name] += 1
            if parent < 0 and job in job_times:
                top_level += end - start
        jobs = max(len(job_times), 1)
        out = {f"{n}.self_s": s / jobs for n, s in self_s.items()}
        out.update({f"{n}.calls": c / jobs for n, c in calls.items()})
        basis_calls = calls.get("wavelet.build_basis", 0)
        if basis_calls:
            out["wavelet.build_basis.trees_per_call"] = self.distinct_trees / basis_calls
        out["trace.top_level_share"] = top_level / max(sum(job_times.values()), 1e-300)
        return out

    def alloc_summary(self) -> dict[str, float]:
        return {f"{n}.peak_alloc_mb": b / 2**20 for n, b in self.peak_alloc.items()}

    def write_spans(self, path) -> None:
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh)
            writer.writerow(["span_id", "name", "parent", "job", "start_s", "end_s"])
            for sid, (name, parent, job, start, end) in enumerate(self.spans):
                writer.writerow([sid, name, parent, job, repr(start), repr(end)])


def layer_metrics(measured: dict[str, float], absent_targets: list[str]) -> tuple[dict, list]:
    """Every listed per-layer metric: measured, 0 when never called, or absent."""
    metrics, absent = {}, []
    for m in LAYER_METRICS:
        name = m["name"]
        if name.rsplit(".", 1)[0] in absent_targets:
            absent.append(name)
        metrics[name] = {"value": float(measured.get(name, 0.0)), "unit": m["unit"]}
    return metrics, absent
