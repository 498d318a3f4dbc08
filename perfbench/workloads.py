"""The benchmark workloads: inputs, one job, and its output checks.

A workload's ``setup`` writes its seeded inputs into a work directory.
``run(j)`` is the timed part of job ``j``: it calls the program (the CLI
through ``ultrawave.cli.main``, or the library directly) and returns what
the checks need.  ``check(j, result)`` is untimed and returns a list of
failed-check messages, empty when the job's outputs are correct.

``control`` selects a negative control that must make every job fail its
checks: a packet that is not mean zero for ``evolve-spectral``, and
``certify --inject sign-bug`` for ``certify``.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
from pathlib import Path

import numpy as np

import inputs
from ultrawave import ball_tree, cli, evolution, pdo

SCALES = ("full", "tiny")


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``ultrawave <argv>`` in-process; return exit code and stdout."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() + err.getvalue()


def _rows(path: Path) -> list[dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


class Workload:
    name = ""
    why = ""
    controls: tuple[str, ...] = ()

    def __init__(self, workdir: Path, seed: int, scale: str = "full", control: str | None = None):
        if scale not in SCALES:
            raise ValueError(f"unknown scale {scale!r}")
        if control is not None and control not in self.controls:
            raise ValueError(f"workload {self.name} has no control {control!r}")
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.seed = seed
        self.scale = scale
        self.control = control
        self.rng = np.random.default_rng([seed, sum(map(ord, self.name))])
        self.inputs: list[Path] = []
        self.sizes: dict[str, int] = {}
        self.csv_bytes_per_job = 0

    def path(self, name: str) -> Path:
        return self.workdir / name

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, j: int):
        raise NotImplementedError

    def check(self, j: int, result) -> list[str]:
        raise NotImplementedError

    def describe(self) -> dict:
        """Input sizes and digests, for the results record."""
        return {
            "sizes": dict(self.sizes, input_bytes=_bytes(self.inputs),
                          csv_bytes_per_job=self.csv_bytes_per_job),
            "inputs_sha256": {p.name: inputs.sha256(p) for p in self.inputs},
        }

    def _tree_sizes(self, tree: inputs.Tree) -> None:
        self.sizes.update(
            leaves=len(tree.leaves), balls=len(tree.ids), internal_balls=len(tree.internal)
        )


class EvolveSpectral(Workload):
    """``ultrawave evolve`` in Schrodinger and heat mode on a dense basis."""

    name = "evolve-spectral"
    why = ("CLI spectral evolution (schrodinger then heat, 16 times) of a mean-zero packet "
           "on a 2048-leaf irregular tree: dense basis synthesize and CSV output dominate")
    controls = ("nonzero-mean",)
    packets = 4

    def setup(self) -> None:
        n, self.n_times = (2048, 16) if self.scale == "full" else (64, 4)
        self.tree = inputs.irregular_tree(self.rng, n)
        self._tree_sizes(self.tree)
        tree_path = self.path("tree.json")
        inputs.write_tree_spec(tree_path, self.tree)
        self.inputs = [tree_path]
        eigs = self.tree.eigenvalues()
        self.norm0, self.packet_paths, self.times = [], [], []
        for k, ball in enumerate(inputs.pick_balls(self.rng, self.tree, self.packets, n // 32, n // 4)):
            values = inputs.planted_packet(self.rng, self.tree, ball, self.control is None)
            path = self.path(f"packet{k}.csv")
            inputs.write_leaf_csv(path, self.tree, values)
            self.packet_paths.append(path)
            self.norm0.append(inputs.leaf_norm(self.tree, values))
            # eigenvalues grow with depth, so by the last time the slowest mode
            # inside the ball has decayed by exp(-3) and the norm stays far
            # above rounding noise
            self.times.append(inputs.sample_times(self.n_times, 3.0 / eigs[self.tree.ids[ball]]))
        self.inputs += self.packet_paths
        self.total = float(self.tree.leaf_measures().sum())

    def run(self, j: int):
        k = j % len(self.packet_paths)
        codes = {}
        for mode in ("schrodinger", "heat"):
            codes[mode], _ = _cli([
                "evolve", "--tree", str(self.path("tree.json")), "--alpha", str(inputs.ALPHA),
                "--initial", str(self.packet_paths[k]), "--mode", mode, "--times", self.times[k],
                "--out", str(self.path(mode)),
            ])
        return codes

    def check(self, j: int, codes) -> list[str]:
        problems = [f"{mode} exit code {c}" for mode, c in codes.items() if c != 0]
        if problems:
            return problems
        norm0 = self.norm0[j % len(self.norm0)]
        mean_tol = 1e-10 * max(1.0, math.sqrt(self.total) * norm0)
        files = []
        for mode in ("schrodinger", "heat"):
            files += [self.path(mode) / "summary.csv", self.path(mode) / "trajectory.csv"]
            rows = _rows(self.path(mode) / "summary.csv")
            if len(rows) != self.n_times:
                problems.append(f"{mode}: {len(rows)} summary rows, want {self.n_times}")
                continue
            norms = [float(r["norm"]) for r in rows]
            if mode == "schrodinger":
                drift = max(abs(x - norm0) for x in norms) / norm0
                if drift > 1e-10:
                    problems.append(f"schrodinger norm drift {drift:.3e}")
            else:
                if abs(norms[0] - norm0) > 1e-10 * norm0:
                    problems.append(f"heat initial norm {norms[0]!r} != {norm0!r}")
                # certify's heat_monotone_decay tolerance
                if any(b > a * (1 + 1e-12) for a, b in zip(norms, norms[1:])):
                    problems.append("heat norm increased")
            outside = max(float(r["outside_mass"]) for r in rows)
            if outside > 1e-10 * norm0:
                problems.append(f"{mode} outside mass {outside:.3e}")
            drift = max(abs(complex(float(r["mean_re"]), float(r["mean_im"]))) for r in rows)
            if drift > mean_tol:
                problems.append(f"{mode} mean {drift:.3e}")
        self.csv_bytes_per_job = _bytes(files)
        return problems


class OraclePotential(Workload):
    """``ultrawave spectrum`` with the dense oracle, then potential evolution."""

    name = "oracle-potential"
    why = ("CLI spectrum --alpha 0.5 verified densely, then evolve --mode potential with 4 "
           "times, on the 2^11-leaf p=2 preset: dense operator, eigvalsh and eigh dominate")

    def setup(self) -> None:
        depth = 11 if self.scale == "full" else 4
        self.tree = inputs.padic_tree(2, depth)
        self._tree_sizes(self.tree)
        tree_path = self.path("tree.json")
        tree_path.write_text(json.dumps({"preset": {"type": "padic", "p": 2, "depth": depth}}))
        expected_path = self.path("expected.csv")
        inputs.write_expected_spectrum(expected_path, self.tree, self.tree.eigenvalues())
        n = len(self.tree.leaves)
        values = self.rng.standard_normal(n) + 1j * self.rng.standard_normal(n)
        packet_path, potential_path = self.path("packet.csv"), self.path("potential.csv")
        inputs.write_leaf_csv(packet_path, self.tree, values)
        inputs.write_leaf_csv(potential_path, self.tree, self.rng.uniform(-5.0, 5.0, n) + 0j)
        self.norm0 = inputs.leaf_norm(self.tree, values)
        self.inputs = [tree_path, expected_path, packet_path, potential_path]

    def run(self, j: int):
        tree = str(self.path("tree.json"))
        alpha = str(inputs.ALPHA)
        spec_code, spec_out = _cli([
            "spectrum", "--tree", tree, "--alpha", alpha,
            "--expected", str(self.path("expected.csv")), "--out", str(self.path("spectrum")),
        ])
        pot_code, _ = _cli([
            "evolve", "--tree", tree, "--alpha", alpha, "--initial", str(self.path("packet.csv")),
            "--mode", "potential", "--potential", str(self.path("potential.csv")),
            "--times", "0.0,0.5,1.0,2.0", "--out", str(self.path("potential")),
        ])
        return spec_code, spec_out, pot_code

    def check(self, j: int, result) -> list[str]:
        spec_code, spec_out, pot_code = result
        problems = []
        if spec_code != 0:
            problems.append(f"spectrum exit code {spec_code}")
        elif "spectrum matches expected file" not in spec_out:
            problems.append("spectrum does not match the closed-form sum")
        else:
            verify = json.loads((self.path("spectrum") / "verify.json").read_text())
            if verify.get("passed") is not True:
                problems.append("verify.json did not pass")
        if pot_code != 0:
            problems.append(f"potential evolve exit code {pot_code}")
        else:
            norms = [float(r["norm"]) for r in _rows(self.path("potential") / "summary.csv")]
            drift = max(abs(x - self.norm0) for x in norms) / self.norm0
            if len(norms) != 4 or drift > 1e-8:
                problems.append(f"potential norm drift {drift:.3e} over {len(norms)} times")
        self.csv_bytes_per_job = _bytes(
            [self.path("spectrum") / "spectrum.csv"]
            + [self.path("potential") / f for f in ("summary.csv", "trajectory.csv")]
        )
        return problems


class TreeScale(Workload):
    """Library calls on a 2^16-leaf tree: build, spectrum, supports, distances."""

    name = "tree-scale"
    why = ("library calls on a 2^16-leaf irregular tree (load, build, kernel, spectrum, "
           "read values, ball_support, distance): Python loops in ball_tree dominate")
    planted = 8

    def setup(self) -> None:
        n, queries = (1 << 16, 2000) if self.scale == "full" else (128, 50)
        self.tree = inputs.irregular_tree(self.rng, n)
        self._tree_sizes(self.tree)
        tree_path = self.path("tree.json")
        inputs.write_tree_spec(tree_path, self.tree)
        balls = inputs.pick_balls(self.rng, self.tree, self.planted, n // 64, n // 8)
        self.planted_ids = [self.tree.ids[b] for b in balls]
        packets = np.array([inputs.planted_packet(self.rng, self.tree, b) for b in balls])
        packets_path, values_path = self.path("packets.npy"), self.path("values.csv")
        np.save(packets_path, packets)
        inputs.write_leaf_csv(values_path, self.tree, packets[0])
        self.pairs, self.expected_distance = inputs.leaf_distance_queries(self.rng, self.tree, queries)
        pairs_path = self.path("pairs.json")
        pairs_path.write_text(json.dumps(self.pairs))
        self.expected_spectrum = self.tree.eigenvalues()
        self.inputs = [tree_path, packets_path, values_path, pairs_path]
        self.packets = np.load(packets_path)

    def run(self, j: int):
        tree = ball_tree.build_tree(ball_tree.load_tree_spec(self.path("tree.json")))
        spec = pdo.spectrum(tree, pdo.vladimirov_kernel(tree, inputs.ALPHA))
        values = evolution.read_leaf_values(self.path("values.csv"), tree)
        supports = [tree.ball_support(p) for p in self.packets]
        distances = [tree.distance(a, b) for a, b in self.pairs]
        return spec.eigenvalues, values, supports, distances

    def check(self, j: int, result) -> list[str]:
        eigs, values, supports, distances = result
        problems = []
        bad = [b for b, lam in self.expected_spectrum.items()
               if not inputs.isclose_rel(eigs.get(b, math.nan), lam, 1e-10)]
        if bad or len(eigs) != len(self.expected_spectrum):
            problems.append(f"spectrum mismatch at {len(bad)} balls, e.g. {bad[:3]!r}")
        if supports != self.planted_ids:
            problems.append(f"ball_support returned {supports!r}, planted {self.planted_ids!r}")
        if not np.array_equal(values, self.packets[0]):
            problems.append("read_leaf_values did not return the written values")
        if distances != self.expected_distance:
            problems.append("distance mismatch")
        return problems


class Certify(Workload):
    """``ultrawave certify --instances 50`` with a fresh seed per job."""

    name = "certify"
    why = ("CLI certify --instances 50 with a new seed per job: every layer on many trees of "
           "at most 200 leaves, so fixed per-call costs dominate")
    controls = ("sign-bug",)
    max_jobs = 4096
    # instances per job, and leaves of a pinned generated tree (None: fuzzed trees)
    scales = {"full": (50, None), "tiny": (2, None)}

    def setup(self) -> None:
        self.instances, leaves = self.scales[self.scale]
        self.job_seeds = [int(s) for s in self.rng.integers(0, 2**31, self.max_jobs)]
        seeds_path = self.path("job_seeds.txt")
        seeds_path.write_text("\n".join(map(str, self.job_seeds)) + "\n")
        self.inputs = [seeds_path]
        self.argv = ["certify", "--instances", str(self.instances)]
        self.sizes.update(instances_per_job=self.instances)
        if leaves is None:
            self.sizes.update(max_leaves_per_tree=200)
        else:
            tree = inputs.irregular_tree(self.rng, leaves)
            self._tree_sizes(tree)
            tree_path = self.path("tree.json")
            inputs.write_tree_spec(tree_path, tree)
            self.inputs.append(tree_path)
            self.argv += ["--tree", str(tree_path)]
        if self.control is not None:
            self.argv += ["--inject", self.control]

    def run(self, j: int):
        return _cli(self.argv + ["--seed", str(self.job_seeds[j % self.max_jobs])])

    def check(self, j: int, result) -> list[str]:
        code, out = result
        if code != 0:
            return [f"certify exit code {code}"]
        if "ALL CHECKS PASSED" not in out:
            return ["certify did not report ALL CHECKS PASSED"]
        return []


class CertifyTree(Certify):
    """``ultrawave certify --tree`` on one seeded 2048-leaf tree, fresh kernels per job."""

    name = "certify-tree"
    why = ("CLI certify --tree on a seeded 2048-leaf irregular tree, one instance with new "
           "kernels per job: every layer including the certify suites; dense checks dominate")
    scales = {"full": (1, 2048), "tiny": (2, 48)}


WORKLOADS = {w.name: w for w in (EvolveSpectral, OraclePotential, TreeScale, Certify, CertifyTree)}
