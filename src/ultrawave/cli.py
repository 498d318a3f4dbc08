"""Command-line front end.

Subcommands: ``validate`` a tree specification, compute and verify a
``spectrum``, ``evolve`` an initial condition, and ``certify`` the full
randomized property suite.  All numeric artifacts are CSV; verification
reports are JSON.  Exit codes: 0 all checks passed, 1 a validation or
verification check failed, 2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .ball_tree import BallTree, InvalidTreeError, build_tree, load_tree_spec
from .certify import INJECTIONS, run_certification
from .evolution import (
    EvolutionConfig,
    WavePacket,
    evolve_heat,
    evolve_schrodinger,
    evolve_with_potential,
    read_leaf_values,
    write_summary,
    write_trajectory,
)
from .pdo import (
    SupKernel,
    load_kernel,
    read_spectrum,
    spectrum,
    verify_spectrum,
    vladimirov_kernel,
    write_spectrum,
)
from .wavelet import build_basis


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InvalidTreeError as exc:
        for violation in exc.violations:
            print(f"violation: {violation}", file=sys.stderr)
        return 1
    except (OSError, json.JSONDecodeError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def cmd_validate(args) -> int:
    try:
        tree = build_tree(load_tree_spec(args.tree))
    except InvalidTreeError as exc:
        for violation in exc.violations:
            print(f"violation: {violation}")
        return 1
    print(
        f"ok: {len(tree)} balls, {tree.n_leaves} leaves, depth {tree.depth}, "
        f"total measure {tree.total_measure!r}"
    )
    return 0


def cmd_spectrum(args) -> int:
    if not 0 <= args.tol < math.inf:
        raise ValueError(f"--tol must be finite and nonnegative, got {args.tol}")
    tree = build_tree(load_tree_spec(args.tree))
    kernel = _kernel_for(args, tree)
    spec = spectrum(tree, kernel)
    basis = build_basis(tree)
    report = verify_spectrum(tree, kernel, basis, spec)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_spectrum(out / "spectrum.csv", tree, spec)
    (out / "verify.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    print(f"wrote {out / 'spectrum.csv'} and {out / 'verify.json'}")
    print(
        f"eigenrelation residual {report.max_residual:.3e}, "
        f"multiset deviation {report.multiset_max_diff:.3e}"
    )

    status = 0 if report.passed else 1
    if args.expected is not None:
        expected = read_spectrum(args.expected)
        want = np.array([expected.get(b, math.nan) for b in tree.internal], dtype=float)
        have = spec.for_tree(tree)
        close = np.abs(want - have) <= args.tol * np.maximum(1.0, np.abs(have))
        mismatches = [tree.internal[i] for i in np.flatnonzero(~close)[:5].tolist()]
        if mismatches:
            print(f"spectrum mismatch against {args.expected}: {mismatches!r}")
            status = 1
        else:
            print("spectrum matches expected file")
    if not report.passed:
        print("verification FAILED")
    return status


def cmd_evolve(args) -> int:
    # a threshold of max|value| or more leaves no support ball, and the
    # outside mass would then read 0 whatever the state does
    if not 0 <= args.tol < 1:
        raise ValueError(
            f"--tol must be in [0, 1): the support threshold must be nonnegative "
            f"and below the largest value, got {args.tol}"
        )
    tree = build_tree(load_tree_spec(args.tree))
    kernel = _kernel_for(args, tree)
    values = read_leaf_values(args.initial, tree)
    times = _parse_times(args.times)
    config = EvolutionConfig(times=times, hbar=args.hbar)

    if args.mode == "potential":
        if args.potential is None:
            print("error: --mode potential requires --potential", file=sys.stderr)
            return 2
        potential = read_leaf_values(args.potential, tree)
        if any(potential.imag != 0):
            print("error: potential must be real-valued", file=sys.stderr)
            return 2
        states = evolve_with_potential(values, potential.real, tree, kernel, config)
    else:
        basis = build_basis(tree)
        packet = WavePacket.from_leaf_values(basis, spectrum(tree, kernel), values)
        if args.mode == "heat":
            evolved = evolve_heat(packet, times)
        else:
            evolved = evolve_schrodinger(packet, config)
        states = [s.leaf_values() for s in evolved]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    # by preorder number: an id would need the id lookup table (about 1 s at 2**21 balls)
    reference = tree._support_ball(values, args.tol * float(abs(values).max(initial=0.0)))
    write_trajectory(out / "trajectory.csv", tree, times, states)
    write_summary(out / "summary.csv", tree, times, states, reference)
    print(f"wrote {out / 'trajectory.csv'} and {out / 'summary.csv'}")
    return 0


def cmd_certify(args) -> int:
    tree = build_tree(load_tree_spec(args.tree)) if args.tree else None
    kernel: SupKernel | None = None
    if args.kernel:
        if tree is None:
            print("error: --kernel requires --tree", file=sys.stderr)
            return 2
        kernel = load_kernel(args.kernel, tree)
    report = run_certification(
        seed=args.seed,
        instances=args.instances,
        tree=tree,
        kernel=kernel,
        inject=args.inject,
    )
    for line in report.lines():
        print(line)
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "certify.json").write_text(json.dumps(report.to_dict(), indent=2) + "\n")
    return 0 if report.passed else 1


def _kernel_for(args, tree: BallTree) -> SupKernel:
    if args.kernel is not None:
        return load_kernel(args.kernel, tree)
    if args.alpha is not None:
        return vladimirov_kernel(tree, args.alpha)
    raise ValueError("supply a kernel file with --kernel or a preset with --alpha")


def _parse_times(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(","))
    except ValueError:
        raise ValueError(f"--times must be a comma-separated list of numbers, got {text!r}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultrawave",
        description="Wavelet analysis and wave-packet evolution on measured ball trees.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a tree specification against all invariants")
    p.add_argument("--tree", required=True, help="tree specification JSON")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("spectrum", help="compute eigenvalues and verify them densely")
    p.add_argument("--tree", required=True)
    p.add_argument("--kernel", help="kernel JSON (ball id -> value, or a preset object)")
    p.add_argument("--alpha", type=float, help="use the diameter-power kernel preset")
    p.add_argument("--expected", help="compare against a previously written spectrum CSV")
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_spectrum)

    p = sub.add_parser("evolve", help="evolve an initial condition and export CSV")
    p.add_argument("--tree", required=True)
    p.add_argument("--kernel")
    p.add_argument("--alpha", type=float)
    p.add_argument("--initial", required=True, help="CSV with columns leaf_id, re, im")
    p.add_argument(
        "--mode", choices=["schrodinger", "heat", "potential"], default="schrodinger"
    )
    p.add_argument("--times", required=True, help="comma-separated sample times")
    p.add_argument("--hbar", type=float, default=1.0)
    p.add_argument("--potential", help="real potential CSV (columns leaf_id, re, im)")
    p.add_argument(
        "--tol", type=float, default=1e-12,
        help="support detection threshold, relative to max|value|, in [0, 1)",
    )
    p.add_argument("--out", default=".")
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("certify", help="run the randomized property suites")
    p.add_argument("--tree", help="pin the tree instead of fuzzing it")
    p.add_argument("--kernel", help="pin the kernel (requires --tree)")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--instances", type=int, default=100)
    p.add_argument("--inject", choices=INJECTIONS, help="negative control corruption")
    p.add_argument("--out", help="also write certify.json here")
    p.set_defaults(func=cmd_certify)

    return parser


if __name__ == "__main__":
    raise SystemExit(main())
