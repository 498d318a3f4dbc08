import csv
import json
import math

import numpy as np
import pytest

import ultrawave as uw
from ultrawave.cli import main


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.json"
    path.write_text(
        json.dumps({"preset": {"type": "padic", "p": 2, "depth": 2, "total_measure": 1.0}})
    )
    return path


@pytest.fixture
def kernel_file(tmp_path):
    path = tmp_path / "kernel.json"
    path.write_text(json.dumps({"r": 1.0, "r.0": 2.0, "r.1": 2.0}))
    return path


def _write_initial(tmp_path, values):
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    path = tmp_path / "initial.csv"
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["leaf_id", "re", "im"])
        for leaf, value in zip(tree.leaves, values):
            writer.writerow([leaf, repr(float(np.real(value))), repr(float(np.imag(value)))])
    return path


def _read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# -- validate -------------------------------------------------------------------


def test_validate_ok(tree_file, capsys):
    assert main(["validate", "--tree", str(tree_file)]) == 0
    assert "4 leaves" in capsys.readouterr().out


def test_validate_single_child_names_the_node(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "balls": [
                    {"id": "r", "parent": None, "diameter": 1.0},
                    {"id": "a", "parent": "r", "diameter": 0.5},
                    {"id": "b", "parent": "r", "diameter": 0.5, "measure": 1.0},
                    {"id": "a0", "parent": "a", "diameter": 0.25, "measure": 1.0},
                ]
            }
        )
    )
    assert main(["validate", "--tree", str(path)]) == 1
    out = capsys.readouterr().out
    assert "violation" in out and "'a'" in out


def test_validate_non_additive_measures(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(
        json.dumps(
            {
                "balls": [
                    {"id": "r", "parent": None, "diameter": 1.0, "measure": 5.0},
                    {"id": "a", "parent": "r", "diameter": 0.5, "measure": 1.0},
                    {"id": "b", "parent": "r", "diameter": 0.5, "measure": 1.0},
                ]
            }
        )
    )
    assert main(["validate", "--tree", str(path)]) == 1


def test_validate_missing_file_is_usage_error(tmp_path):
    assert main(["validate", "--tree", str(tmp_path / "absent.json")]) == 2


_LEAVES = [
    {"id": "a", "parent": "r", "diameter": 0.5, "measure": 1.0},
    {"id": "b", "parent": "r", "diameter": 0.5, "measure": 1.0},
]


@pytest.mark.parametrize(
    "doc, violation",
    [
        (
            [{"id": "r", "parent": None, "diameter": 1.0}],
            "specification must be an object, got list",
        ),
        ({"preset": {"type": "padic", "depth": 2}}, "padic preset needs a number 'p', got None"),
        (
            {"balls": [{"id": "r", "parent": None}, *_LEAVES]},
            "ball 'r' has no 'diameter'",
        ),
        (
            {"balls": [{"id": "r", "parent": None, "diameter": 1.0}, "a", *_LEAVES]},
            "balls entry 1 is not an object: 'a'",
        ),
        (
            {"balls": [{"id": "r", "parent": None, "diameter": 1.0}, *_LEAVES],
             "leaf_measures": [1.0, 1.0]},
            "'leaf_measures' must be an object, got list",
        ),
        (
            {"preset": {"type": "padic", "p": 1, "depth": 2}},
            "padic preset: p must be an integer >= 2, got 1",
        ),
        (
            {"preset": {"type": "padic", "p": 2, "depth": 0}},
            "padic preset: depth must be an integer >= 1, got 0",
        ),
        (
            {"preset": {"type": "padic", "p": "3", "depth": 2}},
            "padic preset needs a number 'p', got '3'",
        ),
        (
            {"preset": {"type": "padic", "p": 2, "depth": True}},
            "padic preset needs a number 'depth', got True",
        ),
        (
            {"preset": {"type": "padic", "p": 2.5, "depth": 2}},
            "padic preset needs an integer 'p', got 2.5",
        ),
        (
            '{"preset": {"type": "padic", "p": 2, "depth": 2, "total_measure": 1e999}}',
            "padic preset: total_measure must be positive and finite, got inf",
        ),
    ],
    ids=["array", "preset-without-p", "ball-without-diameter", "entry-not-object",
         "leaf-measures-list", "preset-p-1", "preset-depth-0", "preset-p-string",
         "preset-depth-true", "preset-p-float", "preset-measure-overflows"],
)
def test_malformed_tree_spec_is_a_named_violation(tmp_path, capsys, doc, violation):
    path = tmp_path / "bad.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    assert main(["validate", "--tree", str(path)]) == 1
    assert f"violation: {violation}" in capsys.readouterr().out
    rc = main(["spectrum", "--tree", str(path), "--alpha", "0.5", "--out", str(tmp_path)])
    assert rc == 1
    err = capsys.readouterr().err
    assert f"violation: {violation}" in err and "Traceback" not in err


# -- spectrum -------------------------------------------------------------------


def test_spectrum_fixture_rows(tree_file, kernel_file, tmp_path):
    out = tmp_path / "out"
    rc = main(
        ["spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file), "--out", str(out)]
    )
    assert rc == 0
    rows = _read_csv(out / "spectrum.csv")
    got = {r["ball_id"]: (int(r["p_I"]), float(r["lambda"])) for r in rows}
    assert got == {"r": (2, 1.0), "r.0": (2, 1.5), "r.1": (2, 1.5)}
    report = json.loads((out / "verify.json").read_text())
    assert report["passed"] is True


def test_spectrum_zero_kernel(tree_file, tmp_path):
    kernel = tmp_path / "zero.json"
    kernel.write_text(json.dumps({"r": 0.0, "r.0": 0.0, "r.1": 0.0}))
    out = tmp_path / "out"
    assert main(
        ["spectrum", "--tree", str(tree_file), "--kernel", str(kernel), "--out", str(out)]
    ) == 0
    assert all(float(r["lambda"]) == 0.0 for r in _read_csv(out / "spectrum.csv"))


def test_spectrum_alpha_preset(tree_file, tmp_path):
    out = tmp_path / "out"
    assert main(
        ["spectrum", "--tree", str(tree_file), "--alpha", "1.0", "--out", str(out)]
    ) == 0


def test_spectrum_requires_kernel_or_alpha(tree_file, tmp_path):
    assert main(["spectrum", "--tree", str(tree_file), "--out", str(tmp_path)]) == 2


def test_spectrum_expected_match_and_tamper(tree_file, kernel_file, tmp_path, capsys):
    out = tmp_path / "out"
    main(["spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file), "--out", str(out)])
    expected = out / "spectrum.csv"
    rc = main(
        [
            "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--out", str(tmp_path / "out2"), "--expected", str(expected),
        ]
    )
    assert rc == 0
    assert "matches expected" in capsys.readouterr().out

    tampered = tmp_path / "tampered.csv"
    tampered.write_text(expected.read_text().replace("1.5", "1.6"))
    rc = main(
        [
            "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--out", str(tmp_path / "out3"), "--expected", str(tampered),
        ]
    )
    assert rc == 1
    assert "mismatch" in capsys.readouterr().out


@pytest.mark.parametrize(
    "kernel, message",
    [
        ({"preset": "vladimirov"}, "the vladimirov preset needs a number 'alpha', got None"),
        ({"r": 1.0, "r.0": None, "r.1": 2.0}, "kernel value for ball 'r.0' is not a number: None"),
    ],
    ids=["preset-without-alpha", "null-value"],
)
def test_malformed_kernel_file_is_a_usage_error(tree_file, tmp_path, capsys, kernel, message):
    path = tmp_path / "bad-kernel.json"
    path.write_text(json.dumps(kernel))
    rc = main(["spectrum", "--tree", str(tree_file), "--kernel", str(path), "--out", str(tmp_path)])
    assert rc == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        ("ball_id,p_I\r\nr,2\r\nr.0,2\r\nr.1,2\r\n", "has no 'lambda' column"),
        ("id,p_I,lambda\r\nr,2,1.0\r\nr.0,2,1.5\r\nr.1,2,1.5\r\n", "has no 'ball_id' column"),
        ("ball_id,p_I,lambda\r\nr,2,1.0\r\nr.0,2\r\nr.1,2,1.5\r\n", "has a short row on line 3"),
        (
            "ball_id,p_I,lambda\r\nr,2,1.0\r\nr.0,2,1.5\r\nr.1,2,1.5\r\nr.0,2,1.5\r\n",
            "lists ball 'r.0' more than once",
        ),
        (
            "ball_id,p_I,lambda\r\nr,2,1.0\r\nr.0,2,abc\r\nr.1,2,1.5\r\n",
            "has a lambda that is not a number on line 3: 'abc'",
        ),
    ],
    ids=["no-lambda", "no-ball-id", "short-row", "repeated-ball", "lambda-not-a-number"],
)
def test_malformed_expected_spectrum_is_a_usage_error(
    tree_file, kernel_file, tmp_path, capsys, text, message
):
    expected = tmp_path / "expected.csv"
    expected.write_text(text)
    rc = main(
        [
            "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--out", str(tmp_path / "out"), "--expected", str(expected),
        ]
    )
    assert rc == 2
    assert f"{expected} {message}" in capsys.readouterr().err


def test_spectrum_nan_expected_values_are_a_mismatch(tree_file, kernel_file, tmp_path, capsys):
    expected = tmp_path / "nan.csv"
    expected.write_text("ball_id,p_I,lambda\r\nr,2,nan\r\nr.0,2,nan\r\nr.1,2,nan\r\n")
    rc = main(
        [
            "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--out", str(tmp_path / "out"), "--expected", str(expected),
        ]
    )
    assert rc == 1
    assert "mismatch" in capsys.readouterr().out


@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-10"])
def test_spectrum_rejects_a_non_finite_or_negative_tol(
    tree_file, kernel_file, tmp_path, capsys, tol
):
    expected = tmp_path / "wrong.csv"
    expected.write_text("ball_id,p_I,lambda\r\nr,2,123.0\r\nr.0,2,123.0\r\nr.1,2,123.0\r\n")
    rc = main(
        [
            "spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--out", str(tmp_path / "out"), "--expected", str(expected), f"--tol={tol}",
        ]
    )
    assert rc == 2
    assert "--tol must be finite and nonnegative" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_spectrum_deterministic_output(tree_file, kernel_file, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        main(
            ["spectrum", "--tree", str(tree_file), "--kernel", str(kernel_file), "--out", str(out)]
        )
    assert (out1 / "spectrum.csv").read_bytes() == (out2 / "spectrum.csv").read_bytes()
    assert (out1 / "verify.json").read_bytes() == (out2 / "verify.json").read_bytes()


# -- evolve ---------------------------------------------------------------------


def test_evolve_deterministic_output(tree_file, kernel_file, tmp_path):
    initial = _write_initial(tmp_path, [1.0, -1.0, 0.25j, -0.25j])
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        rc = main(
            [
                "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
                "--initial", str(initial), "--mode", "schrodinger",
                "--times=-1.5,0,0.3,2.0", "--out", str(out),
            ]
        )
        assert rc == 0
    for name in ("trajectory.csv", "summary.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_evolve_wavelet_norm_is_constant(tree_file, kernel_file, tmp_path):
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    wavelet = uw.build_basis(tree).wavelets[1]  # eigenvalue 1.5
    initial = _write_initial(tmp_path, wavelet.vector)
    out = tmp_path / "out"
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", "schrodinger",
            "--times", "0,0.5,1.5,4.0", "--out", str(out),
        ]
    )
    assert rc == 0
    rows = _read_csv(out / "summary.csv")
    assert len(rows) == 4
    for row in rows:
        assert abs(float(row["norm"]) - 1.0) <= 1e-10
        assert float(row["outside_mass"]) <= 1e-12
        assert row["support_ball"] == wavelet.ball


def test_evolve_heat_norm_decay(tree_file, kernel_file, tmp_path):
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    wavelet = uw.build_basis(tree).wavelets[1]
    initial = _write_initial(tmp_path, wavelet.vector)
    out = tmp_path / "out"
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", "heat", "--times", "1.0",
            "--out", str(out),
        ]
    )
    assert rc == 0
    (row,) = _read_csv(out / "summary.csv")
    assert float(row["norm"]) == pytest.approx(math.exp(-1.5), rel=1e-10)


def test_evolve_time_zero_reproduces_input(tree_file, kernel_file, tmp_path):
    values = np.array([0.3, -1.2, 0.9, 0.25])
    initial = _write_initial(tmp_path, values)
    out = tmp_path / "out"
    assert main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--times", "0", "--out", str(out),
        ]
    ) == 0
    rows = _read_csv(out / "trajectory.csv")
    got = np.array([float(r["re"]) + 1j * float(r["im"]) for r in rows])
    np.testing.assert_allclose(got, values, atol=1e-12)


def test_trajectory_round_trips_through_analyze(tree_file, kernel_file, tmp_path):
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    basis = uw.build_basis(tree)
    kernel = uw.make_kernel(tree, {"r": 1.0, "r.0": 2.0, "r.1": 2.0})
    values = np.array([0.5, -0.5, 1.0, 0.0])
    initial = _write_initial(tmp_path, values)
    out = tmp_path / "out"
    main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--times", "0,1.25", "--out", str(out),
        ]
    )
    by_time: dict[float, dict[str, complex]] = {}
    for row in _read_csv(out / "trajectory.csv"):
        by_time.setdefault(float(row["time"]), {})[row["leaf_id"]] = complex(
            float(row["re"]), float(row["im"])
        )
    packet = uw.WavePacket.from_leaf_values(basis, uw.spectrum(tree, kernel), values)
    for t, leaf_map in by_time.items():
        leaf_values = np.array([leaf_map[l] for l in tree.leaves])
        coeffs = basis.analyze(leaf_values)
        (expected,) = uw.evolve_schrodinger(packet, uw.EvolutionConfig(times=(t,)))
        assert np.max(np.abs(coeffs - expected.coefficients)) <= 1e-10


def test_evolve_potential_mode(tree_file, kernel_file, tmp_path):
    values = np.array([1.0, -1.0, 0.5, -0.5])
    initial = _write_initial(tmp_path, values)
    potential = tmp_path / "potential.csv"
    tree = uw.build_tree(uw.padic_preset(2, 2, 1.0))
    with open(potential, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["leaf_id", "re", "im"])
        for leaf, value in zip(tree.leaves, [0.5, -0.25, 1.0, 0.0]):
            writer.writerow([leaf, repr(value), "0.0"])
    out = tmp_path / "out"
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", "potential",
            "--potential", str(potential), "--times", "0.5,1.0", "--out", str(out),
        ]
    )
    assert rc == 0
    for row in _read_csv(out / "summary.csv"):
        assert abs(float(row["norm"]) - tree.norm(values)) <= 1e-8


def test_evolve_potential_mode_requires_potential(tree_file, kernel_file, tmp_path):
    initial = _write_initial(tmp_path, np.ones(4))
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", "potential", "--times", "1",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2


@pytest.mark.parametrize("mode", ["schrodinger", "potential"])
def test_evolve_rejects_non_finite_initial_values(tree_file, kernel_file, tmp_path, capsys, mode):
    initial = _write_initial(tmp_path, [1.0, float("nan"), 0.5, -0.5])
    potential = tmp_path / "potential.csv"
    potential.write_text(initial.read_text().replace("nan", "0.0"))
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", mode, "--potential", str(potential),
            "--times", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "leaf 'r.0.1' is not finite" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_evolve_names_the_file_that_misses_a_leaf(tree_file, kernel_file, tmp_path, capsys):
    initial = _write_initial(tmp_path, np.ones(4))
    potential = tmp_path / "potential.csv"
    potential.write_text("".join(initial.read_text().splitlines(keepends=True)[:-1]))
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", "potential", "--potential", str(potential),
            "--times", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert f"{potential} is missing leaves: ['r.1.1']" in capsys.readouterr().err


def test_evolve_rejects_non_finite_potential(tree_file, kernel_file, tmp_path, capsys):
    initial = _write_initial(tmp_path, np.ones(4))
    potential = tmp_path / "potential.csv"
    with open(potential, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["leaf_id", "re", "im"])
        for leaf, value in zip(["r.0.0", "r.0.1", "r.1.0", "r.1.1"], ["0", "0", "0", "inf"]):
            writer.writerow([leaf, value, "0"])
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", "potential", "--potential", str(potential),
            "--times", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2
    assert "leaf 'r.1.1' is not finite" in capsys.readouterr().err


def test_evolve_nan_support_threshold_is_usage_error(tree_file, kernel_file, tmp_path, capsys):
    initial = _write_initial(tmp_path, [1.0, -1.0, 0.0, 0.0])
    out = tmp_path / "out"
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--times", "0,1", "--tol", "nan", "--out", str(out),
        ]
    )
    assert rc == 2
    assert "support threshold must be nonnegative" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("tol", ["1", "inf"])
def test_evolve_support_threshold_of_one_or_more_is_usage_error(
    tree_file, kernel_file, tmp_path, capsys, tol
):
    # the packet has nonzero mean and leaks out of r.0; a threshold that
    # leaves no support ball would report its outside mass as 0
    initial = _write_initial(tmp_path, [1.0, 2.0, 0.0, 0.0])
    out = tmp_path / "out"
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--times", "0,1", "--tol", tol, "--out", str(out),
        ]
    )
    assert rc == 2
    assert "--tol must be in [0, 1)" in capsys.readouterr().err
    assert not (out / "summary.csv").exists()


@pytest.mark.parametrize("mode", ["schrodinger", "potential"])
def test_evolve_rejects_an_infinite_hbar(tree_file, kernel_file, tmp_path, capsys, mode):
    initial = _write_initial(tmp_path, [1.0, -1.0, 0.0, 0.0])
    (tmp_path / "u").mkdir()
    potential = _write_initial(tmp_path / "u", [0.5, -0.25, 1.0, 0.0])
    out = tmp_path / "out"
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--mode", mode, "--potential", str(potential),
            "--times", "0,1", "--hbar", "inf", "--out", str(out),
        ]
    )
    assert rc == 2
    assert "hbar must be positive and finite, got inf" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_bad_times_is_usage_error(tree_file, kernel_file, tmp_path):
    initial = _write_initial(tmp_path, np.ones(4))
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(initial), "--times", "1,zap",
            "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2


def test_evolve_dimension_mismatch_is_usage_error(tree_file, kernel_file, tmp_path):
    short = tmp_path / "short.csv"
    short.write_text("leaf_id,re,im\nr.0.0,1.0,0.0\n")
    rc = main(
        [
            "evolve", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--initial", str(short), "--times", "1", "--out", str(tmp_path / "out"),
        ]
    )
    assert rc == 2


# -- certify --------------------------------------------------------------------


def test_certify_small_run_passes(tmp_path, capsys):
    out = tmp_path / "out"
    rc = main(["certify", "--seed", "7", "--instances", "4", "--out", str(out)])
    assert rc == 0
    assert "ALL CHECKS PASSED" in capsys.readouterr().out
    report = json.loads((out / "certify.json").read_text())
    assert report["passed"] is True
    assert report["instances"] == 4


@pytest.mark.parametrize("inject", ["sign-bug", "tamper-spectrum"])
def test_certify_injections_fail(inject, capsys):
    rc = main(["certify", "--seed", "7", "--instances", "2", "--inject", inject])
    assert rc == 1
    assert "FAIL" in capsys.readouterr().out


def test_certify_zero_instances(capsys):
    assert main(["certify", "--instances", "0"]) == 0
    assert "no instances" in capsys.readouterr().out


def test_certify_negative_instances_is_usage_error(capsys):
    assert main(["certify", "--instances", "-3"]) == 2
    captured = capsys.readouterr()
    assert "instances must be >= 0" in captured.err
    assert "no instances" not in captured.out


def test_certify_with_pinned_tree_and_kernel(tree_file, kernel_file):
    rc = main(
        [
            "certify", "--tree", str(tree_file), "--kernel", str(kernel_file),
            "--seed", "3", "--instances", "2",
        ]
    )
    assert rc == 0


def test_certify_builds_a_pinned_tree_once_and_binds_the_kernel_to_it(
    tree_file, kernel_file, monkeypatch
):
    built, bound = [], []
    build, spectrum = uw.ball_tree.build_tree, uw.certify.spectrum

    def counting_build(spec):
        built.append(build(spec))
        return built[-1]

    def checking_spectrum(tree, kernel):
        bound.append(kernel.values.tree is tree is built[0])
        return spectrum(tree, kernel)

    monkeypatch.setattr(uw.cli, "build_tree", counting_build)
    monkeypatch.setattr(uw.certify, "spectrum", checking_spectrum)
    argv = ["certify", "--tree", str(tree_file), "--kernel", str(kernel_file), "--instances", "2"]
    assert main(argv) == 0
    assert len(built) == 1 and bound == [True, True]


def test_certify_kernel_without_tree_is_usage_error(kernel_file):
    assert main(["certify", "--kernel", str(kernel_file), "--instances", "1"]) == 2


def test_certify_reports_are_deterministic(tmp_path):
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        main(["certify", "--seed", "5", "--instances", "3", "--out", str(out)])
        outs.append((out / "certify.json").read_bytes())
    assert outs[0] == outs[1]
