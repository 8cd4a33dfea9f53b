"""CLI contract: schema validation, exit codes, CSV output, determinism."""

import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import wofz

from fraccauchy import SchemaError
from fraccauchy.cli import build_parser, main, parse_problem, read_csv, write_csv
from fraccauchy.solver import ROUTES

RELAX_DOC = {
    "operator": {"type": "matrix", "data": {"matrix": [[1.0]]}},
    "measure": {
        "mu": 0.5,
        "atoms": [{"alpha": 0.0, "weight": 1.0, "symbol": {"kind": "identity"}}],
    },
    "flavor": "caputo",
    "initial": [[1.0]],
    "forcing": None,
    "grid": {"t_end": 2.0, "n": 256},
}


def write_doc(tmp_path, doc, name="problem.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return path


def test_parse_minimal_relaxation(tmp_path):
    path = write_doc(tmp_path, RELAX_DOC)
    prob = parse_problem(path)
    assert prob.dim == 1
    assert prob.measure.mu == 0.5
    assert len(prob.measure.atoms) == 1
    assert prob.grid.n == 256


def test_parse_rejects_atom_above_support(tmp_path):
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["measure"] = {
        "mu": 1.5,
        "atoms": [{"alpha": 1.7, "weight": 1.0, "symbol": {"kind": "identity"}}],
    }
    doc["initial"] = [[0.0], [0.0]]
    path = write_doc(tmp_path, doc)
    with pytest.raises(SchemaError, match=r"/measure/atoms/0/alpha"):
        parse_problem(path)


def test_parse_rejects_unknown_keys(tmp_path):
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["surprise"] = 1
    path = write_doc(tmp_path, doc)
    with pytest.raises(SchemaError, match="/surprise"):
        parse_problem(path)


def test_parse_fourier_operator(tmp_path):
    doc = {
        "operator": {
            "type": "fourier",
            "data": {"modes": 64, "length": 2 * np.pi, "symbol": {"kind": "polynomial", "coefficients": [0, 0, 1]}},
        },
        "measure": {
            "mu": 0.5,
            "atoms": [{"alpha": 0.0, "weight": 1.0, "symbol": {"kind": "identity"}}],
        },
        "flavor": "caputo",
        "initial": [[0.0] * 64],
        "forcing": None,
        "grid": {"t_end": 1.0, "n": 64},
    }
    path = write_doc(tmp_path, doc)
    prob = parse_problem(path)
    assert prob.operator.modes == 64
    xi = prob.operator.frequencies
    assert np.allclose(prob.operator.symbol_values, xi**2)


def test_parse_complex_pairs(tmp_path):
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["initial"] = [[[1.0, -0.5]]]
    path = write_doc(tmp_path, doc)
    prob = parse_problem(path)
    assert prob.initial[0][0] == 1.0 - 0.5j


def test_csv_round_trip(tmp_path):
    from fraccauchy import SolutionPath, TimeGrid

    rng = np.random.default_rng(1)
    grid = TimeGrid(1.0, 16)
    states = rng.normal(size=(17, 3)) + 1j * rng.normal(size=(17, 3))
    sol = SolutionPath(grid, states)
    out = tmp_path / "x.csv"
    write_csv(out, sol)
    t, back = read_csv(out)
    assert np.allclose(t, grid.nodes, rtol=0, atol=0)
    assert np.array_equal(back, states)
    header = out.read_text().splitlines()[0]
    assert header == "t," + ",".join(f"re_u_{j},im_u_{j}" for j in range(3))
    assert len(out.read_text().strip().split("\n")) == 18


@given(
    values=st.lists(
        st.floats(min_value=-1e12, max_value=1e12, allow_nan=False).map(float),
        min_size=10,
        max_size=10,
    )
)
def test_csv_round_trip_is_lossless(values, tmp_path_factory):
    from fraccauchy import SolutionPath, TimeGrid

    grid = TimeGrid(1.0, 4)
    states = np.array(values, dtype=float).reshape(5, 2) * (1.0 + 0.5j)
    sol = SolutionPath(grid, states)
    out = tmp_path_factory.mktemp("csv") / "r.csv"
    write_csv(out, sol)
    _, back = read_csv(out)
    assert np.array_equal(back, states)


def test_solve_writes_csv(tmp_path):
    prob = write_doc(tmp_path, RELAX_DOC)
    out = tmp_path / "sol.csv"
    code = main(["solve", "--problem", str(prob), "--method", "repr", "--out", str(out)])
    assert code == 0
    t, states = read_csv(out)
    assert len(t) == 257
    assert abs(states[0, 0] - 1.0) == 0.0


def test_solve_is_deterministic(tmp_path):
    prob = write_doc(tmp_path, RELAX_DOC)
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    assert main(["solve", "--problem", str(prob), "--method", "oracle", "--out", str(out1)]) == 0
    assert main(["solve", "--problem", str(prob), "--method", "oracle", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_solve_unknown_method_exits_2(tmp_path, capsys):
    prob = write_doc(tmp_path, RELAX_DOC)
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--problem", str(prob), "--method", "bogus", "--out", "x.csv"])
    assert exc.value.code == 2
    assert "usage" in capsys.readouterr().err


def test_solve_method_choices_are_the_route_table():
    solve = build_parser()._subparsers._group_actions[0].choices["solve"]
    (method,) = [a for a in solve._actions if a.dest == "method"]
    assert list(method.choices) == list(ROUTES)


def test_compare_unknown_method_exits_2(tmp_path, capsys):
    prob = write_doc(tmp_path, RELAX_DOC)
    args = ["compare", "--problem", str(prob), "--methods", "repr,bogus", "--tol", "1"]
    assert main(args + ["--out-dir", str(tmp_path / "out")]) == 2
    assert "unknown method 'bogus'" in capsys.readouterr().err


def test_malformed_problem_exits_2(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["solve", "--problem", str(bad), "--method", "repr", "--out", "x.csv"]) == 2
    worse = write_doc(tmp_path, {"bogus": 1}, "worse.json")
    assert main(["solve", "--problem", str(worse), "--method", "repr", "--out", "x.csv"]) == 2


def test_numeric_error_exits_3(tmp_path):
    doc = json.loads(json.dumps(RELAX_DOC))
    # duhamel needs zero data, so this trips a solver precondition
    path = write_doc(tmp_path, doc)
    assert main(["solve", "--problem", str(path), "--method", "duhamel", "--out", str(tmp_path / "y.csv")]) == 3


def test_compare_gates_on_tolerance(tmp_path):
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["initial"] = [[0.0]]
    doc["forcing"] = {"profile": {"kind": "constant", "value": 1.0}, "direction": [1.0]}
    doc["grid"] = {"t_end": 2.0, "n": 512}
    prob = write_doc(tmp_path, doc, "bench2.json")
    args = [
        "compare",
        "--problem",
        str(prob),
        "--methods",
        "duhamel,oracle",
        "--out-dir",
        str(tmp_path / "out"),
    ]
    assert main(args + ["--tol", "1e-2"]) == 0
    assert main(args + ["--tol", "1e-9"]) == 1
    assert (tmp_path / "out" / "bench2__duhamel.csv").exists()
    assert (tmp_path / "out" / "bench2__oracle.csv").exists()


def test_ml_subcommand(capsys):
    assert main(["ml", "--alpha", "1", "--beta", "1", "--z", "1"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - np.e) < 1e-12
    assert main(["ml", "--alpha", "0.5", "--beta", "1", "--z", "-1"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.4275835761558070) < 1e-10


def test_ml_subcommand_on_stokes_ray(capsys):
    # z = 4.5i lies on |arg z| = alpha pi for alpha = 1/2; E = wofz(4.5)
    assert main(["ml", "--alpha", "0.5", "--beta", "1", "--z", "0,4.5"]) == 0
    out = capsys.readouterr().out.strip()
    assert abs(complex(out) - wofz(4.5)) < 1e-12


def test_kernel_subcommand(capsys):
    assert main(
        ["kernel", "--mu", "0.5", "--atoms", "0:1", "--beta", "-0.5", "--t", "1", "--z", "1"]
    ) == 0
    out = capsys.readouterr().out.strip()
    assert abs(float(out) - 0.4275835761558070) < 1e-10


def test_ml_bad_argument_exits_2():
    assert main(["ml", "--alpha", "1", "--beta", "1", "--z", "nope"]) == 2
