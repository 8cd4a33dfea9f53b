"""CLI contract: schema validation, exit codes, CSV output, determinism."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import wofz

from calculus import frequencies
from fraccauchy import SchemaError
from fraccauchy.cli import build_parser, main, parse_problem, write_csv
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


def read_csv(path):
    """Round-trip reader of `write_csv` tables: (t, states) arrays."""
    lines = Path(path).read_text(encoding="utf-8").strip().split("\n")
    ncols = len(lines[0].split(","))
    dim = (ncols - 1) // 2
    data = np.array([[float(c) for c in line.split(",")] for line in lines[1:]])
    t = data[:, 0]
    states = data[:, 1::2] + 1j * data[:, 2::2]
    return t, states.reshape(len(t), dim)


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
    xi = frequencies(prob.operator)
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


def test_csv_cells_match_numpy_scalar_formatting(tmp_path):
    # the table is written from Python floats; every cell must read as the
    # f-string of the numpy scalar, signed zeros, infinities, nan, subnormal
    # and extreme magnitudes included, also from states not in C order
    from fraccauchy import SolutionPath, TimeGrid

    rng = np.random.default_rng(4)
    grid = TimeGrid(3.0, 40)
    states = rng.normal(size=(41, 5)) * 10.0 ** rng.integers(-300, 300, size=(41, 5))
    states = states + 1j * rng.normal(size=(41, 5))
    tiny, big = np.finfo(float).smallest_subnormal, np.finfo(float).max
    special = [-0.0, np.inf, -np.inf, np.nan, tiny, -np.finfo(float).tiny, big]
    states[0] = special[:5]
    states[1] = [complex(a, b) for a, b in zip(special[2:], special)]
    out = tmp_path / "cells.csv"
    write_csv(out, SolutionPath(grid, np.asfortranarray(states)))
    lines = ["t," + ",".join(f"re_u_{j},im_u_{j}" for j in range(5))]
    for i in range(grid.n + 1):
        cells = [f"{grid.nodes[i]:.17g}"]
        for j in range(5):
            v = states[i, j]
            cells += [f"{v.real:.17g}", f"{v.imag:.17g}"]
        lines.append(",".join(cells))
    assert out.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b"-0," in out.read_bytes() and b"-inf" in out.read_bytes()


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


def _solve_exits_2_at(tmp_path, capsys, doc, pointer):
    path = write_doc(tmp_path, doc)
    out = tmp_path / "u.csv"
    assert main(["solve", "--problem", str(path), "--method", "oracle", "--out", str(out)]) == 2
    assert f"input error: {pointer}: " in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf"), 10**400])
@pytest.mark.parametrize(
    "keys",
    [
        ("initial", 0, 0),
        ("initial", 0, 0, 1),  # the imaginary part of an [re, im] pair
        ("operator", "data", "matrix", 0, 0),
        ("measure", "mu"),
        ("grid", "t_end"),
    ],
)
def test_non_finite_number_exits_2(tmp_path, capsys, keys, value):
    # json.loads takes NaN, Infinity and integers past the float range
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["initial"] = [[[1.0, 0.0]]]
    parent = doc
    for key in keys[:-1]:
        parent = parent[key]
    parent[keys[-1]] = value
    _solve_exits_2_at(tmp_path, capsys, doc, "/" + "/".join(map(str, keys)))


@pytest.mark.parametrize(
    "data, pointer",
    [
        ({"modes": 1}, "modes"),
        ({"modes": 0}, "modes"),
        ({"length": 0}, "length"),
        ({"length": -1.0}, "length"),
        # 1/z has a pole at the zero frequency
        ({"symbol": {"kind": "rational", "numerator": [1], "denominator": [0, 1]}}, "symbol"),
        ({"symbol": {"kind": "rational", "numerator": [1], "denominator": [0]}}, "symbol"),
        ({"symbol": {"kind": "exponential", "rate": 400.0}}, "symbol"),
    ],
)
def test_bad_fourier_operator_exits_2(tmp_path, capsys, data, pointer):
    doc = json.loads(json.dumps(RELAX_DOC))
    fourier = {"modes": 8, "symbol": {"kind": "polynomial", "coefficients": [1, 0, 1]}}
    doc["operator"] = {"type": "fourier", "data": {**fourier, **data}}
    doc["initial"] = [[0.0] * 8]
    _solve_exits_2_at(tmp_path, capsys, doc, f"/operator/data/{pointer}")


def test_numeric_error_exits_3(tmp_path):
    doc = json.loads(json.dumps(RELAX_DOC))
    # duhamel needs zero data, so this trips a solver precondition
    path = write_doc(tmp_path, doc)
    assert main(["solve", "--problem", str(path), "--method", "duhamel", "--out", str(tmp_path / "y.csv")]) == 3


def test_kernel_overflow_exits_3(tmp_path, capsys):
    # E_{1/2}(30 t^(1/2)) overflows: a typed error, not a CSV of NaN
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["operator"]["data"]["matrix"] = [[-30.0]]
    doc["grid"] = {"t_end": 1.0, "n": 16}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "z.csv"
    assert main(["solve", "--problem", str(path), "--method", "repr", "--out", str(out)]) == 3
    assert "not finite" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("lam", [-30.0, -60.0, -200.0])
def test_oracle_growth_spectrum_exits_3(tmp_path, capsys, lam, n):
    # the solution overflows on [0, 1]: a typed error, not a finite CSV
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["operator"]["data"]["matrix"] = [[lam]]
    doc["grid"] = {"t_end": 1.0, "n": n}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "g.csv"
    assert main(["solve", "--problem", str(path), "--method", "oracle", "--out", str(out)]) == 3
    assert "numeric error: " in capsys.readouterr().err
    assert not out.exists()


def test_eigenvalue_outside_symbol_domain_exits_3(tmp_path, capsys):
    # the square root is cut on (-inf, 0], where the eigenvalue -1 lies
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["operator"]["data"]["matrix"] = [[-1.0, 0.0], [0.0, 2.0]]
    doc["measure"]["atoms"][0]["symbol"] = {"kind": "power", "exponent": 0.5}
    doc["initial"] = [[1.0, 1.0]]
    doc["grid"] = {"t_end": 1.0, "n": 16}
    path = write_doc(tmp_path, doc)
    for method in ("repr", "oracle"):
        out = tmp_path / f"{method}.csv"
        assert main(["solve", "--problem", str(path), "--method", method, "--out", str(out)]) == 3
        assert "eigenvalue (-1+0j) lies outside the domain" in capsys.readouterr().err
        assert not out.exists()
    # with zero data and no forcing the Duhamel routes check the spectrum too
    doc["initial"] = [[0.0, 0.0]]
    path = write_doc(tmp_path, doc, "unforced.json")
    for method in ("duhamel", "duhamel-zero"):
        out = tmp_path / f"{method}.csv"
        assert main(["solve", "--problem", str(path), "--method", method, "--out", str(out)]) == 3
        assert "eigenvalue (-1+0j) lies outside the domain" in capsys.readouterr().err
        assert not out.exists()


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


@pytest.mark.parametrize(
    "option, value, pointer",
    [
        ("--tol", "nan", "/tol"),
        ("--tol", "inf", "/tol"),
        ("--tol", "-1", "/tol"),
        ("--skip-initial", "257", "/skip_initial"),  # the grid has nodes 0..256
        ("--skip-initial", "-1", "/skip_initial"),
    ],
)
def test_compare_bad_gate_exits_2_before_solving(tmp_path, capsys, option, value, pointer):
    prob = write_doc(tmp_path, RELAX_DOC)
    out = tmp_path / "out"
    args = ["compare", "--problem", str(prob), "--methods", "repr,oracle", "--tol", "1"]
    assert main(args + ["--out-dir", str(out), option, value]) == 2
    assert f"input error: {pointer}: " in capsys.readouterr().err
    assert not out.exists()


def test_unwritable_output_exits_2(tmp_path, capsys):
    prob = write_doc(tmp_path, RELAX_DOC)
    out = tmp_path / "missing" / "u.csv"
    assert main(["solve", "--problem", str(prob), "--method", "repr", "--out", str(out)]) == 2
    assert "input error: /: cannot write result file: " in capsys.readouterr().err
    blocker = tmp_path / "file"
    blocker.write_text("")
    args = ["compare", "--problem", str(prob), "--methods", "repr,oracle", "--tol", "1"]
    assert main(args + ["--out-dir", str(blocker / "out")]) == 2
    assert "input error: /out_dir: cannot create output directory: " in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "argv, name",
    [
        (["kernel", "--mu", "0.5", "--atoms", "0:1", "--beta", "-0.5", "--t", "1",
          "--z", "-30"], "c_beta(t, z)"),
        (["ml", "--alpha", "0.5", "--beta", "1", "--z", "1000"], "E_{alpha,beta}(z)"),
    ],
    ids=["kernel", "ml"],
)
def test_overflowing_value_exits_3(capsys, argv, name):
    # E_{1/2}(30) and E_{1/2}(1000) overflow: a typed error, not "nan"
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert f"numeric error: {name} is not finite" in err


@pytest.mark.parametrize(
    "t, z, code, text",
    [
        ("1e200", "1", 3, "numeric error: c_beta(t, z) is not finite: the value overflows"),
        ("1", "1e160", 0, "0"),
    ],
    ids=["t-1e200", "z-1e160"],
)
def test_contour_overflow_far_outside_the_tested_range_warns_nothing(capsys, t, z, code, text):
    # the powers of n/t or |Delta|^2 overflow on the Talbot contour: the
    # command prints what it prints with warnings ignored (RuntimeWarnings
    # are errors under pytest)
    argv = ["kernel", "--mu", "1.8", "--atoms", "0:0.7,0.7:0.4", "--beta", "0"]
    assert main(argv + ["--t", t, "--z", z]) == code
    out, err = capsys.readouterr()
    assert (out if code == 0 else err).strip() == text


def test_contour_solve_at_huge_times_warns_nothing(tmp_path):
    # |Delta|^2 and the monitor's floor overflow at t = 1e170: S_0 reads 0
    doc = json.loads(json.dumps(RELAX_DOC))
    doc["measure"] = {
        "mu": 1.8,
        "atoms": [
            {"alpha": 0.0, "weight": 0.7, "symbol": {"kind": "identity"}},
            {"alpha": 0.7, "weight": 0.4, "symbol": {"kind": "identity"}},
        ],
    }
    doc["initial"] = [[1.0], [0.0]]
    doc["grid"] = {"t_end": 2e170, "n": 2}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "huge.csv"
    assert main(["solve", "--problem", str(path), "--method", "repr", "--out", str(out)]) == 0
    t, states = read_csv(out)
    assert np.array_equal(states, [[1.0], [0.0], [0.0]])


def test_ml_bad_argument_exits_2():
    assert main(["ml", "--alpha", "1", "--beta", "1", "--z", "nope"]) == 2


ML_ARGS = {"--alpha": "0.5", "--beta": "1", "--z": "1"}
KERNEL_ARGS = {"--mu": "0.5", "--atoms": "0:1", "--beta": "-0.5", "--t": "1", "--z": "1"}


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize(
    "command, defaults, option, text",
    [
        ("ml", ML_ARGS, "--alpha", "{}"),
        ("ml", ML_ARGS, "--beta", "{}"),
        ("ml", ML_ARGS, "--z", "{}"),
        ("ml", ML_ARGS, "--z", "1,{}"),
        ("kernel", KERNEL_ARGS, "--mu", "{}"),
        ("kernel", KERNEL_ARGS, "--beta", "{}"),
        ("kernel", KERNEL_ARGS, "--t", "{}"),
        ("kernel", KERNEL_ARGS, "--z", "{}"),
        ("kernel", KERNEL_ARGS, "--atoms", "0:{}"),
    ],
)
def test_non_finite_argument_exits_2(capsys, command, defaults, option, text, value):
    args = {**defaults, option: text.format(value)}
    argv = [command] + [f"{k}={v}" for k, v in args.items()]
    assert main(argv) == 2
    assert f"input error: /{option[2:]}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, defaults, args, option",
    [
        ("kernel", KERNEL_ARGS, {"--mu": "0"}, "mu"),
        ("kernel", KERNEL_ARGS, {"--t": "0"}, "t"),
        ("kernel", KERNEL_ARGS, {"--atoms": "0:-1"}, "atoms"),
        ("kernel", KERNEL_ARGS, {"--beta": "0.7", "--mu": "0.5"}, "beta"),
        ("ml", ML_ARGS, {"--alpha": "0"}, "alpha"),
    ],
    ids=["kernel-mu", "kernel-t", "kernel-atoms", "kernel-beta", "ml-alpha"],
)
def test_out_of_range_argument_exits_2(capsys, command, defaults, args, option):
    argv = [command] + [f"{k}={v}" for k, v in {**defaults, **args}.items()]
    assert main(argv) == 2
    assert f"input error: /{option}" in capsys.readouterr().err


# every route on every problem file in a fresh interpreter where scipy
# cannot be imported, then every module of the package and every name it
# exports; prints the runs made and the scipy modules loaded.  A route may
# refuse a problem it is not made for (flavor or precondition), but any
# other error on a shipped problem fails the run
COLD_START = """
import importlib
import pkgutil
import sys
sys.modules["scipy"] = None
from pathlib import Path
import fraccauchy
from fraccauchy import cli
from fraccauchy.errors import FlavorError, PreconditionError
from fraccauchy.solver import ROUTES
runs = 0
for path in sorted(Path(sys.argv[1]).glob("*.json")):
    problem = cli.parse_problem(path)
    for route in ROUTES.values():
        try:
            route(problem)
        except (FlavorError, PreconditionError):
            pass
        runs += 1
for info in pkgutil.iter_modules(fraccauchy.__path__):
    importlib.import_module(f"fraccauchy.{info.name}")
for name in fraccauchy.__all__:
    getattr(fraccauchy, name)
print(runs, sorted(m for m, v in sys.modules.items() if m.startswith("scipy") and v))
"""


def test_every_route_solves_without_scipy():
    root = Path(__file__).resolve().parent.parent
    problems = sorted((root / "problems").glob("*.json"))
    path = os.pathsep.join(filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", COLD_START, str(root / "problems")],
        capture_output=True, text=True, timeout=300, env={**os.environ, "PYTHONPATH": path},
    )
    assert done.returncode == 0, done.stderr
    assert done.stdout.split() == [str(len(problems) * len(ROUTES)), "[]"]


def test_runtime_dependencies_are_numpy_alone():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    root = Path(__file__).resolve().parent.parent
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", d).group() for d in project["dependencies"]]
    assert names == ["numpy"]
