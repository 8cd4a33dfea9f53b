"""Command-line interface: problem files in, CSV paths out.

Problem files are JSON documents validated fail-closed (unknown keys are
rejected, errors carry a JSON-pointer path).  Complex scalars are written
as [re, im] pairs; plain numbers are taken as real.  Every number must be
finite: JSON's NaN and Infinity are rejected.

Exit codes: 0 success, 1 comparison above tolerance, 2 invalid input,
3 numeric/solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .errors import BlowupError, FracCauchyError, SchemaError
from .grids import ScalarPath, TimeGrid
from .kernels import Atom, OrderMeasure, c_beta
from .ml import mittag_leffler
from .operators import FourierMultiplier, MatrixOperator
from .problems import (
    CAPUTO,
    RIEMANN_LIOUVILLE,
    CauchyProblem,
    Forcing,
    SolutionPath,
    compare,
)
from .profiles import (
    Constant,
    Cosine,
    Exponential,
    Polynomial,
    Power,
    Sampled,
    Sine,
)
from .solver import ROUTES
from .symbols import (
    ExponentialSymbol,
    PolynomialSymbol,
    PowerSymbol,
    RationalSymbol,
    identity_symbol,
)


# ---------------------------------------------------------------------------
# schema helpers


def _fail(pointer: str, message: str):
    raise SchemaError(pointer or "/", message)


def _expect_mapping(obj, pointer: str, required: tuple, optional: tuple = ()):
    if not isinstance(obj, dict):
        _fail(pointer, f"expected an object, got {type(obj).__name__}")
    allowed = set(required) | set(optional)
    for key in obj:
        if key not in allowed:
            _fail(f"{pointer}/{key}", "unknown key")
    for key in required:
        if key not in obj:
            _fail(pointer, f"missing required key {key!r}")


def _real(obj, pointer: str) -> float:
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        _fail(pointer, f"expected a real number, got {obj!r}")
    if not abs(obj) <= sys.float_info.max:  # NaN, +-inf, or an int past float range
        _fail(pointer, f"expected a finite number, got {obj!r}")
    return float(obj)


def _complex(obj, pointer: str) -> complex:
    if isinstance(obj, (int, float)) and not isinstance(obj, bool):
        return complex(_real(obj, pointer))
    if isinstance(obj, list) and len(obj) == 2:
        return complex(_real(obj[0], f"{pointer}/0"), _real(obj[1], f"{pointer}/1"))
    _fail(pointer, f"expected a number or [re, im] pair, got {obj!r}")


def _complex_list(obj, pointer: str) -> list:
    if not isinstance(obj, list):
        _fail(pointer, "expected a list")
    return [_complex(v, f"{pointer}/{i}") for i, v in enumerate(obj)]


def _int(obj, pointer: str) -> int:
    if isinstance(obj, bool) or not isinstance(obj, int):
        _fail(pointer, f"expected an integer, got {obj!r}")
    return int(obj)


# ---------------------------------------------------------------------------
# pieces


def _parse_symbol(obj, pointer: str):
    _expect_mapping(
        obj,
        pointer,
        ("kind",),
        ("coefficients", "exponent", "scale", "rate", "numerator", "denominator", "value"),
    )
    kind = obj["kind"]
    if kind == "polynomial":
        _expect_mapping(obj, pointer, ("kind", "coefficients"))
        return PolynomialSymbol(_complex_list(obj["coefficients"], f"{pointer}/coefficients"))
    if kind == "identity":
        _expect_mapping(obj, pointer, ("kind",))
        return identity_symbol()
    if kind == "constant":
        _expect_mapping(obj, pointer, ("kind", "value"))
        return PolynomialSymbol([_complex(obj["value"], f"{pointer}/value")])
    if kind == "power":
        _expect_mapping(obj, pointer, ("kind", "exponent"), ("scale",))
        return PowerSymbol(
            _real(obj["exponent"], f"{pointer}/exponent"),
            _complex(obj.get("scale", 1.0), f"{pointer}/scale"),
        )
    if kind == "exponential":
        _expect_mapping(obj, pointer, ("kind", "rate"), ("scale",))
        return ExponentialSymbol(
            _complex(obj["rate"], f"{pointer}/rate"),
            _complex(obj.get("scale", 1.0), f"{pointer}/scale"),
        )
    if kind == "rational":
        _expect_mapping(obj, pointer, ("kind", "numerator", "denominator"))
        den = _complex_list(obj["denominator"], f"{pointer}/denominator")
        if not any(den):
            _fail(pointer, "denominator must be nonzero")
        return RationalSymbol(_complex_list(obj["numerator"], f"{pointer}/numerator"), den)
    _fail(f"{pointer}/kind", f"unknown symbol kind {kind!r}")


def _parse_profile(obj, pointer: str, grid: TimeGrid):
    _expect_mapping(
        obj,
        pointer,
        ("kind",),
        ("value", "exponent", "scale", "coefficients", "rate", "frequency", "values"),
    )
    kind = obj["kind"]
    if kind == "constant":
        _expect_mapping(obj, pointer, ("kind", "value"))
        return Constant(_complex(obj["value"], f"{pointer}/value"))
    if kind == "power":
        _expect_mapping(obj, pointer, ("kind", "exponent"), ("scale",))
        return Power(
            _real(obj["exponent"], f"{pointer}/exponent"),
            _complex(obj.get("scale", 1.0), f"{pointer}/scale"),
        )
    if kind == "polynomial":
        _expect_mapping(obj, pointer, ("kind", "coefficients"))
        return Polynomial(_complex_list(obj["coefficients"], f"{pointer}/coefficients"))
    if kind == "exponential":
        _expect_mapping(obj, pointer, ("kind", "rate"), ("scale",))
        return Exponential(
            _complex(obj["rate"], f"{pointer}/rate"),
            _complex(obj.get("scale", 1.0), f"{pointer}/scale"),
        )
    if kind in ("sine", "cosine"):
        _expect_mapping(obj, pointer, ("kind", "frequency"), ("scale",))
        cls = Sine if kind == "sine" else Cosine
        return cls(
            _complex(obj["frequency"], f"{pointer}/frequency"),
            _complex(obj.get("scale", 1.0), f"{pointer}/scale"),
        )
    if kind == "sampled":
        _expect_mapping(obj, pointer, ("kind", "values"))
        vals = _complex_list(obj["values"], f"{pointer}/values")
        if len(vals) != grid.n + 1:
            _fail(f"{pointer}/values", f"need {grid.n + 1} samples, got {len(vals)}")
        return Sampled(ScalarPath(grid, np.asarray(vals)))
    _fail(f"{pointer}/kind", f"unknown profile kind {kind!r}")


def _parse_operator(obj, pointer: str):
    _expect_mapping(obj, pointer, ("type", "data"))
    kind = obj["type"]
    data = obj["data"]
    if kind == "matrix":
        _expect_mapping(data, f"{pointer}/data", ("matrix",))
        rows = data["matrix"]
        if not isinstance(rows, list) or not rows:
            _fail(f"{pointer}/data/matrix", "expected a non-empty list of rows")
        mat = [
            _complex_list(row, f"{pointer}/data/matrix/{i}")
            for i, row in enumerate(rows)
        ]
        d = len(mat)
        if any(len(r) != d for r in mat):
            _fail(f"{pointer}/data/matrix", "matrix must be square")
        return MatrixOperator(np.asarray(mat, dtype=complex))
    if kind == "fourier":
        _expect_mapping(data, f"{pointer}/data", ("modes", "symbol"), ("length",))
        modes = _int(data["modes"], f"{pointer}/data/modes")
        if modes < 2:
            _fail(f"{pointer}/data/modes", f"need at least two modes, got {modes}")
        length = _real(data.get("length", 2 * np.pi), f"{pointer}/data/length")
        if length <= 0:
            _fail(f"{pointer}/data/length", f"length must be positive, got {length!r}")
        sym = _parse_symbol(data["symbol"], f"{pointer}/data/symbol")
        xi = FourierMultiplier.frequencies_static(modes, length)
        with np.errstate(all="ignore"):  # a pole or overflow is caught below
            vals = np.asarray(sym.eval(xi), dtype=complex)
        bad = np.flatnonzero(~np.isfinite(vals))
        if bad.size:
            _fail(
                f"{pointer}/data/symbol",
                f"symbol is not finite at frequency {xi[bad[0]]:.17g}",
            )
        return FourierMultiplier(modes, length, vals)
    _fail(f"{pointer}/type", f"unknown operator type {kind!r}")


def _parse_measure(obj, pointer: str) -> OrderMeasure:
    _expect_mapping(obj, pointer, ("mu", "atoms"), ("leading_symbol",))
    mu = _real(obj["mu"], f"{pointer}/mu")
    if mu <= 0:
        _fail(f"{pointer}/mu", "leading order must be positive")
    atoms = []
    if not isinstance(obj["atoms"], list):
        _fail(f"{pointer}/atoms", "expected a list")
    m = int(np.ceil(mu)) if mu != round(mu) else int(round(mu))
    for i, a in enumerate(obj["atoms"]):
        ptr = f"{pointer}/atoms/{i}"
        _expect_mapping(a, ptr, ("alpha", "weight", "symbol"))
        alpha = _real(a["alpha"], f"{ptr}/alpha")
        weight = _real(a["weight"], f"{ptr}/weight")
        if weight <= 0:
            _fail(f"{ptr}/weight", "atom weight must be positive")
        if alpha < 0 or alpha > m - 1 + 1e-12:
            _fail(
                f"{ptr}/alpha",
                f"atom order {alpha} outside [0, {m - 1}]; the lower measure "
                f"must be supported on [0, m - 1]",
            )
        atoms.append(Atom(alpha, weight, _parse_symbol(a["symbol"], f"{ptr}/symbol")))
    leading = None
    if "leading_symbol" in obj and obj["leading_symbol"] is not None:
        leading = _parse_symbol(obj["leading_symbol"], f"{pointer}/leading_symbol")
    return OrderMeasure(mu, tuple(atoms), leading)


def parse_problem(path) -> CauchyProblem:
    """Read and validate a JSON problem file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise SchemaError("/", f"cannot read problem file: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("/", f"invalid JSON: {exc}") from exc
    _expect_mapping(
        doc, "", ("operator", "measure", "flavor", "initial", "grid"), ("forcing",)
    )
    grid_obj = doc["grid"]
    _expect_mapping(grid_obj, "/grid", ("t_end", "n"))
    t_end = _real(grid_obj["t_end"], "/grid/t_end")
    n = _int(grid_obj["n"], "/grid/n")
    if t_end <= 0 or n < 2:
        _fail("/grid", "need t_end > 0 and n >= 2")
    grid = TimeGrid(t_end, n)
    operator = _parse_operator(doc["operator"], "/operator")
    measure = _parse_measure(doc["measure"], "/measure")
    flavor = doc["flavor"]
    if flavor not in (CAPUTO, RIEMANN_LIOUVILLE):
        _fail("/flavor", f"expected 'caputo' or 'riemann_liouville', got {flavor!r}")
    if not isinstance(doc["initial"], list):
        _fail("/initial", "expected a list of state vectors")
    initial = []
    for i, vec in enumerate(doc["initial"]):
        vals = _complex_list(vec, f"/initial/{i}")
        if len(vals) != operator.dimension:
            _fail(f"/initial/{i}", f"state needs {operator.dimension} entries")
        initial.append(np.asarray(vals, dtype=complex))
    forcing = None
    if doc.get("forcing") is not None:
        fobj = doc["forcing"]
        _expect_mapping(fobj, "/forcing", ("profile", "direction"))
        profile = _parse_profile(fobj["profile"], "/forcing/profile", grid)
        direction = _complex_list(fobj["direction"], "/forcing/direction")
        if len(direction) != operator.dimension:
            _fail("/forcing/direction", f"needs {operator.dimension} entries")
        forcing = Forcing(profile, np.asarray(direction, dtype=complex))
    try:
        return CauchyProblem(operator, measure, initial, forcing, grid, flavor)
    except FracCauchyError as exc:
        raise SchemaError("/", str(exc)) from exc


# ---------------------------------------------------------------------------
# CSV output


def write_csv(path, solution: SolutionPath) -> None:
    """Result table: one row per node, 17 significant digits."""
    dim = solution.dim
    header = "t," + ",".join(f"re_u_{j},im_u_{j}" for j in range(dim))
    # each row's cells (re_0, im_0, re_1, ...) as Python floats, one row at
    # a time: they format as numpy's scalars do, at a fraction of the cost
    cells = np.ascontiguousarray(solution.states).view(float)
    row = ",".join(["{:.17g}"] * (2 * dim + 1))
    lines = [header]
    lines += [row.format(t, *c.tolist()) for t, c in zip(solution.grid.nodes.tolist(), cells)]
    try:
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")
    except OSError as exc:
        raise SchemaError("/", f"cannot write result file: {exc}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_solve(args) -> int:
    problem = parse_problem(args.problem)
    solution = ROUTES[args.method](problem)
    write_csv(args.out, solution)
    print(f"wrote {args.out} ({solution.grid.n + 1} rows, method {solution.method})")
    return 0


def _cmd_compare(args) -> int:
    problem = parse_problem(args.problem)
    tol = _finite_arg(args, "tol")
    if tol < 0:
        raise SchemaError("/tol", f"expected a number >= 0, got {tol!r}")
    if not 0 <= args.skip_initial <= problem.grid.n:
        raise SchemaError(
            "/skip_initial",
            f"expected a node index in [0, {problem.grid.n}], got {args.skip_initial}",
        )
    methods = [m.strip() for m in args.methods.split(",")]
    if len(methods) != 2:
        raise SchemaError("/methods", "expected exactly two comma-separated methods")
    for m in methods:
        if m not in ROUTES:
            raise SchemaError("/methods", f"unknown method {m!r}")
    out_dir = Path(args.out_dir)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise SchemaError("/out_dir", f"cannot create output directory: {exc}") from exc
    stem = Path(args.problem).stem
    paths = []
    for m in methods:
        sol = ROUTES[m](problem)
        csv_path = out_dir / f"{stem}__{m}.csv"
        write_csv(csv_path, sol)
        paths.append(sol)
        print(f"wrote {csv_path}")
    report = compare(paths[0], paths[1], skip_initial=args.skip_initial)
    print(f"compare {methods[0]} vs {methods[1]}: {report}")
    ok = report.max_rel <= tol
    print(f"tolerance {tol:g}: {'PASS' if ok else 'FAIL'}")
    return 0 if ok else 1


def _cmd_ml(args) -> int:
    z = _parse_complex_arg(args.z)
    val = mittag_leffler(_positive_arg(args, "alpha"), _finite_arg(args, "beta"), z)
    _print_value(val, "E_{alpha,beta}(z)")
    return 0


def _print_value(val: complex, name: str) -> None:
    """Print a scalar result; one that overflowed is a numeric error."""
    if not np.isfinite(val):
        raise BlowupError(f"{name} is not finite: the value overflows")
    print(_format_complex(val))


def _finite_arg(args, name: str) -> float:
    """The float option `name`, which must be finite."""
    value = getattr(args, name)
    if not np.isfinite(value):
        raise SchemaError(f"/{name}", f"expected a finite number, got {value!r}")
    return value


def _positive_arg(args, name: str) -> float:
    """The float option `name`, which must be finite and positive."""
    value = _finite_arg(args, name)
    if value <= 0:
        raise SchemaError(f"/{name}", f"expected a positive number, got {value!r}")
    return value


def _parse_complex_arg(text: str) -> complex:
    parts = text.split(",")
    try:
        if len(parts) in (1, 2):
            vals = [float(p) for p in parts]
            if np.all(np.isfinite(vals)):
                return complex(*vals)
    except ValueError:
        pass
    raise SchemaError("/z", f"expected finite RE or RE,IM, got {text!r}")


def _format_complex(v: complex) -> str:
    if v.imag == 0:
        return f"{v.real:.17g}"
    return f"{v.real:.17g}{v.imag:+.17g}j"


def _parse_atoms_arg(text: str):
    """Atoms as 'alpha:weight[,alpha:weight...]', as problem-file entries
    for `_parse_measure`; symbols default to f(z)=z."""
    atoms = []
    if not text.strip():
        return atoms
    for i, chunk in enumerate(text.split(",")):
        parts = chunk.split(":")
        if len(parts) != 2:
            raise SchemaError(
                f"/atoms/{i}", f"expected alpha:weight, got {chunk!r}"
            )
        try:
            alpha, weight = float(parts[0]), float(parts[1])
        except ValueError:
            raise SchemaError(f"/atoms/{i}", f"non-numeric atom {chunk!r}") from None
        if not np.isfinite([alpha, weight]).all():
            raise SchemaError(f"/atoms/{i}", f"non-finite atom {chunk!r}")
        atoms.append({"alpha": alpha, "weight": weight, "symbol": {"kind": "identity"}})
    return atoms


def _cmd_kernel(args) -> int:
    atoms = _parse_atoms_arg(args.atoms)
    measure = _parse_measure({"mu": _finite_arg(args, "mu"), "atoms": atoms}, "")
    beta = _finite_arg(args, "beta")
    if beta >= measure.mu:
        _fail("/beta", f"kernel exponent must lie below the leading order {measure.mu}")
    z = _parse_complex_arg(args.z)
    val = c_beta(measure, beta, _positive_arg(args, "t"), z)
    _print_value(val, "c_beta(t, z)")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fraccauchy",
        description="Distributed-order fractional Cauchy problem solver",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve a problem file, write CSV")
    p_solve.add_argument("--problem", required=True)
    p_solve.add_argument("--method", required=True, choices=ROUTES)
    p_solve.add_argument("--out", required=True)
    p_solve.set_defaults(func=_cmd_solve)

    p_cmp = sub.add_parser("compare", help="run two methods and gate on max_rel")
    p_cmp.add_argument("--problem", required=True)
    p_cmp.add_argument("--methods", required=True, help="two names, comma separated")
    p_cmp.add_argument("--tol", required=True, type=float)
    p_cmp.add_argument("--out-dir", default=".")
    p_cmp.add_argument("--skip-initial", dest="skip_initial", type=int, default=1)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ml = sub.add_parser("ml", help="evaluate the Mittag-Leffler function")
    p_ml.add_argument("--alpha", required=True, type=float)
    p_ml.add_argument("--beta", required=True, type=float)
    p_ml.add_argument("--z", required=True, help="RE or RE,IM")
    p_ml.set_defaults(func=_cmd_ml)

    p_k = sub.add_parser("kernel", help="evaluate the solution kernel c_beta(t, z)")
    p_k.add_argument("--mu", required=True, type=float)
    p_k.add_argument("--atoms", default="", help="alpha:weight[,...], symbols f(z)=z")
    p_k.add_argument("--beta", required=True, type=float)
    p_k.add_argument("--t", required=True, type=float)
    p_k.add_argument("--z", required=True, help="RE or RE,IM")
    p_k.set_defaults(func=_cmd_kernel)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except FracCauchyError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
