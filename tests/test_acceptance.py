"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every tolerance is pinned here; reference values are closed forms
(scaled complementary error function, cosine, explicit convolutions).
"""

import json

import numpy as np
from scipy.special import erfc

from calculus import (
    apply_symbol_contour,
    apply_symbol_spectral,
    apply_symbol_taylor,
    frac_integral_values,
    numeric_laplace,
)
from fraccauchy import (
    Atom,
    CauchyProblem,
    Constant,
    ExponentialSymbol,
    Forcing,
    FourierMultiplier,
    MatrixOperator,
    OrderMeasure,
    Polynomial,
    PolynomialSymbol,
    RIEMANN_LIOUVILLE,
    RationalSymbol,
    Sampled,
    ScalarPath,
    Sine,
    TimeGrid,
    caputo_derivative_at,
    compare,
    duhamel_caputo,
    duhamel_caputo_zero,
    duhamel_integer,
    duhamel_rl,
    identity_symbol,
    mittag_leffler,
    oracle_caputo,
    oracle_rl,
    rl_derivative_at,
    solve_repr,
)
from fraccauchy.cli import main as cli_main

RELAX_MEASURE = OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),))
SCALAR_ONE = MatrixOperator(np.array([[1.0]]))


def report(num: int, label: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label} {detail}".rstrip())
    assert ok, f"criterion {num} failed: {label} {detail}"


def relax_exact(t):
    t = np.asarray(t)
    out = np.ones(t.shape)
    pos = t > 0
    out[pos] = np.exp(t[pos]) * erfc(np.sqrt(t[pos]))
    return out


def multiterm_problem(n: int) -> CauchyProblem:
    rng = np.random.default_rng(3)
    p = rng.normal(size=(2, 2)) + np.eye(2)
    op = MatrixOperator.from_eigensystem([1.0, 2.0], p)
    measure = OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),))
    return CauchyProblem(
        op,
        measure,
        [np.zeros(2), np.zeros(2)],
        Forcing(Polynomial([0.0, 1.0]), np.array([1.0, 0.5])),
        TimeGrid(1.0, n),
    )


def test_criterion_01_fractional_relaxation():
    grid = TimeGrid(2.0, 1024)
    prob = CauchyProblem(SCALAR_ONE, RELAX_MEASURE, [np.array([1.0])], None, grid)
    path = solve_repr(prob)
    exact = relax_exact(grid.nodes)
    max_rel = np.max(np.abs(path.states[1:, 0] - exact[1:]) / np.abs(exact[1:]))
    report(1, "relaxation via representation formula", max_rel < 1e-6,
           f"(max_rel={max_rel:.2e})")


def test_criterion_02_fractional_duhamel():
    grid = TimeGrid(2.0, 2048)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX_MEASURE,
        [np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    path = duhamel_caputo(prob)
    exact = 1.0 - relax_exact(grid.nodes)
    max_rel = np.max(np.abs(path.states[1:, 0] - exact[1:]) / np.abs(exact[1:]))
    u_one = path.states[1024, 0].real
    ok = max_rel < 1e-3 and abs(u_one - 0.5724164) < 1e-3
    report(2, "forced relaxation via fractional Duhamel", ok,
           f"(max_rel={max_rel:.2e}, u(1)={u_one:.7f})")


def test_criterion_03_route_triangle():
    pair_errs = []
    for n in (1024, 2048):
        prob = multiterm_problem(n)
        a = solve_repr(prob)
        b = duhamel_caputo(prob)
        c = oracle_caputo(prob)
        pair_errs.append(
            (compare(a, b).max_rel, compare(a, c).max_rel, compare(b, c).max_rel)
        )
    first, second = pair_errs
    # repr and duhamel agree to round-off at both n, where halving cannot
    # shrink the difference; the pairs against the oracle must fall
    ok = (
        max(first[0], second[0]) < 1e-12
        and max(first) < 1e-2
        and all(s < f for f, s in zip(first[1:], second[1:]))
    )
    report(3, "route triangle on the two-term benchmark", ok,
           f"(n=1024 errs={['%.2e' % e for e in first]}, halved={['%.2e' % e for e in second]})")


def test_criterion_04_zero_variant_consistency():
    worst = 0.0
    grid = TimeGrid(1.0, 512)
    scalar = CauchyProblem(
        SCALAR_ONE,
        RELAX_MEASURE,
        [np.zeros(1)],
        Forcing(Polynomial([0.0, 1.0]), np.array([1.0])),
        grid,
    )
    for prob in (scalar, multiterm_problem(512)):
        a = duhamel_caputo(prob)
        b = duhamel_caputo_zero(prob)
        worst = max(worst, compare(a, b).max_rel)
    report(4, "regularized-datum variant matches for h(0) = 0", worst < 1e-6,
           f"(max_rel={worst:.2e})")


def test_criterion_05_rl_duhamel():
    grid = TimeGrid(1.0, 1024)
    measure = OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),))
    zero_op = MatrixOperator(np.array([[0.0]]))
    prob0 = CauchyProblem(
        zero_op, measure, [np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])), grid, RIEMANN_LIOUVILLE,
    )
    path0 = duhamel_rl(prob0)
    exact = 2.0 * np.sqrt(grid.nodes / np.pi)
    rel0 = np.max(np.abs(path0.states[1:, 0] - exact[1:]) / exact[1:])

    errs = []
    for n in (1024, 2048):
        g = TimeGrid(1.0, n)
        prob1 = CauchyProblem(
            SCALAR_ONE, measure, [np.zeros(1)],
            Forcing(Constant(1.0), np.array([1.0])), g, RIEMANN_LIOUVILLE,
        )
        errs.append(compare(duhamel_rl(prob1), oracle_rl(prob1)).max_rel)
    ratio = errs[0] / errs[1]
    # the oracle's L1 march converges at order 2 - alpha: 2^1.5 = 2.83
    ok = rel0 < 1e-2 and errs[0] < 1e-2 and 2.4 <= ratio <= 3.2
    report(5, "Riemann-Liouville Duhamel route", ok,
           f"(B=0 rel={rel0:.2e}, B=1 rel={errs[0]:.2e}, halving ratio={ratio:.2f})")


def test_criterion_06_classical_limit():
    grid = TimeGrid(np.pi, 1024)
    measure = OrderMeasure(2.0, (Atom(0.0, 1.0, identity_symbol()),))
    prob = CauchyProblem(
        SCALAR_ONE, measure, [np.zeros(1), np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])), grid,
    )
    path = duhamel_integer(prob)
    exact = 1.0 - np.cos(grid.nodes)
    max_rel = np.max(np.abs(path.states[1:, 0] - exact[1:]) / np.abs(exact[1:]))
    u_pi = path.states[-1, 0].real
    ok = max_rel < 1e-3 and abs(u_pi - 2.0) < 1e-3
    report(6, "integer-order Duhamel recovers 1 - cos t", ok,
           f"(max_rel={max_rel:.2e}, u(pi)={u_pi:.6f})")


def test_criterion_07_abel_round_trip():
    grid = TimeGrid(1.0, 4096)
    worst = 0.0
    for profile, values in (
        (Sine(1.0), np.sin(grid.nodes)),
        (Polynomial([0.0, 0.0, 1.0]), grid.nodes**2),
    ):
        for alpha in (0.3, 0.5, 0.7):
            u = rl_derivative_at(profile, alpha, grid.nodes)
            back = frac_integral_values(u, alpha, grid.h)
            worst = max(worst, float(np.max(np.abs(back - values))))
    report(7, "Abel equation round trip", worst < 1e-3, f"(sup err={worst:.2e})")


def test_criterion_08_laplace_identity():
    grid = TimeGrid(40.0, 16384)
    profile = Polynomial([0.0, 0.0, 1.0])
    ca = Sampled(ScalarPath(grid, caputo_derivative_at(profile, 0.5, grid.nodes)))
    worst = 0.0
    for s in (2.0, 5.0, 10.0):
        lhs = numeric_laplace(ca, s, 40.0)
        rhs = s**0.5 * numeric_laplace(profile, s, 40.0)
        worst = max(worst, abs(lhs - rhs))
    report(8, "transform identity for the regularized derivative", worst < 1e-3,
           f"(worst={worst:.2e})")


def test_criterion_09_calculus_route_agreement():
    rng = np.random.default_rng(99)
    symbols = [
        PolynomialSymbol([0.0, 0.0, 1.0]),
        ExponentialSymbol(1.0),
        RationalSymbol([1.0], [1.0, 1.0]),
    ]
    worst = 0.0
    for trial in range(20):
        d = int(rng.integers(2, 7))
        # well-separated eigenvalues inside disk(0.5, 0.5); the contour at
        # radius 1.1 then clears both the spectrum and the pole at -1
        radii = 0.15 + 0.35 * (np.arange(d) + rng.uniform(0.1, 0.6, d)) / d
        angles = 2 * np.pi * np.arange(d) / d + rng.uniform(0, 0.4, d)
        lam = 0.5 + radii * np.exp(1j * angles)
        p = rng.normal(size=(d, d)) + 0.15j * rng.normal(size=(d, d)) + np.eye(d)
        op = MatrixOperator.from_eigensystem(lam, p)
        v = rng.normal(size=d)
        for f in symbols:
            s_route = apply_symbol_spectral(f, op, v)
            scale = np.max(np.abs(s_route))
            c_route = apply_symbol_contour(f, op, v, center=0.5, radius=1.1, n_nodes=96)
            worst = max(worst, float(np.max(np.abs(c_route - s_route)) / scale))
            u = p[:, int(rng.integers(0, d))]
            k = np.argmax(np.abs(np.linalg.solve(p, u)))
            t_route = apply_symbol_taylor(f, op, u, lam[k], 2 * d + 6)
            s_u = apply_symbol_spectral(f, op, u)
            worst = max(
                worst, float(np.max(np.abs(t_route - s_u)) / np.max(np.abs(s_u)))
            )
    report(9, "spectral, contour, and local-series routes agree", worst < 1e-8,
           f"(worst rel={worst:.2e})")


def test_criterion_10_mittag_leffler_identities():
    e1 = abs(mittag_leffler(1.0, 1.0, 1.0) - np.e)
    e2 = abs(mittag_leffler(2.0, 1.0, -1.0) - np.cos(1.0))
    e3 = abs(mittag_leffler(0.5, 1.0, -1.0) - np.e * erfc(1.0))
    ok = e1 < 1e-10 and e2 < 1e-10 and e3 < 1e-8
    report(10, "Mittag-Leffler closed-form identities", ok,
           f"(errs={e1:.1e}, {e2:.1e}, {e3:.1e})")


def test_criterion_11_fourier_multiplier_demo():
    modes = 64
    op = FourierMultiplier.from_callable(lambda xi: xi, modes, 2 * np.pi)
    measure = OrderMeasure(0.5, (Atom(0.0, 1.0, PolynomialSymbol([0.0, 0.0, 1.0])),))
    grid = TimeGrid(1.0, 512)
    x = op.grid_points
    prob = CauchyProblem(op, measure, [np.cos(x)], None, grid)
    path = solve_repr(prob)
    # single-mode reduction: the +/-1 mode coefficients follow the scalar kernel
    modes_path = np.fft.fft(path.states, axis=1)[:, 1] / (modes / 2)
    scalar = relax_exact(grid.nodes)
    max_rel = np.max(np.abs(modes_path[1:] - scalar[1:]) / np.abs(scalar[1:]))
    field_err = float(
        np.max(np.abs(path.states - scalar[:, None] * np.cos(x)[None, :]))
    )
    ok = max_rel < 1e-6 and field_err < 1e-9
    report(11, "time-fractional diffusion on 64 modes", ok,
           f"(mode max_rel={max_rel:.2e}, field sup={field_err:.2e})")


def test_criterion_12_cli_contract(tmp_path):
    doc = {
        "operator": {"type": "matrix", "data": {"matrix": [[1.0]]}},
        "measure": {
            "mu": 0.5,
            "atoms": [{"alpha": 0.0, "weight": 1.0, "symbol": {"kind": "identity"}}],
        },
        "flavor": "caputo",
        "initial": [[0.0]],
        "forcing": {"profile": {"kind": "constant", "value": 1.0}, "direction": [1.0]},
        "grid": {"t_end": 2.0, "n": 1024},
    }
    prob = tmp_path / "bench2.json"
    prob.write_text(json.dumps(doc))
    base = [
        "compare", "--problem", str(prob), "--methods", "duhamel,oracle",
        "--out-dir", str(tmp_path / "out"),
    ]
    code_loose = cli_main(base + ["--tol", "1e-2"])
    code_tight = cli_main(base + ["--tol", "1e-6"])
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    code_bad = cli_main(
        ["solve", "--problem", str(bad), "--method", "repr", "--out", str(tmp_path / "x.csv")]
    )
    ok = code_loose == 0 and code_tight == 1 and code_bad == 2
    report(12, "CLI exit-code contract", ok,
           f"(loose={code_loose}, tight={code_tight}, malformed={code_bad})")
