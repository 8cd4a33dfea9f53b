"""Solution routes, their preconditions, and route-agreement properties."""

import numpy as np
import pytest
from scipy.special import erfc

from fraccauchy import (
    Atom,
    CauchyProblem,
    Constant,
    Exponential,
    FlavorError,
    Forcing,
    FracCauchyError,
    FourierMultiplier,
    MatrixOperator,
    OrderMeasure,
    Polynomial,
    PreconditionError,
    RIEMANN_LIOUVILLE,
    Sine,
    TimeGrid,
    compare,
    duhamel_caputo,
    duhamel_caputo_zero,
    duhamel_integer,
    duhamel_rl,
    frac_integral_values,
    identity_symbol,
    operator_residual,
    oracle_caputo,
    oracle_rl,
    solve_homogeneous,
    solve_repr,
)

RELAX = OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),))
CLASSICAL2 = OrderMeasure(2.0, (Atom(0.0, 1.0, identity_symbol()),))
SCALAR_ONE = MatrixOperator(np.array([[1.0]]))


def relax_exact(t):
    # E_{1/2}(-sqrt t) = exp(t) erfc(sqrt t)
    t = np.asarray(t)
    out = np.ones(t.shape)
    pos = t > 0
    out[pos] = np.exp(t[pos]) * erfc(np.sqrt(t[pos]))
    return out


def multiterm_benchmark(n, t_end=1.0):
    rng = np.random.default_rng(3)
    p = rng.normal(size=(2, 2)) + np.eye(2)
    op = MatrixOperator.from_eigensystem([1.0, 2.0], p)
    measure = OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),))
    grid = TimeGrid(t_end, n)
    return CauchyProblem(
        op,
        measure,
        [np.zeros(2), np.zeros(2)],
        Forcing(Polynomial([0.0, 1.0]), np.array([1.0, 0.5])),
        grid,
    )


# ---------------------------------------------------------------------------
# homogeneous solves


def test_homogeneous_zero_data_gives_zero_path():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.zeros(1)], None, grid)
    path = solve_homogeneous(prob)
    assert np.max(np.abs(path.states)) == 0.0


def test_homogeneous_relaxation_matches_erfc():
    grid = TimeGrid(2.0, 512)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([1.0])], None, grid)
    path = solve_homogeneous(prob)
    assert np.max(np.abs(path.states[:, 0] - relax_exact(grid.nodes))) < 1e-12


def test_homogeneous_classical_oscillator():
    grid = TimeGrid(np.pi, 256)
    prob = CauchyProblem(
        SCALAR_ONE, CLASSICAL2, [np.array([1.0]), np.array([0.5])], None, grid
    )
    path = solve_homogeneous(prob)
    exact = np.cos(grid.nodes) + 0.5 * np.sin(grid.nodes)
    assert np.max(np.abs(path.states[:, 0] - exact)) < 1e-11


def test_homogeneous_initial_node_is_datum():
    grid = TimeGrid(1.0, 32)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([0.37])], None, grid)
    path = solve_homogeneous(prob)
    assert path.states[0, 0] == 0.37


def test_homogeneous_skew_hermitian_matches_oracle():
    # A = d/dx puts every z = -i xi t^(1/2) on the Stokes ray of E_{1/2}
    op = FourierMultiplier.from_callable(lambda xi: 1j * xi, 32)
    phi = np.exp(np.sin(op.grid_points))
    prob = CauchyProblem(op, RELAX, [phi], None, TimeGrid(1.0, 256))
    path = solve_homogeneous(prob)
    assert np.max(np.abs(path.states - oracle_caputo(prob).states)) < 1e-3


def test_homogeneous_rejects_forcing():
    grid = TimeGrid(1.0, 32)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX,
        [np.array([1.0])],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    with pytest.raises(PreconditionError):
        solve_homogeneous(prob)


# ---------------------------------------------------------------------------
# representation formula


def test_repr_reduces_to_homogeneous():
    grid = TimeGrid(1.0, 128)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([1.0])], None, grid)
    a = solve_repr(prob)
    b = solve_homogeneous(prob)
    assert np.max(np.abs(a.states - b.states)) == 0.0


def test_repr_forced_relaxation():
    # u = 1 - E_{1/2}(-sqrt t); u(1) = 1 - e erfc(1) = 0.5724164...
    grid = TimeGrid(2.0, 512)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX,
        [np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    path = solve_repr(prob)
    exact = 1.0 - relax_exact(grid.nodes)
    rel = np.abs(path.states[1:, 0] - exact[1:]) / np.abs(exact[1:])
    assert np.max(rel) < 1e-4
    i_one = np.argmin(np.abs(grid.nodes - 1.0))
    assert abs(path.states[i_one, 0] - 0.5724164238441929) < 1e-5


def test_repr_classical_forced():
    # mu = 2: u'' + u = 1 with zero data gives 1 - cos t
    grid = TimeGrid(np.pi, 512)
    prob = CauchyProblem(
        SCALAR_ONE,
        CLASSICAL2,
        [np.zeros(1), np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    path = solve_repr(prob)
    exact = 1.0 - np.cos(grid.nodes)
    assert np.max(np.abs(path.states[:, 0] - exact)) < 1e-7


def test_repr_superposition_with_data_and_forcing():
    # u(0) = 1 with unit forcing keeps u identically one: the homogeneous and
    # forced parts must cancel to quadrature accuracy, and the stepping
    # oracle reproduces the constant exactly
    grid = TimeGrid(1.0, 256)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX,
        [np.array([1.0])],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    path = solve_repr(prob)
    assert np.max(np.abs(path.states[:, 0] - 1.0)) < 1e-4
    stepped = oracle_caputo(prob)
    assert np.max(np.abs(stepped.states[:, 0] - 1.0)) < 1e-12


# ---------------------------------------------------------------------------
# Duhamel routes


def test_duhamel_integer_zero_forcing():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(SCALAR_ONE, CLASSICAL2, [np.zeros(1), np.zeros(1)], None, grid)
    path = duhamel_integer(prob)
    assert np.max(np.abs(path.states)) == 0.0


def test_duhamel_integer_oscillator():
    grid = TimeGrid(np.pi, 1024)
    prob = CauchyProblem(
        SCALAR_ONE,
        CLASSICAL2,
        [np.zeros(1), np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    path = duhamel_integer(prob)
    exact = 1.0 - np.cos(grid.nodes)
    rel = np.abs(path.states[1:, 0] - exact[1:]) / np.abs(exact[1:])
    assert np.max(rel) < 1e-3
    assert abs(path.states[-1, 0] - 2.0) < 1e-5


def test_duhamel_integer_first_order_convolution():
    # m = 1, atom(0, 1): u' + u = e^{-t} gives u = t e^{-t}
    grid = TimeGrid(1.0, 1024)
    m1 = OrderMeasure(1.0, (Atom(0.0, 1.0, identity_symbol()),))
    prob = CauchyProblem(
        SCALAR_ONE,
        m1,
        [np.zeros(1)],
        Forcing(Exponential(-1.0), np.array([1.0])),
        grid,
    )
    path = duhamel_integer(prob)
    exact = grid.nodes * np.exp(-grid.nodes)
    assert np.max(np.abs(path.states[:, 0] - exact)) < 1e-6


def test_duhamel_integer_rejects_fractional_order():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.zeros(1)], None, grid)
    with pytest.raises(FlavorError):
        duhamel_integer(prob)


def test_duhamel_caputo_rejects_integer_order():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(
        SCALAR_ONE, CLASSICAL2, [np.zeros(1), np.zeros(1)], None, grid
    )
    with pytest.raises(FlavorError):
        duhamel_caputo(prob)


def test_duhamel_caputo_rejects_nonzero_data():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([1.0])], None, grid)
    with pytest.raises(PreconditionError):
        duhamel_caputo(prob)


def test_duhamel_caputo_forced_relaxation():
    grid = TimeGrid(2.0, 1024)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX,
        [np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    path = duhamel_caputo(prob)
    exact = 1.0 - relax_exact(grid.nodes)
    rel = np.abs(path.states[1:, 0] - exact[1:]) / np.abs(exact[1:])
    assert np.max(rel) < 1e-3


def test_duhamel_zero_variant_requires_vanishing_forcing():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX,
        [np.zeros(1)],
        Forcing(Constant(1.0), np.array([1.0])),
        grid,
    )
    with pytest.raises(PreconditionError):
        duhamel_caputo_zero(prob)


def test_duhamel_zero_variant_matches_unregularized():
    grid = TimeGrid(1.0, 512)
    for profile in (Polynomial([0.0, 1.0]), Sine(1.0)):
        prob = CauchyProblem(
            SCALAR_ONE,
            RELAX,
            [np.zeros(1)],
            Forcing(profile, np.array([1.0])),
            grid,
        )
        a = duhamel_caputo(prob)
        b = duhamel_caputo_zero(prob)
        assert compare(a, b).max_rel < 1e-6
    prob2 = multiterm_benchmark(512)
    a = duhamel_caputo(prob2)
    b = duhamel_caputo_zero(prob2)
    assert compare(a, b).max_rel < 1e-6


# ---------------------------------------------------------------------------
# Riemann-Liouville route


def rl_problem(op, n=1024, t_end=1.0, profile=None):
    grid = TimeGrid(t_end, n)
    return CauchyProblem(
        op,
        OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),)),
        [np.zeros(op.dimension)],
        Forcing(profile or Constant(1.0), np.ones(op.dimension)),
        grid,
        RIEMANN_LIOUVILLE,
    )


def test_duhamel_rl_zero_forcing():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(
        SCALAR_ONE,
        OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),)),
        [np.zeros(1)],
        None,
        grid,
        RIEMANN_LIOUVILLE,
    )
    assert np.max(np.abs(duhamel_rl(prob).states)) == 0.0


def test_duhamel_rl_pure_integration():
    # B = 0, h = 1, alpha = 0.5: u = 2 sqrt(t/pi)
    zero_op = MatrixOperator(np.array([[0.0]]))
    prob = rl_problem(zero_op)
    path = duhamel_rl(prob)
    t = prob.grid.nodes
    exact = 2.0 * np.sqrt(t / np.pi)
    rel = np.abs(path.states[1:, 0] - exact[1:]) / exact[1:]
    assert np.max(rel) < 1e-12
    assert abs(path.states[-1, 0] - 1.1283791670955126) < 1e-12


def test_duhamel_rl_matches_gl_oracle():
    prob = rl_problem(SCALAR_ONE)
    a = duhamel_rl(prob)
    b = oracle_rl(prob)
    assert compare(a, b).max_rel < 1e-2


def test_rl_weighted_datum_vanishes_under_refinement():
    prev = None
    for n in (256, 512, 1024):
        prob = rl_problem(SCALAR_ONE, n=n)
        path = duhamel_rl(prob)
        j_path = frac_integral_values(path.states[:, 0], 0.5, prob.grid.h)
        val = abs(j_path[1])
        if prev is not None:
            assert val < prev
        prev = val
    assert prev < 1e-3


@pytest.mark.parametrize("b", [6.0, 10.0, 20.0])
@pytest.mark.parametrize("n", [8, 256])
def test_duhamel_rl_raises_when_series_cancels(b, n):
    prob = rl_problem(MatrixOperator(np.array([[b]])), n=n)
    with pytest.raises(FracCauchyError):
        duhamel_rl(prob)


@pytest.mark.parametrize("b", [0.5, 2.0, 4.0])
@pytest.mark.parametrize("n", [8, 256])
def test_duhamel_rl_matches_mittag_leffler_reference(b, n):
    # u(1) = E_{1/2, 3/2}(-b) for D_+^(1/2) u + b u = 1
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        exact = mp.nsum(lambda j: (-b) ** j / mp.gamma(0.5 * j + 1.5), [0, mp.inf])
    path = duhamel_rl(rl_problem(MatrixOperator(np.array([[b]])), n=n))
    assert abs(path.states[-1, 0] - complex(exact)) < 1e-8


def test_rl_flavor_guards():
    grid = TimeGrid(1.0, 64)
    prob_c = CauchyProblem(SCALAR_ONE, RELAX, [np.zeros(1)], None, grid)
    with pytest.raises(FlavorError):
        duhamel_rl(prob_c)
    with pytest.raises(FlavorError):
        oracle_rl(prob_c)
    with pytest.raises(FlavorError):
        CauchyProblem(
            SCALAR_ONE,
            OrderMeasure(1.5, (Atom(0.5, 1.0, identity_symbol()),)),
            [np.zeros(1)],
            None,
            grid,
            RIEMANN_LIOUVILLE,
        )


def test_rl_nonzero_datum_rejected():
    grid = TimeGrid(1.0, 64)
    prob = CauchyProblem(
        SCALAR_ONE,
        OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),)),
        [np.array([1.0])],
        None,
        grid,
        RIEMANN_LIOUVILLE,
    )
    with pytest.raises(PreconditionError):
        duhamel_rl(prob)


# ---------------------------------------------------------------------------
# oracles


def test_oracle_zero_problem():
    grid = TimeGrid(1.0, 128)
    prob = CauchyProblem(SCALAR_ONE, RELAX, [np.zeros(1)], None, grid)
    assert np.max(np.abs(oracle_caputo(prob).states)) == 0.0


def test_oracle_relaxation_accuracy_and_order():
    prev = None
    for n in (512, 1024):
        grid = TimeGrid(1.0, n)
        prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([1.0])], None, grid)
        path = oracle_caputo(prob)
        err = np.max(np.abs(path.states[:, 0] - relax_exact(grid.nodes)))
        assert err < 1e-2
        if prev is not None:
            assert err < 0.7 * prev
        prev = err


def test_oracle_classical_exponential():
    grid = TimeGrid(1.0, 1024)
    m1 = OrderMeasure(1.0, (Atom(0.0, 1.0, identity_symbol()),))
    prob = CauchyProblem(SCALAR_ONE, m1, [np.array([1.0])], None, grid)
    path = oracle_caputo(prob)
    assert np.max(np.abs(path.states[:, 0] - np.exp(-grid.nodes))) < 1e-4


def test_oracle_multiplier_matches_matrix_route():
    op = FourierMultiplier.from_callable(lambda xi: xi**2, 16, 2 * np.pi)
    grid = TimeGrid(1.0, 256)
    x = op.grid_points
    prob = CauchyProblem(op, RELAX, [np.cos(x)], None, grid)
    path = oracle_caputo(prob)
    exact = relax_exact(grid.nodes)[:, None] * np.cos(x)[None, :]
    assert np.max(np.abs(path.states - exact)) < 1e-3


def test_oracle_rl_pure_integration():
    zero_op = MatrixOperator(np.array([[0.0]]))
    prob = rl_problem(zero_op)
    path = oracle_rl(prob)
    t = prob.grid.nodes
    exact = 2.0 * np.sqrt(t / np.pi)
    assert np.max(np.abs(path.states[1:, 0] - exact[1:])) < 1e-2


# ---------------------------------------------------------------------------
# cross-route properties


def test_route_triangle_decreases():
    errs = []
    for n in (256, 512):
        prob = multiterm_benchmark(n)
        a = solve_repr(prob)
        b = duhamel_caputo(prob)
        c = oracle_caputo(prob)
        errs.append(
            (compare(a, b).max_rel, compare(a, c).max_rel, compare(b, c).max_rel)
        )
    for k in range(3):
        assert errs[1][k] < 1.2 * errs[0][k]
    assert max(errs[1]) < 2e-2


def test_linearity_of_routes():
    grid = TimeGrid(1.0, 128)

    def solve(phi, forcing):
        prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([phi])], forcing, grid)
        return solve_repr(prob).states

    f1 = Forcing(Constant(1.0), np.array([1.0]))
    f2 = Forcing(Polynomial([0.0, 1.0]), np.array([1.0]))
    both = Forcing(Polynomial([1.0, 1.0]), np.array([1.0]))
    lhs = solve(0.3, f1) + solve(0.7, f2)
    rhs = solve(1.0, both)
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_initial_conditions_recovered():
    # one-sided differences of the path reproduce the Cauchy data
    for n in (512, 1024):
        grid = TimeGrid(1.0, n)
        prob = CauchyProblem(
            MatrixOperator(np.diag([1.0, 2.0])),
            OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),)),
            [np.array([1.0, -0.5]), np.array([0.25, 0.75])],
            None,
            grid,
        )
        path = solve_homogeneous(prob)
        assert np.max(np.abs(path.states[0] - prob.initial[0])) < 1e-13
        d1 = (path.states[1] - path.states[0]) / grid.h
        assert np.max(np.abs(d1 - prob.initial[1])) < 0.1
    grid_f = TimeGrid(1e-3, 64)
    prob_f = CauchyProblem(
        MatrixOperator(np.diag([1.0, 2.0])),
        OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),)),
        [np.array([1.0, -0.5]), np.array([0.25, 0.75])],
        None,
        grid_f,
    )
    path_f = solve_homogeneous(prob_f)
    d1 = (path_f.states[1] - path_f.states[0]) / grid_f.h
    assert np.max(np.abs(d1 - prob_f.initial[1])) < 2e-2


def test_homogeneous_residual_decreases():
    # the discrete operator applied to the kernel path; away from the
    # startup layer the residual shrinks under refinement at fixed time
    prev = None
    for n in (128, 256, 512):
        grid = TimeGrid(1.0, n)
        prob = CauchyProblem(SCALAR_ONE, RELAX, [np.array([1.0])], None, grid)
        path = solve_homogeneous(prob)
        res = operator_residual(prob, path)
        val = np.max(np.abs(res[n // 4 :]))
        if prev is not None:
            assert val < 0.8 * prev
        prev = val
    assert prev < 1e-2


def test_compare_reports():
    grid = TimeGrid(1.0, 64)
    from fraccauchy import SolutionPath

    base = np.ones((65, 1), dtype=complex)
    a = SolutionPath(grid, base.copy())
    b = SolutionPath(grid, base.copy())
    rep = compare(a, b)
    assert rep.max_abs == 0.0 and rep.max_rel == 0.0 and rep.l2 == 0.0
    b2 = SolutionPath(grid, base + 1e-3)
    rep2 = compare(a, b2)
    assert rep2.max_abs == pytest.approx(1e-3)
    assert rep2.max_rel <= 1e-3 + 1e-12


def test_warm_start_diagnostics_present():
    for prob, oracle, method in (
        (multiterm_benchmark(256), oracle_caputo, "oracle-caputo"),
        (rl_problem(SCALAR_ONE, n=256), oracle_rl, "oracle-rl"),
    ):
        path = oracle(prob)
        assert path.diagnostics["warm_cells"] > 0
        assert path.diagnostics["warm_refine"] > 0
        assert path.method == method


def test_duhamel_rejects_discontinuous_forcing():
    from fraccauchy import CapabilityError, Power

    grid = TimeGrid(1.0, 128)
    prob = CauchyProblem(
        SCALAR_ONE,
        RELAX,
        [np.zeros(1)],
        Forcing(Power(-0.3), np.array([1.0])),
        grid,
    )
    with pytest.raises(CapabilityError):
        duhamel_caputo(prob)


def test_oracle_rejects_order_above_two():
    from fraccauchy import CapabilityError

    grid = TimeGrid(1.0, 64)
    m = OrderMeasure(2.5, (Atom(0.0, 1.0, identity_symbol()),))
    prob = CauchyProblem(
        SCALAR_ONE, m, [np.zeros(1)] * 3, None, grid
    )
    with pytest.raises(CapabilityError):
        oracle_caputo(prob)


def test_multi_atom_measure_goes_through_contour_inversion():
    # two distinct lower orders force the Talbot kernels inside every route
    measure = OrderMeasure(
        1.8,
        (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol())),
    )
    op = MatrixOperator(np.array([[1.0, 0.3], [0.0, 1.6]]))
    grid = TimeGrid(1.0, 256)
    prob = CauchyProblem(
        op,
        measure,
        [np.zeros(2), np.zeros(2)],
        Forcing(Polynomial([0.0, 1.0]), np.array([1.0, 0.4])),
        grid,
    )
    a = solve_repr(prob)
    b = duhamel_caputo(prob)
    c = oracle_caputo(prob)
    assert compare(a, b).max_rel < 5e-3
    assert compare(a, c).max_rel < 5e-2
    prob_h = CauchyProblem(
        op, measure,
        [np.array([1.0, 0.5]), np.array([0.0, 0.2])], None, grid,
    )
    ph = solve_homogeneous(prob_h)
    assert compare(ph, oracle_caputo(prob_h)).max_rel < 2e-2
    res = operator_residual(prob_h, ph)
    assert np.max(np.abs(res[64:])) < 2e-2


def test_duhamel_on_multiplier_matches_repr():
    op = FourierMultiplier.from_callable(lambda xi: xi**2, 16, 2 * np.pi)
    grid = TimeGrid(1.0, 256)
    x = op.grid_points
    prob = CauchyProblem(
        op,
        RELAX,
        [np.zeros(16)],
        Forcing(Constant(1.0), np.cos(x)),
        grid,
    )
    a = solve_repr(prob)
    b = duhamel_caputo(prob)
    assert compare(a, b).max_abs < 1e-4
