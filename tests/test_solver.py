"""Solution routes, their preconditions, and route-agreement properties."""

import functools
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import erfc, rgamma

from calculus import frac_integral_values, operator_residual, spectrum
from fraccauchy import kernels, oracles, solver
from fraccauchy import (
    Atom,
    BlowupError,
    CapabilityError,
    CauchyProblem,
    Constant,
    Cosine,
    DomainError,
    Exponential,
    FlavorError,
    Forcing,
    FourierMultiplier,
    InversionError,
    MatrixOperator,
    OrderMeasure,
    Polynomial,
    PowerSymbol,
    PreconditionError,
    RIEMANN_LIOUVILLE,
    RationalSymbol,
    Sine,
    SolutionPath,
    StepSolveError,
    TimeGrid,
    compare,
    duhamel_caputo,
    duhamel_caputo_zero,
    duhamel_integer,
    duhamel_rl,
    identity_symbol,
    mittag_leffler,
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
    # at t = 1 on diag(1, 2): E_{1/2}(-1) and E_{1/2}(-2)
    diag = MatrixOperator(np.diag([1.0, 2.0]))
    u1 = solve_homogeneous(CauchyProblem(diag, RELAX, [np.ones(2)], None, grid)).states[256]
    expect = [mittag_leffler(0.5, 1.0, -1.0), mittag_leffler(0.5, 1.0, -2.0)]
    assert np.max(np.abs(u1 - expect)) < 1e-12
    # a Fourier multiplier with only the cos(x) modes active
    op = FourierMultiplier.from_callable(lambda xi: xi**2, 64, 2 * np.pi)
    x = op.grid_points
    u1 = solve_homogeneous(CauchyProblem(op, RELAX, [np.cos(x)], None, grid)).states[256]
    assert np.max(np.abs(u1 - np.e * erfc(1.0) * np.cos(x))) < 1e-10


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
    phi = np.array([0.3, -0.7])
    diag = MatrixOperator(np.diag([1.0, 2.0]))
    path = solve_homogeneous(CauchyProblem(diag, RELAX, [phi], None, grid))
    assert np.allclose(path.states[0], phi)


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


def test_repr_overflow_raises_blowup_without_warnings():
    # E_{1/2}(30 t^(1/2)) ~ exp(900 t) overflows for t above about 0.79
    grid = TimeGrid(1.0, 16)
    op = MatrixOperator(np.array([[-30.0]]))
    for prob in (
        CauchyProblem(op, RELAX, [np.array([1.0])], None, grid),
        CauchyProblem(op, RELAX, [np.zeros(1)], Forcing(Constant(1.0), np.ones(1)), grid),
    ):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BlowupError, match=r"not finite at t = 0\.8\d* for z = \(-30"):
                solve_repr(prob)


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


def _rl_unit_response(alpha, b):
    """u(1) = E_{alpha,alpha+1}(-b), the solution of D_+^alpha u + b u = 1 at
    t = 1 for b >= 0, in mpmath: (1 - E_alpha(-b)) / b with the
    cancellation-free integral
    E_alpha(-b) = sin(alpha pi) / (alpha pi)
                  int_0^inf exp(-v^(1/alpha)) b / (b^2 + 2 b cos(alpha pi) v + v^2) dv.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(alpha)
        if b == 0:
            return float(mp.rgamma(a + 1))
        c = mp.cos(mp.pi * a)
        e = mp.sin(mp.pi * a) / (mp.pi * a) * mp.quad(
            lambda v: mp.exp(-(v ** (1 / a))) * b / (b**2 + 2 * b * c * v + v**2),
            [0, 0.5, 1, 2, mp.inf],
        )
        return float((1 - e) / b)


@pytest.mark.parametrize("b", [6.0, 10.0, 20.0])
@pytest.mark.parametrize("n", [8, 256])
def test_duhamel_rl_raises_when_series_cancels(b, n):
    # b where a Neumann series in b cancels (the name is kept from when the
    # route summed one and raised here): the path for alpha = 1/2 and h = 1
    # is u(t) = (1 - e^(b^2 t) erfc(b sqrt t)) / b, met to 1e-12 relative
    mp = pytest.importorskip("mpmath")
    prob = rl_problem(MatrixOperator(np.array([[b]])), n=n)
    u = duhamel_rl(prob).states[:, 0]
    with mp.workdps(30):
        exact = np.array(
            [float((1 - mp.exp(b * b * t) * mp.erfc(b * mp.sqrt(t))) / b)
             for t in map(mp.mpf, prob.grid.nodes)]
        )
    assert np.max(np.abs(u - exact) / np.maximum(np.abs(exact), 1e-300)) < 1e-12


@pytest.mark.parametrize("b", [0.0, 0.5, 2.0, 4.0, 6.0, 10.0, 20.0, 100.0])
@pytest.mark.parametrize("n", [8, 256])
def test_duhamel_rl_matches_mittag_leffler_reference(b, n):
    # u(1) = E_{alpha, alpha+1}(-b) for D_+^alpha u + b u = 1: product
    # integration on the kernel moments is exact for constant forcing
    for alpha in (0.1, 0.25, 0.5, 0.9):
        measure = OrderMeasure(alpha, (Atom(0.0, 1.0, identity_symbol()),))
        prob = CauchyProblem(
            MatrixOperator(np.array([[b]])), measure, [np.zeros(1)],
            Forcing(Constant(1.0), np.ones(1)), TimeGrid(1.0, n), RIEMANN_LIOUVILLE,
        )
        exact = _rl_unit_response(alpha, b)
        got = duhamel_rl(prob).states[-1, 0]
        assert abs(got - exact) < 1e-12 * abs(exact), (alpha, got, exact)


def test_duhamel_rl_converges_at_second_order():
    # smooth forcing e^-t at b = 3: the linear interpolant of h costs O(h^2),
    # so the change from n to 2n falls about fourfold
    paths = [
        duhamel_rl(rl_problem(MatrixOperator(np.array([[3.0]])), n=n,
                              profile=Exponential(-1.0))).states[:, 0]
        for n in (64, 128, 256, 512, 1024)
    ]
    steps = [np.max(np.abs(fine[:: 2 ** (k + 1)] - coarse[:: 2**k]))
             for k, (coarse, fine) in enumerate(zip(paths, paths[1:]))]
    ratios = np.array(steps[:-1]) / np.array(steps[1:])
    assert np.all((3.6 < ratios) & (ratios < 4.4)), ratios


def test_duhamel_rl_split_atom_is_one_atom():
    # two half atoms at order 0 have the one atom's sum B: the route takes
    # its closed-form moments on the sum and gives the same bits
    op = MatrixOperator.from_eigensystem(
        [0.7, 17.3, 2.0 + 1.5j, 2.0 - 1.5j, -0.5],
        np.eye(5) + 0.3 * np.random.default_rng(5).standard_normal((5, 5)),
    )
    half = Atom(0.0, 0.5, identity_symbol())
    paths = []
    for measure in (RELAX, OrderMeasure(0.5, (half, half))):
        prob = CauchyProblem(
            op, measure, [np.zeros(5)], Forcing(Exponential(-1.0), np.arange(1.0, 6.0)),
            TimeGrid(1.0, 128), RIEMANN_LIOUVILLE,
        )
        paths.append(duhamel_rl(prob).states)
    assert np.max(np.abs(paths[0])) > 0
    assert paths[0].tobytes() == paths[1].tobytes()


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
    # repr and duhamel agree to round-off at both n; the pairs against the
    # oracle fall under refinement
    assert max(errs[0][0], errs[1][0]) < 1e-12
    for k in (1, 2):
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


def test_compare_needs_a_node_to_compare():
    grid = TimeGrid(1.0, 64)
    a = SolutionPath(grid, np.ones((65, 1), dtype=complex))
    b = SolutionPath(grid, np.linspace(1.0, 2.0, 65).astype(complex))
    last = compare(a, b, skip_initial=64)
    assert (last.node_of_max, last.i_min, last.max_abs) == (64, 64, 1.0)
    with pytest.raises(PreconditionError, match="leaves none of the 65 nodes"):
        compare(a, b, skip_initial=65)


def test_warm_start_diagnostics_present():
    for prob, oracle, method in (
        (multiterm_benchmark(256), oracle_caputo, "oracle-caputo"),
        (rl_problem(SCALAR_ONE, n=256), oracle_rl, "oracle-rl"),
    ):
        path = oracle(prob)
        assert path.diagnostics["warm_cells"] > 0
        assert path.diagnostics["warm_refine"] > 0
        # (L + 2) 2 c start steps, L = 5 levels of c = 16 cells
        assert path.diagnostics["warm_steps"] == 224
        assert path.diagnostics["warm_s"] > 0.0
        assert path.diagnostics["main_s"] > 0.0
        assert path.method == method
        # n = 256 reaches past one block: the long term (the leading order)
        # carries exponentials, the order-0 terms none
        far = path.diagnostics["far_terms"]
        terms = len(oracles._term_operators(prob)) if oracle is oracle_caputo else 2
        assert len(far) == terms and far[0] > 0
        assert all(isinstance(p, int) for p in far)


@pytest.mark.parametrize("n, bound", [(1024, 3.52e-5), (4096, 9.83e-6)])
def test_relaxation_oracle_error_over_whole_path(n, bound):
    # D^(1/2) u + u = 0 on [0, 2] against e^t erfc(sqrt t) at every node,
    # relative to the peak; the bounds are the errors of the former start on
    # two refined subgrids of cells * refine and half as many steps
    grid = TimeGrid(2.0, n)
    path = oracle_caputo(CauchyProblem(SCALAR_ONE, RELAX, [np.array([1.0])], None, grid))
    exact = relax_exact(grid.nodes)
    assert np.max(np.abs(path.states[:, 0] - exact)) <= bound * np.max(np.abs(exact))
    # (L + 2) S / 2 start steps: L = 7 levels of S = 256 and 512, against
    # 24,576 at n = 4096 on the former two refined subgrids
    assert path.diagnostics["warm_steps"] == {1024: 1152, 4096: 2304}[n]


@pytest.mark.parametrize("n", [256, 1024])
@pytest.mark.parametrize("lam", [-30.0, -60.0, -200.0])
def test_oracle_on_growth_spectrum_raises(lam, n):
    # the exact solution grows like exp(lam^2 t) and overflows on [0, 1]:
    # an unresolved first step or the overflow itself raises, where the
    # march used to return finite wrong values such as -0.0028
    prob = CauchyProblem(
        MatrixOperator(np.array([[lam]])), RELAX, [np.array([1.0])], None, TimeGrid(1.0, n)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSolveError, match=r"step \d+ of"):
            oracle_caputo(prob)


def test_unresolved_first_step_names_component_and_step():
    # step 1 weighs u_1 by h^-1/2 / Gamma(3/2) + lambda, positive only for
    # h < 3.18e-5: n = 32768 is the first doubling of 256 that resolves it
    prob = CauchyProblem(
        MatrixOperator(np.array([[-200.0]])), RELAX, [np.array([1.0])], None, TimeGrid(1.0, 256)
    )
    with pytest.raises(StepSolveError, match=r"step 1 of 256 .* component 0: .* \(n = 32768\)"):
        oracle_caputo(prob)


@pytest.mark.parametrize("n", [64, 256])
def test_unresolved_later_steps_raise_on_l2(n):
    # mu = 3/2 with lambda = -1.5 c, c = h^-1.5 / Gamma(1.5): step 1 weighs
    # u_1 by 2 c + lambda (ratio 0.25 to its leading part) and later steps
    # u_n by c + lambda (ratio -0.5); the oracle used to return 1.93e36 at
    # n = 64 and 3.07e146 at n = 256, against 1.99e39 and 5.32e157
    h = 1.0 / n
    lam = -1.5 * h**-1.5 * rgamma(1.5)
    prob = CauchyProblem(
        MatrixOperator(np.array([[lam]])),
        OrderMeasure(1.5, (Atom(0.0, 1.0, identity_symbol()),)),
        [np.array([1.0]), np.array([0.0])],
        None,
        TimeGrid(1.0, n),
    )
    with pytest.raises(StepSolveError, match=rf"step 2 of {n} .* component 0: .* -0\.5\+0j times"):
        oracle_caputo(prob)


def test_repr_on_power_forcing_matches_oracle():
    # h = t^0.5 has h' unbounded at 0; its datum D_+^0.5 h = Gamma(1.5)
    # takes the power rule, so the route meets the oracle within the
    # oracle's own error (1.3e-5 here; a Gauss-Jacobi rule on h' left 1.1e-2)
    from fraccauchy import Power

    prob = CauchyProblem(
        SCALAR_ONE, RELAX, [np.zeros(1)], Forcing(Power(0.5), np.ones(1)), TimeGrid(1.0, 1024)
    )
    assert compare(solve_repr(prob), oracle_caputo(prob)).max_rel < 5e-5


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
    prob_rl = CauchyProblem(
        SCALAR_ONE, RELAX, [np.zeros(1)], prob.forcing, grid, RIEMANN_LIOUVILLE
    )
    with pytest.raises(CapabilityError):
        duhamel_rl(prob_rl)


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


# ---------------------------------------------------------------------------
# blocked march against the per-step loop it replaced


class _LoopScheme:
    """Per-step product-integration weights of one order (reference only)."""

    def __init__(self, alpha, h, n):
        self.alpha, self.h = alpha, h
        i = np.arange(n + 1, dtype=float)
        if alpha == 0:
            self.kind = "id"
        elif alpha == 1:
            self.kind = "bdf2"
        elif alpha == 2:
            self.kind = "d2"
        elif alpha < 1:
            self.kind = "l1"
            self.w = (i + 1) ** (1 - alpha) - i ** (1 - alpha)
            self.c = h ** (-alpha) * rgamma(2 - alpha)
        else:
            self.kind = "l2"
            self.w = (i + 1) ** (2 - alpha) - i ** (2 - alpha)
            self.c = h ** (-alpha) * rgamma(3 - alpha)

    def coef(self, step):
        if self.kind == "id":
            return 1.0
        if self.kind == "bdf2":
            return (1.0 if step == 1 else 1.5) / self.h
        if self.kind == "d2":
            return (2.0 if step == 1 else 1.0) / self.h**2
        if self.kind == "l1":
            return self.c
        return (2.0 if step == 1 else 1.0) * self.c

    def history(self, n, u, d1, s2, phi1):
        h = self.h
        if self.kind == "id":
            return 0.0
        if self.kind == "bdf2":
            return -u[0] / h if n == 1 else (-4.0 * u[n - 1] + u[n - 2]) / (2.0 * h)
        if self.kind == "d2":
            if n == 1:
                return (-2.0 * u[0] - 2.0 * h * phi1) / h**2
            return (-2.0 * u[n - 1] + u[n - 2]) / h**2
        if self.kind == "l1":
            acc = -self.c * u[n - 1]
            if n >= 2:
                acc = acc + self.c * (self.w[1:n][::-1] @ d1[: n - 1])
            return acc
        if n == 1:
            return self.c * (-2.0 * u[0] - 2.0 * h * phi1)
        acc = self.c * (-2.0 * u[n - 1] + u[n - 2])
        return acc + self.c * (self.w[1:n][::-1] @ s2[: n - 1])


def _loop_caputo(terms, dense, grid, phis, forcing_vals, injected=None):
    """The per-step Caputo loop, one linear solve and history sum per step."""
    n, h = grid.n, grid.h
    dim = phis[0].shape[0]
    schemes = [_LoopScheme(alpha, h, n) for alpha, _ in terms]
    mats = [f for _, f in terms]
    phi1 = phis[1] if len(phis) > 1 else np.zeros(dim, dtype=complex)
    u = np.zeros((n + 1, dim), dtype=complex)
    u[0] = phis[0]
    d1 = np.zeros((n, dim), dtype=complex)
    s2 = np.zeros((n, dim), dtype=complex)
    start = 1
    if injected is not None:
        k = injected.shape[0] - 1
        u[: k + 1] = injected
        d1[:k] = u[1 : k + 1] - u[:k]
        s2[0] = 2.0 * u[1] - 2.0 * u[0] - 2.0 * h * phi1
        for j in range(1, k):
            s2[j] = u[j + 1] - 2.0 * u[j] + u[j - 1]
        start = k + 1
    for step in range(start, n + 1):
        lhs = sum(sch.coef(step) * f for sch, f in zip(schemes, mats))
        rhs = forcing_vals[step].astype(complex)
        for sch, f in zip(schemes, mats):
            hist = sch.history(step, u, d1, s2, phi1)
            if sch.kind != "id":
                rhs = rhs - (f @ hist if dense else f * hist)
        u[step] = np.linalg.solve(lhs, rhs) if dense else rhs / lhs
        d1[step - 1] = u[step] - u[step - 1]
        if step == 1:
            s2[0] = 2.0 * u[1] - 2.0 * u[0] - 2.0 * h * phi1
        else:
            s2[step - 1] = u[step] - 2.0 * u[step - 1] + u[step - 2]
    return u


def _loop_rl(b_op, dense, grid, forcing_vals, alpha, injected=None):
    """The per-step Grunwald-Letnikov loop."""
    n, h = grid.n, grid.h
    dim = forcing_vals.shape[1]
    g = np.empty(n + 1)
    g[0] = 1.0
    for j in range(1, n + 1):
        g[j] = g[j - 1] * (j - 1 - alpha) / j
    ha = h ** (-alpha)
    u = np.zeros((n + 1, dim), dtype=complex)
    start = 1
    if injected is not None:
        u[: injected.shape[0]] = injected
        start = injected.shape[0]
    lhs = ha * np.eye(dim) + b_op if dense else ha + b_op
    for step in range(start, n + 1):
        hist = (g[1 : step + 1][:, None] * u[step - 1 :: -1][:step]).sum(axis=0)
        rhs = forcing_vals[step] - ha * hist
        u[step] = np.linalg.solve(lhs, rhs) if dense else rhs / lhs
    return u


_COMPLEX_PAIR = MatrixOperator(np.array([[0.0, 2.0], [-2.0, 0.3]]))  # eigenvalues 0.15 +- 1.99i
_MODES = FourierMultiplier.from_callable(lambda xi: 1j * xi + 0.1 * xi**2, 16, 2 * np.pi)
_MARCH_CASES = {
    "l1": (SCALAR_ONE, RELAX, [np.array([1.0])]),
    "l2_phi1": (
        MatrixOperator(np.array([[1.0, 0.3], [-2.0, 1.6]])),
        OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()), Atom(0.0, 0.3, identity_symbol()))),
        [np.array([1.0, 0.5]), np.array([0.2, -0.7])],
    ),
    "bdf2": (SCALAR_ONE, OrderMeasure(1.0, (Atom(0.0, 1.0, identity_symbol()),)), [np.array([1.0])]),
    "d2": (SCALAR_ONE, CLASSICAL2, [np.array([1.0]), np.array([0.5])]),
    "complex_pair": (_COMPLEX_PAIR, RELAX, [np.array([1.0, 0.0])]),
    "multiplier": (
        _MODES,
        OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),)),
        [np.cos(_MODES.grid_points), np.sin(_MODES.grid_points)],
    ),
}


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("case", sorted(_MARCH_CASES) + ["gl", "gl_multiplier"])
def test_blocked_march_matches_step_loop(case, inject):
    _check_march_against_loop(case, inject, blocks=3, start=13)


@pytest.mark.parametrize("inject", [False, True])
@pytest.mark.parametrize("case", ["l1", "l2_phi1", "gl", "gl_multiplier"])
def test_long_blocked_march_matches_step_loop(case, inject):
    # most of the history of the late blocks reaches them through the sum
    # of exponentials, not the weight table; injected start states that
    # reach more than a block back make the first block sum its history
    # afresh
    _check_march_against_loop(case, inject, blocks=16, start=oracles._BLOCK + 40)


def _dense(op, vals):
    """P diag(vals) P^-1 in the eigenbasis of a matrix operator."""
    _, p, pinv = op.eigensystem()
    return p @ (vals[:, None] * pinv)


def _check_march_against_loop(case, inject, blocks, start):
    # the march runs in spectral coordinates: it must match the diagonal
    # loop there, and on matrix operators its back-transform must match the
    # loop in state space on the dense matrices
    from fraccauchy import solver

    n = blocks * oracles._BLOCK + 5  # the last block is partial
    grid = TimeGrid(1.3, n)
    if case.startswith("gl"):
        op = _MODES if case == "gl_multiplier" else _COMPLEX_PAIR
        prob = rl_problem(op, n=n, t_end=1.3, profile=Sine(2.0))
    else:
        op, measure, data = _MARCH_CASES[case]
        forcing = Forcing(Sine(2.0), np.linspace(1.0, 0.5, op.dimension))
        prob = CauchyProblem(op, measure, data, forcing, grid)
    matrix = isinstance(op, MatrixOperator)

    def forcing_at(t):
        return op.to_spectral(prob.forcing.values(t))

    fvals = prob.forcing.values(grid.nodes)
    spec_fvals = op.to_spectral(fvals)
    if case.startswith("gl"):
        b_op = oracles._atom_sum(prob.measure, spectrum(op))
        loop = _loop_rl(b_op, False, grid, spec_fvals, 0.5)
        injected = 1.01 * loop[:start] if inject else None
        ref = _loop_rl(b_op, False, grid, spec_fvals, 0.5, injected)
        if matrix:
            state_injected = None if injected is None else op.from_spectral(injected)
            state_ref = _loop_rl(_dense(op, b_op), True, grid, fvals, 0.5, state_injected)
        system = oracles._BlockSystem(oracles._gl_terms(0.5, b_op, grid), grid)
        zero = np.zeros(op.dimension, complex)
        got = oracles._march(system, zero, zero, forcing_at, injected)
    else:
        terms = oracles._term_operators(prob)
        states = np.array(prob.initial, dtype=complex)
        phis = op.to_spectral(states)
        phi1 = phis[1] if len(phis) > 1 else np.zeros(op.dimension, complex)
        loop = _loop_caputo(terms, False, grid, phis, spec_fvals)
        injected = 1.01 * loop[:start] if inject else None
        ref = _loop_caputo(terms, False, grid, phis, spec_fvals, injected)
        if matrix:
            state_injected = None if injected is None else op.from_spectral(injected)
            dense = [(alpha, _dense(op, vals)) for alpha, vals in terms]
            state_ref = _loop_caputo(dense, True, grid, states, fvals, state_injected)
        system = oracles._BlockSystem(oracles._caputo_terms(terms, grid), grid)
        got = oracles._march(system, phis[0], phi1, forcing_at, injected)
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))
    if matrix:
        back = op.from_spectral(got)
        assert np.max(np.abs(back - state_ref)) <= 1e-12 * np.max(np.abs(state_ref))


def _two_chain_start(systems, half, march):
    """The warm start extrapolated only at the end: the chains of L and of
    L - 1 levels each march every level they reach (test-only reference;
    `half` goes unused)."""
    inverses = oracles._block_inverses(np.concatenate([s.coeffs for s in systems]))
    inverses = np.split(inverses, len(systems))
    chains, steps = [], 0
    for first in (0, 1):
        u = None
        for system, inverse in zip(systems[first:], inverses[first:]):
            steps += system.grid.n if u is None else system.grid.n // 2
            u = march(system, inverse, u)[::2]
        chains.append(u)
    return 2.0 * chains[0] - chains[1], steps


def _peak_relative(a, b):
    """Largest |a - b| at a node over the running peak of b."""
    peak = np.maximum.accumulate(np.max(np.abs(b), axis=1))
    d = np.max(np.abs(a - b), axis=1)
    assert np.all(d[peak == 0] == 0)
    return float(np.max(d[peak > 0] / peak[peak > 0]))


@pytest.mark.parametrize("n", [64, 512, 4096])
@pytest.mark.parametrize("case", sorted(_MARCH_CASES) + ["gl", "gl_multiplier", "growth"])
def test_warm_start_matches_two_chain_start(monkeypatch, case, n):
    # the march is affine in its start states and forcing, and 2 - 1 = 1:
    # extrapolating where the two chains meet gives the start extrapolated
    # at the end, in (L + 2) S / 2 steps instead of (2 L + 1) S / 2
    grid = TimeGrid(1.3, n)
    if case.startswith("gl"):
        oracle = oracle_rl
        op = _MODES if case == "gl_multiplier" else _COMPLEX_PAIR
        prob = rl_problem(op, n=n, t_end=1.3, profile=Sine(2.0))
    else:
        oracle = oracle_caputo
        if case == "growth":  # D^(3/2) u - 2 u = f grows like exp(2^(2/3) t)
            op, data = MatrixOperator(np.array([[-2.0]])), [np.array([1.0]), np.array([0.5])]
            measure = OrderMeasure(1.5, (Atom(0.0, 1.0, identity_symbol()),))
        else:
            op, measure, data = _MARCH_CASES[case]
        forcing = Forcing(Sine(2.0), np.linspace(1.0, 0.5, op.dimension))
        prob = CauchyProblem(op, measure, data, forcing, grid)
    warm_start = oracles._warm_start

    def ulp_where_chains_meet(systems, half, march):
        def noisy(system, inverse, injected):
            if system is systems[1]:  # the start of level L - 1, one ulp off
                rng = np.random.default_rng(0)
                injected = injected * (1.0 + 2.0**-52 * rng.standard_normal(injected.shape))
            return march(system, inverse, injected)

        return warm_start(systems, half, noisy)

    path = oracle(prob)
    with monkeypatch.context() as mp:
        mp.setattr(oracles, "_warm_start", _two_chain_start)
        ref = oracle(prob)
        mp.setattr(oracles, "_warm_start", ulp_where_chains_meet)
        noisy = oracle(prob)
    cells = min(max(n // 16, 1), 128)
    levels = path.diagnostics["warm_refine"].bit_length() - 1
    assert path.diagnostics["warm_steps"] == (levels + 2) * 2 * cells
    assert ref.diagnostics["warm_steps"] == (2 * levels + 1) * 2 * cells
    # within 1e-12 of the running peak, or within the round-off of the fine
    # levels that the scheme carries to the later nodes: on the backward
    # second difference (d2) at n = 4096 one ulp where the chains meet moves
    # the path by 7e-11 of its peak, and the starts differ by as much
    drift = _peak_relative(noisy.states, path.states)
    assert _peak_relative(path.states, ref.states) <= max(1e-12, 4.0 * drift)


@pytest.mark.parametrize("case", ["l1", "l2_phi1"])
def test_operator_residual_matches_step_loop(case):
    # the residual walks the march's blocks and far field; on a long grid it
    # matches the per-step history sums over all earlier differences
    op, measure, data = _MARCH_CASES[case]
    n = 16 * oracles._BLOCK + 5
    grid = TimeGrid(1.3, n)
    prob = CauchyProblem(op, measure, data, Forcing(Sine(2.0), np.ones(op.dimension)), grid)
    rng = np.random.default_rng(3)
    u = rng.standard_normal((n + 1, op.dimension)) + 1j * rng.standard_normal((n + 1, op.dimension))
    got = operator_residual(prob, SolutionPath(grid, u))
    terms = [(alpha, _dense(op, vals)) for alpha, vals in oracles._term_operators(prob)]
    schemes = [_LoopScheme(alpha, grid.h, n) for alpha, _ in terms]
    phi1 = np.asarray(data[1], dtype=complex) if len(data) > 1 else np.zeros(op.dimension)
    d1 = u[1:] - u[:-1]
    s2 = np.empty_like(d1)
    s2[0] = 2.0 * u[1] - 2.0 * u[0] - 2.0 * grid.h * phi1
    s2[1:] = u[2:] - 2.0 * u[1:-1] + u[:-2]
    ref = -prob.forcing.values(grid.nodes[1:]).astype(complex)
    for step in range(1, n + 1):
        for sch, (_, f) in zip(schemes, terms):
            ref[step - 1] += f @ (sch.coef(step) * u[step] + sch.history(step, u, d1, s2, phi1))
    assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


def _exact_weight(mp, scheme, alpha, d):
    """Weight at distance d of the L1, L2 or Grunwald-Letnikov scheme with
    unit step, at the caller's precision (test-only reference)."""
    a = mp.mpf(alpha)
    if scheme == "gl":
        return mp.gamma(d - a) / (mp.gamma(-a) * mp.gamma(d + 1))
    r = 1 if scheme == "l1" else 2
    return ((mp.mpf(d) + 1) ** (r - a) - mp.mpf(d) ** (r - a)) * mp.rgamma(r + 1 - a)


@pytest.mark.parametrize("n", [2048, 16384])
@pytest.mark.parametrize("scheme", ["l1", "l2", "gl"])
def test_sum_of_exponentials_matches_long_weights(scheme, n):
    # the far field of every long term against 40-digit weights, relative,
    # at all distances from D0 = block + 1 on; wide systems take shorter
    # blocks (D0 = 23 for 128 modes, D0 = 2 for one-step blocks)
    mp = pytest.importorskip("mpmath")
    alphas = (0.05, 0.3, 0.5, 0.7, 0.95)
    worst = 0.0
    for alpha in alphas if scheme != "l2" else [1.0 + a for a in alphas]:
        if scheme == "gl":
            term = oracles._gl_terms(alpha, np.ones(1), TimeGrid(float(n), n))[0]
        else:
            term = oracles._caputo_term(alpha, np.ones(1), 1.0, n)
        kind, a, scale = term.tail
        for d0 in (2, 23, oracles._BLOCK + 1):
            d = np.unique(np.concatenate([np.arange(d0, d0 + 64), np.geomspace(d0, n, 64).round(), [n]]))
            lam, w = oracles._soe(kind, a, d0, n)
            got = scale * (np.exp(-np.outer(d, lam)) @ w)
            with mp.workdps(40):
                for dd, g in zip(d.astype(int).tolist(), got):
                    ref = _exact_weight(mp, scheme, alpha, dd)
                    worst = max(worst, float(abs(mp.mpf(g) / ref - 1)))
    assert worst <= 1e-14


def test_oracle_overflow_raises_step_error_without_warnings():
    # lambda = -30 grows like exp(900 t): the march must stop with a typed
    # error at the first non-finite step, not warn about overflow
    prob = CauchyProblem(
        MatrixOperator(np.array([[-30.0]])), RELAX, [np.array([1.0])], None, TimeGrid(1.0, 1024)
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSolveError, match=r"non-finite state at step \d+"):
            oracle_caputo(prob)


@pytest.mark.parametrize(
    "op", [MatrixOperator(np.array([[-4.0]])), FourierMultiplier.from_callable(lambda xi: -4.0 + 0.0 * xi, 4)]
)
def test_singular_first_step_raises_step_error(op):
    # h^-1/2 + B = 0 at h = 1/16: the first step has no solution
    prob = rl_problem(op, n=16)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSolveError, match="step 1"):
            oracle_rl(prob)


def test_singular_block_matrix_raises_step_error():
    # mu = 3/2: step 1 weighs u_1 by 2c + lambda, later steps by c + lambda
    h = 1.0 / 16
    lam = -(h**-1.5 * rgamma(1.5))
    prob = CauchyProblem(
        MatrixOperator(np.array([[lam]])),
        OrderMeasure(1.5, (Atom(0.0, 1.0, identity_symbol()),)),
        [np.array([1.0]), np.array([0.0])],
        None,
        TimeGrid(1.0, 16),
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(StepSolveError, match="step 2"):
            oracle_caputo(prob)


def test_oracle_memory_on_wide_spectrum():
    # 128-mode advection-diffusion: states, their differences and one block
    # inverse of about 1 MB, not full-length temporaries
    op = FourierMultiplier.from_callable(lambda xi: 1j * xi + xi**2, 128)
    x = op.grid_points
    prob = CauchyProblem(
        op, RELAX, [np.exp(np.cos(x))], Forcing(Constant(1.0), np.sin(x)), TimeGrid(1.0, 512)
    )
    oracle_caputo(prob)
    tracemalloc.start()
    try:
        oracle_caputo(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


# ---------------------------------------------------------------------------
# batched kernel calls against one scalar-z call per spectral component


def _one_component_at_a_time(mp):
    """Make the routes evaluate as they did one component at a time: each
    component in its own run, its kernels by a scalar-z
    `solution_symbol_path` call per datum index or kernel, in the order the
    route asks for them (test-only reference)."""

    def scalar_calls(measure, k, t, z, **kw):
        return np.stack(
            [kernels.solution_symbol_path(measure, k, t, complex(zc.flat[0]), **kw)
             for zc in np.asarray(z)]
        )

    def scalar_symbols(measure, requests, t, z):
        return [scalar_calls(measure, k, t, z, shift=shift) for k, shift in requests]

    def one_per_run(comps, points):
        return [comps[i : i + 1] for i in range(len(comps))]

    mp.setattr(solver, "solution_symbol_path", scalar_calls)
    mp.setattr(solver, "solution_symbols", scalar_symbols)
    mp.setattr(solver, "_chunks", one_per_run)


def _per_component(monkeypatch, route, problem):
    with monkeypatch.context() as mp:
        _one_component_at_a_time(mp)
        return route(problem)


_TWO_ATOM = OrderMeasure(
    1.8, (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol()))
)
_MULTI = OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),))

# route, measure, number of data, forcing profile (None: unforced), flavor
_ROUTE_CASES = {
    "repr-data": (solve_repr, RELAX, 1, None, "caputo"),
    "repr-forced": (solve_repr, _MULTI, 2, Polynomial([0.0, 1.0]), "caputo"),
    "homogeneous": (solve_homogeneous, _MULTI, 2, None, "caputo"),
    "duhamel": (duhamel_caputo, RELAX, 0, Constant(1.0), "caputo"),
    "duhamel-zero": (duhamel_caputo_zero, _MULTI, 0, Polynomial([0.0, 1.0]), "caputo"),
    "duhamel-integer": (duhamel_integer, CLASSICAL2, 0, Sine(1.0), "caputo"),
    "duhamel-rl": (duhamel_rl, RELAX, 0, Exponential(-1.0), RIEMANN_LIOUVILLE),
    "two-atom-repr": (solve_repr, _TWO_ATOM, 2, Polynomial([0.0, 1.0]), "caputo"),
    "two-atom-homogeneous": (solve_homogeneous, _TWO_ATOM, 2, None, "caputo"),
    "two-atom-duhamel": (duhamel_caputo, _TWO_ATOM, 0, Polynomial([0.0, 1.0]), "caputo"),
}


def _test_operator(kind: str):
    if kind == "fourier":  # complex spectrum (xi^2 + i xi) / 16, |lambda| up to 4.5
        return FourierMultiplier.from_callable(lambda xi: (xi**2 + 1j * xi) / 16, 16)
    p = np.eye(3) + 0.3 * np.random.default_rng(7).standard_normal((3, 3))
    return MatrixOperator.from_eigensystem([0.7, 2.0 + 1.5j, 2.0 - 1.5j], p)


@pytest.mark.parametrize("kind", ["fourier", "matrix"])
@pytest.mark.parametrize("case", list(_ROUTE_CASES))
def test_batched_routes_match_one_call_per_component(monkeypatch, kind, case):
    route, measure, n_data, profile, flavor = _ROUTE_CASES[case]
    op = _test_operator(kind)
    rng = np.random.default_rng(11)
    vec = lambda: rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    m = measure.m
    initial = [vec() if k < n_data else np.zeros(op.dimension) for k in range(m)]
    forcing = Forcing(profile, vec()) if profile is not None else None
    prob = CauchyProblem(op, measure, initial, forcing, TimeGrid(1.0, 64), flavor)
    batched = route(prob).states
    reference = _per_component(monkeypatch, route, prob).states
    assert np.max(np.abs(reference)) > 0
    if len(measure.atoms) <= 1:
        assert batched.tobytes() == reference.tobytes()
    else:  # Talbot kernels
        assert np.max(np.abs(batched - reference)) <= 1e-15 * np.max(np.abs(reference))


@pytest.mark.parametrize(
    "route,measure,eigs,data,message",
    [
        (solve_repr, RELAX, [1.0, -30.0, -60.0], None,
         "S_0(t, z) is not finite at t = 0.812788115089895 for z = (-30+0j)"),
        (solve_homogeneous, RELAX, [1.0, -30.0, -60.0], [[1.0, 1.0, 1.0]],
         "S_0(t, z) is not finite at t = 0.8125 for z = (-30+0j)"),
        (duhamel_caputo, RELAX, [1.0, -30.0, -60.0], None,
         "S_0(t, z) is not finite at t = 0.8125 for z = (-30+0j)"),
        # the first growth component has no datum 0: its S_1 fails first,
        # although S_0 of the next component is evaluated in an earlier call
        (solve_homogeneous, _MULTI, [1.0, -2000.0, -3000.0],
         [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]],
         "S_1(t, z) is not finite at t = 0.71875 for z = (-2000+0j)"),
        (duhamel_rl, RELAX, [1.0, -30.0, -60.0], None,
         "S_0(t, z) is not finite at t = 0.8125 for z = (-30+0j)"),
    ],
)
def test_batched_routes_name_the_first_failing_component(
    monkeypatch, route, measure, eigs, data, message
):
    # two failing components; the message is the one the per-component loop
    # raised, on the first of them
    op = MatrixOperator.from_eigensystem(eigs, np.eye(3))
    grid = TimeGrid(1.0, 32)
    flavor = RIEMANN_LIOUVILLE if route is duhamel_rl else "caputo"
    if data is None:
        forcing = Forcing(Constant(1.0), np.ones(3))
        prob = CauchyProblem(op, measure, [np.zeros(3)] * measure.m, forcing, grid, flavor)
    else:
        prob = CauchyProblem(op, measure, [np.array(v) for v in data], None, grid)
    with pytest.raises(BlowupError) as batched:
        route(prob)
    with pytest.raises(BlowupError) as reference:
        _per_component(monkeypatch, route, prob)
    assert str(batched.value) == str(reference.value)
    assert message in str(batched.value)


def _contour_zero(node: int, t: float) -> complex:
    """The z for which Delta(s, z) = s^1.8 + 0.7 z + 0.4 z s^0.7 of
    `_TWO_ATOM` vanishes on upper Talbot node `node` at time t."""
    s0 = kernels._TALBOT_NODES / t * kernels._TALBOT_W[node]
    return complex(-(s0**1.8) / (0.7 + 0.4 * s0**0.7))


@pytest.mark.parametrize(
    "route,data",
    [
        # the first failing component has no datum 0; its S_1 needs the
        # contour there all the same
        (solve_homogeneous, [[1.0, 0.0, 1.0], [1.0, 1.0, 1.0]]),
        (solve_repr, [[1.0, 1.0, 1.0], [0.0, 0.0, 0.0]]),
        (duhamel_caputo, None),
    ],
)
def test_batched_contour_routes_name_the_first_failing_component(monkeypatch, route, data):
    # zeros of Delta on the contour at t = 1/2 for the last two components:
    # the |Delta| monitor fails on both, and the batched kernels raise what
    # the per-component loop raised, on the first of them
    eigs = [1.0, _contour_zero(3, 0.5), _contour_zero(10, 0.5)]
    op = MatrixOperator.from_eigensystem(eigs, np.eye(3))
    grid = TimeGrid(1.0, 32)
    if data is None:
        forcing = Forcing(Polynomial([0.0, 1.0]), np.ones(3))
        prob = CauchyProblem(op, _TWO_ATOM, [np.zeros(3)] * 2, forcing, grid)
    else:
        prob = CauchyProblem(op, _TWO_ATOM, [np.array(v) for v in data], None, grid)
    with pytest.raises(InversionError) as batched:
        route(prob)
    with pytest.raises(InversionError) as reference:
        _per_component(monkeypatch, route, prob)
    assert str(batched.value) == str(reference.value)
    assert "on the inversion contour at t = 0.5;" in str(batched.value)
    assert batched.value.z == eigs[1]


def test_contour_failure_of_a_component_without_data_does_not_raise(monkeypatch):
    # the failing components carry no datum at all: none of their kernels
    # is asked for, and the solve equals the per-component one
    eigs = [1.0, _contour_zero(3, 0.5), 2.0, _contour_zero(10, 0.5)]
    op = MatrixOperator.from_eigensystem(eigs, np.eye(4))
    data = [np.array([1.0, 0.0, 1.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])]
    prob = CauchyProblem(op, _TWO_ATOM, data, None, TimeGrid(1.0, 32))
    batched = solve_homogeneous(prob).states
    reference = _per_component(monkeypatch, solve_homogeneous, prob).states
    assert np.max(np.abs(batched - reference)) <= 1e-15 * np.max(np.abs(reference))
    assert np.all(batched[:, [1, 3]] == 0)


@pytest.mark.parametrize("order", [[0, 1], [1, 0]])
def test_symbol_failure_before_a_monitor_failure_comes_first(monkeypatch, order):
    # at t = 1e170 the contour overflows to nan for z = 1e10 (not finite)
    # while |Delta| of z = 1e-300 falls below the monitor's floor: whichever
    # component comes first names the error, as in the per-component loop,
    # although the monitor stops the batched kernel call on either; on the
    # homogeneous route and on forced repr alike
    eigs = np.array([1e10, 1e-300])[order]
    op = MatrixOperator.from_eigensystem(eigs, np.eye(2))
    grid = TimeGrid(2e170, 2)
    forcing = Forcing(Constant(1.0), np.ones(2))
    expected = BlowupError if eigs[0] == 1e10 else InversionError
    for route, prob in [
        (solve_homogeneous, CauchyProblem(op, _TWO_ATOM, [np.ones(2), np.zeros(2)], None, grid)),
        (solve_repr, CauchyProblem(op, _TWO_ATOM, [np.zeros(2)] * 2, forcing, grid)),
    ]:
        with pytest.raises(expected) as batched:
            route(prob)
        with pytest.raises(expected) as reference:
            _per_component(monkeypatch, route, prob)
        assert str(batched.value) == str(reference.value)
        assert batched.value.z == eigs[0]


@pytest.mark.parametrize("case", ["homogeneous", "repr-forced", "duhamel-rl", "two-atom-duhamel"])
def test_a_non_finite_batched_value_reruns_one_component_at_a_time(monkeypatch, case):
    # the batched evaluation returns a nan at a point a call asks for while
    # every single-component evaluation is finite: the route evaluates its
    # symbols again one component at a time and solves as that loop does
    route, measure, n_data, profile, flavor = _ROUTE_CASES[case]
    op = _test_operator("matrix")
    rng = np.random.default_rng(5)
    vec = lambda: rng.standard_normal(op.dimension) + 1j * rng.standard_normal(op.dimension)
    initial = [vec() if k < n_data else np.zeros(op.dimension) for k in range(measure.m)]
    forcing = Forcing(profile, vec()) if profile is not None else None
    prob = CauchyProblem(op, measure, initial, forcing, TimeGrid(1.0, 64), flavor)
    batched_symbols = solver.solution_symbols
    poisoned = []

    def with_nan(*args):
        values = batched_symbols(*args)
        values[-1][-1, -1] = np.nan  # the last component of the last call
        poisoned.append(len(values))
        return values

    monkeypatch.setattr(solver, "solution_symbols", with_nan)
    states = route(prob).states
    reference = _per_component(monkeypatch, route, prob).states
    assert poisoned and np.all(np.isfinite(states))
    if len(measure.atoms) <= 1:
        assert states.tobytes() == reference.tobytes()
    else:  # Talbot kernels
        assert np.max(np.abs(states - reference)) <= 1e-15 * np.max(np.abs(reference))


def test_two_datum_contour_solve_takes_delta_once_per_point(monkeypatch):
    # S_0 and S_1 of the two-atom measure need the kernels of exponents 0.8,
    # -0.3 and -0.2; one kernel evaluation takes Delta and |Delta| on each
    # (t, z) point once for all three.  Real eigenvalues add no mirror rows
    rows = []
    half_sums = kernels._half_sums

    def counted(p, *args):
        rows.append(p.shape[0])
        return half_sums(p, *args)

    monkeypatch.setattr(kernels, "_half_sums", counted)
    op = MatrixOperator.from_eigensystem([0.5, 2.0, 7.0], np.eye(3))
    grid = TimeGrid(1.0, 600)  # two time blocks per component
    solve_homogeneous(CauchyProblem(op, _TWO_ATOM, [np.ones(3), np.ones(3)], None, grid))
    assert sum(rows) == 3 * grid.n


@pytest.mark.parametrize(
    "route",
    [
        solve_homogeneous,
        solve_repr,
        duhamel_caputo,
        duhamel_caputo_zero,
        duhamel_integer,
        duhamel_rl,
        oracle_caputo,
        oracle_rl,
    ],
)
def test_routes_reject_an_ill_conditioned_basis_on_every_call(route):
    # the basis is checked on first use and kept only once it passed: a
    # Hilbert basis (condition 1.5e10) given to `from_eigensystem`, and a
    # nearly defective matrix, fail every call of every route
    i = np.arange(8)
    ops = [
        MatrixOperator.from_eigensystem(np.linspace(0.5, 3.0, 8), 1.0 / (i[:, None] + i + 1)),
        MatrixOperator(np.array([[1.0, 1.0], [1e-14, 1.0]])),
    ]
    mu = 1.0 if route is duhamel_integer else 0.5
    flavor = RIEMANN_LIOUVILLE if route in (duhamel_rl, oracle_rl) else "caputo"
    measure = OrderMeasure(mu, (Atom(0.0, 1.0, identity_symbol()),))
    for op in ops:
        d = op.dimension
        forcing = None
        if route is not solve_homogeneous:
            forcing = Forcing(Polynomial([0.0, 1.0]), np.ones(d))
        prob = CauchyProblem(op, measure, [np.zeros(d)], forcing, TimeGrid(1.0, 16), flavor)
        for _ in range(2):
            with pytest.raises(CapabilityError, match="too ill-conditioned"):
                route(prob)


@pytest.mark.parametrize(
    "route",
    [
        solve_repr,
        duhamel_caputo,
        duhamel_caputo_zero,
        duhamel_integer,
        duhamel_rl,
        oracle_caputo,
    ],
)
@pytest.mark.parametrize(
    "symbol", [PowerSymbol(0.5), RationalSymbol([1.0], [1.0, 1.0])], ids=["cut", "pole"]
)
def test_routes_reject_eigenvalue_outside_symbol_domain(route, symbol):
    # lambda = -1 lies on the cut of the square root and on the pole of
    # 1 / (1 + z); kernel routes and oracle must raise, not answer, also
    # without forcing, where the Duhamel routes have nothing to integrate
    mu = 1.0 if route is duhamel_integer else 0.5
    flavor = RIEMANN_LIOUVILLE if route is duhamel_rl else "caputo"
    measure = OrderMeasure(mu, (Atom(0.0, 1.0, symbol),))
    op = MatrixOperator(np.diag([-1.0, 2.0]))
    # h(0) = 0 suits duhamel_caputo_zero; the other routes take h = 1
    profile = Polynomial([0.0, 1.0]) if route is duhamel_caputo_zero else Constant(1.0)
    for forcing in (Forcing(profile, np.ones(2)), None):
        prob = CauchyProblem(op, measure, [np.zeros(2)], forcing, TimeGrid(1.0, 16), flavor)
        with pytest.raises(DomainError, match="eigenvalue \\(-1\\+0j\\) lies outside"):
            route(prob)


def test_forced_repr_memory_on_wide_spectrum():
    # 128-mode advection-diffusion with data and low-mode forcing at n = 256:
    # kernel calls over many components stay within 10% of the peak of one
    # call per component (13.75 MB)
    modes = 128
    rng = np.random.default_rng(1)
    op = FourierMultiplier.from_callable(lambda xi: xi**2 + 1j * xi, modes, 2 * np.pi)
    k = np.abs(np.fft.fftfreq(modes, d=1.0 / modes))
    field = lambda w: np.fft.ifft(modes * w * np.exp(2j * np.pi * rng.random(modes)))
    prob = CauchyProblem(
        op, RELAX, [field(np.exp(-k / 12.0))],
        Forcing(Constant(1.0), field((k <= 3).astype(float))), TimeGrid(1.0, 256),
    )
    solve_repr(CauchyProblem(op, RELAX, prob.initial, prob.forcing, TimeGrid(1.0, 8)))
    tracemalloc.start()
    try:
        solve_repr(prob)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.1 * 13.75 * 2**20, peak


# ---------------------------------------------------------------------------
# Duhamel engine: observed order and the split of the datum


_FIRST_ORDER = OrderMeasure(1.0, (Atom(0.0, 1.0, identity_symbol()),))


def _forced(op, measure, profile, n, flavor="caputo"):
    return CauchyProblem(
        op, measure, [np.zeros(op.dimension)] * measure.m,
        Forcing(profile, np.ones(op.dimension)), TimeGrid(1.0, n), flavor,
    )


# route, measures, forcing profiles (e^t and cos 3t; sin 3t where h(0) = 0)
_ORDER_CASES = {
    "duhamel": (duhamel_caputo, [RELAX, _TWO_ATOM], [Exponential(1.0), Cosine(3.0)]),
    "duhamel-zero": (duhamel_caputo_zero, [_MULTI, _TWO_ATOM], [Sine(3.0)]),
    "duhamel-integer": (duhamel_integer, [_FIRST_ORDER, CLASSICAL2],
                        [Exponential(1.0), Cosine(3.0)]),
    "duhamel-rl": (duhamel_rl, [RELAX], [Exponential(1.0), Cosine(3.0)]),
}


@pytest.mark.parametrize("route", list(_ORDER_CASES))
def test_duhamel_routes_converge_at_second_order(route):
    # the change from n to 2n, relative to the peak, falls fourfold: the
    # singular part of the datum is integrated exactly, its C^1 remainder
    # by the piecewise-linear product rule
    fn, measures, profiles = _ORDER_CASES[route]
    op = MatrixOperator(np.diag([0.3, 3.0]))
    flavor = RIEMANN_LIOUVILLE if fn is duhamel_rl else "caputo"
    for measure in measures:
        for profile in profiles:
            paths = [fn(_forced(op, measure, profile, n, flavor=flavor)).states
                     for n in (256, 512, 1024, 2048)]
            peak = np.max(np.abs(paths[-1]))
            steps = [np.max(np.abs(coarse - fine[::2])) / peak
                     for coarse, fine in zip(paths, paths[1:])]
            orders = np.log2(np.array(steps[:-1]) / np.array(steps[1:]))
            assert np.all((1.8 <= orders) & (orders <= 2.2)), (measure.mu, profile, orders)


@pytest.mark.parametrize("measure", [RELAX, _MULTI, _TWO_ATOM], ids=["relax", "multi", "talbot"])
def test_duhamel_power_forcing_matches_repr(measure):
    # h = t^0.5 has h'(0) infinite: its datum splits off whole into one
    # exact kernel, so only repr's quadrature error is left
    from fraccauchy import Power

    prob = _forced(MatrixOperator(np.diag([0.3, 3.0])), measure, Power(0.5), 1024)
    ref = solve_repr(prob).states
    for route in (duhamel_caputo, duhamel_caputo_zero):
        got = route(prob).states
        assert np.max(np.abs(got - ref)) < 2e-5 * np.max(np.abs(ref))


@pytest.mark.parametrize("measure", [RELAX, _MULTI, _TWO_ATOM], ids=["relax", "multi", "talbot"])
def test_duhamel_on_growth_spectrum_matches_repr(measure):
    prob = _forced(MatrixOperator(np.diag([-2.0, -5.0])), measure, Exponential(1.0), 1024)
    ref = solve_repr(prob).states
    got = duhamel_caputo(prob).states
    assert np.max(np.abs(got - ref)) < 1e-4 * np.max(np.abs(ref))


def test_duhamel_sampled_forcing_matches_exponential():
    # a sampled e^t takes h'(0) and the Caputo datum from finite
    # differences of its samples; the route follows the exact profile
    # within their O(h^2) error
    from fraccauchy import Sampled, ScalarPath

    op = MatrixOperator(np.diag([0.3, 3.0]))
    gaps = []
    for n in (256, 512):
        exact = _forced(op, RELAX, Exponential(1.0), n)
        nodes = exact.grid.nodes
        sampled = _forced(op, RELAX, Sampled(ScalarPath(exact.grid, np.exp(nodes) + 0j)), n)
        ref = duhamel_caputo(exact).states
        gaps.append(np.max(np.abs(duhamel_caputo(sampled).states - ref)) / np.max(np.abs(ref)))
    assert gaps[0] < 2.5e-6
    assert gaps[1] < gaps[0] / 3.5


# ---------------------------------------------------------------------------
# representation route: accuracy against high-precision references


def test_repr_error_on_constant_forcing_falls_with_n():
    # relaxation_forced: D^(1/2) u + u = 1 on [0, 2], u = 1 - e^t erfc(sqrt t);
    # the cell rule's error falls about like h (6e-14 at n = 64)
    errs = []
    for n in (64, 256, 1024, 4096):
        grid = TimeGrid(2.0, n)
        forcing = Forcing(Constant(1.0), np.array([1.0]))
        path = solve_repr(CauchyProblem(SCALAR_ONE, RELAX, [np.zeros(1)], forcing, grid))
        exact = 1.0 - relax_exact(grid.nodes)
        errs.append(np.max(np.abs(path.states[:, 0] - exact)) / np.max(np.abs(exact)))
    assert max(errs) <= 1e-11, errs
    assert errs[-1] <= errs[0] / 10, errs


@functools.lru_cache(maxsize=None)
def _forced_ml_reference(mu: float, lam: complex, rate: complex, t: float) -> complex:
    """u(t) of D^mu u + lam u = e^(rate t) with zero data, to about 30 digits.

    u is the Mittag-Leffler kernel s^(mu-1) E_(mu,mu)(-lam s^mu) convolved
    with e^(rate s), term by term in the kernel's series:

        u(t) = t^mu sum_k z^k S_k,  z = -lam t^mu,
        S_k = sum_j (rate t)^j / Gamma(b_k + j),  b_k = mu (k + 1) + 1.

    2 mu must be an integer d.  Then b_(k+2) = b_k + d, so the S_k follow
    backward from the last k by S_k = sum_(i<d) (rate t)^i / Gamma(b_k + i)
    + (rate t)^d S_(k+2), and only 1 / Gamma(b_0) and 1 / Gamma(b_1) need
    mpmath's rgamma.  The terms of the k-sum reach e^x, x = |z|^(1/mu), so
    the working precision carries x / 2.3 more digits, as in `ml_series`.
    """
    mp = pytest.importorskip("mpmath")
    d = round(2 * mu)
    assert d == 2 * mu
    x = abs(lam) ** (1.0 / mu) * t
    with mp.workdps(40 + int(x / 2.3)):
        mu_, t_ = mp.mpf(mu), mp.mpf(t)
        z = -mp.mpmathify(lam) * t_**mu_
        a = mp.mpmathify(rate) * t_
        tiny = mp.mpf(10) ** -35
        r, size, k = [], mp.mpf(1), 0  # r[k][i] = 1 / Gamma(b_k + i), i < d
        while True:
            b = mu_ * (k + 1) + 1
            row = [mp.rgamma(b) if k < 2 else r[k - 2][-1] / (b - 1)]
            for i in range(1, d):
                row.append(row[-1] / (b + i - 1))
            r.append(row)
            if k > x / mu + 10 and size * abs(row[0]) * mp.exp(abs(a)) < tiny:
                break
            size *= abs(z)
            k += 1
        s = [0] * (len(r) + 2)
        for k in range(len(r) - 1, -1, -1):
            s[k] = sum(a**i * r[k][i] for i in range(d)) + a**d * s[k + 2]
        return complex(mp.fsum(z**k * s[k] for k in range(len(r))) * t_**mu_)


def test_forced_ml_reference_matches_closed_forms():
    # mu = 1/2, f = 1: 1 - e^t erfc(sqrt t); mu = 1, f = e^t: (e^t - e^-2t) / 3
    assert abs(_forced_ml_reference(0.5, 1.0, 0.0, 1.0) - (1.0 - relax_exact(1.0))) < 1e-15
    exact = (np.exp(0.5) - np.exp(-1.0)) / 3.0
    assert abs(_forced_ml_reference(1.0, 2.0, 1.0, 0.5) - exact) < 1e-15


_REPR_EIGS = [1.0, 30.0, -2.0, 3.0 + 4.0j]


@pytest.mark.parametrize("mu", [0.5, 1.5])
@pytest.mark.parametrize(
    "profile,rates", [(Exponential(1.0), (1.0,)), (Cosine(3.0), (3j, -3j))], ids=["exp", "cos"]
)
@pytest.mark.parametrize("n", [2, 3, 64])
def test_repr_matches_mittag_leffler_convolution(mu, profile, rates, n):
    # D^mu u + lam u = h, zero data, on decay, growth, stiff and complex
    # eigenvalues.  On the edge grids n = 2 has no interior cell and n = 3
    # one, besides node 1's half cells; a cell there is long against the
    # kernel of lam = 30 at mu = 1.5 (lam h^mu = 10.6 at n = 2, error 1.6e-10)
    measure = OrderMeasure(mu, (Atom(0.0, 1.0, identity_symbol()),))
    op = MatrixOperator.from_eigensystem(_REPR_EIGS, np.eye(4))
    initial = [np.zeros(4)] * measure.m
    prob = CauchyProblem(op, measure, initial, Forcing(profile, np.ones(4)), TimeGrid(1.0, n))
    u = solve_repr(prob).states
    nodes = [n // 4, n // 2, n] if n % 4 == 0 else list(range(1, n + 1))
    bound = 1e-11 if n > 3 else 1e-9
    for j, lam in enumerate(_REPR_EIGS):
        ref = np.array(
            [np.mean([_forced_ml_reference(mu, lam, r, i / n) for r in rates]) for i in nodes]
        )
        err = np.max(np.abs(u[nodes, j] - ref)) / np.max(np.abs(ref))
        assert err <= bound, (lam, err)
