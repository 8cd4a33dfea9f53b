"""Fractional calculus on grids, checked against independent quadrature.

Derived reference values come from the power rule
J^beta t^p = Gamma(p+1)/Gamma(p+beta+1) t^(p+beta) and from adaptive
quadrature of the defining integrals; single frozen numbers state their
closed forms inline.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as G

from fraccauchy import (
    BlowupError,
    CapabilityError,
    Constant,
    Cosine,
    DomainError,
    Exponential,
    OrderDomainError,
    Polynomial,
    Power,
    Sampled,
    ScalarPath,
    Sine,
    TimeGrid,
    caputo_derivative,
    caputo_derivative_at,
    duhamel_kth_derivative,
    frac_integral,
    frac_integral_values,
    numeric_laplace,
    rl_caputo_gap,
    rl_derivative,
    rl_derivative_at,
    solve_abel,
)

GRID = TimeGrid(1.0, 1024)
FINE = TimeGrid(1.0, 4096)


def quad_frac_integral(f, beta, t):
    """Independent oracle: adaptive quadrature of the defining integral."""
    val, _ = quad(
        lambda s: (t - s) ** (beta - 1.0) * np.real(np.asarray(f.eval(s))),
        0.0,
        t,
        points=[0.0, t],
        limit=200,
    )
    return val / G(beta)


# ---------------------------------------------------------------------------
# fractional integral


def test_frac_integral_identity_case():
    path = frac_integral(Sine(1.0), 0.0, GRID)
    assert np.allclose(path.values, np.sin(GRID.nodes))


def test_frac_integral_onefold():
    path = frac_integral(Constant(1.0), 1.0, GRID)
    assert np.max(np.abs(path.values - GRID.nodes)) < 1e-14


def test_frac_integral_half_of_one():
    # power rule: J^0.5 1 = t^0.5 / Gamma(1.5), value 2/sqrt(pi) at t = 1
    path = frac_integral(Constant(1.0), 0.5, GRID)
    assert abs(path.values[-1] - 1.1283791670955126) < 1e-12
    assert abs(path.values[-1] - quad_frac_integral(Constant(1.0), 0.5, 1.0)) < 1e-9


def test_frac_integral_power_rule_random_orders():
    for beta in (0.3, 0.7, 1.4):
        for p in (1.0, 2.0):
            path = frac_integral(Polynomial([0.0] * int(p) + [1.0]), beta, GRID)
            exact = G(p + 1) / G(p + beta + 1) * GRID.nodes ** (p + beta)
            assert np.max(np.abs(path.values - exact)) < 2e-6


def test_frac_integral_quadrature_oracle_on_sine():
    path = frac_integral(Sine(1.0), 0.6, GRID)
    for idx in (256, 700, 1024):
        t = GRID.nodes[idx]
        assert abs(path.values[idx] - quad_frac_integral(Sine(1.0), 0.6, t)) < 1e-6


def test_frac_integral_singular_power():
    # J^0.5 t^-0.5 = Gamma(0.5), constant in t
    path = frac_integral(Power(-0.5), 0.5, GRID)
    assert np.max(np.abs(path.values - G(0.5))) < 1e-12


def test_frac_integral_rejections():
    with pytest.raises(OrderDomainError):
        frac_integral(Constant(1.0), -0.1, GRID)
    other = TimeGrid(2.0, 64)
    sampled = Sampled(ScalarPath(other, np.zeros(65)))
    from fraccauchy import GridMismatchError

    with pytest.raises(GridMismatchError):
        frac_integral(sampled, 0.5, GRID)


@given(
    a=st.sampled_from([0.3, 0.5, 1.0]),
    b=st.sampled_from([0.3, 0.5, 1.0]),
)
def test_semigroup_property(a, b):
    f = Sine(1.0)
    inner = frac_integral(f, b, GRID)
    composed = frac_integral_values(inner.values, a, GRID.h)
    direct = frac_integral(f, a + b, GRID)
    assert np.max(np.abs(composed - direct.values)) < 5e-6


def test_semigroup_tolerance_shrinks():
    f = Polynomial([0.0, 0.0, 1.0])
    errs = []
    for n in (256, 512, 1024):
        g = TimeGrid(1.0, n)
        composed = frac_integral_values(frac_integral(f, 0.5, g).values, 0.3, g.h)
        direct = frac_integral(f, 0.8, g)
        errs.append(np.max(np.abs(composed - direct.values)))
    assert errs[1] < errs[0] and errs[2] < errs[1]


# ---------------------------------------------------------------------------
# derivatives


def test_rl_integer_case():
    path = rl_derivative(Polynomial([0.0, 0.0, 1.0]), 1.0, GRID)
    assert np.max(np.abs(path.values - 2 * GRID.nodes)) < 1e-14


def test_rl_half_of_one():
    # D_+^0.5 1 = t^-0.5 / Gamma(0.5); 1/sqrt(pi) at t = 1, divergent at 0
    path = rl_derivative(Constant(1.0), 0.5, GRID)
    assert abs(path.values[-1] - 0.5641895835477563) < 1e-12
    assert np.isnan(path.values[0])


def test_rl_annihilates_matched_singular_power():
    path = rl_derivative(Power(-0.5), 0.5, GRID)
    assert np.max(np.abs(path.values)) == 0.0


def test_rl_limit_at_zero():
    # D_+^0.5 t has the finite limit 0 at t -> 0+
    path = rl_derivative(Polynomial([0.0, 1.0]), 0.5, GRID)
    assert path.values[0] == 0.0
    # matched power: D_+^0.5 t^0.5 = Gamma(1.5) everywhere
    path = rl_derivative(Power(0.5), 0.5, GRID)
    assert abs(path.values[0] - G(1.5)) < 1e-12


def test_rl_order_between_one_and_two():
    path = rl_derivative(Polynomial([0.0, 0.0, 1.0]), 1.5, GRID)
    exact = G(3.0) / G(1.5) * np.sqrt(GRID.nodes)
    assert np.max(np.abs(path.values[8:] - exact[8:])) < 2e-3


def test_rl_sampled_capability():
    sampled = Sampled(ScalarPath(GRID, np.sin(GRID.nodes)))
    path = rl_derivative(sampled, 0.5, GRID)
    ref = rl_derivative(Sine(1.0), 0.5, GRID)
    assert np.max(np.abs(path.values[1:] - ref.values[1:])) < 1e-4
    with pytest.raises(CapabilityError):
        rl_derivative(sampled, 2.5, GRID)


def test_caputo_constant_vanishes():
    path = caputo_derivative(Constant(3.0), 0.7, GRID)
    assert np.max(np.abs(path.values)) == 0.0


def test_caputo_integer_case():
    path = caputo_derivative(Sine(1.0), 2.0, GRID)
    assert np.max(np.abs(path.values + np.sin(GRID.nodes))) < 1e-14


def test_caputo_power_rule():
    # D_*^0.5 t = t^0.5 / Gamma(1.5); 2/sqrt(pi) at t = 1
    path = caputo_derivative(Polynomial([0.0, 1.0]), 0.5, GRID)
    assert abs(path.values[-1] - 1.1283791670955126) < 1e-12
    oracle = quad(lambda s: (1 - s) ** (-0.5), 0, 1, points=[1.0])[0] / G(0.5)
    assert abs(path.values[-1] - oracle) < 1e-9


def test_caputo_capability():
    sampled = Sampled(ScalarPath(GRID, GRID.nodes.astype(complex)))
    with pytest.raises(CapabilityError):
        caputo_derivative(sampled, 1.5, GRID)


def test_gap_zero_start():
    path = rl_caputo_gap(Sine(1.0), 0.5, GRID)
    assert np.max(np.abs(path.values)) == 0.0


def test_gap_constant():
    path = rl_caputo_gap(Constant(1.0), 0.5, GRID)
    assert abs(path.values[-1] - 0.5641895835477563) < 1e-15
    assert np.isnan(path.values[0])


def test_gap_two_terms():
    # f = t + 1, alpha = 1.5: 1/Gamma(-0.5) + 1/Gamma(0.5) at t = 1
    path = rl_caputo_gap(Polynomial([1.0, 1.0]), 1.5, GRID)
    expect = 1.0 / G(-0.5) + 1.0 / G(0.5)
    assert abs(expect - 0.28209479177387814) < 1e-16
    assert abs(path.values[-1] - expect) < 1e-14


def test_gap_rejects_integer_order():
    with pytest.raises(OrderDomainError):
        rl_caputo_gap(Sine(1.0), 1.0, GRID)


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize(
    "profile",
    [Constant(1.0), Polynomial([0.0, 1.0]), Polynomial([0.0, 0.0, 1.0]), Sine(1.0)],
    ids=["one", "t", "t2", "sin"],
)
def test_derivative_relation(profile, alpha):
    rl = rl_derivative(profile, alpha, FINE).values
    ca = caputo_derivative(profile, alpha, FINE).values
    gap = rl_caputo_gap(profile, alpha, FINE).values
    assert np.max(np.abs(rl[1:] - ca[1:] - gap[1:])) < 1e-3


def test_caputo_convergence_order():
    # exact on f = t (the integrand of the product rule is constant), so the
    # halving check carries a roundoff floor; f = sin shows the genuine order
    prev = None
    for n in (256, 512, 1024):
        g = TimeGrid(1.0, n)
        err = np.max(
            np.abs(
                caputo_derivative(Polynomial([0.0, 1.0]), 0.5, g).values
                - g.nodes**0.5 / G(1.5)
            )
        )
        if prev is not None:
            assert err <= 0.75 * prev + 1e-12
        prev = err
    prev = None
    for n in (256, 512, 1024):
        g = TimeGrid(1.0, n)
        ref = np.array(
            [0.0]
            + [
                quad(lambda s, tt=tt: np.cos(s) / np.sqrt(tt - s), 0, tt, points=[tt])[0]
                / G(0.5)
                for tt in g.nodes[1:]
            ]
        )
        err = np.max(np.abs(caputo_derivative(Sine(1.0), 0.5, g).values - ref))
        if prev is not None:
            assert err < 0.6 * prev
        prev = err


# ---------------------------------------------------------------------------
# Abel equation


def test_abel_zero_is_zero():
    path = solve_abel(Constant(0.0), 0.5, GRID)
    assert np.max(np.abs(path.values)) == 0.0


def test_abel_power_rhs_gives_constant():
    # J^alpha 1 = t^alpha / Gamma(alpha+1), so that right side returns u = 1
    for alpha in (0.3, 0.6):
        h = Power(alpha, 1.0 / G(alpha + 1.0))
        u = solve_abel(h, alpha, GRID)
        assert np.max(np.abs(u.values[1:] - 1.0)) < 1e-10


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("profile", [Sine(1.0), Polynomial([0.0, 0.0, 1.0])], ids=["sin", "t2"])
def test_abel_round_trip(profile, alpha):
    u = solve_abel(profile, alpha, FINE)
    back = frac_integral_values(u.values, alpha, FINE.h)
    target = np.asarray(profile.eval(FINE.nodes))
    assert np.max(np.abs(back - target)) < 1e-3


def test_abel_rejects_order():
    with pytest.raises(OrderDomainError):
        solve_abel(Sine(1.0), 1.2, GRID)


# ---------------------------------------------------------------------------
# pointwise evaluation


def test_pointwise_matches_quadrature_oracle():
    alpha = 0.4
    taus = np.array([0.3, 0.55, 0.8])
    got = rl_derivative_at(Cosine(1.0), alpha, taus)
    for tau, val in zip(taus, got):
        tail, _ = quad(
            lambda s: (tau - s) ** (-alpha) * (-np.sin(s)), 0.0, tau, points=[tau]
        )
        oracle = (tau ** (-alpha) + tail) / G(1.0 - alpha)
        assert abs(val - oracle) < 1e-10


def test_pointwise_consistent_with_grid_route():
    taus = np.array([0.3, 0.55, 0.8])
    got = rl_derivative_at(Cosine(1.0), 0.4, taus)
    grid_path = rl_derivative(Cosine(1.0), 0.4, FINE)
    idx = (taus / FINE.h).round().astype(int)
    # the grid route carries its own product-integration error
    assert np.max(np.abs(got - grid_path.values[idx])) < 5e-4


def test_pointwise_caputo_power_rule():
    taus = np.array([0.2, 0.9, 1.7])
    got = caputo_derivative_at(Polynomial([0.0, 0.0, 1.0]), 0.5, taus)
    exact = G(3.0) / G(2.5) * taus**1.5
    assert np.max(np.abs(got - exact)) < 1e-12


@pytest.mark.parametrize("profile", [Polynomial([0.3, 1.0, -0.5, 0.25]), Sine(2.0)])
@pytest.mark.parametrize("blocks, rest", [(0, 1), (0, 2), (0, 5000), (2, 1), (2, 77)])
def test_pointwise_caputo_blocks_match_one_call(monkeypatch, profile, blocks, rest):
    # the points go in blocks; each value keeps the bits of one product
    # over all points, a trailing single point included
    from fraccauchy import fracops

    taus = np.linspace(0.01, 2.0, blocks * fracops._POINT_BLOCK + rest)
    got = caputo_derivative_at(profile, 0.4, taus)
    monkeypatch.setattr(fracops, "_POINT_BLOCK", 10**9)
    assert np.array_equal(got, caputo_derivative_at(profile, 0.4, taus))


def test_pointwise_derivative_memory_is_bounded_by_its_blocks():
    # 87,040 datum points, those of a forced repr solve on 128 modes at
    # n = 1024: the (points x 24) quadrature arrays once peaked at 54 MB;
    # now a block of them takes about 7 MB, the output and its full-length
    # temporaries about 2 MB
    import tracemalloc

    taus = np.linspace(0.01, 2.0, 87_040)
    rl_derivative_at(Polynomial([0.3, 1.0, -0.5, 0.25]), 0.5, taus)
    tracemalloc.start()
    try:
        rl_derivative_at(Polynomial([0.3, 1.0, -0.5, 0.25]), 0.5, taus)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


# ---------------------------------------------------------------------------
# Duhamel integral differentiation


def test_duhamel_derivative_constant_kernel():
    g = TimeGrid(1.0, 256)
    path = duhamel_kth_derivative(lambda t, tau: np.ones(np.broadcast(t, tau).shape), 1, g)
    assert np.max(np.abs(path.values - 1.0)) < 1e-10


def test_duhamel_derivative_sine_kernel():
    g = TimeGrid(1.0, 256)
    v = lambda t, tau: np.sin(t - tau)
    d1 = duhamel_kth_derivative(v, 1, g)
    assert np.max(np.abs(d1.values - np.sin(g.nodes))) < 1e-5
    d2 = duhamel_kth_derivative(v, 2, g)
    assert np.max(np.abs(d2.values - np.cos(g.nodes))) < 1e-5


def test_duhamel_derivative_matches_central_differences():
    g = TimeGrid(1.0, 128)
    v = lambda t, tau: np.exp(-0.5 * (t - tau)) * np.cos(tau)

    def u(t, nq=4000):
        if t == 0:
            return 0.0
        s = np.linspace(0.0, t, nq)
        return np.trapezoid(np.exp(-0.5 * (t - s)) * np.cos(s), s)

    d = duhamel_kth_derivative(v, 1, g)
    eps = 1e-4
    for idx in (32, 64, 100):
        t = g.nodes[idx]
        fd = (u(t + eps) - u(t - eps)) / (2 * eps)
        assert abs(d.values[idx] - fd) < 5e-5


def test_duhamel_derivative_rejects_zero_order():
    with pytest.raises(OrderDomainError):
        duhamel_kth_derivative(lambda t, tau: t, 0, GRID)


# ---------------------------------------------------------------------------
# truncated Laplace transform


def test_laplace_of_one():
    assert abs(numeric_laplace(Constant(1.0), 2.0, 40.0) - 0.5) < 1e-10


def test_laplace_closed_forms():
    assert abs(numeric_laplace(Exponential(-1.0), 2.0, 40.0) - 1.0 / 3.0) < 1e-10
    assert abs(numeric_laplace(Polynomial([0.0, 1.0]), 1.0, 40.0) - 1.0) < 1e-8


def test_laplace_rejects_left_half_plane():
    with pytest.raises(DomainError):
        numeric_laplace(Constant(1.0), -1.0, 10.0)


def test_laplace_identity_for_caputo():
    # L[D_*^0.5 t^2](s) = s^0.5 L[t^2](s); both initial terms vanish
    gl = TimeGrid(40.0, 16384)
    ca = Sampled(caputo_derivative(Polynomial([0.0, 0.0, 1.0]), 0.5, gl))
    for s in (2.0, 5.0, 10.0):
        lhs = numeric_laplace(ca, s, 40.0)
        rhs = s**0.5 * numeric_laplace(Polynomial([0.0, 0.0, 1.0]), s, 40.0)
        assert abs(lhs - rhs) < 1e-3


def test_laplace_sampled_interpolant_is_exact_for_lines():
    g = TimeGrid(3.0, 8)
    f = Sampled(ScalarPath(g, (2.0 + 0.5 * g.nodes).astype(complex)))
    got = numeric_laplace(f, 1.5, 3.0)
    ref = quad(lambda t: np.exp(-1.5 * t) * (2.0 + 0.5 * t), 0.0, 3.0)[0]
    assert abs(got - ref) < 1e-12


def test_blowup_detection():
    bad = Sampled(ScalarPath(GRID, np.r_[np.ones(1024), np.inf]))
    with pytest.raises(BlowupError):
        frac_integral(bad, 0.5, GRID)
