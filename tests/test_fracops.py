"""Fractional integrals on grids (the test-side product rule of
`calculus`) and derivatives at points, checked against independent
quadrature.

Derived reference values come from the power rule
J^beta t^p = Gamma(p+1)/Gamma(p+beta+1) t^(p+beta) and from adaptive
quadrature of the defining integrals; single frozen numbers state their
closed forms inline.
"""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import gamma as G

from calculus import (
    duhamel_kth_derivative,
    frac_integral,
    frac_integral_values,
    numeric_laplace,
)
from fraccauchy import fracops
from fraccauchy import (
    BlowupError,
    Constant,
    Cosine,
    DomainError,
    Exponential,
    FunctionSpec,
    OrderDomainError,
    Polynomial,
    Power,
    Sampled,
    ScalarPath,
    Sine,
    TimeGrid,
    caputo_derivative_at,
    rl_derivative_at,
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
# derivatives at points


def test_rl_half_of_one():
    # D_+^0.5 1 = t^-0.5 / Gamma(0.5); 1/sqrt(pi) at t = 1, divergent at 0
    got = rl_derivative_at(Constant(1.0), 0.5, np.array([1e-8, 1.0]))
    assert abs(got[1] - 0.5641895835477563) < 1e-12
    assert abs(got[0] / 1e4 - 0.5641895835477563) < 1e-12


@pytest.mark.parametrize("f0", [1j, -2j, 1.0, 2 - 0.5j])
def test_rl_derivative_at_zero_warns_nothing(f0):
    # f(0) tau^-alpha / Gamma(1 - alpha) is infinite at tau = 0; a zero real
    # or imaginary part of f(0) times inf leaked "invalid value encountered
    # in multiply" (RuntimeWarnings are errors under pytest)
    tau = np.array([0.0, 1e-8, 0.3, 2.0])
    got = rl_derivative_at(Constant(f0), 0.5, tau)
    # at tau = 0 the limit from tau > 0, part by part: a zero part of f(0)
    # stays 0 there, where inf times it gave nan
    limit = [math.copysign(math.inf, p) if p else 0.0 for p in (f0.real, f0.imag)]
    assert [got[0].real, got[0].imag] == limit
    # the points tau > 0 keep the product f(0) Gamma(1 - alpha)^-1 tau^-alpha
    scale = np.complex128(f0) * fracops.rgamma(0.5)
    assert np.array_equal(got[1:], np.zeros(3, complex) + scale * tau[1:] ** -0.5)


def test_rl_limit_at_zero():
    # D_+^0.5 t has the finite limit 0 at t -> 0+
    assert rl_derivative_at(Polynomial([0.0, 1.0]), 0.5, np.array([0.0]))[0] == 0.0


def test_power_profiles_take_the_power_rule():
    # f' = p t^(p-1) is unbounded at 0 for p < 1, which a Gauss-Jacobi rule
    # on f' misses (0.876 and 0.823 below); D^p t^p = Gamma(p+1) on t > 0
    taus = np.array([1e-3, 0.5, 1.0])
    got = caputo_derivative_at(Power(0.5), 0.5, taus)
    assert np.max(np.abs(got - 0.886226925452758)) < 1e-14  # Gamma(1.5)
    got = rl_derivative_at(Power(0.3), 0.3, taus)
    assert np.max(np.abs(got - 0.8974706963062772)) < 1e-14  # Gamma(1.3)
    # other exponents and a complex scale, against the power rule
    for p, alpha in ((0.2, 0.7), (1.5, 0.4), (2.0, 0.5)):
        got = rl_derivative_at(Power(p, 2.0 - 1.0j), alpha, taus)
        exact = (2.0 - 1.0j) * G(p + 1.0) / G(p + 1.0 - alpha) * taus ** (p - alpha)
        assert np.max(np.abs(got - exact) / np.abs(exact)) < 1e-14


def test_rl_sampled_capability():
    sampled = Sampled(ScalarPath(GRID, np.sin(GRID.nodes)))
    taus = GRID.nodes[1:]
    got = rl_derivative_at(sampled, 0.5, taus)
    ref = rl_derivative_at(Sine(1.0), 0.5, taus)
    assert np.max(np.abs(got - ref)) < 1e-4


def test_caputo_constant_vanishes():
    got = caputo_derivative_at(Constant(3.0), 0.7, GRID.nodes)
    assert np.max(np.abs(got)) == 0.0


def test_caputo_power_rule():
    # D_*^0.5 t = t^0.5 / Gamma(1.5); 2/sqrt(pi) at t = 1
    got = caputo_derivative_at(Polynomial([0.0, 1.0]), 0.5, np.array([1.0]))[0]
    assert abs(got - 1.1283791670955126) < 1e-12
    oracle = quad(lambda s: (1 - s) ** (-0.5), 0, 1, points=[1.0])[0] / G(0.5)
    assert abs(got - oracle) < 1e-9


def test_gap_zero_start():
    # with f(0) = 0 the two derivatives coincide
    rl = rl_derivative_at(Sine(1.0), 0.5, GRID.nodes)
    assert np.max(np.abs(rl - caputo_derivative_at(Sine(1.0), 0.5, GRID.nodes))) == 0.0


def test_gap_constant():
    one, taus = Constant(1.0), np.array([1.0])
    gap = rl_derivative_at(one, 0.5, taus) - caputo_derivative_at(one, 0.5, taus)
    assert abs(gap[0] - 0.5641895835477563) < 1e-15


def test_gap_rejects_integer_order():
    with pytest.raises(OrderDomainError):
        rl_derivative_at(Sine(1.0), 1.0, np.array([0.5]))


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize(
    "profile",
    [Constant(1.0), Polynomial([0.0, 1.0]), Polynomial([0.0, 0.0, 1.0]), Sine(1.0)],
    ids=["one", "t", "t2", "sin"],
)
def test_derivative_relation(profile, alpha):
    # D_+^alpha f, the derivative of the grid integral J^(1-alpha) f by
    # central differences, is the Caputo derivative plus f(0) t^-alpha /
    # Gamma(1 - alpha); nodes from t = 1/8 on keep the differences clear of
    # the t^(-alpha) singularity
    j = frac_integral(profile, 1.0 - alpha, FINE).values
    idx = np.arange(FINE.n // 8, FINE.n)
    rl = (j[idx + 1] - j[idx - 1]) / (2 * FINE.h)
    taus = FINE.nodes[idx]
    ca = caputo_derivative_at(profile, alpha, taus)
    gap = complex(profile.eval(0.0)) * taus**-alpha / G(1.0 - alpha)
    assert np.max(np.abs(rl - ca - gap)) < 1e-3


def test_caputo_convergence_order(monkeypatch):
    # exact on f = t (the derivative is constant), so the check on more
    # points carries a roundoff floor; f = sin shows the genuine order of
    # the Gauss-Jacobi rule
    taus = np.linspace(0.1, 1.0, 10)
    prev = None
    for npts in (2, 3, 4):
        monkeypatch.setattr(fracops, "_GAUSS_POINTS", npts)
        got = caputo_derivative_at(Polynomial([0.0, 1.0]), 0.5, taus)
        err = np.max(np.abs(got - taus**0.5 / G(1.5)))
        if prev is not None:
            assert err <= 0.75 * prev + 1e-12
        prev = err
    ref = np.array(
        [quad(lambda s, tt=tt: np.cos(s) / np.sqrt(tt - s), 0, tt, points=[tt])[0] / G(0.5)
         for tt in taus]
    )
    prev = None
    for npts in (2, 3, 4):
        monkeypatch.setattr(fracops, "_GAUSS_POINTS", npts)
        err = np.max(np.abs(caputo_derivative_at(Sine(1.0), 0.5, taus) - ref))
        if prev is not None:
            assert err < 0.6 * prev
        prev = err


# ---------------------------------------------------------------------------
# Abel equation: J^alpha u = h is solved by u = D_+^alpha h, 0 < alpha < 1


def test_abel_zero_is_zero():
    u = rl_derivative_at(Constant(0.0), 0.5, GRID.nodes)
    assert np.max(np.abs(u)) == 0.0


def test_abel_power_rhs():
    # J^alpha t^(k-alpha) Gamma(k+1-alpha) / Gamma(k+1) = t^k, so that right
    # side returns the power t^(k-alpha), k = 0 through the f(0) term
    taus = GRID.nodes[1:]
    for alpha in (0.3, 0.6):
        for k in (0, 1, 2):
            u = rl_derivative_at(Polynomial([0.0] * k + [1.0]), alpha, taus)
            exact = G(k + 1.0) / G(k + 1.0 - alpha) * taus ** (k - alpha)
            assert np.max(np.abs(u - exact)) < 1e-10


@pytest.mark.parametrize("alpha", [0.3, 0.5, 0.7])
@pytest.mark.parametrize("profile", [Sine(1.0), Polynomial([0.0, 0.0, 1.0])], ids=["sin", "t2"])
def test_abel_round_trip(profile, alpha):
    u = rl_derivative_at(profile, alpha, FINE.nodes)
    back = frac_integral_values(u, alpha, FINE.h)
    target = np.asarray(profile.eval(FINE.nodes))
    assert np.max(np.abs(back - target)) < 1e-3


def test_abel_rejects_order():
    with pytest.raises(OrderDomainError):
        rl_derivative_at(Sine(1.0), 1.2, np.array([0.5]))


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


def test_pointwise_caputo_power_rule():
    taus = np.array([0.2, 0.9, 1.7])
    got = caputo_derivative_at(Polynomial([0.0, 0.0, 1.0]), 0.5, taus)
    exact = G(3.0) / G(2.5) * taus**1.5
    assert np.max(np.abs(got - exact)) < 1e-12


class _Opaque(FunctionSpec):
    """A profile the closed forms do not recognise: the rule takes it."""

    def __init__(self, profile):
        self.profile = profile

    def eval(self, t):
        return self.profile.eval(t)

    def diff(self):
        return _Opaque(self.profile.diff())


@pytest.mark.parametrize(
    "profile", [Constant(2.0 - 0.5j), Polynomial([0.3, 1.0, -0.5, 0.25])], ids=["one", "cubic"]
)
def test_closed_form_datum_matches_the_rule(profile):
    # constants and polynomials take the power rule per monomial; the
    # Gauss-Jacobi rule is exact on their derivatives up to rounding
    taus = np.geomspace(1e-6, 4.0, 200)
    for alpha in (0.2, 0.5, 0.9):
        for derivative in (caputo_derivative_at, rl_derivative_at):
            got = derivative(profile, alpha, taus)
            rule = derivative(_Opaque(profile), alpha, taus)
            scale = np.maximum(1.0, np.abs(rule))
            assert np.max(np.abs(got - rule) / scale) < 1e-13, (alpha, derivative)


@pytest.mark.parametrize(
    "profile",
    [Cosine(3.0, 0.3 - 1.0j), Sine(2.0), Exponential(0.5 - 1j, 0.3), Sine(2.0 + 0.5j, 0.3 - 1j)],
)
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
    # 87,040 datum points, about those of a forced repr solve at n = 7,240:
    # the (points x 24) quadrature arrays once peaked at 54 MB;
    # now a block of them takes about 7 MB, the output and its full-length
    # temporaries about 2 MB
    import tracemalloc

    taus = np.linspace(0.01, 2.0, 87_040)
    profile = Cosine(3.0, 0.3)  # polynomials take the closed form, not the rule
    rl_derivative_at(profile, 0.5, taus)
    tracemalloc.start()
    try:
        rl_derivative_at(profile, 0.5, taus)
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
    t2 = Polynomial([0.0, 0.0, 1.0])
    ca = Sampled(ScalarPath(gl, caputo_derivative_at(t2, 0.5, gl.nodes)))
    for s in (2.0, 5.0, 10.0):
        lhs = numeric_laplace(ca, s, 40.0)
        rhs = s**0.5 * numeric_laplace(t2, s, 40.0)
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
