"""Characteristic function and solution kernels.

The single-atom closed forms (two-parameter Mittag-Leffler) and the Talbot
contour must agree wherever both apply; inversion results are additionally
checked by transforming forward again with the truncated Laplace transform.
"""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfc, rgamma

from calculus import char_eval, numeric_laplace
from fraccauchy import kernels
from fraccauchy import (
    Atom,
    BlowupError,
    DomainError,
    ExponentialSymbol,
    FracCauchyError,
    InversionError,
    OrderDomainError,
    OrderMeasure,
    PolynomialSymbol,
    PowerSymbol,
    Sampled,
    ScalarPath,
    TimeGrid,
    c_beta,
    c_beta_path,
    identity_symbol,
    mittag_leffler,
    solution_symbol_path,
)

RELAX = OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),))
TWO_TERM = OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),))


def split_atom(measure: OrderMeasure) -> OrderMeasure:
    """Same measure with every atom split in half; forces the Talbot path."""
    atoms = []
    for a in measure.atoms:
        atoms.append(Atom(a.alpha, a.weight / 2, a.symbol))
        atoms.append(Atom(a.alpha, a.weight / 2, a.symbol))
    return OrderMeasure(measure.mu, tuple(atoms), measure.leading_symbol)


# ---------------------------------------------------------------------------
# characteristic function


def test_char_eval_pure_leading():
    assert char_eval(OrderMeasure(1.0), 3.0, 0.0) == pytest.approx(3.0)


def test_char_eval_sqrt_plus_atom():
    assert char_eval(RELAX, 4.0, 1.0) == pytest.approx(3.0)


def test_char_eval_two_term():
    assert char_eval(TWO_TERM, 1.0, 2.0) == pytest.approx(2.0)


def test_char_eval_rejects_left_half_plane():
    with pytest.raises(DomainError):
        char_eval(RELAX, -1.0 + 0.5j, 1.0)


@given(
    s=st.builds(
        complex,
        st.floats(min_value=0.1, max_value=10.0),
        st.floats(min_value=-5.0, max_value=5.0),
    ),
    z=st.floats(min_value=-2.0, max_value=2.0),
)
def test_char_eval_conjugate_symmetry(s, z):
    # real orders and weights give Delta(conj s) = conj Delta(s)
    a = char_eval(TWO_TERM, s, z)
    b = char_eval(TWO_TERM, np.conj(s), z)
    assert abs(a - np.conj(b)) < 1e-12 * (1 + abs(a))


def test_measure_invariants():
    with pytest.raises(OrderDomainError):
        OrderMeasure(1.5, (Atom(1.7, 1.0, identity_symbol()),))
    with pytest.raises(OrderDomainError):
        Atom(0.5, -1.0, identity_symbol())
    m = OrderMeasure(
        1.5, (Atom(0.5, 1.0, identity_symbol()), Atom(0.0, 1.0, identity_symbol()))
    )
    assert [a.alpha for a in m.atoms] == [0.0, 0.5]
    assert m.m == 2
    assert OrderMeasure(2.0).m == 2


# ---------------------------------------------------------------------------
# kernels


def test_c_beta_pure_integrator():
    # Delta = s: c_0(t) = 1
    m = OrderMeasure(1.0)
    for t in (0.2, 1.0, 3.0):
        assert abs(c_beta(m, 0.0, t, 0.0) - 1.0) < 1e-12


def test_c_beta_exponential():
    m = OrderMeasure(1.0, (Atom(0.0, 1.0, identity_symbol()),))
    assert abs(c_beta(m, 0.0, 1.0, 1.0) - np.exp(-1.0)) < 1e-12


def test_c_beta_relaxation_kernel():
    # Delta = s^0.5 + z: c_{-0.5}(1, 1) = E_{1/2}(-1) = e erfc(1)
    assert abs(c_beta(RELAX, -0.5, 1.0, 1.0) - np.e * erfc(1.0)) < 1e-12


def test_c_beta_rejects_bad_arguments():
    with pytest.raises(DomainError):
        c_beta(RELAX, -0.5, 0.0, 1.0)
    with pytest.raises(OrderDomainError):
        c_beta(RELAX, 0.7, 1.0, 1.0)


@pytest.mark.parametrize("mu", [0.5, 1.0, 1.5])
def test_fast_path_vs_talbot(mu):
    # the stated 1e-8 relative agreement, with an absolute floor where the
    # kernel itself decays below the double-precision contour floor
    measure = OrderMeasure(mu, (Atom(0.0 if mu <= 1 else 0.5, 1.0, identity_symbol()),))
    twin = split_atom(measure)
    for beta in (mu - 1.0, mu - 2.0):
        for t in (0.01, 0.1, 1.0, 5.0, 10.0):
            for z in (0.5, 1.0, 2.0):
                fast = c_beta(measure, beta, t, z)
                talbot = c_beta(twin, beta, t, z)
                assert abs(fast - talbot) <= 1e-8 * max(abs(fast), 1e-4)


def test_general_atom_fast_path_matches_talbot():
    fast = OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),))
    twin = split_atom(fast)
    for t in (0.05, 0.7, 4.0):
        a = c_beta(fast, 0.25, t, 1.3)
        b = c_beta(twin, 0.25, t, 1.3)
        assert abs(a - b) <= 1e-8 * max(abs(a), 1e-4)


def test_forward_laplace_of_kernel():
    # multi-term measure, checked by transforming the kernel forward again
    mm = OrderMeasure(
        1.8,
        (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol())),
    )
    z = 1.2
    grid = TimeGrid(40.0, 65536)
    vals = np.concatenate([[0.0], c_beta_path(mm, 0.3, grid.nodes[1:], z)])
    sampled = Sampled(ScalarPath(grid, vals))
    for s in (2.0, 5.0):
        lhs = numeric_laplace(sampled, s, 40.0)
        rhs = s**0.3 / char_eval(mm, s, z)
        assert abs(lhs - rhs) < 1e-4


def test_forward_laplace_smooth_case():
    m = OrderMeasure(1.0, (Atom(0.0, 1.0, identity_symbol()),))
    grid = TimeGrid(40.0, 16384)
    vals = np.concatenate([[1.0], c_beta_path(m, 0.0, grid.nodes[1:], 0.7)])
    sampled = Sampled(ScalarPath(grid, vals))
    for s in (2.0, 5.0):
        lhs = numeric_laplace(sampled, s, 40.0)
        rhs = 1.0 / char_eval(m, s, 0.7)
        assert abs(lhs - rhs) < 1e-6


def _node(k: int, t: float = 1.0) -> complex:
    """Node k of the full Talbot contour at time t, s = (n/t) w_k: the upper
    half is `kernels._TALBOT_W`, the lower half its mirror image."""
    n, w = kernels._TALBOT_NODES, kernels._TALBOT_W
    return n / t * (w[k - n // 2] if k >= n // 2 else np.conj(w[n // 2 - 1 - k]))


def test_inversion_guard_detects_contour_zero():
    # place a characteristic zero exactly on a contour node, s = (n/t) w;
    # node 10 lies in the lower half, which the complex weight's mirror
    # row sees as Delta(conj s; conj c) = conj Delta(s; c)
    t = 1.0
    s0 = _node(10, t)
    coef = -(s0**1.5) / s0**0.5
    bad = OrderMeasure(
        1.5,
        (
            Atom(0.5, 1.0, PolynomialSymbol([coef])),
            Atom(0.5, 1.0, PolynomialSymbol([0.0, 1e-30])),
        ),
    )
    with pytest.raises(InversionError):
        c_beta(bad, 0.0, t, 1.0)


def test_inversion_guard_names_first_bad_time_across_blocks():
    # the zero of the test above, hit at t = 1 in the middle of the second
    # block and again, to within rounding, later in that block and the next
    s0 = _node(10)
    bad = OrderMeasure(
        1.5,
        (
            Atom(0.5, 1.0, PolynomialSymbol([-s0])),
            Atom(0.5, 1.0, PolynomialSymbol([0.0, 1e-30])),
        ),
    )
    t = np.linspace(0.5, 3.0, 1600)
    t[700] = 1.0
    t[900] = 1.0 + 1e-12
    t[1500] = 1.0 - 1e-12
    c_beta_path(bad, 0.0, t[:600], 1.0)
    with pytest.raises(InversionError, match=r"at t = 1\.0;"):
        c_beta_path(bad, 0.0, t, 1.0)
    with pytest.raises(InversionError, match=r"at t = 0\.999999999999;"):
        c_beta_path(bad, 0.0, t[::-1], 1.0)


def test_inversion_guard_sees_conjugate_zeros_of_real_weights():
    # real weights give Delta conjugate pairs of zeros; a pair on upper node
    # 37 and its mirror, node 10, at t = 1, placed as in the test above.
    # The real point runs the upper half alone and must still raise there
    s0 = _node(37)
    # Delta = s^1.5 + c0 + c1 z s^0.5 with real c0, c1 vanishing at s0, z = 1
    c1 = -(s0**1.5).imag / (s0**0.5).imag
    c0 = -(s0**1.5).real - c1 * (s0**0.5).real
    bad = OrderMeasure(
        1.5,
        (Atom(0.0, 1.0, PolynomialSymbol([c0])), Atom(0.5, 1.0, PolynomialSymbol([0.0, c1]))),
    )
    t = np.linspace(0.5, 3.0, 1600)
    t[700] = 1.0
    t[900] = 1.0 + 1e-12
    t[1500] = 1.0 - 1e-12
    assert np.all(c_beta_path(bad, 0.0, t[:600], 1.0).imag == 0)
    with pytest.raises(InversionError, match=r"at t = 1\.0;"):
        c_beta_path(bad, 0.0, t, 1.0)
    with pytest.raises(InversionError, match=r"at t = 0\.999999999999;"):
        c_beta_path(bad, 0.0, t[::-1], 1.0)
    # after the points of a complex z, which run both halves and miss the zero
    with pytest.raises(InversionError, match=r"at t = 1\.0;") as caught:
        c_beta_path(bad, 0.0, t[600:], np.array([1.0 + 1e-3j, 1.0])[:, None])
    assert caught.value.z == 1.0


def test_real_weight_points_return_zero_imaginary_part():
    # a point whose weights are all real is its own mirror: 2 Re A, whatever
    # the other points of its call or block
    t = np.geomspace(0.01, 10.0, 700)
    zs = np.array([0.3, 2.0 + 1.0j, -2.0, 40.0])
    c = c_beta_path(_TWO_ATOM_CONTOUR, 0.8, t, zs[:, None])
    assert np.all(c[[0, 2, 3]].imag == 0)
    assert np.all(c[1].imag != 0)
    s0 = solution_symbol_path(_TWO_ATOM_CONTOUR, 0, t[:, None], zs)
    assert np.all(s0[:, [0, 2, 3]].imag == 0)


def test_contour_kernel_at_tiny_times():
    # c_{mu-1}(t) -> 1 as t -> 0; Delta is summed over its leading power,
    # so |Delta|^2 does not overflow where (n/t)^mu passes 1e154
    t = np.array([1e-300, 1e-200, 1e-100, 1e-20])
    c = c_beta_path(_TWO_ATOM_CONTOUR, 0.8, t, 0.3)
    assert np.all(np.abs(c - 1.0) < 1e-12)


def test_contour_accuracy_relative_to_peak():
    # the kernels docstring's claim: within 5e-13 of the kernel's peak on
    # 1,537 geometric times in [0.01, 10], against the closed form, also
    # where the kernel itself decays below 1e-4 (mu = 1.5, z = 2, t > 5.8)
    t = np.geomspace(0.01, 10.0, 1537)
    for mu in (0.5, 1.5):
        measure = OrderMeasure(mu, (Atom(0.0 if mu <= 1 else 0.5, 1.0, identity_symbol()),))
        twin = split_atom(measure)
        for z in (0.5, 1.0, 2.0):
            for beta in (mu - 1.0, mu - 2.0):
                fast = c_beta_path(measure, beta, t, z)
                talbot = c_beta_path(twin, beta, t, z)
                peak = np.max(np.abs(fast))
                assert np.max(np.abs(talbot - fast)) <= 5e-13 * peak, (mu, z, beta)


@pytest.mark.parametrize("mu", [0.5, 1.5])
def test_contour_blocks_match_closed_form_and_split_calls(mu):
    # 3 blocks of 512 times and one more, so the last block holds one time.
    # Times stop at 5: for t in [5.8, 7.5] at mu = 1.5, z = 2 the kernel
    # e^(-2t) is below 1e-4 and the contour's ~4e-12 absolute rounding error
    # exceeds the 1e-12 the floor allows (ROADMAP item 15)
    measure = OrderMeasure(mu, (Atom(0.0 if mu <= 1 else 0.5, 1.0, identity_symbol()),))
    twin = split_atom(measure)
    t = np.geomspace(0.01, 5.0, 3 * 512 + 1)
    for z in (0.5, 2.0):
        fast = c_beta_path(measure, mu - 1.0, t, z)
        talbot = c_beta_path(twin, mu - 1.0, t, z)
        assert np.all(np.abs(fast - talbot) <= 1e-8 * np.maximum(np.abs(fast), 1e-4))
        cuts = ((0, 1), (1, 700), (700, None))
        parts = [c_beta_path(twin, mu - 1.0, t[a:b], z) for a, b in cuts]
        assert np.array_equal(np.concatenate(parts), talbot)
        grid = c_beta_path(twin, mu - 1.0, t.reshape(53, 29), z)
        assert np.array_equal(grid, talbot.reshape(53, 29))
    # spectral points on the leading or the trailing axis: blocks then hold
    # long runs of one point or a new point on every row, and each value is
    # still the scalar-z call's
    zs = np.array([0.5, 2.0, 3.0 + 1.0j])
    for m in (measure, twin):
        each = np.array([c_beta_path(m, mu - 1.0, t, z) for z in zs])
        assert np.array_equal(c_beta_path(m, mu - 1.0, t, zs[:, None]), each)
        assert np.array_equal(c_beta_path(m, mu - 1.0, t[:, None], zs), each.T)


def test_contour_path_memory_is_bounded_by_its_blocks():
    # output alone is 1 MB; one unblocked (65536 x 48) complex temporary is 50 MB
    mm = OrderMeasure(
        1.8,
        (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol())),
    )
    t = np.linspace(1e-3, 40.0, 65536)
    tracemalloc.start()
    try:
        c_beta_path(mm, 0.3, t, 1.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8e6


def _ml_reference(ml_series, mu: float, z: complex) -> complex:
    """E_{mu,1}(-z) to about 40 digits with mpmath.

    The `ml_series` fixture serves x = |z|^(1/mu) <= 250.  Beyond that, for
    mu < 1, the algebraic asymptotic series
    -sum_k (-z)^(-k) / Gamma(1 - mu k) is used instead; its one exponential
    term, exp(x cos(arg(-z) / mu)), is absent for |arg(-z)| > mu pi and must
    be below e^-40 otherwise.
    """
    x = abs(z) ** (1.0 / mu)
    if x <= 250:
        return ml_series(mu, 1.0, -z)
    mp = pytest.importorskip("mpmath")
    w = -mp.mpc(z)
    if mu >= 1 or x * mp.cos(min(abs(mp.arg(w)) / mu, mp.pi)) > -40:
        raise ValueError(f"no reference for mu = {mu}, z = {z}")
    with mp.workdps(40):
        terms = (w**-k * mp.rgamma(1 - mp.mpf(mu) * k) for k in range(1, 41))
        return complex(-mp.fsum(terms))


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="the contour misses zeros of Delta right of it and near the "
    "imaginary axis without raising; needs a pole-aware inversion "
    "(ROADMAP item 2)",
)
def test_split_atom_contour_agrees_with_mittag_leffler_or_raises(ml_series):
    # S_0(1, z) of the measure mu with its atom (0, 1) split in two halves is
    # E_{mu,1}(-z); the contour must match it to 1e-9 relative or raise
    missed = []
    for mu in (0.5, 0.9, 1.5, 1.9):
        twin = split_atom(OrderMeasure(mu, (Atom(0.0, 1.0, identity_symbol()),)))
        for z in (1, 10, 100, 1000, -2, 30j):
            exact = _ml_reference(ml_series, mu, z)
            try:
                got = c_beta(twin, mu - 1.0, 1.0, z)
            except FracCauchyError:
                continue
            if abs(got - exact) > 1e-9 * abs(exact):
                missed.append((mu, z, abs(got - exact) / abs(exact)))
    assert not missed, f"silent wrong answers (mu, z, relative error): {missed}"


# S_1's kernel c_-0.2(t, -5) of mu = 1.8 with atoms (0, 0.7) and (0.7, 0.4),
# whose Delta = s^1.8 - 2 s^0.7 - 3.5 has a real zero near s = 3.18; frozen
# from mpmath.invertlaplace at 30 digits by Talbot's method and by de Hoog's,
# which agree to 1e-22 relative
GROWTH_KERNEL = [(2.5, 622.75326903588706705), (3.0, 3041.7169272685262162)]


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="past t = 2 the contour crosses the real axis (at 8.2 / t) near "
    "or left of the real zero of Delta and misses it without raising; "
    "needs a pole-aware inversion (ROADMAP item 2)",
)
def test_growth_kernel_past_the_real_zero_agrees_or_raises():
    measure = OrderMeasure(
        1.8, (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol()))
    )
    missed = []
    for t, exact in GROWTH_KERNEL:
        try:
            got = c_beta(measure, -0.2, t, -5.0)
        except InversionError:
            continue
        if abs(got - exact) > 1e-8 * abs(exact):
            missed.append((t, got, abs(got - exact) / abs(exact)))
    assert not missed, f"silent wrong answers (t, value, relative error): {missed}"


# ---------------------------------------------------------------------------
# solution symbols


def test_solution_symbol_relaxation_initial_value():
    # S_0(t, z) = E_alpha(-z t^alpha) heads to 1 like t^alpha / Gamma(1+alpha),
    # which is 1.13e-3 at t = 1e-6 for alpha = 1/2
    assert abs(solution_symbol_path(RELAX, 0, [1e-6], 1.0)[0] - 1.0) < 2e-3
    assert abs(solution_symbol_path(RELAX, 0, [1e-8], 1.0)[0] - 1.0) < 2e-4
    assert abs(solution_symbol_path(RELAX, 0, [1.0], 1.0)[0] - np.e * erfc(1.0)) < 1e-12


def test_solution_symbol_datum_indices():
    t, z = 0.8, 1.3
    s1 = solution_symbol_path(TWO_TERM, 1, [t], z)[0]
    assert abs(s1 - c_beta(TWO_TERM, -0.5, t, z)) == 0.0
    s0 = solution_symbol_path(TWO_TERM, 0, [t], z)[0]
    expect = c_beta(TWO_TERM, 0.5, t, z) + 0.5 * z * c_beta(TWO_TERM, -0.5, t, z)
    assert abs(s0 - expect) == 0.0


def test_shifted_solution_symbol_lowers_every_exponent():
    t, z = 0.8, 1.3
    s1 = solution_symbol_path(TWO_TERM, 1, [t], z, shift=0.7)[0]
    assert abs(s1 - c_beta(TWO_TERM, -1.2, t, z)) == 0.0
    s0 = solution_symbol_path(TWO_TERM, 0, [t], z, shift=0.7)[0]
    expect = c_beta(TWO_TERM, -0.2, t, z) + 0.5 * z * c_beta(TWO_TERM, -1.2, t, z)
    assert abs(s0 - expect) == 0.0


@pytest.mark.parametrize("measure", [TWO_TERM, split_atom(TWO_TERM)], ids=["closed", "contour"])
def test_shifted_solution_symbol_is_the_running_integral(measure):
    # J^1 S_k(t) = int_0^t S_k, J^2 S_k(t) = int_0^t J^1 S_k, against the
    # trapezoid rule on 2^15 cells (error about 1e-10 here)
    grid = TimeGrid(2.0, 2**15)
    t = grid.nodes[1:]
    z = 1.3
    for k, start in ((0, 1.0), (1, 0.0)):
        for shift in (1.0, 2.0):
            f = solution_symbol_path(measure, k, t, z, shift=shift - 1.0)
            f0 = start if shift == 1.0 else 0.0
            running = np.cumsum(0.5 * grid.h * (f + np.concatenate([[f0], f[:-1]])))
            got = solution_symbol_path(measure, k, t, z, shift=shift)
            assert np.max(np.abs(got - running)) < 1e-9 * np.max(np.abs(got)), (k, shift)


def test_shifted_solution_symbol_names_itself_when_not_finite():
    with pytest.raises(BlowupError, match=r"symbol J\^1 S_0\(t, z\) is not finite at t = 1.0 "):
        solution_symbol_path(RELAX, 0, np.array([0.5, 1.0]), -30.0, shift=1.0)
    with pytest.raises(BlowupError, match=r"symbol J\^0.5 S_0\(t, z\) is not finite"):
        solution_symbol_path(RELAX, 0, np.array([1.0]), -30.0, shift=0.5)


def test_solution_symbol_laplace_algebra():
    # forward transform of S_k reproduces the Laplace-domain solution of the
    # homogeneous problem with data delta_{jk}
    measure = TWO_TERM
    z = 1.1
    grid = TimeGrid(40.0, 32768)
    for k, shift in ((0, 0.5), (1, -0.5)):
        vals = solution_symbol_path(measure, k, grid.nodes[1:], z)
        limit = 1.0 if k == 0 else 0.0
        sampled = Sampled(ScalarPath(grid, np.concatenate([[limit], vals])))
        for s in (2.0, 5.0):
            got = numeric_laplace(sampled, s, 40.0)
            if k == 0:
                expect = (s**0.5 + 0.5 * z * s**-0.5) / char_eval(measure, s, z)
            else:
                expect = s**-0.5 / char_eval(measure, s, z)
            assert abs(got - expect) < 1e-4


def test_initial_values_of_solution_symbols():
    t0 = 1e-6
    assert abs(solution_symbol_path(TWO_TERM, 0, [t0], 1.0)[0] - 1.0) < 1e-3
    assert abs(solution_symbol_path(TWO_TERM, 1, [t0], 1.0)[0]) < 1e-3


def test_integer_atom_contributes_only_to_lower_data_indices():
    # atom exactly at order 1 under mu = 1.5: it feeds S_0 but not S_1
    m = OrderMeasure(1.5, (Atom(1.0, 0.7, identity_symbol()),))
    z = 1.2
    # every term annihilates constants, so S_0 is identically one
    vals0 = solution_symbol_path(m, 0, np.linspace(0.1, 20.0, 50), z)
    assert np.max(np.abs(vals0 - 1.0)) < 1e-12
    # S_1 keeps only the leading kernel; check through the forward transform
    grid = TimeGrid(40.0, 32768)
    vals1 = solution_symbol_path(m, 1, grid.nodes[1:], z)
    sampled = Sampled(ScalarPath(grid, np.concatenate([[0.0], vals1])))
    for s in (2.0, 5.0):
        got = numeric_laplace(sampled, s, 40.0)
        expect = s**-0.5 / char_eval(m, s, z)
        assert abs(got - expect) < 1e-4


def test_integer_leading_order_reduces_to_classical():
    # mu = 2, atom(0, z): S_0 = cos(sqrt z t), S_1 = sin(sqrt z t)/sqrt z
    m = OrderMeasure(2.0, (Atom(0.0, 1.0, identity_symbol()),))
    z = 1.0
    for t in (0.3, 1.0, 2.5):
        assert abs(solution_symbol_path(m, 0, [t], z)[0] - np.cos(t)) < 1e-11
        assert abs(solution_symbol_path(m, 1, [t], z)[0] - np.sin(t)) < 1e-11


def _mp_shape(nodes: int, k: int) -> tuple:
    """w and w' of the modified Talbot shape at the midpoint angle k of
    `nodes`, in mpmath at its working precision."""
    mp = pytest.importorskip("mpmath")
    sg, mu, nu, b = (mp.mpf(c) for c in ("0.61220", "0.50174", "0.64070", "0.26450"))
    theta = (k + mp.mpf(0.5)) * 2 * mp.pi / nodes - mp.pi
    cot = mp.cot(nu * theta)
    w = -sg + mu * theta * cot + 1j * b * theta
    dw = mu * (cot - nu * theta / mp.sin(nu * theta) ** 2) + 1j * b
    return w, dw


def _mp_kernel(measure: OrderMeasure, k, t: float, z: complex) -> complex:
    """c_{mu-1}(t, z) (k None) or S_k(t, z) to about 20 digits: the Talbot
    sum of `kernels` on 64 and on 96 nodes at 40 digits, which must agree,
    with the double symbol values of z taken as exact.

    An explicit sum, because mpmath's own `invertlaplace(method='talbot')`
    misses the kernel at z = 2+1j.
    """
    mp = pytest.importorskip("mpmath")
    g, weights = kernels.symbol_values(measure, z)
    with mp.workdps(40):
        g = mp.mpc(complex(g))
        terms = [(mp.mpc(complex(c)), mp.mpf(a.alpha)) for a, c in zip(measure.atoms, weights)]
        mu = mp.mpf(measure.mu)
        if k is None:
            numerator = [(1, mu - 1)]
        else:
            numerator = [(g, mu - k - 1)] + [(c, a - k - 1) for c, a in terms if a > k]

        def transform(s):
            delta = g * s**mu + sum(c * s**a for c, a in terms)
            return sum(c * s**p for c, p in numerator) / delta

        sums = []
        for nodes in (64, 96):
            total = 0
            for j in range(nodes):
                w, dw = _mp_shape(nodes, j)
                s = nodes / mp.mpf(t) * w
                total += mp.exp(s * t) * transform(s) * dw
            sums.append(total / (1j * t))
        assert abs(sums[0] - sums[1]) < 1e-20 * max(1, abs(sums[1]))
        return complex(sums[1])


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps,
    reason="long double is double here: the table keeps the rounding of w times n",
)
def test_talbot_table_within_two_ulps_of_mpmath():
    mp = pytest.importorskip("mpmath")
    n = kernels._TALBOT_NODES
    assert kernels._TALBOT_W.shape == kernels._TALBOT_E.shape == (n // 2,)
    with mp.workdps(40):
        for k, (w, e) in enumerate(zip(kernels._TALBOT_W, kernels._TALBOT_E)):
            ref_w, ref_dw = _mp_shape(n, n // 2 + k)
            assert ref_w.imag > 0
            ref_e = mp.exp(n * ref_w) * ref_dw / (1j * n)
            for got, ref in ((w, ref_w), (e, ref_e)):
                for part, exact in ((got.real, ref.real), (got.imag, ref.imag)):
                    ulp = np.spacing(abs(float(exact)))
                    assert abs(mp.mpf(float(part)) - exact) <= 2 * ulp, (k, got)


# Scalar-z values of c_{mu-1}(2.9, z) and S_1(2.9, z), z = 0.3+0.7j,
# 1.5-0.4j, 0.05+3.1j, from the per-component code before kernels took
# arrays of z; the two-atom measure's Talbot values are checked against the
# mpmath contour sum instead.  Symbols that round (a square root, an
# exponential, non-unit weights) go through the same arithmetic for a
# scalar z as for a batch.
_INEXACT_SYMBOL_MEASURES = {
    "power": OrderMeasure(1.8, (Atom(0.3, 0.7, PowerSymbol(0.5)),)),
    "exponential": OrderMeasure(
        1.9, (Atom(0.5, 0.6, ExponentialSymbol(-0.4 + 0.2j, 1.1)),)
    ),
    "two_atom": OrderMeasure(
        1.5, (Atom(0.3, 0.7, PowerSymbol(0.5)), Atom(0.6, 0.45, ExponentialSymbol(-0.3)))
    ),
}
_STORED_SCALAR_VALUES = {
    "power": [
        -0.26799561712151426 - 0.29260947326199577j,
        1.1569648997127042 - 0.6776053090014491j,
        -0.294749360516424 + 0.0212461557085381j,
        0.7414938022850079 + 0.13752130079530797j,
        -0.6806617667166828 + 0.18736691207866063j,
        0.1075901525059032 - 0.7664447616936079j,
    ],
    "exponential": [
        -0.027632951462712663 + 0.10172439547889228j,
        1.3693880658813327 + 0.22498312036825674j,
        0.09899028597852418 - 0.24409570245314918j,
        1.6608369137389105 - 0.4381554393571696j,
        0.28768452414962675 + 0.8087148105148119j,
        2.1510174313649184 + 1.1461042024617591j,
    ],
}


@pytest.mark.parametrize("name", sorted(_INEXACT_SYMBOL_MEASURES))
def test_scalar_kernels_with_inexact_symbols_match_stored_values(name):
    # the one-atom values move by at most 8 eps of max(1, |value|): the
    # length-1 Mittag-Leffler series no longer rounds its products in place;
    # the Talbot values stay within 2e-13 of max(1, |value|) of mpmath
    measure = _INEXACT_SYMBOL_MEASURES[name]
    got, ref = [], []
    for z in (0.3 + 0.7j, 1.5 - 0.4j, 0.05 + 3.1j):
        got.append(c_beta(measure, measure.mu - 1.0, 2.9, z))
        got.append(solution_symbol_path(measure, 1, [2.9], z)[0])
        if name not in _STORED_SCALAR_VALUES:
            ref += [_mp_kernel(measure, None, 2.9, z), _mp_kernel(measure, 1, 2.9, z)]
    ref = np.array(_STORED_SCALAR_VALUES.get(name, ref))
    bound = 8 * np.finfo(float).eps if name in _STORED_SCALAR_VALUES else 2e-13
    assert np.all(np.abs(np.array(got) - ref) <= bound * np.maximum(1.0, np.abs(ref)))


# The two-atom measure of the contour benchmark: c_{mu-1}(t, z) and S_0(t, z)
# at t = 0.4 and 2.9 for z = 0.3, 40 and 2+1j, once pinned at 8 eps to
# stored Talbot values, now checked against the 40-digit contour sum
_TWO_ATOM_CONTOUR = OrderMeasure(
    1.8, (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol()))
)


def test_contour_kernels_match_stored_values():
    measure = _TWO_ATOM_CONTOUR
    got, ref = [], []
    for t in (0.4, 2.9):
        for z in (0.3, 40.0, 2.0 + 1.0j):
            got.append(c_beta(measure, measure.mu - 1.0, t, z))
            got.append(solution_symbol_path(measure, 0, [t], z)[0])
            ref += [_mp_kernel(measure, None, t, z), _mp_kernel(measure, 0, t, z)]
    got, ref = np.array(got), np.array(ref)
    assert np.all(np.abs(got - ref) <= 2e-13 * np.maximum(1.0, np.abs(ref)))
    assert np.all(got[[0, 1, 2, 3, 6, 7, 8, 9]].imag == 0)


@pytest.mark.parametrize(
    "measure", [_TWO_ATOM_CONTOUR, TWO_TERM, OrderMeasure(1.5)], ids=["contour", "closed", "no-atom"]
)
def test_exponent_array_matches_one_call_per_exponent(measure):
    # the exponents of one call share Delta and its monitor on the contour;
    # each kernel is still bitwise its own scalar call, on the upper rows of
    # real weights and the mirror rows of complex ones, over eleven blocks
    # of points, with numpy's sqrt and square exponents among them
    t = np.geomspace(0.01, 10.0, 2 * kernels._TIME_BLOCK + 37)
    zs = np.array([0.3, 2.0 + 1.0j, -2.0, 40.0, 5.0j])[:, None]
    betas = np.array([0.8, -0.3, -0.2, 0.5, -1.0, 0.0, 1.0])
    each = np.array([c_beta_path(measure, float(b), t, zs) for b in betas])
    together = c_beta_path(measure, betas, t, zs)
    assert together.shape == (betas.size, zs.size, t.size)
    assert together.tobytes() == each.tobytes()
    assert c_beta_path(measure, betas[:1], t, 0.3).shape == (1, t.size)
    with pytest.raises(OrderDomainError, match="got 2.0"):
        c_beta_path(measure, np.array([0.5, 2.0]), t, zs)


def test_leading_symbol_scales_kernel():
    # Delta = 2 s^mu + w: kernels shrink by the leading factor
    lead = PolynomialSymbol([2.0])
    m_lead = OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),), lead)
    got = c_beta(m_lead, -0.5, 1.0, 1.0)
    # equivalent single-term kernel with w/g and overall 1/g
    expect = 0.5 * mittag_leffler(0.5, 1.0, -0.5 * 1.0)
    assert abs(got - expect) < 1e-12
    # S_0 keeps its unit initial value under the leading factor
    assert abs(solution_symbol_path(m_lead, 0, [1e-6], 1.0)[0] - 1.0) < 1e-3


def test_zero_leading_symbol_rejected():
    lead = PolynomialSymbol([0.0, 1.0])  # vanishes at z = 0
    m = OrderMeasure(0.5, (Atom(0.0, 1.0, identity_symbol()),), lead)
    with pytest.raises(DomainError):
        c_beta(m, -0.5, 1.0, 0.0)


def test_rgamma_convention_for_pure_leading():
    # Delta = s^mu: c_beta = t^(mu-beta-1)/Gamma(mu-beta)
    m = OrderMeasure(0.7)
    for beta in (-0.5, 0.2):
        for t in (0.5, 2.0):
            expect = t ** (0.7 - beta - 1.0) * rgamma(0.7 - beta)
            assert abs(c_beta(m, beta, t, 0.0) - expect) < 1e-12
