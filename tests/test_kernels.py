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

from calculus import numeric_laplace
from fraccauchy import kernels
from fraccauchy import (
    Atom,
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
    char_eval,
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


def test_inversion_guard_detects_contour_zero():
    # place a characteristic zero exactly on a contour node, s = (n/t) w
    t = 1.0
    s0 = kernels._TALBOT_NODES / t * kernels._TALBOT_W[10]
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
    s0 = kernels._TALBOT_NODES * kernels._TALBOT_W[10]
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


@pytest.mark.parametrize("mu", [0.5, 1.5])
def test_contour_blocks_match_closed_form_and_split_calls(mu):
    # 3 blocks of 512 times and one more, so the last block holds one time.
    # Times stop at 5: for t in [5.8, 7.5] at mu = 1.5, z = 2 the kernel
    # e^(-2t) is below 1e-4 and the contour's ~4e-12 absolute rounding error
    # exceeds the 1e-12 the floor allows (ROADMAP item 1)
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
    "imaginary axis without raising; needs a pole-aware inversion",
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


# Scalar-z values of c_{mu-1}(2.9, z) and S_1(2.9, z), z = 0.3+0.7j,
# 1.5-0.4j, 0.05+3.1j, from the per-component code before kernels took
# arrays of z.  Symbols that round (a square root, an exponential, non-unit
# weights) go through the same arithmetic for a scalar z as for a batch.
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
    "two_atom": [
        -0.005154467676344002 - 0.08115935394740116j,
        0.9360730758533967 - 0.26140917303719996j,
        -0.03663948820347354 + 0.012448492799224239j,
        0.7574560733303731 + 0.06136389031834365j,
        -0.1268904871015436 - 0.06058599397427308j,
        0.6193353710858381 - 0.3904082032647923j,
    ],
}


@pytest.mark.parametrize("name", sorted(_STORED_SCALAR_VALUES))
def test_scalar_kernels_with_inexact_symbols_match_stored_values(name):
    # the one-atom values move by at most 8 eps of max(1, |value|): the
    # length-1 Mittag-Leffler series no longer rounds its products in place
    measure = _INEXACT_SYMBOL_MEASURES[name]
    got = []
    for z in (0.3 + 0.7j, 1.5 - 0.4j, 0.05 + 3.1j):
        got.append(c_beta(measure, measure.mu - 1.0, 2.9, z))
        got.append(solution_symbol_path(measure, 1, [2.9], z)[0])
    stored = np.array(_STORED_SCALAR_VALUES[name])
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.array(got) - stored) <= 8 * eps * np.maximum(1.0, np.abs(stored)))


# Talbot-branch values of c_{mu-1}(t, z) and S_0(t, z) for the two-atom
# measure of the contour benchmark, at t = 0.4 and 2.9 for z = 0.3, 40 and
# 2+1j in turn; real z keep the contour's ~1e-13 imaginary rounding
_TWO_ATOM_CONTOUR = OrderMeasure(
    1.8, (Atom(0.0, 0.7, identity_symbol()), Atom(0.7, 0.4, identity_symbol()))
)
_STORED_CONTOUR_VALUES = [
    0.9356334420465331 - 3.5351416702604424e-13j,
    0.9763770722527052 - 3.5566163339325026e-13j,
    -0.07788618868787199 - 1.5874060563325921e-13j,
    0.40879601271281707 - 3.138448686474309e-13j,
    0.6113494237334873 - 0.15801023866048536j,
    0.854249037471496 - 0.06209961504053525j,
    0.13200095542002685 - 2.956157020341506e-13j,
    0.36679060440098943 - 3.120124383729418e-13j,
    -0.0014964899662047013 - 7.831311777415973e-15j,
    0.10745217632642799 - 1.724537698114928e-13j,
    -0.07032229649560594 + 0.2506281408773711j,
    -0.03576945350375108 + 0.16480320377496888j,
]


def test_contour_kernels_match_stored_values():
    measure = _TWO_ATOM_CONTOUR
    got = []
    for t in (0.4, 2.9):
        for z in (0.3, 40.0, 2.0 + 1.0j):
            got.append(c_beta(measure, measure.mu - 1.0, t, z))
            got.append(solution_symbol_path(measure, 0, [t], z)[0])
    stored = np.array(_STORED_CONTOUR_VALUES)
    eps = np.finfo(float).eps
    assert np.all(np.abs(np.array(got) - stored) <= 8 * eps * np.maximum(1.0, np.abs(stored)))


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
