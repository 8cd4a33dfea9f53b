import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from calculus import taylor_coefficients
from fraccauchy import (
    DomainError,
    ExponentialSymbol,
    PolynomialSymbol,
    PowerSymbol,
    RationalSymbol,
    identity_symbol,
)

finite_complex = st.builds(
    complex,
    st.floats(min_value=-3, max_value=3),
    st.floats(min_value=-3, max_value=3),
)


def fd_derivative_value(f, order, z, eps=1e-4):
    if order == 1:
        return (f.eval(z + eps) - f.eval(z - eps)) / (2 * eps)
    if order == 2:
        return (f.eval(z + eps) - 2 * f.eval(z) + f.eval(z - eps)) / eps**2
    raise ValueError


@pytest.mark.parametrize(
    "symbol",
    [
        PolynomialSymbol([1.0, -2.0, 0.5, 1.0j]),
        ExponentialSymbol(0.7 - 0.2j, 1.5),
        RationalSymbol([1.0, 1.0], [2.0, 0.0, 1.0]),
        PowerSymbol(1.5),
    ],
    ids=["poly", "exp", "rational", "power"],
)
def test_derivatives_match_differences(symbol):
    for z in (0.8 + 0.1j, 2.0, 1.3 - 0.4j):
        coeffs = taylor_coefficients(symbol, z, 3)
        for order in (1, 2):
            exact = math.factorial(order) * coeffs[order]
            approx = fd_derivative_value(symbol, order, z)
            assert abs(exact - approx) < 1e-5 * (1 + abs(exact))


@pytest.mark.parametrize(
    "symbol",
    [
        PolynomialSymbol([1.0, -2.0, 0.5]),
        ExponentialSymbol(0.7),
        RationalSymbol([1.0], [1.0, 1.0]),
        PowerSymbol(0.5),
    ],
    ids=["poly", "exp", "rational", "power"],
)
def test_taylor_series_reproduces_values(symbol):
    center = 1.0 + 0.2j
    coeffs = taylor_coefficients(symbol, center, 18)
    for dz in (0.05, 0.1j, 0.08 - 0.04j):
        series = sum(c * dz**k for k, c in enumerate(coeffs))
        assert abs(series - symbol.eval(center + dz)) < 1e-10


def test_polynomial_taylor_is_shift():
    p = PolynomialSymbol([0.0, 0.0, 1.0])
    assert taylor_coefficients(p, 2.0, 4) == pytest.approx([4.0, 4.0, 1.0, 0.0])


def test_rational_poles_and_domain():
    f = RationalSymbol([1.0], [1.0, 1.0])
    assert f.poles == pytest.approx([-1.0])
    assert not f.domain.contains(-1.0)
    assert f.domain.contains(0.5)
    with pytest.raises(DomainError):
        taylor_coefficients(f, -1.0, 3)


def test_power_branch_cut():
    f = PowerSymbol(0.5)
    assert not f.domain.contains(-2.0)
    assert f.domain.contains(-2.0 + 0.1j)
    with pytest.raises(DomainError):
        taylor_coefficients(f, -2.0, 3)


def test_power_taylor_sqrt_at_one():
    # binomial series of sqrt at 1: 1, 1/2, -1/8, 1/16
    f = PowerSymbol(0.5)
    assert taylor_coefficients(f, 1.0, 4) == pytest.approx([1.0, 0.5, -0.125, 0.0625])


def test_helpers():
    assert identity_symbol().eval(3.0 + 1j) == 3.0 + 1j
    assert PolynomialSymbol((2.5,)).eval(9.0) == 2.5


@given(z=finite_complex)
def test_rational_consistency_with_horner(z):
    num = [1.0, 2.0, -0.5]
    den = [3.0, 0.0, 1.0]
    f = RationalSymbol(num, den)
    p = sum(c * z**k for k, c in enumerate(num))
    q = sum(c * z**k for k, c in enumerate(den))
    assert abs(f.eval(z) - p / q) < 1e-12 * (1 + abs(p / q))


def test_long_evaluations_keep_the_bits_of_short_ones():
    # a product formed in place on a large temporary would round differently
    # from the same product on a short array
    rng = np.random.default_rng(0)
    z = rng.normal(size=40_000) + 1j * rng.normal(size=40_000)
    for f in (PowerSymbol(0.5, 1 - 2j), ExponentialSymbol(0.3 - 1j, 1.5 + 0.5j)):
        short = np.concatenate([f.eval(z[i : i + 100]) for i in range(0, z.size, 100)])
        assert f.eval(z).tobytes() == short.tobytes()
