"""Mittag-Leffler evaluation against closed forms and a scaled-erfc oracle.

The half-order identity E_{1/2,1}(z) = exp(z^2) erfc(-z) ties every
evaluation regime to scipy's independently implemented Faddeeva function.
High-precision reference values were frozen from a 50-digit arbitrary
precision evaluation of the defining series.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import erfc, rgamma, wofz

from fraccauchy import DomainError, mittag_leffler, ml_array


def half_order_oracle(z: complex) -> complex:
    return wofz(-1j * z)


def test_exponential_identity():
    assert abs(mittag_leffler(1.0, 1.0, 1.0) - np.e) < 1e-10


def test_cosine_identity():
    assert abs(mittag_leffler(2.0, 1.0, -1.0) - np.cos(1.0)) < 1e-10


def test_erfc_identity():
    assert abs(mittag_leffler(0.5, 1.0, -1.0) - np.e * erfc(1.0)) < 1e-8


def test_value_at_zero():
    for beta in (0.4, 1.0, 2.3):
        assert abs(mittag_leffler(0.7, beta, 0.0) - rgamma(beta)) < 1e-15


def test_sine_identity():
    # E_{2,2}(-x^2) = sin(x)/x
    x = 2.0
    assert abs(mittag_leffler(2.0, 2.0, -(x**2)) - np.sin(x) / x) < 1e-12


def test_expm1_identity():
    # E_{1,2}(z) = (e^z - 1)/z, including far into the left half-axis
    for z in (-0.5, -8.0, -30.0, 2.0):
        assert abs(mittag_leffler(1.0, 2.0, z) - np.expm1(z) / z) < 1e-12


def test_rejects_nonpositive_alpha():
    with pytest.raises(DomainError):
        mittag_leffler(0.0, 1.0, 1.0)
    with pytest.raises(DomainError):
        ml_array(-0.5, 1.0, np.array([1.0]))


# frozen 50-digit series references (real parts; all imaginary parts zero)
FROZEN_REFERENCES = [
    (0.5, 1.0, -4.0, 0.13699945762506138989),
    (0.8, 1.2, -25.0, 0.018475815484895934751),
    (0.25, 0.8, -2.2, 0.22065306527725585187),
    (0.75, 1.5, -6.0, 0.13467403898001362041),
    (1.5, 1.5, -20.0, 0.0061985012468613419281),
]


@pytest.mark.parametrize("alpha,beta,z,ref", FROZEN_REFERENCES)
def test_frozen_high_precision_values(alpha, beta, z, ref):
    assert abs(mittag_leffler(alpha, beta, z) - ref) < 2e-10


@pytest.mark.parametrize(
    "radius", [0.5, 2.0, 4.0, 4.4, 4.8, 5.2, 8.0, 20.0, 50.0]
)
def test_half_order_oracle_across_regimes(radius):
    # frac = 0.5 is the Stokes ray |arg z| = alpha pi
    for frac in (1.0, 0.85, 0.65, 0.5, 0.35, 0.1, 0.0):
        z = radius * np.exp(1j * np.pi * frac)
        ref = half_order_oracle(z)
        if not np.isfinite(abs(ref)) or abs(ref) > 1e12:
            continue
        got = mittag_leffler(0.5, 1.0, z)
        assert abs(got - ref) <= 1e-8 * max(abs(ref), 1e-2)


@given(
    alpha=st.floats(min_value=0.3, max_value=1.0),
    beta=st.floats(min_value=0.3, max_value=2.2),
    re=st.floats(min_value=-3.5, max_value=2.0),
    im=st.floats(min_value=-3.0, max_value=3.0),
)
def test_beta_recurrence(alpha, beta, re, im):
    # E_{a,b}(z) = 1/Gamma(b) + z E_{a,a+b}(z)
    z = complex(re, im)
    lhs = mittag_leffler(alpha, beta, z)
    rhs = rgamma(beta) + z * mittag_leffler(alpha, alpha + beta, z)
    assert abs(lhs - rhs) < 1e-9 * max(1.0, abs(lhs))


@pytest.mark.parametrize("x", [1.0, 6.0, 12.0, 25.0, 50.0])
def test_root_splitting_consistency(x):
    # E_{a,b}(z) as the average of the two half-order evaluations
    a, b = 0.8, 1.2
    direct = mittag_leffler(a, b, -x)
    r = complex(-x) ** 0.5
    split = 0.5 * (mittag_leffler(a / 2, b, r) + mittag_leffler(a / 2, b, -r))
    assert abs(direct - split) < 1e-10 * max(1.0, abs(direct))


def test_vectorized_matches_scalar():
    zs = np.array([-0.5, -5.0, -19.5, -30.0, 1.0 + 2.0j, 0.0])
    va = ml_array(0.5, 1.3, zs)
    vs = np.array([mittag_leffler(0.5, 1.3, z) for z in zs])
    assert np.max(np.abs(va - vs)) < 1e-12


def test_non_finite_arguments_give_nan():
    zs = np.array([np.nan, np.inf, complex(np.nan, 1.0), -np.inf])
    assert np.all(np.isnan(ml_array(0.5, 1.0, zs)))


def test_monotone_relaxation_profile():
    # E_alpha(-x) is completely monotone on x >= 0 for alpha in (0, 1]
    x = np.linspace(0.0, 40.0, 200)
    vals = ml_array(0.6, 1.0, -x).real
    assert np.all(vals > 0)
    assert np.all(np.diff(vals) < 1e-14)


def _sweep_points():
    rng = np.random.default_rng(20261018)
    points = [(1.3, 0.5, -24.9 + 19.2j)]  # once lost to root-averaging cancellation
    for _ in range(375):
        alpha = rng.uniform(0.25, 2.0)
        beta = rng.uniform(0.3, 2.5)
        x = rng.uniform(0.0, min(100.0, 50.0 ** (1.0 / alpha)))
        points.append((alpha, beta, x**alpha * np.exp(1j * rng.uniform(-np.pi, np.pi))))
    return points


def test_accuracy_sweep_against_mpmath(ml_series):
    # documented target: 1e-10, absolute where |E| <= 1 and relative above
    errors = []
    for a, b, z in _sweep_points():
        ref = ml_series(a, b, z)
        errors.append((abs(mittag_leffler(a, b, z) - ref) / max(1.0, abs(ref)), (a, b, z)))
    worst = max(errors, key=lambda e: e[0])
    assert worst[0] < 1e-10, worst
