"""Scalar gamma functions and the Gauss-Jacobi rule against mpmath."""

import math

import numpy as np
import pytest

from fraccauchy.special import gamma, gauss_jacobi, rgamma

mp = pytest.importorskip("mpmath")

INF, NAN = math.inf, math.nan


def _ulps(value: float, ref) -> float:
    return float(abs(mp.mpf(value) - ref) / math.ulp(float(ref)))


def test_gamma_and_rgamma_within_a_few_ulp_of_mpmath():
    xs = np.concatenate([np.linspace(-5.0, 171.0, 1201), np.linspace(-5.0, 5.0, 801)])
    xs = xs[~((xs <= 0) & (xs == np.round(xs)))]
    worst_g = worst_r = 0.0
    with mp.workdps(40):
        for x in xs.tolist():
            ref = mp.gamma(mp.mpf(x))
            worst_g = max(worst_g, _ulps(gamma(x), ref))
            worst_r = max(worst_r, _ulps(rgamma(x), 1 / ref))
    assert worst_g <= 8 and worst_r <= 8, (worst_g, worst_r)


def test_values_at_the_poles():
    for k in range(201):
        assert rgamma(-float(k)) == 0.0
        assert rgamma(np.float64(-k)) == 0.0
    assert gamma(0.0) == INF and gamma(-0.0) == -INF
    assert all(math.isnan(gamma(-float(k))) for k in range(1, 201))


@pytest.mark.parametrize(
    "x, g, r",
    [
        (171.7, INF, 0.0),  # Gamma overflows past 171.62
        (172.0, INF, 0.0),
        (1e5, INF, 0.0),
        (INF, INF, 0.0),
        (-INF, NAN, 0.0),
        (NAN, NAN, NAN),
        (1e-310, INF, 1e-310),  # 1/Gamma(x) rounds to x near 0
        (5e-324, INF, 5e-324),
        (-1e-310, -INF, -1e-310),
    ],
)
def test_overflow_edges(x, g, r):
    for got, want in ((gamma(x), g), (rgamma(x), r)):
        assert got == want or (math.isnan(got) and math.isnan(want)), (x, got, want)


@pytest.mark.parametrize("x", [-171.5, -172.5, -180.5, -99999.5])
def test_underflow_edges_below_minus_171(x):
    # Gamma underflows to a signed zero or subnormal, 1/Gamma to inf of its sign
    sign = (-1) ** (math.floor(-x) + 1)
    assert abs(gamma(x)) < 1e-300 and math.copysign(1.0, gamma(x)) == sign
    assert rgamma(x) == sign * INF


def test_edges_match_the_largest_finite_values():
    with mp.workdps(40):
        for x in (171.0, 171.6):
            assert _ulps(gamma(x), mp.gamma(x)) <= 8
        assert abs(rgamma(171.6) - float(mp.rgamma(171.6))) <= 8 * 5e-324


def _reference_rule(npts: int, beta: float, x0: np.ndarray):
    """Zeros of the Jacobi polynomial P_n^(0, beta) from the starting points
    x0, and the Gauss weights 2^(beta+1) / ((1 - x^2) P_n'(x)^2), at 40 digits."""
    with mp.workdps(40):
        b = mp.mpf(beta)
        xs = [mp.findroot(lambda x: mp.jacobi(npts, 0, b, x), mp.mpf(v)) for v in x0]
        ws = [
            2 ** (b + 1) / ((1 - x * x) * ((npts + b + 1) / 2 * mp.jacobi(npts - 1, 1, b + 1, x)) ** 2)
            for x in xs
        ]
        return np.array([float(x) for x in xs]), np.array([float(w) for w in ws])


ORDERS = (0.05, 0.2, 0.3, 0.5, 0.7, 0.8, 0.95)


@pytest.mark.parametrize(
    "npts, beta",
    # caputo_derivative_at: 24 points, (1 - x)^(-alpha) by the mirrored rule
    [(24, -a) for a in ORDERS]
    # the first panel of the graded Duhamel rules: 10 points, (1 + x)^(-gamma)
    + [(10, -a) for a in (0.0,) + ORDERS]
    # the far field of the stepping oracles: 8 points, s^(-a) and s^a
    + [(8, s * a) for a in ORDERS for s in (-1.0, 1.0)],
)
def test_gauss_jacobi_against_mpmath(npts, beta):
    x, w = gauss_jacobi(npts, beta)
    xr, wr = _reference_rule(npts, beta, x)
    assert np.all(np.diff(xr) > 0)  # npts distinct zeros: all of them
    assert np.max(np.abs(x - xr) / np.abs(xr)) <= 1e-14
    assert np.max(np.abs(w - wr) / wr) <= 1e-14
    assert not x.flags.writeable and not w.flags.writeable
