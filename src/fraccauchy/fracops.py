"""Fractional derivatives of order alpha in (0, 1) at arbitrary points.

The Caputo derivative integrates the exact first derivative of the profile
with a Gauss-Jacobi rule for the weight (tau - s)**(-alpha), and the
Riemann-Liouville derivative adds the closed-form term
f(0) tau**(-alpha) / Gamma(1 - alpha).  Constant, polynomial and power
profiles take the power rule D^alpha t^p = Gamma(p+1) / Gamma(p+1-alpha)
t^(p-alpha) per monomial instead: it is exact, and for t^p with p < 1 the
rule could not follow the first derivative where it is unbounded at 0.
The representation route takes its datum D_+^(m-mu) h at its quadrature
points from `rl_derivative_at`; the fractional Duhamel routes take the C^1
remainder of their datum at the grid nodes from `caputo_derivative_at`.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import OrderDomainError
from .profiles import Constant, FunctionSpec, Polynomial, Power
from .special import gamma, gauss_jacobi, rgamma

_POINT_BLOCK = 8192  # evaluation points per block of caputo_derivative_at
_GAUSS_POINTS = 24  # nodes of the Gauss-Jacobi rule


def caputo_derivative_at(f: FunctionSpec, alpha: float, tau: np.ndarray) -> np.ndarray:
    """Caputo derivative of order alpha in (0, 1) at arbitrary points.

    Gauss-Jacobi quadrature with weight (tau - s)**(-alpha) applied to the
    exact first derivative.  Constants, polynomials and powers scale t^p,
    p > 0, take the power rule per monomial, exact for every p.
    """
    if not 0 < alpha < 1:
        raise OrderDomainError(f"pointwise order must lie in (0, 1), got {alpha}")
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    terms = _monomials(f)
    if terms is not None:
        out = np.zeros(tau.shape, dtype=complex)
        for scale, p in terms:
            coef = complex(scale) * gamma(p + 1.0) * rgamma(p + 1.0 - alpha)
            with np.errstate(divide="ignore", invalid="ignore"):
                out = out + coef * tau ** (p - alpha)
        out[tau == 0] = 0.0
        return out
    x, w = gauss_jacobi(_GAUSS_POINTS, -alpha)
    df = f.derivative(1)
    acc = np.empty(tau.shape, dtype=complex)
    # blocks of points bound the (points, nodes) temporaries; a product of
    # two rows or more rounds each row as a product over all points does, a
    # single row does not, so no block holds one row unless the call does
    starts = list(range(0, tau.size, _POINT_BLOCK))
    if len(starts) > 1 and tau.size - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [tau.size]):
        # s = tau (1 - x) / 2, kernel (tau - s)^(-alpha) = (tau/2)^(-alpha) (1+x)^(-alpha)
        s = 0.5 * tau[lo:hi, None] * (1.0 - x[None, :])
        acc[lo:hi] = np.asarray(df.eval(s), dtype=complex) @ w
    out = (0.5 * tau) ** (1.0 - alpha) * acc * rgamma(1.0 - alpha)
    out[tau == 0] = 0.0
    return out


def _monomials(f: FunctionSpec):
    """f as (scale, p) terms scale t^p with p > 0, its constant dropped, or
    None if f is no sum of such powers."""
    if isinstance(f, Power) and f.exponent > 0:
        # the rule would miss f' = p t^(p-1), unbounded at 0 for p < 1
        return [(f.scale, f.exponent)]
    if isinstance(f, Polynomial):
        return [(c, float(k)) for k, c in enumerate(f.coefficients) if k and c]
    if isinstance(f, Constant):
        return []
    return None


def rl_derivative_at(f: FunctionSpec, alpha: float, tau: np.ndarray) -> np.ndarray:
    """Riemann-Liouville derivative of order alpha in (0, 1) at points tau > 0."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = caputo_derivative_at(f, alpha, tau)
    f0 = np.asarray(f.eval(0.0)).reshape(-1)[0]
    if f0 != 0:
        c = f0 * rgamma(1.0 - alpha)
        with np.errstate(divide="ignore", invalid="ignore"):  # tau = 0: inf times a zero part
            gap = c * tau ** (-alpha)
        # at tau = 0 the limit from tau > 0, part by part: a zero part of c adds 0
        gap[tau == 0] = complex(*(p * math.inf if p else 0.0 for p in (c.real, c.imag)))
        out = out + gap
    return out


__all__ = [
    "caputo_derivative_at",
    "rl_derivative_at",
]
