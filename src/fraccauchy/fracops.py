"""Fractional integrals on uniform grids and derivatives at arbitrary points.

Fractional integrals J^beta use product integration with piecewise-linear
interpolation of the integrand against the kernel (t - s)**(beta - 1).  The
weights are exact on linear data and remain well defined for 0 < beta < 1
where the kernel has an integrable endpoint singularity.

Derivatives of order alpha in (0, 1) are evaluated pointwise: the Caputo
derivative integrates the exact first derivative of the profile with a
Gauss-Jacobi rule for the weight (tau - s)**(-alpha), and the
Riemann-Liouville derivative adds the closed-form term
f(0) tau**(-alpha) / Gamma(1 - alpha).  The fractional Duhamel routes take
their datum D_+^(m-mu) h at the quadrature points of the Duhamel integral
from this pair.
"""

from __future__ import annotations

import numpy as np

from .errors import BlowupError, OrderDomainError
from .grids import ScalarPath, TimeGrid
from .profiles import FunctionSpec, Power
from .special import gamma, gauss_jacobi, rgamma


# ---------------------------------------------------------------------------
# product-integration weights


def _linear_weights(beta: float, n: int):
    """Per-lag weights A(p), B(p) of the piecewise-linear product rule.

    J^beta f(t_n) = h**beta / Gamma(beta) * sum_p A(p) f_{n-p} + B(p) f_{n-p+1}.
    """
    p = np.arange(1, n + 1, dtype=float)
    q = p - 1.0
    pb = p**beta
    qb = q**beta
    pb1 = p ** (beta + 1)
    qb1 = q ** (beta + 1)
    a = (pb1 - qb1) / (beta + 1) - q * (pb - qb) / beta
    b = p * (pb - qb) / beta - (pb1 - qb1) / (beta + 1)
    return a, b


def frac_integral_values(values: np.ndarray, beta: float, h: float) -> np.ndarray:
    """Product-integration J^beta of node samples; node 0 maps to 0."""
    if beta < 0:
        raise OrderDomainError(f"integral order must be >= 0, got {beta}")
    u = np.asarray(values, dtype=complex)
    if beta == 0:
        return u.copy()
    n = len(u) - 1
    a, b = _linear_weights(beta, n)
    conv_a = np.convolve(u, a)
    conv_b = np.convolve(u[1:], b)
    out = np.zeros_like(u)
    out[1:] = conv_a[: n] + conv_b[: n]
    out *= h**beta * rgamma(beta)
    return out


def _integral_path_power(f: Power, beta: float, grid: TimeGrid) -> np.ndarray:
    # exact moments of the singular monomial; its t = 0 sample is unbounded
    p = f.exponent
    coef = f.scale * gamma(p + 1) * rgamma(p + beta + 1)
    t = grid.nodes
    out = np.zeros(grid.n + 1, dtype=complex)
    out[1:] = coef * t[1:] ** (p + beta)
    q = p + beta
    out[0] = 0.0 if q > 0 else (coef if q == 0 else np.inf)
    return out


def frac_integral(f: FunctionSpec, beta: float, grid: TimeGrid) -> ScalarPath:
    """Fractional integral (J^beta f)(t_i) on every grid node.

    beta = 0 returns the samples unchanged.  Power profiles with a negative
    exponent bypass the linear weights through exact moment formulas, since
    their t = 0 sample is infinite.
    """
    if beta < 0:
        raise OrderDomainError(f"integral order must be >= 0, got {beta}")
    if beta == 0:
        return ScalarPath(grid, f.eval_nodes(grid))
    if isinstance(f, Power) and f.singular_at_zero:
        return ScalarPath(grid, _integral_path_power(f, beta, grid))
    vals = f.eval_nodes(grid)
    if not np.all(np.isfinite(vals)):
        raise BlowupError("profile samples are not finite on the grid")
    return ScalarPath(grid, frac_integral_values(vals, beta, grid.h))


# ---------------------------------------------------------------------------
# derivatives at arbitrary points

_POINT_BLOCK = 8192  # evaluation points per block of caputo_derivative_at


def caputo_derivative_at(
    f: FunctionSpec, alpha: float, tau: np.ndarray, npts: int = 24
) -> np.ndarray:
    """Caputo derivative of order alpha in (0, 1) at arbitrary points.

    Gauss-Jacobi quadrature with weight (tau - s)**(-alpha) applied to the
    exact first derivative; exact for polynomial profiles of modest degree.
    """
    if not 0 < alpha < 1:
        raise OrderDomainError(f"pointwise order must lie in (0, 1), got {alpha}")
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    x, w = gauss_jacobi(npts, -alpha)
    df = f.derivative(1)
    acc = np.empty(tau.shape, dtype=complex)
    # blocks of points bound the (points, npts) temporaries; a product of
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


def rl_derivative_at(
    f: FunctionSpec, alpha: float, tau: np.ndarray, npts: int = 24
) -> np.ndarray:
    """Riemann-Liouville derivative of order alpha in (0, 1) at points tau > 0."""
    tau = np.atleast_1d(np.asarray(tau, dtype=float))
    out = caputo_derivative_at(f, alpha, tau, npts=npts)
    f0 = np.asarray(f.eval(0.0)).reshape(-1)[0]
    if f0 != 0:
        with np.errstate(divide="ignore"):
            gap = f0 * rgamma(1.0 - alpha) * tau ** (-alpha)
        out = out + gap
    return out


__all__ = [
    "frac_integral",
    "frac_integral_values",
    "caputo_derivative_at",
    "rl_derivative_at",
]
