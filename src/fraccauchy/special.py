"""Scalar gamma functions and the package's one Gauss-Jacobi rule, on numpy
and the math module alone, so that the package needs numpy alone.

`gamma` and `rgamma` keep the usual special-function edge values: 1/Gamma
is exactly 0.0 at the poles, and past the overflow limits the functions go
to inf or 0.
"""

from __future__ import annotations

import functools
import math

import numpy as np


def gamma(x: float) -> float:
    """Gamma(x) for real x: +-inf at +-0 and past 171.62, nan at the
    negative integers and -inf."""
    x = float(x)
    try:
        return math.gamma(x)
    except ValueError:  # a pole below zero, or -inf
        return math.copysign(math.inf, x) if x == 0 else math.nan
    except OverflowError:  # x above 171.62 or below 5.6e-309 in size
        return math.copysign(math.inf, x)


def rgamma(x: float) -> float:
    """1 / Gamma(x) for real x: 0.0 at the poles 0, -1, -2, ..., at -inf and
    past 171.62, +-inf where Gamma underflows below -171."""
    x = float(x)
    if x <= 0 and (x.is_integer() or x == -math.inf):
        return 0.0
    try:
        g = math.gamma(x)
    except OverflowError:  # 1/Gamma(x) = x (1 + 0.58 x) rounds to x near 0
        return x if abs(x) < 1.0 else 0.0
    return 1.0 / g if g else math.copysign(math.inf, g)


@functools.lru_cache(maxsize=64)
def gauss_jacobi(npts: int, beta: float):
    """Gauss rule for the weight (1 + x)^beta on [-1, 1], to about 1 ulp;
    the weight (1 - x)^beta takes the mirrored rule, nodes -x and the same
    weights, and beta = 0 is the Gauss-Legendre rule.  The arrays are shared
    by every caller and read-only.

    The nodes, eigenvalues of the Jacobi matrix, are refined by Newton
    steps and the weights taken from the Christoffel function, both on the
    recurrence of the orthonormal Jacobi polynomials in long double
    (a double-precision Golub-Welsch rule with one Newton step leaves
    weights off by up to 1.4e-13 relative at beta = -0.7).  Where long
    double is double, the weights keep about 1e-14.

    Every Gauss rule of the package is this one: the oracles' far field
    (`solver._soe`), the cell rule and the graded end-cell panels of the
    representation route (`solver._cell_nodes`, `solver._end_rule`) and
    the datum quadrature (`fracops.caputo_derivative_at`).  It is a quadrature
    primitive, checked on its own against mpmath, not shared solution
    numerics: the oracles stay an independent check of the kernel routes.
    """
    b = np.longdouble(beta)
    k = np.arange(1, npts + 1, dtype=np.longdouble)
    s = 2 * k + b
    diag = np.concatenate([[b / (b + 2)], b * b / (s[:-1] * (s[:-1] + 2))])
    off = np.sqrt(4 * k * k * (k + b) ** 2 / (s * s * (s + 1) * (s - 1)))
    band = off[:-1].astype(float)
    matrix = np.diag(diag.astype(float)) + np.diag(band, 1) + np.diag(band, -1)
    x = np.linalg.eigvalsh(matrix).astype(np.longdouble)
    for _ in range(3):
        p_prev, p = np.zeros_like(x), np.ones_like(x)
        dp_prev, dp = np.zeros_like(x), np.zeros_like(x)
        christoffel = np.zeros_like(x)
        for j in range(npts):
            christoffel += p * p
            lower = off[j - 1] if j else 0
            p, p_prev = ((x - diag[j]) * p - lower * p_prev) / off[j], p
            dp, dp_prev = ((x - diag[j]) * dp + p_prev - lower * dp_prev) / off[j], dp
        x = x - p / dp
    mass = np.longdouble(2) ** (b + 1) / (b + 1)
    rule = x.astype(float), (mass / christoffel).astype(float)
    for a in rule:
        a.flags.writeable = False
    return rule


__all__ = ["gamma", "rgamma", "gauss_jacobi"]
