"""Numerical fractional calculus on uniform time grids.

The workhorse is product integration with piecewise-linear interpolation of
the integrand against the kernel (t - s)**(beta - 1).  The weights are exact
on linear data and remain well defined for 0 < beta < 1 where the kernel has
an integrable endpoint singularity.  Riemann-Liouville derivatives
differentiate that reconstruction (one derivative in closed form, any
further ones by second-order differences); Caputo derivatives integrate the
exact derivative of the profile instead, so the two are genuinely
independent numerical paths whose gap can be checked against the
closed-form correction terms.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import (
    BlowupError,
    CapabilityError,
    DomainError,
    OrderDomainError,
)
from .grids import ScalarPath, TimeGrid
from .profiles import (
    FunctionSpec,
    Power,
    Sampled,
    fd_derivative,
    fd_weights,
    taylor_at_zero,
)
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
# derivatives


def _limit_at_zero_rl(f: FunctionSpec, alpha: float) -> complex:
    """Limit of the Riemann-Liouville derivative at t -> 0+, NaN if divergent."""
    m = math.ceil(alpha)
    if isinstance(f, Power):
        coef = f.scale * gamma(f.exponent + 1) * rgamma(f.exponent - alpha + 1)
        if f.exponent > alpha:
            return 0.0
        if f.exponent == alpha:
            return coef
        return 0.0 if coef == 0 else complex(np.nan, np.nan)
    derivs = taylor_at_zero(f, m)
    if any(derivs[k] != 0 for k in range(m) if k < alpha):
        return complex(np.nan, np.nan)
    return 0.0


def _rl_path_power(f: Power, alpha: float, grid: TimeGrid) -> np.ndarray:
    coef = f.scale * gamma(f.exponent + 1) * rgamma(f.exponent - alpha + 1)
    out = np.zeros(grid.n + 1, dtype=complex)
    if coef != 0:
        out[1:] = coef * grid.nodes[1:] ** (f.exponent - alpha)
    out[0] = _limit_at_zero_rl(f, alpha)
    return out


def rl_derivative(f: FunctionSpec, alpha: float, grid: TimeGrid) -> ScalarPath:
    """Riemann-Liouville derivative as the m-th derivative of J^(m-alpha) f.

    The first derivative of the product-integration reconstruction is taken
    in closed form (the piecewise-linear interpolant differentiates exactly
    through the kernel); orders above one apply the remaining m - 1
    derivatives with second-order finite differences.  Node 0 carries the
    analytic limit when finite and NaN otherwise.
    """
    if alpha < 0:
        raise OrderDomainError(f"derivative order must be >= 0, got {alpha}")
    if isinstance(f, Sampled) and alpha >= 2:
        raise CapabilityError("sampled profiles admit orders below 2 only")
    m = math.ceil(alpha)
    if alpha == m:  # integer order, classical derivative
        if alpha == 0:
            return ScalarPath(grid, f.eval_nodes(grid))
        if isinstance(f, Sampled):
            vals = f.eval_nodes(grid)
            return ScalarPath(grid, fd_derivative(vals, grid.h, m))
        return ScalarPath(grid, f.derivative(m).eval_nodes(grid))
    if isinstance(f, Power) and f.exponent != round(f.exponent):
        # fractional monomials differentiate in closed form; their samples
        # near 0 would otherwise poison the reconstruction
        return ScalarPath(grid, _rl_path_power(f, alpha, grid))

    vals = f.eval_nodes(grid)
    if not np.all(np.isfinite(vals)):
        raise BlowupError("profile samples are not finite on the grid")
    h = grid.h
    n = grid.n
    beta = m - alpha  # in (0, 1)
    slopes = np.diff(vals) / h
    p = np.arange(1, n + 1, dtype=float)
    w = p**beta - (p - 1) ** beta
    conv = np.convolve(slopes, w)
    path = np.zeros(n + 1, dtype=complex)
    path[1:] = h**beta * rgamma(beta + 1) * conv[:n]
    f0 = vals[0]
    zero_start = f0 == 0
    if not zero_start:
        path[1:] += f0 * rgamma(beta) * grid.nodes[1:] ** (beta - 1.0)
    if m == 1:
        out = path
    else:
        if zero_start:
            out = fd_derivative(path, h, m - 1)
        else:
            # path diverges at node 0; differentiate without touching it
            out = np.empty(n + 1, dtype=complex)
            out[1:] = fd_derivative(path[1:], h, m - 1)
    out[0] = _limit_at_zero_rl(f, alpha)
    if not np.all(np.isfinite(out[1:])):
        raise BlowupError("non-finite Riemann-Liouville value at an interior node")
    return ScalarPath(grid, out)


def caputo_derivative(f: FunctionSpec, alpha: float, grid: TimeGrid) -> ScalarPath:
    """Caputo derivative J^(m-alpha) applied to the m-th derivative of f."""
    if alpha < 0:
        raise OrderDomainError(f"derivative order must be >= 0, got {alpha}")
    m = math.ceil(alpha)
    if isinstance(f, Sampled) and alpha >= 1:
        raise CapabilityError(
            "sampled profiles support regularized derivatives of order below 1"
        )
    if m > f.max_derivatives:
        raise CapabilityError(
            f"profile supplies {f.max_derivatives} derivatives, order {alpha} needs {m}"
        )
    if alpha == m:
        if alpha == 0:
            return ScalarPath(grid, f.eval_nodes(grid))
        if isinstance(f, Sampled):
            return ScalarPath(grid, fd_derivative(f.eval_nodes(grid), grid.h, m))
        return ScalarPath(grid, f.derivative(m).eval_nodes(grid))
    return frac_integral(f.derivative(m), m - alpha, grid)


def rl_caputo_gap(f: FunctionSpec, alpha: float, grid: TimeGrid) -> ScalarPath:
    """Closed-form difference between the two derivatives at lower terminal 0.

    Returns sum_k f^(k)(0) t**(k - alpha) / Gamma(k - alpha + 1) over
    k = 0..m-1; node 0 is the limit when finite, NaN otherwise.
    """
    m = math.ceil(alpha)
    if alpha == m:
        raise OrderDomainError(f"gap is defined for non-integer orders, got {alpha}")
    if isinstance(f, Sampled):
        if alpha >= 1:
            raise CapabilityError("sampled profiles expose f(0) only")
        derivs = np.array([f.path.values[0]], dtype=complex)
    else:
        derivs = taylor_at_zero(f, m)
    t = grid.nodes
    out = np.zeros(grid.n + 1, dtype=complex)
    for k in range(m):
        coef = derivs[k] * rgamma(k - alpha + 1)
        if coef == 0:
            continue
        out[1:] += coef * t[1:] ** (k - alpha)
        if k < alpha:  # the term diverges at t = 0
            out[0] = complex(np.nan, np.nan)
    return ScalarPath(grid, out)


def solve_abel(h: FunctionSpec, alpha: float, grid: TimeGrid) -> ScalarPath:
    """Continuous solution u of the Abel equation J^alpha u = h, 0 < alpha < 1.

    The solution is the Riemann-Liouville derivative of order alpha of h,
    the exponent that makes J^alpha invert the construction.
    """
    if not 0 < alpha < 1:
        raise OrderDomainError(f"Abel order must lie in (0, 1), got {alpha}")
    return rl_derivative(h, alpha, grid)


# ---------------------------------------------------------------------------
# pointwise evaluation off the grid (continuous extensions)

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


# ---------------------------------------------------------------------------
# Duhamel integral differentiation and truncated Laplace transform


def duhamel_kth_derivative(V, k: int, grid: TimeGrid) -> ScalarPath:
    """d^k/dt^k of u(t) = int_0^t V(t, tau) dtau by the diagonal-trace formula.

    The derivative splits into traces of t-derivatives of V on the diagonal
    tau = t plus the integral of the k-th t-derivative.  Partial derivatives
    of V use forward difference stencils with step h (so evaluation points
    never cross t < tau); the kernel must evaluate for t up to
    t_end + (k + 2) h.
    """
    if k < 1:
        raise OrderDomainError(f"derivative count must be >= 1, got {k}")
    h = grid.h
    t = grid.nodes
    n = grid.n

    def dt_V(order, tt, tau):
        # forward-biased stencil keeps evaluation points at t >= tau
        if order == 0:
            return np.asarray(V(tt, tau), dtype=complex)
        offs = np.arange(0.0, order + 3.0)
        w = fd_weights(offs, order)
        acc = np.zeros(np.broadcast(tt, tau).shape, dtype=complex)
        for j, wj in enumerate(w):
            acc += wj * np.asarray(V(tt + j * h, tau), dtype=complex)
        return acc / h**order

    # traces W_i(t) = d_t^i V(t, tau) | tau = t, for i = 0..k-1
    traces = [dt_V(i, t, t) for i in range(k)]
    total = np.zeros(n + 1, dtype=complex)
    for j in range(k):
        w_trace = traces[k - 1 - j]
        total += fd_derivative(w_trace, h, j) if j > 0 else w_trace

    # integral of the k-th derivative, composite trapezoid on tau <= t_i
    integral = np.zeros(n + 1, dtype=complex)
    for i in range(1, n + 1):
        integral[i] = np.trapezoid(dt_V(k, t[i], t[: i + 1]), dx=h)
    return ScalarPath(grid, total + integral)


def numeric_laplace(
    f: FunctionSpec, s: complex, t_trunc: float, epsabs: float = 1e-12
) -> complex:
    """Truncated Laplace transform int_0^t_trunc exp(-s t) f(t) dt.

    Uses scipy's adaptive `quad` for analytic profiles and the exact
    transform of the linear interpolant for sampled ones.  If
    |f(t)| <= C exp(g t) with Re(s) > g, the truncation error is bounded by
    C exp(-(Re(s) - g) t_trunc) / (Re(s) - g).  No solve calls this, so
    scipy is imported here, on the first analytic profile, and the solve
    path needs numpy alone.
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"Laplace abscissa must have positive real part, got {s}")
    if t_trunc <= 0:
        raise DomainError(f"truncation time must be positive, got {t_trunc}")
    if isinstance(f, Sampled):
        return _laplace_sampled(f, s, t_trunc)
    from scipy.integrate import quad

    val, _ = quad(
        lambda t: np.exp(-s * t) * complex(np.asarray(f.eval(t)).reshape(-1)[0]),
        0.0,
        t_trunc,
        epsabs=epsabs,
        limit=400,
        complex_func=True,
    )
    return complex(val)


def _laplace_sampled(f: Sampled, s: complex, t_trunc: float) -> complex:
    grid = f.path.grid
    if t_trunc > grid.t_end * (1 + 1e-12):
        raise DomainError("truncation time exceeds the sampled support")
    t = grid.nodes
    u = f.path.values
    mask = t <= t_trunc + 1e-15
    t = t[mask]
    u = u[mask]
    # exact integral of exp(-s t) (a + b t) per cell
    t0, t1 = t[:-1], t[1:]
    u0, u1 = u[:-1], u[1:]
    b = (u1 - u0) / (t1 - t0)
    a = u0 - b * t0
    e0 = np.exp(-s * t0)
    e1 = np.exp(-s * t1)
    term_const = a * (e0 - e1) / s
    term_lin = b * ((t0 * e0 - t1 * e1) / s + (e0 - e1) / s**2)
    return complex(np.sum(term_const + term_lin))


__all__ = [
    "frac_integral",
    "frac_integral_values",
    "rl_derivative",
    "caputo_derivative",
    "rl_caputo_gap",
    "solve_abel",
    "caputo_derivative_at",
    "rl_derivative_at",
    "duhamel_kth_derivative",
    "numeric_laplace",
]
