"""Operator and transform calculus that the tests check the package with.

No route needs these, so they live beside the tests: the product-integration
fractional integral J^beta on a grid (the Abel round trip of acceptance
criterion 7, and a weighted-datum check of the single-order route), the
truncated Laplace transform of a profile (criterion 8), d^k/dt^k of a
Duhamel integral with finite differences of any order, and three
evaluations of f(A) for a symbol f and an operator A, spectral, local Taylor
series and resolvent contour, which cross-check one another (criterion 9).
Beside them sit the small probes of profiles, symbols and operators that
only tests take: node samples of a profile, Taylor coefficients of a symbol,
an operator's spectrum, frequencies and action on one state, the
characteristic function Delta(s, z) of a measure, and the discrete residual
of a path under the stepping oracles' scheme.
"""

import numpy as np
from scipy.integrate import quad

from fraccauchy.errors import (
    BlowupError,
    CapabilityError,
    DomainError,
    FracCauchyError,
    OrderDomainError,
    PreconditionError,
)
from fraccauchy.grids import ScalarPath, TimeGrid
from fraccauchy.kernels import OrderMeasure, symbol_values
from fraccauchy.operators import FourierMultiplier, MatrixOperator, SpectralOperator
from fraccauchy.grids import require_same_grid
from fraccauchy.oracles import _BlockSystem, _caputo_terms, _fill_differences, _term_operators
from fraccauchy.problems import CauchyProblem, SolutionPath, _require_caputo
from fraccauchy.profiles import FunctionSpec, Power, Sampled
from fraccauchy.special import gamma, rgamma
from fraccauchy.symbols import (
    ExponentialSymbol,
    PolynomialSymbol,
    PowerSymbol,
    RationalSymbol,
    SymbolFunction,
)


class LocalityError(FracCauchyError):
    """A local Taylor series failed to truncate (vector not in the root lineal)."""


class ContourError(FracCauchyError):
    """An eigenvalue sits too close to the integration contour."""


# ---------------------------------------------------------------------------
# profiles: node samples and finite differences


def eval_nodes(f: FunctionSpec, grid: TimeGrid) -> np.ndarray:
    """Samples of a profile on every grid node; a sampled profile must live
    on that grid and returns a copy of its values."""
    if isinstance(f, Sampled):
        require_same_grid(f.path.grid, grid)
        return f.path.values.copy()
    return np.asarray(f.eval(grid.nodes), dtype=complex)


def fd_derivative(values: np.ndarray, h: float, order: int) -> np.ndarray:
    """order-th derivative of uniformly spaced samples, O(h^2) stencils."""
    u = np.asarray(values, dtype=complex)
    n = len(u) - 1
    if order == 0:
        return u.copy()
    if order == 1:
        d = np.empty_like(u)
        d[1:-1] = (u[2:] - u[:-2]) / (2 * h)
        d[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
        d[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
        return d
    if order == 2:
        d = np.empty_like(u)
        d[1:-1] = (u[2:] - 2 * u[1:-1] + u[:-2]) / h**2
        d[0] = (2 * u[0] - 5 * u[1] + 4 * u[2] - u[3]) / h**2
        d[-1] = (2 * u[-1] - 5 * u[-2] + 4 * u[-3] - u[-4]) / h**2
        return d
    if n + 1 < order + 3:
        raise CapabilityError(f"grid too coarse for derivative order {order}")
    d = np.empty_like(u)
    half = (order + 2) // 2
    for i in range(n + 1):
        lo = min(max(i - half, 0), n - order - 2)
        offsets = np.arange(lo, lo + order + 3) - i
        w = fd_weights(offsets.astype(float), order)
        d[i] = np.dot(w, u[lo : lo + order + 3]) / h**order
    return d


def fd_weights(offsets: np.ndarray, order: int) -> np.ndarray:
    """Finite-difference weights on arbitrary integer offsets (Fornberg)."""
    x = np.asarray(offsets, dtype=float)
    npts = len(x)
    if npts <= order:
        raise ValueError("need more points than the derivative order")
    c = np.zeros((npts, order + 1))
    c[0, 0] = 1.0
    c1 = 1.0
    for i in range(1, npts):
        c2 = 1.0
        mn = min(i, order)
        prev = c[i - 1].copy()
        for j in range(i):
            c3 = x[i] - x[j]
            c2 *= c3
            for k in range(mn, 0, -1):
                c[j, k] = (x[i] * c[j, k] - k * c[j, k - 1]) / c3
            c[j, 0] = x[i] * c[j, 0] / c3
        for k in range(mn, 0, -1):
            c[i, k] = c1 * (k * prev[k - 1] - x[i - 1] * prev[k]) / c2
        c[i, 0] = -c1 * x[i - 1] * prev[0] / c2
        c1 = c2
    return c[:, order]


# ---------------------------------------------------------------------------
# symbols: Taylor coefficients about a point of the domain


def taylor_coefficients(f: SymbolFunction, center: complex, count: int) -> np.ndarray:
    """Coefficients f^(n)(center) / n! for n = 0..count-1, exact for every
    symbol kind of the catalog."""
    center = complex(center)
    if isinstance(f, PolynomialSymbol):
        return _shift_poly(f.coefficients, center, count)
    if isinstance(f, PowerSymbol):
        f.domain.check(center, "expansion point")
        p = f.exponent
        out = np.empty(count, dtype=complex)
        for n in range(count):
            binom = gamma(p + 1) * rgamma(p - n + 1) * rgamma(n + 1)
            out[n] = f.scale * binom * np.power(center, p - n)
        return out
    if isinstance(f, ExponentialSymbol):
        out = np.empty(count, dtype=complex)
        base = f.scale * np.exp(f.rate * center)
        fact = 1.0
        for n in range(count):
            if n > 0:
                fact *= n
            out[n] = base * f.rate**n / fact
        return out
    if isinstance(f, RationalSymbol):
        f.domain.check(center, "expansion point")
        num = _shift_poly(f.numerator, center, count)
        den = _shift_poly(f.denominator, center, count)
        return _series_divide(num, den, count)
    raise CapabilityError(f"no Taylor coefficients for {type(f).__name__}")


def _deflate(coeffs, center):
    """Divide the polynomial by (z - center), dropping the remainder."""
    out = [0.0j] * (len(coeffs) - 1)
    carry = 0.0 + 0.0j
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + carry * center
        out[k - 1] = carry
    return out


def _shift_poly(coeffs, center, count):
    """Taylor coefficients of the polynomial about the given center."""
    work = list(coeffs)
    out = np.zeros(count, dtype=complex)
    for n in range(count):
        if not work:
            break
        acc = 0.0 + 0.0j
        for c in reversed(work):
            acc = acc * center + c
        out[n] = acc
        work = _deflate(work, center)
    return out


def _series_divide(num, den, count):
    """Power-series division num / den to the given number of terms."""
    if den[0] == 0:
        raise DomainError("expansion point is a pole")
    out = np.zeros(count, dtype=complex)
    for n in range(count):
        acc = num[n] if n < len(num) else 0.0
        for k in range(1, n + 1):
            if k < len(den):
                acc -= den[k] * out[n - k]
        out[n] = acc / den[0]
    return out


# ---------------------------------------------------------------------------
# operators: spectrum, frequencies and action on one state


def check_vector(op: SpectralOperator, v: np.ndarray) -> np.ndarray:
    """One state of the operator's dimension, as a complex array."""
    v = np.asarray(v, dtype=complex)
    if v.shape != (op.dimension,):
        raise DomainError(f"state has shape {v.shape}, operator needs ({op.dimension},)")
    return v


def spectrum(op: SpectralOperator) -> np.ndarray:
    """Eigenvalues in spectral-coordinate order; a matrix whose eigenbasis
    fails its conditioning check falls back to `np.linalg.eigvals`."""
    if isinstance(op, FourierMultiplier):
        return op.symbol_values.copy()
    try:
        lam, _, _ = op.eigensystem()
    except CapabilityError:
        lam = np.linalg.eigvals(op.matrix)
    return lam


def frequencies(op: FourierMultiplier) -> np.ndarray:
    """Frequencies xi_j of the multiplier's modes, in FFT order."""
    return FourierMultiplier.frequencies_static(op.modes, op.length)


def apply_operator(op: SpectralOperator, v: np.ndarray) -> np.ndarray:
    """A v for one state v: the matrix product, or mode-wise multiplication."""
    v = check_vector(op, v)
    if isinstance(op, FourierMultiplier):
        return np.fft.ifft(op.symbol_values * np.fft.fft(v))
    return op.matrix @ v


# ---------------------------------------------------------------------------
# fractional integrals on uniform grids: product integration with
# piecewise-linear interpolation of the integrand against (t - s)**(beta - 1),
# exact on linear data and well defined for 0 < beta < 1


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
        return ScalarPath(grid, eval_nodes(f, grid))
    if isinstance(f, Power) and f.singular_at_zero:
        return ScalarPath(grid, _integral_path_power(f, beta, grid))
    vals = eval_nodes(f, grid)
    if not np.all(np.isfinite(vals)):
        raise BlowupError("profile samples are not finite on the grid")
    return ScalarPath(grid, frac_integral_values(vals, beta, grid.h))


# ---------------------------------------------------------------------------
# truncated Laplace transform and Duhamel integral differentiation


def numeric_laplace(
    f: FunctionSpec, s: complex, t_trunc: float, epsabs: float = 1e-12
) -> complex:
    """Truncated Laplace transform int_0^t_trunc exp(-s t) f(t) dt.

    Uses scipy's adaptive `quad` for analytic profiles and the exact
    transform of the linear interpolant for sampled ones.  If
    |f(t)| <= C exp(g t) with Re(s) > g, the truncation error is bounded by
    C exp(-(Re(s) - g) t_trunc) / (Re(s) - g).
    """
    s = complex(s)
    if s.real <= 0:
        raise DomainError(f"Laplace abscissa must have positive real part, got {s}")
    if t_trunc <= 0:
        raise DomainError(f"truncation time must be positive, got {t_trunc}")
    if isinstance(f, Sampled):
        return _laplace_sampled(f, s, t_trunc)
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


# ---------------------------------------------------------------------------
# f(A) three ways


def _checked_values(f: SymbolFunction, spectrum: np.ndarray) -> np.ndarray:
    out = np.empty(len(spectrum), dtype=complex)
    for i, lam in enumerate(spectrum):
        if not f.domain.contains(lam):
            raise DomainError(
                f"eigenvalue {lam} lies outside the symbol domain {f.domain}"
            )
        out[i] = f.eval(lam)
    return out


def apply_symbol_spectral(
    f: SymbolFunction, op: SpectralOperator, v: np.ndarray
) -> np.ndarray:
    """f(A) v through the eigendecomposition (or mode-wise for multipliers)."""
    if isinstance(op, FourierMultiplier):
        fa = _checked_values(f, op.symbol_values)
        return np.fft.ifft(fa * np.fft.fft(check_vector(op, v)))
    lam, p, pinv = op.eigensystem()
    fa = _checked_values(f, lam)
    return p @ (fa * (pinv @ check_vector(op, v)))


def apply_symbol_taylor(
    f: SymbolFunction,
    op: MatrixOperator,
    u: np.ndarray,
    lam: complex,
    n_max: int,
) -> np.ndarray:
    """Local series sum_n f^(n)(lam)/n! (A - lam I)^n u.

    Valid when u lies in the root lineal of the eigenvalue lam, where the
    series truncates after at most the Jordan block size; a growing tail is
    reported as a locality violation.
    """
    if not isinstance(op, MatrixOperator):
        raise CapabilityError("the Taylor route needs a matrix operator")
    d = op.dimension
    if n_max < d:
        raise PreconditionError(f"n_max must be at least the dimension {d}")
    u = check_vector(op, u)
    coeffs = taylor_coefficients(f, lam, n_max + 1)
    shifted = op.matrix - lam * np.eye(d)
    acc = coeffs[0] * u
    w = u
    prev_norm = np.linalg.norm(u)
    grow_count = 0
    for n in range(1, n_max + 1):
        w = shifted @ w
        norm = np.linalg.norm(w)
        if norm == 0.0:
            break
        if n > d:
            if norm > prev_norm:
                grow_count += 1
                if grow_count >= 2:
                    raise LocalityError(
                        f"series term norms grow past n = {n}; "
                        f"vector is not local to eigenvalue {lam}"
                    )
            else:
                grow_count = 0
        acc = acc + coeffs[n] * w
        prev_norm = norm
    return acc


def apply_symbol_contour(
    f: SymbolFunction,
    op: MatrixOperator,
    v: np.ndarray,
    center: complex = 0.0,
    radius: float = 1.0,
    n_nodes: int = 64,
) -> np.ndarray:
    """f(A) v as the resolvent contour integral over a circle.

    Trapezoid quadrature on circles converges geometrically for analytic
    integrands; the circle must enclose the spectrum and stay inside the
    symbol domain.
    """
    if not isinstance(op, MatrixOperator):
        raise CapabilityError("the contour route needs a matrix operator")
    v = check_vector(op, v)
    lam = spectrum(op)
    dist = np.abs(np.abs(lam - center) - radius)
    if np.any(np.abs(lam - center) >= radius):
        raise ContourError(
            "contour does not enclose the spectrum: "
            f"eigenvalue {lam[np.argmax(np.abs(lam - center))]} outside"
        )
    if np.any(dist < 1e-6 * radius):
        raise ContourError(
            f"eigenvalue {lam[np.argmin(dist)]} lies within 1e-6 radius "
            "of the contour"
        )
    theta = 2 * np.pi * (np.arange(n_nodes) + 0.5) / n_nodes
    zeta = center + radius * np.exp(1j * theta)
    d = op.dimension
    acc = np.zeros(d, dtype=complex)
    eye = np.eye(d)
    for zj, th in zip(zeta, theta):
        f.domain.check(zj, "contour point")
        resolvent_v = np.linalg.solve(zj * eye - op.matrix, v)
        acc += np.exp(1j * th) * complex(f.eval(zj)) * resolvent_v
    return acc * radius / n_nodes


# ---------------------------------------------------------------------------
# the characteristic function of a measure


def char_eval(measure: OrderMeasure, s, z: complex):
    """Characteristic function Delta(s, z) with principal-branch powers.

    Accepts a scalar or an array of Laplace abscissas s with Re(s) > 0.
    """
    s_arr = np.asarray(s, dtype=complex)
    if np.any(s_arr.real <= 0):
        raise DomainError("characteristic function needs Re(s) > 0")
    g, weights = symbol_values(measure, z)
    acc = s_arr**measure.mu * g
    for a, w in zip(measure.atoms, weights):
        acc = acc + w * s_arr**a.alpha
    if np.ndim(s) == 0:
        return complex(acc)
    return acc


# ---------------------------------------------------------------------------
# discrete residual of a path under the oracle scheme


def operator_residual(problem: CauchyProblem, path: SolutionPath) -> np.ndarray:
    """Discrete distributed-order operator applied to a path, minus forcing.

    Uses the oracle discretization, block by block in order with the
    march's weights and far field; the result at nodes 1..n tends to zero
    under refinement when the path solves the problem.
    """
    _require_caputo(problem, "operator_residual")
    grid = problem.grid
    n = grid.n
    terms = _term_operators(problem)
    op = problem.operator
    u = np.ascontiguousarray(op.to_spectral(path.states), dtype=complex)
    phi1 = np.zeros(problem.dim, complex)
    if len(problem.initial) > 1:
        phi1 = op.to_spectral(problem.initial[1])
    system = _BlockSystem(_caputo_terms(terms, grid), grid)
    deltas = {r: np.empty((n, problem.dim), dtype=complex) for r in system.orders}
    _fill_differences(deltas, u, 0, n, grid.h, phi1)
    res = np.empty((n, problem.dim), dtype=complex)
    for b0 in [1, *range(2, n + 1, system.size)]:
        b1 = 2 if b0 == 1 else min(b0 + system.size, n + 1)
        res[b0 - 1 : b1 - 1] = system.far(u, deltas, b0, b1) + system.near(
            u, deltas, b0, b1
        )
    if problem.forcing_or_zero() is not None:
        res -= op.to_spectral(problem.forcing.values(grid.nodes[1:]))
    return op.from_spectral(res)
