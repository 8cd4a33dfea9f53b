"""Solution routes for distributed-order fractional Cauchy problems.

Four kernel-based routes (representation formula, integer Duhamel, the two
fractional Duhamel constructions, and the single-order route with the
Riemann-Liouville derivative), and the route table `ROUTES` that adds the
time-stepping oracles of `oracles`.  The kernel routes reduce everything to
scalar solution symbols per spectral component; the oracles discretize the
fractional derivatives on the grid with product-integration weights and
never touch the kernels, so route agreement is a genuine two-sided check.

Quadrature layout of the Duhamel integrals:

* the representation route runs one rule on the grid's cells that every
  node shares (`_forced_convolution`).  Interior cells take Gauss-Legendre,
  so a node sums lag-indexed kernel samples against cell-indexed datum
  samples, one convolution per Gauss point.  The two end cells carry the
  singularities, the datum's tau^(mu-m) at 0 and the kernel's fractional
  powers of the lag at tau = t, through moments over panels graded toward
  them that every node shares (`_end_rule`);
* the four Duhamel-principle routes run one product-integration engine
  (`_duhamel`).  Each integrates its datum against a kernel J^b S_k, J^q
  the Riemann-Liouville integral of order q.  The singular part of the
  datum (h(0) tau^(-gamma), h'(0) tau^(1-gamma), or a whole power profile)
  convolves exactly into the kernels J^(b+q) S_k; the C^1 remainder
  is interpolated piecewise-linearly on the grid and integrated exactly
  against the moments J^(b+1) S_k and J^(b+2) S_k, so these routes are
  second order in h.

Every route evaluates all its solution symbols, each datum index's S_k or
each kernel J^q S_k of the Duhamel routes, in one kernel evaluation over
all active spectral components at once (the components on the leading
axis, the route's kernel times after it): on the contour, Delta is taken
once per point for all of them (`_symbol_rows`).  Runs of components split
the call only where one symbol would pass `_POINT_BUDGET` points, so no
kernel's temporary outgrows max(one component's points, the budget).  A
failed evaluation runs again one component at a time, so an error names the
point that loop meets first.  Both quadratures end in `_convolve_rows`,
which still loops over components.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import (
    BlowupError,
    CapabilityError,
    DomainError,
    FlavorError,
    InversionError,
    PreconditionError,
)
from .fracops import caputo_derivative_at, rl_derivative_at
from .kernels import (
    Atom,
    OrderMeasure,
    solution_symbol_path,
    solution_symbols,
    symbol_values,
)
from .oracles import oracle_caputo, oracle_rl
from .problems import (
    CAPUTO,
    RIEMANN_LIOUVILLE,
    CauchyProblem,
    SolutionPath,
    _require_caputo,
    _spectrum,
    compare,
)
from .profiles import FunctionSpec, Power
from .special import gauss_jacobi, rgamma
from .symbols import identity_symbol

__all__ = [
    "solve_homogeneous",
    "solve_repr",
    "duhamel_integer",
    "duhamel_caputo",
    "duhamel_caputo_zero",
    "duhamel_rl",
    "compare",
    "ROUTES",
]

_ACTIVE_TOL = 1e-14
_POINT_BUDGET = 2**15  # kernel points per call, unless one component has more


# ---------------------------------------------------------------------------
# spectral plumbing


def _leading_values(measure: OrderMeasure, lam: np.ndarray) -> np.ndarray:
    g = symbol_values(measure, lam, ())[0]
    if np.any(np.abs(g) < 1e-14):
        raise DomainError("leading symbol vanishes on the operator spectrum")
    return g


def _active(components: np.ndarray) -> np.ndarray:
    """Indices of the spectral components (last axis) that carry data."""
    peak = np.max(np.abs(components.reshape(-1, components.shape[-1])), axis=0)
    return np.nonzero(peak > _ACTIVE_TOL * max(1e-300, float(np.max(peak))))[0]


def _chunks(components: np.ndarray, points: int) -> list:
    """Runs of components holding at most max(points, _POINT_BUDGET) kernel
    points, `points` being one component's: each run is one kernel call."""
    step = max(1, _POINT_BUDGET // max(1, points))
    return [components[i : i + step] for i in range(0, len(components), step)]


def _symbol_rows(measure: OrderMeasure, t: np.ndarray, z: np.ndarray, calls) -> list:
    """J^shift S_k(t, z[js]) for each (k, shift, js) of calls, shaped
    (len(js), t.size), from one kernel evaluation over the union of the js.

    Where it raises InversionError or a value a call asks for is not
    finite, the calls run again one component at a time, components
    ascending and each one's calls in order, through `solution_symbol_path`:
    that raises the error this loop meets first, or returns its values.
    """
    asked = np.zeros(z.size, dtype=bool)
    for _, _, js in calls:
        asked[js] = True
    union = np.flatnonzero(asked)
    try:
        values = solution_symbols(measure, [(k, s) for k, s, _ in calls], t, z[union, None])
    except InversionError:
        pass
    else:
        rows = [v if js.size == union.size else v[np.searchsorted(union, js)]
                for (_, _, js), v in zip(calls, values)]
        if all(np.isfinite(v).all() for v in rows):
            return rows
    rows = [np.empty((js.size, t.size), dtype=complex) for _, _, js in calls]
    for j in union:
        for (k, shift, js), v in zip(calls, rows):
            at = js == j
            if at.any():
                v[at] = solution_symbol_path(measure, k, t, z[j : j + 1, None], shift=shift)
    return rows


def _convolve_rows(kern: np.ndarray, rows) -> np.ndarray:
    """out[c, i] = sum_q sum_(p <= i) kern[c, q, p] rows[q][i - p], i < n,
    for kernel rows kern (C, Q, n) and Q datum rows of at least n entries."""
    n = kern.shape[-1]
    out = np.empty((kern.shape[0], n), dtype=complex)
    for c, k_rows in enumerate(kern):
        out[c] = sum(np.convolve(k, d)[:n] for k, d in zip(k_rows, rows))
    return out


def _forcing_components(problem: CauchyProblem):
    """Eigenvalues and the forcing direction over the leading symbol in
    spectral coordinates."""
    lam = _spectrum(problem)
    g_lead = _leading_values(problem.measure, lam)
    return lam, problem.operator.to_spectral(problem.forcing.direction) / g_lead


def _zero_path(problem: CauchyProblem, method: str) -> SolutionPath:
    """The solution of a route with nothing to integrate, once the spectrum
    has passed the domain check every route runs."""
    _spectrum(problem)
    grid = problem.grid
    return SolutionPath(
        grid, np.zeros((grid.n + 1, problem.dim), dtype=complex), method=method
    )


def _require_zero_data(problem: CauchyProblem, route: str) -> None:
    for k, v in enumerate(problem.initial):
        if np.any(np.abs(v) > 1e-12):
            raise PreconditionError(
                f"{route} assumes homogeneous initial data; datum {k} is nonzero"
            )


# ---------------------------------------------------------------------------
# homogeneous representation


def solve_homogeneous(problem: CauchyProblem) -> SolutionPath:
    """u(t) = sum_k S_k(t, A) phi_k for the homogeneous problem."""
    _require_caputo(problem, "solve_homogeneous")
    if problem.forcing_or_zero() is not None:
        raise PreconditionError("solve_homogeneous needs zero forcing")
    grid = problem.grid
    op = problem.operator
    lam = _spectrum(problem)
    _leading_values(problem.measure, lam)
    phis = op.to_spectral(np.array(problem.initial))
    u_spec = np.zeros((grid.n + 1, problem.dim), dtype=complex)
    u_spec[0] = phis[0]
    t_pos = grid.nodes[1:]
    for js in _chunks(_active(phis), grid.n):
        live = phis[:, js] != 0  # a vanishing datum is not evaluated
        ks = [k for k in range(problem.measure.m) if live[k].any()]
        calls = [(k, 0.0, js[live[k]]) for k in ks]
        acc = np.zeros((len(js), grid.n), dtype=complex)
        for k, s in zip(ks, _symbol_rows(problem.measure, t_pos, lam, calls)):
            acc[live[k]] += phis[k, js[live[k]], None] * s
        u_spec[1:, js] = acc.T
    return SolutionPath(grid, op.from_spectral(u_spec), method="homogeneous")


# ---------------------------------------------------------------------------
# forcing data


def _require_continuous(profile: FunctionSpec) -> None:
    if isinstance(profile, Power) and profile.singular_at_zero:
        raise CapabilityError("forcing profile must be continuous at t = 0")


def _profile_at_zero(profile: FunctionSpec) -> complex:
    return complex(np.asarray(profile.eval(0.0)).reshape(-1)[0])


_CELL_POINTS = 12  # Gauss-Legendre points per cell of the representation route
_END_PANEL = 10  # points per panel of its end-cell rules
_END_LEVELS = 20  # geometric panels of its end-cell rules


def _cell_nodes():
    """Gauss-Legendre nodes c_q and weights w_q on the unit cell [0, 1]."""
    x, w = gauss_jacobi(_CELL_POINTS, 0.0)
    return 0.5 * (x + 1.0), 0.5 * w


@functools.lru_cache(maxsize=32)
def _end_rule(gamma: float):
    """Points y on the unit cell and moment weights W (2, G, points) with

        sum_y W[0, q, y] f(y) = int_0^1 f(y) L_q(y) dy,
        sum_y W[1, q, y] f(y) = int_0^(1/2) f(y) L_q(2 y) dy,

    L_q the Lagrange basis on the G nodes of `_cell_nodes`, for f like
    y^(-gamma) times a sum of fractional powers of y.

    The panels [2^-(k+1), 2^-k], k < L = `_END_LEVELS`, grade toward y = 0
    with `_END_PANEL`-point Gauss-Legendre each; the first panel [0, 2^-L]
    carries the y^(-gamma) endpoint weight exactly with Gauss-Jacobi (both
    from `special.gauss_jacobi`).  The half cell [0, 1/2] takes the same
    points but those of the outermost panel.  The arrays are shared by every
    caller and read-only.
    """
    x, w = gauss_jacobi(_END_PANEL, 0.0)
    left = 0.5 ** np.arange(1, _END_LEVELS + 1)
    y = [(left[:, None] * (1.5 + 0.5 * x)).ravel()]
    wy = [(left[:, None] * (0.5 * w)).ravel()]
    # first panel: weights for plain integrand values, the factor absorbed
    x, w = gauss_jacobi(_END_PANEL, -gamma)
    half = 0.5 * left[-1]
    y.append(half * (x + 1.0))
    wy.append(w * half ** (1.0 - gamma) * y[-1] ** gamma)
    y, wy = np.concatenate(y), np.concatenate(wy)
    c, _ = _cell_nodes()
    weights = np.stack([_lagrange(c, y), _lagrange(c, 2.0 * y) * (y < 0.5)]) * wy
    for a in (y, weights):
        a.flags.writeable = False
    return y, weights


def _lagrange(c: np.ndarray, y: np.ndarray) -> np.ndarray:
    """L[q, k] = L_q(y_k), the Lagrange basis on the nodes c at the points y."""
    den = c[:, None] - c + np.eye(c.size)  # c_q - c_r, 1 on the diagonal
    ratio = (y - c[:, None]) / den[..., None]  # (q, r, k): (y_k - c_r) / (c_q - c_r)
    ratio[np.arange(c.size), np.arange(c.size)] = 1.0
    return ratio.prod(axis=1)


def _forced_convolution(problem: CauchyProblem) -> np.ndarray:
    """States of int_0^t S_{m-1}(t - tau, A) D_+^(m-mu) h(tau) dtau on all
    nodes, from one rule on the grid's cells that every node shares.

    Cell j spans [j h, (j + 1) h], and node i reaches it at the lags
    [(p - 1) h, p h], p = i - j.  Kernel and datum samples thus depend on p
    or on j alone, and node i is a sum over p + j = i:

    * interior cells (p >= 2, j >= 1) take G-point Gauss-Legendre, the
      kernel at the lags (p - c_q) h and the datum at (j + c_q) h;
    * cell 0, where the datum may go like tau^(-gamma), interpolates the
      kernel at the same lags (i - c_q) h and integrates the datum once
      against that Lagrange basis;
    * the last cell (p = 1), where the kernel has fractional powers of the
      lag, interpolates the datum at (i - 1 + c_q) h and integrates the
      kernel once against the basis;
    * node 1 takes cell 0 as two half cells, one of each kind.

    The moments come from `_end_rule`, so node i >= 2 is one entry of G
    convolutions per component (`_convolve_rows`).  The kernel is one call
    per run of components.
    """
    grid = problem.grid
    n, h = grid.n, grid.h
    measure = problem.measure
    m = measure.m
    gamma = m - measure.mu
    profile = problem.forcing.profile
    _require_continuous(profile)
    lam, dir_spec = _forcing_components(problem)
    c, w = _cell_nodes()
    g = c.size
    y_datum, w_datum = _end_rule(gamma)
    y_kernel, w_kernel = _end_rule(0.0)
    w_kernel = w_kernel[:, ::-1]  # the datum sits at 1 - y: L_q(1 - y) = L_(G-1-q)(y)
    shifted = (c[:, None] + np.arange(1.0, n)).ravel()  # j + c_q, q-major
    tau = h * np.concatenate([y_datum, 0.5 * (1.0 + c), shifted])
    if gamma:
        datum = rl_derivative_at(profile, gamma, tau)
    else:
        datum = np.asarray(profile.eval(tau), dtype=complex)
    d_end, d_half, d_cells = np.split(datum, [y_datum.size, y_datum.size + g])
    d_mom = h * np.sum(w_datum * d_end, axis=-1)  # (2, G): cell 0, its first half
    # datum rows over the cells j = 0..n-1; cell 0 holds its moments over the
    # weights h w_q that the kernel rows carry
    rows = np.empty((g, n), dtype=complex)
    rows[:, 0] = d_mom[0] / (h * w)
    rows[:, 1:] = d_cells.reshape(g, n - 1)
    lags = h * np.concatenate([y_kernel, 1.0 - 0.5 * c, shifted])
    u_spec = np.zeros((n + 1, problem.dim), dtype=complex)
    for js in _chunks(_active(dir_spec), lags.size):
        (svals,) = _symbol_rows(measure, lags, lam, [(m - 1, 0.0, js)])
        k_end, k_half, k_cells = np.split(svals, [y_kernel.size, y_kernel.size + g], axis=1)
        k_mom = h * np.sum(w_kernel * k_end[:, None, None, :], axis=-1)  # (C, 2, G)
        # kernel rows over the lags p = 1..n: the last cell's moments, then
        # h w_q S((p - c_q) h), sampled as (p - 1 + c_(G-1-q)) h
        kern = np.empty((len(js), g, n), dtype=complex)
        kern[:, :, 0] = k_mom[:, 0]
        kern[:, :, 1:] = h * w[:, None] * k_cells.reshape(len(js), g, n - 1)[:, ::-1]
        acc = _convolve_rows(kern, rows)
        acc[:, 0] = np.sum(k_half * d_mom[1] + k_mom[:, 1] * d_half, axis=-1)
        u_spec[1:, js] = (dir_spec[js, None] * acc).T
    return problem.operator.from_spectral(u_spec)


def solve_repr(problem: CauchyProblem) -> SolutionPath:
    """Representation formula: homogeneous sum plus the kernel convolution
    of the order-(m - mu) derivative of the forcing.  A state that is not
    finite raises BlowupError naming its node."""
    _require_caputo(problem, "solve_repr")
    grid = problem.grid
    hom = CauchyProblem(
        problem.operator, problem.measure, problem.initial, None, grid, CAPUTO
    )
    with np.errstate(all="ignore"):  # overflow is caught below
        states = solve_homogeneous(hom).states
        if problem.forcing_or_zero() is not None:
            states = states + _forced_convolution(problem)
    finite = np.isfinite(states).all(axis=1)
    if not finite.all():
        node = int(np.argmin(finite))
        raise BlowupError(
            f"the representation formula is not finite at node {node} of {grid.n} "
            f"(t = {grid.nodes[node]:.6g})"
        )
    return SolutionPath(grid, states, method="repr")


# ---------------------------------------------------------------------------
# Duhamel-principle routes: one product-integration engine


def _duhamel(
    problem: CauchyProblem,
    method: str,
    gamma: float,
    kernel: tuple,
    rl_datum: bool = False,
) -> SolutionPath:
    """u(t) = int_0^t K(t - tau) d(tau) dtau per spectral component, from
    the datum d = D^gamma h of the forcing profile h (d = h at gamma = 0).

    ``kernel`` is (measure, k, b, z, direction): component j integrates
    K = J^b S_k(., z_j) and scales the result by direction_j.  The datum is
    the Riemann-Liouville derivative where ``rl_datum`` is set, the Caputo
    derivative otherwise.  It splits into terms c tau^(q-1) / Gamma(q),
    whose convolutions with K are the kernels c J^(b+q) S_k, and a C^1
    remainder r:

    * a power profile s t^p is one term, c = s Gamma(p+1), q = p + 1 - gamma;
    * otherwise the Riemann-Liouville datum has h(0) at q = 1 - gamma, and a
      datum with gamma > 0 has h'(0) at q = 2 - gamma; r is the Caputo
      derivative minus h'(0) t^(1-gamma) / Gamma(2-gamma), or h itself at
      gamma = 0.

    The piecewise-linear interpolant of r on the grid is integrated against
    K exactly, through the moments K1 = J^(b+1) S_k and K2 = J^(b+2) S_k at
    the lags p h (both vanish at lag 0):

        u_i = sum_p A(p) r_(i-p) + B(p) r_(i-p+1),
        A(p) = K1(p h) - D(p),  B(p) = D(p) - K1((p-1) h),
        D(p) = (K2(p h) - K2((p-1) h)) / h,

    two convolutions per component (`_convolve_rows`).  The result is exact
    where r is linear and second order in h for smooth r.  All kernels are
    one kernel evaluation per run of components.
    """
    measure, k, b, z, direction = kernel
    profile = problem.forcing.profile
    _require_continuous(profile)
    grid = problem.grid
    n, t = grid.n, grid.nodes
    if isinstance(profile, Power):
        p = profile.exponent
        terms, r = [(complex(profile.scale) * math.gamma(p + 1.0), p + 1.0 - gamma)], None
    elif gamma == 0:
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            terms, r = [], np.asarray(profile.eval(t), dtype=complex)
    else:
        d1 = _profile_at_zero(profile.derivative(1))
        terms = [(_profile_at_zero(profile), 1.0 - gamma)] if rl_datum else []
        terms.append((d1, 2.0 - gamma))
        with np.errstate(over="ignore", invalid="ignore"):  # checked below
            r = caputo_derivative_at(profile, gamma, t)
            r -= d1 * rgamma(2.0 - gamma) * t ** (1.0 - gamma)
    if r is not None and not np.all(np.isfinite(r)):
        raise BlowupError("the forcing datum is not finite on the grid")
    terms = [(c, b + q) for c, q in terms if c != 0]
    if r is not None and not r.any():
        r = None
    shifts = [shift for _, shift in terms] + ([b + 1.0, b + 2.0] if r is not None else [])
    u_spec = np.zeros((n + 1, problem.dim), dtype=complex)
    for js in _chunks(_active(direction), len(shifts) * n):
        kernels = _symbol_rows(measure, t[1:], z, [(k, shift, js) for shift in shifts])
        acc = np.zeros((len(js), n), dtype=complex)
        if r is not None:
            k1 = np.pad(kernels[-2], ((0, 0), (1, 0)))
            d = np.diff(kernels[-1], axis=1, prepend=0.0) / grid.h
            acc += _convolve_rows(np.stack([k1[:, 1:] - d, d - k1[:, :-1]], axis=1), (r, r[1:]))
        for (c, _), kv in zip(terms, kernels):
            acc += c * kv
        u_spec[1:, js] = (direction[js, None] * acc).T
    states = problem.operator.from_spectral(u_spec)
    states[0] = 0.0
    return SolutionPath(grid, states, method=method)


def _duhamel_caputo(
    problem: CauchyProblem, method: str, rl_datum: bool = False
) -> SolutionPath:
    """The Caputo routes: K = S_(m-1) on the problem's spectrum, the datum
    of order m - mu, the forcing direction over the leading symbol."""
    if problem.forcing_or_zero() is None:
        return _zero_path(problem, method)
    measure = problem.measure
    lam, dir_spec = _forcing_components(problem)
    kernel = (measure, measure.m - 1, 0.0, lam, dir_spec)
    return _duhamel(problem, method, measure.m - measure.mu, kernel, rl_datum)


def duhamel_caputo(problem: CauchyProblem) -> SolutionPath:
    """Fractional Duhamel route: the forcing enters through the top datum
    D_+^(m-mu) h(tau) of a shifted homogeneous problem per quadrature node."""
    _require_caputo(problem, "duhamel_caputo")
    mu = problem.measure.mu
    if mu == round(mu):
        raise FlavorError(
            "integer leading order: use duhamel_integer for this problem"
        )
    _require_zero_data(problem, "duhamel_caputo")
    return _duhamel_caputo(problem, "duhamel", rl_datum=True)


def duhamel_caputo_zero(problem: CauchyProblem) -> SolutionPath:
    """Variant with the regularized datum D_*^(m-mu) h(tau); needs h(0) = 0."""
    _require_caputo(problem, "duhamel_caputo_zero")
    mu = problem.measure.mu
    if mu == round(mu):
        raise FlavorError(
            "integer leading order: use duhamel_integer for this problem"
        )
    _require_zero_data(problem, "duhamel_caputo_zero")
    forcing = problem.forcing_or_zero()
    if forcing is not None and abs(_profile_at_zero(forcing.profile)) > 1e-12:
        raise PreconditionError(
            "this route requires h(0) = 0; the regularized datum only matches "
            "the unregularized one for forcing vanishing at t = 0"
        )
    return _duhamel_caputo(problem, "duhamel-zero")


def duhamel_integer(problem: CauchyProblem) -> SolutionPath:
    """Classical Duhamel integral for integer leading order (datum h)."""
    _require_caputo(problem, "duhamel_integer")
    mu = problem.measure.mu
    if mu != round(mu):
        raise FlavorError(f"duhamel_integer needs an integer leading order, got {mu}")
    for a in problem.measure.atoms:
        if a.alpha != round(a.alpha):
            raise FlavorError(
                f"duhamel_integer needs integer atom orders, got {a.alpha}"
            )
    _require_zero_data(problem, "duhamel_integer")
    return _duhamel_caputo(problem, "duhamel-integer")


def _atom_sum(measure: OrderMeasure, lam: np.ndarray) -> np.ndarray:
    """Symbol of B = sum_j c_j f_j(A), the single-order route's operator."""
    return sum(symbol_values(measure, lam)[1], np.zeros(lam.shape, complex))


def duhamel_rl(problem: CauchyProblem) -> SolutionPath:
    """Single fractional term with the Riemann-Liouville derivative.

    Per spectral component u = K * h, with the relaxation kernel
    K(s) = s^(alpha-1) E_{alpha,alpha}(-b s^alpha), b the component's
    eigenvalue of B.  K is J^(alpha-1) S_0 of the one-atom measure at
    order 0 with z = b, the atom sum, so a split atom takes the closed form
    too; its moments are s^alpha E_{alpha,alpha+1}(-b s^alpha) and
    s^(alpha+1) E_{alpha,alpha+2}(-b s^alpha).
    """
    if problem.flavor != RIEMANN_LIOUVILLE:
        raise FlavorError("duhamel_rl requires the riemann_liouville flavor")
    alpha = problem.measure.mu
    if not 0 < alpha < 1:
        raise FlavorError(f"duhamel_rl needs an order in (0, 1), got {alpha}")
    if np.any(np.abs(problem.initial[0]) > 1e-12):
        raise PreconditionError(
            "duhamel_rl solves the homogeneous weighted-datum case only"
        )
    forcing = problem.forcing_or_zero()
    if forcing is None:
        return _zero_path(problem, "duhamel-rl")
    b_vals = _atom_sum(problem.measure, _spectrum(problem))
    relax = OrderMeasure(alpha, (Atom(0.0, 1.0, identity_symbol()),))
    kernel = (relax, 0, alpha - 1.0, b_vals, problem.operator.to_spectral(forcing.direction))
    return _duhamel(problem, "duhamel-rl", 0.0, kernel)


def _oracle_for_flavor(problem: CauchyProblem) -> SolutionPath:
    if problem.flavor == RIEMANN_LIOUVILLE:
        return oracle_rl(problem)
    return oracle_caputo(problem)


# method name -> route; the single list of names the CLI offers
ROUTES = {
    "repr": solve_repr,
    "duhamel": duhamel_caputo,
    "duhamel-zero": duhamel_caputo_zero,
    "duhamel-rl": duhamel_rl,
    "duhamel-integer": duhamel_integer,
    "oracle": _oracle_for_flavor,
}
