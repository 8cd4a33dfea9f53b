"""Solution routes for distributed-order fractional Cauchy problems.

Four kernel-based routes (representation formula, integer Duhamel, the two
fractional Duhamel constructions, and the single-order route with the
Riemann-Liouville derivative) plus two direct time-stepping oracles.  The
kernel routes reduce everything to scalar solution symbols per spectral
component; the oracles discretize the fractional derivatives on the grid
with product-integration weights and never touch the kernels, so route
agreement is a genuine two-sided check.

Both oracles run one blocked march in the operator's spectral coordinates,
where every term of a scheme is diagonal: data, forcing and results pass
through `to_spectral` / `from_spectral` only, as on the kernel routes.  Every
term convolves fixed weights with the states or their differences, so per
spectral component the steps after the first form a lower-triangular
Toeplitz system.  It is marched in blocks of up to 64 steps, each solved with
the inverse of its system, built once per grid, and refined once against the
scheme's own residual.  The history before a block takes the last block of
differences from a weight table; the long weights (L1, L2,
Grunwald-Letnikov) reach all older differences through a sum of P
exponentials, one history per exponential, moved on once per block.
A march over n steps thus costs O(n P), P between about 80 and 150 for n up
to 16384, where a product over the whole history per block cost O(n^2).
The first 2 c nodes, c = clip(n / 16, 1, 128), come from a warm start: two
chains of short subgrids, 4 c steps each, whose step halves from level to
level toward t = 0, Richardson-extrapolated where the chains meet
(`_warm_start`).  It marches (L + 2) 2 c steps, 2^L the refinement of its
finest level: 2,304 at n = 4096.  Before it, a resolution check raises
StepSolveError where step 1 or the later steps cannot follow a growing
component.

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
from time import perf_counter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (
    BlowupError,
    CapabilityError,
    DomainError,
    FlavorError,
    InversionError,
    PreconditionError,
    StepSolveError,
)
from .fracops import caputo_derivative_at, rl_derivative_at
from .grids import TimeGrid
from .kernels import (
    Atom,
    OrderMeasure,
    solution_symbol_path,
    solution_symbols,
    symbol_values,
)
from .operators import FourierMultiplier, MatrixOperator
from .problems import (
    CAPUTO,
    RIEMANN_LIOUVILLE,
    CauchyProblem,
    SolutionPath,
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
    "oracle_caputo",
    "oracle_rl",
    "operator_residual",
    "compare",
    "ROUTES",
]

_ACTIVE_TOL = 1e-14
_POINT_BUDGET = 2**15  # kernel points per call, unless one component has more


# ---------------------------------------------------------------------------
# spectral plumbing


def _spectrum(problem: CauchyProblem) -> np.ndarray:
    """Eigenvalues in the order of the operator's spectral coordinates.

    Every route and oracle takes its eigenvalues here, so each rejects an
    eigenvalue outside the domain of one of the measure's symbols.
    """
    op = problem.operator
    if isinstance(op, FourierMultiplier):
        lam = op.symbol_values
    else:
        assert isinstance(op, MatrixOperator)
        lam = op.eigensystem()[0]
    measure = problem.measure
    symbols = [a.symbol for a in measure.atoms]
    if measure.leading_symbol is not None:
        symbols.append(measure.leading_symbol)
    for f in symbols:
        domain = f.domain
        for z in lam.tolist():
            domain.check(z, "eigenvalue")
    return lam


def _atom_sum(measure: OrderMeasure, lam: np.ndarray) -> np.ndarray:
    """Symbol of B = sum_j c_j f_j(A), the single-order route's operator."""
    return sum(symbol_values(measure, lam)[1], np.zeros(lam.shape, complex))


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


def _require_caputo(problem: CauchyProblem, route: str) -> None:
    if problem.flavor != CAPUTO:
        raise FlavorError(f"{route} requires the caputo flavor")


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
    of the order-(m - mu) derivative of the forcing."""
    _require_caputo(problem, "solve_repr")
    grid = problem.grid
    hom = CauchyProblem(
        problem.operator, problem.measure, problem.initial, None, grid, CAPUTO
    )
    path = solve_homogeneous(hom)
    states = path.states
    forcing = problem.forcing_or_zero()
    if forcing is not None:
        states = states + _forced_convolution(problem)
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
        terms, r = [], np.asarray(profile.eval(t), dtype=complex)
    else:
        d1 = _profile_at_zero(profile.derivative(1))
        terms = [(_profile_at_zero(profile), 1.0 - gamma)] if rl_datum else []
        terms.append((d1, 2.0 - gamma))
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


# ---------------------------------------------------------------------------
# stepping oracles: one blocked march (Hairer, Lubich & Schlichte, SIAM J.
# Sci. Stat. Comput. 6, 1985) for both schemes, see the module docstring


_BLOCK = 64  # steps per block of the march
_HEAD = 2 * _BLOCK  # weights a weight table reads: distances below two blocks
_BLOCK_BYTES = 2**20  # largest block inverse; wide diagonal systems take shorter blocks
# stencils turning the states into the convolved quantity, by difference order
_STENCILS = (np.ones(1), np.array([1.0, -1.0]), np.array([1.0, -2.0, 1.0]))
# sum-of-exponentials rule of the long weights (see `_soe`): Gauss-Jacobi
# nodes on [0, 1/n], Gauss-Legendre nodes on each panel [r^k, r^(k+1)] / n
# up to s = cutoff / D0
_SOE_JACOBI = 8
_SOE_PANEL = 14
_SOE_RATIO = 3.0
_SOE_CUTOFF = 36.0


def _soe(kind: str, a: float, d0: int, n: int):
    """Exponents lam and weights w of sum_p w_p exp(-lam_p d), equal to the
    unscaled long weights at every distance D0 <= d <= n to within 2e-15
    relative (checked against 40-digit values for n up to 16384).

    ``kind`` "power" is (d + 1)^a - d^a, the L1 and L2 weights; "gl" is the
    Grunwald-Letnikov weight g_d of order a; a lies in (0, 1).  Both are
    Laplace transforms int_0^oo s^beta g(s) e^(-s d) ds with g smooth
    (Jiang, Zhang, Zhang & Zhang, Commun. Comput. Phys. 21, 2017):

    * (d+1)^a - d^a = a / Gamma(1-a) int s^(-a) (1 - e^-s) / s e^(-s d) ds;
    * g_d = B(d - a, 1 + a) / (Gamma(-a) Gamma(1 + a))
          = -sin(pi a) / pi int s^a e^(a s) ((1 - e^-s) / s)^a e^(-s d) ds.

    Gauss-Jacobi takes s^beta on [0, 1/n], where s d <= 1; Gauss-Legendre
    the panels beyond it, up to s = 36 / D0 (36 / (D0 - a) for "gl", whose
    integrand decays like e^(-s (d - a))), past which it is below 3e-16.
    Both rules come from `special.gauss_jacobi` (beta = 0 for Legendre), a
    quadrature primitive the kernel routes use too, checked on its own
    against mpmath; the sum itself is no transform of a kernel.
    """
    beta = -a if kind == "power" else a
    x, w = gauss_jacobi(_SOE_JACOBI, beta)
    s0 = 1.0 / n
    reach = d0 if kind == "power" else d0 - a  # the integrand decays like e^(-s reach)
    panels = max(1, math.ceil(math.log(_SOE_CUTOFF * n / reach, _SOE_RATIO)))
    xl, wl = gauss_jacobi(_SOE_PANEL, 0.0)
    left = s0 * _SOE_RATIO ** np.arange(panels)
    half = 0.5 * (_SOE_RATIO - 1.0) * left
    s_pan = (left[:, None] + half[:, None] * (xl + 1.0)).ravel()
    lam = np.concatenate([0.5 * s0 * (x + 1.0), s_pan])
    w = np.concatenate([(0.5 * s0) ** (beta + 1.0) * w, (half[:, None] * wl).ravel() * s_pan**beta])
    r = -np.expm1(-lam) / lam
    if kind == "power":
        return lam, a * rgamma(1.0 - a) * w * r
    return lam, -math.sin(math.pi * a) / math.pi * w * np.exp(a * lam) * r**a


@functools.lru_cache(maxsize=32)
def _soe_tables(kind: str, a: float, size: int, n: int):
    """Unscaled far-field tables of blocks of `size` steps on n steps, for
    distances from D0 = size + 1 on: the exponents lam, K[i, p] =
    w_p e^(-lam_p (size + i)) (size, P), E[p, m] = e^(-lam_p (size - m))
    (P, size) and the decay e^(-lam_p size) (P, 1)."""
    lam, w = _soe(kind, a, size + 1, n)
    powers = np.exp(-np.outer(lam, np.arange(1.0, 2 * size)))  # e^(-lam k), k < 2 size
    tables = (
        lam,
        (w[:, None] * powers[:, size - 1 :]).T,
        np.ascontiguousarray(powers[:, size - 1 :: -1]),
        powers[:, size - 1, None].copy(),
    )
    for table in tables:
        table.flags.writeable = False
    return tables


def _term_operators(problem: CauchyProblem) -> list:
    """(order, diagonal in spectral coordinates) of the leading and atom terms."""
    g, weights = symbol_values(problem.measure, _spectrum(problem))
    terms = [(problem.measure.mu, g)]
    return terms + [(a.alpha, w) for a, w in zip(problem.measure.atoms, weights)]


class _Term(NamedTuple):
    """One term F D of a stepping scheme on one grid.

    D u at step k is sum_{j < k} v[k - 1 - j] delta_j, where delta holds the
    states (order 0, delta_j = u_(j+1)), their first differences (order 1),
    or their second differences (order 2) with the ghost start
    delta_0 = 2 u_1 - 2 u_0 - 2 h phi1.  `first`, when set, replaces v[0] at
    step 1.  Long weights keep their first `_HEAD` entries in v and name the
    rest by `tail`, (kind, a, scale) with v[d] = scale * w(d) for the
    weights w of `_soe`; short weights are all in v.
    """

    op: np.ndarray  # the operator's diagonal in spectral coordinates
    v: np.ndarray
    order: int
    first: float | None = None
    tail: tuple | None = None


def _caputo_term(alpha: float, op: np.ndarray, h: float, n: int) -> _Term:
    """Caputo derivative of order alpha on n steps of size h.

    Orders in (0, 1) take piecewise-linear (L1) weights on the first
    differences, orders in (1, 2) the analogue on the second differences;
    order 1 is BDF2 after a backward-Euler first step, order 2 the backward
    second difference.
    """
    if alpha == 0:
        return _Term(op, np.ones(1), 0)
    if alpha == 1:
        return _Term(op, np.array([1.5, -0.5]) / h, 1, 1.0 / h)
    if alpha == 2:
        return _Term(op, np.array([1.0 / h**2]), 2)
    if not 0 < alpha < 2:
        raise CapabilityError(f"oracle orders must lie in [0, 2], got {alpha}")
    r = math.ceil(alpha)
    scale = h ** (-alpha) * rgamma(r + 1 - alpha)
    w = _unit_weights("power", r - alpha, min(n, _HEAD) + 1)
    return _Term(op, scale * w, r, tail=("power", r - alpha, scale))


def _caputo_terms(terms, grid: TimeGrid) -> list:
    return [_caputo_term(alpha, f, grid.h, grid.n) for alpha, f in terms]


def _gl_terms(alpha: float, b_op: np.ndarray, grid: TimeGrid) -> list:
    """Grunwald-Letnikov derivative h^-alpha sum_k g_k u_(n-k) plus B u,
    for states that start from u_0 = 0."""
    scale = grid.h ** (-alpha)
    v = scale * _unit_weights("gl", alpha, min(grid.n, _HEAD) + 1)
    ident = np.ones_like(b_op)
    return [_Term(ident, v, 0, tail=("gl", alpha, scale)), _Term(b_op, np.ones(1), 0)]


def _weight_table(v: np.ndarray, rows: int) -> np.ndarray:
    """T[i, j] = v[i + W - j], zero outside v, for W + rows columns and
    W = min(len(v) - 1, rows).

    Row i is step b + i of a block starting at step b, and column W - b + 1 + j
    weighs delta_j.  The first W columns thus meet the W differences before
    row b - 1, and the last `rows` columns, a lower-triangular Toeplitz
    block, meet those from row b - 1 on.
    """
    width = min(v.size - 1, rows)
    ext = np.zeros(width + 2 * rows - 1)
    k = min(v.size, width + rows)
    ext[rows - 1 : rows - 1 + k] = v[:k]
    return np.ascontiguousarray(sliding_window_view(ext[::-1], width + rows)[::-1])


def _unit_weights(kind: str, a: float, count: int) -> np.ndarray:
    """The unscaled long weights w(d) of `_soe` at the distances d < count."""
    if kind == "power":
        i = np.arange(count, dtype=float)
        return (i + 1) ** a - i**a
    g = np.empty(count)
    g[0] = 1.0
    for j in range(1, count):
        g[j] = g[j - 1] * (j - 1 - a) / j
    return g


@functools.lru_cache(maxsize=32)
def _unit_tables(kind: str, a: float, count: int, size: int, n: int):
    """`_weight_table` of the first `count` unscaled long weights for blocks
    of `size` steps on n steps and, where a distance reaches D0 = size + 1,
    [T | K] of the far field (see `_soe_tables`), else None.  A long term
    scales both by its `tail` scale, so every entry is scale * w(d) as if
    built from its own weights; the arrays are shared and read-only."""
    table = _weight_table(_unit_weights(kind, a, count), size)
    mat = None
    if n - 1 > size:
        mat = np.concatenate([table[:, :size], _soe_tables(kind, a, size, n)[1]], axis=1)
    for t in (table, mat):
        if t is not None:
            t.flags.writeable = False
    return table, mat


def _fill_differences(deltas: dict, u: np.ndarray, lo: int, hi: int, h: float, phi1):
    """Rows lo..hi-1 of the first and second differences kept in deltas."""
    if 1 in deltas:
        deltas[1][lo:hi] = u[lo + 1 : hi + 1] - u[lo:hi]
    if 2 in deltas:
        s2 = deltas[2]
        if lo == 0 < hi:
            s2[0] = 2.0 * u[1] - 2.0 * u[0] - 2.0 * h * phi1
            lo = 1
        s2[lo:hi] = u[lo + 1 : hi + 1] - 2.0 * u[lo:hi] + u[lo - 1 : hi - 1]


def _first(t: _Term) -> float:
    return t.v[0] if t.first is None else t.first


def _start_part(t: _Term) -> np.ndarray:
    """Weight of u_1 at step 1 in term t: u_1 enters delta_0 once, or twice
    with the ghost start."""
    return (2.0 if t.order == 2 else 1.0) * _first(t) * t.op


def _require_finite(values: np.ndarray, first_step: int, grid: TimeGrid) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        step = first_step + int(np.argmin(finite.all(axis=1)))
        raise StepSolveError(
            f"non-finite state at step {step} of {grid.n} (t = {step * grid.h:.6g})"
        )


def _reciprocal(d: np.ndarray) -> np.ndarray:
    """1 / d, raising LinAlgError at a zero as a singular inverse does."""
    if not np.all(d):
        raise np.linalg.LinAlgError("singular step matrix")
    return 1.0 / d


def _block_inverses(a: np.ndarray) -> np.ndarray:
    """Inverses (rows, size, size) of the lower-triangular Toeplitz matrices
    with first columns a (rows, size), each itself lower-triangular
    Toeplitz: its first column x solves sum_j a_(k-j) x_j = delta_k0, and
    row i is x_i ... x_0."""
    rows, size = a.shape
    x = np.empty_like(a)
    x[:, 0] = _reciprocal(a[:, 0])
    for k in range(1, size):  # one batched dot product per k
        dot = a[:, None, 1 : k + 1] @ x[:, k - 1 :: -1, None]
        x[:, k] = -x[:, 0] * dot[:, 0, 0]
    ext = np.zeros((rows, 2 * size - 1), dtype=complex)  # x_(size-1) ... x_0, then zeros
    ext[:, :size] = x[:, ::-1]
    return np.ascontiguousarray(sliding_window_view(ext, size, axis=1)[:, ::-1])


class _BlockSystem:
    """One scheme on one grid, evaluated and solved a block of steps at a time.

    At steps b0..b1-1 the scheme reads far + near = f: `far` weighs the
    differences before row b0 - 1, `near` those from row b0 - 1 on.  Both
    multiply weights with differences, never with raw states, so their
    rounding stays that of the differences; long weights reach the
    differences more than one block back through their sum of exponentials
    (`_soe`).  Every term is diagonal in spectral coordinates, so the scheme
    is one scalar system per spectral component.  From step 2 on, the near
    part is linear in the block's states with a lower-triangular Toeplitz
    matrix per component, whose first column `coeffs` (dim, size) is
    sum_t a_t[j] F_t, a_t the weights of term t convolved with its
    difference stencil; step 1 has its own diagonal `start` (dim,).  The
    block length keeps the (dim, size, size) inverse within `_BLOCK_BYTES`.
    """

    def __init__(self, terms: list, grid: TimeGrid):
        self.terms = terms
        self.grid = grid
        dim = terms[0].op.size
        cap = math.isqrt(_BLOCK_BYTES // (16 * dim))
        self.size = size = max(1, min(_BLOCK, cap, grid.n - 1))
        # per long term: the exponents, [T | scale K], E, the decay (see
        # `_soe_tables`) and a (size + P, 2 dim) real buffer holding the
        # window of differences and H; None for short weights or where no
        # distance reaches D0
        self.tables = []
        self.soes = []
        for t in terms:
            soe = None
            if t.tail is None:
                table = _weight_table(t.v, size)
            else:
                kind, a, scale = t.tail
                table, mat = _unit_tables(kind, a, t.v.size, size, grid.n)
                table = scale * table
                if mat is not None:
                    lam, _, lower, decay = _soe_tables(kind, a, size, grid.n)
                    buffer = np.zeros((size + lam.size, 2 * dim))
                    soe = (lam, scale * mat, lower, np.repeat(decay, 2 * dim, axis=1), buffer)
            self.tables.append(table)
            self.soes.append(soe)
        self.cut = None
        self.start = sum(_start_part(t) for t in terms)
        self.coeffs = np.zeros((dim, size), dtype=complex)
        for t, table in zip(terms, self.tables):
            a = np.convolve(table[:, -size], _STENCILS[t.order])[:size]
            self.coeffs += a[None, :] * t.op[:, None]
        self.orders = {t.order for t in terms if t.order}

    @property
    def far_terms(self) -> list:
        """Number of exponentials in each term's far field (0: none)."""
        return [0 if soe is None else soe[0].size for soe in self.soes]

    def _part(self, t: _Term, u: np.ndarray, deltas: dict, lo: int, hi: int):
        """Rows lo..hi-1 of the quantity term t convolves, as a real view."""
        rows = u[1:] if t.order == 0 else deltas[t.order]
        return rows[lo:hi].view(float)

    def far(self, u: np.ndarray, deltas: dict, b0: int, b1: int) -> np.ndarray:
        """Part of steps b0..b1-1 carried by the differences before row b0 - 1.

        Long weights take the `size` differences before row b0 - 1 from the
        weight table and all older ones through their sum of exponentials:
        the history H_p = sum_(j < c) e^(-lam_p (c - j)) delta_j at the cut
        c = b0 - 1 - size, kept in the rows after the window.  H then moves
        on by one block, so blocks must come in order of steps; a call that
        does not follow its predecessor by `size` steps sums H afresh.
        """
        rows = b1 - b0
        size = self.size
        lo = b0 - 1 - size
        fresh = self.cut != lo
        acc = np.zeros((rows, u.shape[1]), dtype=complex)
        for t, table, soe in zip(self.terms, self.tables, self.soes):
            width = table.shape[1] - size
            if soe is None:
                cols = min(b0 - 1, width)
                if not cols:
                    continue
                part = self._part(t, u, deltas, b0 - 1 - cols, b0 - 1)
                v = table[:rows, width - cols : width] @ part
            else:
                lam, mat, lower, decay, x = soe
                window, hist = x[:size], x[size:]
                if fresh:
                    hist[:] = 0.0
                    if lo > 0:
                        decays = np.exp(-np.outer(lam, np.arange(lo, 0.0, -1.0)))
                        hist[:] = decays @ self._part(t, u, deltas, 0, lo)
                if lo < 0:
                    window[:-lo] = 0.0
                window[max(0, -lo) :] = self._part(t, u, deltas, max(0, lo), b0 - 1)
                v = mat[:rows] @ x
                hist *= decay
                hist += lower @ window
            acc += v.view(complex) * t.op
        self.cut = b0 - 1
        return acc

    def near(self, u: np.ndarray, deltas: dict, b0: int, b1: int) -> np.ndarray:
        """Part of steps b0..b1-1 carried by the differences from row b0 - 1 on."""
        rows = b1 - b0
        acc = np.zeros((rows, u.shape[1]), dtype=complex)
        for t, table in zip(self.terms, self.tables):
            part = self._part(t, u, deltas, b0 - 1, b1 - 1)
            if b0 == 1:
                v = _first(t) * part
            else:
                width = table.shape[1] - self.size
                v = table[:rows, width : width + rows] @ part
            acc += v.view(complex) * t.op
        return acc

    @staticmethod
    def product(mat: np.ndarray, x: np.ndarray) -> np.ndarray:
        """Leading block of mat (dim, m, m) times the states x (rows, dim)."""
        rows = x.shape[0]
        return np.matmul(mat[:, :rows, :rows], x.T[..., None])[..., 0].T


def _march(
    system: _BlockSystem,
    u0: np.ndarray,
    phi1: np.ndarray,
    forcing,
    injected: np.ndarray | None = None,
    inverse: np.ndarray | None = None,
) -> np.ndarray:
    """States of one scheme on its system's grid, from u0 or from injected
    start states.

    ``forcing(t)`` gives the right-hand side at the nodes t.  Step 1 takes
    the scheme's start rule; the later steps go in blocks of
    `_BlockSystem.size`.  A block is solved from zero with the inverse of
    its matrix (``inverse``, or `_block_inverses` of the system's `coeffs`)
    and refined once against the residual of the scheme itself, which keeps
    the rounding of a block at that of single steps.
    Floating-point warnings are silenced and every block is checked instead,
    so overflow raises StepSolveError naming the first non-finite step.
    """
    grid = system.grid
    n = grid.n
    dim = u0.shape[0]
    t = grid.nodes
    u = np.zeros((n + 1, dim), dtype=complex)
    deltas = {r: np.empty((n, dim), dtype=complex) for r in system.orders}
    if injected is None:
        u[0] = u0
        done = 0
    else:
        done = injected.shape[0] - 1
        u[: done + 1] = injected
        _fill_differences(deltas, u, 0, done, grid.h, phi1)
    system.cut = None  # the far field's history belongs to another march
    with np.errstate(over="ignore", invalid="ignore"):
        blocks = []
        try:
            if done == 0:
                blocks.append((1, 2, _reciprocal(system.start)[:, None, None]))
                done = 1
            if inverse is None:
                inverse = _block_inverses(system.coeffs)
        except np.linalg.LinAlgError as exc:
            raise StepSolveError(
                f"linear solve failed at step {done + 1}: singular step matrix"
            ) from exc
        blocks += [
            (b0, min(b0 + system.size, n + 1), inverse)
            for b0 in range(done + 1, n + 1, system.size)
        ]
        for b0, b1, inv in blocks:
            rhs = forcing(t[b0:b1]) - system.far(u, deltas, b0, b1)
            _require_finite(rhs, b0, grid)
            for _ in range(2):
                _fill_differences(deltas, u, b0 - 1, b1 - 1, grid.h, phi1)
                u[b0:b1] += system.product(inv, rhs - system.near(u, deltas, b0, b1))
            _require_finite(u[b0:b1], b0, grid)
            _fill_differences(deltas, u, b0 - 1, b1 - 1, grid.h, phi1)
    return u


def _warm_start(systems: list, half: _BlockSystem, march):
    """Start states at main-grid nodes 0..S/2 and the number of steps marched.

    ``systems`` holds one system per level l = L..1, each S steps of
    h / 2^l, ``half`` one of S/2 steps of h / 2^(L-1), and
    ``march(system, inverse, injected)`` marches one of them.  A chain of
    levels starts from u0 on its finest level, and each coarser level takes
    every second state of the level below as its nodes 0..S/2, so level 1
    ends on main-grid nodes.  The chains of L and of L - 1 levels share
    every level but the finest, and 2A - B cancels the leading error term
    of the finest step.  The march is affine in its start states and
    forcing, and the weights 2 and -1 sum to 1, so the extrapolation is
    taken where the chains meet: on nodes 0..S/2 of level L - 1, from chain
    A's finest level and from `half`, chain B's first S/2 steps there.  The
    one combined start then runs through levels L - 1..1: (L + 2) S/2 steps
    in L + 1 marches.  All block inverses come from one recurrence over the
    stacked `coeffs` rows; `half` has level L - 1's step, so its blocks take
    the leading block of that level's inverse.
    """
    try:
        inverses = _block_inverses(np.concatenate([s.coeffs for s in systems]))
    except np.linalg.LinAlgError as exc:
        raise StepSolveError("linear solve failed in the warm start: singular step matrix") from exc
    inverses = np.split(inverses, len(systems))
    u = 2.0 * march(systems[0], inverses[0], None)[::2] - march(half, inverses[1], None)
    steps = systems[0].grid.n + half.grid.n
    for system, inverse in zip(systems[1:], inverses[1:]):
        u = march(system, inverse, u)[::2]
        steps += system.grid.n // 2
    return u, steps


def _require_resolved(system: _BlockSystem, terms_on) -> None:
    """Raise StepSolveError where the step weights of the system do not
    resolve a spectral component.

    Step 1 weighs u_1 by `_BlockSystem.start`, the sum of every term's part,
    and every later step weighs its own state by the block diagonal
    `coeffs[:, 0]`, sum_t v_t[0] F_t.  The two differ only where the ghost
    start of a term on second differences enters u_1 twice.  Where either
    sum over the leading term's part alone has real part <= 0, the
    lower-order terms outweigh the derivative and the implicit step
    amplifies the growth instead of resolving it.  The message names the
    first such component, the first step whose weight fails and the first
    halved step at which both weights resolve it.
    """

    def ratios(terms: list) -> np.ndarray:
        """Weights of step 1 and of the later steps over the leading
        term's part, (2, components)."""
        lead = terms[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            first = sum(_start_part(t) for t in terms) / _start_part(lead)
            later = sum(t.v[0] * t.op for t in terms) / (lead.v[0] * lead.op)
        return np.stack([first, later])

    grid = system.grid
    r = ratios(system.terms)
    bad = np.flatnonzero(np.any(r.real <= 0, axis=0))
    if not bad.size:
        return
    j = int(bad[0])
    step = 1 if r[0, j].real <= 0 else 2
    hint = "no step down to h / 2^63 resolves it"
    for k in range(1, 64):
        finer = TimeGrid(grid.t_end, grid.n << k)
        if np.all(ratios(terms_on(finer))[:, j].real > 0):
            hint = f"it needs a step of at most {finer.h:.3g} (n = {finer.n})"
            break
    raise StepSolveError(
        f"step {step} of {grid.n} does not resolve spectral component {j}: its "
        f"step weight is {complex(r[step - 1, j]):.3g} times the leading-order "
        f"part; {hint}"
    )


def _run_oracle(
    problem: CauchyProblem, method: str, terms_on, u0: np.ndarray, phi1: np.ndarray
) -> SolutionPath:
    """Run one oracle: resolution check, forcing samples, warm start, march,
    back-transform.

    ``terms_on(grid)`` gives the scheme's terms on a grid, and u0, phi1 the
    data, all in the operator's spectral coordinates, where the march runs.
    Step weights that do not resolve a component raise StepSolveError
    (`_require_resolved`).  Grids of 32 cells or more start from states at
    nodes 0..2 cells, cells = clip(n / 16, 1, 128), from `_warm_start` on
    L = floor(log2 clip(n / 8, 8, 128)) levels of 4 cells steps each and
    one grid of 2 cells steps of level L - 1's step.  The diagnostics carry
    the warm-start size (`warm_cells` nodes, the finest level refining h by
    `warm_refine` = 2^L, `warm_steps` = (L + 2) 2 cells steps marched), the
    wall time of the warm start and of the main march, and `far_terms`, the
    number of exponentials of each term's far field on the main grid (0 for
    short weights).
    """
    op = problem.operator
    forcing = problem.forcing_or_zero()
    if forcing is not None:
        direction = op.to_spectral(forcing.direction)

    def forcing_at(t: np.ndarray):
        """Right-hand side at the nodes t, a block at a time."""
        if forcing is None:
            return 0.0
        return np.asarray(forcing.profile.eval(t), dtype=complex)[:, None] * direction

    def march(system: _BlockSystem, inverse=None, injected=None) -> np.ndarray:
        return _march(system, u0, phi1, forcing_at, injected, inverse)

    grid = problem.grid
    start = perf_counter()
    system = _BlockSystem(terms_on(grid), grid)
    _require_resolved(system, terms_on)
    refine = steps = 0
    injected = None
    warm_begin = perf_counter()
    if grid.n >= 32:
        size = 4 * int(np.clip(grid.n // 16, 1, 128))
        levels = int(np.clip(grid.n // 8, 8, 128)).bit_length() - 1
        refine = 2**levels
        grids = [TimeGrid(size * grid.h / 2**l, size) for l in range(levels, 0, -1)]
        half = TimeGrid(size * grid.h / 2**levels, size // 2)
        injected, steps = _warm_start(
            [_BlockSystem(terms_on(g), g) for g in grids], _BlockSystem(terms_on(half), half), march
        )
    warm_end = perf_counter()
    u = march(system, injected=injected)
    end = perf_counter()
    return SolutionPath(
        grid,
        op.from_spectral(u),
        method=method,
        diagnostics={
            "warm_cells": 0 if injected is None else len(injected) - 1,
            "warm_refine": refine,
            "warm_steps": steps,
            "warm_s": warm_end - warm_begin,
            "main_s": (warm_begin - start) + (end - warm_end),
            "far_terms": system.far_terms,
        },
    )


def oracle_caputo(problem: CauchyProblem) -> SolutionPath:
    """Direct product-integration time stepping, independent of the kernels.

    Orders in (0, 1) use piecewise-linear (L1-type) weights on the first
    derivative, orders in (1, 2) the second-difference analogue with a ghost
    start; integer orders use BDF2 and backward second differences.  Steps
    march in blocks (see `_march`).  The first 2 c nodes come from two
    chains of short subgrids refined geometrically toward t = 0, down to
    h / 2^L with 2^L growing with n, extrapolated where they meet and
    marched on as one (see `_warm_start` and `_run_oracle`), which keeps the
    relative error of the startup nodes decreasing under grid refinement.
    """
    _require_caputo(problem, "oracle_caputo")
    if problem.measure.mu > 2:
        raise CapabilityError("oracle stepping covers leading orders up to 2")
    terms = _term_operators(problem)
    phis = problem.operator.to_spectral(np.array(problem.initial, dtype=complex))
    phi1 = phis[1] if len(phis) > 1 else np.zeros(problem.dim, dtype=complex)
    return _run_oracle(
        problem, "oracle-caputo", lambda g: _caputo_terms(terms, g), phis[0], phi1
    )


def oracle_rl(problem: CauchyProblem) -> SolutionPath:
    """Shifted-difference (Grunwald-Letnikov) stepping for the single-order
    route with zero weighted datum, on the same blocked march as
    `oracle_caputo`."""
    if problem.flavor != RIEMANN_LIOUVILLE:
        raise FlavorError("oracle_rl requires the riemann_liouville flavor")
    alpha = problem.measure.mu
    if np.any(np.abs(problem.initial[0]) > 1e-12):
        raise PreconditionError("oracle_rl assumes a zero weighted datum")
    b_op = _atom_sum(problem.measure, _spectrum(problem))
    zero = np.zeros(problem.dim, dtype=complex)
    return _run_oracle(
        problem, "oracle-rl", lambda g: _gl_terms(alpha, b_op, g), zero, zero
    )


# ---------------------------------------------------------------------------
# discrete residual of a path (for verification)


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
