"""Direct time-stepping oracles, independent of the solution kernels.

The oracles discretize the fractional derivatives on the grid with
product-integration weights and never touch the kernels, so their agreement
with the kernel routes of `solver` is a genuine two-sided check.  Of the
kernel module they take only the symbol values f_j(z) of the measure; the
imports of this module are checked by `tests/test_package_surface.py`.  The
Riemann-Liouville oracle has a zero weighted datum, so its solution vanishes
at t = 0, where the two derivatives agree: it marches the zero-data Caputo
problem (L1, order 2 - alpha; Lin & Xu, J. Comput. Phys. 225, 2007).

The Caputo oracle runs one blocked march in the operator's spectral
coordinates, where every term of a scheme is diagonal: data, forcing and
results pass through `to_spectral` / `from_spectral` only, as on the kernel
routes.  Every term convolves fixed weights with the states or their
differences, so per spectral component the steps after the first form a
lower-triangular Toeplitz system.  It is marched in blocks of up to 64
steps, each solved once with the inverse of its system.  That one solve
rounds to about m kappa u of the block's states, kappa the block matrix's
condition bound and u = 2^-53 (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., 2002, ch. 8); a system where m kappa u exceeds 5e-13
refines each block once more against the scheme's own residual (ch. 12).
At m = 64, L1 systems (kappa 10-20) take one solve, and so does the
128-mode advection system (kappa 11 at m = 22); BDF2 (kappa 140-260), L2
(870-4200), the backward second difference (6900-8400) and unresolved
growth are refined.  The grids of a solve differ only in h, so their
set-up is made once per solve: every grid reads the same cached, read-only
unit weight tables (`_unit_tables`, `_soe_tables`), each term's scale
h^-alpha / Gamma sits on its per-component diagonal, and one recurrence
gives the block inverses of every grid (`_share_inverses`).  The history
before a block takes the last block of differences from a weight table;
the long weights (L1, L2) reach all older differences through a sum of P
exponentials, one history per exponential, moved on once per block.  A
march over n steps thus costs O(n P), P between about 80 and 150 for n up
to 16384, where a product over the whole history per block cost O(n^2).
Besides its states a march holds one window of differences, taken from the
states where a block reads them, and one block inverse.
The first 2 c nodes, c = clip(n / 16, 1, 128), come from a warm start: two
chains of L short subgrids, 4 c steps each, whose step halves from level to
level toward t = 0, Richardson-extrapolated where the chains meet
(`_warm_start`).  With the main grid, a solve builds L + 1 systems and
marches (L + 2) 2 c steps, 2^L the refinement of the finest level: 2,304 at
n = 4096.  A resolution check raises StepSolveError first where a step
cannot follow a growing component, or where a step weight overflows.
"""

from __future__ import annotations

import dataclasses
import functools
import math
from time import perf_counter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import as_strided, sliding_window_view

from .errors import CapabilityError, FlavorError, PreconditionError, StepSolveError
from .grids import TimeGrid
from .kernels import symbol_values
from .problems import (
    CAPUTO,
    RIEMANN_LIOUVILLE,
    CauchyProblem,
    Forcing,
    SolutionPath,
    _require_caputo,
    _spectrum,
)
from .special import gauss_jacobi, rgamma

__all__ = ["oracle_caputo", "oracle_rl"]


# ---------------------------------------------------------------------------
# stepping oracles: one blocked march (Hairer, Lubich & Schlichte, SIAM J.
# Sci. Stat. Comput. 6, 1985), see the module docstring


_BLOCK = 64  # steps per block of the march
_HEAD = 2 * _BLOCK  # weights a weight table reads: distances below two blocks
_BLOCK_BYTES = 2**20  # largest block inverse; wide diagonal systems take shorter blocks
# largest rounding m kappa 2^-53 of a one-shot block solve: the error against
# a long-double march that the refined march keeps
_REFINE_BOUND = 5e-13
# stencils turning the states into the convolved quantity, by difference order
_STENCILS = (np.ones(1), np.array([1.0, -1.0]), np.array([1.0, -2.0, 1.0]))
# sum-of-exponentials rule of the long weights (see `_soe`): Gauss-Jacobi
# nodes on [0, 1/n], Gauss-Legendre nodes on each panel [r^k, r^(k+1)] / n
# up to s = cutoff / D0
_SOE_JACOBI = 8
_SOE_PANEL = 14
_SOE_RATIO = 3.0
_SOE_CUTOFF = 36.0


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


def _soe(a: float, d0: int, n: int):
    """Exponents lam and weights w of sum_p w_p exp(-lam_p d), equal to the
    unscaled long weights (d + 1)^a - d^a of L1 and L2, a in (0, 1), at
    every distance D0 <= d <= n to within 2e-15 relative (checked against
    40-digit values for n up to 16384).

    The weight is a Laplace transform with a smooth factor (Jiang, Zhang,
    Zhang & Zhang, Commun. Comput. Phys. 21, 2017):
    (d+1)^a - d^a = a / Gamma(1-a) int_0^oo s^(-a) (1 - e^-s) / s e^(-s d) ds.
    Gauss-Jacobi takes s^(-a) on [0, 1/n], where s d <= 1; Gauss-Legendre
    the panels beyond it, up to s = 36 / D0, past which the integrand is
    below 3e-16.  Both rules come from `special.gauss_jacobi` (beta = 0 for
    Legendre), a quadrature primitive the kernel routes use too, checked on
    its own against mpmath; the sum itself is no transform of a kernel.
    """
    x, w = gauss_jacobi(_SOE_JACOBI, -a)
    s0 = 1.0 / n
    panels = max(1, math.ceil(math.log(_SOE_CUTOFF * n / d0, _SOE_RATIO)))
    xl, wl = gauss_jacobi(_SOE_PANEL, 0.0)
    left = s0 * _SOE_RATIO ** np.arange(panels)
    half = 0.5 * (_SOE_RATIO - 1.0) * left
    s_pan = (left[:, None] + half[:, None] * (xl + 1.0)).ravel()
    lam = np.concatenate([0.5 * s0 * (x + 1.0), s_pan])
    w = np.concatenate([(0.5 * s0) ** (1.0 - a) * w, (half[:, None] * wl).ravel() * s_pan**-a])
    return lam, a * rgamma(1.0 - a) * w * (-np.expm1(-lam) / lam)


@functools.lru_cache(maxsize=32)
def _soe_tables(a: float, size: int, n: int):
    """Unscaled far-field tables of blocks of `size` steps on n steps, for
    distances from D0 = size + 1 on: the exponents lam, K[i, p] =
    w_p e^(-lam_p (size + i)) (size, P), E[p, m] = e^(-lam_p (size - m))
    (P, size) and the decay e^(-lam_p size) (P, 1)."""
    lam, w = _soe(a, size + 1, n)
    powers = np.exp(-np.outer(lam, np.arange(1.0, 2 * size)))  # e^(-lam k), k < 2 size
    return (
        _read_only(lam),
        _read_only((w[:, None] * powers[:, size - 1 :]).T),
        _read_only(np.ascontiguousarray(powers[:, size - 1 :: -1])),
        _read_only(powers[:, size - 1, None].copy()),
    )


def _term_operators(problem: CauchyProblem) -> list:
    """(order, diagonal in spectral coordinates) of the leading and atom terms."""
    g, weights = symbol_values(problem.measure, _spectrum(problem))
    terms = [(problem.measure.mu, g)]
    return terms + [(a.alpha, w) for a, w in zip(problem.measure.atoms, weights)]


class _Term(NamedTuple):
    """One term F D of a stepping scheme on one grid.

    D u at step k is scale * sum_{j < k} v[k - 1 - j] delta_j, where delta
    holds the states (order 0, delta_j = u_(j+1)), their first differences
    (order 1), or their second differences (order 2) with the ghost start
    delta_0 = 2 u_1 - 2 u_0 - 2 h phi1.  Step 1 weighs delta_0 by 1 in
    every term.  The unit weights v do not depend on h and are shared and
    read-only.  Long weights keep their first `_HEAD` entries in v and name
    the rest by `tail`, the exponent a of v[d] = (d + 1)^a - d^a, the
    weights of `_soe`; short weights are all in v, and a single one is 1.
    """

    op: np.ndarray  # the operator's diagonal in spectral coordinates
    scale: float
    v: np.ndarray
    order: int
    tail: float | None = None


_ONE = _read_only(np.ones(1))  # order-0 terms and the backward second difference
_BDF2 = _read_only(np.array([1.5, -0.5]))


def _caputo_term(alpha: float, op: np.ndarray, h: float, n: int) -> _Term:
    """Caputo derivative of order alpha on n steps of size h.

    Orders in (0, 1) take piecewise-linear (L1) weights on the first
    differences, orders in (1, 2) the analogue on the second differences;
    order 1 is BDF2 after a backward-Euler first step, order 2 the backward
    second difference.  A scale h^-alpha / Gamma that overflows or vanishes
    in double precision raises StepSolveError.
    """
    if alpha == 0:
        return _Term(op, 1.0, _ONE, 0)
    if not 0 < alpha <= 2:
        raise CapabilityError(f"oracle orders must lie in [0, 2], got {alpha}")
    r = math.ceil(alpha)
    try:
        scale = 1.0 / h**alpha if alpha == r else h ** (-alpha) * rgamma(r + 1 - alpha)
    except (OverflowError, ZeroDivisionError):
        scale = math.inf
    if not 0 < scale < math.inf:
        fails = "overflows" if h < 1 else "vanishes"
        raise StepSolveError(f"the order-{alpha:g} step weight h^-{alpha:g} {fails} at h = {h:.6g}")
    if alpha == r:
        return _Term(op, scale, _BDF2 if r == 1 else _ONE, r)
    return _Term(op, scale, _unit_weights(r - alpha, min(n, _HEAD) + 1), r, r - alpha)


def _caputo_terms(terms, grid: TimeGrid) -> list:
    return [_caputo_term(alpha, f, grid.h, grid.n) for alpha, f in terms]


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


@functools.lru_cache(maxsize=32)
def _unit_weights(a: float, count: int) -> np.ndarray:
    """The unscaled long weights (d + 1)^a - d^a at the distances d < count,
    shared and read-only."""
    i = np.arange(count, dtype=float)
    return _read_only((i + 1) ** a - i**a)


@functools.lru_cache(maxsize=32)
def _unit_tables(a: float, count: int, size: int, n: int):
    """`_weight_table` of the first `count` unscaled long weights for blocks
    of `size` steps on n steps and, where a distance reaches D0 = size + 1,
    [T | K] of the far field (see `_soe_tables`), else None.  A long term
    reads both as they are and applies its scale on its diagonal; the arrays
    are shared and read-only."""
    table = _read_only(_weight_table(_unit_weights(a, count), size))
    if n - 1 <= size:
        return table, None
    return table, _read_only(np.concatenate([table[:, :size], _soe_tables(a, size, n)[1]], axis=1))


@functools.lru_cache(maxsize=32)
def _short_table(weights: tuple, size: int) -> np.ndarray:
    """`_weight_table` of short unit weights for blocks of `size` steps,
    shared and read-only."""
    return _read_only(_weight_table(np.array(weights), size))


def _start_part(t: _Term) -> np.ndarray:
    """Weight of u_1 at step 1 in term t: u_1 enters delta_0 once, or twice
    with the ghost start."""
    return (2.0 if t.order == 2 else 1.0) * t.scale * t.op


def _require_finite(values: np.ndarray, first_step: int, grid: TimeGrid) -> None:
    finite = np.isfinite(values)
    if not finite.all():
        step = first_step + int(np.argmin(finite.all(axis=1)))
        raise StepSolveError(
            f"non-finite state at step {step} of {grid.n} (t = {step * grid.h:.6g})"
        )


def _require_regular(pivots: np.ndarray, step: int, grid: TimeGrid) -> None:
    """Raise StepSolveError where an inverse pivot 1 / a_0 is not finite:
    the step matrix from `step` on is singular."""
    if not np.all(np.isfinite(pivots)):
        raise StepSolveError(
            f"linear solve failed at step {step} of {grid.n} (h = {grid.h:.6g}): "
            "singular step matrix"
        )


def _block_inverses(a: np.ndarray) -> np.ndarray:
    """First columns x (rows, size) of the inverses of the lower-triangular
    Toeplitz matrices with first columns a (rows, size): sum_j a_(k-j) x_j =
    delta_k0.  The inverse of a leading block is the leading block of the
    inverse, so x[:, :m] serves blocks of any m <= size.  A row with
    a_0 = 0 has no inverse and comes out non-finite."""
    size = a.shape[1]
    x = np.empty_like(a)
    with np.errstate(divide="ignore", invalid="ignore"):
        x[:, 0] = 1.0 / a[:, 0]
        for k in range(1, size):  # one batched dot product per k
            dot = a[:, None, 1 : k + 1] @ x[:, k - 1 :: -1, None]
            x[:, k] = -x[:, 0] * dot[:, 0, 0]
    return x


def _toeplitz(x: np.ndarray) -> np.ndarray:
    """The lower-triangular Toeplitz matrices (rows, size, size) with first
    columns x (rows, size): row i is x_i ... x_0."""
    rows, size = x.shape
    ext = np.zeros((rows, 2 * size - 1), dtype=complex)  # size - 1 zeros, then x
    ext[:, size - 1 :] = x
    # entry (i, j) reads ext[size - 1 + i - j]: x_(i-j), or a zero above the diagonal
    row, col = ext.strides
    return as_strided(ext[:, size - 1 :], (rows, size, size), (row, col, -col)).copy()


class _BlockSystem:
    """One scheme on one grid, evaluated and solved a block of steps at a time.

    At steps b0..b1-1 the scheme reads far + near = f: `far` weighs the
    differences before row b0 - 1, `near` those from row b0 - 1 on.  Both
    multiply weights with differences, never with raw states, so their
    rounding stays that of the differences; long weights reach the
    differences more than one block back through their sum of exponentials
    (`_soe`).  Every term is diagonal in spectral coordinates, so the scheme
    is one scalar system per spectral component.  The weight and far-field
    tables are the shared unit tables, read as they are: each term's scale
    sits on its diagonal `diags`, scale F (dim,), and a term with a single
    weight has no table at all.  From step 2 on, the near part is linear in
    the block's states with a lower-triangular Toeplitz matrix per
    component, whose first column (`column`) is sum_t a_t[j] scale_t F_t,
    a_t the unit weights of term t convolved with its difference stencil;
    step 1 has its own diagonal `start` (dim,).  `inverse` holds the first
    columns of the block inverses, which `_march` reads, once
    `_share_inverses` has set them together with `kappa`, the block
    matrix's condition bound, and `refine`, whether m kappa 2^-53 exceeds
    `_REFINE_BOUND` (or kappa is not finite), so that `_march` solves each
    block twice.  A block's first solve reads `boundary`, the part of `near`
    left while its states are zero.  The block length keeps the
    (dim, size, size) inverse within `_BLOCK_BYTES`.  The ghost start reads
    phi1, the spectral first-derivative datum (None for zero).
    """

    def __init__(self, terms: list, grid: TimeGrid, phi1: np.ndarray | None = None):
        self.terms = terms
        self.grid = grid
        self.ghost = 0.0 if phi1 is None else 2.0 * grid.h * phi1
        dim = terms[0].op.size
        cap = math.isqrt(_BLOCK_BYTES // (16 * dim))
        self.size = size = max(1, min(_BLOCK, cap, grid.n - 1))
        self.diags = [t.scale * t.op for t in terms]
        # per term: its weight table, None for a single weight; per long
        # term: the exponents, [T | K], E and the decay (see `_soe_tables`),
        # None for short weights or where no distance reaches D0
        self.tables = []
        self.soes = []
        for t in terms:
            table = soe = None
            if t.tail is not None:
                table, mat = _unit_tables(t.tail, t.v.size, size, grid.n)
                if mat is not None:
                    lam, _, lower, decay = _soe_tables(t.tail, size, grid.n)
                    soe = (lam, mat, lower, decay)
            elif t.v.size > 1:
                table = _short_table(tuple(t.v), size)
            self.tables.append(table)
            self.soes.append(soe)
        self.cut = self.work = None  # the far field's state within a march
        self.start = sum(_start_part(t) for t in terms)
        self.inverse = self.kappa = self.refine = None

    def column(self, count: int) -> np.ndarray:
        """First `count` entries (dim, count) of the first column of the
        block matrix.  Long weights run on past the grid's own v, so that
        systems of smaller blocks can join a longer recurrence."""
        col = np.zeros((self.diags[0].size, count), dtype=complex)
        for t, diag in zip(self.terms, self.diags):
            v = t.v if t.tail is None or t.v.size >= count else _unit_weights(t.tail, count)
            a = np.convolve(v[:count], _STENCILS[t.order])[:count]
            col[:, : a.size] += a * diag[:, None]
        return col

    def _part(self, t: _Term, u: np.ndarray, lo: int, hi: int):
        """Rows lo..hi-1 of the states or differences term t convolves, as a real view."""
        if t.order == 0:
            return u[lo + 1 : hi + 1].view(float)
        if t.order == 1:
            return (u[lo + 1 : hi + 1] - u[lo:hi]).view(float)
        if lo == 0 < hi:  # the ghost start delta_0, then rows 1..hi-1
            ghost = 2.0 * u[1] - 2.0 * u[0] - self.ghost
            return np.vstack([ghost, self._part(t, u, 1, hi).view(complex)]).view(float)
        return (u[lo + 1 : hi + 1] - 2.0 * u[lo:hi] + u[lo - 1 : hi - 1]).view(float)

    def far(self, u: np.ndarray, b0: int, b1: int) -> np.ndarray:
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
        if fresh:  # per long term a (size + P, 2 dim) buffer: the window, then H
            self.work = [
                None if s is None else np.zeros((size + s[0].size, 2 * u.shape[1]))
                for s in self.soes
            ]
        acc = np.zeros((rows, u.shape[1]), dtype=complex)
        parts = zip(self.terms, self.tables, self.soes, self.diags, self.work)
        for t, table, soe, diag, x in parts:
            if soe is None:
                width = 0 if table is None else table.shape[1] - size
                cols = min(b0 - 1, width)
                if not cols:
                    continue
                part = self._part(t, u, b0 - 1 - cols, b0 - 1)
                v = table[:rows, width - cols : width] @ part
            else:
                lam, mat, lower, decay = soe
                window, hist = x[:size], x[size:]
                if fresh:  # H at the cut, an empty sum where lo <= 0
                    decays = np.exp(-np.outer(lam, np.arange(lo, 0.0, -1.0)))
                    hist[:] = decays @ self._part(t, u, 0, max(0, lo))
                # a call with lo < 0 is fresh, so the rows before delta_0 are 0
                window[max(0, -lo) :] = self._part(t, u, max(0, lo), b0 - 1)
                v = mat[:rows] @ x
                hist *= decay
                hist += lower @ window
            acc += v.view(complex) * diag
        self.cut = b0 - 1
        return acc

    def near(self, u: np.ndarray, b0: int, b1: int) -> np.ndarray:
        """Part of steps b0..b1-1 carried by the differences from row b0 - 1 on."""
        rows = b1 - b0
        acc = np.zeros((rows, u.shape[1]), dtype=complex)
        for t, table, diag in zip(self.terms, self.tables, self.diags):
            part = self._part(t, u, b0 - 1, b1 - 1)
            if b0 == 1 or table is None:  # step 1's weight or a single one: 1
                v = part
            else:
                width = table.shape[1] - self.size
                v = table[:rows, width : width + rows] @ part
            acc += v.view(complex) * diag
        return acc

    def boundary(self, u: np.ndarray, b0: int, b1: int) -> np.ndarray:
        """`near` while the states of steps b0..b1-1 are still zero.

        Only the differences that reach back before step b0 are then
        nonzero: row b0 - 1 of the first and second differences, and row
        b0 of the second; the states themselves (order 0) are all zero.
        """
        rows = b1 - b0
        acc = np.zeros((rows, u.shape[1]), dtype=complex)
        for t, table, diag in zip(self.terms, self.tables, self.diags):
            if t.order == 0:
                continue
            k = min(t.order, rows)
            part = self._part(t, u, b0 - 1, b0 - 1 + k)
            if b0 == 1 or table is None:  # step 1's weight or a single one: 1
                acc[:k] += part.view(complex) * diag
            else:
                width = table.shape[1] - self.size
                acc += (table[:rows, width : width + k] @ part).view(complex) * diag
        return acc


def _march(
    system: _BlockSystem,
    u0: np.ndarray,
    forcing: Forcing | None,
    injected: np.ndarray | None = None,
    steps: int | None = None,
) -> np.ndarray:
    """States of one scheme on its system's grid, from u0 or from injected
    start states, at nodes 0..steps (by default every node).

    ``forcing`` (None for zero) has its direction in spectral coordinates;
    its profile is evaluated once, at the nodes the march solves for.
    Step 1 takes the scheme's start rule; the later steps go in blocks of
    `_BlockSystem.size`.  A block is solved from zero with the inverse of
    its matrix, from the system's `inverse` (see `_share_inverses`), on the
    right side less the `boundary` differences its zero states leave.  That
    solve rounds to about m kappa 2^-53 of the block's states; where this
    exceeds `_REFINE_BOUND` (BDF2, L2, the backward second difference,
    unresolved growth), the system's `refine` is set and each block is
    solved once more against the residual of the scheme itself, which keeps
    its rounding at that of single steps.  L1 systems take one solve.  A
    singular step matrix
    raises StepSolveError naming the grid and the step.  Besides the states
    the march holds one window of differences, taken from the states where
    a block reads them, and one block inverse.
    Floating-point warnings are silenced and every block is checked instead,
    so overflow raises StepSolveError naming the first non-finite step.
    """
    grid = system.grid
    n = grid.n if steps is None else steps
    u = np.zeros((n + 1, u0.shape[0]), dtype=complex)
    known = u0[None] if injected is None else injected
    done = known.shape[0] - 1
    u[: done + 1] = known
    system.cut = None  # the far field's history belongs to another march
    first = done + 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if forcing is not None:
            nodes = grid.nodes[first : n + 1]
            values = np.asarray(forcing.profile.eval(nodes), dtype=complex)[:, None]
        blocks = []
        if done == 0:
            start = 1.0 / system.start
            _require_regular(start, 1, grid)
            blocks.append((1, 2, start[:, None, None]))
            done = 1
        _require_regular(system.inverse[:, 0], done + 1, grid)
        inverse = _toeplitz(system.inverse[:, : system.size])
        blocks += [
            (b0, min(b0 + system.size, n + 1), inverse)
            for b0 in range(done + 1, n + 1, system.size)
        ]
        for b0, b1, inv in blocks:
            # a zero forcing subtracts the far part from 0, keeping its signed zeros
            f = 0.0 if forcing is None else values[b0 - first : b1 - first] * forcing.direction
            rhs = f - system.far(u, b0, b1)
            _require_finite(rhs, b0, grid)
            inv = inv[:, : b1 - b0, : b1 - b0]
            x = (rhs - system.boundary(u, b0, b1)).T[..., None]
            u[b0:b1] = np.matmul(inv, x)[..., 0].T
            if system.refine:
                x = (rhs - system.near(u, b0, b1)).T[..., None]
                u[b0:b1] += np.matmul(inv, x)[..., 0].T
            _require_finite(u[b0:b1], b0, grid)
    system.work = None  # the far field's buffers go with the march
    return u


def _share_inverses(systems: list) -> None:
    """Set the `inverse` of every system from one `_block_inverses`
    recurrence over their stacked first columns, taken at the largest block
    size: a system of smaller blocks reads the leading entries of its rows.
    The systems must share their spectral dimension.

    Each system's `kappa` is the 1-norm condition number of its block
    matrices of m = `size` steps, the largest over components of
    (sum_k<m |a_k|) (sum_k<m |x_k|), a the first column and x that of the
    inverse; `refine` is set where m kappa 2^-53 exceeds `_REFINE_BOUND`
    or kappa is not finite (a singular row, which `_march` then reports).
    """
    size = max(s.size for s in systems)
    columns = np.concatenate([s.column(size) for s in systems])
    inverses = _block_inverses(columns)
    pairs = zip(np.split(columns, len(systems)), np.split(inverses, len(systems)))
    for system, (a, x) in zip(systems, pairs):
        m = system.size
        with np.errstate(over="ignore", invalid="ignore"):
            norms = np.abs(a[:, :m]).sum(axis=1) * np.abs(x[:, :m]).sum(axis=1)
        system.inverse = x
        system.kappa = float(np.max(norms))
        system.refine = not m * system.kappa * 2.0**-53 <= _REFINE_BOUND


def _warm_start(systems: list, march):
    """Start states at main-grid nodes 0..S/2 and the number of steps marched.

    ``systems`` holds one system per level l = L..1, each S steps of
    h / 2^l, and ``march(system, injected, steps)`` marches one of them.  A
    chain of levels starts from u0 on its finest level, and each coarser
    level takes every second state of the level below as its nodes 0..S/2,
    so level 1 ends on main-grid nodes.  The chains of L and of L - 1 levels
    share every level but the finest, and 2A - B cancels the leading error
    term of the finest step.  The march is affine in its start states and
    forcing, and the weights 2 and -1 sum to 1, so the extrapolation is
    taken where the chains meet: on nodes 0..S/2 of level L - 1, from chain
    A's finest level and from chain B's first S/2 steps there, a march of
    level L - 1 from u0.  The one combined start then runs through levels
    L - 1..1: (L + 2) S/2 steps in L + 1 marches.
    """
    half = systems[0].grid.n // 2
    u = 2.0 * march(systems[0], None, None)[::2] - march(systems[1], None, half)
    steps = systems[0].grid.n + half
    for system in systems[1:]:
        u = march(system, u, None)[::2]
        steps += system.grid.n // 2
    return u, steps


def _require_resolved(system: _BlockSystem, terms: list) -> None:
    """Raise StepSolveError where the step weights of the system do not
    resolve a spectral component.

    ``terms`` are the (order, diagonal) pairs of the scheme.  Step 1 weighs
    u_1 by `_BlockSystem.start`, the sum of every term's part, and every
    later step weighs its own state by the block diagonal `column(1)`,
    sum_t v_t[0] F_t.  The two differ only where the ghost start of a term
    on second differences enters u_1 twice.  Where either sum over the
    leading term's part alone has real part <= 0, the lower-order terms
    outweigh the derivative and the implicit step amplifies the growth
    instead of resolving it.  The message names the first such component,
    the first step whose weight fails and the first halved step at which
    both weights resolve it, or the first whose step weights overflow.
    """

    def ratios(terms: list) -> np.ndarray:
        """Weights of step 1 and of the later steps over the leading
        term's part, (2, components)."""
        lead = terms[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            first = sum(_start_part(t) for t in terms) / _start_part(lead)
            later = sum(t.v[0] * t.scale * t.op for t in terms) / (lead.v[0] * lead.scale * lead.op)
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
        try:
            finer_terms = _caputo_terms(terms, finer)
        except StepSolveError:
            hint = f"no finer step resolves it before its step weights overflow at {finer.h:.3g}"
            break
        if np.all(ratios(finer_terms)[:, j].real > 0):
            hint = f"it needs a step of at most {finer.h:.3g} (n = {finer.n})"
            break
    raise StepSolveError(
        f"step {step} of {grid.n} does not resolve spectral component {j}: its "
        f"step weight is {complex(r[step - 1, j]):.3g} times the leading-order "
        f"part; {hint}"
    )


def oracle_caputo(problem: CauchyProblem) -> SolutionPath:
    """Direct product-integration time stepping, independent of the kernels.

    Orders in (0, 1) use piecewise-linear (L1-type) weights on the first
    derivative, orders in (1, 2) the second-difference analogue with a ghost
    start; integer orders use BDF2 and backward second differences.  After
    a resolution check (`_require_resolved`), steps march in blocks (see
    `_march`).  Grids of 32 cells or more start from states at nodes
    0..2 c, c = clip(n / 16, 1, 128), from `_warm_start` on
    L = floor(log2 clip(n / 8, 8, 128)) levels of 4 c steps, refined toward
    t = 0 down to h / 2^L, which keeps the relative error of the startup
    nodes decreasing under grid refinement.  The main grid and the levels
    take their block inverses from one recurrence (`_share_inverses`).

    The diagnostics carry the warm-start size (`warm_cells` nodes, the
    finest level refining h by `warm_refine` = 2^L, `warm_steps` =
    (L + 2) 2 c steps marched), the wall time of the warm start (`warm_s`,
    which includes the shared recurrence, the main grid's rows too) and of
    the main march (`main_s`, its set-up and resolution check included, and
    without a warm start the main grid's own recurrence), and `far_terms`,
    the number of exponentials of each term's far field on the main grid
    (0 for short weights), and the main grid's block condition bound
    (`block_kappa`) and whether its blocks take the second solve
    (`refined`, see `_march`).
    """
    _require_caputo(problem, "oracle_caputo")
    if problem.measure.mu > 2:
        raise CapabilityError("oracle stepping covers leading orders up to 2")
    terms = _term_operators(problem)
    op = problem.operator
    phis = op.to_spectral(np.array(problem.initial, dtype=complex))
    phi1 = phis[1] if len(phis) > 1 else np.zeros(problem.dim, dtype=complex)
    forcing = problem.forcing_or_zero()
    if forcing is not None:
        forcing = Forcing(forcing.profile, op.to_spectral(forcing.direction))

    def march(system: _BlockSystem, injected=None, steps=None) -> np.ndarray:
        return _march(system, phis[0], forcing, injected, steps)

    grid = problem.grid
    start = perf_counter()
    system = _BlockSystem(_caputo_terms(terms, grid), grid, phi1)
    _require_resolved(system, terms)
    refine = steps = 0
    injected = None
    warm_begin = perf_counter()
    if grid.n >= 32:
        size = 4 * int(np.clip(grid.n // 16, 1, 128))
        levels = int(np.clip(grid.n // 8, 8, 128)).bit_length() - 1
        refine = 2**levels
        systems = []
        for l in range(levels, 0, -1):
            g = TimeGrid(size * grid.h / 2**l, size)
            try:
                systems.append(_BlockSystem(_caputo_terms(terms, g), g, phi1))
            except StepSolveError as exc:
                raise StepSolveError(f"{exc}, warm-start level {l} (h / {2**l}) of the problem's "
                                     f"h = {grid.h:.6g}") from exc
        _share_inverses([system, *systems])
        injected, steps = _warm_start(systems, march)
        # rows of its own, so the levels' rows of the stack go with the levels
        system.inverse = system.inverse.copy()
        del systems  # the levels go before the main march
    warm_end = perf_counter()
    if injected is None:  # no warm start: the main grid's own recurrence
        _share_inverses([system])
    u = march(system, injected)
    end = perf_counter()
    return SolutionPath(
        grid,
        op.from_spectral(u),
        method="oracle-caputo",
        diagnostics={
            "warm_cells": 0 if injected is None else len(injected) - 1,
            "warm_refine": refine,
            "warm_steps": steps,
            "warm_s": warm_end - warm_begin,
            "main_s": (warm_begin - start) + (end - warm_end),
            "far_terms": [0 if soe is None else soe[0].size for soe in system.soes],
            "block_kappa": system.kappa,
            "refined": system.refine,
        },
    )


def oracle_rl(problem: CauchyProblem) -> SolutionPath:
    """The single-order route's oracle, for a zero weighted datum.

    The solution then vanishes at t = 0, where the Riemann-Liouville and
    Caputo derivatives agree, so this is `oracle_caputo` on the same
    problem with the Caputo flavor and a zero initial value: L1 weights,
    order 2 - alpha in h.
    """
    if problem.flavor != RIEMANN_LIOUVILLE:
        raise FlavorError("oracle_rl requires the riemann_liouville flavor")
    if np.any(np.abs(problem.initial[0]) > 1e-12):
        raise PreconditionError("oracle_rl assumes a zero weighted datum")
    zero = np.zeros(problem.dim, dtype=complex)
    path = oracle_caputo(dataclasses.replace(problem, flavor=CAPUTO, initial=[zero]))
    path.method = "oracle-rl"
    return path
