"""Direct time-stepping oracles, independent of the solution kernels.

The two oracles discretize the fractional derivatives on the grid with
product-integration weights and never touch the kernels, so their agreement
with the kernel routes of `solver` is a genuine two-sided check.  Of the
kernel module they take only the symbol values f_j(z) of the measure; the
imports of this module are checked by `tests/test_package_surface.py`.

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
"""

from __future__ import annotations

import functools
import math
from time import perf_counter
from typing import NamedTuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import CapabilityError, FlavorError, PreconditionError, StepSolveError
from .grids import TimeGrid
from .kernels import symbol_values
from .problems import (
    RIEMANN_LIOUVILLE,
    CauchyProblem,
    SolutionPath,
    _atom_sum,
    _require_caputo,
    _spectrum,
)
from .special import gauss_jacobi, rgamma

__all__ = ["oracle_caputo", "oracle_rl"]


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
