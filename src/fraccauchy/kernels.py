"""Order measures, the characteristic function, and solution kernels.

The measure is a leading Dirac atom at order mu plus finitely many weighted
atoms at lower orders, each carrying its own operator symbol.  All solution
kernels come from the scalar characteristic function

    Delta(s, z) = g(z) s^mu + sum_j c_j f_j(z) s^(alpha_j)

through inverse Laplace transforms c_beta(t, z) = L^-1[s^beta / Delta](t).
Measures with at most one atom invert in closed Mittag-Leffler form; the
general case runs a modified Talbot contour whose nodes also monitor Delta
for zeros that would invalidate the inversion.

The contour at time t is a fixed shape scaled by n/t, s_k = (n/t) w_k, so
s_k t = n w_k does not depend on t and every power factors as
s_k^a = (n/t)^a w_k^a.  The inversion over an array of times is therefore

    c_beta(t_i) = (n/t_i)^(beta+1) sum_k E_k / Delta_ik,
    E_k = exp(n w_k) w_k^beta w'_k / (i n),
    Delta_ik = g (n/t_i)^mu w_k^mu + sum_j c_j f_j(z) (n/t_i)^(alpha_j) w_k^(alpha_j).

The lower half of the contour mirrors the upper half: the node conj(s_k)
carries conj(E_k), and Delta(conj s; c) = conj Delta(s; conj c) for the
weights c = (g, c_j f_j(z)).  Over the n/2 upper nodes alone, then,

    c_beta(t_i) = (n/t_i)^(beta+1) [A(c) + conj A(conj c)],
    A(c) = sum_(upper k) E_k / Delta_ik(c),

which is 2 Re A(c) where every weight is real.  A point of real weights
takes one row of upper nodes and returns an imaginary part of exactly 0;
any other point takes a second row with the conjugate weights, the work of
the full contour.  Each point chooses by its own weights, so its value
does not depend on what else its call holds (the tests find it bitwise
equal to its scalar call), and the |Delta| monitor over a point's rows
covers the whole contour.  Delta is summed in
real arithmetic over its leading power (n/t_i)^mu, which keeps |Delta|^2
finite at small t, every complex power taken once per node: the rows of
term factors c_j f_j(z) (n/t_i)^(alpha_j - mu) times the shape powers in
one small matrix product, 1/Delta as conj(Delta) / |Delta|^2, and the node
sums matrix-vector products.  Points go through in blocks of `_TIME_BLOCK`,
which bounds the size of each (points x nodes) temporary whatever the
length of the call.

The shape w_k and the node factor exp(n w_k) w'_k / (i n) are computed once
at import in long double and rounded once to double.  Taken in double, the
exponential carries the rounding of w times n, which set a floor of about
1e-12 of the kernel's peak.  The rule's own truncation error is smaller:
summed in 40 digits it is within 2e-20 of a 96-node sum on the tested
points of real weights, and 2.4e-15 at z = 2+1j, t = 2.9.  With the rounded
table the kernels stay within 5e-13 of their peak over t in [0.01, 10]
against the closed form, and within 2e-13 of max(1, |c_beta|) of a
40-digit contour sum (`tests/test_kernels.py`).  Where long double is
double, the table keeps that floor.

The kernels take an array of spectral points z that broadcasts against the
times and return the broadcast shape, and an array of exponents beta whose
kernels stack on a leading axis.  Only beta tells the kernels of one (t, z)
apart, so one call evaluates every kernel of a route on every (t, z): the
contour takes Delta, its monitor and 1/Delta once per point of the
flattened (z, t) broadcast and one pair of node sums per exponent, the
closed form one Mittag-Leffler call per exponent.  Every value depends on
its own (t, z, beta) alone, up to rounding: a batch agrees with one scalar
call per point and exponent to a few ulps of max(1, |value|), bitwise on
the contour in the tests, while a long closed-form batch carries the
rounding of a long Mittag-Leffler call (see `ml`).  Errors name the first
failing point in the flattened order of the broadcast.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import BlowupError, DomainError, InversionError, OrderDomainError
from .ml import ml_array
from .special import rgamma
from .symbols import SymbolFunction

__all__ = [
    "Atom",
    "OrderMeasure",
    "c_beta",
    "c_beta_path",
    "solution_symbol_path",
    "solution_symbols",
    "symbol_values",
]


@dataclass(frozen=True)
class Atom:
    """One weighted Dirac atom of the lower-order measure."""

    alpha: float
    weight: float
    symbol: SymbolFunction

    def __post_init__(self):
        if self.weight <= 0:
            raise OrderDomainError(f"atom weight must be positive, got {self.weight}")
        if self.alpha < 0:
            raise OrderDomainError(f"atom order must be >= 0, got {self.alpha}")


@dataclass(frozen=True)
class OrderMeasure:
    """Leading order mu plus atoms supported on [0, m - 1], m = ceil(mu)."""

    mu: float
    atoms: tuple = ()
    leading_symbol: SymbolFunction | None = None

    def __post_init__(self):
        if self.mu <= 0:
            raise OrderDomainError(f"leading order must be positive, got {self.mu}")
        atoms = tuple(sorted(self.atoms, key=lambda a: a.alpha))
        object.__setattr__(self, "atoms", atoms)
        top = self.m - 1
        for a in atoms:
            if a.alpha > top + 1e-12:
                raise OrderDomainError(
                    f"atom order {a.alpha} exceeds m - 1 = {top}; the lower "
                    f"measure must be supported on [0, {top}]"
                )

    @property
    def m(self) -> int:
        return math.ceil(self.mu) if self.mu != round(self.mu) else int(round(self.mu))

    def leading(self, z):
        if self.leading_symbol is None:
            return np.ones(np.shape(z), dtype=complex)
        return self.leading_symbol.eval(z)


_TALBOT_NODES = 48  # nodes of the modified Talbot contour, half above the real axis


def _talbot_half():
    """Upper half of the modified Talbot contour: the shape w(theta) and the
    node factor exp(n w) w'(theta) / (i n) at the `_TALBOT_NODES` / 2
    midpoint angles theta in (0, pi).  The contour at time t has the nodes
    s = (n/t) w and their conjugates.

    Both are computed in long double and rounded once to double, so the
    exponential does not take the rounding of w times n.
    """
    ld = np.longdouble
    n = _TALBOT_NODES
    pi = 4 * np.arctan(ld(1))
    theta = (np.arange(n // 2, n, dtype=ld) + ld(0.5)) * (2 * pi / n) - pi
    # optimized Talbot constants (sigma, mu, nu, b), exact decimals
    sg, mu_, nu_, b_ = (ld(c) for c in ("0.61220", "0.50174", "0.64070", "0.26450"))
    nt = nu_ * theta
    cot = np.cos(nt) / np.sin(nt)
    w = -sg + mu_ * theta * cot + 1j * b_ * theta
    dw = mu_ * (cot - nt / np.sin(nt) ** 2) + 1j * b_
    return w.astype(complex), (np.exp(n * w) * dw / (1j * n)).astype(complex)


_TALBOT_W, _TALBOT_E = _talbot_half()

_TIME_BLOCK = 512  # times per (times x nodes) block of the contour inversion


def _fast_path(measure: OrderMeasure) -> bool:
    return len(measure.atoms) <= 1


def symbol_values(measure: OrderMeasure, z, atoms=None) -> tuple:
    """g(z) and the weights c_j f_j(z) of the atoms (all of the measure's by
    default), each an array shaped like z.

    The symbols see z as a flat array, so a scalar z takes the same array
    arithmetic as each point of a batch and gives the same bits.
    """
    z = np.asarray(z, dtype=complex)
    atoms = measure.atoms if atoms is None else atoms
    flat = z.reshape(-1)
    g = np.asarray(measure.leading(flat), dtype=complex).reshape(z.shape)
    weights = [
        a.weight * np.asarray(a.symbol.eval(flat), dtype=complex).reshape(z.shape)
        for a in atoms
    ]
    return g, weights


def _half_sums(p: np.ndarray, powers: np.ndarray, es: list, imag: bool):
    """A = sum_k E_k / Delta_ik over the upper nodes for rows of term
    factors p (rows, terms), Delta_ik = sum_j p_ij w_k^(a_j) with the shape
    powers (terms, nodes), once for each row of node factors E in es
    (exponents, nodes): per exponent the real part of A and its imaginary
    part (None unless imag), and |Delta|^2 (rows, nodes).

    Delta, |Delta|^2 and 1/Delta do not depend on the exponent and are
    taken once for all of them.  Delta is summed in real arithmetic, and
    1/Delta taken as conj(Delta) / |Delta|^2.  Where every factor is real
    the products with the zero imaginary parts are skipped: they would only
    add exact zeros, so a row's bits do not depend on the other rows.
    """
    # einsum sums each row alike wherever it sits, so results do not
    # depend on how the points are split into calls or blocks
    d_re = np.einsum("ij,jk->ik", p.real, powers.real)
    d_im = np.einsum("ij,jk->ik", p.real, powers.imag)
    if np.any(p.imag):
        d_re -= np.einsum("ij,jk->ik", p.imag, powers.imag)
        d_im += np.einsum("ij,jk->ik", p.imag, powers.real)
    m2 = d_re * d_re
    m2 += d_im * d_im
    with np.errstate(divide="ignore", invalid="ignore"):  # a zero the monitor reports
        x, y = d_re / m2, d_im / m2
    sums = []
    for e in es:
        re = np.einsum("ik,k->i", x, e.real) + np.einsum("ik,k->i", y, e.imag)
        im = None
        if imag:
            im = np.einsum("ik,k->i", x, e.imag) - np.einsum("ik,k->i", y, e.real)
        sums.append((re, im))
    return sums, m2


def c_beta_path(
    measure: OrderMeasure,
    beta: float | np.ndarray,
    t: np.ndarray,
    z,
) -> np.ndarray:
    """c_beta(t, z) on positive times t and spectral points z.

    z is a scalar or an array that broadcasts against t; the result has the
    broadcast shape, and each value depends on its own (t, z) alone.  beta
    is a scalar, or a 1-D array of exponents whose kernels are stacked on a
    leading axis, each bitwise equal to its own scalar call.
    Measures with two or more atoms invert on the contour, in blocks of
    `_TIME_BLOCK` points of the flattened broadcast, taking Delta and its
    monitor once per point for all exponents; `InversionError` names the
    first time, in that order, at which |Delta| falls below 1e-8 on a node.
    """
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex)
    if np.any(t <= 0):
        raise DomainError("kernel times must be positive")
    # Python floats: numpy takes w ** 0.5 as sqrt (and 2, -1 alike), so
    # every exponent takes the arithmetic of its scalar call
    scalar = np.ndim(beta) == 0
    betas = [float(beta)] if scalar else [float(b) for b in beta]
    mu = measure.mu
    for b in betas:
        if b >= mu:
            raise OrderDomainError(
                f"kernel exponent must lie below the leading order {mu}, got {b}"
            )
    g, weights = symbol_values(measure, z)
    if np.any(g == 0):
        raise DomainError("leading symbol vanishes at the spectral point")
    shape = np.broadcast(t, z).shape
    out = np.empty((len(betas),) + shape, dtype=complex)
    if _fast_path(measure):
        if weights:
            rho = mu - measure.atoms[0].alpha
            x = -(weights[0] / g) * t**rho
        for b, o in zip(betas, out):
            if weights:
                e = ml_array(rho, mu - b, x)
            else:
                e = np.full(shape, rgamma(mu - b), dtype=complex)
            with np.errstate(over="ignore", invalid="ignore"):  # growth spectra overflow e
                np.divide(t ** (mu - b - 1.0) * e, g, out=o)
        return out[0] if scalar else out
    n, w = _TALBOT_NODES, _TALBOT_W
    es = [_TALBOT_E * w**b for b in betas]
    orders = np.array([mu] + [a.alpha for a in measure.atoms])
    powers = w ** orders[:, None]
    # symbol weights (spectral values, terms); values whose weights are all
    # real take the upper half of the contour alone
    coef = np.stack([g.reshape(-1)] + [c.reshape(-1) for c in weights], axis=1)
    real_z = ~np.any(coef.imag, axis=1)
    flat_t = np.broadcast_to(t, shape).reshape(-1)
    zi = np.broadcast_to(np.arange(z.size).reshape(z.shape), shape).reshape(-1)
    flat_out = out.reshape(len(betas), -1)
    for start in range(0, flat_t.size, _TIME_BLOCK):
        rows = slice(start, start + _TIME_BLOCK)
        tb, zb = flat_t[rows], zi[rows]
        scale = n / tb
        # a point of real weights is its own mirror, A(c) + conj A(c) =
        # 2 Re A(c); any other point adds a mirror row for A(conj c)
        cx = np.flatnonzero(~real_z[zb])
        mirror = np.arange(tb.size)
        mirror[cx] = tb.size + np.arange(cx.size)
        # t or |z| above about 1e154, far outside the tested range, overflows
        # the term factors, |Delta|^2 or the floor to inf
        with np.errstate(over="ignore", invalid="ignore"):
            # Delta over its leading power (n/t)^mu, so that |Delta|^2 stays
            # finite at small t; the monitor's floor scales alike
            p = coef[zb] * scale[:, None] ** (orders - mu)
            p = np.concatenate([p, np.conj(p[cx])])
            sums, m2 = _half_sums(p, powers, es, bool(cx.size))
            floor = (1e-8 * scale**-mu) ** 2  # |Delta| < 1e-8 on a node
        bad = m2 < np.concatenate([floor, floor[cx]])[:, None]
        if np.any(bad):
            bad = bad.any(axis=1)
            i = int(np.argmax(bad[: tb.size] | bad[mirror]))
            low = np.sqrt(min(m2[i].min(), m2[mirror[i]].min())) * scale[i] ** mu
            exc = InversionError(
                f"characteristic function dips to |Delta| = {low:.2e} on "
                f"the inversion contour at t = {float(tb[i])}; a zero near or "
                "right of the contour makes the result unreliable"
            )
            exc.z = complex(z.reshape(-1)[zb[i]])
            raise exc
        for b, (re, im), o in zip(betas, sums, flat_out):
            node_sum = re[: tb.size] + re[mirror]
            if cx.size:
                node_sum = node_sum + 1j * (im[: tb.size] - im[mirror])
            o[rows] = scale ** (b + 1.0 - mu) * node_sum
    return out[0] if scalar else out


def c_beta(
    measure: OrderMeasure,
    beta: float,
    t: float,
    z: complex,
) -> complex:
    """Kernel c_beta(t, z), the inverse transform of s^beta / Delta(s, z).

    Single-atom measures use the closed Mittag-Leffler form
    t^(mu-beta-1) E_{mu-a, mu-beta}(-w t^(mu-a)); anything else inverts on
    the Talbot contour.
    """
    return complex(c_beta_path(measure, beta, np.array([t]), z)[0])


def solution_symbols(measure: OrderMeasure, requests, t: np.ndarray, z) -> list:
    """J^shift S_k(t, z) for each (k, shift) of requests, one array each,
    from one `c_beta_path` call over all their kernel exponents.

    S_k is the scalar symbol of the operator mapping the k-th datum into the
    solution: S_k(t, z) = g(z) c_{mu-k-1}(t, z) plus, over atoms with
    alpha_j > k, c_j f_j(z) c_{alpha_j-k-1}(t, z); atoms exactly at the
    integer k feed only lower data indices.  J^q, the Riemann-Liouville
    integral of order q, divides the transforms by s^q, so J^shift S_k is
    the same sum with every kernel exponent lowered by shift.

    z is a scalar or an array that broadcasts against t, as in
    `c_beta_path`; each array has the broadcast shape.  Values are returned
    as they come, not finite where a growth spectrum overflows the kernel:
    `solution_symbol_path` raises there, and a caller that asks for several
    symbols checks the points it uses and, where one fails, asks again
    through `solution_symbol_path` for the error.
    """
    m = measure.m
    for k, _ in requests:
        if not 0 <= k <= m - 1:
            raise OrderDomainError(f"datum index must lie in 0..{m - 1}, got {k}")
    t = np.asarray(t, dtype=float)
    z = np.asarray(z, dtype=complex)
    shape = np.broadcast(t, z).shape
    if t.shape != shape:  # every kernel call gets one time per point it evaluates
        t = np.broadcast_to(t, shape)
    # atoms exactly at the integer k feed only lower data indices
    atoms = [a for a in measure.atoms if a.alpha > min(k for k, _ in requests)]
    g, weights = symbol_values(measure, z, atoms)
    # where c_j f_j(z) = 0 at every point the atom adds nothing
    atoms = [(a, w) for a, w in zip(atoms, weights) if np.any(w)]
    exponents: dict = {}  # kernel exponent -> its row of the kernel call
    sums = []
    for k, shift in requests:
        terms = [(g, measure.mu - k - 1.0 - shift)]
        terms += [(w, a.alpha - k - 1.0 - shift) for a, w in atoms if a.alpha > k]
        sums.append([(f, exponents.setdefault(b, len(exponents))) for f, b in terms])
    c = c_beta_path(measure, np.array(list(exponents)), t, z)
    out = []
    # non-finite kernels are left to the caller's check
    with np.errstate(over="ignore", invalid="ignore"):
        for (lead, row), *rest in sums:
            acc = lead * c[row]
            for w, row in rest:
                acc = np.where(w == 0, acc, acc + w * c[row])
            out.append(acc)
    return out


def solution_symbol_path(
    measure: OrderMeasure,
    k: int,
    t: np.ndarray,
    z,
    shift: float = 0.0,
) -> np.ndarray:
    """J^shift S_k(t, z) on positive times t and spectral points z, one
    symbol of `solution_symbols`, checked: BlowupError where it is not
    finite (growth spectra overflow the kernel) names the first (t, z) in
    the order of the flattened broadcast, and sets `z` on the error.  The
    solver's routes call it one component at a time, and only where a
    batched `solution_symbols` call has failed, to raise that failure.
    """
    (acc,) = solution_symbols(measure, [(k, shift)], t, z)
    bad = np.flatnonzero(~np.isfinite(acc))
    if bad.size:
        zb = complex(np.broadcast_to(np.asarray(z, dtype=complex), acc.shape).flat[bad[0]])
        tb = float(np.broadcast_to(np.asarray(t, dtype=float), acc.shape).flat[bad[0]])
        name = f"J^{shift:g} S_{k}" if shift else f"S_{k}"
        exc = BlowupError(
            f"solution symbol {name}(t, z) is not finite at t = {tb} for "
            f"z = {zb}; the kernel overflows on this spectrum"
        )
        exc.z = zb
        raise exc
    return acc
