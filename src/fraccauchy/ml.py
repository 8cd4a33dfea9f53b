"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

Evaluation has three paths, chosen per point by x = |z|**(1/alpha):

* x <= 4: the defining power series in double precision.  Its largest term
  stays below e^4, so cancellation costs at most about 1e-14.
* x >= 40, where the asymptotic series stops within 16 terms:
  E = sum of the pole terms - sum_{m=1}^{K} z^(-m) / Gamma(beta - alpha m)
  (Gorenflo, Loutchko & Luchko, Fract. Calc. Appl. Anal. 5, 2002).  What
  it drops, the Hankel part outside the unit disk and any pole on the
  branch cut, is below e^-40 < 5e-18 of x^(1-beta).
* otherwise (4 < x < 40, or a point that needs more than 16 terms):
  E = x^(1-beta) f(x), where f is the inverse Laplace transform of
  F(s) = s^(alpha-beta) / (s^alpha - e^(i theta)), theta = arg z, taken by
  the trapezoidal rule on a parabola s(u) = mu (1 + iu)^2 (Weideman &
  Trefethen, Math. Comp. 76, 2007), plus the residues of F's poles
  (Garrappa, SIAM J. Numer. Anal. 53, 2015).

What depends on (alpha, beta) alone is two tables, built on first use: the
series coefficients 1/Gamma(alpha k + beta), the radii at which the series
stops and the powers of the contour shape; and the asymptotic coefficients
1/Gamma(beta - alpha m) with their stop radii.  Each series gives each
point its term count by one search in its radii and sums all points by one
Horner sweep, from the largest count down; the asymptotic series runs in
1/z, and a point stops once its next four terms are each below 1e-18 of
its first (four, as 1/Gamma(beta - alpha m) can vanish at every other m).

F depends on the argument alone, so one contour serves a window of x on a
ray (as for real arguments in Garrappa & Popolizio, Adv. Comput. Math. 39,
2013).  Points are grouped by their exact argument and by the window
4^k <= x < 4^(k+1) of a fixed lattice; a group takes mu = 1.3 / 4^k and the
nodes u = 0.15 j, |j| <= 32, so the transform is evaluated once per group
and each point's node sum is one row of a (points x nodes) product.  The
exponents x s = (1.3 x / 4^k) (1 + iu)^2 depend on x / 4^k alone, and the
nodes u < 0 give the conjugates of the exponentials at u > 0, so a point
takes 33 of them: one complex exponential, powers by repeated squaring,
and 33 real exponentials.

The poles s* = e^(i (theta + 2 pi k) / alpha), |theta + 2 pi k| < alpha pi,
lie on |s| = 1.  Each adds (1/alpha) s*^(1-beta) e^(x s*) to f at every x,
on the contour and on the asymptotic path alike.  On the contour, a pole
less than 4 below the window's parabola in Im u, or left of it, also
has its principal part subtracted from F at the nodes, so the rule
integrates a function smooth in its strip; every node lies at least 0.03
off |s| = 1, which bounds the cancellation of that subtraction.  Poles on
the branch cut (Stokes rays) stay in F, like the branch point.

Cost.  A call pays a fixed ~0.1 ms of numpy dispatch per path it takes;
the series adds ~2 us per term of its longest point (up to ~70 terms for
alpha >= 1/2) and ~5 ns per term of each point, the asymptotic series
~2 us per term of its longest point (up to 16), the contour ~0.1 ms per
block of up to 1024 points, ~0.5 us per point and ~5 us per group of
points that share an argument and a window.  Measured on a 2-CPU x86-64
virtual machine with numpy 2.4, medians of 7 runs of 8192 points at
alpha = 1/2 (the machine's speed drifts by up to 1.5x between runs): the
series 0.22-0.30 us per point at x uniform in [0, 4]; the contour 0.5-0.7
us per point on one ray, 1.2-1.5 on 128 rays, and 4.5-5.4 where every point
has an argument of its own; the asymptotic series 0.22 us per point on one
ray and 0.38 where every point has an argument of its own (|z| from 116 to
1e4, at most 8 terms); a one-point call 0.13-0.3 ms on any path.

A value depends only on its own point, up to rounding: on the two series
paths each point stops on its own, and on the contour path each point's
node sum is its own row.  A call repeated gives the same bits, and short
calls (the tests take up to 17 points) give each point the bits of its
one-point call.  A long call need not: numpy's vector loops, chosen by CPU
and array length, round some of its contour points differently, more than
half of 1024 points with arguments of their own at alpha = 1/2, by up to
2e-15 of max(1, |E|) (AVX-512, numpy 2.4).  Finite arguments whose x
overflows (alpha < 1) take the asymptotic path with at most 16 terms,
where a decaying pole term adds 0 and one with Re s* >= 0 makes the
value nan.

Accuracy, absolute where |E| <= 1 and relative above: 1e-10 for alpha in
[0.25, 2] and |z| <= 50, Stokes rays included, and 1e-12 on the kernel rays
of alpha in {1/2, 1, 3/2, 2} (decaying, advection, Stokes and growth
directions, x up to 1e16) and on both sides of x = 40 and of the 16-term
radius (alpha from 1/4 to 2, beta from -1 to 5/2), all against mpmath
references.  Two limits: where a pole term lives, E's relative condition
number is about x / alpha, so at x = 1e5 rounding of z alone moves E by
about 1e-11; and the contour scales its rounding by x^(1-beta), so at
beta = -1 it reads 4e-12 at x = 60.  Against the contour, the asymptotic
path agrees to 5e-15 of max(1, |E|) at beta from 1/2 to 5/2 over 12,000
points per (alpha, beta) with |z| from 0.1 to 1e7, and is the more exact
of the two at beta = -1 and large x.

alpha below 0.01 raises DomainError; below alpha = 2e-4 the series stops
unconverged at its term limit.  With the floor lifted, against mpmath (the
defining series where x <= 60, else the pole terms and the asymptotic
series to 1e-36), the largest error at |z| from 1 to 1e12 on seven rays,
beta in {-1, 0.5, 1, 1.5, 2.5}, is 3e-14 at alpha = 0.01 and 2e-13 at
0.0075, 0.005 and 0.002.  On the contour the factor mu^(alpha - beta) of a
window is taken together with x^(1 - beta), as (x mu)^(1 - beta)
mu^alpha, so a tiny mu does not overflow.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .special import rgamma

_ALPHA_MIN = 0.01  # smallest alpha evaluated (see the module docstring)
_SERIES_CUT = 4.0  # largest x = |z|^(1/alpha) summed by the series
_MAX_TERMS = 20000
_ASYM_CUT = 40.0  # smallest x summed by the asymptotic series: e^-40 < 5e-18
_ASYM_TERMS = 16  # most terms of the asymptotic series; a point needing more takes the contour
_MU, _STEP, _NODES = 1.3, 0.15, 32  # mu 4^k, node step h and N of the contours
_POINT_BLOCK = 1024  # points per block of a path; a contour block holds (points x nodes) arrays

# The nodes u_j, j = 0..N, then u_j, j = 0..-N, of the contours s(u) = mu (1 + iu)^2,
# and the rule's factor h s'(u) / (2 pi i mu) at each; the second u_0 has
# factor 0, so each half holds N + 1 nodes with the same node counted once.
_U = _STEP * np.concatenate([np.arange(_NODES + 1), -np.arange(_NODES + 1)])
_SHAPE = (1.0 + 1j * _U) ** 2
_FACTOR = _STEP / np.pi * (1.0 + 1j * _U)
_FACTOR[_NODES + 1] = 0.0
_C = 1.0 - _U[: _NODES + 1] ** 2  # e^(x s(u)) = e^(tau (1 - u^2)) e^(2i tau u)


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta)."""
    return complex(ml_array(alpha, beta, np.array([z]))[0])


def ml_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of arguments; nan where z is
    not finite.  alpha must be at least 0.01 (see the module docstring)."""
    if alpha <= 0:
        raise DomainError(f"first parameter must be positive, got {alpha}")
    if alpha < _ALPHA_MIN:
        raise DomainError(f"first parameter below {_ALPHA_MIN} is not supported, got {alpha}")
    alpha, beta = float(alpha), float(beta)
    z = np.asarray(z, dtype=complex)
    # contiguous, as numpy's strided loops may round |z| differently
    flat = np.ascontiguousarray(z).reshape(-1)
    out = np.full(flat.shape, np.nan, dtype=complex)
    r = np.abs(flat)
    with np.errstate(over="ignore"):  # x overflows for huge |z| and alpha < 1
        x = r ** (1.0 / alpha)
    near = x <= _SERIES_CUT
    if np.any(near):
        out[near] = _series(alpha, beta, flat[near], x[near])
    far = ~near & np.isfinite(flat)
    large = far & (x >= _ASYM_CUT)
    if large.any():
        # the asymptotic series stops within its cap from the last stop radius
        # on; where x overflows there is no contour to fall back on
        large &= (r >= _asymptotic_table(alpha, beta)[1][-1]) | np.isinf(x)
        for idx in _blocks(np.flatnonzero(large)):
            out[idx] = _asymptotic(alpha, beta, flat[idx], r[idx], x[idx])
        far &= ~large
    far = np.flatnonzero(far)
    work = _Work(min(far.size, _POINT_BLOCK))  # shared by the contour blocks
    for idx in _blocks(far):
        out[idx] = _contour(alpha, beta, flat[idx], x[idx], work)
    return out.reshape(z.shape)


def _blocks(idx: np.ndarray):
    """idx in runs of up to `_POINT_BLOCK` points."""
    return (idx[start : start + _POINT_BLOCK] for start in range(0, idx.size, _POINT_BLOCK))


@functools.lru_cache(maxsize=64)
def _table(alpha: float, beta: float):
    """What depends on (alpha, beta) alone, built on first use: the series
    coefficients 1/Gamma(alpha k + beta) with their stop radii X_k, and the
    node powers s(u)^(alpha - beta) and s(u)^alpha of the contours.

    A point stops at the first k > floor(x / alpha) + 1 whose term is below
    1e-18, that is where x < alpha (k - 1) and x < (1e-18 Gamma(alpha k +
    beta))^(1/(alpha k)); a zero coefficient (a pole of Gamma) is no sign of
    convergence and stops nothing.  Its last term is then the first k with
    x < X_k, X the running maximum of the smaller of those bounds, and the
    table runs until X passes the series cut.  The arrays are shared by
    every caller and read-only.
    """
    coef, radii, top = [], [], 0.0
    for k in range(_MAX_TERMS):
        a = alpha * k + beta
        coef.append(rgamma(a))
        if k >= 2 and coef[-1] != 0:  # lgamma stays finite where Gamma overflows
            bound = math.exp((math.lgamma(a) + math.log(1e-18)) / (alpha * k))
            top = max(top, min(alpha * (k - 1), bound))
        radii.append(top)
        if top > _SERIES_CUT:
            break
    table = (np.array(coef), np.array(radii), _SHAPE ** (alpha - beta), _SHAPE**alpha)
    for array in table:
        array.flags.writeable = False
    return table


def _series(alpha: float, beta: float, z: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Power series for x = |z|**(1/alpha) <= 4, each point with its own
    term count from the stop radii."""
    coef, radii = _table(alpha, beta)[:2]
    last = np.minimum(np.searchsorted(radii, x, side="right"), coef.size - 1)
    return _horner(coef, last, z, 0)


def _horner(coef: np.ndarray, last: np.ndarray, v: np.ndarray, first: int) -> np.ndarray:
    """sum_{k=first}^{last_i} coef_k v_i^(k - first) per point, by Horner's rule.

    The sweep runs from the largest count down over the points sorted by
    count, so that at term k it holds exactly the points with more than k
    terms.  Products go into a second buffer, never in place (numpy rounds
    an in-place complex product on a length-1 array differently), so a
    point's sum does not depend on the other points of the call.
    """
    order = np.argsort(-last, kind="stable")
    top = int(last[order[0]])
    # live[k]: the number of points whose last term is k or later
    live = np.searchsorted(-last[order], -np.arange(top + 1), side="right")
    v = v[order]
    acc, tmp = np.zeros_like(v), np.empty_like(v)
    for k in range(top, first - 1, -1):
        n = live[k]
        np.multiply(acc[:n], v[:n], out=tmp[:n])
        np.add(tmp[:n], coef[k], out=acc[:n])
    out = np.empty_like(v)
    out[order] = acc
    return out


@functools.lru_cache(maxsize=64)
def _asymptotic_table(alpha: float, beta: float):
    """The coefficients c_m = 1/Gamma(beta - alpha m), m = 0..cap (c_0 is
    not summed), and the stop radii R_K, K = 0..cap, of the asymptotic
    series, built on first use.

    A point stops after K terms once the next four terms are each below
    1e-18 of the first term c_j z^-j, j the first m with c_m != 0: four,
    because c_m can vanish at every other m (alpha = 1/2 with integer
    beta), and relative, so a value of 1e-300 keeps its digits too.  So R_K
    is the largest (1e18 |c_m / c_j|)^(1/(m - j)) over m = K+1..K+4 (none
    below j, 0 where c_m = 0), made non-increasing in K by a running
    minimum, and a point takes the first K with |z| >= R_K.  The arrays are
    shared by every caller and read-only.
    """
    coef = [rgamma(beta - alpha * m) for m in range(_ASYM_TERMS + 5)]
    j = next((m for m in range(1, len(coef)) if coef[m]), 0)

    def radius(m: int) -> float:  # |z| from which |c_m z^-m| <= 1e-18 |c_j z^-j|
        if m == j:
            return math.inf
        if not coef[m]:
            return 0.0
        return math.exp((math.log(abs(coef[m] * 1e18)) - math.log(abs(coef[j]))) / (m - j))

    stops = [max(map(radius, range(k + 1, k + 5))) for k in range(_ASYM_TERMS + 1)]
    table = (np.array(coef[: _ASYM_TERMS + 1]), np.minimum.accumulate(stops))
    for array in table:
        array.flags.writeable = False
    return table


def _asymptotic(
    alpha: float, beta: float, z: np.ndarray, r: np.ndarray, x: np.ndarray
) -> np.ndarray:
    """E at x = |z|^(1/alpha) >= 40: the pole terms minus
    sum_{m=1}^{K} c_m z^-m (see the module docstring).

    Each point takes its own K from the stop radii (the cap where x
    overflows), and the sum goes by Horner's rule in w = 1/z, as
    w sum_{m=1}^{K} c_m w^(m-1).  Where x overflows, a pole term with
    Re s* < 0 is 0 and one with Re s* >= 0 makes the value nan.
    """
    coef, radii = _asymptotic_table(alpha, beta)
    last = np.minimum(np.searchsorted(-radii, -r), _ASYM_TERMS)
    w = 1.0 / z
    out = -(w * _horner(coef, last, w, 1))
    poles, res = _poles(alpha, beta, np.angle(z))
    pole = res.any(axis=1)
    if pole.any():
        finite = np.isfinite(x)
        i = np.flatnonzero(pole & finite)
        out[i] += _pole_terms(x[i], beta, poles[i], res[i])
        out[~finite & ((res != 0) & (poles.real >= 0)).any(axis=1)] = np.nan
    out.imag[z.imag == 0] = 0.0  # E is real on the real axis; drop rounding
    return out


def _poles(alpha: float, beta: float, theta: np.ndarray):
    """The simple poles s* = e^(i (theta + 2 pi k) / alpha) of F on the
    principal sheet, one row per argument theta, and their residues
    s*^(1 - beta) / alpha.

    Poles on the branch cut (Stokes rays) stay in F, like the origin; they
    and the rows' missing poles take residue 0 at s* = -1, where e^(x s*)
    is finite.
    """
    k = np.arange(math.ceil(-(alpha + 1) / 2), math.floor((alpha + 1) / 2) + 1)
    ang = (theta[:, None] + 2 * np.pi * k) / alpha
    live = (np.abs(ang) <= np.pi) & (np.cos(ang) > 2e-15 - 1)
    if not live.any():  # no row has a pole: none of the complex powers below
        return ang[:, :0], ang[:, :0]
    poles = np.where(live, np.exp(1j * ang), -1.0)
    return poles, np.where(live, poles ** (1.0 - beta) / alpha, 0.0)


def _pole_terms(x: np.ndarray, beta: float, poles: np.ndarray, res: np.ndarray) -> np.ndarray:
    """sum_k res_k x^(1 - beta) e^(x s*_k) per point, one row of poles and
    residues per point; infinite where e^(x s*) overflows on growth rays."""
    # x^(1 - beta) e^(x s*) as one exponential, so a decaying pole term
    # does not meet an overflowing power
    ex = x[:, None] * poles + (1.0 - beta) * np.log(x[:, None])
    with np.errstate(over="ignore", invalid="ignore"):
        return np.einsum("ij,ij->i", np.exp(ex), res)


class _Work:
    """Work arrays for contour blocks of up to `size` points.

    One call takes them once and its blocks reuse them: taking these
    arrays afresh for every block cost more than the arithmetic on them.
    They are views of one buffer, the largest block a call frees (1.9 MB
    at 1024 points): glibc trims its heap once the free memory on top
    passes twice the largest block it has mapped and freed, and with four
    smaller buffers that bound fell below a call's working set, so every
    large call faulted its pages in afresh, in a count that moved with the
    heap's history (1300 page faults, 4 of 16 ms, per wide `closed-form`
    solve on a 2-CPU VM).
    """

    def __init__(self, size: int):
        n = (_NODES + 1) * size
        buf = np.empty(7 * n)
        self.nodes = buf[: 2 * n].view(complex)  # node by node
        self.points = buf[2 * n : 4 * n].view(complex)  # point by point
        self.mag = buf[4 * n : 5 * n]
        self.rows = buf[5 * n :]

    def exp_nodes(self, tau: np.ndarray) -> np.ndarray:
        """e^(tau (1 + iu)^2) at the nodes u = h j, j = 0..N, one row of
        pairs (Re, Im) per tau.

        The phases e^(2i tau h j) are products of q^(2^b) = e^(2i tau h 2^b)
        over the bits b of j, q^(2^b) taken by repeated squaring from one
        complex exponential; the rows are built node by node and transposed.
        """
        shape = (_NODES + 1, tau.size)
        e = self.nodes[: shape[0] * shape[1]].reshape(shape)
        e[0] = 1.0
        e[1] = q = np.exp(2j * _STEP * tau)
        n = 2
        while n <= _NODES:  # the phases of j = n..2n-1 from those of j = 0..n-1
            q = q * q
            m = min(n, _NODES + 1 - n)
            np.multiply(e[:m], q, out=e[n : n + m])
            n *= 2
        mag = self.mag[: e.size].reshape(shape)
        np.exp(np.multiply.outer(_C, tau, out=mag), out=mag)
        np.multiply(e, mag, out=e)
        points = self.points[: e.size].reshape(shape[::-1])
        points[...] = e.T
        return points.view(float)

    def take(self, rows: np.ndarray, group: np.ndarray) -> np.ndarray:
        """rows[group], in the work array."""
        out = self.rows[: group.size * rows.shape[1]].reshape(group.size, -1)
        # mode "raise" would go through a second buffer; the groups are in range
        return np.take(rows, group, axis=0, out=out, mode="clip")


def _contour(alpha: float, beta: float, z: np.ndarray, x: np.ndarray, work: _Work) -> np.ndarray:
    """E at x = |z|**(1/alpha) > 4: one contour per argument and window of x."""
    # window 4^k <= x < 4^(k+1), read off the binary exponent so no rounding moves a point
    x0 = np.ldexp(1.0, 2 * ((np.frexp(x)[1] - 1) // 2))
    keys, group = np.unique(x0 + 1j * np.angle(z), return_inverse=True)
    theta, mu = keys.imag, _MU / keys.real
    poles, res = _poles(alpha, beta, theta)
    live = res.any(axis=1)
    # the rule's weights w_j = h s'(u_j) F(s(u_j)) / (2 pi i) of each group,
    # over mu^(alpha - beta) mu: that factor joins x^(1 - beta) per point,
    # where the product (x mu)^(1 - beta) mu^alpha stays finite however
    # small mu = 1.3 / 4^k gets
    m = mu[:, None]
    _, _, shape_ab, shape_a = _table(alpha, beta)
    f = shape_ab / (m**alpha * shape_a - np.exp(1j * theta[:, None]))
    if live.any():
        # poles less than 4 below the contour in Im u (the parabola through
        # s* crosses the real axis at (1 + Re s*) / 2 < 25 mu) lose their
        # principal part: what the rule integrates is smooth in its strip.
        # Live poles keep 1 + Re s* > 2e-15, so mu > 4e-17 where they do.
        close = (1.0 + poles.real) / 2 < 25.0 * m
        near = np.where(close, res * np.where(close, m, 1.0) ** (beta - alpha), 0.0)
        f -= np.einsum("gj,gkj->gk", near, 1.0 / ((m * _SHAPE)[:, :, None] - poles[:, None, :]))
    w = f * _FACTOR
    # x s(-u) = conj(x s(u)), so with e_j = e^(x s(u_j)) = a_j + i b_j, j >= 0,
    # and w+, w- the weights of u_j and -u_j, the node sum is
    # sum_j w+_j e_j + w-_j conj(e_j): its real part is the product of the
    # row (a_j, b_j) with conj(w+) + w- taken as pairs of reals, its
    # imaginary part that with i (conj(w+) - w-)
    wp, wm = np.conj(w[:, : _NODES + 1]), w[:, _NODES + 1 :]
    rows_re, rows_im = (wp + wm).view(float), (1j * (wp - wm)).view(float)
    e = work.exp_nodes(x * mu[group])
    # einsum sums each row alike wherever it sits, so values do not
    # depend on the other points of the call
    out = np.einsum("ij,ij->i", e, work.take(rows_re, group)).astype(complex)
    real = (theta == 0) | (np.abs(theta) == np.pi)
    if not real.all():
        out.imag = np.einsum("ij,ij->i", e, work.take(rows_im, group))
    out *= (x * mu[group]) ** (1.0 - beta) * (mu**alpha)[group]
    if live.any():
        i = np.flatnonzero(live[group])
        out[i] += _pole_terms(x[i], beta, poles[group[i]], res[group[i]])
    out.imag[real[group]] = 0.0  # E is real on the real axis; drop rounding
    return out


__all__ = ["mittag_leffler", "ml_array"]
