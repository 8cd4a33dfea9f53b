"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

Evaluation has two paths, chosen per point by x = |z|**(1/alpha):

* x <= 4: the defining power series in double precision.  Its largest term
  stays below e^4, so cancellation costs at most about 1e-14.
* x > 4: E = x^(1-beta) f(x), where f is the inverse Laplace transform of
  F(s) = s^(alpha-beta) / (s^alpha - e^(i theta)), theta = arg z, taken by
  the trapezoidal rule on a parabola s(u) = mu (1 + iu)^2 (Weideman &
  Trefethen, Math. Comp. 76, 2007), plus the residues of F's poles
  (Garrappa, SIAM J. Numer. Anal. 53, 2015).

F depends on the argument alone, so one contour serves a window of x on a
ray (as for real arguments in Garrappa & Popolizio, Adv. Comput. Math. 39,
2013).  Points are grouped by their exact argument and by the window
4^k <= x < 4^(k+1) of a fixed lattice; a group takes mu = 1.3 / 4^k and the
nodes u = 0.15 j, |j| <= 32, so the transform is evaluated once per group
and each point's node sum is one row of a (points x nodes) product.  The
exponents x s = (1.3 x / 4^k) (1 + iu)^2 depend on x / 4^k alone.  On real
rays the nodes u < 0 mirror u > 0, which halves them.

The poles s* = e^(i (theta + 2 pi k) / alpha), |theta + 2 pi k| < alpha pi,
lie on |s| = 1.  Each adds (1/alpha) s*^(1-beta) e^(x s*) to f at every x.
A pole less than 4 below the window's parabola in Im u, or left of it, also
has its principal part subtracted from F at the nodes, so the rule
integrates a function smooth in its strip; every node lies at least 0.03
off |s| = 1, which bounds the cancellation of that subtraction.  Poles on
the branch cut (Stokes rays) stay in F, like the branch point.

A value depends only on its own point: the same argument gives the same
bits whatever other points share the call or how a caller splits them.  On
the series path each point stops on its own, and on the contour path each
point's node sum is its own row.  Finite arguments whose x overflows (alpha
< 1) take the algebraic asymptotic series -sum_{k<=3} z^(-k) /
Gamma(beta - alpha k) where no pole term e^(x s*) with Re s* >= 0 lives, and
are nan otherwise.

Accuracy, absolute where |E| <= 1 and relative above: 1e-10 for alpha in
[0.25, 2] and |z| <= 50, Stokes rays included, and 1e-12 on the kernel rays
of alpha in {1/2, 1, 3/2, 2} (decaying, advection, Stokes and growth
directions, x up to 1e16), both against mpmath references.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError
from .special import rgamma

_SERIES_CUT = 4.0  # largest x = |z|^(1/alpha) summed by the series
_MAX_TERMS = 20000
_MU, _STEP, _NODES = 1.3, 0.15, 32  # mu 4^k, node step h and N of the contours
_POINT_BLOCK = 1024  # points per contour call, which holds (points x nodes) arrays


def mittag_leffler(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) = sum_k z^k / Gamma(alpha k + beta)."""
    return complex(ml_array(alpha, beta, np.array([z]))[0])


def ml_array(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Vectorized E_{alpha,beta} over an array of arguments; nan where z is not finite."""
    if alpha <= 0:
        raise DomainError(f"first parameter must be positive, got {alpha}")
    alpha, beta = float(alpha), float(beta)
    z = np.asarray(z, dtype=complex)
    flat = z.reshape(-1)
    out = np.full(flat.shape, np.nan, dtype=complex)
    with np.errstate(over="ignore"):  # x overflows for huge |z| and alpha < 1
        x = np.abs(flat) ** (1.0 / alpha)
    near = x <= _SERIES_CUT
    if np.any(near):
        out[near] = _series(alpha, beta, flat[near])
    far = np.flatnonzero(~near & np.isfinite(x))
    for start in range(0, far.size, _POINT_BLOCK):
        idx = far[start : start + _POINT_BLOCK]
        out[idx] = _contour(alpha, beta, flat[idx])
    huge = np.flatnonzero(np.isinf(x) & np.isfinite(flat))
    if huge.size:
        out[huge] = _algebraic(alpha, beta, flat[huge])
    return out.reshape(z.shape)


def _series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Power series for |z|**(1/alpha) <= 4.

    Each point stops on its own, at the first k > floor(x / alpha) + 1 whose
    term is below 1e-18, and the stopped points leave the working set once they
    are half of it.  Powers go into a second buffer, never in place (numpy
    rounds an in-place complex product on a length-1 array differently), so
    a point's sum does not depend on the other points of the call.
    """
    k_peak = np.floor(np.abs(z) ** (1.0 / alpha) / alpha) + 1
    out = np.empty_like(z)
    idx = np.arange(z.size)  # the working set
    live = np.ones(z.size, dtype=bool)  # its points that have not stopped
    left = z.size
    acc, pw, nxt = np.zeros_like(z), np.ones_like(z), np.empty_like(z)
    first = k_peak.min()
    for k in range(_MAX_TERMS):
        term = pw * rgamma(alpha * k + beta)
        acc += term
        if k > first:
            hit = np.flatnonzero((np.abs(term) < 1e-18) & (k > k_peak) & live)
            if hit.size:
                out[idx[hit]] = acc[hit]
                live[hit] = False
                left -= hit.size
                if not left:
                    return out
                if 2 * left <= live.size:
                    idx, acc, pw, z, k_peak = (a[live] for a in (idx, acc, pw, z, k_peak))
                    live, nxt = np.ones(left, dtype=bool), np.empty_like(z)
        np.multiply(pw, z, out=nxt)
        pw, nxt = nxt, pw
    out[idx[live]] = acc[live]
    return out


def _algebraic(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E where x = |z|^(1/alpha) overflows although z is finite (alpha < 1).

    Without a pole term, e^(x s*) with Re s* >= 0, E is its algebraic
    asymptotic series -sum_{k=1}^{3} z^(-k) / Gamma(beta - alpha k), whose
    next term is below |z|^-4; with one, E is not finite and stays nan.
    """
    theta = np.angle(z)
    r = 1.0 / z
    out = -(r * rgamma(beta - alpha) + r * r * rgamma(beta - 2 * alpha))
    out = out - r * r * r * rgamma(beta - 3 * alpha)
    # alpha < 1 leaves one candidate pole, s* = e^(i theta / alpha)
    return np.where(np.abs(theta) <= alpha * np.pi / 2, np.nan, out)


def _contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """E at |z|**(1/alpha) > 4: one contour per argument and window of x."""
    x = np.abs(z) ** (1.0 / alpha)
    # window 4^k <= x < 4^(k+1), read off the binary exponent so no rounding moves a point
    x0 = np.ldexp(1.0, 2 * ((np.frexp(x)[1] - 1) // 2))
    keys, group = np.unique(x0 + 1j * np.angle(z), return_inverse=True)
    theta, mu = keys.imag, _MU / keys.real
    # the transform's simple poles on the principal sheet, all on |s| = 1
    k = np.arange(math.ceil(-(alpha + 1) / 2), math.floor((alpha + 1) / 2) + 1)
    ang = theta[:, None] + 2 * np.pi * k
    poles = np.exp(1j * ang / alpha)
    # poles on the branch cut (Stokes rays) stay in the transform, like the
    # origin; the others become residue 0 at s* = -1, where e^(x s*) is finite
    live = (np.abs(ang) <= alpha * np.pi) & (poles.real > 2e-15 - 1)
    poles[~live] = -1.0
    res = np.where(live, poles ** (1.0 - beta) / alpha, 0.0)
    out = np.zeros(z.shape, dtype=complex)
    if live.any():
        with np.errstate(over="ignore", invalid="ignore"):  # e^(x s*) overflows on growth rays
            out = np.einsum("ij,ij->i", np.exp(x[:, None] * poles[group]), res[group])
    # x s = tau (1 + iu)^2: a point's exponents depend on its window alone;
    # on real rays the nodes u < 0 mirror u > 0, so u >= 0 and the real part do
    tau = x * mu[group]
    real = (theta == 0) | (np.abs(theta) == np.pi)
    for half in (True, False):
        g = np.flatnonzero(real == half)
        if not g.size:
            continue
        i = np.flatnonzero(real[group] == half)
        u = _STEP * np.arange(0 if half else -_NODES, _NODES + 1)
        shape, m = (1.0 + 1j * u) ** 2, mu[g, None]
        f = m ** (alpha - beta) * shape ** (alpha - beta)
        f /= m**alpha * shape**alpha - np.exp(1j * theta[g, None])
        # poles less than 4 below the contour in Im u (the parabola through
        # s* crosses the real axis at (1 + Re s*) / 2 < 25 mu) lose their
        # principal part: what the rule integrates is smooth in its strip
        near = np.where((1.0 + poles[g].real) / 2 < 25.0 * m, res[g], 0.0)
        f -= np.einsum("gj,gkj->gk", near, 1.0 / ((m * shape)[:, :, None] - poles[g, None, :]))
        w = _STEP / (2j * np.pi) * f * 2.0 * m * (1j - u)
        e = _exp_nodes(tau[i])
        if half:
            w[:, 1:] *= 2.0
        else:
            e = np.concatenate([e[:, :0:-1].conj(), e], axis=1)
        # einsum sums each row alike wherever it sits, so values do not
        # depend on the other points of the call
        out[i] += np.einsum("ik,ik->i", e, w[np.searchsorted(g, group[i])])
    with np.errstate(over="ignore", invalid="ignore"):
        out *= x ** (1.0 - beta)
    out.imag[real[group]] = 0.0  # E is real on the real axis; drop rounding
    return out


def _exp_nodes(tau: np.ndarray) -> np.ndarray:
    """e^(tau (1 + iu)^2) at the nodes u = h k, k = 0..N, for each tau.

    The phases e^(2i tau h k) are products of e^(2i tau h 2^b) over the bits
    b of k, so sines and cosines are taken at 6 points, not 33.
    """
    a = 2.0 * _STEP * tau
    e = np.empty((tau.size, _NODES + 1), dtype=complex)
    e[:, 0] = 1.0
    n = 1
    while n <= _NODES:  # the phases of k = n..2n-1 from those of k = 0..n-1
        m = min(n, _NODES + 1 - n)
        np.multiply(e[:, :m], np.exp(1j * n * a)[:, None], out=e[:, n : n + m])
        n *= 2
    e *= np.exp(np.multiply.outer(tau, 1.0 - (_STEP * np.arange(_NODES + 1)) ** 2))
    return e


__all__ = ["mittag_leffler", "ml_array"]
