"""Two-parameter Mittag-Leffler function E_{alpha,beta}(z).

Evaluation has two paths, chosen per point by x = |z|**(1/alpha):

* x <= 4: the defining power series in double precision.  Its largest term
  stays below e^4, so cancellation costs at most about 1e-14.
* x > 4: the inverse Laplace transform of s^(alpha-beta) / (s^alpha - z) at
  t = 1, by the trapezoidal rule on Garrappa's optimal parabolic contour
  s(u) = mu (1 + iu)^2 (Garrappa, SIAM J. Numer. Anal. 53, 2015), plus the
  residues (1/alpha) s*^(1-beta) exp(s*) of the poles right of it.

The transform is singular at the origin and at the poles
s* = |z|^(1/alpha) exp(i (arg z + 2 pi k) / alpha) with
|arg z + 2 pi k| <= alpha pi.  Sorted by phi(s*) = (Re s* + |s*|) / 2, the
abscissa of the parabola through s*, they split the plane into regions; each
point takes (mu, h, N) from the region that needs the fewest nodes at
tolerance 1e-15, relaxed tenfold while that count exceeds 200.  The node
sums of all points form one ragged array, in blocks of `_POINT_BLOCK` points.

Target accuracy: 1e-10 for alpha in [0.25, 2] and |z| <= 50, absolute where
|E| <= 1 and relative above, Stokes rays |arg z| = alpha pi included.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import rgamma

from .errors import DomainError

_SERIES_CUT = 4.0  # largest x = |z|^(1/alpha) summed by the series
_MAX_TERMS = 20000
_POINT_BLOCK = 512  # points per ragged node array of the contour inversion
_LOG_EPS = math.log(np.finfo(float).eps)
_LOG_TOL = math.log(1e-15)
_MAX_N = 200  # largest N (2N + 1 nodes) before the tolerance relaxes tenfold


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
    near = np.abs(flat) ** (1.0 / alpha) <= _SERIES_CUT
    if np.any(near):
        out[near] = _series(alpha, beta, flat[near])
    far = np.flatnonzero(~near & np.isfinite(flat))
    for start in range(0, far.size, _POINT_BLOCK):
        idx = far[start : start + _POINT_BLOCK]
        out[idx] = _contour(alpha, beta, flat[idx])
    return out.reshape(z.shape)


def _series(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Power series for |z|**(1/alpha) <= 4."""
    x = float(np.max(np.abs(z))) ** (1.0 / alpha)
    k_peak = int(x / alpha) + 1
    acc = np.zeros_like(z)
    pw = np.ones_like(z)
    for k in range(_MAX_TERMS):
        term = pw * rgamma(alpha * k + beta)
        acc += term
        if k > k_peak and float(np.max(np.abs(term))) < 1e-18:
            break
        pw *= z
    return acc


def _contour(alpha: float, beta: float, z: np.ndarray) -> np.ndarray:
    """Parabolic-contour inversion at t = 1 plus residues, one point per z."""
    n = z.size
    # every pole index k that some argument in (-pi, pi] admits
    k = np.arange(math.ceil(-(alpha + 1) / 2), math.floor((alpha + 1) / 2) + 1)
    ang = np.angle(z)[:, None] + 2 * np.pi * k
    poles = np.abs(z)[:, None] ** (1.0 / alpha) * np.exp(1j * ang / alpha)
    phi = (poles.real + np.abs(poles)) / 2
    # poles off the principal sheet, or on the branch cut, take no part
    phi[(np.abs(ang) > alpha * np.pi) | (phi <= 1e-15)] = np.inf
    order = np.argsort(phi, axis=1)
    phi = np.take_along_axis(phi, order, axis=1)
    poles = np.take_along_axis(poles, order, axis=1)
    # region j runs from singularity j to j + 1: origin, sorted poles, infinity
    lo = np.concatenate([np.zeros((n, 1)), phi], axis=1)
    hi = np.concatenate([phi, np.full((n, 1), np.inf)], axis=1)
    # singularity strength: simple poles, and s^(alpha-beta) at the origin
    strength = np.ones(lo.shape)
    strength[:, 0] = max(0.0, 2.0 * (beta - alpha - 1.0))

    mu, h = np.empty(n), np.empty(n)
    nodes, region = np.empty(n, dtype=np.int64), np.empty(n, dtype=np.int64)
    log_tol = np.full(n, _LOG_TOL)
    todo = np.arange(n)
    while todo.size:
        mu_r, h_r, n_r = _regions(lo[todo], hi[todo], strength[todo], log_tol[todo])
        rows = np.arange(todo.size)
        best = np.argmin(n_r, axis=1)
        done = n_r[rows, best] <= _MAX_N
        pick, i = (rows[done], best[done]), todo[done]
        mu[i], h[i], nodes[i], region[i] = mu_r[pick], h_r[pick], n_r[pick], best[done]
        log_tol[todo[~done]] += math.log(10.0)
        todo = todo[~done]

    # each point's own 2N + 1 nodes u = h k, k = -N..N, as one ragged array
    counts = 2 * nodes + 1
    owner = np.repeat(np.arange(n), counts)
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - nodes - 1, counts)
    u = h[owner] * k
    s = mu[owner] * (1.0 + 1j * u) ** 2
    ds = 2.0 * mu[owner] * (1j - u)
    log_s = np.log(s)
    f = np.exp(s + (alpha - beta) * log_s) / (np.exp(alpha * log_s) - z[owner]) * ds
    total = np.bincount(owner, f.real, n) + 1j * np.bincount(owner, f.imag, n)
    out = h * total / (2j * np.pi)

    right = np.isfinite(phi) & (np.arange(phi.shape[1]) >= region[:, None])
    residues = np.zeros(phi.shape, dtype=complex)
    # e^(s*) overflows on growth spectra; the caller sees the non-finite value
    with np.errstate(over="ignore", invalid="ignore"):
        residues[right] = poles[right] ** (1.0 - beta) * np.exp(poles[right]) / alpha
    out += residues.sum(axis=1)
    out.imag[z.imag == 0] = 0.0  # E is real on the real axis; drop rounding
    return out


def _regions(lo, hi, strength, log_tol):
    """(mu, h, N) per point and region; N = inf where a region is inadmissible.

    A region is admissible when it is nonempty and starts left of the
    round-off bound log_tol - log(eps).
    """
    tol = np.broadcast_to(log_tol[:, None], lo.shape)
    mu, h, n = np.zeros(lo.shape), np.zeros(lo.shape), np.full(lo.shape, np.inf)
    ok = (lo < tol - _LOG_EPS) & (lo < hi)
    for mask, rule in ((ok & np.isfinite(hi), _bounded), (ok & np.isinf(hi), _unbounded)):
        mu[mask], h[mask], n[mask] = rule(lo[mask], hi[mask], strength[mask], tol[mask])
    return mu, h, n


def _bounded(lo, hi, p, log_tol):
    """Garrappa's parameters for a region between two singularities.

    p is the strength of the left singularity; the right one is a simple
    pole.  p = 0 happens only at the origin, where Garrappa's rule reduces
    to the general one with fp = 0 and w = 0.
    """
    f_max = np.exp(log_tol - _LOG_EPS)
    sq_lo = np.sqrt(lo)
    sq_hi = np.minimum(np.sqrt(hi), 2 * np.sqrt(log_tol - _LOG_EPS) - sq_lo)
    pos = p > 0
    f_min = np.full(lo.shape, 1.01)
    f_min[pos] = np.maximum(
        1.01 * (sq_lo + sq_hi)[pos] / (sq_hi - sq_lo)[pos] ** np.maximum(p[pos], 1.0), 1.5
    )
    mu, h, n = np.zeros(lo.shape), np.zeros(lo.shape), np.full(lo.shape, np.inf)
    fits = f_min < f_max  # regions too narrow for the tolerance keep N = inf
    hi, p, log_tol, sq_lo, sq_hi, f_min, f_max, pos = (
        v[fits] for v in (hi, p, log_tol, sq_lo, sq_hi, f_min, f_max, pos)
    )
    f_bar = f_min * (2.0 - f_min / f_max)
    fp = np.zeros(f_bar.shape)
    fp[pos] = f_bar[pos] ** (-1.0 / p[pos])
    fq = 1.0 / f_bar
    w = np.where(pos, -hi / log_tol, 0.0)
    den = 2 + w - (1 + w) * fp + fq
    sq_bar_lo = ((2 + w + fq) * sq_lo + fp * sq_hi) / den
    sq_bar_hi = (-(1 + w) * fq * sq_lo + (2 + w - (1 + w) * fp) * sq_hi) / den
    log_e = log_tol - np.log(f_bar)
    w = -(sq_bar_hi**2) / log_e
    mu[fits] = (((1 + w) * sq_bar_lo + sq_bar_hi) / (2 + w)) ** 2
    h[fits] = -2 * np.pi / log_e * (sq_bar_hi - sq_bar_lo) / ((1 + w) * sq_bar_lo + sq_bar_hi)
    n[fits] = np.ceil(np.sqrt(1 - log_e / mu[fits]) / h[fits])
    return mu, h, n


def _unbounded(lo, hi, p, log_tol):
    """Garrappa's parameters for the region right of the last singularity."""
    sq_lo = np.sqrt(lo)
    sq_bar = np.sqrt(np.where(lo > 0, 1.01 * lo, 0.01))
    n, a, sq_mu = np.empty(lo.shape), np.empty(lo.shape), np.empty(lo.shape)
    shrink = np.zeros(lo.shape)  # f_target^(-1/p), f_target = 5
    shrink[p > 0] = 5.0 ** (-1.0 / p[p > 0])
    todo = np.arange(lo.size)
    while todo.size:
        phi_t = sq_bar[todo] ** 2
        ratio = log_tol[todo] / phi_t
        n[todo] = np.ceil(phi_t / np.pi * (1 - 1.5 * ratio + np.sqrt(1 - 2 * ratio)))
        a[todo] = np.pi * n[todo] / phi_t
        sq_mu[todo] = (
            sq_bar[todo] * np.abs(4 - a[todo]) / np.abs(7 - np.sqrt(1 + 12 * a[todo]))
        )
        f_bar = ((sq_bar[todo] - sq_lo[todo]) / sq_mu[todo]) ** -p[todo]
        todo = todo[(p[todo] > 0) & ((f_bar <= 1) | (f_bar >= 10))]
        sq_bar[todo] = shrink[todo] * sq_mu[todo] + sq_lo[todo]
    mu = sq_mu**2
    h = (-3 * a - 2 + 2 * np.sqrt(1 + 12 * a)) / (4 - a) / n
    # keep the largest node exponential, e^mu, within the round-off budget
    bound = log_tol - _LOG_EPS
    big = mu > bound
    phi_bar = (shrink * sq_mu + sq_lo) ** 2
    fix = big & (phi_bar < bound)
    w = np.sqrt(_LOG_EPS / (_LOG_EPS - log_tol[fix]))
    v = np.sqrt(-phi_bar[fix] / _LOG_EPS)
    mu[fix] = bound[fix]
    n[fix] = np.ceil(w * log_tol[fix] / (2 * np.pi * (v * w - 1)))
    h[fix] = w / n[fix]
    n[big & ~fix] = np.inf
    return mu, h, n


__all__ = ["mittag_leffler", "ml_array"]
