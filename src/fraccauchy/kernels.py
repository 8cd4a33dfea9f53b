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
    Delta_ik = g (n/t_i)^mu w_k^mu + sum_j c_j f_j(z) (n/t_i)^(alpha_j) w_k^(alpha_j),

with every complex power and exponential taken once per node, Delta a sum
of real-by-complex outer products, and the node sum one matrix-vector
product.  Times go through in blocks of `_TIME_BLOCK`, which bounds the
size of each (times x nodes) temporary whatever the length of the time
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import rgamma

from .errors import BlowupError, DomainError, InversionError, OrderDomainError
from .ml import ml_array
from .operators import SpectralOperator
from .symbols import SymbolFunction

__all__ = [
    "Atom",
    "OrderMeasure",
    "TalbotContour",
    "char_eval",
    "c_beta",
    "c_beta_path",
    "solution_symbol",
    "solution_symbol_path",
    "apply_solution_operator",
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
            return np.ones(np.shape(z), dtype=complex) if np.ndim(z) else 1.0 + 0.0j
        return self.leading_symbol.eval(z)

    def atom_values(self, z: complex) -> list:
        """(alpha_j, c_j f_j(z)) pairs for a fixed spectral point."""
        return [(a.alpha, a.weight * complex(a.symbol.eval(z))) for a in self.atoms]


def char_eval(measure: OrderMeasure, s, z: complex):
    """Characteristic function Delta(s, z) with principal-branch powers.

    Accepts a scalar or an array of Laplace abscissas s with Re(s) > 0.
    """
    s_arr = np.asarray(s, dtype=complex)
    if np.any(s_arr.real <= 0):
        raise DomainError("characteristic function needs Re(s) > 0")
    acc = s_arr**measure.mu * measure.leading(complex(z))
    for alpha_j, w in measure.atom_values(complex(z)):
        acc = acc + w * s_arr**alpha_j
    if np.ndim(s) == 0:
        return complex(acc)
    return acc


@dataclass(frozen=True)
class TalbotContour:
    """Modified Talbot contour; parameters rescale with 1/t per evaluation.

    The nodes at time t are the fixed shape w(theta_k) scaled by n/t, which
    is what lets `c_beta_path` invert at many times with one shape (see the
    module docstring).
    """

    n_nodes: int = 48

    def __post_init__(self):
        if self.n_nodes < 16 or self.n_nodes % 2:
            raise OrderDomainError("node count must be even and at least 16")

    def _shape(self):
        """Unscaled shape w(theta) and w'(theta) at midpoint angles."""
        n = self.n_nodes
        theta = (np.arange(n) + 0.5) * (2 * np.pi / n) - np.pi
        # optimized Talbot constants (sigma, mu, nu, b)
        sg, mu_, nu_, b_ = 0.61220, 0.50174, 0.64070, 0.26450
        nt = nu_ * theta
        cot = np.cos(nt) / np.sin(nt)
        w = -sg + mu_ * theta * cot + 1j * b_ * theta
        dw = mu_ * (cot - nt / np.sin(nt) ** 2) + 1j * b_
        return w, dw

    def nodes(self, t: float):
        """Contour points s(theta) and s'(theta) at midpoint angles."""
        w, dw = self._shape()
        scale = self.n_nodes / t
        return scale * w, scale * dw


_DEFAULT_CONTOUR = TalbotContour()
_TIME_BLOCK = 512  # times per (times x nodes) block of the contour inversion


def _fast_path(measure: OrderMeasure) -> bool:
    return len(measure.atoms) <= 1


def c_beta_path(
    measure: OrderMeasure,
    beta: float,
    t: np.ndarray,
    z: complex,
    contour: TalbotContour | None = None,
) -> np.ndarray:
    """c_beta(t, z) on an array of positive times.

    Measures with two or more atoms invert on the contour for all times at
    once, in blocks of `_TIME_BLOCK` times; `InversionError` names the first
    time, in input order, at which |Delta| falls below 1e-8 on a node.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0):
        raise DomainError("kernel times must be positive")
    if beta >= measure.mu:
        raise OrderDomainError(
            f"kernel exponent must lie below the leading order {measure.mu}, "
            f"got {beta}"
        )
    mu = measure.mu
    g = complex(measure.leading(complex(z)))
    if g == 0:
        raise DomainError("leading symbol vanishes at the spectral point")
    if _fast_path(measure):
        pairs = measure.atom_values(complex(z))
        if pairs:
            alpha_j, w = pairs[0]
            rho = mu - alpha_j
            e = ml_array(rho, mu - beta, -(w / g) * t**rho)
        else:
            e = np.full(t.shape, rgamma(mu - beta), dtype=complex)
        return t ** (mu - beta - 1.0) * e / g
    contour = contour or _DEFAULT_CONTOUR
    n = contour.n_nodes
    w, dw = contour._shape()
    e = np.exp(n * w) * w**beta * dw / (1j * n)
    # (order, symbol-weighted power of the shape) for each term of Delta
    terms = [(mu, g * w**mu)]
    terms += [(a, c * w**a) for a, c in measure.atom_values(complex(z))]
    flat_t = t.reshape(-1)
    out = np.empty(flat_t.shape, dtype=complex)
    for start in range(0, flat_t.size, _TIME_BLOCK):
        tb = flat_t[start : start + _TIME_BLOCK]
        scale = n / tb
        delta = 0.0
        for a, cw in terms:
            delta = delta + np.multiply.outer(scale**a, cw)
        low = np.abs(delta).min(axis=1)
        if np.any(low < 1e-8):
            i = int(np.argmax(low < 1e-8))
            raise InversionError(
                f"characteristic function dips to |Delta| = {low[i]:.2e} on "
                f"the inversion contour at t = {float(tb[i])}; a zero near or "
                "right of the contour makes the result unreliable"
            )
        # einsum sums each row alike wherever it sits, so results do not
        # depend on how the times are split into calls or blocks
        node_sum = np.einsum("ik,k->i", 1.0 / delta, e)
        out[start : start + _TIME_BLOCK] = scale ** (beta + 1.0) * node_sum
    return out.reshape(t.shape)


def c_beta(
    measure: OrderMeasure,
    beta: float,
    t: float,
    z: complex,
    contour: TalbotContour | None = None,
) -> complex:
    """Kernel c_beta(t, z), the inverse transform of s^beta / Delta(s, z).

    Single-atom measures use the closed Mittag-Leffler form
    t^(mu-beta-1) E_{mu-a, mu-beta}(-w t^(mu-a)); anything else inverts on
    the Talbot contour.
    """
    return complex(c_beta_path(measure, beta, np.array([t]), z, contour)[0])


def _included_atoms(measure: OrderMeasure, k: int) -> list:
    """Atoms contributing to the k-th solution symbol: strictly alpha > k."""
    return [a for a in measure.atoms if a.alpha > k]


def solution_symbol_path(
    measure: OrderMeasure,
    k: int,
    t: np.ndarray,
    z: complex,
    contour: TalbotContour | None = None,
) -> np.ndarray:
    """S_k(t, z) on an array of positive times.

    Raises BlowupError, naming z and the first time in input order, where
    the symbol is not finite: growth spectra overflow the kernel.
    """
    m = measure.m
    if not 0 <= k <= m - 1:
        raise OrderDomainError(f"datum index must lie in 0..{m - 1}, got {k}")
    g = complex(measure.leading(complex(z)))
    acc = g * c_beta_path(measure, measure.mu - k - 1.0, t, z, contour)
    for a in _included_atoms(measure, k):
        w = a.weight * complex(a.symbol.eval(complex(z)))
        if w == 0:
            continue
        acc = acc + w * c_beta_path(measure, a.alpha - k - 1.0, t, z, contour)
    bad = np.flatnonzero(~np.isfinite(acc))
    if bad.size:
        raise BlowupError(
            f"solution symbol S_{k}(t, z) is not finite at t = "
            f"{float(np.ravel(t)[bad[0]])} for z = {complex(z)}; the kernel "
            "overflows on this spectrum"
        )
    return acc


def solution_symbol(
    measure: OrderMeasure,
    k: int,
    t: float,
    z: complex,
    contour: TalbotContour | None = None,
) -> complex:
    """Scalar symbol of the operator mapping the k-th datum into the solution.

    S_k(t, z) = g(z) c_{mu-k-1}(t, z) + sum over atoms with alpha_j > k of
    c_j f_j(z) c_{alpha_j-k-1}(t, z); atoms exactly at the integer k feed
    only lower data indices.
    """
    return complex(solution_symbol_path(measure, k, np.array([t]), z, contour)[0])


def apply_solution_operator(
    measure: OrderMeasure,
    k: int,
    t: float,
    op: SpectralOperator,
    phi: np.ndarray,
    contour: TalbotContour | None = None,
) -> np.ndarray:
    """S_k(t, A) phi through the spectral decomposition of the operator."""
    if t == 0:
        return op.check_vector(phi) if k == 0 else np.zeros(op.dimension, complex)
    _check_spectrum_in_domains(measure, op)
    w = op.to_spectral(op.check_vector(phi))
    lam = op.spectrum()
    out = np.zeros(op.dimension, dtype=complex)
    # only components with nonzero amplitude are evaluated
    for i in np.flatnonzero(np.abs(w) > 1e-14 * max(1.0, float(np.max(np.abs(w))))):
        out[i] = solution_symbol(measure, k, t, lam[i], contour) * w[i]
    return op.from_spectral(out)


def _check_spectrum_in_domains(measure: OrderMeasure, op: SpectralOperator) -> None:
    spectrum = op.spectrum()
    symbols = [a.symbol for a in measure.atoms]
    if measure.leading_symbol is not None:
        symbols.append(measure.leading_symbol)
    for f in symbols:
        for lam in spectrum:
            if not f.domain.contains(lam):
                raise DomainError(
                    f"eigenvalue {lam} lies outside the symbol domain {f.domain}"
                )
