"""Concrete operators and three routes for evaluating f(A).

Matrices are applied through their eigensystem (with a conditioning check on
the eigenvector basis), Fourier multipliers act mode-wise on periodic grids.
f(A) can be formed spectrally, by a local Taylor series around one
eigenvalue, or by a resolvent contour integral; the three routes are meant
to cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, ContourError, DomainError, LocalityError, PreconditionError
from .symbols import SymbolFunction


class SpectralOperator:
    """Either a matrix with a known eigensystem or a Fourier multiplier."""

    dimension: int

    def spectrum(self) -> np.ndarray:
        raise NotImplementedError

    def apply(self, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def check_vector(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape != (self.dimension,):
            raise DomainError(
                f"state has shape {v.shape}, operator needs ({self.dimension},)"
            )
        return v

    def check_states(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=complex)
        if v.shape[-1:] != (self.dimension,):
            raise DomainError(
                f"states have shape {v.shape}, operator needs (..., {self.dimension})"
            )
        return v


@dataclass
class MatrixOperator(SpectralOperator):
    """Dense matrix; spectral applications require a well-conditioned basis."""

    matrix: np.ndarray = field(repr=False)
    _eig: tuple | None = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        self.matrix = np.asarray(self.matrix, dtype=complex)
        if self.matrix.ndim != 2 or self.matrix.shape[0] != self.matrix.shape[1]:
            raise ValueError("operator matrix must be square")

    @classmethod
    def from_eigensystem(cls, eigenvalues, eigenvectors) -> "MatrixOperator":
        lam = np.asarray(eigenvalues, dtype=complex)
        p = np.asarray(eigenvectors, dtype=complex)
        pinv = np.linalg.inv(p)
        op = cls(p @ np.diag(lam) @ pinv)
        op._eig = (lam, p, pinv)
        return op

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def spectrum(self) -> np.ndarray:
        try:
            lam, _, _ = self.eigensystem()
        except CapabilityError:
            lam = np.linalg.eigvals(self.matrix)
        return lam

    def eigensystem(self):
        """(eigenvalues, P, P^-1) with max |P P^-1 - I| below 1e-10.

        Defective matrices can produce an invertible-looking basis that still
        fails to reconstruct A, so the diagonalization residual is checked as
        well; such operators are only usable through the Taylor route.
        """
        if self._eig is None:
            lam, p = np.linalg.eig(self.matrix)
            try:
                pinv = np.linalg.inv(p)
            except np.linalg.LinAlgError as exc:
                raise CapabilityError("eigenvector basis is singular") from exc
            self._eig = (lam, p, pinv)
        lam, p, pinv = self._eig
        resid = np.max(np.abs(p @ pinv - np.eye(self.dimension)))
        scale = 1.0 + np.max(np.abs(self.matrix))
        recon = np.max(np.abs(p @ (lam[:, None] * pinv) - self.matrix))
        if resid >= 1e-10 or recon > 1e-8 * scale:
            raise CapabilityError(
                f"eigenvector basis too ill-conditioned (identity residual "
                f"{resid:.2e}, reconstruction residual {recon:.2e}); only the "
                "Taylor route supports this operator"
            )
        return lam, p, pinv

    def apply(self, v: np.ndarray) -> np.ndarray:
        return self.matrix @ self.check_vector(v)

    def to_spectral(self, v: np.ndarray) -> np.ndarray:
        """Eigenbasis coordinates P^-1 v of states shaped (..., dim).

        The broadcast mat-vec gives every state the same bits as ``pinv @ v``.
        """
        _, _, pinv = self.eigensystem()
        return (pinv @ self.check_states(v)[..., None])[..., 0]

    def from_spectral(self, w: np.ndarray) -> np.ndarray:
        """States P w of eigenbasis coordinates shaped (..., dim)."""
        _, p, _ = self.eigensystem()
        return (p @ self.check_states(w)[..., None])[..., 0]


@dataclass
class FourierMultiplier(SpectralOperator):
    """Operator diagonal in the Fourier basis of a periodic grid.

    ``symbol_values`` holds a(xi_j) in FFT ordering for the integer-indexed
    frequencies xi_j = 2 pi j / length; states are physical samples at
    x_k = k length / modes.
    """

    modes: int
    length: float
    symbol_values: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.modes < 2:
            raise ValueError("need at least two modes")
        self.symbol_values = np.asarray(self.symbol_values, dtype=complex)
        if self.symbol_values.shape != (self.modes,):
            raise ValueError("need one symbol value per mode")
        if not np.all(np.isfinite(self.symbol_values)):
            raise ValueError("symbol values must be finite")

    @classmethod
    def from_callable(cls, a, modes: int, length: float = 2 * np.pi):
        xi = cls.frequencies_static(modes, length)
        vals = np.asarray([a(x) for x in xi], dtype=complex)
        return cls(modes, length, vals)

    @staticmethod
    def frequencies_static(modes: int, length: float) -> np.ndarray:
        return 2 * np.pi * np.fft.fftfreq(modes, d=length / modes)

    @property
    def frequencies(self) -> np.ndarray:
        return FourierMultiplier.frequencies_static(self.modes, self.length)

    @property
    def grid_points(self) -> np.ndarray:
        return np.arange(self.modes) * self.length / self.modes

    @property
    def dimension(self) -> int:
        return self.modes

    def spectrum(self) -> np.ndarray:
        return self.symbol_values.copy()

    def apply(self, v: np.ndarray) -> np.ndarray:
        vhat = np.fft.fft(self.check_vector(v))
        return np.fft.ifft(self.symbol_values * vhat)

    def to_spectral(self, v: np.ndarray) -> np.ndarray:
        """Mode amplitudes of states shaped (..., dim), FFT along the last axis."""
        return np.fft.fft(self.check_states(v))

    def from_spectral(self, w: np.ndarray) -> np.ndarray:
        """States of mode amplitudes shaped (..., dim), inverse FFT on the last axis."""
        return np.fft.ifft(self.check_states(w))


# ---------------------------------------------------------------------------
# the three evaluation routes


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
        return np.fft.ifft(fa * np.fft.fft(op.check_vector(v)))
    lam, p, pinv = op.eigensystem()
    fa = _checked_values(f, lam)
    return p @ (fa * (pinv @ op.check_vector(v)))


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
    u = op.check_vector(u)
    coeffs = f.taylor_coefficients(lam, n_max + 1)
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
    v = op.check_vector(v)
    lam = op.spectrum()
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


__all__ = [
    "SpectralOperator",
    "MatrixOperator",
    "FourierMultiplier",
    "apply_symbol_spectral",
    "apply_symbol_taylor",
    "apply_symbol_contour",
]
