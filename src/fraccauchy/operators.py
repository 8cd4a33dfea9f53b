"""Concrete operators: dense matrices and Fourier multipliers.

Matrices are applied through their eigensystem (with a conditioning check on
the eigenvector basis), Fourier multipliers act mode-wise on periodic grids.
Both map batches of states into and out of their spectral coordinates, where
the solution routes act on each eigenvalue alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError, DomainError


class SpectralOperator:
    """Either a matrix with a known eigensystem or a Fourier multiplier."""

    dimension: int

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
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

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

    def eigensystem(self):
        """(eigenvalues, P, P^-1) with max |P P^-1 - I| below 1e-10.

        Defective matrices can produce an invertible-looking basis that still
        fails to reconstruct A, so the diagonalization residual is checked as
        well; the spectral routes cannot use such an operator.  The check
        runs on first use, also for a basis given to `from_eigensystem`; a
        triple that passed it is kept, and one that failed fails every call.
        """
        if self._checked:
            return self._eig
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
                f"{resid:.2e}, reconstruction residual {recon:.2e}); the spectral "
                "routes cannot use this operator"
            )
        self._checked = True
        return lam, p, pinv

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
    def grid_points(self) -> np.ndarray:
        return np.arange(self.modes) * self.length / self.modes

    @property
    def dimension(self) -> int:
        return self.modes

    def to_spectral(self, v: np.ndarray) -> np.ndarray:
        """Mode amplitudes of states shaped (..., dim), FFT along the last axis."""
        return np.fft.fft(self.check_states(v))

    def from_spectral(self, w: np.ndarray) -> np.ndarray:
        """States of mode amplitudes shaped (..., dim), inverse FFT on the last axis."""
        return np.fft.ifft(self.check_states(w))


__all__ = [
    "SpectralOperator",
    "MatrixOperator",
    "FourierMultiplier",
]
