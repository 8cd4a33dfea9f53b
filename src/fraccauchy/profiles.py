"""Scalar time profiles with exact derivatives.

The analytic kinds (constant, power, polynomial, exponential, sine, cosine)
carry closed-form derivatives of every order; the sampled kind supports at
most two numerical derivatives, taken with second-order finite differences.
Power profiles accept any exponent p > -1 so that integrable singularities
at t = 0 can be fed to the fractional-integral machinery; their derivatives
are valid for t > 0 only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapabilityError
from .grids import ScalarPath


class FunctionSpec:
    """A scalar function of time from a closed catalog of kinds."""

    #: number of derivatives the profile can supply (np.inf for analytic kinds)
    max_derivatives: float = np.inf

    def eval(self, t):
        raise NotImplementedError

    def diff(self) -> "FunctionSpec":
        raise NotImplementedError

    def derivative(self, order: int) -> "FunctionSpec":
        if order < 0:
            raise ValueError("derivative order must be >= 0")
        if order > self.max_derivatives:
            raise CapabilityError(
                f"{type(self).__name__} supplies at most "
                f"{self.max_derivatives} derivatives, {order} requested"
            )
        f = self
        for _ in range(order):
            f = f.diff()
        return f

    @property
    def singular_at_zero(self) -> bool:
        return False


@dataclass(frozen=True)
class Constant(FunctionSpec):
    value: complex = 1.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return np.full(t.shape, complex(self.value))

    def diff(self):
        return Constant(0.0)


@dataclass(frozen=True)
class Power(FunctionSpec):
    """scale * t**exponent with real exponent > -1."""

    exponent: float
    scale: complex = 1.0

    def __post_init__(self):
        if self.exponent <= -1:
            raise CapabilityError(
                f"power exponent must exceed -1 for integrability, got {self.exponent}"
            )

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(
                t > 0,
                np.power(t, self.exponent, where=t > 0, out=np.zeros_like(t)),
                _power_at_zero(self.exponent),
            )
            return _scaled(self.scale, out.astype(complex))

    def diff(self):
        p = self.exponent
        if p == 0:
            return Constant(0.0)
        return Power(p - 1, self.scale * p)

    @property
    def singular_at_zero(self) -> bool:
        return self.exponent < 0


def _scaled(scale: complex, values: np.ndarray) -> np.ndarray:
    """scale * values, formed out of place.  numpy computes `*` on a large
    temporary in place (temporary elision, above 256 KB), and its in-place
    complex product rounds differently, so a value would depend on the
    length of the array it was evaluated in."""
    return np.multiply(complex(scale), values)


def _power_at_zero(p: float) -> float:
    if p > 0:
        return 0.0
    if p == 0:
        return 1.0
    return np.inf


@dataclass(frozen=True)
class Polynomial(FunctionSpec):
    """Coefficients in ascending order: c0 + c1 t + c2 t**2 + ..."""

    coefficients: tuple

    def __init__(self, coefficients):
        object.__setattr__(self, "coefficients", tuple(complex(c) for c in coefficients))

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        acc = np.zeros(t.shape, dtype=complex)
        for c in reversed(self.coefficients):
            acc = acc * t + c
        return acc

    def diff(self):
        c = self.coefficients
        if len(c) <= 1:
            return Constant(0.0)
        return Polynomial([k * c[k] for k in range(1, len(c))])


@dataclass(frozen=True)
class Exponential(FunctionSpec):
    """scale * exp(rate * t)."""

    rate: complex
    scale: complex = 1.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return _scaled(self.scale, np.exp(complex(self.rate) * t))

    def diff(self):
        return Exponential(self.rate, self.scale * self.rate)


@dataclass(frozen=True)
class Sine(FunctionSpec):
    """scale * sin(frequency * t)."""

    frequency: complex = 1.0
    scale: complex = 1.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return _scaled(self.scale, np.sin(complex(self.frequency) * t))

    def diff(self):
        return Cosine(self.frequency, self.scale * self.frequency)


@dataclass(frozen=True)
class Cosine(FunctionSpec):
    """scale * cos(frequency * t)."""

    frequency: complex = 1.0
    scale: complex = 1.0

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        return _scaled(self.scale, np.cos(complex(self.frequency) * t))

    def diff(self):
        return Sine(self.frequency, -self.scale * self.frequency)


@dataclass
class Sampled(FunctionSpec):
    """Node samples on a grid; evaluation interpolates linearly.

    Each numerical differentiation costs one order of accuracy, so at most
    two are allowed.
    """

    path: ScalarPath
    numeric_order: int = field(default=0)

    @property
    def max_derivatives(self) -> float:
        return 2 - self.numeric_order

    def eval(self, t):
        t = np.asarray(t, dtype=float)
        nodes = self.path.grid.nodes
        vals = self.path.values
        re = np.interp(t, nodes, vals.real)
        im = np.interp(t, nodes, vals.imag)
        return re + 1j * im

    def diff(self):
        if self.numeric_order >= 2:
            raise CapabilityError("sampled profiles support at most two derivatives")
        d = _first_difference(self.path.values, self.path.grid.h)
        return Sampled(ScalarPath(self.path.grid, d), self.numeric_order + 1)


def _first_difference(values: np.ndarray, h: float) -> np.ndarray:
    """First derivative of uniformly spaced samples, O(h^2) stencils."""
    u = np.asarray(values, dtype=complex)
    d = np.empty_like(u)
    d[1:-1] = (u[2:] - u[:-2]) / (2 * h)
    d[0] = (-3 * u[0] + 4 * u[1] - u[2]) / (2 * h)
    d[-1] = (3 * u[-1] - 4 * u[-2] + u[-3]) / (2 * h)
    return d


__all__ = [
    "FunctionSpec",
    "Constant",
    "Power",
    "Polynomial",
    "Exponential",
    "Sine",
    "Cosine",
    "Sampled",
]
