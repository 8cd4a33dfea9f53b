"""Analytic scalar symbols f(z) with declared domains.

The catalog is closed: polynomial, principal-branch power, exponential, and
rational.  The routes evaluate a symbol on the spectrum of the operator and
check each eigenvalue against the symbol's domain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError


# ---------------------------------------------------------------------------
# analyticity domains


class Domain:
    """Region of the complex plane on which a symbol is analytic."""

    def contains(self, z: complex) -> bool:
        raise NotImplementedError

    def check(self, z: complex, what: str = "point") -> None:
        if not self.contains(z):
            raise DomainError(f"{what} {z} lies outside the domain {self}")


@dataclass(frozen=True)
class WholePlane(Domain):
    def contains(self, z: complex) -> bool:
        return True

    def __str__(self) -> str:
        return "C"


@dataclass(frozen=True)
class SlitPlane(Domain):
    """The plane minus the branch cut (-inf, 0] on the negative real axis."""

    def contains(self, z: complex) -> bool:
        z = complex(z)
        return not (z.real <= 0 and z.imag == 0)

    def __str__(self) -> str:
        return "C minus (-inf, 0]"


@dataclass(frozen=True)
class PlaneMinusPoles(Domain):
    poles: tuple
    margin: float = 1e-9

    def contains(self, z: complex) -> bool:
        return all(abs(z - p) > self.margin for p in self.poles)

    def __str__(self) -> str:
        return f"C minus poles {list(self.poles)}"


# ---------------------------------------------------------------------------
# symbol kinds


class SymbolFunction:
    """Scalar analytic function on its domain."""

    domain: Domain = WholePlane()

    def eval(self, z):
        raise NotImplementedError


@dataclass(frozen=True)
class PolynomialSymbol(SymbolFunction):
    """Ascending coefficients c0 + c1 z + c2 z^2 + ...; entire."""

    coefficients: tuple

    def __init__(self, coefficients):
        object.__setattr__(
            self, "coefficients", tuple(complex(c) for c in coefficients)
        )

    @property
    def domain(self) -> Domain:
        return WholePlane()

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        acc = np.zeros(z.shape, dtype=complex)
        for c in reversed(self.coefficients):
            acc = acc * z + c
        return acc if acc.shape else complex(acc)


@dataclass(frozen=True)
class PowerSymbol(SymbolFunction):
    """scale * z**exponent on the principal branch (cut on (-inf, 0])."""

    exponent: float
    scale: complex = 1.0

    @property
    def domain(self) -> Domain:
        if self.exponent == round(self.exponent) and self.exponent >= 0:
            return WholePlane()
        return SlitPlane()

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        # out of place, as `profiles._scaled` explains
        out = np.multiply(complex(self.scale), np.power(z, self.exponent))
        return out if out.shape else complex(out)


@dataclass(frozen=True)
class ExponentialSymbol(SymbolFunction):
    """scale * exp(rate * z); entire."""

    rate: complex = 1.0
    scale: complex = 1.0

    @property
    def domain(self) -> Domain:
        return WholePlane()

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        # out of place, as `profiles._scaled` explains
        out = np.multiply(complex(self.scale), np.exp(complex(self.rate) * z))
        return out if out.shape else complex(out)


@dataclass(frozen=True)
class RationalSymbol(SymbolFunction):
    """P(z) / Q(z) with ascending coefficient tuples; poles stored explicitly."""

    numerator: tuple
    denominator: tuple

    def __init__(self, numerator, denominator):
        num = tuple(complex(c) for c in numerator)
        den = tuple(complex(c) for c in denominator)
        if not any(c != 0 for c in den):
            raise ValueError("denominator must be nonzero")
        object.__setattr__(self, "numerator", num)
        object.__setattr__(self, "denominator", den)

    @property
    def poles(self) -> tuple:
        den = np.trim_zeros(np.asarray(self.denominator, dtype=complex), "b")
        if len(den) <= 1:
            return ()
        return tuple(np.roots(den[::-1]))

    @property
    def domain(self) -> Domain:
        poles = self.poles
        return PlaneMinusPoles(poles) if poles else WholePlane()

    def eval(self, z):
        z = np.asarray(z, dtype=complex)
        num = np.zeros(z.shape, dtype=complex)
        for c in reversed(self.numerator):
            num = num * z + c
        den = np.zeros(z.shape, dtype=complex)
        for c in reversed(self.denominator):
            den = den * z + c
        out = num / den
        return out if out.shape else complex(out)


def identity_symbol() -> PolynomialSymbol:
    """The symbol f(z) = z."""
    return PolynomialSymbol((0.0, 1.0))


__all__ = [
    "Domain",
    "WholePlane",
    "SlitPlane",
    "PlaneMinusPoles",
    "SymbolFunction",
    "PolynomialSymbol",
    "PowerSymbol",
    "ExponentialSymbol",
    "RationalSymbol",
    "identity_symbol",
]
