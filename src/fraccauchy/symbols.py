"""Analytic scalar symbols f(z) with exact derivatives and declared domains.

The catalog is closed: polynomial, principal-branch power, exponential, and
rational.  Every kind can report Taylor coefficients at any point of its
domain, which is what the local series route of the operator calculus needs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .special import gamma, rgamma


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
    """Scalar analytic function with exact derivatives of every order."""

    domain: Domain = WholePlane()

    def eval(self, z):
        raise NotImplementedError

    def derivative(self, order: int, z: complex) -> complex:
        """Exact derivative of the given order at z."""
        raise NotImplementedError

    def taylor_coefficients(self, center: complex, count: int) -> np.ndarray:
        """Coefficients f^(n)(center) / n! for n = 0..count-1."""
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

    def derivative(self, order, z):
        c = self.coefficients
        acc = 0.0 + 0.0j
        for k in reversed(range(order, len(c))):
            fall = 1.0
            for i in range(order):
                fall *= k - i
            acc = acc * z + c[k] * fall
        return complex(acc)

    def taylor_coefficients(self, center, count):
        return _shift_poly(self.coefficients, center, count)


def _deflate(coeffs, center):
    """Divide the polynomial by (z - center), dropping the remainder."""
    out = [0.0j] * (len(coeffs) - 1)
    carry = 0.0 + 0.0j
    for k in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[k] + carry * center
        out[k - 1] = carry
    return out


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
        out = complex(self.scale) * np.power(z, self.exponent)
        return out if out.shape else complex(out)

    def derivative(self, order, z):
        p = self.exponent
        coef = self.scale * gamma(p + 1) * rgamma(p - order + 1)
        if coef == 0:
            return 0.0 + 0.0j
        return complex(coef * np.power(complex(z), p - order))

    def taylor_coefficients(self, center, count):
        self.domain.check(center, "expansion point")
        p = self.exponent
        out = np.empty(count, dtype=complex)
        for n in range(count):
            binom = gamma(p + 1) * rgamma(p - n + 1) * rgamma(n + 1)
            out[n] = self.scale * binom * np.power(complex(center), p - n)
        return out


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
        out = complex(self.scale) * np.exp(complex(self.rate) * z)
        return out if out.shape else complex(out)

    def derivative(self, order, z):
        return complex(self.scale * self.rate**order * np.exp(self.rate * complex(z)))

    def taylor_coefficients(self, center, count):
        out = np.empty(count, dtype=complex)
        base = self.scale * np.exp(self.rate * complex(center))
        fact = 1.0
        for n in range(count):
            if n > 0:
                fact *= n
            out[n] = base * self.rate**n / fact
        return out


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

    def derivative(self, order, z):
        coeffs = self.taylor_coefficients(z, order + 1)
        fact = 1.0
        for i in range(1, order + 1):
            fact *= i
        return complex(coeffs[order] * fact)

    def taylor_coefficients(self, center, count):
        self.domain.check(center, "expansion point")
        num = _shift_poly(self.numerator, center, count)
        den = _shift_poly(self.denominator, center, count)
        return _series_divide(num, den, count)


def _shift_poly(coeffs, center, count):
    """Taylor coefficients of the polynomial about the given center."""
    work = list(coeffs)
    out = np.zeros(count, dtype=complex)
    for n in range(count):
        if not work:
            break
        acc = 0.0 + 0.0j
        for c in reversed(work):
            acc = acc * center + c
        out[n] = acc
        work = _deflate(work, center)
    return out


def _series_divide(num, den, count):
    """Power-series division num / den to the given number of terms."""
    if den[0] == 0:
        raise DomainError("expansion point is a pole")
    out = np.zeros(count, dtype=complex)
    for n in range(count):
        acc = num[n] if n < len(num) else 0.0
        for k in range(1, n + 1):
            if k < len(den):
                acc -= den[k] * out[n - k]
        out[n] = acc / den[0]
    return out


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
