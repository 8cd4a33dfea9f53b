"""Cauchy-problem containers, the spectrum and flavor checks that every
route and oracle shares, solution paths, and path comparison."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import FlavorError, GridMismatchError, PreconditionError
from .grids import TimeGrid, require_same_grid
from .kernels import OrderMeasure
from .operators import FourierMultiplier, MatrixOperator, SpectralOperator
from .profiles import FunctionSpec

CAPUTO = "caputo"
RIEMANN_LIOUVILLE = "riemann_liouville"


@dataclass
class Forcing:
    """Separable forcing h(t) = profile(t) * direction."""

    profile: FunctionSpec
    direction: np.ndarray

    def __post_init__(self):
        self.direction = np.asarray(self.direction, dtype=complex)


@dataclass
class CauchyProblem:
    """Operator, order measure, initial data, forcing, and grid."""

    operator: SpectralOperator
    measure: OrderMeasure
    initial: list
    forcing: Forcing | None
    grid: TimeGrid
    flavor: str = CAPUTO

    def __post_init__(self):
        if self.flavor not in (CAPUTO, RIEMANN_LIOUVILLE):
            raise FlavorError(f"unknown flavor {self.flavor!r}")
        dim = self.operator.dimension
        self.initial = [np.asarray(v, dtype=complex) for v in self.initial]
        for k, v in enumerate(self.initial):
            if v.shape != (dim,):
                raise PreconditionError(
                    f"initial vector {k} has shape {v.shape}, expected ({dim},)"
                )
        if self.flavor == CAPUTO:
            if len(self.initial) != self.measure.m:
                raise PreconditionError(
                    f"caputo flavor needs m = {self.measure.m} initial vectors, "
                    f"got {len(self.initial)}"
                )
        else:
            if not 0 < self.measure.mu < 1:
                raise FlavorError(
                    "riemann_liouville flavor requires a leading order in (0, 1)"
                )
            if self.measure.leading_symbol is not None:
                raise FlavorError(
                    "riemann_liouville flavor does not accept a leading symbol"
                )
            if len(self.initial) != 1:
                raise PreconditionError(
                    "riemann_liouville flavor carries one weighted initial datum"
                )
        if self.forcing is not None and self.forcing.direction.shape != (dim,):
            raise PreconditionError(
                f"forcing direction has shape {self.forcing.direction.shape}, "
                f"expected ({dim},)"
            )

    @property
    def dim(self) -> int:
        return self.operator.dimension

    def forcing_or_zero(self) -> Forcing | None:
        if self.forcing is None:
            return None
        prof = self.forcing.profile
        vals = np.asarray(prof.eval(np.array([0.0, self.grid.t_end / 2])))
        if np.all(vals == 0) and np.all(self.forcing.direction == 0):
            return None
        return self.forcing


def _spectrum(problem: CauchyProblem) -> np.ndarray:
    """Eigenvalues in the order of the operator's spectral coordinates.

    Every route and oracle takes its eigenvalues here, so each rejects an
    eigenvalue outside the domain of one of the measure's symbols.
    """
    op = problem.operator
    if isinstance(op, FourierMultiplier):
        lam = op.symbol_values
    else:
        assert isinstance(op, MatrixOperator)
        lam = op.eigensystem()[0]
    measure = problem.measure
    symbols = [a.symbol for a in measure.atoms]
    if measure.leading_symbol is not None:
        symbols.append(measure.leading_symbol)
    for f in symbols:
        domain = f.domain
        for z in lam.tolist():
            domain.check(z, "eigenvalue")
    return lam


def _require_caputo(problem: CauchyProblem, route: str) -> None:
    if problem.flavor != CAPUTO:
        raise FlavorError(f"{route} requires the caputo flavor")


@dataclass
class SolutionPath:
    """States on the grid nodes plus the route tag and diagnostics."""

    grid: TimeGrid
    states: np.ndarray = field(repr=False)
    method: str = ""
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        self.states = np.asarray(self.states, dtype=complex)
        if self.states.ndim == 1:
            self.states = self.states[:, None]
        if self.states.shape[0] != self.grid.n + 1:
            raise GridMismatchError(
                f"path has {self.states.shape[0]} states for "
                f"{self.grid.n + 1} nodes"
            )

    @property
    def dim(self) -> int:
        return self.states.shape[1]


@dataclass(frozen=True)
class ErrorReport:
    """Norms of the difference between two paths over nodes >= i_min."""

    max_abs: float
    max_rel: float
    l2: float
    node_of_max: int
    i_min: int

    def __str__(self) -> str:
        return (
            f"max_abs={self.max_abs:.3e} max_rel={self.max_rel:.3e} "
            f"l2={self.l2:.3e} at node {self.node_of_max} (i >= {self.i_min})"
        )


def compare(a: SolutionPath, b: SolutionPath, skip_initial: int = 1) -> ErrorReport:
    """Componentwise error norms of a - b over the nodes from skip_initial
    on; the relative denominator is guarded below by 1e-12.  Skipping every
    node raises PreconditionError."""
    require_same_grid(a.grid, b.grid)
    if a.states.shape != b.states.shape:
        raise GridMismatchError(
            f"state shapes differ: {a.states.shape} vs {b.states.shape}"
        )
    i0 = max(0, int(skip_initial))
    if i0 > a.grid.n:
        raise PreconditionError(
            f"skip_initial = {skip_initial} leaves none of the {a.grid.n + 1} nodes to compare"
        )
    diff = np.abs(a.states[i0:] - b.states[i0:])
    denom = np.maximum(np.abs(b.states[i0:]), 1e-12)
    l2 = float(np.sqrt(a.grid.h * np.sum(diff**2)))
    node = int(np.argmax(np.max(diff, axis=1))) + i0
    return ErrorReport(float(np.max(diff)), float(np.max(diff / denom)), l2, node, i0)


__all__ = [
    "CAPUTO",
    "RIEMANN_LIOUVILLE",
    "Forcing",
    "CauchyProblem",
    "SolutionPath",
    "ErrorReport",
    "compare",
]
