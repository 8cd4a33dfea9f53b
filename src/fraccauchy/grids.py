"""Uniform time grids and grid-indexed scalar paths."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid on [0, t_end] with n intervals and n + 1 read-only nodes."""

    t_end: float
    n: int

    def __post_init__(self):
        if not self.t_end > 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if int(self.n) != self.n or self.n < 2:
            raise ValueError(f"n must be an integer >= 2, got {self.n}")
        object.__setattr__(self, "n", int(self.n))

    @property
    def h(self) -> float:
        return self.t_end / self.n

    @cached_property
    def nodes(self) -> np.ndarray:
        nodes = np.linspace(0.0, self.t_end, self.n + 1)
        nodes.flags.writeable = False
        return nodes


@dataclass
class ScalarPath:
    """Complex scalar samples attached to the nodes of a grid."""

    grid: TimeGrid
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.grid.n + 1,):
            raise GridMismatchError(
                f"path has {self.values.shape[0]} values for a grid "
                f"with {self.grid.n + 1} nodes"
            )

    def __len__(self) -> int:
        return len(self.values)


def require_same_grid(a: TimeGrid, b: TimeGrid) -> None:
    if a.n != b.n or abs(a.t_end - b.t_end) > 1e-14 * max(a.t_end, b.t_end):
        raise GridMismatchError(f"grids differ: {a} vs {b}")
