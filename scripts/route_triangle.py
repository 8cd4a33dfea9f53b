"""Refinement study of the three solution routes on a two-term benchmark.

The system carries a leading order 1.5 plus an atom of order 0.5 with the
half-weighted identity symbol, a 2 x 2 operator with eigenvalues {1, 2},
and the forcing cos 3t.  The Duhamel route integrates linear forcing
exactly, so with f = t it would show no quadrature error at all; cos 3t
gives its product rule a second-order error to resolve.  The columns are
max-relative differences between the routes, plus `duhamel n/2`, the
change of the Duhamel route from the grid of n / 2 cells at its nodes
relative to the peak, which falls fourfold per doubling.  repr's cell
rule is far more accurate than that here, so the repr-duhamel column
shows the Duhamel route's own error and falls fourfold too; the columns
against the oracle show the oracle's own error.

    PYTHONPATH=src python scripts/route_triangle.py [--sizes 256 512 ...]
"""

import argparse

import numpy as np

from fraccauchy import (
    Atom,
    CauchyProblem,
    Cosine,
    Forcing,
    MatrixOperator,
    OrderMeasure,
    TimeGrid,
    compare,
    duhamel_caputo,
    identity_symbol,
    oracle_caputo,
    solve_repr,
)


def benchmark(n: int) -> CauchyProblem:
    rng = np.random.default_rng(3)
    p = rng.normal(size=(2, 2)) + np.eye(2)
    op = MatrixOperator.from_eigensystem([1.0, 2.0], p)
    measure = OrderMeasure(1.5, (Atom(0.5, 0.5, identity_symbol()),))
    return CauchyProblem(
        op,
        measure,
        [np.zeros(2), np.zeros(2)],
        Forcing(Cosine(3.0), np.array([1.0, 0.5])),
        TimeGrid(1.0, n),
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", type=int, nargs="+", default=[256, 512, 1024, 2048])
    args = ap.parse_args()

    print(
        f"{'n':>6} {'repr-duhamel':>14} {'repr-oracle':>13} "
        f"{'duhamel-oracle':>16} {'duhamel n/2':>13}"
    )
    coarse = {}
    for n in args.sizes:
        prob = benchmark(n)
        a = solve_repr(prob)
        b = duhamel_caputo(prob)
        c = oracle_caputo(prob)
        half = coarse.get(n // 2)
        step = np.nan
        if half is not None:
            step = np.max(np.abs(b.states[::2] - half)) / np.max(np.abs(b.states))
        coarse[n] = b.states
        print(
            f"{n:6d} {compare(a, b).max_rel:14.3e} "
            f"{compare(a, c).max_rel:13.3e} {compare(b, c).max_rel:16.3e} {step:13.3e}"
        )


if __name__ == "__main__":
    main()
