"""Wall time and error of the stepping oracle as the grid grows.

Two problems from problems/:

* relaxation.json, D_*^(1/2) u + u = 0 with u(0) = 1 on [0, 2], against the
  closed form e^t erfc(sqrt t);
* fourier_diffusion.json, 64 modes, with seeded random initial data so that
  every mode is active, against solve_repr on the same grid.

Each line gives the problem, n, the oracle's wall time (median of
--repeats solves; warm start and main march apart), the steps the warm
start marched, its largest error relative to the peak of the reference,
the number of exponentials per term of the far field on the main grid, and
the main grid's block condition bound and whether its blocks take a second
solve.

    PYTHONPATH=src python scripts/oracle_scaling.py
    PYTHONPATH=src python scripts/oracle_scaling.py --n 256 512 --diffusion-n 256 --repeats 1
"""

import argparse
import dataclasses
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np
from scipy.special import erfc

from fraccauchy import TimeGrid, cli, oracle_caputo, solve_repr

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"


def timed(problem, repeats: int):
    """The last oracle path and the median wall time of `repeats` solves."""
    times = []
    for _ in range(repeats):
        start = perf_counter()
        path = oracle_caputo(problem)
        times.append(perf_counter() - start)
    return path, statistics.median(times)


def report(name: str, n: int, path, seconds: float, ref: np.ndarray) -> None:
    err = np.max(np.abs(path.states - ref)) / np.max(np.abs(ref))
    diag = path.diagnostics
    print(
        f"{name:18s} n = {n:6d}  {seconds:8.3f} s  (warm {diag['warm_s']:.3f}, "
        f"main {diag['main_s']:.3f})  warm_steps {diag['warm_steps']:5d}  "
        f"error {err:.2e}  far_terms {diag['far_terms']}  "
        f"block_kappa {diag['block_kappa']:.3g}  refined {diag['refined']}",
        flush=True,
    )


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--n", type=int, nargs="+", default=[1024, 4096, 16384],
                    help="relaxation grid sizes")
    ap.add_argument("--diffusion-n", type=int, nargs="+", default=[4096],
                    help="fourier_diffusion grid sizes")
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args()

    relax = cli.parse_problem(PROBLEMS / "relaxation.json")
    for n in args.n:
        grid = TimeGrid(relax.grid.t_end, n)
        path, seconds = timed(dataclasses.replace(relax, grid=grid), args.repeats)
        t = grid.nodes
        exact = np.concatenate([[1.0], np.exp(t[1:]) * erfc(np.sqrt(t[1:]))])
        report("relaxation", n, path, seconds, exact[:, None])

    diffusion = cli.parse_problem(PROBLEMS / "fourier_diffusion.json")
    field = np.random.default_rng(args.seed).standard_normal(diffusion.dim)
    for n in args.diffusion_n:
        problem = dataclasses.replace(
            diffusion, initial=[field], grid=TimeGrid(diffusion.grid.t_end, n)
        )
        path, seconds = timed(problem, args.repeats)
        report("fourier_diffusion", n, path, seconds, solve_repr(problem).states)


if __name__ == "__main__":
    main()
