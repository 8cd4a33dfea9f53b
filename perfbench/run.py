"""fraccauchy benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the package is imported from `src/` and
the workload is built from the `problems/*.json` templates.  Every route
runs in a closed loop from this one process, one solve after another, with
BLAS and OpenMP held to one thread.  Each solve is checked against an
mpmath reference (see reference.py) and its CSV bytes against the first
pass.  `--trace 0` prints the end-to-end metrics; `--trace 1` runs untraced
and traced passes and prints the per-layer metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import workloads  # noqa: E402  (numpy must see the thread settings)

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
WORK = HERE / ".work"
MIN_PASSES = 3
SETUP_RUNS = 3  # fresh processes whose set-up times give the median
SETUP_N = 8  # time nodes of the cold route calls

END_TO_END_UNITS = {
    "pass_s": "s",
    "long_s": "s",
    "wide_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "digits_long": "digits",
    "digits_wide": "digits",
    "solved_frac": "fraction",
}


def per_layer_unit(name: str) -> str:
    if name == "trace.overhead":
        return "ratio"
    if "us_per_pt" in name:
        return "us/pt"
    if name.endswith("us_per_step"):
        return "us/step"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("calls_per_solve"):
        return "calls/solve"
    if name.endswith("csv_bytes"):
        return "bytes"
    if "max_abs_err" in name:
        return "abs_err"
    if name.endswith("max_rel"):
        return "rel_err"
    return "count"


def _routes():
    from fraccauchy import solver
    from fraccauchy.problems import RIEMANN_LIOUVILLE

    def oracle(problem):
        if problem.flavor == RIEMANN_LIOUVILLE:
            return solver.oracle_rl(problem)
        return solver.oracle_caputo(problem)

    return {
        "repr": solver.solve_repr,
        "homogeneous": solver.solve_homogeneous,
        "duhamel": solver.duhamel_caputo,
        "duhamel-zero": solver.duhamel_caputo_zero,
        "duhamel-integer": solver.duhamel_integer,
        "duhamel-rl": solver.duhamel_rl,
        "oracle": oracle,
    }


# ---------------------------------------------------------------------------
# set-up time


def setup_probe(work: Path, solves) -> float:
    """Import, parse every problem, and call each route once at a tiny n."""
    start = perf_counter()
    import dataclasses

    from fraccauchy import cli
    from fraccauchy.grids import TimeGrid

    routes = _routes()
    problems = {p.stem: cli.parse_problem(p) for p in sorted(work.glob("*.json"))}
    for s in solves:
        problem = problems[s.problem]
        tiny = dataclasses.replace(problem, grid=TimeGrid(problem.grid.t_end, SETUP_N))
        try:
            routes[s.route](tiny)
        except Exception:  # a failing cold call still loads its code; passes report it
            pass
    return perf_counter() - start


def measure_setup(args) -> float:
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--size", args.size]
    times = []
    for _ in range(SETUP_RUNS):
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


# ---------------------------------------------------------------------------
# passes


class Bench:
    def __init__(self, workload, paths, refs):
        from fraccauchy import cli

        self.cli = cli
        self.workload = workload
        self.paths = paths
        self.refs = refs  # problem -> (sample nodes, state-to-spectral map, reference)
        self.routes = _routes()
        self.baseline_csv: dict = {}
        self.failures: dict = {}  # solve -> set of reasons
        self.worst = {"long": None, "wide": None}  # worst error of passing solves
        self.attempted = 0
        self.failed_solves: list = []

    def reset_counts(self) -> None:
        self.attempted = 0
        self.failed_solves = []

    def run_pass(self, tracer=None):
        """One pass over every solve; returns (family -> seconds, total)."""
        parse = self.cli.parse_problem
        write = self.cli.write_csv
        routes = self.routes
        if tracer is not None:
            parse = tracer.wrap(parse, "cli.parse")
            write = tracer.wrap(write, "cli.write")
            routes = {
                name: tracer.wrap(fn, "oracle" if name == "oracle" else f"solver.{name}")
                for name, fn in routes.items()
            }
        problems = {key: parse(path) for key, path in self.paths.items()}
        results = []
        family = {"long": 0.0, "wide": 0.0}
        # no cycle collection inside the timed solves, as timeit does
        gc.collect()
        gc.disable()
        try:
            for s in self.workload.solves:
                start = perf_counter()
                try:
                    out = routes[s.route](problems[s.problem])
                except Exception as exc:  # recorded as a failed solve below
                    out = exc
                elapsed = perf_counter() - start
                family[s.family] += elapsed
                results.append((s, out))
        finally:
            gc.enable()
        for s, out in results:
            self._check(s, out, write, tracer)
        return family, family["long"] + family["wide"]

    def _check(self, s, out, write, tracer) -> None:
        from reference import spectral_error

        self.attempted += 1
        reasons = set()
        if isinstance(out, Exception):
            reasons.add(f"raised {type(out).__name__}: {out}")
        else:
            if tracer is not None and s.route == "oracle":
                tracer.count("oracle.steps", out.grid.n)
                diag = out.diagnostics
                cells, refine = diag.get("warm_cells", 0), diag.get("warm_refine", 0)
                tracer.count("oracle.warm_steps", cells * refine + cells * (refine // 2))
            path = WORK / "csv" / f"{self.workload.name}-{s.problem}-{s.route}.csv"
            path.parent.mkdir(parents=True, exist_ok=True)
            write(path, out)
            data = path.read_bytes()
            if tracer is not None:
                tracer.count("cli.csv_bytes", len(data))
            if self.baseline_csv.setdefault(s, data) != data:
                reasons.add("CSV bytes differ between passes")
            index, to_spec, ref = self.refs[s.problem]
            err = spectral_error(out.states[index] @ to_spec.T, ref)
            tol = workloads.TOLERANCE[s.route]
            if not err <= tol:
                reasons.add(f"max-relative error {err:.3e} above {tol:g}")
            elif not reasons:
                self.worst[s.family] = max(self.worst[s.family] or 0.0, err)
        if reasons:
            self.failures.setdefault(s, set()).update(reasons)
            self.failed_solves.append(s)


def _median_passes(bench, seconds: float, tracer=None):
    family_times = {"long": [], "wide": []}
    totals = []
    layers = []
    deadline = perf_counter() + seconds
    while len(totals) < MIN_PASSES or perf_counter() < deadline:
        if tracer is not None:
            tracer.reset()
        family, total = bench.run_pass(tracer)
        totals.append(total)
        for key in family_times:
            family_times[key].append(family[key])
        if tracer is not None:
            layers.append(tracer.layer_metrics(len(bench.workload.solves)))
    return totals, family_times, layers


# ---------------------------------------------------------------------------
# main


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: seconds-long inputs for the smoke check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse_args(argv)
    src = ROOT / "src"
    if not (src / "fraccauchy" / "__init__.py").is_file() or not (ROOT / "problems").is_dir():
        print(f"run from the root of a fraccauchy checkout: {ROOT} has no "
              "src/fraccauchy or problems/", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.build(ROOT, args.workload, args.seed, args.size)
    work = WORK / f"{args.workload}-{args.seed}-{args.size}"
    if args.setup_probe:
        print(setup_probe(work, workload.solves))
        return 0

    paths = workload.write(work)
    setup_s = measure_setup(args)

    import fraccauchy
    from reference import ReferenceCache, spectral_map

    if not Path(fraccauchy.__file__).resolve().is_relative_to(src.resolve()):
        print(f"fraccauchy imported from {fraccauchy.__file__}, not {src}", file=sys.stderr)
        return 2
    cache = ReferenceCache(WORK / "reference")
    refs = {}
    for key, doc in workload.problems.items():
        n, t_end = doc["grid"]["n"], doc["grid"]["t_end"]
        index = [round(f * n) for f in workloads.SAMPLE_FRACTIONS]
        ref = cache.solution(doc, [t_end * i / n for i in index])
        refs[key] = (index, spectral_map(doc), ref)

    bench = Bench(workload, paths, refs)
    bench.run_pass()  # warm-up: lazy caches, and the CSV bytes later passes must match
    warm_failed = list(bench.failed_solves)
    bench.reset_counts()

    result: dict = {}
    if args.trace == 0:
        totals, family_times, _ = _median_passes(bench, args.seconds)
        print("pass seconds: " + " ".join(f"{t:.3f}" for t in totals), file=sys.stderr)
        result = {
            "pass_s": statistics.median(totals),
            "long_s": statistics.median(family_times["long"]),
            "wide_s": statistics.median(family_times["wide"]),
            "setup_s": setup_s,
        }
    else:
        from probes import kernels_probe, ml_probe
        from spans import Tracer

        plain, _, _ = _median_passes(bench, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _, layers = _median_passes(bench, args.seconds / 2, tracer)
        finally:
            tracer.remove()
        result = {name: statistics.median(p[name] for p in layers) for name in layers[0]}
        result["trace.overhead"] = statistics.median(traced) / statistics.median(plain)
        result.update(ml_probe(cache))
        result.update(kernels_probe(cache))

    failed = len(bench.failed_solves)
    attempted = bench.attempted
    if args.trace == 0:
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        for fam in ("long", "wide"):
            worst = bench.worst[fam]
            print(f"worst error of passing {fam} solves: {worst}", file=sys.stderr)
            if worst is None:  # no solve of the family passed
                result[f"digits_{fam}"] = 0.0
            else:  # an exact answer counts as full double precision
                result[f"digits_{fam}"] = -math.log10(max(worst, 1e-17))
        result["solved_frac"] = 1.0 - failed / attempted

    def known(s) -> bool:
        return (workload.name, s.problem, s.route) in workloads.KNOWN_DEFECTS

    for s, reasons in bench.failures.items():
        for reason in sorted(reasons):
            print(f"{'known defect' if known(s) else 'FAILED'}: {s.name}: {reason}",
                  file=sys.stderr)
    units = END_TO_END_UNITS if args.trace == 0 else None
    metrics = {
        name: {"value": float(value),
               "unit": units[name] if units else per_layer_unit(name)}
        for name, value in result.items()
    }
    print(json.dumps({
        "correct": all(known(s) for s in bench.failed_solves + warm_failed),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
