"""Seeded workload generation: problem JSON built from the `problems/` templates.

Each workload has a *long* family (few spectral components, many time
nodes) and a *wide* family (a Fourier multiplier with many modes, few time
nodes).  Inputs depend only on the workload name, the seed and the size, so
the same seed always gives the same problem files.
"""

from __future__ import annotations

import copy
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

WORKLOADS = ("closed-form", "contour", "stepping")

# Time-node counts and mode counts per family.  "full" is what the benchmark
# measures; "tiny" only exercises every code path for the smoke check.
SIZES = {
    "full": {
        "closed-form": {"long_n": 64, "wide_n": 32, "modes": 128},
        "contour": {"long_n": 64, "wide_n": 32, "modes": 32},
        "stepping": {"long_n": 512, "wide_n": 512, "modes": 128},
    },
    "tiny": {
        "closed-form": {"long_n": 32, "wide_n": 16, "modes": 8},
        "contour": {"long_n": 16, "wide_n": 8, "modes": 8},
        "stepping": {"long_n": 64, "wide_n": 32, "modes": 8},
    },
}

# Largest accepted error against the reference, per route: the worst
# spectral component's deviation over the sample times, relative to the
# largest component.  Each sits about ten times above the worst error seen
# over seeds 1-10, so whether a solve passes does not depend on the seed.
TOLERANCE = {
    "repr": 1e-4,
    "homogeneous": 1e-8,
    "duhamel": 1e-1,
    "duhamel-zero": 2e-3,
    "duhamel-integer": 3e-3,
    "duhamel-rl": 1e-3,
    "oracle": 2e-2,
}

# Solves that fail on purpose: defects the benchmark must keep visible.
# They count in `failed` and in `solved_frac` like any other failure, but do
# not make the run incorrect.
KNOWN_DEFECTS = {
    ("contour", "split_atom", "repr"): (
        "two half atoms at order 0 force the Talbot contour, which misses the "
        "pole of 1/Delta at s = 4 for lambda = -2 (ROADMAP item 1)"
    ),
    ("closed-form", "rl_single", "duhamel-rl"): (
        "the Neumann series sum_k (-b)^k J^(alpha (k+1)) h cancels "
        "catastrophically for b above about 10 and returns values near 1e80"
    ),
}

# Fractions of t_end at which every solve is checked against the reference.
SAMPLE_FRACTIONS = (0.125, 0.25, 0.5, 1.0)


@dataclass(frozen=True)
class Solve:
    family: str  # "long" or "wide"
    problem: str  # key into Workload.problems
    route: str  # key of the route table in run.py

    @property
    def name(self) -> str:
        return f"{self.problem}/{self.route}"


@dataclass
class Workload:
    name: str
    problems: dict  # problem key -> JSON document
    solves: list

    def write(self, directory: Path) -> dict:
        """Write every problem document; returns problem key -> path."""
        directory.mkdir(parents=True, exist_ok=True)
        paths = {}
        for key, doc in self.problems.items():
            path = directory / f"{key}.json"
            text = json.dumps(doc, sort_keys=True)
            if not path.exists() or path.read_text(encoding="utf-8") != text:
                path.write_text(text, encoding="utf-8")
            paths[key] = path
        return paths


def _template(root: Path, name: str) -> dict:
    return json.loads((root / "problems" / f"{name}.json").read_text(encoding="utf-8"))


def _pairs(values) -> list:
    return [[float(np.real(v)), float(np.imag(v))] for v in np.asarray(values).ravel()]


def _spectrum(rng, count: int, lo: float = 0.1, hi: float = 100.0) -> np.ndarray:
    """Eigenvalues spread log-uniformly over [lo, hi], one per stratum.

    Each draw is log-uniform in a narrow stratum (a tenth of its share of
    the range) centred on a log-lattice over [lo, hi].  Independent draws
    over the whole range made the cost of one pass vary fourfold between
    seeds, because the slow Mittag-Leffler bands are entered only above a
    sharp eigenvalue threshold; the narrow strata keep the range covered
    and the cost of a pass steady.
    """
    width = (np.log(hi) - np.log(lo)) / count
    centres = np.log(lo) + width * (np.arange(count) + 0.5)
    return rng.permutation(np.exp(centres + width * 0.1 * (rng.random(count) - 0.5)))


def _matrix(rng, eigenvalues):
    """Real matrix P diag(eigenvalues) P^-1 with a well-conditioned basis, and
    a sampler of states whose coefficients in that basis are all +-1.

    P has unit columns, so every spectral component carries the same weight
    whatever the seed: the spectral error then depends on the eigenvalues
    alone and stays steady across seeds.
    """
    d = len(eigenvalues)
    while True:
        p = np.eye(d) + 0.4 * rng.standard_normal((d, d))
        p /= np.linalg.norm(p, axis=0)
        if np.linalg.cond(p) < 5.0:
            break
    mat = p @ np.diag(eigenvalues) @ np.linalg.inv(p)
    operator = {"type": "matrix", "data": {"matrix": [[float(v) for v in row] for row in mat]}}
    return operator, lambda: [float(v) for v in p @ rng.choice((-1.0, 1.0), d)]


def _field(rng, modes: int, weights) -> list:
    """Periodic samples whose Fourier coefficients have the given magnitudes
    and random phases."""
    phase = np.exp(2j * np.pi * rng.random(modes))
    return _pairs(np.fft.ifft(weights * phase))


def _smooth(modes: int, decay: float) -> np.ndarray:
    return modes * np.exp(-np.abs(np.fft.fftfreq(modes, d=1.0 / modes)) / decay)


def _low(modes: int, kmax: int) -> np.ndarray:
    return modes * (np.abs(np.fft.fftfreq(modes, d=1.0 / modes)) <= kmax).astype(float)


def _with(doc: dict, n: int, **fields) -> dict:
    out = copy.deepcopy(doc)
    out["grid"]["n"] = n
    out.update(fields)
    return out


def _identity_atom(alpha: float, weight: float) -> dict:
    return {"alpha": alpha, "weight": weight, "symbol": {"kind": "identity"}}


def _fourier(modes: int, length: float, coefficients: list) -> dict:
    return {
        "type": "fourier",
        "data": {
            "modes": modes,
            "length": length,
            "symbol": {"kind": "polynomial", "coefficients": coefficients},
        },
    }


def build(root: Path, name: str, seed: int, size: str = "full") -> Workload:
    """Problem documents and solve list of one workload."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    rng = np.random.default_rng([seed, WORKLOADS.index(name)])
    dims = SIZES[size][name]
    ln, wn, modes = dims["long_n"], dims["wide_n"], dims["modes"]
    relax = _template(root, "relaxation")
    relax_forced = _template(root, "relaxation_forced")
    multi = _template(root, "multiterm_2x2")
    rl = _template(root, "rl_single")
    fourier = _template(root, "fourier_diffusion")
    ramp = {"profile": {"kind": "polynomial", "coefficients": [0.0, 1.0]}}
    problems: dict = {}
    solves: list = []

    def add(family: str, key: str, doc: dict, routes) -> None:
        problems[key] = doc
        solves.extend(Solve(family, key, r) for r in routes)

    if name == "closed-form":
        op, vec = _matrix(rng, _spectrum(rng, 4))
        add("long", "relax_data", _with(relax, ln, operator=op, initial=[vec()]),
            ("repr", "homogeneous"))
        op, vec = _matrix(rng, _spectrum(rng, 4))
        add("long", "relax_forced", _with(
            relax_forced, ln, operator=op, initial=[[0.0] * 4],
            forcing={"profile": relax_forced["forcing"]["profile"], "direction": vec()}),
            ("repr", "duhamel"))
        op, vec = _matrix(rng, _spectrum(rng, 2))
        add("long", "multiterm", _with(multi, ln, operator=op,
                                       forcing=dict(ramp, direction=vec())),
            ("repr", "duhamel", "duhamel-zero"))
        op, vec = _matrix(rng, _spectrum(rng, 2))
        add("long", "rl_single", _with(
            rl, ln, operator=op, initial=[[0.0, 0.0]],
            forcing={"profile": rl["forcing"]["profile"], "direction": vec()}),
            ("duhamel-rl",))
        op, vec = _matrix(rng, _spectrum(rng, 2))
        oscillator = _with(multi, ln, operator=op, forcing=dict(ramp, direction=vec()))
        oscillator["measure"] = {"mu": 2.0, "atoms": [_identity_atom(0.0, 1.0)]}
        add("long", "integer", oscillator, ("duhamel-integer",))
        # advection-diffusion k^2 + i k: a complex spectrum over many modes
        wide = _with(
            fourier, wn, operator=_fourier(modes, 2 * np.pi, [0.0, [0.0, 1.0], 1.0]),
            initial=[_field(rng, modes, _smooth(modes, 12.0))],
            forcing={"profile": {"kind": "constant", "value": 1.0},
                     "direction": _field(rng, modes, _low(modes, 3))})
        wide["measure"]["atoms"][0]["symbol"] = {"kind": "identity"}
        add("wide", "advection", wide, ("repr",))

    elif name == "contour":
        two_atom = {"mu": 1.8, "atoms": [_identity_atom(0.0, 0.7),
                                        _identity_atom(0.7, 0.4)]}
        op, vec = _matrix(rng, _spectrum(rng, 2))
        data = _with(multi, ln, operator=op, initial=[vec(), vec()], forcing=None)
        data["measure"] = two_atom
        add("long", "two_atom_data", data, ("homogeneous",))
        op, vec = _matrix(rng, _spectrum(rng, 2))
        forced = _with(multi, ln, operator=op, forcing=dict(ramp, direction=vec()))
        forced["measure"] = two_atom
        add("long", "two_atom_forced", forced, ("repr", "duhamel"))
        # the single atom (0, 1) split into two equal halves: same problem,
        # but the kernel now runs on the contour
        op, vec = _matrix(rng, [-2.0, _spectrum(rng, 1)[0]])
        split = _with(relax, ln, operator=op, initial=[vec()])
        split["measure"] = {"mu": 0.5, "atoms": [_identity_atom(0.0, 0.5),
                                                 _identity_atom(0.0, 0.5)]}
        add("long", "split_atom", split, ("repr",))
        # diffusion on a long period keeps the spectrum in [0, 100], where
        # the zeros of Delta stay inside the contour
        wide = _with(fourier, wn,
                     operator=_fourier(modes, 2 * np.pi * modes / 20.0, [0.0, 0.0, 1.0]),
                     initial=[_field(rng, modes, _smooth(modes, 8.0)),
                              _field(rng, modes, _smooth(modes, 8.0))])
        wide["measure"] = two_atom
        add("wide", "diffusion", wide, ("repr",))

    else:  # stepping
        op, vec = _matrix(rng, _spectrum(rng, 4))
        add("long", "relax", _with(
            relax_forced, ln, operator=op, initial=[vec()],
            forcing={"profile": relax_forced["forcing"]["profile"], "direction": vec()}),
            ("oracle",))
        op, vec = _matrix(rng, _spectrum(rng, 2))
        add("long", "multiterm", _with(multi, ln, operator=op,
                                       forcing=dict(ramp, direction=vec())), ("oracle",))
        op, vec = _matrix(rng, _spectrum(rng, 2))
        add("long", "rl_single", _with(
            rl, ln, operator=op, initial=[[0.0, 0.0]],
            forcing={"profile": rl["forcing"]["profile"], "direction": vec()}),
            ("oracle",))
        wide = _with(
            fourier, wn, operator=_fourier(modes, 2 * np.pi, [0.0, [0.0, 1.0], 1.0]),
            initial=[_field(rng, modes, _smooth(modes, 12.0))],
            forcing={"profile": {"kind": "constant", "value": 1.0},
                     "direction": _field(rng, modes, _smooth(modes, 12.0))})
        wide["measure"]["atoms"][0]["symbol"] = {"kind": "identity"}
        add("wide", "advection", wide, ("oracle",))

    return Workload(name, problems, solves)
