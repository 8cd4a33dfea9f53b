"""High-precision reference solutions, computed with mpmath alone.

Nothing here calls the package: the problem JSON is read directly, the
spectral decomposition is done in mpmath (matrices) or by an explicit DFT
matrix (Fourier multipliers), and each spectral component's Laplace
transform

    u^(s) = [h^(s) d + g sum_k s^(mu-k-1) phi_k
             + sum_j w_j sum_(k < alpha_j) s^(alpha_j-k-1) phi_k] / Delta(s),
    Delta(s) = g s^mu + sum_j w_j s^(alpha_j),

is inverted at fixed sample times.  Where the measure reduces to a single
atom (equal orders merged), the inverse is the Mittag-Leffler closed form,
summed as a power series at a working precision that covers its
cancellation.  Everything else is inverted on a fixed Talbot contour
(Abate & Valko, Int. J. Numer. Meth. Eng. 60, 2004) at two node counts whose
results must agree, which also catches a pole left outside the contour.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import mpmath as mp
import numpy as np

SERIES_MAX_X = 250.0  # largest |z|^(1/alpha) summed as a series
TALBOT_NODES = (32, 48)  # node counts whose results must agree
AGREE = 1e-14  # relative agreement required between them


class ReferenceFailure(RuntimeError):
    """The reference could not be computed to the accuracy it promises."""


# ---------------------------------------------------------------------------
# Mittag-Leffler function and Talbot inversion


def ml_series(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z) by its power series, for |z|^(1/alpha) <= SERIES_MAX_X.

    The largest term is about exp(|z|^(1/alpha)), so the working precision
    grows by one digit per 2.3 units of x to absorb the cancellation.
    """
    x = abs(z) ** (1.0 / alpha)
    if x > SERIES_MAX_X:
        raise ReferenceFailure(f"series argument x = {x:.3g} is too large")
    dps = int(30 + x / 2.3)
    with mp.workdps(dps):
        # alpha k + beta in working precision: rounding it to double would
        # perturb every term by ~1e-16 relative, and the largest term is ~e^x
        a, b = mp.mpf(alpha), mp.mpf(beta)
        zz = mp.mpc(z)
        tiny = mp.mpf(10) ** (-30)
        k_peak = x / alpha + 10
        total = mp.mpc(0)
        power = mp.mpc(1)
        k = 0
        while True:
            term = power * mp.rgamma(a * k + b)
            total += term
            if k > k_peak and abs(term) < tiny:
                break
            power *= zz
            k += 1
        return complex(total)


def _talbot_nodes(t: float, m: int):
    """Nodes s_k and weights exp(s_k t) s'_k / (2 i m) of the full contour."""
    r = mp.mpf(2 * m) / (5 * mp.mpf(t))
    nodes, weights = [], []
    for k in range(-(m - 1), m):
        if k == 0:
            s, ds = mp.mpc(r), mp.mpc(0, r)
        else:
            th = mp.pi * k / m
            cot = mp.cot(th)
            s = r * mp.mpc(th * cot, th)
            ds = r * mp.mpc(cot - th / mp.sin(th) ** 2, 1)
        nodes.append(s)
        weights.append(mp.exp(s * t) * ds / mp.mpc(0, 2 * m))
    return nodes, weights


def talbot(transform, t: float, count: int) -> list:
    """Inverse Laplace transform of `count` functions at time t.

    `transform(s)` returns the list of `count` transform values at s.  The
    inversion runs at two node counts; disagreement raises.
    """
    results = []
    for m in TALBOT_NODES:
        with mp.workdps(m + 15):
            nodes, weights = _talbot_nodes(t, m)
            acc = [mp.mpc(0)] * count
            for s, w in zip(nodes, weights):
                vals = transform(s)
                acc = [a + w * v for a, v in zip(acc, vals)]
            results.append([complex(a) for a in acc])
    coarse, fine = (np.array(r) for r in results)
    scale = max(float(np.max(np.abs(fine))), 1e-300)
    if np.max(np.abs(coarse - fine)) > AGREE * scale:
        raise ReferenceFailure(
            f"Talbot inversion at t = {t} does not converge "
            f"(node counts {TALBOT_NODES} differ by "
            f"{np.max(np.abs(coarse - fine)) / scale:.1e})"
        )
    return list(fine)


def ml_reference(alpha: float, beta: float, z: complex) -> complex:
    """E_{alpha,beta}(z): series where affordable, else the Talbot inverse
    of s^(alpha-beta) / (s^alpha - z) at t = 1 (needs no pole of it on the
    principal sheet, i.e. |arg z| >= alpha pi)."""
    if abs(z) ** (1.0 / alpha) <= SERIES_MAX_X:
        return ml_series(alpha, beta, z)
    if abs(np.angle(z)) < alpha * np.pi:
        raise ReferenceFailure(f"no reference for E_({alpha},{beta})({z})")

    def transform(s):
        return [s ** (alpha - beta) / (s**alpha - mp.mpc(z))]

    return talbot(transform, 1.0, 1)[0]


# ---------------------------------------------------------------------------
# problem documents


def _cplx(v) -> complex:
    return complex(v[0], v[1]) if isinstance(v, list) else complex(v)


def _symbol(doc):
    """Polynomial coefficients (ascending) of an identity/constant/polynomial symbol."""
    kind = doc["kind"]
    if kind == "identity":
        return [0.0, 1.0]
    if kind == "constant":
        return [_cplx(doc["value"])]
    if kind == "polynomial":
        return [_cplx(c) for c in doc["coefficients"]]
    raise ReferenceFailure(f"symbol kind {kind!r} has no reference")


def _poly(coefs, x):
    return sum(mp.mpc(c) * x**p for p, c in enumerate(coefs))


def _forcing_terms(doc) -> list:
    """(coefficient, exponent) pairs of the forcing profile's Laplace transform."""
    prof = doc["profile"]
    if prof["kind"] == "constant":
        return [(_cplx(prof["value"]), -1.0)]
    if prof["kind"] == "polynomial":
        return [
            (_cplx(c) * math.factorial(p), -(p + 1.0))
            for p, c in enumerate(prof["coefficients"])
            if _cplx(c) != 0
        ]
    raise ReferenceFailure(f"profile kind {prof['kind']!r} has no reference")


def _fftfreq(modes: int) -> list:
    half = (modes - 1) // 2 + 1
    return list(range(half)) + list(range(-(modes // 2), 0))


def _decompose(doc):
    """Eigenvalues and the matrix mapping a state to its spectral components."""
    op = doc["operator"]
    if op["type"] == "matrix":
        a = mp.matrix([[mp.mpc(_cplx(v)) for v in row] for row in op["data"]["matrix"]])
        with mp.workdps(40):
            lam, vecs = mp.eig(a)
            # unit columns, so a state's coefficients do not depend on how
            # the eigenvectors happen to be scaled
            for j in range(vecs.cols):
                norm = mp.norm(vecs[:, j])
                for i in range(vecs.rows):
                    vecs[i, j] /= norm
            inv = vecs**-1
        pinv = np.array([[complex(inv[i, j]) for j in range(a.cols)] for i in range(a.rows)])
        return list(lam), pinv
    modes = op["data"]["modes"]
    length = mp.mpf(op["data"].get("length", 2 * math.pi))
    coefs = _symbol(op["data"]["symbol"])
    lam = [_poly(coefs, 2 * mp.pi * j / length) for j in _fftfreq(modes)]
    jk = np.outer(np.arange(modes), np.arange(modes)) % modes
    return lam, np.exp(-2j * np.pi * jk / modes)


def spectral_map(doc) -> np.ndarray:
    """Matrix taking a state of the problem to its spectral components."""
    return _decompose(doc)[1]


def _components(doc) -> tuple:
    """Per spectral component: (numerator terms, denominator terms)."""
    measure = doc["measure"]
    if measure.get("leading_symbol") is not None:
        raise ReferenceFailure("leading symbols have no reference")
    mu = float(measure["mu"])
    m = math.ceil(mu) if mu != round(mu) else int(round(mu))
    lam, to_spec = _decompose(doc)
    caputo = doc["flavor"] == "caputo"
    data = [to_spec @ np.array([_cplx(v) for v in vec]) for vec in doc["initial"]]
    forcing = doc.get("forcing")
    if forcing is not None:
        direction = to_spec @ np.array([_cplx(v) for v in forcing["direction"]])
        profile = _forcing_terms(forcing)
    comps = []
    for j, lj in enumerate(lam):
        atoms: dict = {}
        for a in measure["atoms"]:
            w = mp.mpf(a["weight"]) * _poly(_symbol(a["symbol"]), lj)
            atoms[float(a["alpha"])] = atoms.get(float(a["alpha"]), 0) + w
        den = [(mp.mpc(1), mu)] + [(w, alpha) for alpha, w in atoms.items() if w != 0]
        num = []
        if caputo:
            for k in range(m):
                phi = data[k][j]
                if phi == 0:
                    continue
                num.append((mp.mpc(phi), mu - k - 1.0))
                num.extend(
                    (w * mp.mpc(phi), alpha - k - 1.0)
                    for alpha, w in atoms.items()
                    if alpha > k and w != 0
                )
        if forcing is not None and direction[j] != 0:
            num.extend((mp.mpc(c) * mp.mpc(direction[j]), e) for c, e in profile)
        comps.append((num, den))
    return comps, mu


def _closed_form(num, den, mu: float, times) -> list | None:
    """Mittag-Leffler closed form for a single (merged) atom, or None."""
    if len(den) > 2:
        return None
    alpha, c = (den[1][1], den[1][0]) if len(den) == 2 else (0.0, mp.mpc(0))
    rho = mu - alpha
    c = complex(c)
    if abs(c) ** (1.0 / rho) * max(times) > SERIES_MAX_X:
        return None
    out = []
    for t in times:
        acc = 0j
        for coef, a in num:
            b = mu - a
            acc += complex(coef) * t ** (b - 1.0) * ml_series(rho, b, -c * t**rho)
        out.append(acc)
    return out


def spectral_error(got: np.ndarray, ref: np.ndarray) -> float:
    """Max-relative error of spectral components, against the largest one."""
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


def _solve_reference(doc, times) -> np.ndarray:
    comps, mu = _components(doc)
    spec = np.zeros((len(times), len(comps)), dtype=complex)
    contour = []
    for j, (num, den) in enumerate(comps):
        if not num:
            continue
        closed = _closed_form(num, den, mu, times)
        if closed is None:
            contour.append(j)
        else:
            spec[:, j] = closed
    if contour:
        exponents = sorted({e for j in contour for _, e in comps[j][0] + comps[j][1]})

        def transform(s):
            pw = {e: s**e for e in exponents}
            vals = []
            for j in contour:
                num, den = comps[j]
                vals.append(
                    sum(c * pw[e] for c, e in num) / sum(w * pw[e] for w, e in den)
                )
            return vals

        for i, t in enumerate(times):
            spec[i, contour] = talbot(transform, t, len(contour))
    return spec


# ---------------------------------------------------------------------------
# cache


class ReferenceCache:
    """Reference values on disk, keyed by a hash of their inputs and of this
    file, so that a change to the reference code recomputes them."""

    def __init__(self, directory: Path):
        self.directory = directory
        self.code = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()
        directory.mkdir(parents=True, exist_ok=True)

    def _get(self, key: dict, compute) -> np.ndarray:
        text = json.dumps(dict(key, code=self.code), sort_keys=True)
        path = self.directory / (hashlib.sha256(text.encode()).hexdigest()[:24] + ".json")
        if path.exists():
            return np.array([complex(*v) for v in json.loads(path.read_text())])
        values = np.asarray(compute(), dtype=complex).ravel()
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps([[v.real, v.imag] for v in values]))
        tmp.replace(path)
        return values

    def solution(self, doc: dict, times) -> np.ndarray:
        """Spectral components at the given times, shape (len(times), dim)."""
        times = [float(t) for t in times]
        flat = self._get(
            {"kind": "solution", "doc": doc, "times": times},
            lambda: _solve_reference(doc, times),
        )
        return flat.reshape(len(times), -1)

    def mittag_leffler(self, points) -> np.ndarray:
        """E_{alpha,beta}(z) for each (alpha, beta, z) triple."""
        pts = [(float(a), float(b), [complex(z).real, complex(z).imag]) for a, b, z in points]
        return self._get(
            {"kind": "ml", "points": pts},
            lambda: [ml_reference(a, b, complex(*z)) for a, b, z in pts],
        )
