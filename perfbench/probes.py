"""Fixed-input probes of the Mittag-Leffler and kernel layers.

Both probes use inputs that do not depend on the run's seed, so their
numbers compare directly between runs and commits.  Each timing is a median
over repeats and sits beside its error against the mpmath reference.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

from spans import ML_BANDS

PROBE_SEED = 20240817
REPEATS = 5
ML_ALPHAS = (0.5, 0.9, 1.5)
ML_BETAS = (0.5, 1.0, 1.5)
ML_POINTS = 8  # per band, order and second parameter
ML_BAND_RANGES = ((0.25, 4.0), (4.0, 15.0), (15.0, 26.0), (26.0, 40.0))
ML_MAX_ABS_Z = 50.0  # the documented accuracy domain is |z| <= 50

SPLIT_MUS = (0.5, 0.9, 1.5, 1.9)
SPLIT_ZS = (1.0, 10.0, 100.0, 1000.0, -2.0, 30j)


def _ml_points():
    """{band: [(alpha, beta, z array)]} with x = |z|^(1/alpha) inside the band
    and |z| inside the documented domain (so alpha = 1.5 skips the top bands)."""
    rng = np.random.default_rng(PROBE_SEED)
    out = {}
    for (band, _), (lo, hi) in zip(ML_BANDS, ML_BAND_RANGES):
        calls = []
        for alpha in ML_ALPHAS:
            top = min(hi, ML_MAX_ABS_Z ** (1.0 / alpha))
            if top <= lo:
                continue
            for beta in ML_BETAS:
                x = rng.uniform(lo, top, ML_POINTS)
                phase = rng.uniform(-np.pi, np.pi, ML_POINTS)
                calls.append((alpha, beta, x**alpha * np.exp(1j * phase)))
        out[band] = calls
    return out


def ml_probe(cache) -> dict:
    from fraccauchy.errors import FracCauchyError
    from fraccauchy.ml import ml_array, mittag_leffler

    metrics = {}
    raised = 0
    for band, calls in _ml_points().items():
        ref = cache.mittag_leffler(
            [(a, b, z) for a, b, zs in calls for z in zs]
        ).reshape(len(calls), ML_POINTS)
        errors = []
        timings = []
        for _ in range(REPEATS):
            elapsed = 0.0
            for i, (alpha, beta, zs) in enumerate(calls):
                start = perf_counter()
                try:
                    vals = ml_array(alpha, beta, zs)
                    elapsed += perf_counter() - start
                except FracCauchyError:
                    elapsed += perf_counter() - start
                    vals = np.full(ML_POINTS, np.nan, dtype=complex)
                    for k, z in enumerate(zs):
                        try:
                            vals[k] = mittag_leffler(alpha, beta, z)
                        except FracCauchyError:
                            raised += 1
                ok = np.isfinite(vals)
                # absolute error where |E| <= 1, relative in the e^x sector
                errors.extend(
                    np.abs(vals[ok] - ref[i][ok]) / np.maximum(1.0, np.abs(ref[i][ok]))
                )
            timings.append(elapsed)
        metrics[f"ml.probe_us_per_pt.{band}"] = (
            1e6 * statistics.median(timings) / (len(calls) * ML_POINTS)
        )
        metrics[f"ml.probe_max_abs_err.{band}"] = float(max(errors, default=0.0))
    metrics["ml.probe_raised"] = raised // REPEATS
    return metrics


def kernels_probe(cache) -> dict:
    from fraccauchy.errors import FracCauchyError
    from fraccauchy.kernels import Atom, OrderMeasure, c_beta, c_beta_path
    from fraccauchy.symbols import identity_symbol

    def measures(mu):
        closed = OrderMeasure(mu, (Atom(0.0, 1.0, identity_symbol()),))
        # the same measure as two half atoms: forces the contour path
        half = Atom(0.0, 0.5, identity_symbol())
        return closed, OrderMeasure(mu, (half, half))

    metrics = {}
    t = np.linspace(0.05, 2.0, 64)
    for kind, measure in zip(("closed", "contour"), measures(0.9)):
        timings = []
        for _ in range(REPEATS):
            start = perf_counter()
            c_beta_path(measure, -0.1, t, 1.0)
            timings.append(perf_counter() - start)
        metrics[f"kernels.probe_us_per_pt.{kind}"] = 1e6 * statistics.median(timings) / t.size

    # c_{mu-1}(1, z) of the split measure against E_{mu,1}(-z)
    grid = [(mu, z) for mu in SPLIT_MUS for z in SPLIT_ZS]
    ref = cache.mittag_leffler([(mu, 1.0, -z) for mu, z in grid])
    worst = 0.0
    raised = 0
    for (mu, z), expect in zip(grid, ref):
        try:
            got = c_beta(measures(mu)[1], mu - 1.0, 1.0, z)
        except FracCauchyError:
            raised += 1
            continue
        worst = max(worst, abs(got - expect) / abs(expect))
    metrics["kernels.split_atom_max_rel"] = worst
    metrics["kernels.split_atom_raised"] = raised
    return metrics
