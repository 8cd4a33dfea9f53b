"""In-memory spans around the package's layer boundaries.

The benchmark wraps each function under the name its caller looks it up by
(modules import functions by name, so `fraccauchy.solver.frac_integral`
is patched, not `fraccauchy.fracops.frac_integral`).  A span records its
layer, start, end, parent and a point count; spans stay in memory and are
reduced to per-layer numbers after each pass.  A name that a later
refactor removes is reported as absent and simply records nothing.
"""

from __future__ import annotations

import importlib
import sys
from time import perf_counter

import numpy as np

# Mittag-Leffler dispatch bands of x = |z|^(1/alpha), as in fraccauchy.ml
ML_BANDS = (("x_le_4", 4.0), ("x_4_15", 15.0), ("x_15_26", 26.0), ("x_gt_26", np.inf))

ROUTES = ("repr", "homogeneous", "duhamel", "duhamel-zero", "duhamel-integer", "duhamel-rl")


class Span:
    __slots__ = ("layer", "start", "end", "parent", "points", "extra", "raised")

    def __init__(self, layer: str, parent: int):
        self.layer = layer
        self.parent = parent
        self.points = 0
        self.extra = None
        self.raised = False


def _ml_points(args, kwargs):
    alpha = float(args[0])
    z = np.asarray(args[2])
    x = np.abs(z).ravel() ** (1.0 / alpha)
    edges = [-1.0] + [edge for _, edge in ML_BANDS]
    bands = np.histogram(x, edges)[0]
    return z.size, (bands, z.size if alpha > 1 else 0)


def _kernel_layer(measure) -> str:
    # c_beta_path's documented rule: at most one atom is the closed
    # Mittag-Leffler form, anything else runs the Talbot contour
    return "kernels.contour" if len(measure.atoms) > 1 else "kernels.closed"


def _size(index):
    return lambda args, kwargs: (np.size(args[index]), None)


# (module, attribute path, layer or layer function, point counter)
PATCHES = (
    ("fraccauchy.kernels", "ml_array", "ml", _ml_points),
    ("fraccauchy.solver", "solution_symbol_path", lambda a: _kernel_layer(a[0]), None),
    ("fraccauchy.kernels", "c_beta_path", lambda a: _kernel_layer(a[0]), _size(2)),
    ("fraccauchy.solver", "caputo_derivative_at", "fracops", _size(2)),
    ("fraccauchy.solver", "rl_derivative_at", "fracops", _size(2)),
    ("fraccauchy.solver", "frac_integral",
     "fracops", lambda args, kwargs: (args[2].n + 1, None)),
    ("fraccauchy.operators", "FourierMultiplier.to_spectral", "operators", None),
    ("fraccauchy.operators", "FourierMultiplier.from_spectral", "operators", None),
    ("fraccauchy.operators", "MatrixOperator.to_spectral", "operators", None),
    ("fraccauchy.operators", "MatrixOperator.from_spectral", "operators", None),
    ("fraccauchy.operators", "MatrixOperator.eigensystem", "operators", None),
)


class Tracer:
    """Span recorder; `install` patches the package, `remove` restores it."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.counts: dict = {}
        self.absent: list = []
        self._saved: list = []

    def reset(self) -> None:
        self.spans = []
        self.stack = []
        self.counts = {}

    def count(self, name: str, value: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + value

    def wrap(self, fn, layer, points=None):
        """`fn` recording one span per call; `layer` is a name or a function
        of the call's positional arguments."""
        tracer = self

        def traced(*args, **kwargs):
            span = Span(
                layer if isinstance(layer, str) else layer(args),
                tracer.stack[-1] if tracer.stack else -1,
            )
            if points is not None:
                span.points, span.extra = points(args, kwargs)
            tracer.stack.append(len(tracer.spans))
            tracer.spans.append(span)
            span.start = perf_counter()
            try:
                return fn(*args, **kwargs)
            except Exception:
                span.raised = True
                raise
            finally:
                span.end = perf_counter()
                tracer.stack.pop()

        return traced

    def install(self) -> None:
        for module_name, path, layer, points in PATCHES:
            owner = importlib.import_module(module_name)
            *parents, attr = path.split(".")
            for part in parents:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None) if owner is not None else None
            if original is None:
                self.absent.append(f"{module_name}.{path}")
                continue
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, layer, points))
        if self.absent:
            print(f"trace: absent names {self.absent}", file=sys.stderr)

    def remove(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def layer_metrics(self, solves: int) -> dict:
        """Per-layer numbers of the spans recorded since the last reset."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for s in spans:
            if s.parent >= 0:
                child_time[s.parent] += s.end - s.start
        total: dict = {}
        own: dict = {}
        calls: dict = {}
        points: dict = {}
        raised: dict = {}
        bands = np.zeros(len(ML_BANDS), dtype=np.int64)
        alpha_gt_1 = 0
        for i, s in enumerate(spans):
            dur = s.end - s.start
            total[s.layer] = total.get(s.layer, 0.0) + dur
            own[s.layer] = own.get(s.layer, 0.0) + dur - child_time[i]
            calls[s.layer] = calls.get(s.layer, 0) + 1
            points[s.layer] = points.get(s.layer, 0) + s.points
            raised[s.layer] = raised.get(s.layer, 0) + (s.raised and s.points > 0)
            if s.layer == "ml":
                bands += s.extra[0]
                alpha_gt_1 += s.extra[1]

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        out = {
            "ml.calls": calls.get("ml", 0),
            "ml.points": points.get("ml", 0),
            "ml.self_s": own.get("ml", 0.0),
            "ml.us_per_pt": per(total.get("ml", 0.0), points.get("ml", 0), 1e6),
        }
        for (band, _), value in zip(ML_BANDS, bands):
            out[f"ml.points.{band}"] = int(value)
        out["ml.points.alpha_gt_1"] = alpha_gt_1
        for kind in ("closed", "contour"):
            layer = f"kernels.{kind}"
            out[f"{layer}.points"] = points.get(layer, 0)
            out[f"{layer}.self_s"] = own.get(layer, 0.0)
        # time of the contour c_beta_path calls per point; they have no
        # child spans, so their own time is all of it
        out["kernels.contour.us_per_pt"] = per(
            own.get("kernels.contour", 0.0), points.get("kernels.contour", 0), 1e6
        )
        out["kernels.errors"] = raised.get("kernels.closed", 0) + raised.get(
            "kernels.contour", 0
        )
        for route in ROUTES:
            out[f"solver.{route}.s"] = total.get(f"solver.{route}", 0.0)
            out[f"solver.{route}.self_s"] = own.get(f"solver.{route}", 0.0)
        steps = self.counts.get("oracle.steps", 0)
        warm = self.counts.get("oracle.warm_steps", 0)
        out.update({
            "oracle.s": total.get("oracle", 0.0),
            "oracle.self_s": own.get("oracle", 0.0),
            "oracle.steps": steps,
            "oracle.warm_steps": warm,
            "oracle.us_per_step": per(total.get("oracle", 0.0), steps + warm, 1e6),
            "fracops.calls": calls.get("fracops", 0),
            "fracops.points": points.get("fracops", 0),
            "fracops.self_s": own.get("fracops", 0.0),
            "operators.calls": calls.get("operators", 0),
            "operators.calls_per_solve": per(calls.get("operators", 0), solves),
            "operators.self_s": own.get("operators", 0.0),
            "cli.parse_s": total.get("cli.parse", 0.0),
            "cli.write_s": total.get("cli.write", 0.0),
            "cli.csv_bytes": self.counts.get("cli.csv_bytes", 0),
        })
        return out
