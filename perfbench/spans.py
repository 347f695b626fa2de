"""Per-layer spans and counters for the traced benchmark run.

The tracer wraps the public functions of each ``dtoda`` module from the
outside; nothing under ``src/`` knows about it.  A wrapped function is a
span: its calls, its total time, and its self time (total time minus the
time of the spans it called).  Spans nest on one stack, so the traced run
must keep ``DTODA_THREADS=1``.  Spans are aggregated by name as they
close instead of being stored, because one operation makes hundreds of
thousands of series calls.

``install`` rebinds every ``dtoda.*`` module-level name bound to a wrapped
function (``flows``, for example, imports ``eval_along`` by name), and the
returned callable puts every original back.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Tuple

# module -> public functions traced as spans (the benchmark's layers).
LAYER_FUNCTIONS: Dict[str, Tuple[str, ...]] = {
    "series": ("mul", "coeff_mul", "int_pow", "log1p", "invert_function",
               "divide_on_circle", "clip", "add"),
    "hamiltonian": ("eval_along",),
    "conformal_pair": ("sigma_conjugate", "from_coefficients"),
    "coords": ("time_variables", "v_zero", "log_tau", "toda_coordinates"),
    "grunsky": ("grunsky_table", "grunsky_via_inverse", "faber",
                "faber_expansion_defect"),
    "flows": ("flow_field", "step", "jacobian_check"),
    "reductions": ("sigma_coordinate_check", "real_subspace_check",
                   "green_identity_check"),
    "special": ("special_coords",),
}

# cli command functions traced as spans; the checks in cli.CHECKS are
# traced as ``cli.check.<name>`` as well.
CLI_COMMANDS = ("cmd_coords", "cmd_grunsky")


class Tracer:
    """Span statistics and counters, aggregated over every traced call."""

    def __init__(self) -> None:
        # name -> [calls, total seconds, self seconds]
        self.spans: Dict[str, List[float]] = defaultdict(lambda: [0, 0.0, 0.0])
        self.counters: Dict[str, float] = defaultdict(float)
        self._stack: List[List[float]] = []

    def wrap(self, name: str, fn: Callable,
             count: Callable[..., None] = None) -> Callable:
        stack, stat, clock = self._stack, self.spans[name], time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if count is not None:
                count(*args, **kwargs)
            children = [0.0]
            stack.append(children)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += elapsed - children[0]

        return span

    # -- counters ------------------------------------------------------------

    def _count_mul(self, a, b) -> None:
        self.counters["series.mul.madds"] += a.coeffs.size * b.coeffs.size

    def _count_clip(self, a, lo, hi) -> None:
        self.counters["series.clip.offered"] += a.coeffs.size
        kept = min(int(hi), a.hi_exp) - max(int(lo), a.lo_exp) + 1
        self.counters["series.clip.kept"] += max(kept, 0)

    def install(self) -> Callable[[], None]:
        """Wrap every layer function in the loaded ``dtoda``; return undo."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "dtoda" or name.startswith("dtoda."))]
        undo: List[Tuple[object, str, object]] = []

        def rebind(original, wrapped) -> None:
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, original))
                        setattr(module, attr, wrapped)

        counts = {"series.mul": self._count_mul, "series.clip": self._count_clip}
        for layer, names in LAYER_FUNCTIONS.items():
            module = sys.modules[f"dtoda.{layer}"]
            for name in names:
                key = f"{layer}.{name}"
                original = getattr(module, name)
                rebind(original, self.wrap(key, original, counts.get(key)))

        cli = sys.modules["dtoda.cli"]
        for name in CLI_COMMANDS:
            original = getattr(cli, name)
            rebind(original, self.wrap(f"cli.{name}", original))
        checks = dict(cli.CHECKS)
        for name, (tol, fn) in checks.items():
            cli.CHECKS[name] = (tol, self.wrap(f"cli.check.{name}", fn))

        series_cls = sys.modules["dtoda.series"].LaurentSeries
        post_init = series_cls.__post_init__

        def counted_post_init(obj) -> None:
            self.counters["series.series_built"] += 1
            post_init(obj)

        series_cls.__post_init__ = counted_post_init

        def uninstall() -> None:
            series_cls.__post_init__ = post_init
            cli.CHECKS.update(checks)
            for module, attr, original in reversed(undo):
                setattr(module, attr, original)

        return uninstall
