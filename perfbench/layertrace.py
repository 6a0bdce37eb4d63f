"""Outside-in layer tracing for the varlp benchmark.

The tracer wraps the public functions of varlp's layers from outside the
package and records a span (name, start, end, parent) at every call that
crosses into a layer, plus work counters at the same boundaries.  Nothing
under src/ is touched: the wrappers are bound in place of the originals in
every varlp module that imported them, because `from .quadrature import
integrate_interval` gives norms, operators, spaces, funcs and verify their
own binding, and patching varlp.quadrature alone would miss those calls.

Spans stay in memory in compact arrays and are written once, at the end.
A call nested directly inside the same quadrature layer (integrate_shell
calling integrate_interval) gets no span of its own, only counts, so that
the span record stays proportional to work crossing a layer boundary.
OperatorImage.evaluate is called millions of times per harness run and
mostly answers from the image's memo, so a repeated (image, x) pair costs
one counter increment; only a point computed for the first time opens a
span.
"""

from __future__ import annotations

import functools
import sys
import time
import weakref
from array import array
from collections import Counter

# public entry points per layer; every one is a module-level function,
# except OperatorImage which is patched on the class itself
LAYER_FUNCTIONS = {
    "quadrature": ("integrate_interval", "integrate_ball", "integrate_annulus",
                   "integrate_shell"),
    "norms": ("modular", "luxemburg_norm", "chi_norm", "dual_pairing_sup"),
    "operators": ("hardy", "dual_hardy", "commutator_hardy",
                  "commutator_dual_hardy", "maximal"),
    "spaces": ("cbmo_var_norm", "cbmo_classical_norm", "cbmo_star_norm",
               "cbmo_inf_norm", "herz_breakdown", "herz_norm",
               "herz_norm_vector", "golden_min"),
}
SWEEPS = ("cbmo_var_norm", "cbmo_classical_norm", "cbmo_star_norm",
          "cbmo_inf_norm", "herz_breakdown")
GK15_POINTS = 15


class Tracer:
    """Span recorder and counters for one traced pass.

    install() swaps the wrappers in; uninstall() restores the originals.
    """

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("H")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        # stack entries: [span id, layer, start, time covered by child spans]
        self._stack: list[list] = []
        self.self_s: Counter = Counter()
        self.counts: Counter = Counter()
        self.statement_s: dict[str, float] = {}
        self.golden_evals: list[int] = []
        self._seen: dict[int, set] = {}
        self._restore: list[tuple] = []

    # -- spans -----------------------------------------------------------------

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def current_layer(self):
        return self._stack[-1][1] if self._stack else None

    def current_name(self):
        return self.names[self.span_name[self._stack[-1][0]]] if self._stack else None

    def _open(self, name: str, layer: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        sid = len(self.span_start)
        self.span_name.append(self._name_id(name))
        self.span_parent.append(parent)
        self.span_end.append(0.0)
        frame = [sid, layer, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = t = time.perf_counter()
        self.span_start.append(t)
        return frame

    def _close(self, frame: list) -> float:
        t = time.perf_counter()
        self._stack.pop()
        dur = t - frame[2]
        self.span_end[frame[0]] = t
        self.self_s[frame[1]] += dur - frame[3]
        if self._stack:
            self._stack[-1][3] += dur
        return dur

    def span_count(self) -> int:
        return len(self.span_start)

    # -- wrappers --------------------------------------------------------------

    def _wrap_quadrature(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.current_layer() == "quadrature":
                res = fn(*args, **kwargs)
                if name == "integrate_interval":
                    counts["quadrature.panels"] += res.subdivisions
                return res
            counts["quadrature.calls"] += 1
            if self.current_name() == "norms.luxemburg_norm":
                counts["norms.modular_passes"] += 1
            frame = self._open("quadrature." + name, "quadrature")
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                counts["quadrature.refusals"] += 1
                raise
            finally:
                self._close(frame)
            if name == "integrate_interval":
                # shell and ball results sum their inner interval calls,
                # which were counted above
                counts["quadrature.panels"] += res.subdivisions
            return res

        return wrapper

    def _wrap_layer(self, layer: str, name: str, fn):
        counts = self.counts
        span_name = f"{layer}.{name}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self.current_layer()
            counts[span_name] += 1
            if name == "golden_min":
                calls = [0]
                objective = args[0]

                def counted(c):
                    calls[0] += 1
                    return objective(c)

                args = (counted, *args[1:])
            solves_before = counts["norms.luxemburg_norm"]
            frame = self._open(span_name, layer)
            try:
                res = fn(*args, **kwargs)
            except BaseException:
                if parent != layer:
                    counts[layer + ".refusals"] += 1
                raise
            finally:
                self._close(frame)
                if name == "golden_min":
                    self.golden_evals.append(calls[0])
            if layer == "norms" and parent == "spaces":
                counts["spaces.norm_calls"] += 1
            if name == "luxemburg_norm":
                counts["norms.bisection_iters"] += res.bisection_iters
            if name == "chi_norm" and counts["norms.luxemburg_norm"] == solves_before:
                counts["norms.chi_closed_form"] += 1
            return res

        return wrapper

    def _wrap_statement(self, fn):
        @functools.wraps(fn)
        def wrapper(statement_id, cfg, **kwargs):
            frame = self._open("verify." + statement_id, "verify")
            try:
                return fn(statement_id, cfg, **kwargs)
            finally:
                dur = self._close(frame)
                self.statement_s[statement_id] = \
                    self.statement_s.get(statement_id, 0.0) + dur

        return wrapper

    def _patch_image(self, cls) -> None:
        init, evaluate = cls.__init__, cls.evaluate
        counts = self.counts
        seen_by_image = self._seen

        def traced_init(image, *args, **kwargs):
            counts["operators.images"] += 1
            seen_by_image[id(image)] = set()
            weakref.finalize(image, seen_by_image.pop, id(image), None)
            frame = self._open("operators.OperatorImage", "operators")
            try:
                init(image, *args, **kwargs)
            finally:
                self._close(frame)

        def traced_evaluate(image, x):
            counts["operators.evaluate_calls"] += 1
            seen = seen_by_image[id(image)]
            if x in seen:
                return evaluate(image, x)
            frame = self._open("operators.evaluate", "operators")
            try:
                value = evaluate(image, x)
            finally:
                self._close(frame)
            seen.add(x)
            counts["operators.points_computed"] += 1
            return value

        cls.__init__ = traced_init
        cls.evaluate = traced_evaluate
        self._restore.append((cls, "__init__", init))
        self._restore.append((cls, "evaluate", evaluate))

    def install(self) -> None:
        """Bind the wrappers in every loaded varlp module."""
        mods = {name: m for name, m in sys.modules.items()
                if name == "varlp" or name.startswith("varlp.")}
        swaps = {}
        for layer, names in LAYER_FUNCTIONS.items():
            owner = mods["varlp." + layer]
            for name in names:
                fn = getattr(owner, name)
                if layer == "quadrature":
                    swaps[id(fn)] = (fn, self._wrap_quadrature(name, fn))
                else:
                    swaps[id(fn)] = (fn, self._wrap_layer(layer, name, fn))
        run_statement = mods["varlp.verify"].run_statement
        swaps[id(run_statement)] = (run_statement, self._wrap_statement(run_statement))
        for m in mods.values():
            for attr, value in list(vars(m).items()):
                hit = swaps.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(m, attr, hit[1])
                    self._restore.append((m, attr, value))
        self._patch_image(mods["varlp.operators"].OperatorImage)

    def uninstall(self) -> None:
        for target, attr, value in reversed(self._restore):
            setattr(target, attr, value)
        self._restore.clear()

    # -- results ---------------------------------------------------------------

    def save(self, path) -> None:
        """Write every span as columns: name index, start, end, parent index."""
        import numpy as np

        np.savez(path, names=np.array(self.names),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64))

    def layer_metrics(self, wall_s: float, statement_ids) -> dict:
        """Per-layer metrics of the traced pass, keyed by their benchmark name."""
        c = self.counts
        solves = c["norms.luxemburg_norm"]
        chi_calls = c["norms.chi_norm"]
        sweeps = sum(c["spaces." + name] for name in SWEEPS)
        evaluate_calls = c["operators.evaluate_calls"]

        def ratio(num, den):
            return num / den if den else 0.0

        def pct(seconds):
            return 100.0 * seconds / wall_s

        m = {
            "quadrature.calls": (c["quadrature.calls"], "count"),
            "quadrature.panels": (c["quadrature.panels"], "count"),
            "quadrature.evals": (GK15_POINTS * c["quadrature.panels"], "count"),
            "quadrature.refusals": (c["quadrature.refusals"], "count"),
            "quadrature.self_pct": (pct(self.self_s["quadrature"]), "%"),
            "norms.solves": (solves, "count"),
            "norms.quad_calls_per_solve": (ratio(c["norms.modular_passes"], solves), "count"),
            "norms.bisection_iters": (c["norms.bisection_iters"], "count"),
            "norms.closed_form_frac": (ratio(c["norms.chi_closed_form"], chi_calls), "frac"),
            "norms.refusals": (c["norms.refusals"], "count"),
            "norms.self_pct": (pct(self.self_s["norms"]), "%"),
            "operators.images": (c["operators.images"], "count"),
            "operators.evaluate_calls": (evaluate_calls, "count"),
            "operators.points_computed": (c["operators.points_computed"], "count"),
            "operators.hit_ratio": (
                ratio(evaluate_calls - c["operators.points_computed"], evaluate_calls), "frac"),
            "operators.self_pct": (pct(self.self_s["operators"]), "%"),
            "spaces.sweeps": (sweeps, "count"),
            "spaces.norms_per_sweep": (ratio(c["spaces.norm_calls"], sweeps), "count"),
            "spaces.golden_evals": (
                ratio(sum(self.golden_evals), len(self.golden_evals)), "count"),
            "spaces.self_pct": (pct(self.self_s["spaces"]), "%"),
        }
        for sid in statement_ids:
            m[f"verify.{sid}.wall_pct"] = (pct(self.statement_s.get(sid, 0.0)), "%")
        m["verify.longest_stmt_pct"] = (pct(max(self.statement_s.values(), default=0.0)), "%")
        return m
