"""Spans recorded around calls into emi's layers, from outside the program.

The recorder replaces a layer function on every ``emi`` module attribute
bound to it, so calls the engine makes through its own module globals pass
through a wrapper that records a span: name, start, end, parent span and
pass id.  Spans are kept in memory and written out once, at the end.  A
layer calling itself (the pairwise reduction recurses) stays inside one
span but every call is counted.  ``Real`` constructions are counted
without spans.  Totals cover every traced pass; the spans themselves are
kept for the first :data:`KEPT_PASSES` traced passes only, which bounds
their memory.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from dataclasses import dataclass
from time import perf_counter_ns

KEPT_PASSES = 3


@dataclass(frozen=True)
class PassTotals:
    layers: dict[str, list[int]]  # layer name -> [self_ns, calls]
    real_new: int  # Real objects constructed
    covered_ns: int  # time inside top-level spans

#: Layer name -> the functions (module, attribute) whose calls it times.
LAYERS = {
    "precision.seed": [("emi.precision", "rat_to_real")],
    "precision.render": [("emi.precision", "render_decimal"),
                         ("emi.precision", "render_rat")],
    "jets.coeff": [("emi.jets", "integrand_jet")],
    "quadrature.weights": [("emi.quadrature", "emi_weights")],
    "quadrature.fold": [("emi.quadrature", "emi_subinterval")],
    "quadrature.reduce": [("emi.quadrature", "pairwise_sum")],
    "quadrature.engine": [("emi.quadrature", "emi_integrate")],
    "quadrature.closed_form": [("emi.quadrature", "closed_form_arctan")],
    "pi_suite.scan": [("emi.pi_suite", "convergence_scan")],
    "pi_suite.match": [("emi.pi_suite", "matched_digits")],
    "cli.main": [("emi.cli", "main")],
    "selftest.verify": [("emi.selftest", "run_selftest")],
}


class Recorder:
    """Installs layer wrappers on demand and accumulates per-pass totals."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, name, start_ns, end_ns, parent_id, pass_id)
        self._stack: list[list] = []  # [name, span_id, start_ns, child_ns]
        self._patches: list[tuple] = []  # (owner, attribute, original, replacement)
        self._next_id = 0
        self.pass_id = -1
        self.totals: dict[str, list[int]] = {}  # name -> [self_ns, calls]
        self.real_new = 0
        self.covered_ns = 0  # time inside top-level spans this pass
        self._find_targets()

    def _find_targets(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "emi" or name.startswith("emi."))]
        for layer, funcs in LAYERS.items():
            for module_name, attr in funcs:
                original = getattr(importlib.import_module(module_name), attr, None)
                if original is None:
                    continue
                wrapper = self._wrap(layer, original)
                for module in modules:
                    for key, value in vars(module).items():
                        if value is original:
                            self._patches.append((module, key, original, wrapper))
        real = getattr(importlib.import_module("emi.precision"), "Real", None)
        if real is not None:
            init = real.__init__

            @functools.wraps(init)
            def counted_init(obj, *args, **kwargs):
                self.real_new += 1
                init(obj, *args, **kwargs)

            self._patches.append((real, "__init__", init, counted_init))

    def _wrap(self, name: str, fn):
        stack = self._stack

        @functools.wraps(fn)
        def span(*args, **kwargs):
            total = self.totals.setdefault(name, [0, 0])
            total[1] += 1
            if stack and stack[-1][0] == name:
                return fn(*args, **kwargs)
            span_id = self._next_id
            self._next_id += 1
            frame = [name, span_id, perf_counter_ns(), 0]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - frame[2]
                total[0] += duration - frame[3]
                parent = None
                if stack:
                    stack[-1][3] += duration
                    parent = stack[-1][1]
                else:
                    self.covered_ns += duration
                if self.pass_id < KEPT_PASSES:
                    self.spans.append((span_id, name, frame[2], end, parent, self.pass_id))

        return span

    def begin_pass(self) -> None:
        """Start a traced pass: reset the per-pass totals and install the wrappers."""
        self.pass_id += 1
        self.totals = {}
        self.real_new = 0
        self.covered_ns = 0
        for owner, key, _, wrapper in self._patches:
            setattr(owner, key, wrapper)

    def end_pass(self) -> PassTotals:
        """Remove the wrappers; return this pass's totals."""
        for owner, key, original, _ in self._patches:
            setattr(owner, key, original)
        return PassTotals(self.totals, self.real_new, self.covered_ns)

    def dump(self, path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = dict(meta, fields=["id", "name", "start_ns", "end_ns", "parent", "pass"],
                       spans=self.spans)
        path.write_text(json.dumps(payload, separators=(",", ":")))
