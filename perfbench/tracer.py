"""Outside-in layer trace: one layer per ``orthopara`` module.

``Tracer.install`` wraps every public function of each module in a span and
rebinds the wrapper wherever the package refers to the function: the defining
module, every module that imported it by name (``from .x import y``), and
default arguments bound at definition time (``eval_fn=eval_A``).  A layer's
self time is the time inside its spans minus the time inside the spans they
call.  Work counters are taken at the same boundaries.  Nothing in the
package is edited; the trace lives only in the process that installs it.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import math
import time
import types
from collections import Counter

import numpy as np

LAYERS = ("gammafn", "hyper", "classical", "ball", "paraboloid", "quadrature",
          "transforms", "contiguous", "verifier", "cli")

# public quadrature functions that return a rule
RULE_BUILDERS = ("gauss_legendre", "gauss_jacobi", "gauss_laguerre",
                 "tanh_sinh", "composite_legendre")

SNAP_TOL = 1e-9  # the termination snap tolerance of hyper.hyp_terminating


def series_degree(numerator):
    """Term count - 1 of a terminating series: the smallest N with some
    scalar numerator parameter within SNAP_TOL of -N."""
    degrees = []
    for a in numerator:
        if np.ndim(a) == 0:
            a = complex(a)
            n = round(a.real)
            if n <= 0 and abs(a - n) <= SNAP_TOL:
                degrees.append(-n)
    return min(degrees, default=0)


class Tracer:
    def __init__(self):
        self.self_s = Counter()   # layer -> seconds
        self.calls = Counter()    # "layer.function" -> calls
        self.counts = Counter()   # work counters
        self._stack = []          # open spans: [layer, seconds in child spans]
        self._hooks = {
            "gammafn.log_gamma": self._count_log_gamma,
            "hyper.hyp_terminating": self._count_series,
            "ball.ball_integral": self._count_ball,
            "quadrature.tensor_integrate": self._count_tensor,
        }
        for name in RULE_BUILDERS:
            self._hooks[f"quadrature.{name}"] = self._count_rule

    # -- counters: (bound arguments, result, layer of the calling span) ------

    def _count_log_gamma(self, args, result, caller):
        self.counts["gammafn.log_gamma.elements"] += int(np.size(result))

    def _count_series(self, args, result, caller):
        self.counts["hyper.term_elements"] += (
            series_degree(args["numerator"]) * int(np.size(result)))

    def _count_ball(self, args, result, caller):
        self.counts["ball.integral_points"] += int(args["n"]) ** int(args["d"])

    def _count_tensor(self, args, result, caller):
        self.counts["quadrature.tensor_points"] += math.prod(len(r) for r in args["rules"])

    def _count_rule(self, args, result, caller):
        if caller != "quadrature":  # composite_legendre builds its panel rule itself
            self.counts["quadrature.rule_builds"] += 1

    # -- spans -----------------------------------------------------------------

    def _wrap(self, layer, name, fn):
        key = f"{layer}.{name}"
        hook = self._hooks.get(key)
        signature = inspect.signature(fn) if hook else None
        stack, self_s, calls = self._stack, self.self_s, self.calls
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                self_s[layer] += dt - frame[1]
                calls[key] += 1
                if stack:
                    stack[-1][1] += dt
            if hook is not None:
                bound = signature.bind(*args, **kwargs).arguments
                hook(bound, result, stack[-1][0] if stack else None)
                if stack:  # the counter's own time is charged to no layer
                    stack[-1][1] += clock() - t0 - dt
            return result

        return span

    def install(self):
        modules = {layer: importlib.import_module(f"orthopara.{layer}") for layer in LAYERS}
        namespaces = [vars(m) for m in modules.values()]
        namespaces.append(vars(importlib.import_module("orthopara")))
        defined = [fn for ns in namespaces for fn in ns.values()
                   if isinstance(fn, types.FunctionType)]
        spans = {}
        for layer, mod in modules.items():
            for name, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and fn.__module__ == mod.__name__
                        and not name.startswith("_")):
                    spans[fn] = self._wrap(layer, name, fn)

        def swap(value):
            return spans.get(value, value) if isinstance(value, types.FunctionType) else value

        for ns in namespaces:
            for name, value in list(ns.items()):
                ns[name] = swap(value)
        for fn in defined:
            if fn.__defaults__:
                fn.__defaults__ = tuple(swap(v) for v in fn.__defaults__)
            if fn.__kwdefaults__:
                fn.__kwdefaults__ = {k: swap(v) for k, v in fn.__kwdefaults__.items()}
        return self

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}."""
        calls = self.calls
        out = {f"{layer}.self_s": (self.self_s[layer], "s") for layer in LAYERS}
        out.update({
            "gammafn.log_gamma.calls": (calls["gammafn.log_gamma"], "count"),
            "gammafn.log_gamma.elements": (self.counts["gammafn.log_gamma.elements"], "count"),
            "gammafn.pochhammer.calls": (calls["gammafn.pochhammer"], "count"),
            "hyper.hyp_terminating.calls": (calls["hyper.hyp_terminating"], "count"),
            "hyper.term_elements": (self.counts["hyper.term_elements"], "count"),
            "classical.calls": (sum(n for k, n in calls.items()
                                    if k.startswith("classical.")), "count"),
            "ball.integral_points": (self.counts["ball.integral_points"], "count"),
            "paraboloid.inner_product.calls": (
                calls["paraboloid.paraboloid_inner_product"], "count"),
            "quadrature.tensor_points": (self.counts["quadrature.tensor_points"], "count"),
            "quadrature.rule_builds": (self.counts["quadrature.rule_builds"], "count"),
            "transforms.eval_D.calls": (calls["transforms.eval_D"], "count"),
            "transforms.eval_AB.calls": (
                calls["transforms.eval_A"] + calls["transforms.eval_B"], "count"),
        })
        return out
