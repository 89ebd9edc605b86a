"""Spans and counters recorded from outside treejacobi.

The tracer replaces public functions and methods of the package with
wrappers.  A function imported by name into another module (``cli`` and
``lambda_tree`` import ``poly_roots`` this way) is replaced in every module
that holds it.  Two kinds of frame exist:

* recorded spans, for calls made at most a few thousand times per pass:
  each keeps its name, start, end, parent span and request id;
* hot frames, for calls made millions of times (coefficient accessors,
  ExactComplex arithmetic, recurrence steps): only the call count and the
  self time per name are kept, and a call nested directly in a frame of the
  same group is only counted, so a layer is timed once, at its entry.

Self time is a frame's duration minus the durations of its child frames.
Spans stay in memory until the pass ends."""
from __future__ import annotations

import itertools
import sys
import warnings
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self):
        self.stack = []          # frames: [group, start, child_s, span_id, parent_id]
        self.spans = []          # (id, name, start, end, parent_id, request_id, self_s)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.counters = Counter()
        self.request_id = None
        self._ids = itertools.count()
        self._originals = []     # (owner, attribute, original)

    def _enter(self, group, record):
        parent = None
        if record:
            parent = next((f[3] for f in reversed(self.stack) if f[3] is not None), None)
        frame = [group, 0.0, 0.0, next(self._ids) if record else None, parent]
        self.stack.append(frame)
        frame[1] = perf_counter()
        return frame

    def _exit(self, name, frame):
        end = perf_counter()
        self.stack.pop()
        duration = end - frame[1]
        own = duration - frame[2]
        if self.stack:
            self.stack[-1][2] += duration
        self.self_s[name] += own
        if frame[3] is not None:
            self.spans.append((frame[3], name, frame[1], end, frame[4],
                               self.request_id, own))

    def run(self, name, group, record, fn, args, kwargs):
        self.calls[name] += 1
        if not record and self.stack and self.stack[-1][0] == group:
            return fn(*args, **kwargs)
        frame = self._enter(group, record)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame)

    @contextmanager
    def span(self, name):
        """A recorded span around client code."""
        self.calls[name] += 1
        frame = self._enter(name, True)
        try:
            yield
        finally:
            self._exit(name, frame)

    # -- patching -----------------------------------------------------

    def _replace(self, owner, attribute, wrapper):
        self._originals.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, wrapper)

    def patch_function(self, modules, original, wrapper):
        """Replace `original` in every module that holds it."""
        for module in modules:
            for attribute, value in list(vars(module).items()):
                if value is original:
                    self._replace(module, attribute, wrapper)

    def patch_method(self, cls, names, make_wrapper):
        """Replace methods of a class; aliases such as ``__radd__ = __add__``
        share one wrapper."""
        wrappers = {}
        for attribute in names:
            original = cls.__dict__[attribute]
            if id(original) not in wrappers:
                wrappers[id(original)] = make_wrapper(attribute, original)
            self._replace(cls, attribute, wrappers[id(original)])

    def restore(self):
        for owner, attribute, original in reversed(self._originals):
            setattr(owner, attribute, original)
        self._originals.clear()


def _wrap(tracer, name, group, record, fn, after=None):
    def wrapper(*args, **kwargs):
        result = tracer.run(name, group, record, fn, args, kwargs)
        if after is not None:
            after(result)
        return result
    return wrapper


def install(tracer: Tracer) -> None:
    """Wrap the public surface of every treejacobi layer."""
    from treejacobi import (boundary, cli, coefficients, deficiency, exactnum,
                            lambda_tree, operator, oracle, orthopoly, treecore)
    modules = [m for n, m in sys.modules.items()
               if n == "treejacobi" or n.startswith("treejacobi.")]
    counters = tracer.counters

    def recorded(module, fname, after=None):
        original = getattr(module, fname)
        label = f"{module.__name__.split('.')[-1]}.{fname}"
        tracer.patch_function(modules, original,
                              _wrap(tracer, label, label, True, original, after))

    def recorded_method(cls, attribute, label, after=None):
        tracer.patch_method(cls, [attribute], lambda attr, fn: _wrap(
            tracer, label, label, True, fn, after))

    # hot: coefficient accessors and exact arithmetic
    tracer.patch_method(
        coefficients.CoefficientSequence, ["lam", "lam_exact", "beta", "beta_exact"],
        lambda attr, fn: _wrap(tracer, f"coefficients.{attr}", "coefficients", False, fn))
    tracer.patch_method(
        exactnum.ExactComplex,
        ["__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
         "__truediv__", "__rtruediv__"],
        lambda attr, fn: _wrap(tracer, "exactnum.op", "exactnum", False, fn))

    # hot: one frame per recurrence step
    poly_pairs = orthopoly.poly_pairs

    def traced_pairs(*args, **kwargs):
        step = poly_pairs(*args, **kwargs).__next__
        while True:
            yield tracer.run("orthopoly.recurrence", "orthopoly.recurrence",
                             False, step, (), {})
    tracer.patch_function(modules, poly_pairs, traced_pairs)

    # counted: vertices yielded by the enumeration helpers
    def counting(gen_fn):
        def wrapper(*args, **kwargs):
            for vertex in gen_fn(*args, **kwargs):
                counters["treecore.vertices_enumerated"] += 1
                yield vertex
        return wrapper
    for fname in ("subtree_vertices", "level_vertices"):
        original = getattr(treecore, fname)
        tracer.patch_function(modules, original, counting(original))

    # recorded spans
    def series_terms(result):
        counters["orthopoly.sum_series.terms"] += result.terms_used
    recorded(orthopoly, "sum_series", series_terms)
    for fname in ("compute_polys", "wronskian_residual", "alpha_series",
                  "alpha_sq_partial"):
        recorded(orthopoly, fname)

    original_roots = orthopoly.poly_roots

    def roots_counting_warnings(*args, **kwargs):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = original_roots(*args, **kwargs)
        counters["orthopoly.poly_roots.warnings"] += sum(
            issubclass(w.category, RuntimeWarning) for w in caught)
        return result
    tracer.patch_function(modules, original_roots, _wrap(
        tracer, "orthopoly.poly_roots", "orthopoly.poly_roots", True,
        roots_counting_warnings))

    def verdict(report):
        counters["deficiency.classify.calls"] += 1
        counters["deficiency.classify.definite"] += report.verdict != "inconclusive"
    recorded(deficiency, "classify", verdict)
    for fname in ("element_residual", "element_max_abs", "project_full", "f_value"):
        recorded(deficiency, fname)

    def entries(result):
        counters["deficiency.materialize.entries"] += len(result.entries)
    recorded_method(deficiency.DeficiencyElement, "materialize",
                    "deficiency.materialize", entries)

    for fname in ("poisson_kernel", "reproducing_check"):
        recorded(boundary, fname)
    for fname in ("build_eigenpairs", "eigen_residual", "spectrum_enumerate"):
        recorded(lambda_tree, fname)
    for fname in ("build_gamma_patch", "build_radial_block", "dense_eigensolve"):
        recorded(oracle, fname)

    original_moments = operator.moments

    def moments(J, N, route="matrix", *args, **kwargs):
        label = f"operator.moments_{route}"
        return tracer.run(label, label, True, original_moments,
                          (J, N, route) + args, kwargs)
    tracer.patch_function(modules, original_moments, moments)
    recorded_method(operator.JacobiOperator, "apply", "operator.apply")

    recorded(cli, "main")
