"""In-memory span tracing of the sampler's layers, installed from outside.

``Tracer.install`` rebinds the named layer functions in every loaded
``lllsampler`` module (and wraps the named methods on their classes), so the
package itself is not edited.  Each call records one span: layer name,
start, end, parent span and the draw id it belongs to (-1 during set-up).
Spans live in flat arrays until ``save`` writes them out at the end of a run.
"""

from __future__ import annotations

import sys
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

#: (span name, module, attribute): functions rebound wherever imported.
FUNCTIONS = (
    ("frontends.parse", "frontends", "parse_dimacs"),
    ("frontends.parse", "frontends", "parse_hypergraph"),
    ("core.preprocess", "core", "preprocess"),
    ("core.compute_measures", "core", "compute_measures"),
    ("marking.construct", "marking", "construct_marking_binary"),
    ("marking.check_conditions", "marking", "check_theorem_conditions"),
    ("tensorization.tensorize", "tensorization", "tensorize"),
    ("tensorization.trans", "tensorization", "trans"),
    ("kernels.component", "kernels", "component"),
    ("kernels.marginal", "kernels", "exact_component_marginal"),
    ("kernels.rejection", "kernels", "rejection_sampling"),
    ("sampler.sample", "sampler", "sample"),
    ("sampler.bounding_chain", "sampler", "bounding_chain"),
    ("sampler.final_sampling", "sampler", "final_sampling"),
    ("cli.prepare", "cli", "prepare_pipeline"),
)

#: (span name, module, class, method): methods wrapped on the class.
METHODS = (
    ("kernels.update_ctx", "kernels", "UpdateContext", "__init__"),
    ("cli.draw", "cli", "PreparedPipeline", "draw"),
)

#: (count name, module, class, method): calls counted without a span.
COUNTED = (
    ("kernels.tape_streams", "kernels", "TapeStream", "__init__"),
    ("kernels.layered_block_calls", "kernels", "RandomnessTape",
     "layered_block"),
)


def _component_result(tracer, result):
    tracer.counts["kernels.component_vars"] += len(result.component_vars)


def _rejection_result(tracer, result):
    tracer.counts["kernels.rejection_attempts"] += result[1]


def _sample_result(tracer, result):
    tracer.counts["sampler.chain_steps"] += result.wall_steps
    tracer.counts["sampler.horizon"] += result.horizon_used


def _chain_result(tracer, result):
    tracer.counts["sampler.coalesced_runs"] += bool(result.coalesced)


#: Counters read off a layer's return value.
ON_RESULT = {
    "kernels.component": _component_result,
    "kernels.rejection": _rejection_result,
    "sampler.sample": _sample_result,
    "sampler.bounding_chain": _chain_result,
}


class Tracer:
    """Span recorder for one run; not thread-safe (the sampler is serial)."""

    def __init__(self):
        self.names: list[str] = []
        self._name_id: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("i")
        self.draw = array("i")
        self.counts: Counter = Counter()
        self.draw_id = -1
        self._stack: list[int] = []
        self._undo: list = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, span_name, fn):
        nid = self._name_id.setdefault(span_name, len(self.names))
        if nid == len(self.names):
            self.names.append(span_name)
        on_result = ON_RESULT.get(span_name)
        stack, stack_push, stack_pop = (self._stack, self._stack.append,
                                        self._stack.pop)
        end = self.end
        push_name, push_parent = self.name.append, self.parent.append
        push_draw, push_start, push_end = (self.draw.append,
                                           self.start.append, end.append)

        def wrapper(*args, **kwargs):
            i = len(end)
            push_name(nid)
            push_parent(stack[-1] if stack else -1)
            push_draw(self.draw_id)
            push_end(0.0)
            stack_push(i)
            push_start(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack_pop()
            if on_result is not None:
                on_result(self, result)
            return result

        return wrapper

    def _counted(self, count_name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[count_name] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Rebind every listed layer function and method to its wrapper."""
        pkg = sys.modules["lllsampler"]
        modules = [m for k, m in list(sys.modules.items())
                   if k == "lllsampler" or k.startswith("lllsampler.")]
        for span_name, mod, attr in FUNCTIONS:
            original = getattr(getattr(pkg, mod), attr)
            wrapper = self._spanned(span_name, original)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is original:
                        self._undo.append((m, key, value))
                        setattr(m, key, wrapper)
        for span_name, mod, cls, meth in METHODS:
            self._wrap_method(getattr(getattr(pkg, mod), cls), meth,
                              lambda fn: self._spanned(span_name, fn))
        for count_name, mod, cls, meth in COUNTED:
            self._wrap_method(getattr(getattr(pkg, mod), cls), meth,
                              lambda fn: self._counted(count_name, fn))

    def _wrap_method(self, cls, meth, make_wrapper):
        original = cls.__dict__[meth]
        self._undo.append((cls, meth, original))
        setattr(cls, meth, make_wrapper(original))

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()

    # -- analysis ----------------------------------------------------------

    def summary(self) -> dict:
        """Per span name: call count, total time and self time, split into
        set-up (draw id -1) and draw phases."""
        start = np.frombuffer(self.start, dtype=np.float64)
        dur = np.frombuffer(self.end, dtype=np.float64) - start
        name = np.frombuffer(self.name, dtype=np.int32)
        parent = np.frombuffer(self.parent, dtype=np.int32)
        in_draw = np.frombuffer(self.draw, dtype=np.int32) >= 0
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_time = dur - child
        out = {}
        for nid, span_name in enumerate(self.names):
            for phase, mask in (("setup", ~in_draw), ("draw", in_draw)):
                sel = (name == nid) & mask
                out[(span_name, phase)] = (int(sel.sum()),
                                           float(dur[sel].sum()),
                                           float(self_time[sel].sum()))
        return out

    def save(self, path) -> None:
        """Write every span: names, start, end, parent index and draw id."""
        np.savez_compressed(
            path, names=np.array(self.names),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
            name=np.frombuffer(self.name, dtype=np.int32),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            draw=np.frombuffer(self.draw, dtype=np.int32))
