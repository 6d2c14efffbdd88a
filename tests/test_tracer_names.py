"""The benchmark's span tracer (``perfbench/spans.py``) wraps package
functions and methods by name.  These tests load it read-only and check that
every name it lists still resolves, that installing and uninstalling the
tracer leaves the package as it was, and that a traced run fills every counter
the tracer reads off a return value."""

import importlib
import sys
import types
from pathlib import Path

import lllsampler
import lllsampler.cli  # noqa: F401  (the tracer wraps names in every module)
import lllsampler.pipeline

from conftest import ternary9

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def load_spans():
    """The tracer module, run from its source without writing a bytecode
    cache next to it."""
    module = types.ModuleType("perfbench_spans")
    exec(compile(SPANS.read_text(), str(SPANS), "exec"), vars(module))
    return module


def package_bindings():
    """Every (owner, name) -> value the tracer may rebind."""
    out = {}
    for key, module in list(sys.modules.items()):
        if key == "lllsampler" or key.startswith("lllsampler."):
            for name, value in vars(module).items():
                out[(key, name)] = value
    return out


def test_tracer_names_resolve():
    spans = load_spans()
    assert spans.FUNCTIONS and spans.METHODS and spans.COUNTED
    for _, mod, attr in spans.FUNCTIONS:
        module = importlib.import_module(f"lllsampler.{mod}")
        assert callable(getattr(module, attr, None)), (mod, attr)
    for _, mod, cls, meth in spans.METHODS + spans.COUNTED:
        owner = getattr(importlib.import_module(f"lllsampler.{mod}"), cls)
        assert callable(owner.__dict__.get(meth)), (mod, cls, meth)


def test_tracer_install_round_trip():
    spans = load_spans()
    classes = [getattr(importlib.import_module(f"lllsampler.{mod}"), cls)
               for _, mod, cls, _ in spans.METHODS + spans.COUNTED]
    before = package_bindings()
    methods = {(c, k): v for c in classes for k, v in vars(c).items()}
    tracer = spans.Tracer()
    tracer.install()
    try:
        for _, mod, attr in spans.FUNCTIONS:
            assert (getattr(getattr(lllsampler, mod), attr)
                    is not before[(f"lllsampler.{mod}", attr)]), (mod, attr)
    finally:
        tracer.uninstall()
    after = package_bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
    assert all(vars(c)[k] is v for (c, k), v in methods.items())


def test_tracer_counts_a_traced_run():
    # every counter read off a return value is filled, so a change to a
    # traced layer's return value fails here first
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        # ternary9's safe mass is about 0.49, so the chain enters the
        # residual layer and computes components and their marginals
        csp, m = ternary9()
        for seed in range(3):
            lllsampler.sample(csp, m, seed, check_conditions=False)
        cnf = ("p cnf 6 6\n1 2 3 0\n-1 2 4 0\n1 -3 5 0\n-2 -4 6 0\n"
               "3 -5 -6 0\n-1 -2 -6 0\n")
        cfg = lllsampler.cli.PipelineConfig("-", "dimacs", "binary", seed=1,
                                            force=True)
        prepared = lllsampler.cli.prepare_pipeline(
            lllsampler.frontends.parse_dimacs(cnf), cfg)
        assert prepared.forced_empty
        for i in range(3):
            prepared.draw(1, i)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for span_name in (*spans.ON_RESULT, "kernels.marginal"):
        assert summary[(span_name, "setup")][0] > 0, span_name
    assert {"kernels.component_vars", "kernels.rejection_attempts",
            "sampler.chain_steps", "sampler.horizon",
            "sampler.coalesced_runs"} <= {k for k, v in tracer.counts.items()
                                          if v > 0}
    assert summary[("kernels.update_ctx", "setup")][0] >= 2


def test_tracer_spans_the_library_pipeline():
    # the tracer finds ``cli.prepare_pipeline`` and ``cli.PreparedPipeline``
    # by name and wraps those objects wherever they are bound, so a set-up
    # and a draw called through ``lllsampler.pipeline`` record one
    # ``cli.prepare`` and one ``cli.draw`` span
    spans = load_spans()
    tracer = spans.Tracer()
    tracer.install()
    try:
        cfg = lllsampler.pipeline.PipelineConfig("-", "dimacs", "binary",
                                                 seed=1, force=True)
        prepared = lllsampler.pipeline.prepare_pipeline(
            lllsampler.frontends.parse_dimacs("p cnf 3 1\n1 2 3 0\n"), cfg)
        prepared.draw(1, 0)
    finally:
        tracer.uninstall()
    summary = tracer.summary()
    for span_name in ("cli.prepare", "cli.draw"):
        assert summary[(span_name, "setup")][0] == 1, span_name
        assert summary[(span_name, "draw")][0] == 0, span_name
