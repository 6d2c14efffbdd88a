"""The benchmark's span tracer (``perfbench/spans.py``) wraps package
functions and methods by name.  These tests load it read-only and check that
every name it lists still resolves, and that installing and uninstalling the
tracer leaves the package as it was."""

import importlib
import sys
import types
from pathlib import Path

import lllsampler
import lllsampler.cli  # noqa: F401  (the tracer wraps names in every module)

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
