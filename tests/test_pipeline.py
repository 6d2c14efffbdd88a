"""The library pipeline (``lllsampler.pipeline``) and the package's public
names: set-up, draws and ``check``'s report without the CLI, which prints
the same; config errors raised, not reported; and imports that load no
click."""

import ast
import inspect
import json
import subprocess
import sys
from pathlib import Path

import pytest

import lllsampler
from lllsampler import (ConfigError, HypergraphInstance, PipelineConfig,
                        check_report, emit_csp, emit_hypergraph, parse_dimacs,
                        prepare_pipeline)
from lllsampler.cli import run

from conftest import weighted8
from test_golden import regime_dimacs, uniform_octal, weighted_ternary

INIT = Path(lllsampler.__file__)


@pytest.mark.parametrize("name", ["lllsampler", "lllsampler.pipeline",
                                  "lllsampler.cli"])
def test_only_the_cli_loads_click(name):
    # each import in a new process; the CLI's is the probe's control
    code = (f"import sys; sys.path.insert(0, {str(INIT.parents[1])!r})\n"
            f"import {name}\n"
            "print(*sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'click'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert ("click" in out.split()) == (name == "lllsampler.cli")


def test_all_is_a_literal_list_of_the_public_names():
    (value,) = [node.value for node in ast.parse(INIT.read_text()).body
                if isinstance(node, ast.Assign)
                and [getattr(t, "id", None) for t in node.targets]
                == ["__all__"]]
    assert isinstance(value, ast.List)
    assert all(isinstance(e, ast.Constant) and isinstance(e.value, str)
               for e in value.elts)
    names = [e.value for e in value.elts]
    assert names == lllsampler.__all__ and len(set(names)) == len(names)
    for name in names:
        assert not inspect.ismodule(getattr(lllsampler, name)), name
    namespace = {}
    exec("from lllsampler import *", namespace)
    del namespace["__builtins__"]
    assert namespace.keys() == set(names)
    # the layers' internals are imported from their modules
    for name in ("component", "safe_pmf", "exact_component_marginal",
                 "rejection_sampling", "kl_divergence",
                 "verify_numeric_facts"):
        assert not hasattr(lllsampler, name), name


def instance_file(tmp_path, pipeline):
    """An in-regime instance for ``pipeline``, parsed and as a file, with
    the format and color count to read it."""
    if pipeline == "binary":
        text, fmt, colors = regime_dimacs(), "dimacs", 0
        instance = parse_dimacs(text)
    elif pipeline == "coloring":
        instance = HypergraphInstance(32, (tuple(range(32)),))
        text, fmt, colors = emit_hypergraph(instance), "hypergraph", 256
    else:
        instance = (weighted_ternary() if pipeline == "general"
                    else uniform_octal())
        text, fmt, colors = emit_csp(instance), "csp", 0
    path = tmp_path / f"{pipeline}.{fmt}"
    path.write_text(text)
    return instance, str(path), fmt, colors


@pytest.mark.parametrize("pipeline", ["binary", "general", "uniform",
                                      "coloring"])
def test_library_pipeline_is_what_the_cli_prints(pipeline, tmp_path, capsys):
    instance, path, fmt, colors = instance_file(tmp_path, pipeline)
    cfg = PipelineConfig(path, fmt, pipeline, colors=colors, seed=3)
    prepared = prepare_pipeline(instance, cfg)
    report = check_report(instance, cfg)
    assert report["regime_ok"] and not prepared.forced_empty
    draws = [prepared.draw(3, i) for i in range(4)]
    assert all(prepared.original.satisfies(d) for d in draws)
    argv = ["--input", path, "--format", fmt, "--pipeline", pipeline,
            "--seed", "3"] + (["--colors", str(colors)] if colors else [])
    capsys.readouterr()
    assert run(["sample", "--num", "4", *argv]) == 0
    assert capsys.readouterr().out == "".join(json.dumps(d) + "\n"
                                              for d in draws)
    assert run(["check", *argv]) == 0
    assert capsys.readouterr().out == json.dumps(report, indent=1) + "\n"


def test_check_report_names_the_construction_error():
    # a refused set-up is reported; with ``force`` the empty marking is
    instance = weighted_ternary(6)
    cfg = PipelineConfig("-", "csp", "general")
    report = check_report(instance, cfg)
    assert not report["regime_ok"] and "construction_error" in report
    assert "constants" not in report
    forced = check_report(instance, PipelineConfig("-", "csp", "general",
                                                   force=True))
    assert forced["forced_empty_marking"] and forced["marked_count"] == 0
    assert not forced["regime_ok"] and "construction_error" not in forced


@pytest.mark.parametrize("pipeline, colors, hypergraph, message", [
    ("nope", 0, False, "unknown pipeline 'nope'"),
    ("coloring", 5, False, "the coloring pipeline takes a hypergraph"),
    ("binary", 0, True, "the coloring pipeline takes a hypergraph"),
    ("coloring", 0, True, "--colors is required for the coloring pipeline"),
])
def test_config_errors_are_raised_not_reported(pipeline, colors, hypergraph,
                                               message):
    instance = (HypergraphInstance(3, ((0, 1, 2),)) if hypergraph
                else weighted8()[0])
    cfg = PipelineConfig("-", "csp", pipeline, colors=colors, force=True)
    for build in (prepare_pipeline, check_report):
        with pytest.raises(ConfigError) as raised:
            build(instance, cfg)
        assert str(raised.value).startswith(message)


def test_cli_prints_a_config_error_as_a_usage_error(tmp_path, capsys):
    path = tmp_path / "h.hg"
    path.write_text("h 3 1 3\n1 2 3\n")
    for command in ("sample", "check"):
        assert run([command, "--input", str(path), "--format", "hypergraph",
                    "--pipeline", "coloring"]) == 1
        assert capsys.readouterr().err == (
            "usage error: --colors is required for the coloring pipeline\n")
