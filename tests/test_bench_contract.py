"""The benchmark (``perfbench/run.py``) drives the sampler through its
set-up path: it writes each workload's instance to a file, parses the text,
builds a ``PipelineConfig`` and calls ``prepare_pipeline``, then reads
``forced_empty``, ``marking`` and ``run_csp`` and checks every draw with the
workload's own checker.  These tests run that path on each workload's seed-1
instance, loading ``perfbench/workloads.py`` read-only."""

import json
import sys
import types
from collections import Counter
from pathlib import Path

import pytest

from lllsampler import core, frontends, kernels, sampler
from lllsampler.cli import PipelineConfig, prepare_pipeline, run
from lllsampler.frontends import parse_dimacs, parse_hypergraph

WORKLOADS = (Path(__file__).resolve().parent.parent / "perfbench"
             / "workloads.py")


def load_workloads():
    """The workloads module, run from its source without writing a bytecode
    cache next to it (registered while it runs, for its dataclasses)."""
    module = types.ModuleType("perfbench_workloads")
    sys.modules[module.__name__] = module
    try:
        exec(compile(WORKLOADS.read_text(), str(WORKLOADS), "exec"),
             vars(module))
    finally:
        del sys.modules[module.__name__]
    return module


WORKLOAD = load_workloads().WORKLOADS


@pytest.mark.parametrize("name", sorted(WORKLOAD))
def test_benchmark_setup_path(name, tmp_path):
    w = WORKLOAD[name]
    instance = w.generate(1)
    path = tmp_path / "instance.txt"
    path.write_text(instance.text)
    parse = parse_dimacs if w.format == "dimacs" else parse_hypergraph
    cfg = PipelineConfig(str(path), w.format, w.pipeline, colors=w.colors,
                         seed=1, force=w.force)
    prepared = prepare_pipeline(parse(path.read_text()), cfg)
    assert prepared.forced_empty == w.forced_empty
    assert len(prepared.marking.marked) == prepared.run_csp.num_vars
    for i in range(5):
        assert instance.check_line(json.dumps(prepared.draw(1, i)))


def test_cnf_forced_rejection_attempts(monkeypatch):
    # the benchmark's out-of-regime draws are all lockstep rejection; their
    # attempt count and the rejection deviates they read are fixed by the
    # seed
    w = WORKLOAD["cnf-forced"]
    cfg = PipelineConfig("-", w.format, w.pipeline, seed=1, force=w.force)
    prepared = prepare_pipeline(parse_dimacs(w.generate(1).text), cfg)
    attempts = []
    rejection = sampler.rejection_sampling

    def counting(*args, **kwargs):
        values, n = rejection(*args, **kwargs)
        attempts.append(n)
        return values, n

    deviates = []
    uniforms = kernels.TapeStream.uniforms

    def counting_uniforms(self, k):
        deviates.append(k)
        return uniforms(self, k)

    monkeypatch.setattr(sampler, "rejection_sampling", counting)
    monkeypatch.setattr(kernels.TapeStream, "uniforms", counting_uniforms)
    for i in range(20):
        prepared.draw(1, i)
    assert len(attempts) == 20
    assert sum(attempts) == 16503
    assert sum(deviates) == 307_213


#: ``core.split_components`` calls in draws 0-19 of each seed-1 instance: in
#: regime no constraint is live after coalescence, and the empty marking's
#: tables are built on the first draw and kept
SPLITS = {"cnf-regime": 0, "coloring-q256": 0, "cnf-forced": 1}


@pytest.mark.parametrize("name", sorted(WORKLOAD))
def test_benchmark_component_splits(name, monkeypatch):
    w = WORKLOAD[name]
    cfg = PipelineConfig("-", w.format, w.pipeline, colors=w.colors, seed=1,
                         force=w.force)
    parse = parse_dimacs if w.format == "dimacs" else parse_hypergraph
    prepared = prepare_pipeline(parse(w.generate(1).text), cfg)
    calls = []
    split = kernels.split_components

    def counting(*args):
        calls.append(args)
        return split(*args)

    monkeypatch.setattr(kernels, "split_components", counting)
    for i in range(20):
        prepared.draw(1, i)
    assert len(calls) == SPLITS[name]
    kept = [m for build, m in prepared.run_csp.memo
            if build is sampler.free_tables]
    assert kept == ([prepared.marking] if w.forced_empty else [])


#: Chain deviates handed out by ``RandomnessTape.layered_block`` and
#: ``kernels.rejection_tables`` calls in draws 0-19 of each seed-1 instance.
#: In regime every draw coalesces at its first horizon (4,096 > n = 3,000 on
#: cnf-regime, 8,192 > n = 8,160 on coloring-q256) with every marked slot
#: of the last sweep safe, so only that sweep's n deviates are read; and no
#: constraint is live after coalescence, so no table is built.  The empty
#: marking reads no chain deviate, and its tables are built once.  A draw
#: whose last sweep held a residual slot would read T deviates, not T + n:
#: the steps before that sweep, then the sweep's own block, once.
DEVIATES = {"cnf-regime": 60_000, "coloring-q256": 163_200, "cnf-forced": 0}
TABLES = {"cnf-regime": 0, "coloring-q256": 0, "cnf-forced": 1}


@pytest.mark.parametrize("name", sorted(WORKLOAD))
def test_benchmark_chain_deviates_and_tables(name, monkeypatch):
    w = WORKLOAD[name]
    cfg = PipelineConfig("-", w.format, w.pipeline, colors=w.colors, seed=1,
                         force=w.force)
    parse = parse_dimacs if w.format == "dimacs" else parse_hypergraph
    prepared = prepare_pipeline(parse(w.generate(1).text), cfg)
    deviates = []
    tables = []
    block = kernels.RandomnessTape.layered_block
    build = sampler.rejection_tables

    def counting_block(self, t_start, t_stop):
        deviates.append(t_stop - t_start)
        return block(self, t_start, t_stop)

    def counting_tables(*args):
        tables.append(args)
        return build(*args)

    monkeypatch.setattr(kernels.RandomnessTape, "layered_block",
                        counting_block)
    monkeypatch.setattr(sampler, "rejection_tables", counting_tables)
    for i in range(20):
        prepared.draw(1, i)
    assert sum(deviates) == DEVIATES[name]
    assert len(tables) == TABLES[name]


#: (``core.compute_measures``, ``core.constraint_degree``) calls in one
#: seed-1 set-up and its first five draws.  The out-of-regime CNF is refused
#: at its largest variable degree d (ln p = -2.08 > -11.70 at d = 8), so its
#: Delta is never counted; the in-regime CNF's d = 2 cannot refuse, so its
#: Delta is counted once; the coloring's measures are derived from its
#: hypergraph, whose own Delta is counted once.
MEASURE_COUNTS = {"cnf-forced": (0, 0), "cnf-regime": (1, 1),
                  "coloring-q256": (0, 1)}


@pytest.mark.parametrize("name", sorted(WORKLOAD))
def test_benchmark_setup_counts_measures(name, monkeypatch):
    w = WORKLOAD[name]
    cfg = PipelineConfig("-", w.format, w.pipeline, colors=w.colors, seed=1,
                         force=w.force)
    parse = parse_dimacs if w.format == "dimacs" else parse_hypergraph
    instance = parse(w.generate(1).text)
    counts = Counter()

    def count(owner, attr):
        f = getattr(owner, attr)

        def counting(*args):
            counts[attr] += 1
            return f(*args)

        monkeypatch.setattr(owner, attr, counting)

    count(core, "compute_measures")
    count(core, "constraint_degree")
    # ``build_coloring`` calls its own import
    monkeypatch.setattr(frontends, "constraint_degree",
                        core.constraint_degree)
    prepared = prepare_pipeline(instance, cfg)
    for i in range(5):
        prepared.draw(1, i)
    assert (counts["compute_measures"],
            counts["constraint_degree"]) == MEASURE_COUNTS[name]


def test_check_counts_the_refused_instance_delta(tmp_path, capsys):
    # ``check`` still reports the exact Delta of an instance refused at d
    path = tmp_path / "forced.cnf"
    path.write_text(WORKLOAD["cnf-forced"].generate(1).text)
    assert run(["check", "--input", str(path), "--format", "dimacs",
                "--pipeline", "binary", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert (report["measures"]["d"], report["measures"]["delta"]) == (8, 13)
    assert report["construction_error"].endswith("with Delta >= 8")
    assert not report["regime_ok"]
