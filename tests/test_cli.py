import io
import json
import random
import subprocess
import sys
from pathlib import Path

import click
import numpy as np
import pytest

import lllsampler.marking
import lllsampler.verify
from lllsampler import (STAR, HypergraphInstance, VariableSpec,
                        check_theorem_conditions, emit_csp, sample)
from lllsampler.cli import PipelineConfig, cli, prepare_pipeline, run
from lllsampler.frontends import parse_dimacs, parse_hypergraph

from conftest import csp_of, ternary9, weighted8
from test_golden import regime_dimacs, uniform_octal, weighted_ternary
from test_marking import binary_regime_instance


CNF = "p cnf 3 1\n1 2 3 0\n"


@pytest.fixture
def cnf_file(tmp_path):
    p = tmp_path / "tiny.cnf"
    p.write_text(CNF)
    return str(p)


@pytest.fixture
def csp_file(tmp_path):
    csp, _ = weighted8()
    p = tmp_path / "w8.json"
    p.write_text(emit_csp(csp))
    return str(p)


def sample_args(path, *extra):
    return ["sample", "--input", path, *extra]


def test_sample_binary_force(cnf_file, capsys):
    code = run(sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                           "binary", "--force", "--num", "5", "--seed", "1"))
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 5
    for line in lines:
        values = json.loads(line)
        assert len(values) == 3 and values != [0, 0, 0]


def test_sample_deterministic(cnf_file, capsys):
    args = sample_args(cnf_file, "--format", "dimacs", "--pipeline", "binary",
                       "--force", "--num", "4", "--seed", "9")
    assert run(args) == 0
    first = capsys.readouterr().out
    assert run(args) == 0
    assert capsys.readouterr().out == first
    assert run(sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                           "binary", "--force", "--num", "4",
                           "--seed", "10")) == 0
    assert capsys.readouterr().out != first


def test_seed_env_fallback(cnf_file, capsys, monkeypatch):
    args = sample_args(cnf_file, "--format", "dimacs", "--pipeline", "binary",
                       "--force", "--num", "3")
    monkeypatch.setenv("LLL_SAMPLER_SEED", "77")
    assert run(args) == 0
    from_env = capsys.readouterr().out
    monkeypatch.delenv("LLL_SAMPLER_SEED")
    assert run(args + ["--seed", "77"]) == 0
    assert capsys.readouterr().out == from_env


def test_named_dimacs_output(cnf_file, capsys):
    assert run(sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                           "binary", "--force", "--named", "--seed", "2")) == 0
    lits = json.loads(capsys.readouterr().out.strip())
    assert sorted(abs(x) for x in lits) == [1, 2, 3]
    assert any(x > 0 for x in lits)  # the clause is satisfied


def test_exit_codes(cnf_file, tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    for text in ("p cnf 2 1\n1 5 0\n", "p cnf 2 1\n1 -1 5 0\n",
                 "p cnf 3 2\n3 0\np cnf 1 5\n", "p cnf 3 -1\n"):
        bad.write_text(text)
        assert run(sample_args(str(bad), "--format", "dimacs")) == 2
    # out-of-regime without --force
    assert run(sample_args(cnf_file, "--format", "dimacs",
                           "--pipeline", "binary")) == 3
    # coloring without --colors
    assert run(sample_args(cnf_file, "--format", "dimacs",
                           "--pipeline", "coloring")) == 1
    # coloring of an input that is not a hypergraph
    capsys.readouterr()
    assert run(sample_args(cnf_file, "--format", "dimacs",
                           "--pipeline", "coloring", "--colors", "5")) == 1
    json_file = tmp_path / "w8.json"
    json_file.write_text(emit_csp(weighted8()[0]))
    assert run(["check", "--input", str(json_file), "--pipeline", "coloring",
                "--colors", "5"]) == 1
    assert capsys.readouterr().err.count(
        "the coloring pipeline takes a hypergraph") == 2
    assert run(["sample", "--pipeline", "nope", "--input", cnf_file]) == 1
    # malformed JSON instances: a NaN weight, a non-numeric weight, a
    # non-list ``vbl`` or ``false``, and a boolean domain, variable or value
    for doc in ('{"vars": [{"domain": 2, "weights": [NaN, 0.5]}, '
                '{"domain": 2}], "constraints": [{"vbl": [0, 1], '
                '"false": [0, 0]}]}',
                '{"vars": [{"domain": 2, "weights": ["a", "b"]}]}',
                '{"vars": [{"domain": 2}], '
                '"constraints": [{"vbl": 0, "false": [0]}]}',
                '{"vars": [{"domain": 2}], '
                '"constraints": [{"vbl": [0], "false": 0}]}',
                # JSON booleans are not integers
                '{"vars": [{"domain": true}]}',
                '{"vars": [{"domain": 2}, {"domain": 2}], '
                '"constraints": [{"vbl": [true, 0], "false": [0, 1]}]}',
                '{"vars": [{"domain": 2}, {"domain": 2}], '
                '"constraints": [{"vbl": [1, 0], "false": [false, 1]}]}',
                # numbers that fit neither a float nor an index
                '{"vars": [{"domain": 2, "weights": [1%s, 1]}]}' % ("0" * 400),
                '{"vars": [{"domain": 1%s}]}' % ("0" * 400),
                '{"vars": [{"domain": 100000000000000000000}]}'):
        bad.write_text(doc)
        assert run(sample_args(str(bad), "--pipeline", "general",
                               "--force")) == 2
    # in regime, but the horizon cap stops the chain before coalescence
    regime = tmp_path / "regime.json"
    regime.write_text(emit_csp(binary_regime_instance(1.0)))
    assert run(sample_args(str(regime), "--pipeline", "binary",
                           "--max-horizon", "1")) == 4
    assert "no coalescence by horizon 1" in capsys.readouterr().err


def test_max_horizon_must_be_positive(cnf_file, capsys):
    # a horizon cap below 1 is a usage error, before any set-up or draw
    for command in ("sample", "verify"):
        for cap in ("0", "-5"):
            assert run([command, "--input", cnf_file, "--format", "dimacs",
                        "--pipeline", "binary", "--force",
                        "--max-horizon", cap]) == 1
            err = capsys.readouterr().err
            assert err.startswith("usage error: Invalid value for "
                                  "'--max-horizon'"), err


def test_jobs_keep_the_setup_exit_code(cnf_file, tmp_path):
    # a set-up error reaches the user as itself, on one line, as serially;
    # run as a program, so that whatever a worker writes shows
    src = str(Path(lllsampler.__file__).parents[1])
    main = (f"import sys; sys.path.insert(0, {src!r}); "
            "from lllsampler.cli import main; main()")
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 2 1\n1 5 0\n")
    for path, code, message in (
            (cnf_file, 3, "regime error: no marking can pass"),
            (str(tmp_path / "missing.cnf"), 1, "usage error: cannot read"),
            (str(bad), 2, "input error:")):
        proc = subprocess.run(
            [sys.executable, "-c", main, *sample_args(
                path, "--format", "dimacs", "--pipeline", "binary", "--num",
                "4", "--jobs", "2")], capture_output=True, text=True)
        assert proc.returncode == code
        err = proc.stderr.splitlines()
        assert len(err) == 1 and err[0].startswith(message)


def test_jobs_read_the_instance_from_stdin(monkeypatch, capsys):
    args = ["sample", "--format", "dimacs", "--pipeline", "binary", "--force",
            "--num", "4", "--seed", "2"]
    outs = []
    for jobs in ("1", "2"):
        monkeypatch.setattr(sys, "stdin", io.StringIO(CNF))
        assert run(args + ["--jobs", jobs]) == 0
        outs.append(capsys.readouterr().out)
    assert len(outs[0].splitlines()) == 4 and outs[1] == outs[0]


def test_unwritable_out_is_a_usage_error(cnf_file, tmp_path, capsys):
    out = str(tmp_path / "missing" / "f.txt")
    assert run(sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                           "binary", "--force", "--out", out)) == 1
    assert run(["check", "--input", cnf_file, "--format", "dimacs",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("usage error: cannot write") == 2


# Instances whose markings pass the theorem's conditions although the
# constructions' lemma regimes fail on them
BAND = {
    "binary": (parse_dimacs(regime_dimacs(3000, 60, seed=1)),
               PipelineConfig("-", "dimacs", "binary", seed=1)),
    "coloring": (HypergraphInstance(24, (tuple(range(24)),)),
                 PipelineConfig("-", "hypergraph", "coloring", colors=256,
                                seed=1)),
    "uniform": (uniform_octal(20), PipelineConfig("-", "csp", "uniform",
                                                  seed=1)),
    "general": (weighted_ternary(40), PipelineConfig("-", "csp", "general",
                                                     seed=1)),
}


@pytest.mark.parametrize("case", sorted(BAND))
def test_band_samples_without_force(case):
    instance, cfg = BAND[case]
    prepared = prepare_pipeline(instance, cfg)
    assert not prepared.forced_empty
    assert check_theorem_conditions(prepared.run_csp,
                                    prepared.marking).passed
    for i in range(3):
        values = prepared.draw(cfg.seed, i)
        assert prepared.original.satisfies(np.array(values))
        if case == "coloring":
            assert len(set(values)) > 1


def test_band_edge_exhausts_the_attempts(tmp_path, capsys):
    # at k = 30 no attempt passes the conditions: exit 4 after 64 attempts,
    # or the empty marking under --force
    path = tmp_path / "k30.cnf"
    path.write_text(regime_dimacs(3000, 30, seed=1))
    args = sample_args(str(path), "--format", "dimacs", "--pipeline", "binary")
    assert run(args) == 4
    assert "failed after 64 attempts" in capsys.readouterr().err
    assert run(["check", *args[1:]]) == 0
    report = json.loads(capsys.readouterr().out)
    assert "failed after 64 attempts" in report["construction_error"]
    assert not report["regime_ok"]
    assert run(args + ["--force", "--num", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3


def test_check_reports_both_sides_of_the_bound(cnf_file, tmp_path, capsys):
    path = tmp_path / "k60.cnf"
    path.write_text(regime_dimacs(3000, 60, seed=1))
    assert run(["check", "--input", str(path), "--format", "dimacs",
                "--pipeline", "binary", "--seed", "1"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["regime_ok"] and not report["forced_empty_marking"]
    assert report["conditions"]["passed"]
    assert run(["check", "--input", cnf_file, "--format", "dimacs",
                "--pipeline", "binary"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert not report["regime_ok"]
    assert report["construction_error"].startswith(
        "no marking can pass the theorem's conditions")


def test_uniform_pipeline_needs_uniform_domains(tmp_path, capsys):
    # the uniform trees, the fallback's included, reproduce only uniform
    # weights: out of regime with and without --force
    path = tmp_path / "nonuniform.json"
    path.write_text('{"vars": [{"domain": 3, "weights": [0.5, 0.3, 0.2]}, '
                    '{"domain": 3}], "constraints": [{"vbl": [0, 1], '
                    '"false": [0, 0]}]}')
    message = "uniform tensorization needs uniform domains"
    for force in ((), ("--force",)):
        assert run(sample_args(str(path), "--pipeline", "uniform",
                               *force)) == 3
        assert message in capsys.readouterr().err
    assert run(["check", "--input", str(path), "--pipeline", "uniform"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["construction_error"] == message
    assert not report["regime_ok"]


def test_check_reports(csp_file, capsys):
    assert run(["check", "--input", csp_file, "--pipeline", "binary"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["num_vars"] == 8
    assert report["measures"]["k"] == 8
    assert "conditions" in report
    assert report["forced_empty_marking"] in (True, False)


def test_verify_small_instance(cnf_file, capsys):
    assert run(["verify", "--input", cnf_file, "--format", "dimacs",
                "--pipeline", "binary", "--force", "--num", "2000",
                "--seed", "5"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["passed"]
    assert report["containment_violations"] == 0


def test_verify_enumerates_law_once(cnf_file, capsys, monkeypatch):
    # the binary pipeline samples the instance itself: one enumeration
    # serves the TV check and the bounding invariant
    calls = []
    enumerate_law = lllsampler.verify.enumerate_law

    def counting(csp, *args, **kwargs):
        calls.append(csp)
        return enumerate_law(csp, *args, **kwargs)

    monkeypatch.setattr(lllsampler.verify, "enumerate_law", counting)
    assert run(["verify", "--input", cnf_file, "--format", "dimacs",
                "--pipeline", "binary", "--force", "--num", "200",
                "--seed", "5"]) == 0
    assert json.loads(capsys.readouterr().out)["passed"]
    assert len(calls) == 1


def test_verify_exit_5_on_wrong_law(cnf_file, capsys, monkeypatch):
    # filling STAR with 1 gives solutions of the instance, so the sampler's
    # own check passes, but their law is wrong: verify's verdict fails
    def ones(csp, m, state, seed):
        return np.where(state == STAR, 1, state), 0

    monkeypatch.setattr("lllsampler.sampler.final_sampling", ones)
    assert run(["verify", "--input", cnf_file, "--format", "dimacs",
                "--pipeline", "binary", "--force", "--num", "2000",
                "--seed", "5"]) == 5
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] is False
    assert report["tv_distance"] > report["tv_threshold"]


def test_bench_rows(csp_file, capsys):
    assert run(["bench", "--input", csp_file, "--pipeline", "binary",
                "--force", "--num", "50", "--seed", "3"]) == 0
    rows = [json.loads(x) for x in capsys.readouterr().out.strip().splitlines()]
    assert len(rows) == 3
    assert rows[0]["horizon"] < rows[2]["horizon"]


def test_tensorize_dump(csp_file, capsys):
    assert run(["tensorize", "--input", csp_file, "--pipeline",
                "general"]) == 0
    out = capsys.readouterr().out
    assert out.count("var ") == 8
    assert "leaf" in out
    # the binary pipeline has no trees to dump
    assert run(["tensorize", "--input", csp_file, "--pipeline",
                "binary"]) == 1
    capsys.readouterr()


def test_tensorize_labels_trees_with_input_variables(tmp_path, capsys):
    # preprocessing removes the domain-1 variable 1, and the dump names
    # the input's variables 0 and 2
    p = tmp_path / "fixed.json"
    p.write_text(json.dumps({
        "vars": [{"domain": 3, "weights": [0.5, 0.3, 0.2]}, {"domain": 1},
                 {"domain": 4}],
        "constraints": [{"vbl": [0, 2], "false": [0, 0]}]}))
    assert run(["tensorize", "--input", str(p), "--pipeline",
                "general"]) == 0
    out = capsys.readouterr().out
    assert [x for x in out.splitlines() if x.startswith("var ")] == [
        "var 0", "var 2"]


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and report["tree_products_ok"]


def test_jobs_invariant_output(cnf_file, tmp_path):
    # more workers than draws, and shares of unequal length, too
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    for num, jobs in ((8, 3), (3, 5), (7, 2)):
        base = sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                           "binary", "--force", "--num", str(num), "--seed",
                           "4")
        assert run(base + ["--out", str(out1)]) == 0
        assert run(base + ["--jobs", str(jobs), "--out", str(out2)]) == 0
        assert out1.read_text() == out2.read_text()
        assert len(out1.read_text().splitlines()) == num


def test_pipeline_api_binary():
    csp = binary_regime_instance(kappa=1.0)
    prepared = prepare_pipeline(csp, PipelineConfig("-", "csp", "binary",
                                                    seed=6))
    assert not prepared.forced_empty
    for i in range(3):
        assert csp.satisfies(prepared.draw(6, i))
    # a hypergraph is the coloring pipeline's input only
    with pytest.raises(click.UsageError, match="no other does"):
        prepare_pipeline(HypergraphInstance(3, ((0, 1, 2),)), PipelineConfig(
            "-", "hypergraph", "binary", colors=3, force=True))


def test_each_command_takes_only_the_options_it_reads(cnf_file, capsys):
    instance = {"--input", "--format", "--pipeline", "--colors", "--seed",
                "--out"}
    expected = {
        "sample": instance | {"--num", "--jobs", "--max-horizon", "--force",
                             "--named"},
        "verify": instance | {"--num", "--max-horizon", "--force"},
        "bench": instance | {"--num", "--force"},
        "check": instance,
        "tensorize": instance,
        "selftest": {"--seed", "--out"},
    }
    got = {name: {p.opts[0] for p in command.params}
           for name, command in cli.commands.items()}
    assert got == expected
    assert {name: len(c.params) for name, c in cli.commands.items()} == {
        "sample": 11, "verify": 9, "bench": 8, "check": 6, "tensorize": 6,
        "selftest": 2}
    assert run(["selftest", "--jobs", "2"]) == 1
    assert run(["check", "--input", cnf_file, "--format", "dimacs",
                "--force"]) == 1
    assert run(["verify", "--input", cnf_file, "--jobs", "2"]) == 1
    assert "No such option" in capsys.readouterr().err


def test_cli_import_skips_scipy_stats():
    # scipy costs a process about 20 MB and 0.3 s; only ``certify_sampler``
    # needs it (``scipy.stats``), and imports it itself
    src = str(Path(lllsampler.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "for name in ('lllsampler', 'lllsampler.cli'):\n"
            "    __import__(name)\n"
            "    print(*sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "\n\n"


@pytest.mark.parametrize("pipeline", ["binary", "coloring"])
def test_prepare_computes_marking_constants_once(pipeline, monkeypatch):
    # the theorem check and the chain's update context share one result
    calls = []
    compute = lllsampler.marking.compute_constants

    def counting(csp, m):
        calls.append(m)
        return compute(csp, m)

    monkeypatch.setattr(lllsampler.marking, "compute_constants", counting)
    if pipeline == "binary":
        instance = binary_regime_instance(1.0)
        cfg = PipelineConfig("-", "csp", "binary", seed=3)
    else:
        # the smallest in-regime Q=256 coloring: one 32-vertex edge
        instance = HypergraphInstance(32, (tuple(range(32)),))
        cfg = PipelineConfig("-", "hypergraph", "coloring", colors=256,
                             seed=3)
    prepared = prepare_pipeline(instance, cfg)
    assert not prepared.forced_empty
    assert calls == [prepared.marking]


def test_binary_pipeline_reads_only_the_arrays():
    # parsing, set-up and draws of an in-regime CNF, all on ``csp.flat``
    rng = random.Random(5)
    n, k = 600, 200
    lines = [f"p cnf {n} {2 * n // k}"]
    for _ in range(2):
        perm = rng.sample(range(1, n + 1), n)
        lines += [" ".join(str(v * rng.choice((1, -1)))
                           for v in perm[i:i + k]) + " 0"
                  for i in range(0, n, k)]
    csp = parse_dimacs("\n".join(lines) + "\n")
    prepared = prepare_pipeline(csp, PipelineConfig("-", "dimacs", "binary",
                                                    seed=1))
    assert not prepared.forced_empty
    for i in range(20):
        assert len(prepared.draw(1, i)) == n


def test_coloring_pipeline_reads_only_the_arrays():
    # the coloring instance and its tensorization are built from arrays,
    # and set-up and draws read only those
    h = parse_hypergraph(
        "h 32 1 32\n" + " ".join(str(v) for v in range(1, 33)) + "\n")
    prepared = prepare_pipeline(h, PipelineConfig(
        "-", "hypergraph", "coloring", colors=256, seed=1))
    assert not prepared.forced_empty
    assert prepared.tensorized is not None
    for i in range(5):
        values = prepared.draw(1, i)
        assert len(values) == 32 and len(set(values)) > 1


def test_check_builds_the_coloring_once(tmp_path, monkeypatch, capsys):
    calls = []
    build = lllsampler.cli.build_coloring

    def counting_build(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(lllsampler.cli, "build_coloring", counting_build)
    path = tmp_path / "h.hg"
    path.write_text("h 32 1 32\n" + " ".join(map(str, range(1, 33))) + "\n")
    assert run(["check", "--input", str(path), "--format", "hypergraph",
                "--pipeline", "coloring", "--colors", "256"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert len(calls) == 1
    assert report["num_vars"] == 32 and report["num_constraints"] == 256
    assert report["regime_ok"] and report["marked_count"] > 0


def test_general_pipeline_reinserts_fixed_variables():
    # size-1 domains leave preprocessing, and come back in each draw; with
    # only such variables, nothing is left to tensorize or to sample
    one, q3 = VariableSpec(1, (1.0,)), VariableSpec(3, (0.5, 0.3, 0.2))
    cfg = PipelineConfig("-", "csp", "general", force=True)
    fixed = prepare_pipeline(csp_of([one] * 3, []), cfg)
    assert fixed.tensorized.base.num_vars == 0
    assert [fixed.draw(0, i) for i in range(3)] == [[0, 0, 0]] * 3
    mixed = prepare_pipeline(
        csp_of([q3, one, q3, one], [((0, 1, 2), (2, 0, 2))]), cfg)
    assert mixed.kept_vars.tolist() == [0, 2]
    for i in range(50):
        values = mixed.draw(0, i)
        assert values[1] == values[3] == 0 and values[::2] != [2, 2]
        assert all(type(q) is int for q in values)


def test_general_pipeline_builds_one_tree_per_spec():
    # the variables of one spec share one Huffman tree object
    csp, _ = ternary9()
    prepared = prepare_pipeline(csp, PipelineConfig("-", "csp", "general",
                                                    force=True))
    trees = prepared.tensorized.trees
    assert len(trees) == 9 and all(t is trees[0] for t in trees)
    mixed = csp_of([VariableSpec(2, (0.3, 0.7)), VariableSpec.uniform(3),
                    VariableSpec(2, (0.3, 0.7))], [])
    trees = prepare_pipeline(mixed, PipelineConfig(
        "-", "csp", "general", force=True)).tensorized.trees
    assert trees[0] is trees[2] and trees[1] is not trees[0]


def test_residual_layer_reads_only_the_arrays():
    # the residual step (``component`` and the exact component marginal)
    # on ``csp.flat``
    csp, m = ternary9()
    for seed in range(20):
        record = sample(csp, m, seed, check_conditions=False)
        assert len(record.assignment) == csp.num_vars
