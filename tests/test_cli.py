import collections
import io
import json
import math
import multiprocessing
import os
import random
import select
import subprocess
import sys
import threading
import time
from pathlib import Path

import click
import numpy as np
import pytest

import lllsampler.core
import lllsampler.marking
import lllsampler.tensorization
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


def test_unwritable_out_is_a_usage_error(cnf_file, tmp_path, monkeypatch,
                                        capsys):
    # raised before the instance is set up
    calls = []
    prepare = lllsampler.cli.prepare_pipeline

    def counting(*args):
        calls.append(args)
        return prepare(*args)

    monkeypatch.setattr(lllsampler.cli, "prepare_pipeline", counting)
    out = str(tmp_path / "missing" / "f.txt")
    sample = sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                         "binary", "--force", "--out", out)
    assert run(sample) == 1
    assert run(sample + ["--jobs", "2"]) == 1
    assert run(["check", "--input", cnf_file, "--format", "dimacs",
                "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.count("usage error: cannot write") == 3
    assert len(calls) == 1   # check's, which writes after its report
    # an existing file that may not be written stays so: a rename would
    # replace it (patched, since the superuser may write any file)
    locked = tmp_path / "locked.txt"
    locked.write_text("kept\n")
    os_open = os.open

    def refuse(path, flags, *args, **kwargs):
        if path == str(locked):
            raise PermissionError(13, "Permission denied", path)
        return os_open(path, flags, *args, **kwargs)

    monkeypatch.setattr(os, "open", refuse)
    assert run(sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                           "binary", "--force", "--out", str(locked))) == 1
    assert "usage error: cannot write" in capsys.readouterr().err
    assert len(calls) == 1 and locked.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["locked.txt", "tiny.cnf"]


def test_out_is_replaced_only_by_a_whole_run(tmp_path, capsys):
    # the draws need a horizon above 1: the run fails after its set-up, and
    # leaves neither a partial --out nor a temporary file, under --jobs too
    regime = tmp_path / "regime.json"
    regime.write_text(emit_csp(binary_regime_instance(1.0)))
    out = tmp_path / "out.txt"
    base = sample_args(str(regime), "--pipeline", "binary", "--num", "40",
                       "--out", str(out))
    for jobs in ("1", "2"):
        assert run(base + ["--jobs", jobs, "--max-horizon", "1"]) == 4
        assert "no coalescence by horizon 1" in capsys.readouterr().err
        assert sorted(os.listdir(tmp_path)) == ["regime.json"]
    # an existing --out keeps its text and mode until a run succeeds
    out.write_text("old\n")
    out.chmod(0o640)
    assert run(base + ["--max-horizon", "1"]) == 4
    assert out.read_text() == "old\n"
    assert run(base) == 0
    assert len(out.read_text().splitlines()) == 40
    assert out.stat().st_mode & 0o777 == 0o640
    assert sorted(os.listdir(tmp_path)) == ["out.txt", "regime.json"]
    # a new --out gets the mode that the umask leaves
    umask = os.umask(0o022)
    try:
        fresh = tmp_path / "fresh.txt"
        assert run(sample_args(str(regime), "--pipeline", "binary", "--out",
                               str(fresh))) == 0
        assert fresh.stat().st_mode & 0o777 == 0o644
    finally:
        os.umask(umask)


def test_non_regular_out_is_written_directly(cnf_file, tmp_path, capsys):
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    got = []
    reader = threading.Thread(target=lambda: got.append(fifo.read_text()),
                              daemon=True)
    reader.start()
    args = sample_args(cnf_file, "--format", "dimacs", "--pipeline", "binary",
                       "--force", "--num", "5", "--seed", "3")
    assert run(args + ["--out", str(fifo)]) == 0
    reader.join(timeout=30)
    assert not reader.is_alive()
    assert run(args) == 0
    assert got == [capsys.readouterr().out]
    assert len(got[0].splitlines()) == 5
    # a symlink is written through, and stays a symlink
    target = tmp_path / "target.txt"
    target.write_text("old\n")
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    assert run(args + ["--out", str(link)]) == 0
    assert link.is_symlink() and target.read_text() == got[0]
    assert sorted(os.listdir(tmp_path)) == ["fifo", "link.txt", "target.txt",
                                            "tiny.cnf"]


def test_jobs_leave_no_worker_running(cnf_file, tmp_path, capsys):
    regime = tmp_path / "regime.json"
    regime.write_text(emit_csp(binary_regime_instance(1.0)))
    for args, code in (
            # a set-up error: out of regime without --force
            (sample_args(cnf_file, "--format", "dimacs", "--pipeline",
                         "binary", "--num", "40"), 3),
            # a draw error: every draw needs a horizon above 1
            (sample_args(str(regime), "--pipeline", "binary", "--num", "40",
                         "--max-horizon", "1"), 4),
            (sample_args(str(regime), "--pipeline", "binary", "--num", "40"),
             0)):
        assert run(args + ["--jobs", "2"]) == code
        assert multiprocessing.active_children() == []
    capsys.readouterr()


def program(*args):
    """The CLI run as a program, on this checkout's package."""
    src = str(Path(lllsampler.__file__).parents[1])
    main = (f"import sys; sys.path.insert(0, {src!r}); "
            "from lllsampler.cli import main; main()")
    return [sys.executable, "-c", main, *args]


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_closed_reader_stops_the_draws(cnf_file, jobs):
    # 10^7 draws take minutes; a reader that closes after one line stops
    # the run at once, with exit 1 (EPIPE) and nothing on stderr
    proc = subprocess.Popen(program(*sample_args(
        cnf_file, "--format", "dimacs", "--pipeline", "binary", "--force",
        "--num", str(10**7), "--jobs", jobs)), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    try:
        assert select.select([proc.stdout], [], [], 30)[0], "no line in 30 s"
        assert len(json.loads(proc.stdout.readline())) == 3
        proc.stdout.close()
        t0 = time.perf_counter()
        err = proc.communicate(timeout=60)[1]
    finally:
        proc.kill()
        proc.wait()
    assert time.perf_counter() - t0 < 20
    assert (proc.returncode, err) == (1, b"")


@pytest.mark.slow
def test_sample_memory_is_flat_in_num(tmp_path):
    # the largest process of a sample run, workers included, peaks at the
    # same RSS for 2,000 and 8,000 draws of 9 KB lines: nothing holds the
    # whole output
    path = tmp_path / "regime.cnf"
    path.write_text(regime_dimacs(3000, 200, seed=1))
    measure = ("import resource, subprocess, sys; "
               "code = subprocess.run(sys.argv[1:], "
               "stdout=subprocess.DEVNULL).returncode; "
               "print(code, resource.getrusage("
               "resource.RUSAGE_CHILDREN).ru_maxrss)")
    for jobs in ("1", "2"):
        peaks = []
        for num in ("2000", "8000"):
            out = subprocess.run([sys.executable, "-c", measure, *program(
                *sample_args(str(path), "--format", "dimacs", "--pipeline",
                             "binary", "--seed", "1", "--num", num, "--jobs",
                             jobs))], capture_output=True, text=True,
                check=True).stdout.split()
            assert out[0] == "0"
            peaks.append(int(out[1]) / 1024)   # KB on Linux
        assert abs(peaks[1] - peaks[0]) < 10, (jobs, peaks)


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


CONDITIONS = ("e_alpha_delta_le_1", "e_delta2_rho_le_1_32",
              "delta2_lambda_le_1_16")


def tightest_of(conditions):
    """The condition with the largest ln-slack, read off the report."""
    slack = {name: conditions[name.rsplit("_le_", 1)[0] + "_log_slack"]
             for name in CONDITIONS}
    return max(CONDITIONS, key=slack.get)


def test_check_names_the_tightest_condition(tmp_path, capsys):
    # an admitted instance: the Q=256 one-edge coloring
    path = tmp_path / "h.hg"
    path.write_text("h 32 1 32\n" + " ".join(map(str, range(1, 33))) + "\n")
    assert run(["check", "--input", str(path), "--format", "hypergraph",
                "--pipeline", "coloring", "--colors", "256"]) == 0
    conditions = json.loads(capsys.readouterr().out)["conditions"]
    assert conditions["passed"]
    assert set(conditions) == {*CONDITIONS, "e_alpha_delta_log_slack",
                               "e_delta2_rho_log_slack",
                               "delta2_lambda_log_slack", "passed",
                               "tightest"}
    assert conditions["tightest"] == tightest_of(conditions)
    # a forced fallback: the empty marking of a refused 3-CNF, whose
    # lambda = k^2 = 9 is the furthest from holding
    csp = parse_dimacs(regime_dimacs(300, 3, seed=1))
    prepared = prepare_pipeline(
        csp, PipelineConfig("-", "dimacs", "binary", seed=1, force=True))
    assert prepared.forced_empty
    conditions = check_theorem_conditions(prepared.run_csp,
                                          prepared.marking).as_dict()
    assert not conditions["passed"]
    assert conditions["tightest"] == tightest_of(conditions) == (
        "delta2_lambda_le_1_16")


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


def test_deep_trees_need_no_recursion(tmp_path, capsys):
    # weights 0.6^i over 1,000 values make a 999-level Huffman chain
    weights = [0.6 ** i for i in range(1000)]
    total = math.fsum(weights)
    p = tmp_path / "deep.json"
    p.write_text(json.dumps({
        "vars": [{"domain": 1000, "weights": [w / total for w in weights]}]
        * 3, "constraints": [{"vbl": [0, 1, 2], "false": [0, 0, 0]}]}))
    args = ["--input", str(p), "--pipeline", "general"]
    assert run(["check", *args]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["construction_error"].startswith(
        "no marking can pass the theorem's conditions")
    assert run(["sample", *args, "--force", "--num", "3"]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    assert run(["tensorize", *args]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3 * 2000


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and report["tree_products_ok"]


def test_jobs_invariant_output(cnf_file, tmp_path):
    # more workers than draws, and shares of unequal length, too
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    # and several chunks of draws with a shorter last one
    for num, jobs in ((8, 3), (3, 5), (7, 2), (100, 2), (100, 3)):
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
    # scipy costs a process about 20 MB and 0.3 s, and only the tests need
    # it: ``verify.certify`` computes its chi-square tail itself
    src = str(Path(lllsampler.__file__).parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r})\n"
            "def loaded():\n"
            "    print(*sorted(m for m in sys.modules"
            " if m.split('.')[0] == 'scipy'))\n"
            "for name in ('lllsampler', 'lllsampler.cli',"
            " 'lllsampler.verify'):\n"
            "    __import__(name)\n"
            "    loaded()\n"
            "from lllsampler import (AtomicCsp, Marking, VariableSpec,"
            " certify, enumerate_law, sample)\n"
            "spec = VariableSpec.uniform(2)\n"
            "csp = AtomicCsp((spec, spec), [0, 1], [0, 0], [2])\n"
            "report = certify(lambda i: sample(csp, Marking.empty(2), i)"
            ".assignment.tolist(), enumerate_law(csp), 200)\n"
            "assert report['passed'], report\n"
            "loaded()\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert out == "\n\n\n\n"


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


def test_coloring_setup_builds_the_template_once(monkeypatch):
    # the Q-leaf template and its tables are built once per process, and
    # each instance's ln p_C once: a second set-up rebuilds no part of the
    # template and reads the same marking and draws.  Nothing lists a
    # variable's constraints: the measures are derived, each constraint's
    # variables ascend, and the draws grow no component
    counts = collections.Counter()

    def count(owner, name):
        f = getattr(owner, name)

        def counting(*args, **kw):
            counts[name] += 1
            return f(*args, **kw)

        monkeypatch.setattr(owner, name, counting)

    for owner, name in ((lllsampler.tensorization, "_balanced"),
                        (lllsampler.tensorization.TensorTree, "leaf_product"),
                        (lllsampler.tensorization, "marked_path_log2"),
                        (lllsampler.core, "constraint_sums"),
                        (lllsampler.marking, "constraint_sums"),
                        (lllsampler.tensorization, "constraint_sums")):
        count(owner, name)
    lllsampler.tensorization.complete_binary_tensorize_with_marking \
        .cache_clear()
    instance = HypergraphInstance(32, (tuple(range(32)),))
    cfg = PipelineConfig("-", "hypergraph", "coloring", colors=256, seed=3)
    draws = []
    for expected in ({"_balanced": 511, "leaf_product": 512,
                      "marked_path_log2": 256, "constraint_sums": 5},
                     {"constraint_sums": 5}):
        counts.clear()
        prepared = prepare_pipeline(instance, cfg)
        assert counts == expected
        draws.append([prepared.draw(3, i) for i in range(50)])
        for csp in (prepared.original, prepared.run_csp):
            assert "var_cons" not in csp.flat.__dict__
    assert draws[0] == draws[1]


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
