import json

import numpy as np
import pytest

import lllsampler.marking
import lllsampler.verify
from lllsampler import STAR, HypergraphInstance, emit_csp
from lllsampler.cli import (PipelineConfig, pipeline_binary, prepare_pipeline,
                           run)

from conftest import weighted8
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
    bad.write_text("p cnf 2 1\n1 5 0\n")
    assert run(sample_args(str(bad), "--format", "dimacs")) == 2
    # out-of-regime without --force
    assert run(sample_args(cnf_file, "--format", "dimacs",
                           "--pipeline", "binary")) == 3
    # coloring without --colors
    assert run(sample_args(cnf_file, "--format", "dimacs",
                           "--pipeline", "coloring")) == 1
    assert run(["sample", "--pipeline", "nope", "--input", cnf_file]) == 1
    # in regime, but the horizon cap stops the chain before coalescence
    regime = tmp_path / "regime.json"
    regime.write_text(emit_csp(binary_regime_instance(1.0)))
    assert run(sample_args(str(regime), "--pipeline", "binary",
                           "--max-horizon", "1")) == 4
    assert "no coalescence by horizon 1" in capsys.readouterr().err


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


def test_selftest(capsys):
    assert run(["selftest"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["all_passed"] and report["tree_products_ok"]


def test_jobs_invariant_output(cnf_file, tmp_path):
    out1 = tmp_path / "a.txt"
    out2 = tmp_path / "b.txt"
    base = sample_args(cnf_file, "--format", "dimacs", "--pipeline", "binary",
                       "--force", "--num", "8", "--seed", "4")
    assert run(base + ["--out", str(out1)]) == 0
    assert run(base + ["--jobs", "3", "--out", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_pipeline_api_binary():
    csp = binary_regime_instance(kappa=1.0)
    draws = pipeline_binary(csp, seed=6, num=3)
    assert len(draws) == 3
    for values in draws:
        assert csp.satisfies(values)


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
