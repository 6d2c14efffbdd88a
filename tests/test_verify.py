import math
import random

import numpy as np
import pytest

from lllsampler import (BudgetError, Marking, UnsatisfiableInstanceError,
                        VariableSpec, certify_sampler,
                        check_bounding_invariant, coalescence_experiment,
                        enumerate_law, tv_distance)
from lllsampler.verify import enumerate_law_recursive, law_of_projection

from test_kernels import random_csp
from conftest import csp_of, free8, weighted8


def test_enumerators_agree_on_random_instances():
    rng = random.Random(4)
    done = 0
    while done < 50:
        csp = random_csp(rng, n=4, m=3)
        try:
            a = enumerate_law(csp)
        except UnsatisfiableInstanceError:
            continue
        b = enumerate_law_recursive(csp)
        assert a.support == b.support
        for pa, pb in zip(a.pmf, b.pmf):
            assert pa == pytest.approx(pb, abs=1e-12)
        assert math.fsum(a.pmf) == pytest.approx(1.0, abs=1e-12)
        done += 1


def test_certify_one_solution_instance():
    # the only outcome has probability 1: z-score 0, chi-square p 1
    spec = VariableSpec.uniform(2)
    csp = csp_of([spec, spec], [((0,), (0,)), ((1,), (1,))])
    report = certify_sampler(csp, Marking.empty(2), 50, 1)
    assert report["tv_distance"] == 0.0
    assert report["max_z_score"] == 0.0
    assert report["chi_square_p"] == 1.0
    assert report["samples_outside_support"] == 0


def test_enumerate_law_free_instance():
    csp, _ = free8()
    law = enumerate_law(csp)
    assert len(law.support) == 256
    assert all(p == pytest.approx(1 / 256) for p in law.pmf)


def test_enumerate_budget_and_unsat():
    big = csp_of([VariableSpec.uniform(2) for _ in range(40)], [])
    with pytest.raises(BudgetError):
        enumerate_law(big)
    unsat = csp_of([VariableSpec.uniform(2)], [((0,), (0,)), ((0,), (1,))])
    with pytest.raises(UnsatisfiableInstanceError):
        enumerate_law(unsat)


def test_tv_distance_examples():
    assert tv_distance({"a": 1.0}, {"a": 1.0}) == 0.0
    assert tv_distance({"a": 1.0}, {"b": 1.0}) == 1.0
    assert tv_distance({"a": 0.5, "b": 0.5}, {"a": 1.0}) == pytest.approx(0.5)


def test_restricted_law():
    csp, m = weighted8()
    law = enumerate_law(csp)
    proj = law_of_projection(csp, m)
    assert len(proj.support) == 32
    assert math.fsum(proj.pmf) == pytest.approx(1.0)
    # marginal of a marked variable matches the direct sum
    p1 = sum(p for k, p in zip(proj.support, proj.pmf) if k[0] == 1)
    q1 = sum(p for k, p in zip(law.support, law.pmf) if k[0] == 1)
    assert p1 == pytest.approx(q1, abs=1e-12)


def test_certify_accepts_the_real_sampler():
    csp, m = weighted8()
    out = certify_sampler(csp, m, 3000, seed=12)
    assert out["samples_outside_support"] == 0
    assert out["tv_distance"] < 0.12
    assert out["chi_square_p"] > 1e-4
    assert out["max_marginal_gap"] < 0.05


def test_certify_detects_a_broken_sampler(monkeypatch):
    # falsification probe: skip the unmarked extension and pad with zeros;
    # certification must flag the wrong law
    import lllsampler.verify as verify_mod

    def broken(csp, m, state, seed):
        return np.maximum(state, 0), 0

    monkeypatch.setattr("lllsampler.sampler.final_sampling", broken)
    csp, m = weighted8()
    out = verify_mod.certify_sampler(csp, m, 1500, seed=12)
    assert (out["samples_outside_support"] > 0
            or out["chi_square_p"] < 1e-6 or out["tv_distance"] > 0.2)


def test_coalescence_experiment_bound():
    csp, m = weighted8()
    rows = coalescence_experiment(csp, m, [8, 40, 80], trials=200, seed=3)
    assert rows[0]["tail_bound"] == 1.0  # 32 * 2^-1 clips at 1
    assert rows[1]["tail_bound"] == pytest.approx(1.0)
    assert rows[2]["tail_bound"] == pytest.approx(32 * 2 ** -10.0)
    for row in rows:
        if row["bound_applies"]:
            assert row["non_coalesced_fraction"] <= row["tail_bound"] + 0.1
    # monotone improvement with the horizon
    fracs = [r["non_coalesced_fraction"] for r in rows]
    assert fracs[2] <= fracs[0]


def test_bounding_invariant_holds():
    csp, m = weighted8()
    out = check_bounding_invariant(csp, m, T=64, trials=100, seed=21)
    assert out["containment_violations"] == 0
    assert out["coalesced"] > 0
    assert out["equality_failures"] == 0
    assert out["sweep_mismatches"] == 0
