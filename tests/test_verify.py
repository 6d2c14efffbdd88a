import itertools
import math
import random

import numpy as np
import pytest

from lllsampler import (BudgetError, Marking, UnsatisfiableInstanceError,
                        VariableSpec, certify, derive_seed, enumerate_law,
                        sample, tv_distance)
from lllsampler.core import enumerate_solutions
from lllsampler.verify import (ExactLaw, check_bounding_invariant, chi2_sf,
                               coalescence_experiment)

from test_kernels import random_csp
from conftest import csp_of, free8, law_of_projection, weighted8


def certify_sample(csp, m, num, seed):
    """``certify`` over ``sample``'s draws, draw i at seed
    ``derive_seed(seed, "certify", i)``."""
    return certify(
        lambda i: sample(csp, m, derive_seed(seed, "certify", i)
                         ).assignment.tolist(),
        enumerate_law(csp), num)


def product_order_law(csp):
    """The reference law: every assignment in product order, kept when
    ``csp.satisfies`` it, its weight multiplied left to right from 1.0;
    None when no assignment satisfies."""
    support, weights = [], []
    for outcome in itertools.product(
            *(range(s.domain_size) for s in csp.vars)):
        if csp.satisfies(list(outcome)):
            w = 1.0
            for v, q in enumerate(outcome):
                w *= csp.vars[v].weights[q]
            support.append(outcome)
            weights.append(w)
    if not support:
        return None
    z = math.fsum(weights)
    return ExactLaw(tuple(support), tuple(w / z for w in weights))


def law_or_none(csp):
    try:
        return enumerate_law(csp)
    except UnsatisfiableInstanceError:
        return None


def with_fixed_variables(rng, n, m):
    """Up to n variables of domain 1 to 4, some of domain 1 with a weight
    that is not exactly 1.0, and m constraints of arity 1 to 4."""
    vars = []
    for _ in range(n):
        d = rng.choice([1, 1, 2, 3, 4])
        if d == 1:
            vars.append(VariableSpec(1, (rng.choice([1.0, 1.0 - 3e-13]),)))
        else:
            raw = [rng.uniform(0.05, 1.0) for _ in range(d)]
            vars.append(VariableSpec(d, tuple(w / sum(raw) for w in raw)))
    cons = []
    for _ in range(m):
        vbl = tuple(rng.sample(range(n), rng.randint(1, min(4, n))))
        cons.append(
            (vbl, tuple(rng.randrange(vars[v].domain_size) for v in vbl)))
    return csp_of(vars, cons)


def test_enumerators_agree_on_random_instances():
    # the same support, order and float weights as the product loop, exactly
    rng = random.Random(4)
    solved = 0
    for i in range(300):
        csp = (random_csp(rng, n=4, m=3) if i % 2 else
               with_fixed_variables(rng, rng.randint(1, 7), rng.randint(0, 9)))
        law = law_or_none(csp)
        expect = product_order_law(csp)
        assert law == expect
        if law is not None:
            assert math.fsum(law.pmf) == pytest.approx(1.0, abs=1e-12)
            solved += 1
    assert solved > 200


def test_enumerate_law_with_thousands_of_fixed_variables():
    # 2,000 domain-1 variables around 3 binary ones: a walk that recursed
    # once per variable would exceed Python's recursion limit
    n = 2003
    binary = (5, 1000, 2001)
    vars = [VariableSpec(2, (0.3, 0.7)) if v in binary
            else VariableSpec.uniform(1) for v in range(n)]
    csp = csp_of(vars, [((5, 1000), (0, 1)), ((4, 2001, 2002), (0, 1, 0))])
    law = enumerate_law(csp)
    assert law == product_order_law(csp)
    assert [(x[5], x[1000], x[2001]) for x in law.support] == [
        (0, 0, 0), (1, 0, 0), (1, 1, 0)]


def test_certify_one_solution_instance():
    # the only outcome has probability 1: z-score 0, chi-square p 1
    spec = VariableSpec.uniform(2)
    csp = csp_of([spec, spec], [((0,), (0,)), ((1,), (1,))])
    report = certify_sample(csp, Marking.empty(2), 50, 1)
    assert report["tv_distance"] == 0.0
    assert report["max_z_score"] == 0.0
    assert report["chi_square_p"] == 1.0
    assert report["samples_outside_support"] == 0
    assert report["passed"]


def test_certify_pools_every_cell_into_one_bin():
    # four outcomes expected twice each: one pooled bin, so p = 1, though
    # half the outcomes are never drawn; 8 draws are too few for TV to tell
    law = ExactLaw(((0, 0), (0, 1), (1, 0), (1, 1)), (0.25,) * 4)
    report = certify(lambda i: law.support[i % 2], law, 8)
    assert report["chi_square_p"] == 1.0
    assert report["tv_distance"] == 0.5
    assert report["tv_threshold"] == math.sqrt(0.5)
    assert report["max_marginal_gap"] == 0.5
    assert report["passed"]


def test_chi2_sf_matches_scipy():
    from scipy import stats

    assert chi2_sf(0.0, 1) == 1.0
    assert chi2_sf(0.0, 255) == 1.0
    qs = np.concatenate([np.logspace(-12, -1, 23), np.linspace(0.1, 0.9, 9),
                         1.0 - np.logspace(-1, -12, 23)])
    for df in (1, 2, 3, 5, 10, 37, 100, 255, 1000, 4096, 10000):
        for q in qs:
            x = float(stats.chi2.isf(q, df))
            assert chi2_sf(x, df) == pytest.approx(stats.chi2.sf(x, df),
                                                   rel=1e-10, abs=0.0)


def test_enumerate_law_free_instance():
    csp, _ = free8()
    law = enumerate_law(csp)
    assert len(law.support) == 256
    assert all(p == pytest.approx(1 / 256) for p in law.pmf)


def test_enumerate_budget_and_unsat():
    big = csp_of([VariableSpec.uniform(2) for _ in range(40)], [])
    with pytest.raises(BudgetError):
        enumerate_law(big)
    # the state count is checked before the first assignment; a space of
    # exactly the budget is enumerated
    with pytest.raises(BudgetError):
        next(enumerate_solutions([(0.5, 0.5)] * 25, [], 2 ** 24))
    assert len(list(enumerate_solutions([(0.5, 0.5)] * 4, [], 16))) == 16
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
    out = certify_sample(csp, m, 3000, seed=12)
    assert out["samples_outside_support"] == 0
    assert out["tv_distance"] < 0.12
    assert out["chi_square_p"] > 1e-4
    assert out["max_marginal_gap"] < 0.05


def test_certify_detects_a_broken_sampler(monkeypatch):
    # falsification probe: skip the unmarked extension and pad with zeros;
    # certification must flag the wrong law
    def broken(csp, m, state, seed):
        return np.maximum(state, 0), 0

    monkeypatch.setattr("lllsampler.sampler.final_sampling", broken)
    csp, m = weighted8()
    out = certify_sample(csp, m, 1500, seed=12)
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
