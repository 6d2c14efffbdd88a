"""End-to-end acceptance criteria.

Each test prints one [PASS]/[FAIL] line; a failing criterion fails its test.
Tolerances are stated inline next to each assertion.
"""

import itertools
import math
import random
import time

import numpy as np
import pytest
from scipy import stats

from lllsampler import (HypergraphInstance, Marking, STAR, VariableSpec,
                        bounding_chain, check_bounding_invariant,
                        check_theorem_conditions, coalescence_experiment,
                        compute_measures, construct_marking_binary,
                        construct_marking_uniform_binary, derive_seed,
                        exact_component_marginal, final_sampling,
                        huffman_tensorize, sample, tensorize, trans,
                        tv_distance, verify_numeric_facts)
from lllsampler.cli import PipelineConfig, prepare_pipeline, run
from lllsampler.kernels import component
from lllsampler.marking import (DEFAULT_ZETA, UNIFORM_ETA, UNIFORM_TAU1,
                                UNIFORM_TAU2, binary_gamma)
from lllsampler.verify import enumerate_law

from conftest import (constraint_pairs, csp_of, free8, mixed_csp, overlap18,
                      projected_constraints, uniform20, weighted8)
from test_kernels import brute_component_marginal, random_csp
from test_marking import binary_regime_instance


def report(n, desc, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {n}: {desc}")
    assert ok


def binned_chi_square_p(counts, law, num):
    """Chi-square with small-expectation outcomes pooled into one bin
    (expected >= 5 per cell)."""
    observed, expected = [], []
    pool_o = pool_e = 0.0
    for key, p in zip(law.support, law.pmf):
        e = p * num
        o = counts.get(key, 0)
        if e < 5.0:
            pool_o += o
            pool_e += e
        else:
            observed.append(o)
            expected.append(e)
    if pool_e > 0.0:
        observed.append(pool_o)
        expected.append(pool_e)
    return float(stats.chisquare(observed, expected).pvalue)


def cnf6():
    vars = [VariableSpec.uniform(2) for _ in range(6)]
    cons = [((0, 1, 2), (0, 0, 0)),
            ((1, 3, 4), (1, 0, 0)),
            ((3, 4, 5), (1, 1, 0))]
    return csp_of(vars, cons)


def uniform3x4():
    vars = [VariableSpec.uniform(4) for _ in range(3)]
    return csp_of(vars, [((0, 1, 2), (0, 0, 0))])


def _cfg(pipeline, colors=0):
    return PipelineConfig("-", "csp", pipeline, colors=colors, seed=0,
                          force=True)


@pytest.mark.slow
def test_criterion_1_perfect_distribution():
    # >= 5 fixed instances; 2e5 samples each; TV <= 0.03; binned chi-square
    # p >= 1e-3; no samples outside the enumerated support; <= 10 min total
    num = 200_000
    t0 = time.time()
    cases = []
    for name, prepared, csp in [
        ("3cnf-binary", prepare_pipeline(cnf6(), _cfg("binary")), cnf6()),
        ("mixed-general", prepare_pipeline(mixed_csp(), _cfg("general")),
         mixed_csp()),
        ("q5-coloring", None, None),
        ("weighted8-marked", None, None),
        ("uniform-3x4", prepare_pipeline(uniform3x4(), _cfg("uniform")),
         uniform3x4()),
    ]:
        if name == "q5-coloring":
            h = HypergraphInstance(2, ((0, 1),))
            prepared = prepare_pipeline(
                h, PipelineConfig("-", "hypergraph", "coloring", colors=5,
                                  seed=0, force=True))
            csp = prepared.original
        counts = {}
        if name == "weighted8-marked":
            csp, m = weighted8()
            for i in range(num):
                rec = sample(csp, m, derive_seed(0, "accept1", i),
                             check_conditions=False)
                key = tuple(rec.assignment.tolist())
                counts[key] = counts.get(key, 0) + 1
        else:
            for i in range(num):
                key = tuple(prepared.draw(0, i))
                counts[key] = counts.get(key, 0) + 1
        law = enumerate_law(csp)
        exact = law.as_dict()
        stray = sum(c for k, c in counts.items() if k not in exact)
        tv = tv_distance({k: c / num for k, c in counts.items()}, exact)
        chi_p = 0.0 if stray else binned_chi_square_p(counts, law, num)
        cases.append((name, tv, chi_p, stray))
    elapsed = time.time() - t0
    ok = (elapsed <= 600.0
          and all(tv <= 0.03 and p >= 1e-3 and s == 0
                  for _, tv, p, s in cases))
    detail = "; ".join(f"{n} tv={tv:.4f} p={p:.3f}" for n, tv, p, _ in cases)
    report(1, f"distribution certification on 5 instances, 2e5 samples "
              f"each ({detail}; {elapsed:.0f}s)", ok)


def uniform12():
    vars = [VariableSpec.uniform(2) for _ in range(12)]
    csp = csp_of(vars, [(tuple(range(12)), (0,) * 12)])
    return csp, Marking.from_indices(12, range(8))


def test_criterion_2_monotone_coupling_invariant():
    # zero containment violations over 1e3 trials x 4 instances; marked-state
    # equality at every coalescence; the sweep chain ends in the step-by-step
    # bounding state in every trial; <= 5 min
    t0 = time.time()
    ok = True
    details = []
    for name, (csp, m) in [("weighted8", weighted8()),
                           ("uniform12", uniform12()),
                           ("overlap18", overlap18()),
                           ("free8", free8())]:
        out = check_bounding_invariant(csp, m, T=10 * csp.num_vars,
                                       trials=1000, seed=13)
        details.append(f"{name} viol={out['containment_violations']} "
                       f"eq_fail={out['equality_failures']} "
                       f"sweep_mismatch={out['sweep_mismatches']} "
                       f"coalesced={out['coalesced']}")
        if (out["containment_violations"] or out["equality_failures"]
                or out["sweep_mismatches"]):
            ok = False
    elapsed = time.time() - t0
    ok = ok and elapsed <= 300.0
    report(2, f"bounding invariant, 1e3 trials x 4 instances "
              f"({'; '.join(details)}; {elapsed:.0f}s)", ok)


def test_criterion_3_coalescence_tail():
    # empirical non-coalescence fraction below 4n*2^(-T/n) plus 3-sigma
    # binomial slack, T in {20n, 30n, 40n}, 1e3 trials
    csp, m = uniform20()
    n = csp.num_vars
    rows = coalescence_experiment(csp, m, [20 * n, 30 * n, 40 * n],
                                  trials=1000, seed=6)
    ok = True
    for row in rows:
        slack = 3.0 * math.sqrt(row["tail_bound"]
                                * (1 - row["tail_bound"]) / row["trials"])
        if row["non_coalesced_fraction"] > row["tail_bound"] + slack:
            ok = False
    detail = ", ".join(f"T={r['horizon']}: {r['non_coalesced_fraction']:.4f}"
                       f"<=bound {r['tail_bound']:.2e}" for r in rows)
    report(3, f"coalescence tail on n=20 ({detail})", ok)


def test_criterion_4_horizon_monotonicity():
    # coalescence at T implies identical marked state at 2T and 4T; exact
    # equality, zero tolerance, 200 seeds
    csp, m = weighted8()
    marked_idx = m.indices()
    ok = True
    for seed in range(200):
        t = 1
        while not bounding_chain(csp, m, t, seed).coalesced:
            t *= 2
        base = bounding_chain(csp, m, t, seed).state
        for factor in (2, 4):
            other = bounding_chain(csp, m, factor * t, seed).state
            if any(base[v] != other[v] for v in marked_idx):
                ok = False
    report(4, "horizon monotonicity: marked state constant at 2T and 4T "
              "over 200 seeds (exact)", ok)


def component_joint_law(csp, comp, state):
    doms = [range(csp.vars[v].domain_size) for v in comp.component_vars]
    idx = {v: i for i, v in enumerate(comp.component_vars)}
    projected = projected_constraints(csp, comp, state)
    out = {}
    for draw in itertools.product(*doms):
        if any(all(draw[idx[v]] == q for v, q in zip(vbl, fals))
               for vbl, fals in projected):
            continue
        w = 1.0
        for v, q in zip(comp.component_vars, draw):
            w *= csp.vars[v].weights[q]
        out[draw] = w
    z = sum(out.values())
    return {k: w / z for k, w in out.items()}


def test_criterion_5_oracle_equivalences():
    # component marginal vs enumeration (<= 1e-10) on 1e3 random updates;
    # rejection-sampling law vs enumerated component law (TV <= 0.02, 1e5)
    rng = random.Random(2024)
    checked = 0
    max_err = 0.0
    while checked < 1000:
        csp = random_csp(rng)
        marked = [rng.random() < 0.5 for _ in range(csp.num_vars)]
        values = [STAR if rng.random() < 0.5
                  else rng.randrange(csp.vars[v].domain_size)
                  for v in range(csp.num_vars)]
        stars = [v for v in range(csp.num_vars) if values[v] == STAR]
        if not stars:
            continue
        focal = rng.choice(stars)
        comp = component(csp, marked, values, focal)
        if not comp.token:
            continue
        try:
            expect = brute_component_marginal(csp, comp, focal, values)
        except ZeroDivisionError:
            continue
        got = exact_component_marginal(csp, comp, focal)
        max_err = max(max_err,
                      max(abs(a - b) for a, b in zip(got, expect)))
        checked += 1
    marg_ok = max_err <= 1e-10

    csp, m = weighted8()
    sigma = [STAR, 0, 0, 0, 0, STAR, STAR, STAR]
    comp = component(csp, m.marked, sigma, 0)
    law = component_joint_law(csp, comp, sigma)
    # the fixed variables 1-4 marked: final sampling rejection-samples the
    # component
    state, fixed = np.array(sigma), Marking.from_indices(8, [1, 2, 3, 4])
    num = 100_000
    counts = {}
    order = list(comp.component_vars)
    for i in range(num):
        values, _ = final_sampling(csp, fixed, state, derive_seed(44, i))
        key = tuple(values[order].tolist())
        counts[key] = counts.get(key, 0) + 1
    tv = tv_distance({k: c / num for k, c in counts.items()}, law)
    rej_ok = tv <= 0.02
    report(5, f"oracle equivalences (1e3 marginals max err={max_err:.2e}; "
              f"rejection TV={tv:.4f})", marg_ok and rej_ok)


def test_criterion_6_tensorization_identities():
    # leaf products to 1e-12; measure preservation exact; sibling ratio
    # <= max(kappa, 2); pushforward of the unconstrained tensor law within
    # TV 0.02 at 1e5 draws
    rng = random.Random(8)
    leaf_ok = ratio_ok = True
    for _ in range(100):
        n = rng.randint(2, 9)
        raw = [rng.uniform(0.05, 1.0) for _ in range(n)]
        pmf = tuple(w / sum(raw) for w in raw)
        tree = huffman_tensorize(pmf)
        for q, w in enumerate(pmf):
            if abs(tree.leaf_product(q) - w) > 1e-12:
                leaf_ok = False
        bound = max(max(pmf) / min(pmf), 2.0)
        for z in tree.internal_nodes():
            ws = [tree.weight[c] for c in tree.children[z]]
            if max(ws) / min(ws) > bound + 1e-12:
                ratio_ok = False

    csp = mixed_csp()
    tz = tensorize(csp, [huffman_tensorize(s.weights) for s in csp.vars])
    mo, mt = compute_measures(csp), compute_measures(tz.base)
    pres_ok = ((mt.d, mt.delta) == (mo.d, mo.delta)
               and len(tz.base.flat.arity) == len(csp.flat.arity)
               and abs(mt.log_p - mo.log_p) <= 1e-9)

    # draw from the unconstrained tensor product law and push through trans
    free = csp_of(csp.vars, [])
    tzf = tensorize(free, [huffman_tensorize(s.weights) for s in free.vars])
    num = 100_000
    draw_rng = random.Random(5)
    counts = {}
    node_specs = tzf.base.vars
    for _ in range(num):
        sigma = [draw_rng.choices(range(s.domain_size), weights=s.weights)[0]
                 for s in node_specs]
        key = tuple(trans(tzf, sigma))
        counts[key] = counts.get(key, 0) + 1
    product_law = {}
    for outcome in itertools.product(*(range(s.domain_size)
                                       for s in free.vars)):
        w = 1.0
        for v, q in enumerate(outcome):
            w *= free.vars[v].weights[q]
        product_law[outcome] = w
    tv = tv_distance({k: c / num for k, c in counts.items()}, product_law)
    push_ok = tv <= 0.02
    report(6, f"tensorization identities (leaf 1e-12, preservation exact, "
              f"ratio bound, pushforward TV={tv:.4f})",
           leaf_ok and ratio_ok and pres_ok and push_ok)


def test_criterion_7_numeric_constants():
    facts = verify_numeric_facts()
    gamma1, _, _ = binary_gamma(1.0, 0.0)
    gamma2, _, _ = binary_gamma(2.0, 0.0)
    ok = (facts["all_passed"] and facts["gamma"] >= 0.175
          and round(gamma1, 4) == 0.1710 and round(gamma2, 4) == 0.1451)
    report(7, f"numeric constants (gamma={facts['gamma']:.6f}, "
              f"limits {gamma1:.4f}/{gamma2:.4f})", ok)


def test_criterion_8_marking_validity():
    # 100 seeded runs per constructor: conditions always pass and the
    # deviation events, recomputed independently, are never violated
    ok = True
    bcsp = binary_regime_instance(kappa=1.0)
    meas = compute_measures(bcsp)
    _, eta, tau = binary_gamma(meas.kappa, DEFAULT_ZETA)
    for seed in range(100):
        m = construct_marking_binary(bcsp, seed=seed)
        if not check_theorem_conditions(bcsp, m).passed:
            ok = False
        for vbl, fals in constraint_pairs(bcsp):
            log_pc = sum(bcsp.vars[v].log_weights[q]
                         for v, q in zip(vbl, fals))
            s = sum(bcsp.vars[v].log_weights[q]
                    for v, q in zip(vbl, fals) if m.marked[v])
            if abs(s - eta * log_pc) > tau * (-log_pc):
                ok = False

    k = 150
    ucsp = csp_of([VariableSpec.uniform(2) for _ in range(k)],
                  [(tuple(range(k)), (0,) * k)])
    for seed in range(100):
        m = construct_marking_uniform_binary(ucsp, seed=seed)
        if not check_theorem_conditions(ucsp, m).passed:
            ok = False
        count = sum(m.marked)
        if not ((UNIFORM_ETA - UNIFORM_TAU2) * k <= count
                <= (UNIFORM_ETA + UNIFORM_TAU1) * k):
            ok = False
    report(8, "marking constructors valid over 100 seeded runs each "
              "(conditions + independent event checks)", ok)


def test_criterion_9_pipeline_determinism(tmp_path):
    # every pipeline, run twice with identical flags and seed, emits
    # byte-identical output
    cnf = tmp_path / "a.cnf"
    cnf.write_text("p cnf 6 2\n1 2 3 0\n-4 5 6 0\n")
    mixed = tmp_path / "m.json"
    from lllsampler import emit_csp
    mixed.write_text(emit_csp(mixed_csp()))
    uni = tmp_path / "u.json"
    uni.write_text(emit_csp(uniform3x4()))
    hyp = tmp_path / "h.txt"
    hyp.write_text("h 2 1 2\n1 2\n")
    runs = [
        ["--input", str(cnf), "--format", "dimacs", "--pipeline", "binary"],
        ["--input", str(mixed), "--format", "csp", "--pipeline", "general"],
        ["--input", str(uni), "--format", "csp", "--pipeline", "uniform"],
        ["--input", str(hyp), "--format", "hypergraph", "--pipeline",
         "coloring", "--colors", "5"],
    ]
    ok = True
    for i, extra in enumerate(runs):
        outs = []
        for rep in range(2):
            path = tmp_path / f"out-{i}-{rep}.txt"
            code = run(["sample", *extra, "--force", "--num", "10",
                        "--seed", "3", "--out", str(path)])
            if code != 0:
                ok = False
            outs.append(path.read_bytes())
        if outs[0] != outs[1]:
            ok = False
    report(9, "byte-identical reruns for all four pipelines", ok)
