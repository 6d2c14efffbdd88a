import itertools
import math
import random
from bisect import bisect_right

import numpy as np
import pytest
from numpy.random import Generator, Philox

from lllsampler import (BudgetError, ConditionsError, InvariantError, Marking,
                        RandomnessTape, STAR, VariableSpec, component,
                        compute_constants, coupled_update, derive_seed,
                        exact_component_marginal, final_sampling, safe_pmf)
from lllsampler import kernels
from lllsampler.kernels import (LABEL_REJECTION, UpdateContext, _enum_marginal,
                                _ie_marginal, _update_in_place)

from conftest import csp_of, projected_constraints, ternary9, weighted8


def test_derive_seed_stable_and_distinct():
    a = derive_seed(7, "x", 1)
    assert a == derive_seed(7, "x", 1)
    assert a != derive_seed(7, "x", 2)
    assert a != derive_seed(8, "x", 1)
    assert 0 <= a < 2 ** 64


def test_tape_addressing():
    tape = RandomnessTape(123)
    u = tape.uniform(-5)
    assert u == tape.uniform(-5)
    assert u != tape.uniform(-4)
    assert u != tape.stream(-5, LABEL_REJECTION).next_uniform()
    assert u != RandomnessTape(124).uniform(-5)


def test_layered_block_matches_pointwise():
    tape = RandomnessTape(5)
    block = tape.layered_block(-10, 0)
    for i, t in enumerate(range(-10, 0)):
        assert float(block[i]) == tape.uniform(t)
    # doubled horizon shares the suffix exactly
    block2 = tape.layered_block(-20, 0)
    assert np.array_equal(block2[10:], block)


def test_layered_block_is_window_stable():
    # every window ending at b is a suffix of every longer one, whatever
    # its start's offset within a Philox counter position
    tape = RandomnessTape(6)
    b = 20
    blocks = {a: tape.layered_block(a, b) for a in range(-20, b)}
    for a, block in blocks.items():
        for a2 in range(-20, a + 1):
            assert np.array_equal(blocks[a2][a - a2:], block), (a2, a)


def test_stream_is_prefix_stable():
    tape = RandomnessTape(9)
    s1 = tape.stream(3, LABEL_REJECTION)
    first = [s1.next_uniform() for _ in range(200)]
    s2 = tape.stream(3, LABEL_REJECTION)
    assert [s2.next_uniform() for _ in range(200)] == first
    assert tape.stream(4, LABEL_REJECTION).next_uniform() != first[0]
    # one generator at the stream's address, read in order across refills
    bg = Philox(key=np.array([9, LABEL_REJECTION], dtype=np.uint64))
    bg.advance((3 + (1 << 62)) << 80)
    assert Generator(bg).random(200).tolist() == first


def random_csp(rng, n=5, m=4, qmax=3):
    vars = []
    for _ in range(n):
        q = rng.randint(2, qmax)
        raw = [rng.uniform(0.2, 1.0) for _ in range(q)]
        t = sum(raw)
        vars.append(VariableSpec(q, tuple(w / t for w in raw)))
    cons = []
    for _ in range(m):
        arity = rng.randint(1, min(3, n))
        vbl = tuple(sorted(rng.sample(range(n), arity)))
        fals = tuple(rng.randrange(vars[v].domain_size) for v in vbl)
        cons.append((vbl, fals))
    return csp_of(vars, cons)


def test_component_token_rules():
    csp, m = weighted8()
    # all marked vars STAR: token False because another marked STAR is reached
    sigma = [STAR] * 8
    res = component(csp, m.marked, sigma, 0)
    assert not res.token
    # fix the other marked variables: token True
    sigma = [STAR, 0, 0, 0, 0, STAR, STAR, STAR]
    res = component(csp, m.marked, sigma, 0)
    assert res.token
    assert res.component_vars == (0, 5, 6, 7)
    assert res.component_constraints == (0,)
    # breaking the constraint prunes the component to the focal var alone
    sigma = [STAR, 1, 0, 0, 0, STAR, STAR, STAR]
    res = component(csp, m.marked, sigma, 0)
    assert res.token and res.component_vars == (0,)


def test_component_requires_star_focal():
    csp, m = weighted8()
    with pytest.raises(InvariantError):
        component(csp, m.marked, [0] * 8, 0)


def test_safe_pmf_shape():
    csp, m = weighted8()
    probs = safe_pmf(csp, 0, compute_constants(csp, m).log_beta)
    assert len(probs) == 2
    assert all(p >= 0.0 for p in probs)
    # beta > 1 shrinks each weight: D*(q) <= D(q)
    for p, w in zip(probs, csp.vars[0].weights):
        assert p <= w + 1e-12


def brute_component_numerators(csp, comp, focal, state):
    """Independent oracle: direct enumeration over the component variables
    in product order, with the component's constraints projected by
    ``projected_constraints``; per focal value, its solutions' weights
    added in that order."""
    numer = [0.0] * csp.vars[focal].domain_size
    doms = [range(csp.vars[v].domain_size) for v in comp.component_vars]
    idx = {v: i for i, v in enumerate(comp.component_vars)}
    projected = projected_constraints(csp, comp, state)
    for draw in itertools.product(*doms):
        if any(all(draw[idx[v]] == q for v, q in zip(vbl, fals))
               for vbl, fals in projected):
            continue
        w = 1.0
        for v, q in zip(comp.component_vars, draw):
            w *= csp.vars[v].weights[q]
        numer[draw[idx[focal]]] += w
    return numer


def brute_component_marginal(csp, comp, focal, state):
    numer = brute_component_numerators(csp, comp, focal, state)
    z = sum(numer)
    return [x / z for x in numer]


def test_marginal_paths_agree_with_oracle():
    rng = random.Random(77)
    checked = 0
    while checked < 200:
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
        assert comp.entries == tuple(
            tuple(zip(vbl, fals))
            for vbl, fals in projected_constraints(csp, comp, values))
        try:
            expect = brute_component_marginal(csp, comp, focal, values)
        except ZeroDivisionError:
            continue
        got = exact_component_marginal(csp, comp, focal)
        ie = _ie_marginal(csp, comp.entries, focal, 2 ** 20)
        enum = _enum_marginal(csp, comp.component_vars, comp.entries,
                              focal, 2 ** 20)
        # the same solutions in the same order: the same float sums
        assert enum == brute_component_numerators(csp, comp, focal, values)
        z_ie, z_en = sum(ie), sum(enum)
        for q in range(len(expect)):
            assert got[q] == pytest.approx(expect[q], abs=1e-10)
            assert ie[q] / z_ie == pytest.approx(expect[q], abs=1e-10)
            assert enum[q] / z_en == pytest.approx(expect[q], abs=1e-10)
        checked += 1


def test_rejection_sampling_law():
    # with the fixed variables 1-4 marked, final sampling rejection-samples
    # the component {0, 5, 6, 7}
    csp, m = weighted8()
    sigma = [STAR, 0, 0, 0, 0, STAR, STAR, STAR]
    comp = component(csp, m.marked, sigma, 0)
    expect = brute_component_marginal(csp, comp, 0, sigma)
    state, fixed = np.array(sigma), Marking.from_indices(8, [1, 2, 3, 4])
    counts = [0, 0]
    n = 20000
    for i in range(n):
        values, _ = final_sampling(csp, fixed, state, derive_seed(31, i))
        counts[values[0]] += 1
    for q in range(2):
        assert counts[q] / n == pytest.approx(expect[q], abs=0.02)


def test_update_consumes_single_layered_deviate():
    csp, m = weighted8()
    tape = RandomnessTape(17)
    state = [STAR] * 8
    out1 = coupled_update(csp, m, state, 3, tape)
    out2 = coupled_update(csp, m, state, 3, tape)
    assert out1.tolist() == out2.tolist()  # pure in the tape
    # unmarked slot is a no-op
    out = coupled_update(csp, m, state, 5, tape)
    assert out.tolist() == state


def test_update_monotone_on_random_pairs():
    csp, m = weighted8()
    rng = random.Random(5)
    for trial in range(500):
        refined = []
        loose = []
        # chain-reachable shapes: unmarked variables stay STAR in both
        for v in range(8):
            if not m.marked[v]:
                refined.append(STAR)
                loose.append(STAR)
                continue
            x = rng.randrange(2)
            refined.append(x)
            loose.append(STAR if rng.random() < 0.4 else x)
        t = rng.randrange(-40, 40)
        tape = RandomnessTape(rng.randrange(2 ** 32))
        s1 = coupled_update(csp, m, refined, t, tape)
        s2 = coupled_update(csp, m, loose, t, tape)
        for a, b in zip(s1.tolist(), s2.tolist()):
            assert b == STAR or a == b


def outcome(f, *args):
    """f(*args), or the type of the sampler error it raises."""
    try:
        return f(*args)
    except (BudgetError, InvariantError) as e:
        return type(e)


def test_list_and_array_states_agree():
    # the oracles step Python lists and the chain steps int64 arrays: both
    # must read STAR (-1) alike
    rng = random.Random(13)
    contexts = tokens = residual = 0
    while contexts < 100:
        csp = random_csp(rng)
        marked = [rng.random() < 0.5 for _ in range(csp.num_vars)]
        try:
            ctx = UpdateContext(csp, Marking(marked))
        except ConditionsError:
            continue
        contexts += 1
        tape = RandomnessTape(rng.randrange(2 ** 32))
        for _ in range(10):
            before = [STAR if rng.random() < 0.5
                      else rng.randrange(csp.vars[v].domain_size)
                      for v in range(csp.num_vars)]
            lst = list(before)
            arr = np.array(before, dtype=np.int64)
            for u in range(csp.num_vars):
                if before[u] == STAR:
                    comp = component(csp, marked, lst, u)
                    assert comp == component(csp, marked, arr, u)
                    tokens += comp.token and len(comp.component_vars) > 1
            t = rng.randrange(-50, 50)
            u0 = rng.random()
            v = t % csp.num_vars
            residual += (marked[v]
                         and u0 >= ctx.safe_total[csp.flat.spec_of[v]])
            a, b = list(before), arr.copy()
            assert outcome(_update_in_place, ctx, a, t, u0) == outcome(
                _update_in_place, ctx, b, t, u0)
            assert a == b.tolist()

            def update(state):
                return coupled_update(csp, ctx.marking, state, t,
                                      tape).tolist()

            assert outcome(update, lst) == outcome(update, arr)
            # coupled_update leaves its input as it was
            assert lst == arr.tolist() == before
    assert tokens > 100 and residual > 50


def test_safe_table_matches_clamped_bisect(monkeypatch):
    # mixed domain sizes pad the rows with +inf; the deviates sit on, just
    # below and just above every cumulative sum, and at both ends of [0, 1)
    specs = [VariableSpec(2, (0.3, 0.7)), VariableSpec(3, (0.2, 0.3, 0.5)),
             VariableSpec(4, (0.1, 0.2, 0.3, 0.4))]
    mixed = csp_of(specs * 3, [(tuple(range(9)), (0,) * 9)])
    cases = [weighted8(), ternary9(),
             (mixed, Marking.from_indices(9, range(6)))]
    calls = []

    def counting_safe_pmf(*args):
        calls.append(args[1])
        return safe_pmf(*args)

    monkeypatch.setattr(kernels, "safe_pmf", counting_safe_pmf)
    for (csp, m), pmfs in zip(cases, (1, 1, 3)):
        calls.clear()
        ctx = UpdateContext(csp, m)
        # one safe pmf per distinct marked spec
        assert len(calls) == pmfs
        assert ctx.marked_idx.tolist() == list(m.indices())
        log_beta = compute_constants(csp, m).log_beta
        for i, v in enumerate(m.indices()):
            probs = safe_pmf(csp, v, log_beta)
            g = csp.flat.spec_of[v]
            assert ctx.safe_probs[g, :len(probs)].tolist() == list(probs)
            cum = []
            acc = 0.0
            for p in probs:
                acc += p
                cum.append(acc)
            total = 1.0 - max(0.0, 1.0 - acc)
            assert ctx.marked_total[i] == ctx.safe_total[g] == total
            grid = {0.0, math.nextafter(1.0, 0.0), total}
            for c in cum:
                grid |= {c, math.nextafter(c, 0.0), math.nextafter(c, 1.0)}
            for u0 in grid:
                expect = min(bisect_right(cum, u0), len(cum) - 1)
                assert int((ctx.marked_cum[i] <= u0).sum()) == expect, (v, u0)
                if u0 < total:
                    state = [STAR] * csp.num_vars
                    _update_in_place(ctx, state, v, u0)
                    assert state[v] == expect, (v, u0)
