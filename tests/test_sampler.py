import itertools
import random
from bisect import bisect_right

import numpy as np
import pytest

from lllsampler import (BudgetError, InvariantError, Marking, RandomnessTape,
                        STAR, VariableSpec, bounding_chain, component,
                        derive_seed, final_sampling, rejection_sampling,
                        sample, systematic_scan)
from lllsampler.core import split_components
from lllsampler.cli import PreparedPipeline
from lllsampler.kernels import (LABEL_REJECTION, TapeStream, UpdateContext,
                                _update_in_place, coupled_update)
from lllsampler.sampler import live_labels, marked_entries
from lllsampler.verify import (check_bounding_invariant,
                               coalescence_experiment, enumerate_law,
                               law_of_projection, tv_distance)

from conftest import (csp_of, free8, overlap18, projected_constraints,
                      ternary9, uniform20, weighted8)


def test_sample_deterministic_in_seed():
    csp, m = weighted8()
    a = sample(csp, m, 11)
    b = sample(csp, m, 11)
    assert np.array_equal(a.assignment, b.assignment)
    assert a.horizon_used == b.horizon_used
    assert any(not np.array_equal(sample(csp, m, s).assignment, a.assignment)
               for s in range(5))


def test_sample_satisfies_and_is_concrete():
    csp, m = overlap18()
    for seed in range(20):
        rec = sample(csp, m, seed)
        assert rec.assignment.dtype == np.int64
        assert (rec.assignment != STAR).all()
        assert csp.satisfies(rec.assignment)
        # the emitted draw is a list of ints
        drawn = PreparedPipeline(csp, csp, m, range(18)).draw(seed, 0)
        assert all(type(q) is int for q in drawn)


def test_doubling_replays_shared_suffix():
    csp, m = weighted8()
    for seed in range(30):
        t = 1
        while not bounding_chain(csp, m, t, seed).coalesced:
            t *= 2
        small = bounding_chain(csp, m, t, seed).state
        big = bounding_chain(csp, m, 2 * t, seed).state
        for v in range(csp.num_vars):
            if m.marked[v]:
                assert small[v] == big[v]


def test_constraint_free_coalesces_in_one_sweep():
    csp, m = free8()
    n = csp.num_vars
    for seed in range(10):
        assert bounding_chain(csp, m, n, seed).coalesced
        assert not bounding_chain(csp, m, n - 1, seed).coalesced


def test_budget_error_on_tiny_horizon_cap():
    csp, m = uniform20()
    with pytest.raises(BudgetError):
        sample(csp, m, 0, horizon_cap=4)


def test_sample_checks_conditions():
    csp, _ = weighted8()
    # marking everything leaves no unmarked slack, so the conditions fail
    with pytest.raises(InvariantError):
        sample(csp, Marking.from_indices(8, range(8)), 0)


def test_final_sampling_identity_when_all_marked():
    csp, m = free8()
    state = np.array([0, 1, 0, 1, 0, 1, 0, 1])
    values, attempts = final_sampling(csp, m, state, seed=0)
    assert values.tolist() == state.tolist()
    assert attempts == 0


def test_final_sampling_requires_coalesced_state():
    csp, m = weighted8()
    with pytest.raises(InvariantError, match="coalesced"):
        final_sampling(csp, m, np.full(8, STAR), seed=0)


def test_final_sampling_requires_star_off_the_marking():
    # variables 0-4 are marked; a value on the unmarked variable 6 is not a
    # state a coalesced chain leaves
    csp, m = weighted8()
    state = np.array([0, 0, 1, 0, 0, STAR, 1, STAR])
    with pytest.raises(InvariantError, match="STAR off the marking"):
        final_sampling(csp, m, state, seed=0)


def test_sample_opens_one_stream(monkeypatch):
    # the unmarked variables of uniform20 form several components; final
    # sampling reads them all, in turn, from one stream
    csp, m = uniform20()
    built = []
    init = TapeStream.__init__

    def counting_init(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(TapeStream, "__init__", counting_init)
    sample(csp, m, 4)
    assert len(built) == 1


def test_scan_validates_input_shape():
    csp, m = weighted8()
    with pytest.raises(InvariantError):
        systematic_scan(csp, m, [STAR] * 8, 4, 0)
    with pytest.raises(InvariantError):
        systematic_scan(csp, m, [1] * 8, 4, 0)


def make_scan_state(csp, m, solution):
    return [solution[v] if m.marked[v] else STAR for v in range(csp.num_vars)]


def test_scan_zero_steps_and_determinism():
    csp, m = weighted8()
    state = make_scan_state(csp, m, [1] * 8)
    assert systematic_scan(csp, m, state, 0, 7).tolist() == state
    out = systematic_scan(csp, m, state, 40, 7).tolist()
    assert out == systematic_scan(csp, m, state, 40, 7).tolist()
    assert all(out[v] == STAR or m.marked[v] for v in range(8))


def test_scan_preserves_stationary_law():
    # start from the exact projected law; after any number of sweeps the
    # marked state must still follow it
    csp, m = weighted8()
    law = law_of_projection(csp, m, enumerate_law(csp))
    rng = random.Random(99)
    trials = 4000
    counts = {}
    for trial in range(trials):
        start = rng.choices(law.support, weights=law.pmf)[0]
        full = [None] * csp.num_vars
        for i, v in enumerate(m.indices()):
            full[v] = start[i]
        out = systematic_scan(csp, m, make_scan_state(csp, m, full), 24,
                              derive_seed(5, "scan", trial)).tolist()
        key = tuple(out[v] for v in m.indices())
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / trials for k, c in counts.items()}
    assert tv_distance(empirical, law.as_dict()) < 0.08


# --- reference final sampling: one BFS component per STAR variable, all
# drawn in lockstep, one deviate per redrawn variable ----------------------

def reference_final_sampling(csp, m, sigma_marked, stream):
    values = list(sigma_marked)
    for v in range(csp.num_vars):
        if m.marked[v] and values[v] == STAR:
            raise InvariantError("final sampling requires a coalesced state")
    comps = []
    seen = set()
    for v in range(csp.num_vars):
        if values[v] == STAR and v not in seen:
            comp = component(csp, m.marked, values, v)
            assert comp.token
            seen.update(comp.component_vars)
            comps.append((comp.component_vars,
                          projected_constraints(csp, comp, values)))
    cums = [list(itertools.accumulate(s.weights)) for s in csp.vars]
    pending = comps
    attempts = 0
    while pending:
        attempts += sum(1 for _, projected in pending if projected)
        for v in sorted(w for vs, _ in pending for w in vs):
            cw = cums[v]
            values[v] = min(bisect_right(cw, stream.next_uniform()),
                            len(cw) - 1)
        pending = [(vs, projected) for vs, projected in pending
                   if any(all(values[w] == q
                              for w, q in zip(vbl, fals))
                          for vbl, fals in projected)]
    return values, attempts


def interleaved_3cnf(seed, blocks=4, size=6, clauses=5):
    """Planted 3-CNF blocks whose variables interleave: with
    s = blocks + 1, block b holds b, b + s, b + 2s, ..., and the variables
    congruent to blocks mod s are ternary and in no clause.  Run with the
    empty marking, so final sampling draws everything."""
    rng = random.Random(seed)
    s = blocks + 1
    n = s * size
    hidden = [rng.randrange(2) for _ in range(n)]
    cons = []
    for b in range(blocks):
        for _ in range(clauses):
            vs = tuple(sorted(b + s * i for i in rng.sample(range(size), 3)))
            while True:
                fals = tuple(rng.randrange(2) for _ in vs)
                if any(f != hidden[v] for v, f in zip(vs, fals)):
                    break
            cons.append((vs, fals))
    specs = [VariableSpec(3, (0.2, 0.3, 0.5)) if v % s == blocks
             else VariableSpec(2, (0.3, 0.7)) for v in range(n)]
    return csp_of(specs, cons), Marking.empty(n)


def test_final_sampling_matches_per_variable_reference():
    # singleton variables mixed with multi-variable components, in every
    # interleaving order; the draws and the attempt totals must agree with
    # the lockstep reference
    rng = random.Random(8)
    cases = [weighted8(), overlap18(), uniform20()]
    cases += [interleaved_3cnf(s) for s in range(6)]
    rejected = 0
    for csp, m in cases:
        for seed in range(60):
            # falsifying (0) marked values keep the constraints live
            state = [
                (0 if rng.random() < 0.8 else 1) if m.marked[v] else STAR
                for v in range(csp.num_vars)]
            values, attempts = final_sampling(csp, m, np.array(state), seed)
            got = values.tolist(), attempts
            assert got == reference_final_sampling(
                csp, m, state, RandomnessTape(seed).stream(0, LABEL_REJECTION))
            assert values.dtype == np.int64
            comps = [component(csp, m.marked, state, v)
                     for v in range(csp.num_vars) if state[v] == STAR]
            constrained = {c.component_vars for c in comps
                           if c.component_constraints}
            rejected += got[1] > len(constrained)
    assert rejected > 50  # many draws rejected some attempt


def full_mask_labels(csp, values):
    """The components of the falsifiable constraints' STAR entries, from
    one falsifiability test of every entry."""
    flat = csp.flat
    star = values == STAR
    on_star = star[flat.cons_vars]
    falsifiable = np.logical_and.reduceat(
        on_star | (values[flat.cons_vars] == flat.cons_fals), flat.starts)
    live = on_star & falsifiable[flat.entry_cons]
    return csp.free_labels if star.all() else split_components(csp, live)


def canonical_state(csp, m, rng, solution=None):
    """STAR off the marking.  Each marked variable takes its value in
    ``solution`` when one is given, and else mostly the falsifying value of
    one of its entries, so that constraints stay live; the fixtures this
    is used on without a solution extend from any such state."""
    flat = csp.flat
    state = np.full(csp.num_vars, STAR, dtype=np.int64)
    for v in m.indices():
        mine = np.flatnonzero(flat.cons_vars == v).tolist()
        if solution is not None:
            state[v] = solution[v]
        elif mine and rng.random() < 0.8:
            state[v] = flat.cons_fals[rng.choice(mine)]
        else:
            state[v] = rng.randrange(csp.vars[v].domain_size)
    return state


def test_live_labels_match_full_mask_oracle():
    rng = random.Random(14)
    cases = [(c, m, False) for c, m in (weighted8(), overlap18(), uniform20(),
                                        ternary9(), free8())]
    for s in range(6):
        csp, empty = interleaved_3cnf(s)
        n = csp.num_vars
        # random markings leave some clauses with no marked entry; marked
        # values from a solution keep the state extendable
        cases += [(csp, empty, False), (csp, Marking.from_indices(
            n, [v for v in range(n) if rng.random() < 0.5]), True)]
    seen = {"live": 0, "no_marked_entry": 0, "none_live": 0}
    for csp, m, from_solution in cases:
        me = marked_entries(csp, m)
        everything = np.full(csp.num_vars, STAR, dtype=np.int64)
        for seed in range(40):
            solution = (final_sampling(csp, Marking.empty(csp.num_vars),
                                       everything, seed + 100)[0]
                        if from_solution else None)
            state = canonical_state(csp, m, rng, solution)
            want = full_mask_labels(csp, state)
            got = live_labels(csp, m, state)
            for a, b in zip(got, want):
                assert a.dtype == b.dtype and np.array_equal(a, b)
            values, attempts = final_sampling(csp, m, state, seed)
            expect = rejection_sampling(
                csp, state.copy(), want,
                RandomnessTape(seed).stream(0, LABEL_REJECTION))
            assert values.tolist() == expect[0].tolist()
            assert attempts == expect[1]
            live = set(want[1][want[1] >= 0].tolist())
            seen["live"] += bool(live - set(me.free.tolist()))
            seen["no_marked_entry"] += bool(len(me.free) and m.mask.any())
            seen["none_live"] += not live
    assert min(seen.values()) > 20, seen


def doubling_from_one(csp, m, seed, cap):
    """``sample`` as a doubling from T = 1: (assignment, horizon) or None
    on a budget error."""
    T = 1
    while True:
        run = bounding_chain(csp, m, T, seed)
        if run.coalesced:
            values, _ = final_sampling(csp, m, run.state, seed)
            return values.tolist(), T
        if T >= cap:
            return None
        T *= 2


def test_start_horizon_matches_doubling_from_one():
    for csp, m in (weighted8(), overlap18(), uniform20()):
        n = csp.num_vars
        for seed in range(30):
            for cap in range(1, 2 * n + 1):
                expect = doubling_from_one(csp, m, seed, cap)
                try:
                    rec = sample(csp, m, seed, horizon_cap=cap)
                    got = rec.assignment.tolist(), rec.horizon_used
                except BudgetError:
                    got = None
                assert got == expect, (n, seed, cap)


def test_stream_batched_read():
    tape = RandomnessTape(21)
    contiguous = tape.stream(2, LABEL_REJECTION).uniforms(500).tolist()
    s = tape.stream(2, LABEL_REJECTION)
    got = [s.next_uniform() for _ in range(5)]
    for k in (0, 3, 70, 1, 130):
        got += s.uniforms(k).tolist()
        got.append(s.next_uniform())
    got += s.uniforms(500 - len(got)).tolist()
    assert got == contiguous


def test_rejection_cap_is_exact():
    # three variables, of which only 1 1 _ is allowed: 1/4 of the attempts
    # succeed
    csp = csp_of([VariableSpec.uniform(2)] * 2 + [VariableSpec.uniform(3)],
                 [((0, 1), (0, 0)),
                  ((0, 1), (0, 1)),
                  ((1, 0), (0, 1))])
    empty = Marking.empty(3)
    tape = RandomnessTape(5)

    def draw(t, **cap):
        return rejection_sampling(csp, np.full(3, STAR), csp.free_labels,
                                  tape.stream(t, LABEL_REJECTION), **cap)

    seen = set()
    for t in range(100):
        values, need = draw(t)
        assert (values.tolist(), need) == reference_final_sampling(
            csp, empty, [STAR] * 3, tape.stream(t, LABEL_REJECTION))
        if need > 1 and need not in seen:
            seen.add(need)
            got, k = draw(t, cap=need)
            assert (got.tolist(), k) == (values.tolist(), need)
            with pytest.raises(BudgetError):
                draw(t, cap=need - 1)
    assert len(seen) >= 5


# --- reference chain: one _update_in_place call per time slot, unmarked
# slots included, deviates drawn in blocks of 2^16 ------------------------

def reference_steps(ctx, values, seed, start, stop):
    tape = RandomnessTape(seed)
    chunk = 1 << 16
    for a in range(start, stop, chunk):
        b = min(a + chunk, stop)
        u0s = tape.layered_block(a, b)
        for i, t in enumerate(range(a, b)):
            _update_in_place(ctx, values, t, float(u0s[i]))
    return values


def reference_bounding_chain(csp, m, T, seed):
    values = reference_steps(UpdateContext(csp, m),
                             [STAR] * csp.num_vars, seed, -T, 0)
    return values, all(values[v] != STAR for v in m.indices())


def residual_slots_per_sweep(csp, m, T, seed):
    """The most residual-layer slots in one sweep of [-T, 0)."""
    ctx = UpdateContext(csp, m)
    n = csp.num_vars
    u0s = RandomnessTape(seed).layered_block(-T, 0)
    per_sweep = {}
    for i, t in enumerate(range(-T, 0)):
        v = t % n
        if m.marked[v] and u0s[i] >= ctx.safe_total[csp.flat.spec_of[v]]:
            per_sweep[t // n] = per_sweep.get(t // n, 0) + 1
    return max(per_sweep.values(), default=0)


def test_sweep_chain_matches_per_slot_reference():
    # horizons mostly not multiples of n, so sweeps are cut at both ends
    cases = [weighted8(), overlap18(), uniform20(), free8(), ternary9()]
    for csp, m in cases:
        n = csp.num_vars
        for T in (1, 3, n - 1, n + 1, 2 * n + 3, 4 * n, 5 * n + 2):
            for seed in range(40):
                run = bounding_chain(csp, m, T, seed)
                assert (run.state.tolist(), run.coalesced) == (
                    reference_bounding_chain(csp, m, T, seed)), (n, T, seed)
                assert run.state.dtype == np.int64
    # ternary9 takes several residual steps within one sweep
    csp, m = ternary9()
    assert max(residual_slots_per_sweep(csp, m, 50, s)
               for s in range(40)) >= 4


def test_sweep_chain_crosses_a_deviate_block():
    # 2^16 + 5 steps: the deviates come in two blocks, cut inside a sweep
    T = (1 << 16) + 5
    for csp, m in (weighted8(), ternary9()):
        for seed in range(2):
            run = bounding_chain(csp, m, T, seed)
            assert (run.state.tolist(), run.coalesced) == (
                reference_bounding_chain(csp, m, T, seed))


def test_scan_matches_per_slot_reference():
    rng = random.Random(3)
    for csp, m in (weighted8(), overlap18(), ternary9()):
        ctx = UpdateContext(csp, m)
        for seed in range(30):
            start = [
                rng.randrange(csp.vars[v].domain_size) if m.marked[v]
                else STAR for v in range(csp.num_vars)]
            steps = rng.randrange(1, 5 * csp.num_vars)
            got = systematic_scan(csp, m, start, steps, seed)
            assert got.tolist() == reference_steps(ctx, list(start),
                                                 seed, 0, steps)


def test_update_context_built_once_per_marking(monkeypatch):
    built = []
    init = UpdateContext.__init__

    def counting_init(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(UpdateContext, "__init__", counting_init)
    csp, m = weighted8()
    for seed in range(100):
        sample(csp, m, seed)
    bounding_chain(csp, m, 16, 0)
    state = make_scan_state(csp, m, [1] * 8)
    systematic_scan(csp, m, state, 16, 0)
    coupled_update(csp, m, state, 3, RandomnessTape(0))
    check_bounding_invariant(csp, m, 16, 5, 0)
    coalescence_experiment(csp, m, [16], 5, 0)
    assert len(built) == 1
    # another marking of the same instance gets its own context
    bounding_chain(csp, Marking.from_indices(8, range(4)), 8, 0)
    assert len(built) == 2
