import itertools
import random
from bisect import bisect_right

import numpy as np
import pytest

from lllsampler import (BudgetError, InvariantError, Marking, RandomnessTape,
                        STAR, VariableSpec, derive_seed, sample, sampler)
from lllsampler.kernels import (LABEL_REJECTION, TapeStream, UpdateContext,
                                _update_in_place, component,
                                rejection_sampling, rejection_tables)
from lllsampler.pipeline import PreparedPipeline
from lllsampler.sampler import (bounding_chain, final_sampling, free_tables,
                                live_tables, marked_entries)
from lllsampler.verify import (check_bounding_invariant,
                               coalescence_experiment, enumerate_law,
                               tv_distance)

from conftest import (constraint_pairs, coupled_update, csp_of, free8,
                      law_of_projection, overlap18, projected_constraints,
                      systematic_scan, ternary9, uniform20, weighted8)


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


def full_mask_tables(csp, values):
    """The falsifiable constraints' STAR entries (indices into
    ``csp.flat``), from one falsifiability test of every entry, and their
    components as ``component`` grows them."""
    flat = csp.flat
    star = values == STAR
    on_star = star[flat.cons_vars]
    falsifiable = np.logical_and.reduceat(
        on_star | (values[flat.cons_vars] == flat.cons_fals), flat.starts)
    live = np.flatnonzero(on_star & falsifiable[flat.entry_cons])
    unmarked = np.zeros(csp.num_vars, dtype=bool)
    comps = {component(csp, unmarked, values, v).component_vars
             for v in flat.cons_vars[live].tolist()}
    return live, comps


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


def assert_rows_hold(tables, csp, live):
    """Check that ``tables``' rows hold the entries ``live`` (indices into
    ``csp.flat``, ascending): each constraint's in entry order, k to a row,
    the pads equal to their row's first entry, and the codes their
    falsifying values, in the narrowest dtype for the instance's values.
    Returns the constraint of each row."""
    flat = csp.flat
    rows, codes = tables.rows, tables.codes
    k = rows.shape[1]
    assert rows.dtype == np.int64 and codes.shape == rows.shape
    assert codes.dtype == np.min_scalar_type(flat.cum_table.shape[1])
    expect_rows, expect_codes, row_cons = [], [], []
    cons = flat.entry_cons[live]
    for c, ci in enumerate(np.unique(cons).tolist()):
        mine = live[cons == ci]
        for a in range(0, len(mine), k):
            part = list(mine[a:a + k]) + [mine[a]] * (k - len(mine[a:a + k]))
            expect_rows.append(flat.cons_vars[part])
            expect_codes.append(flat.cons_fals[part])
            row_cons.append(c)
    assert np.array_equal(rows, expect_rows)
    assert np.array_equal(codes, expect_codes)
    # the shortest word of 1, 2, 4 or 8 bytes that holds every constraint,
    # or 8 bytes
    word = 1
    while word < min(8, np.unique(cons, return_counts=True)[1].max()
                     * codes.itemsize):
        word *= 2
    assert codes.itemsize * k == word
    if max(np.bincount(row_cons)) == 1:
        assert tables.row_cons is None
    else:
        assert np.array_equal(tables.row_cons, row_cons)
    assert len(tables.row_comp) == len(rows)
    return np.array(row_cons)


def test_live_tables_match_full_mask_oracle():
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
        flat = csp.flat
        me = marked_entries(csp, m)
        everything = np.full(csp.num_vars, STAR, dtype=np.int64)
        for seed in range(40):
            solution = (final_sampling(csp, Marking.empty(csp.num_vars),
                                       everything, seed + 100)[0]
                        if from_solution else None)
            state = canonical_state(csp, m, rng, solution)
            live, comps = full_mask_tables(csp, state)
            got = live_tables(csp, m, state)
            cons, local = np.unique(flat.entry_cons[live],
                                    return_inverse=True)
            if not len(live):
                assert got is None
            else:
                ev = flat.cons_vars[live]
                row_cons = assert_rows_hold(got, csp, live)
                # constraints numbered in id order
                assert row_cons[-1] + 1 == len(cons)
                assert np.array_equal(got.draw, np.unique(ev))
                cum = flat.cum_table[flat.spec_of[got.draw]]
                assert np.array_equal(got.draw_cum, cum.squeeze(axis=1)
                                      if cum.shape[1] == 1 else cum)
                # the same components, up to numbering
                assert got.components == len(comps)
                assert {tuple(got.draw[got.draw_comp == c].tolist())
                        for c in range(got.components)} == comps
                at = np.searchsorted(got.draw, got.rows)
                assert (got.draw_comp[at] == got.row_comp[:, None]).all()
            values, attempts = final_sampling(csp, m, state, seed)
            assert (values.tolist(), attempts) == reference_final_sampling(
                csp, m, state.tolist(),
                RandomnessTape(seed).stream(0, LABEL_REJECTION))
            seen["live"] += bool(set(cons.tolist()) - set(me.free.tolist()))
            seen["no_marked_entry"] += bool(len(me.free) and m.mask.any())
            seen["none_live"] += not len(cons)
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


def two_ways(csp):
    """``csp``'s all-STAR state two ways, as (instance, marking, state):
    under the empty marking, whose rejection tables are kept on the
    instance, and with one constraint-free variable appended and marked,
    whose tables are built on every draw.  Both draw the same variables
    from the same reads."""
    n = csp.num_vars
    extra = csp_of(list(csp.vars) + [VariableSpec.uniform(2)],
                   constraint_pairs(csp))
    fixed = np.full(n + 1, STAR, dtype=np.int64)
    fixed[n] = 0
    return [(csp, Marking.empty(n), np.full(n, STAR, dtype=np.int64)),
            (extra, Marking.from_indices(n + 1, [n]), fixed)]


def rejection_draw(way, stream, **cap):
    """Rejection sampling on the tables of ``way``'s state: the unmarked
    values and the attempts."""
    csp, m, state = way
    values, attempts = rejection_sampling(
        csp, state.copy(), live_tables(csp, m, state), stream, **cap)
    return values[~m.mask].tolist(), attempts


def test_rejection_cap_is_exact():
    # three variables, of which only 1 1 _ is allowed: 1/4 of the attempts
    # succeed
    csp = csp_of([VariableSpec.uniform(2)] * 2 + [VariableSpec.uniform(3)],
                 [((0, 1), (0, 0)),
                  ((0, 1), (0, 1)),
                  ((1, 0), (0, 1))])
    ways = two_ways(csp)
    tape = RandomnessTape(5)
    seen = set()
    for t in range(100):
        values, need = rejection_draw(ways[0], tape.stream(t, LABEL_REJECTION))
        assert (values, need) == reference_final_sampling(
            csp, ways[0][1], [STAR] * 3, tape.stream(t, LABEL_REJECTION))
        if need > 1 and need not in seen:
            seen.add(need)
            for way in ways:
                assert rejection_draw(way, tape.stream(t, LABEL_REJECTION),
                                      cap=need) == (values, need)
                with pytest.raises(BudgetError):
                    rejection_draw(way, tape.stream(t, LABEL_REJECTION),
                                   cap=need - 1)
    assert len(seen) >= 5


def counting_tables(monkeypatch):
    """Count the rejection table builds of final sampling from here on."""
    built = []
    build = sampler.rejection_tables

    def counting(*args):
        built.append(args)
        return build(*args)

    monkeypatch.setattr(sampler, "rejection_tables", counting)
    return built


def test_free_tables_need_the_all_star_state(monkeypatch):
    # a marking that fixes variables takes tables built for each draw,
    # even where the components are the instance's own: in
    # interleaved_3cnf the fixed variables are the clause-free ones; in
    # the 6-variable block, variable 0 holds the falsifying value of both
    # its clauses and the rest stay joined without it
    built = counting_tables(monkeypatch)
    rng = random.Random(4)
    cases = []
    for s in range(6):
        csp, _ = interleaved_3cnf(s)
        fixed = [v for v in range(csp.num_vars) if v % 5 == 4]
        cases.append((csp, {v: rng.randrange(3) for v in fixed}))
    block = csp_of([VariableSpec(2, (0.4, 0.6))] * 6,
                   [((0, 1, 2), (0, 0, 0)), ((1, 2, 3), (1, 0, 1)),
                    ((0, 3, 4), (0, 1, 1)), ((1, 4, 5), (0, 0, 0))])
    cases.append((block, {0: 0}))
    for csp, fixed in cases:
        n = csp.num_vars
        state = np.full(n, STAR, dtype=np.int64)
        state[list(fixed)] = list(fixed.values())
        m = Marking.from_indices(n, fixed)
        empty = Marking.empty(n)
        built.clear()
        for seed in range(20):
            values, attempts = final_sampling(csp, m, state, seed)
            assert (values.tolist(), attempts) == reference_final_sampling(
                csp, m, state.tolist(),
                RandomnessTape(seed).stream(0, LABEL_REJECTION))
        assert len(built) == 20
        assert (free_tables, empty) not in csp.memo
        # the empty marking builds the instance's tables once
        for seed in range(3):
            final_sampling(csp, empty, np.full(n, STAR), seed)
        assert len(built) == 21
        assert (free_tables, empty) in csp.memo


class ReadSizes:
    """A stream that records the size of each read."""

    def __init__(self, stream):
        self.stream = stream
        self.sizes = []

    def uniforms(self, k):
        self.sizes.append(k)
        return self.stream.uniforms(k)


def test_rejection_cap_counts_rounds_across_components(monkeypatch):
    # two components, of 2 and 3 variables, each accepting 1/4 of its
    # attempts: a round reads 5 deviates while both are pending, 2 or 3
    # once one has finished
    csp = csp_of([VariableSpec.uniform(2)] * 5,
                 [((0, 1), (0, 0)), ((0, 1), (0, 1)), ((0, 1), (1, 0)),
                  ((2, 3, 4), (0, 0, 0)), ((2, 3), (1, 1)), ((3, 4), (0, 1)),
                  ((2, 4), (1, 0)), ((2, 3, 4), (1, 0, 1))])
    built = counting_tables(monkeypatch)
    ways = two_ways(csp)
    tape = RandomnessTape(2)
    staggered = 0
    for t in range(60):
        expect = reference_final_sampling(
            csp, ways[0][1], [STAR] * 5, tape.stream(t, LABEL_REJECTION))
        reads = ReadSizes(tape.stream(t, LABEL_REJECTION))
        assert rejection_draw(ways[0], reads) == expect
        rounds = len(reads.sizes)
        if rounds < 3 or reads.sizes[-1] == 5:
            continue
        staggered += 1
        for way in ways:
            capped = ReadSizes(tape.stream(t, LABEL_REJECTION))
            assert rejection_draw(way, capped, cap=rounds) == expect
            assert capped.sizes == reads.sizes
            with pytest.raises(BudgetError):
                rejection_draw(way, tape.stream(t, LABEL_REJECTION),
                               cap=rounds - 1)
    assert staggered >= 10
    # one build for the empty marking, two per case for the other
    assert len(built) == 1 + 2 * staggered


def planted_rows_case(rng):
    """A random instance, marking and state that reach each branch of the
    rejection rows: arities 1-20, so that long constraints span several
    rows; domains 2-300, so that some instances need 16-bit codes; and
    marked variables, fixed at a planted solution that keeps the instance
    satisfiable.  Weights lean to value 0, which most falsifying values
    take, so long constraints are violated often."""
    n = rng.randint(12, 40)
    specs = []
    for d in rng.sample([2, 2, 3, 5, 40, 257, 300], rng.randint(1, 3)):
        lean = rng.uniform(0.6, 0.9)
        specs.append(VariableSpec(d, (lean,) + ((1 - lean) / (d - 1),)
                                  * (d - 1)))
    vars = [rng.choice(specs) for _ in range(n)]
    hidden = [rng.randrange(s.domain_size) for s in vars]
    cons = []
    for _ in range(rng.randint(1, 12)):
        vbl = rng.sample(range(n), min(n, rng.choice(
            [1, 2, 3, rng.randint(4, 8), rng.randint(9, 20)])))
        fals = [0] * len(vbl)
        if all(hidden[v] == 0 for v in vbl):
            i = rng.randrange(len(vbl))
            fals[i] = rng.randrange(1, vars[vbl[i]].domain_size)
        cons.append((tuple(vbl), tuple(fals)))
    csp = csp_of(vars, cons)
    m = Marking.from_indices(n, [v for v in range(n) if rng.random() < 0.2])
    state = np.array([hidden[v] if m.marked[v] else STAR for v in range(n)])
    return csp, m, state


def test_rejection_rows_match_reference():
    # value for value and attempt for attempt as the per-variable
    # reference, and a budget error at the same cap
    rng = random.Random(29)
    seen = {"several_rows": 0, "16_bit": 0, "fixed": 0, "rejected": 0}
    for case in range(300):
        csp, m, state = planted_rows_case(rng)
        tables = live_tables(csp, m, state)
        if tables is None:
            continue
        stream = RandomnessTape(case).stream(0, LABEL_REJECTION)
        reads = ReadSizes(stream)
        values, attempts = rejection_sampling(csp, state.copy(), tables,
                                              reads)
        assert (values.tolist(), attempts) == reference_final_sampling(
            csp, m, state.tolist(),
            RandomnessTape(case).stream(0, LABEL_REJECTION))
        rounds = len(reads.sizes)
        if rounds > 1:
            with pytest.raises(BudgetError):
                rejection_sampling(
                    csp, state.copy(), tables,
                    RandomnessTape(case).stream(0, LABEL_REJECTION),
                    cap=rounds - 1)
        seen["several_rows"] += tables.row_cons is not None and rounds > 1
        seen["16_bit"] += tables.codes.itemsize == 2 and rounds > 1
        seen["fixed"] += bool(m.mask.any())
        seen["rejected"] += attempts > tables.components
    assert min(seen.values()) >= 20, seen


def test_rejection_rows_bound_their_cells():
    # a constraint spans as few rows as hold it, so a long constraint
    # among short ones adds at most 7 cells per constraint
    n = 10_500
    pairs = [((v,), (0,)) for v in range(10_000)]
    pairs.append((tuple(range(10_000, n)), (1,) * 500))
    csp = csp_of([VariableSpec.uniform(2)] * n, pairs)
    tables = rejection_tables(csp, np.arange(len(pairs)),
                              np.zeros(n, dtype=bool))
    assert tables.rows.size <= n + 7 * len(pairs)
    assert tables.row_cons is not None
    assert_rows_hold(tables, csp, np.arange(n))


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


def first_residual_slot(csp, m, seed):
    """The earliest time of [-n, 0) whose marked slot's deviate lands in the
    residual layer; None when every marked slot there is safe."""
    ctx = UpdateContext(csp, m)
    n = csp.num_vars
    u0s = RandomnessTape(seed).layered_block(-n, 0)
    for v in m.indices():
        if u0s[v] >= ctx.safe_total[csp.flat.spec_of[v]]:
            return v - n
    return None


def chain_reads(monkeypatch):
    """Record the (t_start, t_stop) of every ``layered_block`` call."""
    reads = []
    block = RandomnessTape.layered_block

    def recording(self, t_start, t_stop):
        reads.append((t_start, t_stop))
        return block(self, t_start, t_stop)

    monkeypatch.setattr(RandomnessTape, "layered_block", recording)
    return reads


#: Chain deviates and ``layered_block`` calls of ``bounding_chain`` at
#: T = 4n over seeds 0-39: each fallback reads T deviates, each run whose
#: last sweep is all safe reads n.
READS_AT_4N = {"ternary9": (1_413, 79), "weighted8": (392, 43)}


@pytest.mark.parametrize("chunk", [None, 4])
def test_last_window_and_fallback_match_per_slot_reference(monkeypatch,
                                                           chunk):
    # T > n: the last sweep [-n, 0) is read first; the steps before it run
    # only when one of its marked slots is residual; both as the per-slot
    # chain, and no chain time is read twice
    if chunk is not None:
        # the earlier steps of a fallback span several blocks
        monkeypatch.setattr(sampler, "_CHUNK", chunk)
    reads = chain_reads(monkeypatch)
    branches = {True: 0, False: 0}
    several_blocks = 0
    at_4n = {}
    cases = {"weighted8": weighted8(), "overlap18": overlap18(),
             "uniform20": uniform20(), "free8": free8(),
             "ternary9": ternary9()}
    for name, (csp, m) in cases.items():
        n = csp.num_vars
        for T in (n + 1, 2 * n + 3, 4 * n, 5 * n + 2):
            for seed in range(40):
                reads.clear()
                run = bounding_chain(csp, m, T, seed)
                got = list(reads)
                assert (run.state.tolist(), run.coalesced) == (
                    reference_bounding_chain(csp, m, T, seed)), (n, T, seed)
                fallback = first_residual_slot(csp, m, seed) is not None
                branches[fallback] += 1
                assert got[0] == (-n, 0), (n, T, seed)
                times = [t for a, b in got for t in range(a, b)]
                assert sorted(times) == list(
                    range(-T if fallback else -n, 0)), (n, T, seed)
                several_blocks += fallback and len(got) > 2
                if T == 4 * n and name in READS_AT_4N:
                    deviates, calls = at_4n.get(name, (0, 0))
                    at_4n[name] = (deviates + len(times), calls + len(got))
    assert branches[False] >= 20 and branches[True] >= 20
    if chunk is None:
        assert at_4n == READS_AT_4N
    else:
        assert several_blocks >= 20
    # T <= n: the whole horizon is the last sweep, read once
    csp, m = ternary9()
    for T in (1, 8, 9):
        reads.clear()
        bounding_chain(csp, m, T, 0)
        assert reads == [(-T, 0)]


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
