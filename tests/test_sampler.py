import random

import pytest

from lllsampler import (BudgetError, InvariantError, Marking,
                        PartialAssignment, STAR, bounding_chain,
                        derive_seed, final_sampling, sample, systematic_scan)
from lllsampler.kernels import TapeStream
from lllsampler.verify import enumerate_law, law_of_projection, tv_distance

from conftest import free8, overlap18, uniform20, weighted8


def test_sample_deterministic_in_seed():
    csp, m = weighted8()
    a = sample(csp, m, 11)
    b = sample(csp, m, 11)
    assert a.assignment == b.assignment
    assert a.horizon_used == b.horizon_used
    assert any(sample(csp, m, s).assignment != a.assignment
               for s in range(5))


def test_sample_satisfies_and_is_concrete():
    csp, m = overlap18()
    for seed in range(20):
        rec = sample(csp, m, seed)
        assert all(q is not STAR for q in rec.assignment)
        assert csp.satisfies(rec.assignment)


def test_doubling_replays_shared_suffix():
    csp, m = weighted8()
    for seed in range(30):
        t = 1
        while not bounding_chain(csp, m, t, seed).coalesced:
            t *= 2
        small = bounding_chain(csp, m, t, seed).final_state
        big = bounding_chain(csp, m, 2 * t, seed).final_state
        for v in range(csp.num_vars):
            if m.marked[v]:
                assert small.values[v] == big.values[v]


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
    state = PartialAssignment([0, 1, 0, 1, 0, 1, 0, 1])
    values, attempts = final_sampling(csp, m, state, seed=0)
    assert values == list(state.values)
    assert attempts == 0


def test_final_sampling_requires_coalesced_state():
    csp, m = weighted8()
    with pytest.raises(InvariantError):
        final_sampling(csp, m, PartialAssignment.all_star(8), seed=0)


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
        systematic_scan(csp, m, PartialAssignment.all_star(8), 4, 0)
    with pytest.raises(InvariantError):
        systematic_scan(csp, m, PartialAssignment([1] * 8), 4, 0)


def make_scan_state(csp, m, solution):
    return PartialAssignment(
        [solution[v] if m.marked[v] else STAR for v in range(csp.num_vars)])


def test_scan_zero_steps_and_determinism():
    csp, m = weighted8()
    state = make_scan_state(csp, m, [1] * 8)
    assert systematic_scan(csp, m, state, 0, 7).values == state.values
    out = systematic_scan(csp, m, state, 40, 7)
    assert out.values == systematic_scan(csp, m, state, 40, 7).values
    assert all(out.values[v] is STAR or m.marked[v] for v in range(8))


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
                              derive_seed(5, "scan", trial))
        key = tuple(out.values[v] for v in m.indices())
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / trials for k, c in counts.items()}
    assert tv_distance(empirical, law.as_dict()) < 0.08
