"""Shared instances and oracles used across the test modules."""

import numpy as np
import pytest

from lllsampler import (AtomicCsp, InvariantError, Marking, RandomnessTape,
                        STAR, VariableSpec, compute_measures, enumerate_law)
from lllsampler.kernels import _update_in_place, update_context
from lllsampler.sampler import _run_chain


def chain_uniform(tape, t):
    """The chain deviate of time t on ``tape``."""
    return float(tape.layered_block(t, t + 1)[0])


def coupled_update(csp, m, state, t, tape):
    """One monotone coupled step on a state (STAR = -1): returns the updated
    state as a new int64 array and leaves ``state`` as it was.  Unmarked
    time slots are no-ops.  The randomness consumed is exactly the chain
    deviate of time t, so runs over the same tape couple pointwise."""
    out = np.array(state, dtype=np.int64)
    _update_in_place(update_context(csp, m), out, t, chain_uniform(tape, t))
    return out


def systematic_scan(csp, m, state, steps, seed):
    """The forward chain on a state (STAR = -1) that is STAR-free on the
    marking and STAR off it: ``steps`` coupled updates at times
    0..steps-1, on an int64 copy of ``state``, which is returned.  The
    convergence oracle."""
    state = np.array(state, dtype=np.int64)
    star = state == STAR
    if (star & m.mask).any():
        raise InvariantError("scan input must be STAR-free on the marking")
    if (~star & ~m.mask).any():
        raise InvariantError("scan input must be STAR off the marking")
    _run_chain(update_context(csp, m), state, RandomnessTape(seed), 0, steps)
    return state


def law_of_projection(csp, m, law=None):
    """The exact law of the marked coordinates (the bounding chain's
    target)."""
    if law is None:
        law = enumerate_law(csp)
    return law.restricted(m.indices())


def csp_of(vars, pairs):
    """The instance over ``vars`` whose constraints are the
    ``(vbl, falsifying)`` tuples of ``pairs``, in order."""
    pairs = list(pairs)
    return AtomicCsp(vars, [v for vbl, _ in pairs for v in vbl],
                     [q for _, fals in pairs for q in fals],
                     [len(vbl) for vbl, _ in pairs])


def constraint_pairs(csp):
    """The ``(vbl, falsifying)`` tuples of ``csp``'s constraints, in order,
    read from ``csp.flat``."""
    f = csp.flat
    vs, qs = f.cons_vars.tolist(), f.cons_fals.tolist()
    return [(tuple(vs[a:b]), tuple(qs[a:b])) for a, b in f.spans()]


def counted_measures(csp):
    """The measures of a fresh copy of ``csp``, counted by
    ``compute_measures`` whatever ``csp`` holds."""
    f = csp.flat
    return compute_measures(
        AtomicCsp(csp.vars, f.cons_vars, f.cons_fals, f.arity))


def projected_constraints(csp, comp, state):
    """The oracles' own projection of a component: the ``(vbl,
    falsifying)`` pair of each constraint of ``comp.component_constraints``,
    restricted to the coordinates that are STAR under ``state``."""
    pairs = constraint_pairs(csp)
    out = []
    for ci in comp.component_constraints:
        kept = [(v, q) for v, q in zip(*pairs[ci]) if state[v] == STAR]
        out.append((tuple(v for v, _ in kept), tuple(q for _, q in kept)))
    return out


def weighted8():
    """8 binary variables with weights (0.2, 0.8), one arity-8 constraint
    forbidding all-0; marking the first 5 variables satisfies the chain
    conditions with room to spare."""
    vars = [VariableSpec(2, (0.2, 0.8)) for _ in range(8)]
    csp = csp_of(vars, [(tuple(range(8)), (0,) * 8)])
    return csp, Marking.from_indices(8, range(5))


def uniform20():
    """20 uniform binary variables, one arity-20 constraint; 14 marked."""
    vars = [VariableSpec.uniform(2) for _ in range(20)]
    csp = csp_of(vars, [(tuple(range(20)), (0,) * 20)])
    return csp, Marking.from_indices(20, range(14))


def overlap18():
    """18 weighted binary variables; two arity-10 constraints sharing
    variables 8 and 9; 6 marked in each, none shared."""
    vars = [VariableSpec(2, (0.2, 0.8)) for _ in range(18)]
    cons = [(tuple(range(10)), (0,) * 10),
            (tuple(range(8, 18)), (0,) * 10)]
    csp = csp_of(vars, cons)
    return csp, Marking.from_indices(18, list(range(6)) + list(range(12, 18)))


def ternary9():
    """9 ternary variables with weights (0.5, 0.3, 0.2) and two arity-5
    constraints sharing variable 7; the first 6 marked.  Each marked
    variable's safe mass is about 0.49, so about half the marked slots of a
    sweep enter the residual layer."""
    spec = VariableSpec(3, (0.5, 0.3, 0.2))
    cons = [((0, 1, 2, 6, 7), (0, 1, 0, 2, 2)),
            ((3, 4, 5, 7, 8), (1, 0, 0, 2, 2))]
    return csp_of([spec] * 9, cons), Marking.from_indices(9, range(6))


def random_weighted_csp(rng, max_domain=7):
    """Domains of size 2 to ``max_domain`` with random weights, 0-30
    constraints of arity 1-12."""
    n = rng.randint(1, 40)
    specs = []
    for _ in range(rng.randint(1, 4)):
        d = rng.randint(2, max_domain)
        raw = [rng.random() + 0.05 for _ in range(d)]
        total = sum(raw)
        specs.append(VariableSpec(d, tuple(w / total for w in raw)))
    vars = [rng.choice(specs) for _ in range(n)]
    cons = []
    for _ in range(rng.randint(0, 30)):
        vbl = tuple(rng.sample(range(n), rng.randint(1, min(12, n))))
        cons.append(
            (vbl, tuple(rng.randrange(vars[v].domain_size) for v in vbl)))
    return csp_of(vars, cons)


def free8():
    """Constraint-free uniform binary instance, everything marked."""
    csp = csp_of([VariableSpec.uniform(2) for _ in range(8)], [])
    return csp, Marking.from_indices(8, range(8))


def mixed_csp():
    """Two mixed-size weighted domains and two constraints (one unary)."""
    return csp_of(
        [VariableSpec(3, (1 / 3, 1 / 3, 1 / 3)),
         VariableSpec(4, (0.25, 0.25, 1 / 3, 1 / 6))],
        [((0,), (0,)), ((0, 1), (2, 1))])


@pytest.fixture
def weighted8_csp():
    return weighted8()


@pytest.fixture
def uniform20_csp():
    return uniform20()
