"""Per-step machinery: randomness tapes, component decomposition, rejection
sampling, the safe distribution, the exact component marginal, and the single
monotone coupled update, applied one step at a time or one sweep at a time.

The update is a coupling: one shared uniform deviate per step selects either a
value from the safe lower envelope (same value for every bounded chain) or a
value from the residual layer, whose sub-blocks are sized by the exact
component marginal.  The residual layer is only entered, and the component
only computed, when the deviate lands past the safe mass.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import struct
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import (STAR, AtomicCsp, FlatCsp, enumerate_solutions, left_sum,
                   memoized)
from .errors import BudgetError, ConditionsError, InvariantError

# Stream labels.
LABEL_LAYERED = 0      # one deviate per chain step
LABEL_REJECTION = 1    # rejection sampling attempts
LABEL_MARKING = 2      # marking construction randomness
LABEL_TENSOR = 3       # tensorization randomness

_TIME_OFFSET = 1 << 62

DEFAULT_REJECTION_CAP = 10**7
DEFAULT_TERM_BUDGET = 2**24

#: Slack for floating point comparisons of probabilities.
_PROB_TOL = 1e-9


def derive_seed(master_seed: int, *parts) -> int:
    """Derive an independent 64-bit sub-seed from a master seed and labels."""
    h = hashlib.blake2b(digest_size=8)
    h.update(struct.pack("<Q", master_seed & (2**64 - 1)))
    for p in parts:
        if isinstance(p, str):
            h.update(b"s" + p.encode())
        else:
            h.update(b"i" + struct.pack("<q", int(p)))
    return int.from_bytes(h.digest(), "little")


class RandomnessTape:
    """Deterministic, replayable uniform deviates of one master seed.

    The tape has two layouts, one per purpose.  Identical addresses give
    identical values across runs and platforms; distinct labels are
    independent Philox keys.

    - Chain deviates (label 0) are keyed by absolute time: the deviate of
      time t is output t + 2^62 of the label's stream, so a whole horizon's
      deviates come from one vectorized call and doubling the horizon
      replays the shared suffix exactly.
    - Every other draw comes from a ``TapeStream``: one generator at address
      (t, label), read in order.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & (2**64 - 1)

    def _generator(self, label: int, position: int) -> Generator:
        return Generator(Philox(
            key=np.array([self.master_seed, label], dtype=np.uint64),
            counter=position))

    def uniform(self, t: int) -> float:
        """The chain deviate of time t."""
        return float(self.layered_block(t, t + 1)[0])

    def layered_block(self, t_start: int, t_stop: int) -> np.ndarray:
        """The chain deviates for t in [t_start, t_stop), batched: one
        output each, read in order.

        One counter position yields four 64-bit outputs, so the generator
        starts at position (t_start + 2^62) // 4 and skips t_start % 4
        outputs.
        """
        skip = t_start % 4
        g = self._generator(LABEL_LAYERED, (t_start + _TIME_OFFSET) // 4)
        return g.random(skip + t_stop - t_start)[skip:]

    def stream(self, t: int, label: int) -> "TapeStream":
        return TapeStream(self, t, label)


class TapeStream:
    """Deviates read in order from one generator at address (t, label)."""

    def __init__(self, tape: RandomnessTape, t: int, label: int):
        self._gen = tape._generator(label, (t + _TIME_OFFSET) << 80)

    def next_uniform(self) -> float:
        return float(self._gen.random())

    def uniforms(self, k: int) -> np.ndarray:
        """The next k deviates, as one array."""
        return self._gen.random(k)


@dataclass(frozen=True)
class ComponentResult:
    """The falsifiable neighborhood grown from a focal variable.

    ``token`` is False as soon as a reachable falsifiable constraint touches a
    marked STAR variable other than the focal one; True means the component's
    conditional law factorizes away from the rest of the instance.
    ``entries`` holds, per falsifiable constraint in discovery order, the
    (variable, falsifying value) pairs of its STAR entries, in entry order.
    """

    component_vars: tuple[int, ...]
    component_constraints: tuple[int, ...]
    token: bool
    entries: tuple[tuple[tuple[int, int], ...], ...]


def component(csp: AtomicCsp, marked, state, u: int) -> ComponentResult:
    """Grow the component of u through the constraints falsifiable under
    ``state``, restricted to their STAR entries, walking ``csp.flat``.

    ``state`` is a sequence of value indices with STAR = -1: an int64 array
    or a list of ints.  ``marked`` is a per-variable boolean sequence.
    Requires state[u] = STAR.
    """
    if state[u] != STAR:
        raise InvariantError("component() requires the focal variable be STAR")
    flat = csp.flat
    in_comp = {u}
    queue = deque([u])
    cons_ids: list[int] = []
    entries: list[tuple[tuple[int, int], ...]] = []
    seen_cons = set()
    while queue:
        v = queue.popleft()
        lo, hi = flat.var_ptr[v:v + 2].tolist()
        for ci in flat.var_cons[lo:hi].tolist():
            if ci in seen_cons:
                continue
            seen_cons.add(ci)
            a = int(flat.starts[ci])
            b = a + int(flat.arity[ci])
            stars = []
            for w, q in zip(flat.cons_vars[a:b].tolist(),
                            flat.cons_fals[a:b].tolist()):
                x = state[w]
                if x == STAR:
                    stars.append((w, q))
                elif x != q:
                    break
            else:
                for w, _ in stars:
                    if w != u and marked[w]:
                        return ComponentResult(
                            tuple(sorted(in_comp)), tuple(cons_ids), False, ())
                cons_ids.append(ci)
                entries.append(tuple(stars))
                for w, _ in stars:
                    if w not in in_comp:
                        in_comp.add(w)
                        queue.append(w)
    return ComponentResult(tuple(sorted(in_comp)), tuple(cons_ids), True,
                           tuple(entries))


def product_draw(flat: FlatCsp, free: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Values of the variables ``free`` from their product law, one deviate
    each: a deviate x gives the first value whose cumulative weight exceeds
    x (the top value when none does).  One pass per column of
    ``flat.cum_table``: one for binary domains."""
    spec = flat.spec_of[free]
    out = np.zeros(u.shape, dtype=np.int64)
    for column in flat.cum_table.T:
        out += column[spec] <= u
    return out


def rejection_sampling(csp: AtomicCsp, values: np.ndarray, labels,
                       stream: TapeStream, cap: int = DEFAULT_REJECTION_CAP):
    """Fill the STAR entries of ``values`` (-1 = STAR) in place from their
    product law until no constraint of their components is violated, every
    component rejection-sampled at once, in lockstep.

    ``labels`` is ``split_components``'s pair: a component per variable and
    per constraint.  The first attempt draws every STAR variable, ascending,
    in one read of the stream; each later one redraws, in one ascending
    read, every variable of the components with a violated constraint, and
    checks only their constraints.  Which deviates a component reads depends
    only on outcomes already revealed, so its attempts are i.i.d. product
    draws that stop at its first success, independently of the other
    components.

    Returns (values, attempts summed over the components with a
    constraint); a variable in no constraint is drawn once and counts no
    attempt.  A component that needs more than ``cap`` attempts raises
    ``BudgetError``.
    """
    flat = csp.flat
    var_label, cons_label = labels
    draw = np.flatnonzero(values == STAR)
    # the components with a constraint to satisfy, and their entries
    pending = len(np.unique(cons_label[cons_label >= 0]))
    if pending:
        entries = np.flatnonzero(cons_label[flat.entry_cons] >= 0)
    attempts = rounds = 0
    while True:
        values[draw] = product_draw(flat, draw, stream.uniforms(len(draw)))
        attempts += pending
        rounds += 1
        if not pending:
            return values, attempts
        cons = flat.entry_cons[entries]
        first = np.flatnonzero(np.diff(cons, prepend=-1))
        hit = values[flat.cons_vars[entries]] == flat.cons_fals[entries]
        violated = cons[first][np.logical_and.reduceat(hit, first)]
        bad = np.zeros(len(var_label), dtype=bool)
        bad[cons_label[violated]] = True
        pending = int(bad.sum())
        if pending and rounds == cap:
            raise BudgetError(
                f"rejection sampling exceeded {cap} attempts; instance is "
                "likely outside the sampler's regime")
        draw = draw[bad[var_label[draw]]]
        entries = entries[bad[cons_label[cons]]]


def safe_pmf(csp: AtomicCsp, u: int, log_beta: float) -> tuple[float, ...]:
    """The safe lower envelope D*(q) = max(0, 1 - beta*(1 - D(q))) of a
    marked variable, given the marking's ln(beta); the rest of the mass is
    the residual layer's."""
    beta = math.exp(log_beta)
    return tuple(max(0.0, 1.0 - beta * (1.0 - w)) for w in csp.vars[u].weights)


def _ie_marginal(csp, cons, focal, budget):
    """Inclusion-exclusion over constraint subsets with conflict pruning;
    ``cons`` is ``ComponentResult.entries``."""
    nq = csp.vars[focal].domain_size
    weights = csp.vars[focal].weights
    numer = [0.0] * nq
    terms = 0

    assign: dict[int, int] = {}

    def visit(start, sign, weight):
        nonlocal terms
        terms += 1
        if terms > budget:
            raise BudgetError("inclusion-exclusion term budget exceeded")
        if focal in assign:
            numer[assign[focal]] += sign * weight
        else:
            for q in range(nq):
                numer[q] += sign * weight * weights[q]
        for j in range(start, len(cons)):
            added = []
            w = weight
            ok = True
            for v, q in cons[j]:
                if v in assign:
                    if assign[v] != q:
                        ok = False
                        break
                else:
                    assign[v] = q
                    added.append(v)
                    w *= csp.vars[v].weights[q]
            if ok:
                visit(j + 1, -sign, w)
            for v in added:
                del assign[v]

    visit(0, 1.0, 1.0)
    return numer


def _enum_marginal(csp, comp_vars, entries, focal, budget):
    """The marginal's numerators by enumeration of the component's
    solutions (``core.enumerate_solutions``), added in lexicographic
    order."""
    index = {v: i for i, v in enumerate(comp_vars)}
    fi = index[focal]
    numer = [0.0] * csp.vars[focal].domain_size
    for values, w in enumerate_solutions(
            [csp.vars[v].weights for v in comp_vars],
            [[(index[v], q) for v, q in e] for e in entries], budget):
        numer[values[fi]] += w
    return numer


def exact_component_marginal(csp: AtomicCsp, comp: ComponentResult, focal: int,
                             budget: int = DEFAULT_TERM_BUDGET
                             ) -> tuple[float, ...]:
    """Pr[focal = q] under the component's conditional law, computed exactly.

    Chooses inclusion-exclusion over constraint subsets or exhaustive
    enumeration over the component's state space, whichever is predicted
    cheaper; errors out if both exceed the term budget.
    """
    if not comp.token:
        raise InvariantError("component marginal requires token = True")
    if focal not in comp.component_vars:
        raise InvariantError("focal variable not in component")
    if not comp.entries:
        return csp.vars[focal].weights
    ie_cost = 2 ** len(comp.entries)
    enum_cost = 1
    for v in comp.component_vars:
        enum_cost *= csp.vars[v].domain_size
        if enum_cost > 4 * DEFAULT_TERM_BUDGET:
            break
    if min(ie_cost, enum_cost) > budget:
        raise BudgetError(
            f"component too large: 2^{len(comp.entries)} subsets vs "
            f"{enum_cost} states exceed the budget of {budget} terms")
    if ie_cost <= enum_cost:
        numer = _ie_marginal(csp, comp.entries, focal, budget)
    else:
        numer = _enum_marginal(csp, comp.component_vars, comp.entries,
                               focal, budget)
    denom = left_sum(numer)
    if denom <= 0.0:
        raise InvariantError("component has no satisfying assignment")
    return tuple(max(0.0, x) / denom for x in numer)


class UpdateContext:
    """Precomputed data for the coupled update under a ``Marking`` m.

    Building one of these requires beta to be defined whenever any variable is
    marked (e*alpha <= 1).  The safe layer is one table with a row per
    ``csp.flat.specs`` entry, laid out like ``flat.cum_table``, filled for
    the marked specs: the safe probabilities (``safe_probs``), their running
    sums but the last, padded with +inf (``safe_cum``), and the safe totals
    (``safe_total``).  A safe deviate u0 gives the value "how many entries
    of the row are <= u0".  ``marked_total`` and ``marked_cum`` gather the
    rows of the marked variables, ascending (``marked_idx``).
    """

    def __init__(self, csp: AtomicCsp, m):
        from .marking import constants
        self.csp = csp
        self.marking = m
        self.n = csp.num_vars
        self.marked_idx = np.flatnonzero(m.mask)
        flat = csp.flat
        marked_spec = flat.spec_of[self.marked_idx]
        rows, width = flat.cum_table.shape
        self.safe_probs = np.zeros((rows, width + 1))
        self.safe_cum = np.full((rows, width), np.inf)
        self.safe_total = np.zeros(rows)
        if len(self.marked_idx):
            consts = constants(csp, m)
            if consts.log_beta is None:
                raise ConditionsError(
                    "e*alpha > 1: beta undefined, chain cannot run")
            # each spec's safe pmf, from its first marked variable
            specs, first = np.unique(marked_spec, return_index=True)
            for g, v in zip(specs.tolist(), self.marked_idx[first].tolist()):
                probs = safe_pmf(csp, v, consts.log_beta)
                # summed left to right, one probability at a time
                cum = list(itertools.accumulate(probs))
                star = 1.0 - cum[-1]
                if star < -_PROB_TOL:
                    raise ConditionsError(
                        "safe pmf has negative residual mass")
                self.safe_probs[g, :len(probs)] = probs
                self.safe_cum[g, :len(cum) - 1] = cum[:-1]
                self.safe_total[g] = 1.0 - max(0.0, star)
        self.marked_total = self.safe_total[marked_spec]
        self.marked_cum = self.safe_cum[marked_spec]


def update_context(csp: AtomicCsp, m) -> UpdateContext:
    """``UpdateContext(csp, m)`` for a ``Marking`` m, built once per marking
    and kept on the instance."""
    return memoized(csp, UpdateContext, m)


def _update_in_place(ctx: UpdateContext, values, t: int, u0: float) -> None:
    """One bounding-chain / scan step at time t, in place, on a state: an
    int64 array or a list of ints, STAR = -1."""
    v = t % ctx.n
    if not ctx.marking.marked[v]:
        return
    values[v] = STAR
    g = ctx.csp.flat.spec_of[v]
    if u0 < ctx.safe_total[g]:
        # Shared safe layer: the outcome is the same for every bounded chain,
        # no component computation needed.
        values[v] = int(np.count_nonzero(ctx.safe_cum[g] <= u0))
        return
    comp = component(ctx.csp, ctx.marking.marked, values, v)
    if not comp.token:
        values[v] = STAR
        return
    dagger = exact_component_marginal(ctx.csp, comp, v)
    safe = ctx.safe_probs[g, :len(dagger)].tolist()
    for q in range(len(safe)):
        if dagger[q] < safe[q] - _PROB_TOL:
            raise InvariantError(
                "component marginal fell below the safe envelope; the "
                "instance is outside the coupling's valid regime")
    # Residual layer: sub-blocks of length dagger(q) - safe(q) in ascending
    # value order fill the STAR region exactly.
    x = u0 - ctx.safe_total[g]
    q = 0
    while q < len(safe) - 1:
        block = dagger[q] - safe[q]
        if x < block:
            break
        x -= block
        q += 1
    values[v] = q


def chain_steps(ctx: UpdateContext, state: np.ndarray, t0: int,
                u0s: np.ndarray) -> None:
    """The chain steps at times t0, t0 + 1, ..., the step at t0 + i with
    deviate ``u0s[i]``, applied in place to a state array (-1 = STAR).

    The times are cut at multiples of n into sweeps, and a sweep updates
    each variable at most once.  So the safe values of all its marked slots
    come from one comparison with ``ctx.marked_cum`` and go in with one
    scatter, without collisions.  A slot whose deviate lands in the
    residual layer (u0 >= its safe total) goes through ``_update_in_place``
    in time order, after the safe writes before it in its sweep.
    Unmarked slots do nothing.
    """
    idx, total, cum = ctx.marked_idx, ctx.marked_total, ctx.marked_cum
    n = ctx.n
    stop = t0 + len(u0s)
    a = t0
    while a < stop:
        base = a - a % n
        b = min(stop, base + n)
        if b - a == n:
            i0, i1 = 0, len(idx)
        else:
            i0, i1 = np.searchsorted(idx, (a - base, b - base)).tolist()
        vs = idx[i0:i1]
        u = u0s[vs + (base - t0)]
        safe = (cum[i0:i1] <= u[:, None]).sum(axis=1)
        done = 0
        for j in np.flatnonzero(u >= total[i0:i1]).tolist():
            state[vs[done:j]] = safe[done:j]
            _update_in_place(ctx, state, base + int(vs[j]), float(u[j]))
            done = j + 1
        state[vs[done:]] = safe[done:]
        a = b


def coupled_update(csp: AtomicCsp, m, state, t: int,
                   tape: RandomnessTape) -> np.ndarray:
    """One monotone coupled step on a state (STAR = -1): returns the updated
    state as a new int64 array and leaves ``state`` as it was.

    Unmarked time slots are no-ops.  The randomness consumed is exactly the
    chain deviate of time t, so runs over the same tape couple pointwise.
    """
    out = np.array(state, dtype=np.int64)
    _update_in_place(update_context(csp, m), out, t, tape.uniform(t))
    return out
