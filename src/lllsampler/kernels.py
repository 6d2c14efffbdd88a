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
from numpy.random.bit_generator import ISeedSequence

from .core import (STAR, AtomicCsp, FlatCsp, enumerate_solutions, left_sum,
                   memoized, split_components)
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


class _Key(ISeedSequence):
    """A Philox key handed over as a seed sequence: ``Philox(_Key(k))``
    equals ``Philox(key=k)`` without the ``SeedSequence`` that ``key=``
    first builds from OS entropy and then overrides."""

    __slots__ = ("key",)

    def __init__(self, key: np.ndarray):
        self.key = key

    def generate_state(self, n_words, dtype=np.uint32):
        return self.key


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
            _Key(np.array([self.master_seed, label], dtype=np.uint64)),
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


@dataclass(frozen=True)
class RejectionTables:
    """What lockstep rejection reads after its first attempt: the
    ``components`` components with a constraint, numbered 0..P-1 in the
    order of their ``split_components`` labels, and their constraints,
    numbered 0..C-1 in id order.

    - ``entries``: four arrays over the constraints' entries on STAR
      variables, in entry order: variable, falsifying value, constraint and
      component.
    - ``cons_comp``: the component of each constraint.
    - ``draw`` and ``draw_comp``: the STAR variables of the components,
      ascending, and their components.
    - ``draw_cum``: their ``flat.cum_table`` rows; one column (binary
      domains) is kept as a vector.
    """

    components: int
    entries: tuple[np.ndarray, ...]
    cons_comp: np.ndarray
    draw: np.ndarray
    draw_comp: np.ndarray
    draw_cum: np.ndarray


def rejection_tables(csp: AtomicCsp, live: np.ndarray,
                     fixed: np.ndarray) -> RejectionTables | None:
    """The tables of the constraints ``live`` (ids, ascending) on their
    entries off ``fixed`` (a mask over the variables), split into
    components by ``split_components``; None when they have no such
    entry."""
    flat = csp.flat
    start, length = flat.starts[live], flat.arity[live]
    ends = np.cumsum(length)
    entry = (np.arange(length.sum())
             + np.repeat(start - ends + length, length))
    entry = entry[~fixed[flat.cons_vars[entry]]]
    if not len(entry):
        return None
    ev = flat.cons_vars[entry]
    label = split_components(csp, entry)
    _, ec = np.unique(flat.entry_cons[entry], return_inverse=True)
    roots, comp = np.unique(label[ev], return_inverse=True)
    cons_comp = np.empty(ec[-1] + 1, dtype=np.int64)
    cons_comp[ec] = comp
    draw = np.unique(ev)
    cum = flat.cum_table[flat.spec_of[draw]]
    return RejectionTables(
        len(roots), (ev, flat.cons_fals[entry], ec, comp), cons_comp,
        draw, np.searchsorted(roots, label[draw]),
        cum[:, 0] if cum.shape[1] == 1 else cum)


def rejection_sampling(csp: AtomicCsp, values: np.ndarray,
                       tables: RejectionTables | None, stream: TapeStream,
                       cap: int = DEFAULT_REJECTION_CAP):
    """Fill the STAR entries of ``values`` (-1 = STAR) in place from their
    product law until no constraint of ``tables`` is violated, every
    component rejection-sampled at once, in lockstep.

    ``tables`` holds the components with a constraint on this state's STAR
    variables (``rejection_tables``); None when there is none.  The first
    attempt draws every STAR variable, ascending, in one read of the
    stream; each later one redraws, in one ascending read, every variable
    of the components with a violated constraint, and checks only their
    constraints.  Which deviates a component reads depends only on outcomes
    already revealed, so its attempts are i.i.d. product draws that stop at
    its first success, independently of the other components.

    A round after the first is a few flat passes over the tables: one
    scatter marks the constraints with an entry off its falsifying value,
    and one marks the components of the rest.  A satisfied component stays
    satisfied, so the tables keep only the pending components' entries,
    constraints and variables, masked again only in a round where a
    component succeeded.

    Returns (values, attempts summed over the components with a
    constraint); a variable in no constraint is drawn once and counts no
    attempt.  A component that needs more than ``cap`` attempts raises
    ``BudgetError``.
    """
    draw = np.flatnonzero(values == STAR)
    values[draw] = product_draw(csp.flat, draw, stream.uniforms(len(draw)))
    if tables is None:
        return values, 0
    components = attempts = tables.components
    ev, ef, ec, entry_comp = tables.entries
    cons_comp = tables.cons_comp
    cons = np.arange(len(cons_comp))
    draw, draw_comp, cum = tables.draw, tables.draw_comp, tables.draw_cum
    rounds, live = 1, components
    while True:
        # a constraint with an entry off its falsifying value is satisfied
        sat = np.zeros(len(tables.cons_comp), dtype=bool)
        sat[ec[values[ev] != ef]] = True
        bad = np.zeros(components, dtype=bool)
        bad[cons_comp[~sat[cons]]] = True
        pending = int(np.count_nonzero(bad))
        if not pending:
            return values, attempts
        if rounds == cap:
            raise BudgetError(
                f"rejection sampling exceeded {cap} attempts; instance is "
                "likely outside the sampler's regime")
        if pending < live:
            keep = bad[entry_comp]
            ev, ef, ec = ev[keep], ef[keep], ec[keep]
            entry_comp = entry_comp[keep]
            keep = bad[cons_comp]
            cons, cons_comp = cons[keep], cons_comp[keep]
            keep = bad[draw_comp]
            draw, draw_comp, cum = draw[keep], draw_comp[keep], cum[keep]
            live = pending
        u = stream.uniforms(len(draw))
        values[draw] = (cum <= u if cum.ndim == 1
                        else (cum <= u[:, None]).sum(axis=1))
        attempts += pending
        rounds += 1


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
