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
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from .core import STAR, AtomicConstraint, AtomicCsp, FlatCsp, ProjectedCsp
from .errors import BudgetError, ConditionsError, InvariantError

# Stream labels.
LABEL_LAYERED = 0      # one deviate per chain step
LABEL_REJECTION = 1    # rejection sampling attempts
LABEL_MARKING = 2      # marking construction randomness
LABEL_TENSOR = 3       # tensorization randomness

_TIME_OFFSET = 1 << 62

DEFAULT_REJECTION_CAP = 10**7
# Rejection attempts per batch: the first batch, and the most deviates one
# batch may read.
_FIRST_BATCH = 16
_BATCH_DEVIATES = 1 << 16
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
      time t sits at counter position t, so a whole horizon's deviates come
      from one vectorized call and doubling the horizon replays the shared
      suffix exactly.
    - Every other draw comes from a ``TapeStream``: one generator at address
      (t, label), read in order.
    """

    def __init__(self, master_seed: int):
        self.master_seed = int(master_seed) & (2**64 - 1)

    def _generator(self, label: int, position: int) -> Generator:
        bg = Philox(key=np.array([self.master_seed, label], dtype=np.uint64))
        bg.advance(position)
        return Generator(bg)

    def uniform(self, t: int) -> float:
        """The chain deviate of time t."""
        return float(self.layered_block(t, t + 1)[0])

    def layered_block(self, t_start: int, t_stop: int) -> np.ndarray:
        """The chain deviates for t in [t_start, t_stop), batched.

        One counter position yields four 64-bit outputs, so the per-time
        deviate is every fourth draw.
        """
        g = self._generator(LABEL_LAYERED, t_start + _TIME_OFFSET)
        return g.random(4 * (t_stop - t_start))[::4].copy()

    def stream(self, t: int, label: int) -> "TapeStream":
        return TapeStream(self, t, label)


class TapeStream:
    """Deviates read in order from one generator at address (t, label).

    The values do not depend on the buffer size: the buffer only batches
    reads of the same sequence.
    """

    def __init__(self, tape: RandomnessTape, t: int, label: int):
        self._gen = tape._generator(label, (t + _TIME_OFFSET) << 80)
        self._buf: list[float] = []
        self._buf_pos = 0

    def next_uniform(self) -> float:
        if self._buf_pos >= len(self._buf):
            self._buf = self._gen.random(64).tolist()
            self._buf_pos = 0
        u = self._buf[self._buf_pos]
        self._buf_pos += 1
        return u

    def uniforms(self, k: int) -> np.ndarray:
        """The next k deviates, as one array."""
        pos = self._buf_pos
        head = self._buf[pos:pos + k]
        self._buf_pos = pos + len(head)
        if len(head) == k:
            return np.array(head, dtype=np.float64)
        return np.concatenate((head, self._gen.random(k - len(head))))

    def put_back(self, u: np.ndarray) -> None:
        """Return the last ``len(u)`` deviates read, unused: the next reads
        give them again, in order."""
        self._buf = u.tolist() + self._buf[self._buf_pos:]
        self._buf_pos = 0


@dataclass(frozen=True)
class ComponentResult:
    """The falsifiable neighborhood grown from a focal variable.

    ``token`` is False as soon as a reachable falsifiable constraint touches a
    marked STAR variable other than the focal one; True means the component's
    conditional law factorizes away from the rest of the instance.
    """

    component_vars: tuple[int, ...]
    component_constraints: tuple[int, ...]
    token: bool
    projected: tuple[AtomicConstraint, ...]  # restricted to STAR variables


def component(csp: AtomicCsp, marked, state, u: int) -> ComponentResult:
    """Grow the component of u through the constraints falsifiable under
    ``state``, projected onto its STAR variables.

    ``state`` is a sequence of value indices with STAR = -1: an int64 array
    or a list of ints.  ``marked`` is a per-variable boolean sequence.
    Requires state[u] = STAR.
    """
    if state[u] != STAR:
        raise InvariantError("component() requires the focal variable be STAR")
    in_comp = {u}
    queue = deque([u])
    cons_ids: list[int] = []
    projected: list[AtomicConstraint] = []
    seen_cons = set()
    while queue:
        v = queue.popleft()
        for ci in csp.var_constraints[v]:
            if ci in seen_cons:
                continue
            seen_cons.add(ci)
            c = csp.constraints[ci]
            stars = []
            fals = []
            for w, q in zip(c.vbl, c.falsifying):
                x = state[w]
                if x == STAR:
                    stars.append(w)
                    fals.append(q)
                elif x != q:
                    break
            else:
                for w in stars:
                    if w != u and marked[w]:
                        return ComponentResult(
                            tuple(sorted(in_comp)), tuple(cons_ids), False, ())
                cons_ids.append(ci)
                projected.append(AtomicConstraint(tuple(stars), tuple(fals)))
                for w in stars:
                    if w not in in_comp:
                        in_comp.add(w)
                        queue.append(w)
    return ComponentResult(tuple(sorted(in_comp)), tuple(cons_ids), True,
                           tuple(projected))


def product_draw(flat: FlatCsp, free: np.ndarray,
                 u: np.ndarray) -> np.ndarray:
    """Values of the variables ``free`` from their product law, one deviate
    each: a deviate x gives the first value whose cumulative weight exceeds
    x (the top value when none does).  ``u`` holds one row of ``len(free)``
    deviates per draw.  One pass per column of ``flat.cum_table``: one for
    binary domains."""
    spec = flat.spec_of[free]
    out = np.zeros(u.shape, dtype=np.int64)
    for column in flat.cum_table.T:
        out += column[spec] <= u
    return out


def rejection_sampling(projected: ProjectedCsp, stream: TapeStream,
                       cap: int = DEFAULT_REJECTION_CAP):
    """Repeatedly draw the free variables from their product law until the
    draw satisfies every projected constraint.

    Attempts are drawn in batches, one row per attempt with the free
    variables ascending, and the deviates after the accepted attempt go back
    to the stream: it is read exactly as by one attempt at a time.

    Returns (values_by_free_var: dict, attempts).
    """
    free, cols, fals, starts = projected.arrays
    flat = projected.parent.flat
    size = len(free)
    rows = _FIRST_BATCH
    done = 0
    while done < cap:
        rows = min(rows, cap - done)
        u = stream.uniforms(rows * size).reshape(rows, size)
        draw = product_draw(flat, free, u)
        r = 0
        if projected.constraints:
            bad = np.logical_and.reduceat(draw[:, cols] == fals, starts,
                                          axis=1).any(axis=1)
            r = int(bad.argmin())
            if bad[r]:
                done += rows
                rows = min(2 * rows, max(1, _BATCH_DEVIATES // size))
                continue
        stream.put_back(u[r + 1:].ravel())
        return dict(zip(projected.free_vars, draw[r].tolist())), done + r + 1
    raise BudgetError(
        f"rejection sampling exceeded {cap} attempts; instance is likely "
        "outside the sampler's regime")


@dataclass(frozen=True)
class SafePmf:
    """The safe lower envelope D*(q) = max(0, 1 - beta*(1 - D(q))) with the
    residual mass on STAR."""

    probs: tuple[float, ...]
    star: float


def safe_pmf(csp: AtomicCsp, u: int, log_beta: float) -> SafePmf:
    """The safe distribution of a marked variable, given the marking's
    ln(beta)."""
    beta = math.exp(log_beta)
    probs = tuple(max(0.0, 1.0 - beta * (1.0 - w)) for w in csp.vars[u].weights)
    star = 1.0 - sum(probs)
    if star < -_PROB_TOL:
        raise ConditionsError("safe pmf has negative residual mass")
    return SafePmf(probs, max(0.0, star))


@dataclass(frozen=True)
class ComponentMarginal:
    """Exact marginal of the focal variable under the component's
    conditional law."""

    probs: tuple[float, ...]


def _ie_marginal(csp, projected, focal, budget):
    """Inclusion-exclusion over constraint subsets with conflict pruning."""
    nq = csp.vars[focal].domain_size
    weights = csp.vars[focal].weights
    numer = [0.0] * nq
    cons = [tuple(zip(c.vbl, c.falsifying)) for c in projected]
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


def _enum_marginal(csp, comp_vars, projected, focal, budget):
    nq = csp.vars[focal].domain_size
    numer = [0.0] * nq
    domains = [range(csp.vars[v].domain_size) for v in comp_vars]
    total = 1
    for d in domains:
        total *= len(d)
    if total > budget:
        raise BudgetError("enumeration budget exceeded")
    index = {v: i for i, v in enumerate(comp_vars)}
    cons = [(tuple(index[v] for v in c.vbl), c.falsifying) for c in projected]
    fi = index[focal]
    for draw in itertools.product(*domains):
        ok = True
        for vbl, fals in cons:
            if all(draw[i] == q for i, q in zip(vbl, fals)):
                ok = False
                break
        if not ok:
            continue
        w = 1.0
        for v, q in zip(comp_vars, draw):
            w *= csp.vars[v].weights[q]
        numer[draw[fi]] += w
    return numer


def exact_component_marginal(csp: AtomicCsp, comp: ComponentResult, focal: int,
                             budget: int = DEFAULT_TERM_BUDGET) -> ComponentMarginal:
    """Pr[focal = q] under the component's conditional law, computed exactly.

    Chooses inclusion-exclusion over constraint subsets or exhaustive
    enumeration over the component's state space, whichever is predicted
    cheaper; errors out if both exceed the term budget.
    """
    if not comp.token:
        raise InvariantError("component marginal requires token = True")
    if focal not in comp.component_vars:
        raise InvariantError("focal variable not in component")
    if not comp.projected:
        return ComponentMarginal(csp.vars[focal].weights)
    ie_cost = 2 ** len(comp.projected)
    enum_cost = 1
    for v in comp.component_vars:
        enum_cost *= csp.vars[v].domain_size
        if enum_cost > 4 * DEFAULT_TERM_BUDGET:
            break
    if min(ie_cost, enum_cost) > budget:
        raise BudgetError(
            f"component too large: 2^{len(comp.projected)} subsets vs "
            f"{enum_cost} states exceed the budget of {budget} terms")
    if ie_cost <= enum_cost:
        numer = _ie_marginal(csp, comp.projected, focal, budget)
    else:
        numer = _enum_marginal(csp, comp.component_vars, comp.projected,
                               focal, budget)
    denom = sum(numer)
    if denom <= 0.0:
        raise InvariantError("component has no satisfying assignment")
    probs = tuple(max(0.0, x) / denom for x in numer)
    return ComponentMarginal(probs)


class UpdateContext:
    """Precomputed per-variable data for the coupled update.

    Building one of these requires beta to be defined whenever any variable is
    marked (e*alpha <= 1).  The safe layer is also kept as arrays over the
    marked variables, ascending (``marked_idx``): each one's safe total, and
    one row of its safe cumulative sums but the last, padded with +inf.  A
    safe deviate u0 then gives the value "how many entries of the row are
    <= u0", which is ``min(bisect_right(cum, u0), len(cum) - 1)``.
    """

    def __init__(self, csp: AtomicCsp, marked, budget: int = DEFAULT_TERM_BUDGET):
        from .marking import Marking, constants
        self.csp = csp
        self.marked = tuple(bool(x) for x in marked)
        self.n = csp.num_vars
        self.budget = budget
        self.safe_cum: list = [None] * self.n
        self.safe_probs: list = [None] * self.n
        self.safe_total: list = [None] * self.n
        if any(self.marked):
            consts = constants(csp, Marking(self.marked))
            if consts.log_beta is None:
                raise ConditionsError(
                    "e*alpha > 1: beta undefined, chain cannot run")
            # variables of one spec share one safe pmf
            by_spec: dict = {}
            for v in range(self.n):
                if self.marked[v]:
                    spec = csp.vars[v]
                    if spec not in by_spec:
                        sp = safe_pmf(csp, v, consts.log_beta)
                        by_spec[spec] = (sp.probs,
                                         list(itertools.accumulate(sp.probs)),
                                         1.0 - sp.star)
                    (self.safe_probs[v], self.safe_cum[v],
                     self.safe_total[v]) = by_spec[spec]
        self.marked_idx = np.flatnonzero(
            np.fromiter(self.marked, dtype=bool, count=self.n))
        idx = self.marked_idx.tolist()
        self.marked_total = np.array([self.safe_total[v] for v in idx],
                                     dtype=np.float64)
        cums = [self.safe_cum[v] for v in idx]
        width = max(map(len, cums), default=1) - 1
        self.marked_cum = np.array(
            [c[:-1] + [np.inf] * (width + 1 - len(c)) for c in cums],
            dtype=np.float64).reshape(len(idx), width)


def update_context(csp: AtomicCsp, m,
                   budget: int = DEFAULT_TERM_BUDGET) -> UpdateContext:
    """``UpdateContext(csp, m.marked, budget)`` for a ``Marking`` m, built
    once per (marking, budget) and kept on the instance."""
    key = (m, budget)
    ctx = csp.context_memo.get(key)
    if ctx is None:
        ctx = csp.context_memo[key] = UpdateContext(csp, m.marked, budget)
    return ctx


def _update_in_place(ctx: UpdateContext, values, t: int, u0: float) -> None:
    """One bounding-chain / scan step at time t, in place, on a state: an
    int64 array or a list of ints, STAR = -1."""
    v = t % ctx.n
    if not ctx.marked[v]:
        return
    values[v] = STAR
    cum = ctx.safe_cum[v]
    if u0 < ctx.safe_total[v]:
        # Shared safe layer: the outcome is the same for every bounded chain,
        # no component computation needed.
        values[v] = min(bisect_right(cum, u0), len(cum) - 1)
        return
    comp = component(ctx.csp, ctx.marked, values, v)
    if not comp.token:
        values[v] = STAR
        return
    dagger = exact_component_marginal(ctx.csp, comp, v, ctx.budget).probs
    safe = ctx.safe_probs[v]
    for q in range(len(safe)):
        if dagger[q] < safe[q] - _PROB_TOL:
            raise InvariantError(
                "component marginal fell below the safe envelope; the "
                "instance is outside the coupling's valid regime")
    # Residual layer: sub-blocks of length dagger(q) - safe(q) in ascending
    # value order fill the STAR region exactly.
    x = u0 - ctx.safe_total[v]
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


def coupled_update(csp: AtomicCsp, marked, state, t: int,
                   tape: RandomnessTape,
                   ctx: UpdateContext = None) -> np.ndarray:
    """One monotone coupled step on a state (STAR = -1): returns the updated
    state as a new int64 array and leaves ``state`` as it was.

    Unmarked time slots are no-ops.  The randomness consumed is exactly the
    chain deviate of time t, so runs over the same tape couple pointwise.
    """
    if ctx is None:
        from .marking import Marking
        ctx = update_context(csp, Marking(marked))
    out = np.array(state, dtype=np.int64)
    _update_in_place(ctx, out, t, tape.uniform(t))
    return out
