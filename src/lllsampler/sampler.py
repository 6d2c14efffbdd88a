"""The top-level perfect sampler: bounding chain over a doubling past
horizon, coalescence detection, extension to unmarked variables, and the
systematic-scan reference chain.

The chain starts all-STAR at time -T; the step at time t updates variable
t mod n, and does nothing when that variable is unmarked.  The state is an
int64 array, -1 for STAR, from the chain to the emitted draw.  The chain
runs one sweep (n consecutive times, cut at multiples of n) at a time: the
safe-layer values of a sweep's marked slots are one numpy pass, and only the
slots whose deviate lands in the residual layer are stepped one by one
(``kernels.chain_steps``).  Randomness is keyed by absolute time, so
doubling the horizon replays the shared suffix exactly; once no marked
variable holds STAR at time 0, the marked state is an exact draw from the
projected stationary law and rejection sampling extends it to the unmarked
variables.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import STAR, AtomicCsp, memoized, split_components
from .errors import BudgetError, InvariantError
from .kernels import (LABEL_REJECTION, RandomnessTape, UpdateContext,
                      chain_steps, rejection_sampling, update_context)
from .marking import Marking, check_theorem_conditions

DEFAULT_HORIZON_CAP = 2**30
#: Chain deviates drawn per ``layered_block`` call.
_CHUNK = 1 << 16


@dataclass
class ChainRun:
    """Outcome of one bounding-chain run from horizon -T."""

    horizon: int
    state: np.ndarray    # int64, -1 for STAR
    coalesced: bool


@dataclass
class SampleRecord:
    """One emitted solution with bookkeeping."""

    assignment: np.ndarray    # int64
    horizon_used: int
    wall_steps: int


def _run_chain(ctx: UpdateContext, state: np.ndarray, tape: RandomnessTape,
               start: int, stop: int) -> None:
    """Apply the chain steps at times start..stop-1 to ``state`` in place,
    with the tape's chain deviates; nothing to do when nothing is marked."""
    if not len(ctx.marked_idx):
        return
    for a in range(start, stop, _CHUNK):
        b = min(a + _CHUNK, stop)
        chain_steps(ctx, state, a, tape.layered_block(a, b))


def bounding_chain(csp: AtomicCsp, m: Marking, T: int,
                   master_seed: int) -> ChainRun:
    """Run the bounding chain from all-STAR at time -T to time 0.

    Deterministic given (csp, m, T, seed); a run at horizon 2T replays the
    same per-time randomness on the shared suffix.
    """
    ctx = update_context(csp, m)
    state = np.full(csp.num_vars, STAR, dtype=np.int64)
    _run_chain(ctx, state, RandomnessTape(master_seed), -T, 0)
    return ChainRun(T, state, bool((state[ctx.marked_idx] != STAR).all()))


@dataclass(frozen=True)
class MarkedEntries:
    """The constraint entries on marked variables, in entry order, for one
    marking: their variables and falsifying values, the start of each
    constraint's run among them (``starts``, with that constraint's id in
    ``cons``), and the constraints with no marked entry (``free``)."""

    vars: np.ndarray
    fals: np.ndarray
    starts: np.ndarray
    cons: np.ndarray
    free: np.ndarray


def marked_entries(csp: AtomicCsp, m: Marking) -> MarkedEntries:
    """The marked entries of ``csp`` under ``m``, built once per marking and
    kept on the instance."""
    return memoized(csp, compute_marked_entries, m)


def compute_marked_entries(csp: AtomicCsp, m: Marking) -> MarkedEntries:
    """The marked entries of ``csp`` under ``m``, found afresh."""
    flat = csp.flat
    idx = np.flatnonzero(m.mask[flat.cons_vars])
    cons = flat.entry_cons[idx]
    starts = np.flatnonzero(np.diff(cons, prepend=-1))
    has = np.zeros(len(flat.arity), dtype=bool)
    has[cons] = True
    return MarkedEntries(flat.cons_vars[idx], flat.cons_fals[idx], starts,
                         cons[starts], np.flatnonzero(~has))


def live_labels(csp: AtomicCsp, m: Marking, values: np.ndarray):
    """``split_components``'s labels of the constraints still falsifiable
    under a state that is STAR exactly off the marking.

    Unmarked entries are STAR, so a constraint is live when it has no
    marked entry or all of its marked entries hold their falsifying values;
    only the marked entries are read.  The live entries are the unmarked
    entries of the live constraints.
    """
    flat = csp.flat
    if not m.mask.any():
        # with nothing fixed, the components are the instance's own
        return csp.free_labels
    me = marked_entries(csp, m)
    hit = values[me.vars] == me.fals
    live = np.concatenate(
        [me.free, me.cons[np.logical_and.reduceat(hit, me.starts)]])
    if not len(live):
        # every variable is a component on its own
        return (np.arange(csp.num_vars),
                np.full(len(flat.arity), -1, dtype=np.int64))
    start, length = flat.starts[live], flat.arity[live]
    ends = np.cumsum(length)
    entries = np.arange(ends[-1]) + np.repeat(start - ends + length, length)
    mask = np.zeros(len(flat.cons_vars), dtype=bool)
    mask[entries] = ~m.mask[flat.cons_vars[entries]]
    return split_components(csp, mask)


def final_sampling(csp: AtomicCsp, m: Marking, state: np.ndarray,
                   seed: int) -> tuple[np.ndarray, int]:
    """Extend a state array (-1 = STAR) that is STAR exactly off the marking,
    as a coalesced chain leaves it, to a full solution.

    The constraints that are still falsifiable tie unmarked STAR variables
    only.  Their components (``live_labels``; a variable in no such
    constraint is one on its own) are rejection-sampled all at once, in
    lockstep, from one rejection stream of the seed's tape
    (``rejection_sampling``).  Returns (assignment array, rejection attempts
    of the components with a falsifiable constraint).
    """
    values = state.copy()
    star = values == STAR
    if (star == m.mask).any():
        raise InvariantError(
            "final sampling requires a coalesced state"
            if (star & m.mask).any()
            else "final sampling requires STAR off the marking")
    return rejection_sampling(csp, values, live_labels(csp, m, values),
                              RandomnessTape(seed).stream(0, LABEL_REJECTION))


def start_horizon(m: Marking) -> int:
    """The smallest horizon of the doubling that can coalesce.

    A marked variable stays STAR until it is updated, and the lowest marked
    index v is updated inside [-T, 0) only when T >= n - v; so no power of
    two below n - v coalesces.  1 when nothing is marked.
    """
    if not m.mask.any():
        return 1
    return 1 << (len(m.mask) - int(m.mask.argmax()) - 1).bit_length()


def sample(csp: AtomicCsp, m: Marking, master_seed: int,
           check_conditions: bool = True,
           horizon_cap: int = DEFAULT_HORIZON_CAP) -> SampleRecord:
    """Draw one exact solution by coupling from the past with horizon
    doubling, then extend to the unmarked variables.

    The doubling starts at ``start_horizon(m)``; every smaller horizon would
    fail, so the draw and the horizon are those of a doubling from 1, and
    the cap stops it where that doubling would stop: after the first failed
    horizon at or above ``horizon_cap``.
    """
    if check_conditions and m.mask.any():
        report = check_theorem_conditions(csp, m)
        if not report.passed:
            raise InvariantError(
                "chain conditions do not hold; pass check_conditions=False "
                "to run anyway")
    wall = 0
    T = start_horizon(m)
    if T > 1 and T // 2 >= horizon_cap:
        raise BudgetError(f"no coalescence by horizon {horizon_cap}")
    while True:
        run = bounding_chain(csp, m, T, master_seed)
        wall += T
        if run.coalesced:
            break
        if T >= horizon_cap:
            raise BudgetError(f"no coalescence by horizon {horizon_cap}")
        T *= 2
    values, _ = final_sampling(csp, m, run.state, master_seed)
    if not csp.satisfies(values):
        raise InvariantError("emitted assignment violates a constraint")
    return SampleRecord(values, T, wall)


def systematic_scan(csp: AtomicCsp, m: Marking, state, steps: int,
                    seed: int) -> np.ndarray:
    """Forward chain on a state (STAR = -1) that is STAR-free on the marking
    and STAR off it: ``steps`` coupled updates at times 0..steps-1, on an
    int64 copy of ``state``, which is returned.  Used as the convergence
    oracle."""
    state = np.array(state, dtype=np.int64)
    star = state == STAR
    if (star & m.mask).any():
        raise InvariantError("scan input must be STAR-free on the marking")
    if (~star & ~m.mask).any():
        raise InvariantError("scan input must be STAR off the marking")
    _run_chain(update_context(csp, m), state, RandomnessTape(seed), 0, steps)
    return state
