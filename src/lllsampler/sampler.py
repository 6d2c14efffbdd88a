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

from .core import STAR, AtomicCsp, split_components
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

    assignment: list[int]
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


def bounding_chain(csp: AtomicCsp, m: Marking, T: int, master_seed: int,
                   ctx: UpdateContext = None) -> ChainRun:
    """Run the bounding chain from all-STAR at time -T to time 0.

    Deterministic given (csp, m, T, seed); a run at horizon 2T replays the
    same per-time randomness on the shared suffix.
    """
    if ctx is None:
        ctx = update_context(csp, m)
    state = np.full(csp.num_vars, STAR, dtype=np.int64)
    _run_chain(ctx, state, RandomnessTape(master_seed), -T, 0)
    return ChainRun(T, state, bool((state[ctx.marked_idx] != STAR).all()))


def final_sampling(csp: AtomicCsp, m: Marking, state: np.ndarray,
                   seed: int) -> tuple[np.ndarray, int]:
    """Extend a state array (-1 = STAR) that is STAR-free on the marking to
    a full solution.

    With no marked STAR left, the constraints that are still falsifiable tie
    unmarked STAR variables only.  Their components (``split_components``;
    a variable in no such constraint is one on its own) are
    rejection-sampled all at once, in lockstep, from one rejection stream of
    the seed's tape (``rejection_sampling``).  Returns (assignment array,
    rejection attempts of the components with a falsifiable constraint).
    """
    values = state.copy()
    star = values == STAR
    if (star & m.mask).any():
        raise InvariantError("final sampling requires a coalesced state")
    flat = csp.flat
    # the STAR entries of the constraints still falsifiable
    on_star = star[flat.cons_vars]
    falsifiable = np.logical_and.reduceat(
        on_star | (values[flat.cons_vars] == flat.cons_fals), flat.starts)
    live = on_star & falsifiable[flat.entry_cons]
    # with nothing fixed, the components are the instance's own
    labels = csp.free_labels if star.all() else split_components(csp, live)
    return rejection_sampling(csp, values, labels,
                              RandomnessTape(seed).stream(0, LABEL_REJECTION))


def start_horizon(m: Marking) -> int:
    """The smallest horizon of the doubling that can coalesce.

    A marked variable stays STAR until it is updated, and the lowest marked
    index v is updated inside [-T, 0) only when T >= n - v; so no power of
    two below n - v coalesces.  1 when nothing is marked.
    """
    if not any(m.marked):
        return 1
    return 1 << (len(m.marked) - m.marked.index(True) - 1).bit_length()


def sample(csp: AtomicCsp, m: Marking, master_seed: int,
           ctx: UpdateContext = None, check_conditions: bool = True,
           horizon_cap: int = DEFAULT_HORIZON_CAP) -> SampleRecord:
    """Draw one exact solution by coupling from the past with horizon
    doubling, then extend to the unmarked variables.

    The doubling starts at ``start_horizon(m)``; every smaller horizon would
    fail, so the draw and the horizon are those of a doubling from 1, and
    the cap stops it where that doubling would stop: after the first failed
    horizon at or above ``horizon_cap``.
    """
    if check_conditions and any(m.marked):
        report = check_theorem_conditions(csp, m)
        if not report.passed:
            raise InvariantError(
                "chain conditions do not hold; pass check_conditions=False "
                "to run anyway")
    if ctx is None:
        ctx = update_context(csp, m)
    wall = 0
    T = start_horizon(m)
    if T > 1 and T // 2 >= horizon_cap:
        raise BudgetError(f"no coalescence by horizon {horizon_cap}")
    while True:
        run = bounding_chain(csp, m, T, master_seed, ctx)
        wall += T
        if run.coalesced:
            break
        if T >= horizon_cap:
            raise BudgetError(f"no coalescence by horizon {horizon_cap}")
        T *= 2
    values, _ = final_sampling(csp, m, run.state, master_seed)
    if not csp.satisfies(values):
        raise InvariantError("emitted assignment violates a constraint")
    return SampleRecord(values.tolist(), T, wall)


def systematic_scan(csp: AtomicCsp, m: Marking, state, steps: int, seed: int,
                    ctx: UpdateContext = None) -> np.ndarray:
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
    if ctx is None:
        ctx = update_context(csp, m)
    _run_chain(ctx, state, RandomnessTape(seed), 0, steps)
    return state
