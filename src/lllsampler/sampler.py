"""The top-level perfect sampler: bounding chain over a doubling past
horizon, coalescence detection, extension to unmarked variables, and the
systematic-scan reference chain.

The chain starts all-STAR at time -T and scans variables cyclically
(i_t = t mod n, including unmarked no-op slots).  Randomness is keyed by
absolute time, so doubling the horizon replays the shared suffix exactly;
once no marked variable holds STAR at time 0, the marked state is an exact
draw from the projected stationary law and rejection sampling extends it to
the unmarked variables.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass

import numpy as np

from .core import STAR, AtomicCsp, PartialAssignment, split_components
from .errors import BudgetError, InvariantError
from .kernels import (LABEL_REJECTION, RandomnessTape, UpdateContext,
                      _update_in_place, product_draw, rejection_sampling)
from .marking import Marking, check_theorem_conditions

DEFAULT_HORIZON_CAP = 2**30


@dataclass
class ChainRun:
    """Outcome of one bounding-chain run from horizon -T."""

    horizon: int
    final_state: PartialAssignment
    coalesced: bool


@dataclass
class SampleRecord:
    """One emitted solution with bookkeeping."""

    assignment: list[int]
    horizon_used: int
    wall_steps: int


def bounding_chain(csp: AtomicCsp, m: Marking, T: int, master_seed: int,
                   ctx: UpdateContext = None) -> ChainRun:
    """Run the bounding chain from all-STAR at time -T to time 0.

    Deterministic given (csp, m, T, seed); a run at horizon 2T replays the
    same per-time randomness on the shared suffix.
    """
    if ctx is None:
        ctx = UpdateContext(csp, m.marked)
    tape = RandomnessTape(master_seed)
    values = [STAR] * csp.num_vars
    marked = m.marked
    chunk = 1 << 16
    for start in range(-T, 0, chunk):
        stop = min(start + chunk, 0)
        u0s = tape.layered_block(start, stop)
        for i, t in enumerate(range(start, stop)):
            _update_in_place(ctx, values, t, float(u0s[i]))
    coalesced = not any(values[v] is STAR
                        for v in range(csp.num_vars) if marked[v])
    return ChainRun(T, PartialAssignment(values), coalesced)


def final_sampling(csp: AtomicCsp, m: Marking, sigma_marked: PartialAssignment,
                   seed: int) -> tuple[list[int], int]:
    """Extend a STAR-free marked state to a full solution.

    With no marked STAR left, the constraints that are still falsifiable tie
    unmarked STAR variables only, and split the projection into components.
    They are rejection-sampled in turn, ascending by smallest variable, from
    one rejection stream of the seed's tape.  A variable in no falsifiable
    constraint is a component on its own, accepted at its first attempt, so
    each run of such variables is drawn from one read of the stream.  The
    components are disjoint and each rejection loop stops at a stopping time
    of the stream's i.i.d. deviates, so the components stay independent and
    each is exact.  Returns (assignment, total rejection attempts).
    """
    values = np.array([-1 if x is STAR else x for x in sigma_marked.values],
                      dtype=np.int64)
    star = values < 0
    if (star & np.array(m.marked, dtype=bool)).any():
        raise InvariantError("final sampling requires a coalesced state")
    stream = RandomnessTape(seed).stream(0, LABEL_REJECTION)
    flat = csp.flat
    # the STAR entries of the constraints still falsifiable
    on_star = star[flat.cons_vars]
    falsifiable = np.logical_and.reduceat(
        on_star | (values[flat.cons_vars] == flat.cons_fals), flat.starts)
    live = on_star & falsifiable[flat.entry_cons]
    loose = np.flatnonzero(star)
    pos = 0
    attempts = 0

    def draw_loose(stop):
        nonlocal pos, attempts
        if stop > pos:
            run = loose[pos:stop]
            values[run] = product_draw(flat, run, stream.uniforms(len(run)))
            attempts += stop - pos
            pos = stop

    if live.any():
        tied = np.zeros_like(star)
        tied[flat.cons_vars[live]] = True
        loose = loose[~tied[loose]]
        loose_list = loose.tolist()
        # with nothing fixed, the components are the instance's own
        comps = (csp.free_components if star.all()
                 else split_components(csp, live))
        for projected in comps:
            draw_loose(bisect_left(loose_list, projected.free_vars[0]))
            draw, k = rejection_sampling(projected, stream)
            attempts += k
            values[list(draw)] = list(draw.values())
    draw_loose(len(loose))
    return values.tolist(), attempts


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
        ctx = UpdateContext(csp, m.marked)
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
    values, _ = final_sampling(csp, m, run.final_state, master_seed)
    if not csp.satisfies(values):
        raise InvariantError("emitted assignment violates a constraint")
    return SampleRecord(values, T, wall)


def systematic_scan(csp: AtomicCsp, m: Marking, sigma_in: PartialAssignment,
                    steps: int, seed: int,
                    ctx: UpdateContext = None) -> PartialAssignment:
    """Forward chain on a STAR-free marked state: ``steps`` coupled updates
    at times 0..steps-1.  Used as the convergence oracle."""
    for v in range(csp.num_vars):
        star = sigma_in.values[v] is STAR
        if m.marked[v] and star:
            raise InvariantError("scan input must be STAR-free on the marking")
        if not m.marked[v] and not star:
            raise InvariantError("scan input must be STAR off the marking")
    if ctx is None:
        ctx = UpdateContext(csp, m.marked)
    tape = RandomnessTape(seed)
    values = list(sigma_in.values)
    if steps > 0:
        u0s = tape.layered_block(0, steps)
        for t in range(steps):
            _update_in_place(ctx, values, t, float(u0s[t]))
    return PartialAssignment(values)
