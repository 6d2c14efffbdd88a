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

from dataclasses import dataclass

from .core import (STAR, AtomicCsp, PartialAssignment, ProjectedCsp)
from .errors import BudgetError, InvariantError
from .kernels import (LABEL_REJECTION, RandomnessTape, UpdateContext,
                      _update_in_place, component, rejection_sampling)
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

    Decomposes the projection into components (all Token=True once no marked
    STAR remains) and rejection-samples them in turn, ascending by smallest
    variable, from one rejection stream of the seed's tape.  The components
    are disjoint and each rejection loop stops at a stopping time of the
    stream's i.i.d. deviates, so the components stay independent and each is
    exact.  Returns (assignment, total rejection attempts).
    """
    values = list(sigma_marked.values)
    for v in range(csp.num_vars):
        if m.marked[v] and values[v] is STAR:
            raise InvariantError("final sampling requires a coalesced state")
    stream = RandomnessTape(seed).stream(0, LABEL_REJECTION)
    attempts = 0
    for v in range(csp.num_vars):
        if values[v] is not STAR:
            continue
        comp = component(csp, m.marked, PartialAssignment(values), v)
        if not comp.token:
            raise InvariantError(
                "component with Token=False after coalescence")
        projected = ProjectedCsp(parent=csp, free_vars=comp.component_vars,
                                 constraints=comp.projected)
        draw, n = rejection_sampling(projected, stream)
        attempts += n
        for w, q in draw.items():
            values[w] = q
    return values, attempts


def sample(csp: AtomicCsp, m: Marking, master_seed: int,
           ctx: UpdateContext = None, check_conditions: bool = True,
           horizon_cap: int = DEFAULT_HORIZON_CAP) -> SampleRecord:
    """Draw one exact solution by coupling from the past with horizon
    doubling, then extend to the unmarked variables."""
    if check_conditions and any(m.marked):
        report = check_theorem_conditions(csp, m)
        if not report.passed:
            raise InvariantError(
                "chain conditions do not hold; pass check_conditions=False "
                "to run anyway")
    if ctx is None:
        ctx = UpdateContext(csp, m.marked)
    wall = 0
    T = 1
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
