"""Ground-truth oracles and statistical certification: exhaustive enumeration
of the solution law, TV distance, end-to-end sampler certification, the
coalescence-tail experiment, and the bounded-by invariant checker.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from .core import STAR, AtomicCsp, enumerate_solutions
from .errors import UnsatisfiableInstanceError
from .kernels import (RandomnessTape, _update_in_place, derive_seed,
                      update_context)
from .marking import Marking
from .sampler import bounding_chain, sample

DEFAULT_ENUM_BUDGET = 2**24


@dataclass(frozen=True)
class ExactLaw:
    """The exact solution distribution: support and normalized product-law
    probabilities."""

    support: tuple[tuple[int, ...], ...]
    pmf: tuple[float, ...]

    def as_dict(self) -> dict:
        return dict(zip(self.support, self.pmf))

    def restricted(self, indices) -> "ExactLaw":
        """The law of the coordinates in ``indices`` (e.g. the marked set)."""
        agg: dict = {}
        for outcome, p in zip(self.support, self.pmf):
            key = tuple(outcome[i] for i in indices)
            agg[key] = agg.get(key, 0.0) + p
        items = sorted(agg.items())
        return ExactLaw(tuple(k for k, _ in items), tuple(p for _, p in items))


def enumerate_law(csp: AtomicCsp, budget: int = DEFAULT_ENUM_BUDGET) -> ExactLaw:
    """The exact law: every satisfying assignment in lexicographic order
    (``core.enumerate_solutions``), with its normalized weight."""
    f = csp.flat
    vs, qs = f.cons_vars.tolist(), f.cons_fals.tolist()
    found = list(enumerate_solutions(
        [s.weights for s in csp.vars],
        [zip(vs[a:b], qs[a:b]) for a, b in f.spans()], budget))
    if not found:
        raise UnsatisfiableInstanceError("instance has no solutions")
    support, weights = zip(*found)
    z = math.fsum(weights)
    return ExactLaw(support, tuple(w / z for w in weights))


def tv_distance(p: dict, q: dict) -> float:
    """(1/2) sum |p - q| over the union of both supports."""
    keys = set(p) | set(q)
    return 0.5 * math.fsum(abs(p.get(k, 0.0) - q.get(k, 0.0)) for k in keys)


def certify_sampler(csp: AtomicCsp, m: Marking, num_samples: int, seed: int,
                    check_conditions: bool = True,
                    law: ExactLaw = None) -> dict:
    """Draw num_samples end-to-end samples and compare against the enumerated
    law: TV distance, chi-square p-value, max per-outcome z-score and max
    marginal gap.  An outcome of probability 1 has z-score 0."""
    from scipy import stats  # slow to import; only this check needs it

    if law is None:
        law = enumerate_law(csp)
    counts: dict = {}
    for i in range(num_samples):
        rec = sample(csp, m, derive_seed(seed, "certify", i),
                     check_conditions=check_conditions)
        key = tuple(rec.assignment.tolist())
        counts[key] = counts.get(key, 0) + 1
    exact = law.as_dict()
    empirical = {k: c / num_samples for k, c in counts.items()}
    tv = tv_distance(empirical, exact)
    observed = [counts.get(k, 0) for k in law.support]
    expected = [p * num_samples for p in law.pmf]
    stray = sum(c for k, c in counts.items() if k not in exact)
    if stray:
        chi_p = 0.0
    elif len(observed) == 1:
        chi_p = 1.0  # one outcome, and every draw is it
    else:
        chi_p = float(stats.chisquare(observed, expected).pvalue)
    max_z = max(
        (abs(o - e) / math.sqrt(e * (1.0 - e / num_samples))
         if e < num_samples else 0.0)
        for o, e in zip(observed, expected))
    max_marginal_gap = 0.0
    for v, spec in enumerate(csp.vars):
        for q in range(spec.domain_size):
            emp = sum(p for k, p in empirical.items() if k[v] == q)
            exa = sum(p for k, p in exact.items() if k[v] == q)
            max_marginal_gap = max(max_marginal_gap, abs(emp - exa))
    return {
        "num_samples": num_samples,
        "tv_distance": tv,
        "chi_square_p": chi_p,
        "max_z_score": max_z,
        "max_marginal_gap": max_marginal_gap,
        "samples_outside_support": stray,
    }


def coalescence_experiment(csp: AtomicCsp, m: Marking, horizons, trials: int,
                           seed: int) -> list[dict]:
    """Per horizon T: the fraction of independent chains with a surviving
    STAR on the marked set, against the 4|V|*2^(-T/|V|) tail bound."""
    n = csp.num_vars
    rows = []
    for horizon in horizons:
        failures = 0
        for trial in range(trials):
            run = bounding_chain(csp, m, horizon,
                                 derive_seed(seed, "coalescence", trial))
            if not run.coalesced:
                failures += 1
        bound = min(1.0, 4.0 * n * 2.0 ** (-horizon / n))
        rows.append({
            "horizon": horizon,
            "trials": trials,
            "non_coalesced_fraction": failures / trials,
            "tail_bound": bound,
            "bound_applies": horizon >= 2 * n - 1,
        })
    return rows


def check_bounding_invariant(csp: AtomicCsp, m: Marking, T: int, trials: int,
                             seed: int, law: ExactLaw = None) -> dict:
    """Run the real chain (started from a random exact solution's marked
    projection) and the bounding chain (all-STAR) over the same tape and
    horizon, one ``_update_in_place`` step at a time; the real state must
    refine the bounding state at every step, and the marked states must agree
    whenever the bounding chain coalesces.  ``sweep_mismatches`` counts the
    trials where ``bounding_chain`` (the sampler's sweep chain) ends in a
    different marked state than this step-by-step bounding chain."""
    if law is None:
        law = enumerate_law(csp)
    n = csp.num_vars
    ctx = update_context(csp, m)
    marked = m.indices()
    containment_violations = 0
    equality_failures = 0
    sweep_mismatches = 0
    coalesced_count = 0
    rng = random.Random(derive_seed(seed, "start-states"))
    starts = rng.choices(law.support, weights=law.pmf, k=trials)
    for trial in range(trials):
        solution = starts[trial]
        real = [solution[v] if m.marked[v] else STAR for v in range(n)]
        bound = [STAR] * n
        trial_seed = derive_seed(seed, "invariant", trial)
        u0s = RandomnessTape(trial_seed).layered_block(-T, 0)
        ok = True
        for i in range(T):
            t = i - T
            u0 = float(u0s[i])
            _update_in_place(ctx, real, t, u0)
            _update_in_place(ctx, bound, t, u0)
            for v in range(n):
                if bound[v] != STAR and bound[v] != real[v]:
                    ok = False
            if real[v := (t % n)] == STAR and m.marked[v]:
                ok = False  # the real chain must stay STAR-free on the marking
        if not ok:
            containment_violations += 1
        swept = bounding_chain(csp, m, T, trial_seed).state
        if any(swept[v] != bound[v] for v in marked):
            sweep_mismatches += 1
        if all(bound[v] != STAR for v in marked):
            coalesced_count += 1
            if any(bound[v] != real[v] for v in marked):
                equality_failures += 1
    return {
        "trials": trials,
        "horizon": T,
        "containment_violations": containment_violations,
        "coalesced": coalesced_count,
        "equality_failures": equality_failures,
        "sweep_mismatches": sweep_mismatches,
    }


def law_of_projection(csp: AtomicCsp, m: Marking,
                      law: ExactLaw = None) -> ExactLaw:
    """The exact law of the marked coordinates (the bounding chain's target)."""
    if law is None:
        law = enumerate_law(csp)
    return law.restricted(m.indices())

