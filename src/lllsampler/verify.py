"""Ground-truth oracles and statistical certification: exhaustive enumeration
of the solution law, TV distance, the one certifier of a sampler's draws
against that law, the coalescence-tail experiment, and the bounded-by
invariant checker.
"""

from __future__ import annotations

import collections
import math
import random
from dataclasses import dataclass

from .core import STAR, AtomicCsp, enumerate_solutions
from .errors import UnsatisfiableInstanceError
from .kernels import (RandomnessTape, _update_in_place, derive_seed,
                      update_context)
from .marking import Marking
from .sampler import bounding_chain

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


def chi2_sf(x: float, df: int) -> float:
    """P(X > x) for X chi-square with ``df`` degrees of freedom: the
    regularized upper incomplete gamma Q(df/2, x/2), as 1 minus its series
    below x/2 = df/2 + 1 and by Lentz's continued fraction above, where Q is
    small and 1 - P would lose it."""
    if x <= 0.0:
        return 1.0
    if x == math.inf:
        return 0.0
    a, z = 0.5 * df, 0.5 * x
    front = math.exp(a * math.log(z) - z - math.lgamma(a))
    if z < a + 1.0:
        term = total = 1.0 / a
        n = a
        while term > total * 1e-17:
            n += 1.0
            term *= z / n
            total += term
        return 1.0 - front * total
    tiny = 1e-300
    b = z + 1.0 - a
    c, d = 1.0 / tiny, 1.0 / b
    h, step, i = d, 0.0, 0
    while abs(step - 1.0) >= 1e-16:
        i += 1
        an = i * (a - i)
        b += 2.0
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        step = d * c
        h *= step
    return front * h


def certify(draw, law: ExactLaw, num: int) -> dict:
    """Count draws ``draw(0)`` to ``draw(num - 1)`` once and compare them
    with the exact law.

    The chi-square pools the outcomes expected fewer than 5 times into one
    bin; fewer than two bins give p = 1, and any draw outside the support
    p = 0.  The worst z-score is per outcome (0 for an outcome of
    probability 1), the worst marginal gap per position of the law's keys
    and value.  The draws pass when the TV distance is at most
    max(sqrt(|support| / num), 0.03), p >= 1e-3 and none is outside the
    support."""
    counts = collections.Counter(tuple(draw(i)) for i in range(num))
    exact = law.as_dict()
    empirical = {k: c / num for k, c in counts.items()}
    tv = tv_distance(empirical, exact)
    threshold = max(math.sqrt(len(law.support) / num), 0.03)
    stray = sum(c for k, c in counts.items() if k not in exact)
    stat = pool_o = pool_e = 0.0
    bins = 0
    max_z = 0.0
    for key, p in exact.items():
        o, e = counts[key], p * num
        if e < num:
            max_z = max(max_z, abs(o - e) / math.sqrt(e * (1.0 - e / num)))
        if e < 5.0:
            pool_o += o
            pool_e += e
        else:
            stat += (o - e) ** 2 / e
            bins += 1
    if pool_e > 0.0:
        stat += (pool_o - pool_e) ** 2 / pool_e
        bins += 1
    chi_p = 0.0 if stray else chi2_sf(stat, bins - 1) if bins > 1 else 1.0
    gaps: dict = collections.defaultdict(float)
    for dist, sign in ((empirical, 1.0), (exact, -1.0)):
        for key, p in dist.items():
            for pos_val in enumerate(key):
                gaps[pos_val] += sign * p
    return {
        "num_samples": num,
        "tv_distance": tv,
        "tv_threshold": threshold,
        "chi_square_p": chi_p,
        "max_z_score": max_z,
        "max_marginal_gap": max(map(abs, gaps.values()), default=0.0),
        "samples_outside_support": stray,
        "passed": tv <= threshold and chi_p >= 1e-3 and stray == 0,
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

