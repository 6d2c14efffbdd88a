"""Core data model: atomic CSPs, their measures, wildcard semantics, projection.

An atomic CSP has variables with finite weighted domains and constraints that
each forbid exactly one local assignment.  Partial assignments may hold the
wildcard STAR, which matches every value; a constraint is "falsifiable" under a
partial assignment when every coordinate is either the forbidden value or STAR.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field

from .errors import InvalidInstanceError, UnsatisfiableInstanceError

#: Wildcard marker used in partial assignments.
STAR = None

WEIGHT_SUM_TOL = 1e-12


@dataclass(frozen=True)
class VariableSpec:
    """One variable: domain size and a strictly positive pmf over its values."""

    domain_size: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.domain_size < 1:
            raise InvalidInstanceError("domain_size must be >= 1")
        if len(self.weights) != self.domain_size:
            raise InvalidInstanceError("need one weight per domain value")
        if any(w <= 0.0 for w in self.weights):
            raise InvalidInstanceError("weights must be strictly positive")
        if abs(sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInstanceError("weights must sum to 1")

    @functools.cached_property
    def log_weights(self) -> tuple[float, ...]:
        return tuple(math.log(w) for w in self.weights)

    @staticmethod
    def uniform(n: int) -> "VariableSpec":
        return VariableSpec(n, tuple([1.0 / n] * n))


@dataclass(frozen=True)
class AtomicConstraint:
    """A constraint with exactly one falsifying assignment over vbl."""

    vbl: tuple[int, ...]
    falsifying: tuple[int, ...]

    def __post_init__(self):
        if len(self.vbl) == 0:
            raise InvalidInstanceError("empty constraint (arity 0)")
        if len(set(self.vbl)) != len(self.vbl):
            raise InvalidInstanceError("constraint variables must be distinct")
        if len(self.falsifying) != len(self.vbl):
            raise InvalidInstanceError("falsifying must match vbl in length")


class AtomicCsp:
    """An atomic CSP.  Immutable after construction; safe to share, and its
    derived quantities (``measures``) are computed once, on first use."""

    def __init__(self, vars: list[VariableSpec], constraints: list[AtomicConstraint]):
        self.vars = tuple(vars)
        self.constraints = tuple(constraints)
        for c in self.constraints:
            for v, q in zip(c.vbl, c.falsifying):
                if not 0 <= v < len(self.vars):
                    raise InvalidInstanceError(f"variable index {v} out of range")
                if not 0 <= q < self.vars[v].domain_size:
                    raise InvalidInstanceError(
                        f"falsifying value {q} outside domain of variable {v}")
        # var -> indices of constraints containing it
        occ: list[list[int]] = [[] for _ in self.vars]
        for ci, c in enumerate(self.constraints):
            for v in c.vbl:
                occ[v].append(ci)
        self.var_constraints: tuple[tuple[int, ...], ...] = tuple(
            tuple(x) for x in occ)

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @functools.cached_property
    def measures(self) -> Measures:
        return compute_measures(self)

    def satisfies(self, values: list[int]) -> bool:
        """True iff the full assignment violates no constraint."""
        for c in self.constraints:
            if all(values[v] == q for v, q in zip(c.vbl, c.falsifying)):
                return False
        return True

    def __eq__(self, other):
        return (isinstance(other, AtomicCsp)
                and self.vars == other.vars
                and self.constraints == other.constraints)

    def __hash__(self):
        return hash((self.vars, self.constraints))


@dataclass(frozen=True)
class Measures:
    """k, d, Delta, Q, ln(p) and the smoothness kappa of an instance."""

    k: int
    d: int
    delta: int
    q: int
    log_p: float
    kappa: float

    def __post_init__(self):
        if self.kappa < 1.0:
            raise InvalidInstanceError("kappa must be >= 1")


@dataclass
class PartialAssignment:
    """Per-variable value index or STAR."""

    values: list

    def copy(self) -> "PartialAssignment":
        return PartialAssignment(list(self.values))

    def contained_in(self, other: "PartialAssignment") -> bool:
        """self is a refinement of other: other(v) in {self(v), STAR}."""
        return all(b is STAR or b == a
                   for a, b in zip(self.values, other.values))

    @staticmethod
    def all_star(n: int) -> "PartialAssignment":
        return PartialAssignment([STAR] * n)


@dataclass(frozen=True)
class ProjectedCsp:
    """The projection of a CSP onto the STAR variables of an assignment.

    Variables keep their original indices (``free_vars`` lists them); the
    constraints are the falsifiable ones restricted to the free variables.
    """

    parent: AtomicCsp = field(compare=False)
    free_vars: tuple[int, ...]
    constraints: tuple[AtomicConstraint, ...]

    def to_atomic_csp(self) -> AtomicCsp:
        """Reindex onto 0..len(free_vars)-1 for measure/enumeration checks."""
        index = {v: i for i, v in enumerate(self.free_vars)}
        vars = [self.parent.vars[v] for v in self.free_vars]
        cons = [AtomicConstraint(tuple(index[v] for v in c.vbl), c.falsifying)
                for c in self.constraints]
        return AtomicCsp(vars, cons)


def compute_measures(csp: AtomicCsp) -> Measures:
    """Maximum arity, variable degree, constraint degree (counting self),
    domain size, log falsifying probability and smoothness."""
    q = max((s.domain_size for s in csp.vars), default=0)
    kappa = max((max(s.weights) / min(s.weights) for s in csp.vars), default=1.0)
    if not csp.constraints:
        return Measures(k=0, d=0, delta=0, q=q, log_p=-math.inf, kappa=kappa)
    k = max(len(c.vbl) for c in csp.constraints)
    d = max(len(x) for x in csp.var_constraints)
    delta = 0
    for c in csp.constraints:
        neigh = set()
        for v in c.vbl:
            neigh.update(csp.var_constraints[v])
        delta = max(delta, len(neigh))
    log_p = max(
        sum(csp.vars[v].log_weights[val] for v, val in zip(c.vbl, c.falsifying))
        for c in csp.constraints)
    assert d >= 1 and delta >= 1
    return Measures(k=k, d=d, delta=delta, q=q, log_p=log_p, kappa=kappa)


def falsifiable_under(c: AtomicConstraint, sigma: PartialAssignment) -> bool:
    """True iff sigma(v) is the falsifying value or STAR on every coordinate."""
    vals = sigma.values
    for v, q in zip(c.vbl, c.falsifying):
        x = vals[v]
        if x is not STAR and x != q:
            return False
    return True


def project(csp: AtomicCsp, sigma: PartialAssignment) -> ProjectedCsp:
    """Fix the non-STAR variables of sigma and keep the falsifiable
    constraints, restricted to the STAR variables."""
    free = tuple(v for v in range(csp.num_vars) if sigma.values[v] is STAR)
    cons = []
    for c in csp.constraints:
        if not falsifiable_under(c, sigma):
            continue
        pairs = [(v, q) for v, q in zip(c.vbl, c.falsifying)
                 if sigma.values[v] is STAR]
        if pairs:
            cons.append(AtomicConstraint(tuple(v for v, _ in pairs),
                                         tuple(q for _, q in pairs)))
        # A falsifiable constraint with no STAR variable is outright violated
        # by sigma; projection keeps it as an unsatisfiable marker.
        else:
            raise UnsatisfiableInstanceError(
                "assignment falsifies a fully fixed constraint")
    return ProjectedCsp(parent=csp, free_vars=free, constraints=tuple(cons))


def preprocess(csp: AtomicCsp) -> tuple[AtomicCsp, tuple[int, ...]]:
    """Substitute away size-1 domains.

    Returns the simplified instance and the surviving original variable
    indices.  Constraints whose fixed coordinates already break the falsifying
    assignment are dropped; a constraint entirely pinned to its falsifying
    assignment makes the instance unsatisfiable.
    """
    keep = tuple(v for v, s in enumerate(csp.vars) if s.domain_size > 1)
    if len(keep) == csp.num_vars:
        return csp, keep
    index = {v: i for i, v in enumerate(keep)}
    new_cons = []
    for c in csp.constraints:
        pairs = []
        dropped = False
        for v, q in zip(c.vbl, c.falsifying):
            if csp.vars[v].domain_size == 1:
                if q != 0:
                    dropped = True  # cannot happen given validation, defensive
                    break
                # the fixed value equals the falsifying value: coordinate
                # is always matched, remove it from the constraint
            else:
                pairs.append((index[v], q))
        if dropped:
            continue
        if not pairs:
            raise UnsatisfiableInstanceError(
                "constraint with all variables fixed to its falsifying values")
        new_cons.append(AtomicConstraint(tuple(v for v, _ in pairs),
                                         tuple(q for _, q in pairs)))
    return AtomicCsp([csp.vars[v] for v in keep], new_cons), keep


def all_assignments(csp: AtomicCsp):
    """Iterate over every full assignment as a tuple of value indices."""
    return itertools.product(*(range(s.domain_size) for s in csp.vars))
