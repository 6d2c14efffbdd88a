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

import numpy as np

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
    derived quantities (``measures``, ``flat``) are computed once, on first
    use."""

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
        # Marking -> marking.MarkingConstants, filled by marking.constants
        self.constants_memo: dict = {}
        # (Marking, budget) -> kernels.UpdateContext, filled by
        # kernels.update_context
        self.context_memo: dict = {}

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @functools.cached_property
    def measures(self) -> Measures:
        return compute_measures(self)

    @functools.cached_property
    def flat(self) -> FlatCsp:
        return flatten(self)

    @functools.cached_property
    def free_components(self) -> tuple[ProjectedCsp, ...]:
        """The components of the instance with no variable fixed."""
        return split_components(
            self, np.ones(len(self.flat.cons_vars), dtype=bool))

    def satisfies(self, values: list[int]) -> bool:
        """True iff the full assignment violates no constraint."""
        f = self.flat
        hit = np.asarray(values)[f.cons_vars] == f.cons_fals
        return not np.logical_and.reduceat(hit, f.starts).any()

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


@dataclass(frozen=True, eq=False)
class FlatCsp:
    """An instance as flat arrays: the constraints' variables and falsifying
    values concatenated in constraint order, and one row of cumulative
    weights per distinct ``VariableSpec``.

    Row g of ``cum_table`` holds spec g's running sums of weights but the
    last, padded with +inf to the widest domain less one.  A deviate x draws
    the value "how many entries of the row are <= x", which is the first
    value whose running sum exceeds x, with the top value taking the rest.
    """

    cons_vars: np.ndarray    # variable of each constraint entry
    cons_fals: np.ndarray    # falsifying value of each entry
    starts: np.ndarray       # offset of each constraint's first entry
    entry_cons: np.ndarray   # constraint of each entry
    spec_of: np.ndarray      # per variable, its row of ``cum_table``
    cum_table: np.ndarray


def flatten(csp: AtomicCsp) -> FlatCsp:
    arity = np.fromiter((len(c.vbl) for c in csp.constraints), np.int64,
                        len(csp.constraints))
    total = int(arity.sum())
    cons_vars = np.fromiter(
        itertools.chain.from_iterable(c.vbl for c in csp.constraints),
        np.int64, total)
    cons_fals = np.fromiter(
        itertools.chain.from_iterable(c.falsifying for c in csp.constraints),
        np.int64, total)
    starts = np.cumsum(arity) - arity
    entry_cons = np.repeat(np.arange(len(arity)), arity)
    index: dict[VariableSpec, int] = {}
    spec_of = np.fromiter((index.setdefault(s, len(index)) for s in csp.vars),
                          np.int64, csp.num_vars)
    width = max((s.domain_size for s in index), default=1) - 1
    cum_table = np.full((len(index), width), np.inf)
    for g, s in enumerate(index):
        # summed left to right, one weight at a time
        cum_table[g, :s.domain_size - 1] = list(
            itertools.accumulate(s.weights))[:-1]
    return FlatCsp(cons_vars, cons_fals, starts, entry_cons, spec_of,
                   cum_table)


@dataclass
class PartialAssignment:
    """Per-variable value index or STAR."""

    values: list

    def copy(self) -> "PartialAssignment":
        return PartialAssignment(list(self.values))

    def to_array(self) -> np.ndarray:
        """The state as an int64 array, -1 for STAR."""
        return np.array([-1 if x is STAR else x for x in self.values],
                        dtype=np.int64)

    @staticmethod
    def from_array(state: np.ndarray) -> "PartialAssignment":
        return PartialAssignment([STAR if x < 0 else x
                                  for x in state.tolist()])

    def contained_in(self, other: "PartialAssignment") -> bool:
        """self is a refinement of other: other(v) in {self(v), STAR}."""
        return all(b is STAR or b == a
                   for a, b in zip(self.values, other.values))

    @staticmethod
    def all_star(n: int) -> "PartialAssignment":
        return PartialAssignment([STAR] * n)


class StarView:
    """A state array (-1 = STAR) read and written as a value list with STAR:
    one element per access, so a component search through it costs the
    component, not the instance."""

    __slots__ = ("state",)

    def __init__(self, state: np.ndarray):
        self.state = state

    def __getitem__(self, v):
        x = self.state[v]
        return STAR if x < 0 else int(x)

    def __setitem__(self, v, x):
        self.state[v] = -1 if x is STAR else x


@dataclass(frozen=True)
class ProjectedCsp:
    """The projection of a CSP onto the STAR variables of an assignment.

    Variables keep their original indices (``free_vars`` lists them); the
    constraints are the falsifiable ones restricted to the free variables.
    """

    parent: AtomicCsp = field(compare=False)
    free_vars: tuple[int, ...]
    constraints: tuple[AtomicConstraint, ...]

    @functools.cached_property
    def arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
        """(free variables, each constraint entry's position in
        ``free_vars``, its falsifying value, each constraint's first
        entry), the constraints' entries concatenated."""
        index = {v: i for i, v in enumerate(self.free_vars)}
        entries = np.array([(index[v], q) for c in self.constraints
                            for v, q in zip(c.vbl, c.falsifying)],
                           dtype=np.int64).reshape(-1, 2)
        starts = list(itertools.accumulate(
            [0] + [len(c.vbl) for c in self.constraints[:-1]]))
        return (np.array(self.free_vars, dtype=np.int64), entries[:, 0],
                entries[:, 1], starts)

    def to_atomic_csp(self) -> AtomicCsp:
        """Reindex onto 0..len(free_vars)-1 for measure/enumeration checks."""
        index = {v: i for i, v in enumerate(self.free_vars)}
        vars = [self.parent.vars[v] for v in self.free_vars]
        cons = [AtomicConstraint(tuple(index[v] for v in c.vbl), c.falsifying)
                for c in self.constraints]
        return AtomicCsp(vars, cons)


def split_components(csp: AtomicCsp,
                     live: np.ndarray) -> tuple[ProjectedCsp, ...]:
    """The components of the falsifiable constraints' STAR entries
    (``live``, a mask over ``csp.flat``), ascending by smallest variable: for
    each, its variables ascending and its constraints projected onto them.
    The components come from a union-find over the live constraints."""
    flat = csp.flat
    ent_vars = flat.cons_vars[live].tolist()
    ent_fals = flat.cons_fals[live].tolist()
    sizes = np.add.reduceat(live, flat.starts, dtype=np.int64)
    bounds = list(itertools.accumulate(sizes[sizes > 0].tolist(), initial=0))
    projected = [(ent_vars[a:b], ent_fals[a:b])
                 for a, b in zip(bounds, bounds[1:])]
    root = {v: v for v in ent_vars}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    for vbl, _ in projected:
        r = find(vbl[0])
        for w in vbl[1:]:
            root[find(w)] = r = find(r)
    comp_vars: dict[int, list[int]] = {}
    for v in sorted(root):
        comp_vars.setdefault(find(v), []).append(v)
    comp_cons: dict[int, list[AtomicConstraint]] = {}
    for vbl, fals in projected:
        comp_cons.setdefault(find(vbl[0]), []).append(
            AtomicConstraint(tuple(vbl), tuple(fals)))
    return tuple(ProjectedCsp(csp, tuple(free), tuple(comp_cons[r]))
                 for r, free in comp_vars.items())


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
