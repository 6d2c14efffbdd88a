"""Core data model: atomic CSPs, their measures, wildcard semantics, components.

An atomic CSP has variables with finite weighted domains and constraints that
each forbid exactly one local assignment.  A state (partial assignment) is a
sequence of value indices, an int64 array or a list of ints, in which STAR
(-1) is the wildcard that matches every value; a constraint is "falsifiable"
under a state when every coordinate is either the forbidden value or STAR.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .errors import InvalidInstanceError, UnsatisfiableInstanceError

#: Wildcard value of a state: matches every value.
STAR = -1

WEIGHT_SUM_TOL = 1e-12

#: Constraint rows per block of the constraint-adjacency product in
#: ``compute_measures``, which bounds its memory by this many rows of Delta.
_DELTA_BLOCK = 1 << 10


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
    derived quantities (``measures``, ``flat``, ``free_labels``) are
    computed once, on first use."""

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
    def free_labels(self) -> tuple[np.ndarray, np.ndarray]:
        """``split_components`` with no variable fixed."""
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
    values concatenated in constraint order, the same incidence indexed by
    variable (CSR: variable v's constraints, ascending, are
    ``var_cons[var_ptr[v]:var_ptr[v + 1]]``), and one row of cumulative
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
    var_ptr: np.ndarray      # offset of each variable's first constraint
    var_cons: np.ndarray     # constraints of each variable, concatenated
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
    by_var = np.argsort(cons_vars, kind="stable")
    var_ptr = np.searchsorted(cons_vars[by_var], np.arange(csp.num_vars + 1))
    var_cons = entry_cons[by_var]
    index: dict[VariableSpec, int] = {}
    spec_of = np.fromiter((index.setdefault(s, len(index)) for s in csp.vars),
                          np.int64, csp.num_vars)
    width = max((s.domain_size for s in index), default=1) - 1
    cum_table = np.full((len(index), width), np.inf)
    for g, s in enumerate(index):
        # summed left to right, one weight at a time
        cum_table[g, :s.domain_size - 1] = list(
            itertools.accumulate(s.weights))[:-1]
    return FlatCsp(cons_vars, cons_fals, starts, entry_cons, var_ptr,
                   var_cons, spec_of, cum_table)


def split_components(csp: AtomicCsp,
                     live: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The components of the falsifiable constraints' STAR entries
    (``live``, a mask over ``csp.flat``), as labels: a component id per
    variable, and per constraint, -1 for a constraint with no live entry.
    A variable in no live entry is a component on its own.  An id is the
    root of a union-find over the live constraints, a variable index."""
    flat = csp.flat
    ent_vars = flat.cons_vars[live]
    ent_cons = flat.entry_cons[live]
    root = {v: v for v in ent_vars.tolist()}

    def find(v):
        while root[v] != v:
            root[v] = v = root[root[v]]
        return v

    # join each live entry to the one before it in its constraint
    same = ent_cons[1:] == ent_cons[:-1]
    for a, b in zip(ent_vars[:-1][same].tolist(), ent_vars[1:][same].tolist()):
        root[find(b)] = find(a)
    var_label = np.arange(csp.num_vars)
    var_label[list(root)] = [find(v) for v in root]
    cons_label = np.full(len(flat.starts), -1)
    cons_label[ent_cons] = var_label[ent_vars]
    return var_label, cons_label


def compute_measures(csp: AtomicCsp) -> Measures:
    """Maximum arity, variable degree, constraint degree (counting self),
    domain size, log falsifying probability and smoothness."""
    q = max((s.domain_size for s in csp.vars), default=0)
    kappa = max((max(s.weights) / min(s.weights) for s in csp.vars), default=1.0)
    if not csp.constraints:
        return Measures(k=0, d=0, delta=0, q=q, log_p=-math.inf, kappa=kappa)
    flat = csp.flat
    ends = np.append(flat.starts, len(flat.cons_vars))
    k = int(np.diff(ends).max())
    d = int(np.diff(flat.var_ptr).max())
    # Delta: the row sizes of A @ A.T, A the constraint-variable incidence,
    # whose transpose is the CSR index
    ones = np.ones(len(flat.cons_vars), dtype=np.int64)
    a = sparse.csr_matrix((ones, flat.cons_vars, ends),
                          shape=(len(flat.starts), csp.num_vars))
    a_t = sparse.csr_matrix((ones, flat.var_cons, flat.var_ptr))
    delta = max(int(np.diff((a[i:i + _DELTA_BLOCK] @ a_t).indptr).max())
                for i in range(0, a.shape[0], _DELTA_BLOCK))
    log_p = max(
        sum(csp.vars[v].log_weights[val] for v, val in zip(c.vbl, c.falsifying))
        for c in csp.constraints)
    assert d >= 1 and delta >= 1
    return Measures(k=k, d=d, delta=delta, q=q, log_p=log_p, kappa=kappa)


def preprocess(csp: AtomicCsp) -> tuple[AtomicCsp, tuple[int, ...]]:
    """Substitute away size-1 domains.

    Returns the simplified instance and the surviving original variable
    indices.  A constraint entirely pinned to its falsifying assignment makes
    the instance unsatisfiable.
    """
    keep = tuple(v for v, s in enumerate(csp.vars) if s.domain_size > 1)
    if len(keep) == csp.num_vars:
        return csp, keep
    index = {v: i for i, v in enumerate(keep)}
    new_cons = []
    for c in csp.constraints:
        # a size-1 domain's falsifying value is its only value, so its
        # coordinate always matches and leaves the constraint
        pairs = [(index[v], q) for v, q in zip(c.vbl, c.falsifying)
                 if v in index]
        if not pairs:
            raise UnsatisfiableInstanceError(
                "constraint with all variables fixed to its falsifying values")
        new_cons.append(AtomicConstraint(tuple(v for v, _ in pairs),
                                         tuple(q for _, q in pairs)))
    return AtomicCsp([csp.vars[v] for v in keep], new_cons), keep


def all_assignments(csp: AtomicCsp):
    """Iterate over every full assignment as a tuple of value indices."""
    return itertools.product(*(range(s.domain_size) for s in csp.vars))
