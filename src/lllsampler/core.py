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


def left_sum(xs) -> float:
    """The float sum of ``xs``, added left to right one value at a time.
    From Python 3.12 on, the builtin ``sum`` compensates float sums, so its
    result depends on the interpreter; this one equals 3.11's."""
    total = 0.0
    for x in xs:
        total += x
    return total


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
        if any(not w > 0.0 for w in self.weights):
            raise InvalidInstanceError("weights must be strictly positive")
        if abs(left_sum(self.weights) - 1.0) > WEIGHT_SUM_TOL:
            raise InvalidInstanceError("weights must sum to 1")

    @functools.cached_property
    def log_weights(self) -> tuple[float, ...]:
        return tuple(math.log(w) for w in self.weights)

    @staticmethod
    def uniform(n: int) -> "VariableSpec":
        return VariableSpec(n, tuple([1.0 / n] * n))


class AtomicCsp:
    """An atomic CSP.  Immutable after construction; safe to share.

    Constraint i is its one falsifying local assignment: the ``arity[i]``
    entries that follow constraint i - 1's in ``cons_vars`` (variables) and
    ``cons_fals`` (falsifying values).  The instance is its arrays,
    ``flat``, built and checked on construction; the arrays given are kept,
    not copied.  The derived quantities (``measures``, ``free_labels``) are
    computed once, on first use."""

    def __init__(self, vars: list[VariableSpec], cons_vars, cons_fals,
                 arity):
        self.vars = tuple(vars)
        self.flat = flatten(self.vars, cons_vars, cons_fals, arity)
        # Marking -> marking.MarkingConstants, filled by marking.constants
        self.constants_memo: dict = {}
        # Marking -> kernels.UpdateContext, filled by kernels.update_context
        self.context_memo: dict = {}
        # Marking -> sampler.MarkedEntries, filled by sampler.marked_entries
        self.entries_memo: dict = {}

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @functools.cached_property
    def measures(self) -> Measures:
        return compute_measures(self)

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

    def _arrays(self) -> tuple[np.ndarray, ...]:
        """The arrays that, with ``vars``, define the instance."""
        return self.flat.arity, self.flat.cons_vars, self.flat.cons_fals

    def __eq__(self, other):
        return (isinstance(other, AtomicCsp)
                and self.vars == other.vars
                and all(map(np.array_equal, self._arrays(), other._arrays())))

    def __hash__(self):
        return hash((self.vars, *(a.tobytes() for a in self._arrays())))


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
    """An instance as flat arrays: the constraints' variables, falsifying
    values and the ln weights of those values, concatenated in constraint
    order; the same incidence indexed by variable (CSR: variable v's
    constraints, ascending, are ``var_cons[var_ptr[v]:var_ptr[v + 1]]``);
    and the distinct ``VariableSpec``s, with one row of cumulative weights
    each.

    Row g of ``cum_table`` holds spec g's running sums of weights but the
    last, padded with +inf to the widest domain less one.  A deviate x draws
    the value "how many entries of the row are <= x", which is the first
    value whose running sum exceeds x, with the top value taking the rest.
    """

    cons_vars: np.ndarray    # variable of each constraint entry
    cons_fals: np.ndarray    # falsifying value of each entry
    log_w: np.ndarray        # ln weight of each entry's falsifying value
    starts: np.ndarray       # offset of each constraint's first entry
    arity: np.ndarray        # entries of each constraint
    entry_cons: np.ndarray   # constraint of each entry
    var_ptr: np.ndarray      # offset of each variable's first constraint
    var_cons: np.ndarray     # constraints of each variable, concatenated
    specs: tuple[VariableSpec, ...]  # the distinct specs, first use first
    spec_of: np.ndarray      # per variable, its index in ``specs``
    cum_table: np.ndarray

    def spans(self):
        """The (start, end) of each constraint's entries, as ints."""
        return zip(self.starts.tolist(), (self.starts + self.arity).tolist())


def flatten(vars: tuple[VariableSpec, ...], cons_vars, cons_fals,
            arity) -> FlatCsp:
    """The arrays of an instance from its entry arrays, checked: first the
    shape of each constraint, then every entry's range before any gather
    (numpy's fancy indexing would wrap a negative index), then that each
    constraint's variables are distinct."""
    cons_vars = np.asarray(cons_vars, dtype=np.int64)
    cons_fals = np.asarray(cons_fals, dtype=np.int64)
    arity = np.asarray(arity, dtype=np.int64)
    total = len(cons_vars)
    if cons_vars.ndim != 1 or cons_fals.shape != cons_vars.shape:
        raise InvalidInstanceError("falsifying must match vbl in length")
    if arity.ndim != 1 or (arity < 1).any():
        raise InvalidInstanceError("empty constraint (arity 0)")
    if int(arity.sum()) != total:
        raise InvalidInstanceError("the arities must sum to the entry count")
    n = len(vars)
    if n and vars.count(vars[0]) == n:
        # one spec for every variable, as the parsers give
        index = {vars[0]: 0}
        spec_of = np.zeros(n, dtype=np.int64)
    else:
        # one lookup per distinct spec object: hashing a spec hashes its
        # weights
        objects = {id(s): s for s in vars}
        index = {}
        row = {i: index.setdefault(s, len(index)) for i, s in objects.items()}
        spec_of = np.fromiter(map(row.__getitem__, map(id, vars)), np.int64,
                              n)
    specs = tuple(index)
    domain = np.array([s.domain_size for s in specs], dtype=np.int64)
    # the first bad entry names the error; every variable before it is valid
    bad = (cons_vars < 0) | (cons_vars >= n)
    stop = int(bad.argmax()) if bad.any() else total
    q, v = cons_fals[:stop], cons_vars[:stop]
    entry_spec = spec_of[v]
    bad_q = np.flatnonzero((q < 0) | (q >= domain[entry_spec]))
    if len(bad_q):
        e = bad_q[0]
        raise InvalidInstanceError(
            f"falsifying value {q[e]} outside domain of variable {v[e]}")
    if stop < total:
        raise InvalidInstanceError(
            f"variable index {cons_vars[stop]} out of range")
    starts = np.cumsum(arity) - arity
    entry_cons = np.repeat(np.arange(len(arity)), arity)
    var_ptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(cons_vars, minlength=n), out=var_ptr[1:])
    # the entries by variable, each variable's in constraint order: a sort
    # of the distinct keys (variable, entry), much faster than a stable
    # argsort of the variables; n * total stays far below 2^63 for any
    # instance that fits in memory
    key = cons_vars * total
    key += np.arange(total)
    key.sort()
    var_cons = entry_cons[np.remainder(key, max(total, 1), out=key)]
    # a variable twice in one constraint gives two neighbours, within one
    # variable's run, with one constraint
    same = var_cons[1:] == var_cons[:-1]
    run = var_ptr[1:-1]
    same[run[(run > 0) & (run < total)] - 1] = False
    if same.any():
        raise InvalidInstanceError("constraint variables must be distinct")
    width = int(domain.max(initial=1))
    cum_table = np.full((len(specs), width - 1), np.inf)
    log_table = np.zeros((len(specs), width))
    for g, s in enumerate(specs):
        # summed left to right, one weight at a time
        cum_table[g, :s.domain_size - 1] = list(
            itertools.accumulate(s.weights))[:-1]
        log_table[g, :s.domain_size] = s.log_weights
    log_w = log_table[entry_spec, cons_fals]
    return FlatCsp(cons_vars, cons_fals, log_w, starts, arity, entry_cons,
                   var_ptr, var_cons, specs, spec_of, cum_table)


def constraint_sums(flat: FlatCsp, x: np.ndarray, first=0.0) -> np.ndarray:
    """Per constraint, ``first`` (a scalar or one value per constraint) plus
    its entries' values ``x``, added left to right one entry at a time: a
    row-wise cumsum per distinct arity.  ``np.add.reduceat`` sums in
    unrolled blocks, and Python's float ``sum`` is compensated from 3.12."""
    out = np.empty(len(flat.arity))
    first = np.broadcast_to(np.asarray(first, dtype=np.float64), out.shape)
    for a in np.unique(flat.arity).tolist():
        rows = np.flatnonzero(flat.arity == a)
        block = np.empty((len(rows), a + 1))
        block[:, 0] = first[rows]
        block[:, 1:] = x[flat.starts[rows, None] + np.arange(a)]
        out[rows] = np.cumsum(block, axis=1)[:, -1]
    return out


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
    flat = csp.flat
    q = max((s.domain_size for s in flat.specs), default=0)
    kappa = max((max(s.weights) / min(s.weights) for s in flat.specs),
                default=1.0)
    if not len(flat.arity):
        return Measures(k=0, d=0, delta=0, q=q, log_p=-math.inf, kappa=kappa)
    ends = np.append(flat.starts, len(flat.cons_vars))
    k = int(flat.arity.max())
    d = int(np.diff(flat.var_ptr).max())
    # Delta: the row sizes of A @ A.T, A the constraint-variable incidence,
    # whose transpose is the CSR index
    ones = np.ones(len(flat.cons_vars), dtype=np.int64)
    a = sparse.csr_matrix((ones, flat.cons_vars, ends),
                          shape=(len(flat.starts), csp.num_vars))
    a_t = sparse.csr_matrix((ones, flat.var_cons, flat.var_ptr))
    delta = max(int(np.diff((a[i:i + _DELTA_BLOCK] @ a_t).indptr).max())
                for i in range(0, a.shape[0], _DELTA_BLOCK))
    log_p = float(constraint_sums(flat, flat.log_w).max())
    assert d >= 1 and delta >= 1
    return Measures(k=k, d=d, delta=delta, q=q, log_p=log_p, kappa=kappa)


def preprocess(csp: AtomicCsp) -> tuple[AtomicCsp, tuple[int, ...]]:
    """Substitute away size-1 domains.

    Returns the simplified instance and the surviving original variable
    indices.  A constraint entirely pinned to its falsifying assignment makes
    the instance unsatisfiable.
    """
    flat = csp.flat
    fixed = np.array([s.domain_size == 1 for s in flat.specs], dtype=bool)
    if not fixed.any():
        return csp, tuple(range(csp.num_vars))
    kept = ~fixed[flat.spec_of]
    keep = np.flatnonzero(kept).tolist()
    # a size-1 domain's falsifying value is its only value, so its
    # coordinate always matches and leaves the constraint
    live = kept[flat.cons_vars]
    arity = np.bincount(flat.entry_cons[live], minlength=len(flat.arity))
    if (arity == 0).any():
        raise UnsatisfiableInstanceError(
            "constraint with all variables fixed to its falsifying values")
    index = np.cumsum(kept) - 1
    return AtomicCsp(
        [csp.vars[v] for v in keep], index[flat.cons_vars[live]],
        flat.cons_fals[live], arity), tuple(keep)


def all_assignments(csp: AtomicCsp):
    """Iterate over every full assignment as a tuple of value indices."""
    return itertools.product(*(range(s.domain_size) for s in csp.vars))
