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
from operator import itemgetter

import numpy as np

from .errors import (BudgetError, InvalidInstanceError,
                     UnsatisfiableInstanceError)

#: Wildcard value of a state: matches every value.
STAR = -1

WEIGHT_SUM_TOL = 1e-12

#: (constraint, neighbouring constraint) pairs per block of
#: ``constraint_degree``, which bounds its working memory; a constraint whose
#: pairs alone exceed it makes a block of its own.
_PAIR_BLOCK = 1 << 18


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
    not copied.  The measures are computed once, on first use, unless the
    code that builds an instance knows them from its structure and sets
    them (``build_coloring``, ``tensorize``)."""

    def __init__(self, vars: list[VariableSpec], cons_vars, cons_fals,
                 arity):
        self.vars = tuple(vars)
        self.flat = flatten(self.vars, cons_vars, cons_fals, arity)
        # (build, Marking) -> build(self, marking), filled by ``memoized``
        self.memo: dict = {}

    @property
    def num_vars(self) -> int:
        return len(self.vars)

    @functools.cached_property
    def measures(self) -> Measures:
        return compute_measures(self)

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


def memoized(csp: AtomicCsp, build, m):
    """``build(csp, m)`` for a ``Marking`` m, built once per (build, m) and
    kept on the instance."""
    key = (build, m)
    if key not in csp.memo:
        csp.memo[key] = build(csp, m)
    return csp.memo[key]


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
    specs: tuple[VariableSpec, ...]  # the distinct specs, first use first
    spec_of: np.ndarray      # per variable, its index in ``specs``
    entry_spec: np.ndarray   # per entry, ``spec_of`` of its variable
    cum_table: np.ndarray

    def spans(self):
        """The (start, end) of each constraint's entries, as ints."""
        return zip(self.starts.tolist(), (self.starts + self.arity).tolist())

    @functools.cached_property
    def log_pc(self) -> np.ndarray:
        """ln p_C of each constraint: its entries' ln weights summed."""
        return constraint_sums(self, self.log_w)

    @functools.cached_property
    def var_cons(self) -> np.ndarray:
        """The constraints of each variable, concatenated, each variable's
        ascending: built on first read, which ``constraint_degree`` and
        ``component`` make, by one sort of the distinct keys (variable,
        entry), much faster than a stable argsort of the variables; n *
        total stays far below 2^63 for any instance that fits in memory."""
        total = len(self.cons_vars)
        key = self.cons_vars * total
        key += np.arange(total)
        key.sort()
        return self.entry_cons[np.remainder(key, max(total, 1), out=key)]


def per_entry(table: np.ndarray, entry_spec: np.ndarray,
              cons_fals: np.ndarray) -> np.ndarray:
    """``table[g, q]`` of each entry, for its spec g (``entry_spec``) and
    falsifying value q: with one spec, one take from its row."""
    if len(table) == 1:
        return table[0].take(cons_fals)
    return table.ravel()[entry_spec * table.shape[1] + cons_fals]


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
    if n and vars == (vars[0],) * n:
        # one spec for every variable, as the parsers give; the comparison
        # tests each spec's identity before its dataclass ``__eq__``, and
        # stops at the first other spec
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
    if len(specs) == 1:
        # every entry has spec 0: a zero broadcast, not a gather
        entry_spec = np.broadcast_to(np.int64(0), (total,))
        limit = domain[0]
    else:
        entry_spec = spec_of[v]
        limit = domain[entry_spec]
    bad_q = np.flatnonzero((q < 0) | (q >= limit))
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
    width = int(domain.max(initial=1))
    cum_table = np.full((len(specs), width - 1), np.inf)
    log_table = np.zeros((len(specs), width))
    for g, s in enumerate(specs):
        # summed left to right, one weight at a time
        cum_table[g, :s.domain_size - 1] = list(
            itertools.accumulate(s.weights))[:-1]
        log_table[g, :s.domain_size] = s.log_weights
    flat = FlatCsp(cons_vars, cons_fals,
                   per_entry(log_table, entry_spec, cons_fals), starts,
                   arity, entry_cons, var_ptr, specs, spec_of, entry_spec,
                   cum_table)
    # variables that strictly ascend within each constraint are distinct;
    # otherwise a variable twice in one constraint gives two neighbours,
    # within one variable's run of the index, with one constraint
    up = cons_vars[1:] > cons_vars[:-1]
    up[starts[1:] - 1] = True
    if not up.all():
        var_cons = flat.var_cons
        same = var_cons[1:] == var_cons[:-1]
        run = var_ptr[1:-1]
        same[run[(run > 0) & (run < total)] - 1] = False
        if same.any():
            raise InvalidInstanceError(
                "constraint variables must be distinct")
    return flat


def constraint_sums(flat: FlatCsp, x: np.ndarray, first=0.0) -> np.ndarray:
    """Per constraint, ``first`` (a scalar or one value per constraint) plus
    its entries' values ``x``, added left to right one entry at a time.

    Per distinct arity a, the block of its constraints is (a + 1, m), one
    column per constraint with ``first`` on top, and ``np.add.reduce`` over
    axis 0 adds its rows one after another, vectorised across the columns.
    -0.0 starts the reduce, since it is the one float that adds exactly;
    numpy's default start, +0.0, would turn a sum of -0.0s into +0.0.
    numpy sums a contiguous axis pairwise instead, which a block of one
    column would be, so such a block gets a second, zero column.
    ``np.add.reduceat`` sums in unrolled blocks, and Python's float ``sum``
    is compensated from 3.12.  With one arity the entries are ``x``'s rows,
    one per constraint, and no index is gathered."""
    out = np.empty(len(flat.arity))
    first = np.broadcast_to(np.asarray(first, dtype=np.float64), out.shape)
    arity = flat.arity
    if len(arity) and arity.min() == arity.max():
        arities = [int(arity[0])]  # np.unique would sort the whole column
    else:
        arities = np.unique(arity).tolist()
    for a in arities:
        if len(arities) == 1:
            rows, entries = slice(None), x.reshape(len(out), a).T
        else:
            rows = np.flatnonzero(flat.arity == a)
            entries = x[flat.starts[rows] + np.arange(a)[:, None]]
        m = entries.shape[1]
        block = np.empty((a + 1, max(m, 2)))
        block[0, :m] = first[rows]
        block[1:, :m] = entries
        block[:, m:] = 0.0
        out[rows] = np.add.reduce(block, axis=0, initial=-0.0)[:m]
    return out


def split_components(csp: AtomicCsp, live: np.ndarray) -> np.ndarray:
    """The components of the falsifiable constraints' STAR entries
    (``live``, their indices in ``csp.flat``, each constraint's together),
    as a component id per variable.  A variable in no live entry is a
    component on its own.  An id is the root of a union-find over the live
    constraints, a variable index."""
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
    return var_label


def compute_measures(csp: AtomicCsp) -> Measures:
    """Maximum arity, variable degree, constraint degree (counting self),
    domain size, log falsifying probability and smoothness."""
    flat = csp.flat
    return measures_with(flat, var_degree(flat), constraint_degree(flat))


def measures_with(flat: FlatCsp, d: int, delta: int) -> Measures:
    """The measures of an instance whose d and Delta are known from its
    structure: k, Q, ln(p) and kappa are read from its arrays."""
    q, kappa = max_domain(flat), smoothness(flat)
    k = int(flat.arity.max(initial=0))
    log_p = float(flat.log_pc.max(initial=-math.inf))
    assert (d >= 1 and delta >= 1) == (k >= 1)
    return Measures(k=k, d=d, delta=delta, q=q, log_p=log_p, kappa=kappa)


def var_degree(flat: FlatCsp) -> int:
    """d: the most constraints of one variable, off the CSR offsets."""
    return int(np.diff(flat.var_ptr).max(initial=0))


def max_domain(flat: FlatCsp) -> int:
    """Q: the largest domain of the distinct specs (0 with no variable)."""
    return max((s.domain_size for s in flat.specs), default=0)


def smoothness(flat: FlatCsp) -> float:
    """kappa: the largest ratio of a spec's heaviest to lightest weight."""
    return max((max(s.weights) / min(s.weights) for s in flat.specs),
               default=1.0)


def constraint_degree(flat: FlatCsp) -> int:
    """Delta: the most constraints that share a variable with one
    constraint, itself included (0 with no constraint).

    Each entry of a constraint pairs it with every constraint of the
    entry's variable, read off the CSR index.  A block of constraints at a
    time, the keys (constraint in the block, neighbour) are sorted, and a
    constraint's Delta is the count of its distinct keys, which sit where
    its pairs sat before the sort."""
    m = len(flat.arity)
    deg = np.diff(flat.var_ptr)[flat.cons_vars]   # pairs of each entry
    # pair offset after each entry, and after each constraint
    entry_end = np.cumsum(deg)
    cons_end = entry_end[flat.starts + flat.arity - 1]
    delta, c0 = 0, 0
    while c0 < m:
        p0 = int(cons_end[c0 - 1]) if c0 else 0
        c1 = max(int(np.searchsorted(cons_end, p0 + _PAIR_BLOCK, "right")),
                 c0 + 1)
        e0 = int(flat.starts[c0])
        e1 = int(flat.starts[c1 - 1] + flat.arity[c1 - 1])
        n_pairs = int(cons_end[c1 - 1]) - p0
        per_cons = np.diff(cons_end[c0:c1], prepend=p0)
        # pair j of entry e reads var_cons[var_ptr[v_e] + j]
        shift = (flat.var_ptr[flat.cons_vars[e0:e1]]
                 - (entry_end[e0:e1] - p0 - deg[e0:e1]))
        nb = flat.var_cons[np.arange(n_pairs) + np.repeat(shift, deg[e0:e1])]
        dtype = np.int32 if (c1 - c0) * m <= 1 << 31 else np.int64
        key = np.repeat(np.arange(0, (c1 - c0) * m, m, dtype=dtype),
                        per_cons)
        key += nb.astype(dtype, copy=False)
        key.sort()
        new = np.empty(n_pairs, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        first = np.cumsum(per_cons) - per_cons
        delta = max(delta, int(np.add.reduceat(new, first).max()))
        c0 = c1
    return delta


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


def enumerate_solutions(weights, constraints, budget: int):
    """Every assignment that falsifies none of ``constraints``, in
    lexicographic order, with its weight.

    ``weights`` holds one pmf per variable, as a tuple over its domain, and
    each constraint is a sequence of (variable, falsifying value) pairs.  An
    assignment's weight is its values' weights multiplied left to right
    from 1.0, the float operations of a product loop over the variables.
    The walk is depth first, one level per variable without recursion, and
    checks each constraint once its last variable is set.  Raises
    ``BudgetError`` before any assignment when the product of the domain
    sizes exceeds ``budget``.
    """
    total = 1
    for w in weights:
        total *= len(w)
        if total > budget:
            raise BudgetError(f"state space exceeds the budget of {budget}")
    n = len(weights)
    if not n:
        yield (), 1.0
        return
    # per variable and value: (getter, values) of the other entries of each
    # constraint the variable is last in, or None when the value alone
    # falsifies one
    checks = [[[] for _ in w] for w in weights]
    for c in constraints:
        *rest, (last, q) = sorted(c)
        row = checks[last]
        if not rest:
            row[q] = None
        elif row[q] is not None:
            us, fs = zip(*rest)
            row[q].append((itemgetter(*us), fs if len(fs) > 1 else fs[0]))
    values = [0] * n
    prefix = [1.0] * n     # the weight of the values above each level
    nxt = [0] * n          # the next value to try at each level
    v = 0
    while v >= 0:
        q = nxt[v]
        if q == len(weights[v]):
            nxt[v] = 0
            v -= 1
            continue
        nxt[v] = q + 1
        values[v] = q
        row = checks[v][q]
        if row is None or any(get(values) == fs for get, fs in row):
            continue
        w = prefix[v] * weights[v][q]
        if v + 1 == n:
            yield tuple(values), w
        else:
            v += 1
            prefix[v] = w
