"""State tensorization: per-variable weighted decision trees, the tensorized
CSP over node-variables, the back-map from tensor assignments to original
values, and the specialized constructions for hypergraph coloring and uniform
domains.

A tree decomposes one variable's distribution into a chain of small decisions:
each internal node becomes a binary (or small-arity) variable whose pmf is its
edge weights, and the product of edge weights along the path to value q's leaf
reproduces D(q).  Logarithms in this module are base 2.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from types import MappingProxyType

import numpy as np

from .core import (AtomicCsp, VariableSpec, constraint_sums, left_sum,
                   measures_with)
from .errors import (ConstructionFailedError, InvalidInstanceError,
                     InvariantError, RegimeError)
from .kernels import LABEL_TENSOR, RandomnessTape, TapeStream, derive_seed
from .marking import (DEFAULT_RETRY_CAP, Marking, UNIFORM_ETA, UNIFORM_GAMMA,
                      UNIFORM_TAU1, UNIFORM_TAU2, UNIFORM_ZETA,
                      check_necessary_bound, check_theorem_conditions,
                      kl_divergence, moser_tardos)

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class TensorTree:
    """A rooted tree over node ids 0..n-1 (root = 0) with edge weights.

    ``children[z]`` lists z's children in order; leaves have none.
    ``weight[z]`` is the weight of the edge from z's parent (1.0 at the root).
    ``leaf_value`` maps leaf ids to domain values, bijectively; it is kept as
    a read-only copy, so a tree shared by many instances cannot change.
    """

    children: tuple[tuple[int, ...], ...]
    weight: tuple[float, ...]
    leaf_value: Mapping[int, int] = field(hash=False)

    def __post_init__(self):
        n = len(self.children)
        if len(self.weight) != n or n < 1:
            raise InvalidInstanceError("malformed tree arrays")
        seen = [False] * n
        seen[0] = True
        for z, ch in enumerate(self.children):
            if ch and len(ch) < 2 and n > 2:
                raise InvalidInstanceError(
                    f"internal node {z} has a single child")
            wsum = left_sum(self.weight[c] for c in ch)
            if ch and abs(wsum - 1.0) > _WEIGHT_TOL:
                raise InvalidInstanceError(
                    f"child weights at node {z} sum to {wsum}, not 1")
            for c in ch:
                if seen[c]:
                    raise InvalidInstanceError("node has two parents")
                seen[c] = True
        if not all(seen):
            raise InvalidInstanceError("disconnected tree node")
        leaves = {z for z, ch in enumerate(self.children) if not ch}
        if set(self.leaf_value) != leaves:
            raise InvalidInstanceError("leaf_value keys must be the leaves")
        vals = sorted(self.leaf_value.values())
        if vals != list(range(len(leaves))):
            raise InvalidInstanceError("leaf values must be 0..N-1, each once")
        object.__setattr__(self, "leaf_value",
                           MappingProxyType(dict(self.leaf_value)))

    def __reduce__(self):
        return TensorTree, (self.children, self.weight, dict(self.leaf_value))

    @property
    def num_values(self) -> int:
        return len(self.leaf_value)

    def internal_nodes(self) -> tuple[int, ...]:
        return tuple(z for z, ch in enumerate(self.children) if ch)

    @functools.cached_property
    def _paths(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """Every value's root-to-leaf path, from one depth-first walk."""
        paths = [()] * self.num_values
        stack = [(0, ())]
        while stack:
            z, steps = stack.pop()
            if not self.children[z]:
                paths[self.leaf_value[z]] = steps
            for ci, c in enumerate(self.children[z]):
                stack.append((c, steps + ((z, ci),)))
        return tuple(paths)

    def path(self, q: int) -> tuple[tuple[int, int], ...]:
        """(internal node, chosen child index) pairs from root to value q."""
        return self._paths[q]

    @functools.cached_property
    def tables(self) -> TreeTables:
        """The tree's rows of the tensorized instance's tables, built once
        per tree."""
        paths = self._paths
        steps = list(itertools.chain.from_iterable(paths))
        width = max(1, *map(len, self.children))
        rank = [0] * len(self.children)
        pmfs, node_child = [], []
        for z, ch in enumerate(self.children):
            row = list(ch) or [z]
            node_child.append(row + row[-1:] * (width - len(row)))
            if ch:
                rank[z] = len(pmfs)
                ws = [self.weight[c] for c in ch]
                s = left_sum(ws)
                pmfs.append(tuple(w / s for w in ws))
        node_value = [-1] * len(self.children)
        for z, q in self.leaf_value.items():
            node_value[z] = q
        return TreeTables(
            tuple(pmfs), np.array([len(path) for path in paths], np.int64),
            np.array([rank[z] for z, _ in steps], np.int64),
            np.array([ci for _, ci in steps], np.int64),
            np.array(node_child, np.int64), np.array(node_value, np.int64),
            np.array(rank, np.int64),
            np.array([self.leaf_product(q) for q in range(self.num_values)]))

    def leaf_product(self, q: int) -> float:
        prod = 1.0
        for z, ci in self.path(q):
            prod *= self.weight[self.children[z][ci]]
        return prod

    def depth(self) -> int:
        return max(self.levels())

    def levels(self) -> tuple[int, ...]:
        """Per-node distance from the root."""
        lv = [0] * len(self.children)
        order = [0]
        for z in order:
            for c in self.children[z]:
                lv[c] = lv[z] + 1
                order.append(c)
        return tuple(lv)

    def dump(self, marks=()) -> str:
        """Indented text form for golden-file comparison."""
        marks = set(marks)
        lines = []
        stack = [(0, 0)]
        while stack:
            z, depth = stack.pop()
            kind = "leaf" if not self.children[z] else "node"
            tag = " *" if z in marks else ""
            val = (f" value={self.leaf_value[z]}"
                   if z in self.leaf_value else "")
            lines.append(f"{'  ' * depth}{kind} {z} w={self.weight[z]:.12g}"
                         f"{val}{tag}")
            stack += [(c, depth + 1) for c in reversed(self.children[z])]
        return "\n".join(lines)


@dataclass(frozen=True)
class TreeTables:
    """One tree's rows of ``tensorize``'s tables, in its own node ids.

    ``pmfs[r]`` is the normalised child weights of the tree's r-th internal
    node.  Value q's root-to-leaf path has ``path_len[q]`` steps, whose
    (node rank, child index) pairs follow value q - 1's in ``path_rank`` and
    ``path_child``.  ``node_child``, ``node_value`` and ``node_rank`` are
    the tree's rows of ``TensorizedCsp``'s back-map tables, ``node_child``
    padded to the tree's widest node.  ``leaf_product[q]`` is
    ``TensorTree.leaf_product(q)``.
    """

    pmfs: tuple[tuple[float, ...], ...]
    path_len: np.ndarray
    path_rank: np.ndarray
    path_child: np.ndarray
    node_child: np.ndarray
    node_value: np.ndarray
    node_rank: np.ndarray
    leaf_product: np.ndarray


class _TreeBuilder:
    """Mutable helper; node 0 is preallocated as the root."""

    def __init__(self):
        self.children = [[]]
        self.weight = [1.0]

    def add(self, parent: int, weight: float) -> int:
        nid = len(self.weight)
        self.children.append([])
        self.weight.append(weight)
        self.children[parent].append(nid)
        return nid

    def leaves(self) -> list[int]:
        """Leaf ids in depth-first (left to right) order."""
        out = []
        stack = [0]
        while stack:
            z = stack.pop()
            if not self.children[z]:
                out.append(z)
            stack += reversed(self.children[z])
        return out

    def build(self, leaf_values: dict[int, int] | None = None) -> TensorTree:
        """The tree, its leaves valued left to right unless ``leaf_values``
        maps them."""
        if leaf_values is None:
            leaf_values = {leaf: i for i, leaf in enumerate(self.leaves())}
        return TensorTree(tuple(tuple(c) for c in self.children),
                          tuple(self.weight), dict(leaf_values))


def _balanced(b: _TreeBuilder, node: int, n: int) -> None:
    """Grow a balanced n-leaf uniform subtree under an existing node; the
    left child always takes the ceiling half."""
    if n == 1:
        return
    left = (n + 1) // 2
    right = n - left
    l = b.add(node, left / n)
    r = b.add(node, right / n)
    _balanced(b, l, left)
    _balanced(b, r, right)


def _huffman_structure(masses):
    """Huffman merge order: returns a nested structure where an int is an
    input item index and a merge is a pair of (mass, side) pairs; ties break
    on lowest creation index, so the result is deterministic."""
    heap = [(m, i, i) for i, m in enumerate(masses)]
    heapq.heapify(heap)
    next_id = len(masses)
    while len(heap) > 1:
        m1, _, s1 = heapq.heappop(heap)
        m2, _, s2 = heapq.heappop(heap)
        heapq.heappush(heap, (m1 + m2, next_id, ((m1, s1), (m2, s2))))
        next_id += 1
    return heap[0][2]


def _attach(b: _TreeBuilder, struct, leaf) -> list[int]:
    """Grow a ``_huffman_structure`` from the root, depth first, and return
    its merge nodes: each merge gets one child per side, weighted by the
    sides' masses, and each input index i at a node goes to
    ``leaf(node, i)``.  A child is added when the walk reaches it, so node
    ids follow depth-first creation order."""
    merges = []
    stack = [(None, 1.0, struct)]
    while stack:
        parent, w, s = stack.pop()
        node = 0 if parent is None else b.add(parent, w)
        if isinstance(s, int):
            leaf(node, s)
            continue
        merges.append(node)
        (ml, l), (mr, r) = s
        tot = ml + mr
        stack += [(node, mr / tot, r), (node, ml / tot, l)]
    return merges


def huffman_tensorize(pmf) -> TensorTree:
    """Binary tree over a pmf built by repeatedly merging the two minimum
    masses; every sibling weight ratio is at most max(kappa, 2)."""
    pmf = list(pmf)
    if not pmf:
        raise InvalidInstanceError("empty pmf")
    if any(w <= 0.0 for w in pmf) or abs(left_sum(pmf) - 1.0) > _WEIGHT_TOL:
        raise InvalidInstanceError("pmf must be positive and sum to 1")
    b = _TreeBuilder()
    if len(pmf) == 1:
        b.add(0, 1.0)
        return b.build()
    leaf_values = {}
    _attach(b, _huffman_structure(pmf), leaf_values.__setitem__)
    tree = b.build(leaf_values)
    bound = max(max(pmf) / min(pmf), 2.0)
    for z in tree.internal_nodes():
        ws = [tree.weight[c] for c in tree.children[z]]
        if max(ws) / min(ws) > bound + _WEIGHT_TOL:
            raise InvariantError("sibling weight ratio exceeds max(kappa, 2)")
    return tree


@dataclass(frozen=True)
class TensorizedCsp:
    """An atomic CSP over node-variables plus the bookkeeping to map back.

    ``base`` has one variable per internal tree node (domain = its children,
    pmf = edge weights), each variable's internal nodes in turn from
    ``first_node[v]`` on (``node_vars``).

    The back-map tables (``trans``) number the nodes of the distinct trees
    one tree after another.  ``node_child[z]`` lists node z's children,
    padded with the last one, and a leaf's row is its own id;
    ``node_value[z]`` is leaf z's value (-1 at internal nodes);
    ``node_rank[z]`` is an internal node's rank among its tree's internal
    nodes (0 at leaves); ``var_root[v]`` is variable v's root; ``depth`` is
    the deepest leaf's level.  ``first_node`` is clipped to the last node
    variable, so a leaf's read of it stays in range.
    """

    base: AtomicCsp
    original: AtomicCsp = field(compare=False)
    trees: tuple[TensorTree, ...]
    first_node: np.ndarray = field(compare=False, repr=False)
    var_root: np.ndarray = field(compare=False, repr=False)
    node_child: np.ndarray = field(compare=False, repr=False)
    node_value: np.ndarray = field(compare=False, repr=False)
    node_rank: np.ndarray = field(compare=False, repr=False)
    depth: int = field(compare=False)

    def node_vars(self, v: int, nodes) -> np.ndarray:
        """The node variables of variable v's local internal nodes."""
        return self.first_node[v] + self.node_rank[self.var_root[v] + nodes]


def tensorize(csp: AtomicCsp, trees) -> TensorizedCsp:
    """Build the tensorized CSP from one tree per variable.

    Each constraint keeps its identity: its falsifying assignment becomes the
    chosen-child indices along the falsifying values' root-to-leaf paths.
    """
    trees = tuple(trees)
    if len(trees) != csp.num_vars:
        raise InvalidInstanceError("need one tree per variable")
    flat = csp.flat
    # the distinct tree objects, first use first
    index: dict[int, int] = {}
    tree_of = np.fromiter((index.setdefault(id(t), len(index))
                           for t in trees), np.int64, len(trees))
    tables = [t.tables for t in {id(t): t for t in trees}.values()]
    # each (tree, spec) pair checked once, at its first variable
    _, first = np.unique(tree_of * len(flat.specs) + flat.spec_of,
                         return_index=True)
    for v in np.sort(first).tolist():
        products, spec = tables[tree_of[v]].leaf_product, csp.vars[v]
        if len(products) != spec.domain_size:
            raise InvalidInstanceError(f"tree {v} has the wrong leaf count")
        off = np.flatnonzero(np.abs(products - spec.weights) > _WEIGHT_TOL)
        if len(off):
            raise InvalidInstanceError(
                f"tree {v} does not reproduce the weight of value {off[0]}")
    # node variables: each variable's internal nodes in turn, one shared
    # spec per distinct node pmf
    spec_of = {}
    for tab in tables:
        for pmf in tab.pmfs:
            if pmf not in spec_of:
                spec_of[pmf] = VariableSpec(len(pmf), pmf)
    node_specs = [[spec_of[pmf] for pmf in tab.pmfs] for tab in tables]
    counts = np.array([len(tab.pmfs) for tab in tables], dtype=np.int64)
    first_node = np.cumsum(counts[tree_of]) - counts[tree_of]
    zvars = list(itertools.chain.from_iterable(
        node_specs[g] for g in tree_of.tolist()))
    # each entry (v, q) becomes, in place, the run of path-table rows of q's
    # path in v's tree; the distinct trees' rows follow one another
    path_len = _concat([tab.path_len for tab in tables])
    path_start = np.cumsum(path_len) - path_len
    num_values = np.array([len(tab.leaf_product) for tab in tables],
                          dtype=np.int64)
    row = ((np.cumsum(num_values) - num_values)[tree_of[flat.cons_vars]]
           + flat.cons_fals)
    length = path_len[row]
    ends = np.append(0, np.cumsum(length))
    src = np.arange(ends[-1]) + np.repeat(path_start[row] - ends[:-1], length)
    entry = np.repeat(np.arange(len(length)), length)
    base = AtomicCsp(
        zvars,
        first_node[flat.cons_vars[entry]]
        + _concat([tab.path_rank for tab in tables])[src],
        _concat([tab.path_child for tab in tables])[src],
        ends[flat.starts + flat.arity] - ends[flat.starts])
    if length.all():
        # every path starts at its variable's root node, which is in all
        # its variable's constraints, so d and Delta are the original's; a
        # one-node tree's variable leaves its constraints, and the base's
        # measures are then counted
        mo = csp.measures
        base.measures = measures_with(base.flat, mo.d, mo.delta)
    # the back-map tables number the distinct trees' nodes one tree after
    # another, every node_child row padded to the widest node
    sizes = np.array([len(tab.node_rank) for tab in tables], dtype=np.int64)
    node_base = np.cumsum(sizes) - sizes
    width = max((tab.node_child.shape[1] for tab in tables), default=1)
    node_child = _concat([
        tab.node_child if tab.node_child.shape[1] == width
        else tab.node_child[:, np.minimum(np.arange(width),
                                          tab.node_child.shape[1] - 1)]
        for tab in tables], (0, width))
    out = TensorizedCsp(
        base, csp, trees, np.minimum(first_node, max(len(zvars) - 1, 0)),
        node_base[tree_of], node_child + np.repeat(node_base, sizes)[:, None],
        _concat([tab.node_value for tab in tables]),
        _concat([tab.node_rank for tab in tables]),
        int(path_len.max(initial=0)))
    _check_preservation(out)
    return out


def _concat(parts, empty=(0,)) -> np.ndarray:
    """The int64 arrays ``parts`` end to end, or an empty array of shape
    ``empty`` when there is none."""
    return np.concatenate(parts) if parts else np.empty(empty, np.int64)


def _check_preservation(t: TensorizedCsp) -> None:
    """Constraint count and per-constraint falsifying probability are
    invariant under tensorization; node count is at most Q*|V|."""
    fo, ft = t.original.flat, t.base.flat
    if len(ft.arity) != len(fo.arity):
        raise InvariantError("tensorization changed the constraint count")
    if t.base.num_vars > t.original.measures.q * t.original.num_vars:
        raise InvariantError("tensorization exceeded the Q|V| node bound")
    if (np.abs(fo.log_pc - ft.log_pc) > 1e-9).any():
        raise InvariantError("tensorization changed a falsifying probability")


def trans(tensorized: TensorizedCsp, sigma_tensor) -> np.ndarray:
    """Read a full tensor assignment back to original-domain values, as an
    int64 array: every variable descends its tree at once, one level per
    step, each internal node to the child its node variable holds."""
    t = tensorized
    sigma = np.asarray(sigma_tensor)
    z = t.var_root
    for _ in range(t.depth):
        z = t.node_child[z, sigma[t.first_node + t.node_rank[z]]]
    return t.node_value[z]


def global_marking(tensorized: TensorizedCsp, per_var_marks) -> Marking:
    """Lift per-variable local node mark sets to a marking over the
    tensorized variable set."""
    counts = np.fromiter(map(len, per_var_marks), np.int64,
                         len(per_var_marks))
    local = np.fromiter(itertools.chain.from_iterable(per_var_marks),
                        np.int64, int(counts.sum()))
    mask = np.zeros(tensorized.base.num_vars, dtype=bool)
    mask[tensorized.node_vars(np.repeat(np.arange(len(counts)), counts),
                              local)] = True
    return Marking(mask)


def marked_path_log2(tree: TensorTree, marks, q: int) -> float:
    """Sum of log2 edge weights at the marked nodes on value q's path; the
    per-variable contribution to a constraint's marked falsifying mass."""
    s = 0.0
    for z, ci in tree.path(q):
        if z in marks:
            s += math.log2(tree.weight[tree.children[z][ci]])
    return s


@functools.lru_cache(maxsize=None)
def complete_binary_tensorize_with_marking(q_colors: int):
    """Balanced binary tree template over a uniform domain of size Q with the
    deep internal levels marked, built and certified once per Q.

    Returns (tree, marked node ids).  With D = ceil(log2 Q) and
    R = floor((2/3) log2 Q), internal nodes at level >= R are marked; the
    marked path mass is at most 4/Q^(1/3) and the unmarked path mass at most
    8/Q^(2/3) for every value.
    """
    if q_colors < 5:
        raise RegimeError("complete binary tensorization requires Q >= 5")
    b = _TreeBuilder()
    _balanced(b, 0, q_colors)
    tree = b.build()
    if tree.depth() != math.ceil(math.log2(q_colors)):
        raise InvariantError("balanced tree has unexpected depth")
    r_level = int(math.floor((2.0 / 3.0) * math.log2(q_colors)))
    lv = tree.levels()
    marks = frozenset(z for z in tree.internal_nodes() if lv[z] >= r_level)
    marked_bound = math.log2(4.0) - math.log2(q_colors) / 3.0
    unmarked_bound = math.log2(8.0) - 2.0 * math.log2(q_colors) / 3.0
    for q in range(q_colors):
        m = marked_path_log2(tree, marks, q)
        u = math.log2(tree.leaf_product(q)) - m
        if m > marked_bound + _WEIGHT_TOL or u > unmarked_bound + _WEIGHT_TOL:
            raise InvariantError("certified level-product bound violated")
    return tree, marks


# ---------------------------------------------------------------------------
# Randomized tensorization for uniform domains.
#
# Each variable's tree and internal-node marks are drawn so that the marked
# log-mass X(v, q) has mean eta*log2(1/N) for every value q and a small range,
# making the per-constraint deviation bounds of the binary case carry over.


def _candidate(struct, sizes, marks=None):
    """Balanced ``sizes[i]``-leaf subtrees grown at the leaves of a
    ``_huffman_structure``, as (tree, marks, xs) with xs[q] value q's marked
    log2-mass.  ``marks`` are node ids under the builder's creation order
    (root 0, then depth first), by default the structure's merge nodes."""
    b = _TreeBuilder()
    merges = _attach(b, struct, lambda node, i: _balanced(b, node, sizes[i]))
    tree = b.build()
    marks = frozenset(merges if marks is None else marks)
    xs = [marked_path_log2(tree, marks, q) for q in range(tree.num_values)]
    return tree, marks, xs


def _fixed_candidates(n: int):
    """The two fixed candidates for 2 <= N <= 7: balanced trees, except
    N = 6's first, a 4-leaf and a 2-leaf balanced subtree under the root."""
    if n == 6:
        return [_candidate(((4, 0), (2, 1)), (4, 2), {0, 1}),
                _candidate(0, (6,), {0})]
    first, second = {2: ({0}, ()), 3: ({0, 1}, {0}), 4: ({0}, {0, 1, 2}),
                     5: ({0, 1}, {1, 2, 3}), 7: ({0, 1}, {1, 2, 3, 4, 9})}[n]
    return [_candidate(0, (n,), first), _candidate(0, (n,), second)]


def subtree_counts(n: int, x: int) -> tuple[int, int]:
    """(A, B): how many x-leaf and (x+1)-leaf subtrees partition n leaves
    using floor(n/x) subtrees in total."""
    nsub = n // x
    return nsub * (x + 1) - n, n - nsub * x


def _large_candidate(n: int, x: int):
    """A Huffman top tree (all its merge nodes marked) over A balanced x-leaf
    and B balanced (x+1)-leaf subtrees."""
    a, bb = subtree_counts(n, x)
    if not (1 <= x <= n and a >= 0 and bb >= 0):
        raise InvariantError(
            f"subtree counts out of range for N={n}, x={x}")
    sizes = [x] * a + [x + 1] * bb
    return _candidate(_huffman_structure([s / n for s in sizes]), sizes)


def expected_marked_log2(n: int, x: int) -> float:
    """Closed-form mean of X over values for the N >= 8 construction with
    parameter x: every leaf's marked mass is its subtree's total mass."""
    a, bb = subtree_counts(n, x)
    e = 0.0
    if a:
        e += a * x / n * math.log2(x / n)
    if bb:
        e += bb * (x + 1) / n * math.log2((x + 1) / n)
    return e


@functools.lru_cache(maxsize=None)
def _uniform_candidates(n: int):
    """(p_first, first, second) for a uniform domain of size N: the two
    candidates, each (tree, marks, xs), and the probability of the first
    that gives E[X] = eta*log2(1/N).  The width and mixture checks run once
    per N."""
    if n < 2:
        raise InvalidInstanceError("uniform tensorization needs N >= 2")
    target = UNIFORM_ETA * math.log2(1.0 / n)
    if n <= 7:
        first, second = _fixed_candidates(n)
        width_cap = math.log2(5.0 / 2.0) if n == 5 else 1.0
    else:
        r = int(math.floor(n ** (1.0 - UNIFORM_ETA)))
        if expected_marked_log2(n, r) >= target:
            xs_pair = (r - 1, r)
        else:
            xs_pair = (r, r + 1)
        first = _large_candidate(n, xs_pair[0])
        second = _large_candidate(n, xs_pair[1])
        width_cap = math.log2(3.0)
    for _, _, xs in (first, second):
        if max(xs) - min(xs) > width_cap + _WEIGHT_TOL:
            raise InvariantError("marked log-mass range exceeds its bound")
    e_first = math.fsum(first[2]) / n
    e_second = math.fsum(second[2]) / n
    if abs(e_first - e_second) < 1e-15:
        p_first = 1.0
    else:
        p_first = (e_second - target) / (e_second - e_first)
    if not -_WEIGHT_TOL <= p_first <= 1.0 + _WEIGHT_TOL:
        raise InvariantError(
            f"mixture probability {p_first} outside [0,1] for N={n}")
    return p_first, first, second


def uniform_randomized_tensorization(n: int, stream: TapeStream):
    """One random (tree, marked nodes, x) draw for a uniform domain of size
    N, with x[q] the marked log2-mass of value q's path.

    The construction mixes two deterministic candidates (one coin from the
    stream) and then assigns values to leaves by a uniform permutation, so
    that E[X(v,q)] = eta*log2(1/N) exactly for every value q.
    """
    p_first, first, second = _uniform_candidates(n)
    tree, marks, xs = first if stream.next_uniform() < p_first else second
    # Uniform leaf assignment: permute values over leaves (Fisher-Yates).
    # Both two-leaf candidates give their leaves equal masses, so N = 2
    # keeps its leaves' values and reads no deviate.
    perm = list(range(n))
    for i in range(n - 1 if n > 2 else 0, 0, -1):
        j = min(int(stream.next_uniform() * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    x = np.empty(n)
    x[perm] = xs
    leaf_value = {leaf: perm[old] for leaf, old in tree.leaf_value.items()}
    return TensorTree(tree.children, tree.weight, leaf_value), marks, x


def check_uniform_domains(csp: AtomicCsp) -> None:
    """Raise ``RegimeError`` unless every domain's weights are uniform: the
    uniform trees reproduce no other weights."""
    for spec in csp.flat.specs:
        if any(abs(w - 1.0 / spec.domain_size) > _WEIGHT_TOL
               for w in spec.weights):
            raise RegimeError("uniform tensorization needs uniform domains")


def _uniform_events(csp: AtomicCsp):
    """Deviation events of the uniform construction, as a ``violated`` over
    x, the marked log2-mass of each (variable, value): C's event holds when
    its entries' sum leaves [-(eta+tau1), -(eta-tau2)]*log2(1/p_C)."""
    flat = csp.flat
    log2_size = np.array([math.log2(s.domain_size) for s in flat.specs])
    l_c = constraint_sums(flat, log2_size[flat.entry_spec])
    lo = -(UNIFORM_ETA + UNIFORM_TAU1) * l_c - _WEIGHT_TOL
    hi = -(UNIFORM_ETA - UNIFORM_TAU2) * l_c + _WEIGHT_TOL

    def violated(x):
        s = constraint_sums(flat, x[flat.cons_vars, flat.cons_fals])
        return (s < lo) | (s > hi)

    return violated


def uniform_tensorize_with_marking(csp: AtomicCsp, seed: int = 0):
    """End-to-end randomized construction for uniform domains.

    Draws per-variable trees and marks, resamples variables of constraints
    whose marked falsifying log-mass deviates outside the
    [-(eta+tau1), -(eta-tau2)]*log2(1/p_C) window, then tensorizes and
    verifies the chain conditions.  Returns (TensorizedCsp, Marking).
    """
    if any(spec.domain_size < 2 for spec in csp.flat.specs):
        raise RegimeError("uniform tensorization needs domains >= 2 "
                          "(preprocess first)")
    check_uniform_domains(csp)
    check_necessary_bound(csp.measures)
    violated = _uniform_events(csp)
    for attempt in range(DEFAULT_RETRY_CAP):
        tape = RandomnessTape(derive_seed(seed, "tensor-uniform", attempt))
        streams = [tape.stream(v, LABEL_TENSOR) for v in range(csp.num_vars)]
        draws = [None] * csp.num_vars

        def sample(vs):
            x = np.zeros((len(vs), csp.measures.q))
            for i, v in enumerate(vs.tolist()):
                draws[v] = uniform_randomized_tensorization(
                    csp.vars[v].domain_size, streams[v])
                x[i, :len(draws[v][2])] = draws[v][2]
            return x

        try:
            moser_tardos(csp, sample, violated)
        except ConstructionFailedError:
            continue
        tensorized = tensorize(csp, [t for t, _, _ in draws])
        marking = global_marking(tensorized, [m for _, m, _ in draws])
        if check_theorem_conditions(tensorized.base, marking).passed:
            return tensorized, marking
    raise ConstructionFailedError(
        f"uniform tensorization failed after {DEFAULT_RETRY_CAP} attempts")


def verify_numeric_facts(eta: float = UNIFORM_ETA, tau1: float = UNIFORM_TAU1,
                         tau2: float = UNIFORM_TAU2,
                         zeta: float = UNIFORM_ZETA) -> dict:
    """Check the fixed numeric constants of the uniform construction.

    Returns a report mapping check names to booleans (plus the computed
    quantities); failures are data, not exceptions.
    """
    t1 = math.log((1.0 - eta) * (eta + tau1) / (eta * (1.0 - eta - tau1)))
    t2 = math.log(eta * (1.0 - eta + tau2) / ((1.0 - eta) * (eta - tau2)))
    kl1 = kl_divergence(eta + tau1, eta)
    kl2 = kl_divergence(eta - tau2, eta)
    report = {
        "t1": t1,
        "t2": t2,
        "t1_in_range": 1.1659 <= t1 <= 1.1660,
        "t2_in_range": 1.0035 <= t2 <= 1.0036,
    }
    # Sub-gaussian margin inequalities at their binding points: range width
    # log2(3) for x >= 8, width 1 for x in {3,4,6,7}, width log2(5/2) at 5.
    for name, (width, x) in {
        "wide": (math.log2(3.0), 8.0),
        "unit": (1.0, 3.0),
        "five": (math.log2(5.0 / 2.0), 5.0),
    }.items():
        for side, (tau, t, kl) in {"1": (tau1, t1, kl1),
                                   "2": (tau2, t2, kl2)}.items():
            lhs = width * width * t * t / 8.0
            rhs = (tau * t - kl / math.log2(math.e)) * math.log2(x)
            report[f"margin_{name}_{side}"] = lhs <= rhs
    # Subtree counts stay admissible for every N the large case may pick.
    counts_ok = True
    for n in range(8, 18):
        r = int(math.floor(n ** (1.0 - eta)))
        for x in (r - 1, r, r + 1):
            a, b = subtree_counts(n, x)
            if not (1 <= x <= n and a >= 0 and b >= 0):
                counts_ok = False
    report["subtree_counts_ok"] = counts_ok
    gamma = min(1.0 - eta - tau1, (eta - tau2 - 3.0 * zeta) / 2.0, kl1, kl2)
    report["gamma"] = gamma
    report["gamma_ge_0175"] = gamma >= UNIFORM_GAMMA
    report["all_passed"] = all(v for k, v in report.items()
                               if isinstance(v, bool))
    return report
