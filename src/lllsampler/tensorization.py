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
from dataclasses import dataclass, field

import numpy as np

from .core import AtomicCsp, VariableSpec, constraint_sums, left_sum
from .errors import (ConstructionFailedError, InvalidInstanceError,
                     InvariantError, RegimeError)
from .kernels import LABEL_TENSOR, RandomnessTape, TapeStream, derive_seed
from .marking import (DEFAULT_RETRY_CAP, Marking, UNIFORM_ETA, UNIFORM_GAMMA,
                      UNIFORM_TAU1, UNIFORM_TAU2, UNIFORM_ZETA,
                      check_theorem_conditions, check_uniform_regime,
                      kl_divergence, moser_tardos)

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class TensorTree:
    """A rooted tree over node ids 0..n-1 (root = 0) with edge weights.

    ``children[z]`` lists z's children in order; leaves have none.
    ``weight[z]`` is the weight of the edge from z's parent (1.0 at the root).
    ``leaf_value`` maps leaf ids to domain values, bijectively.
    """

    children: tuple[tuple[int, ...], ...]
    weight: tuple[float, ...]
    leaf_value: dict[int, int] = field(hash=False)

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

    def leaf_product(self, q: int) -> float:
        prod = 1.0
        for z, ci in self.path(q):
            prod *= self.weight[self.children[z][ci]]
        return prod

    def depth(self) -> int:
        def rec(z):
            ch = self.children[z]
            return 0 if not ch else 1 + max(rec(c) for c in ch)
        return rec(0)

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

        def rec(z, depth):
            kind = "leaf" if not self.children[z] else "node"
            tag = " *" if z in marks else ""
            val = (f" value={self.leaf_value[z]}"
                   if z in self.leaf_value else "")
            lines.append(f"{'  ' * depth}{kind} {z} w={self.weight[z]:.12g}"
                         f"{val}{tag}")
            for c in self.children[z]:
                rec(c, depth + 1)

        rec(0, 0)
        return "\n".join(lines)


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

        def rec(z):
            if not self.children[z]:
                out.append(z)
            for c in self.children[z]:
                rec(c)

        rec(0)
        return out

    def build(self, leaf_values: dict[int, int]) -> TensorTree:
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
    input item index and a pair is a merge; ties break on lowest creation
    index, so the result is deterministic."""
    heap = [(m, i, i) for i, m in enumerate(masses)]
    heapq.heapify(heap)
    next_id = len(masses)
    while len(heap) > 1:
        m1, _, s1 = heapq.heappop(heap)
        m2, _, s2 = heapq.heappop(heap)
        heapq.heappush(heap, (m1 + m2, next_id, (s1, s2)))
        next_id += 1
    return heap[0][2]


def _struct_mass(struct, masses):
    if isinstance(struct, int):
        return masses[struct]
    return _struct_mass(struct[0], masses) + _struct_mass(struct[1], masses)


def _attach(b: _TreeBuilder, node: int, struct, masses, marks,
            leaf) -> None:
    """Grow a ``_huffman_structure`` under ``node``, depth first: each merge
    node goes into ``marks`` and gets one child per side, weighted by the
    sides' masses; each input index i at a node goes to ``leaf(node, i)``."""
    if isinstance(struct, int):
        leaf(node, struct)
        return
    marks.add(node)
    l, r = struct
    ml = _struct_mass(l, masses)
    mr = _struct_mass(r, masses)
    tot = ml + mr
    _attach(b, b.add(node, ml / tot), l, masses, marks, leaf)
    _attach(b, b.add(node, mr / tot), r, masses, marks, leaf)


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
        leaf = b.add(0, 1.0)
        return b.build({leaf: 0})
    leaf_values = {}
    _attach(b, 0, _huffman_structure(pmf), pmf, set(),
            leaf_values.__setitem__)
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
    ``first_node[v]`` on: variable v's local internal node z is node
    variable ``first_node[v] + node_rank[var_root[v] + z]``.

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
    distinct = list({id(t): t for t in trees}.values())
    # each (tree, spec) pair checked once, at its first variable
    _, first = np.unique(tree_of * len(flat.specs) + flat.spec_of,
                         return_index=True)
    for v in np.sort(first).tolist():
        tree, spec = trees[v], csp.vars[v]
        if tree.num_values != spec.domain_size:
            raise InvalidInstanceError(f"tree {v} has the wrong leaf count")
        for q in range(spec.domain_size):
            if abs(tree.leaf_product(q) - spec.weights[q]) > _WEIGHT_TOL:
                raise InvalidInstanceError(
                    f"tree {v} does not reproduce the weight of value {q}")
    # per distinct tree: its internal nodes, their specs (one shared spec
    # per distinct node pmf), its rows of the path table (per value q, the
    # length of q's root-to-leaf path and its (node rank, child index)
    # pairs), and its rows of the back-map tables
    sizes = np.array([len(t.children) for t in distinct], dtype=np.int64)
    node_base = np.cumsum(sizes) - sizes
    width = max((len(ch) for t in distinct for ch in t.children), default=1)
    node_child, node_value, node_rank = [], [], []
    spec_of = {}
    internal, node_specs, path_len, path_rank, path_child = [], [], [], [], []
    for tree, b in zip(distinct, node_base.tolist()):
        nodes = tree.internal_nodes()
        specs = []
        for z in nodes:
            ws = [tree.weight[c] for c in tree.children[z]]
            s = left_sum(ws)
            pmf = tuple(w / s for w in ws)
            if pmf not in spec_of:
                spec_of[pmf] = VariableSpec(len(pmf), pmf)
            specs.append(spec_of[pmf])
        rank = {z: r for r, z in enumerate(nodes)}
        for q in range(tree.num_values):
            path = tree.path(q)
            path_len.append(len(path))
            path_rank += [rank[z] for z, _ in path]
            path_child += [ci for _, ci in path]
        internal.append(nodes)
        node_specs.append(specs)
        for z, ch in enumerate(tree.children):
            row = [b + c for c in ch] or [b + z]
            node_child.append(row + row[-1:] * (width - len(row)))
            node_value.append(tree.leaf_value.get(z, -1))
            node_rank.append(rank.get(z, 0))
    # node variables: each variable's internal nodes in turn
    counts = np.array([len(nodes) for nodes in internal], dtype=np.int64)
    first_node = np.cumsum(counts[tree_of]) - counts[tree_of]
    zvars = list(itertools.chain.from_iterable(
        node_specs[g] for g in tree_of.tolist()))
    # each entry (v, q) becomes, in place, the run of table rows of q's
    # path in v's tree
    path_len = np.array(path_len, dtype=np.int64)
    path_start = np.cumsum(path_len) - path_len
    num_values = np.array([t.num_values for t in distinct], dtype=np.int64)
    row = ((np.cumsum(num_values) - num_values)[tree_of[flat.cons_vars]]
           + flat.cons_fals)
    length = path_len[row]
    ends = np.append(0, np.cumsum(length))
    src = np.arange(ends[-1]) + np.repeat(path_start[row] - ends[:-1], length)
    entry = np.repeat(np.arange(len(length)), length)
    base = AtomicCsp(
        zvars,
        first_node[flat.cons_vars[entry]]
        + np.array(path_rank, dtype=np.int64)[src],
        np.array(path_child, dtype=np.int64)[src],
        ends[flat.starts + flat.arity] - ends[flat.starts])
    out = TensorizedCsp(
        base, csp, trees, np.minimum(first_node, max(len(zvars) - 1, 0)),
        node_base[tree_of],
        np.array(node_child, dtype=np.int64).reshape(-1, max(width, 1)),
        np.array(node_value, dtype=np.int64),
        np.array(node_rank, dtype=np.int64), int(path_len.max(initial=0)))
    _check_preservation(out)
    return out


def _check_preservation(t: TensorizedCsp) -> None:
    """Constraint count, Delta, d and per-constraint falsifying probability
    are invariant under tensorization; node count is at most Q*|V|."""
    fo, ft = t.original.flat, t.base.flat
    if len(ft.arity) != len(fo.arity):
        raise InvariantError("tensorization changed the constraint count")
    mo = t.original.measures
    mt = t.base.measures
    if (mt.d, mt.delta) != (mo.d, mo.delta):
        raise InvariantError("tensorization changed d or Delta")
    if t.base.num_vars > mo.q * t.original.num_vars:
        raise InvariantError("tensorization exceeded the Q|V| node bound")
    po = constraint_sums(fo, fo.log_w)
    pt = constraint_sums(ft, ft.log_w)
    if (np.abs(po - pt) > 1e-9).any():
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
    t = tensorized
    mask = np.zeros(t.base.num_vars, dtype=bool)
    for v, local in enumerate(per_var_marks):
        z = np.fromiter(local, np.int64, len(local))
        mask[t.first_node[v] + t.node_rank[t.var_root[v] + z]] = True
    return Marking(mask)


def marked_path_log2(tree: TensorTree, marks, q: int) -> float:
    """Sum of log2 edge weights at the marked nodes on value q's path; the
    per-variable contribution to a constraint's marked falsifying mass."""
    s = 0.0
    for z, ci in tree.path(q):
        if z in marks:
            s += math.log2(tree.weight[tree.children[z][ci]])
    return s


def complete_binary_tensorize_with_marking(q_colors: int, k: int):
    """Balanced binary tree template over a uniform domain of size Q with the
    deep internal levels marked.

    Returns (tree, marked node ids, certified bounds).  With D = ceil(log2 Q)
    and R = floor((2/3) log2 Q), internal nodes at level >= R are marked; the
    marked path mass is at most 4/Q^(1/3) and the unmarked path mass at most
    8/Q^(2/3) for every value, giving closed-form alpha/lambda bounds for
    k-ary monochromatic constraints.
    """
    if q_colors < 5:
        raise RegimeError("complete binary tensorization requires Q >= 5")
    b = _TreeBuilder()
    _balanced(b, 0, q_colors)
    tree = b.build({leaf: i for i, leaf in enumerate(b.leaves())})
    depth = tree.depth()
    if depth != math.ceil(math.log2(q_colors)):
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
    bounds = {
        "log2_alpha_bound": k * (math.log2(4.0) - math.log2(q_colors) / 3.0),
        "log2_lambda_bound": (math.log2(4.0 * k * k * depth * depth)
                              + k * (math.log2(8.0)
                                     - 2.0 * math.log2(q_colors) / 3.0)),
        "depth": depth,
        "marked_level": r_level,
    }
    return tree, marks, bounds


def coloring_regime_ok(q_colors: int, k: int, max_edge_degree: int) -> bool:
    """Q >= 5 and Delta(H) <= (Q^(1/3)/4)^k / (40 k Q log2 Q)."""
    if q_colors < 5:
        return False
    log_bound = (k * (math.log2(q_colors) / 3.0 - 2.0)
                 - math.log2(40.0 * k * q_colors * math.log2(q_colors)))
    return math.log2(max(max_edge_degree, 1)) <= log_bound


# ---------------------------------------------------------------------------
# Randomized tensorization for uniform domains.
#
# Each variable's tree and internal-node marks are drawn so that the marked
# log-mass X(v, q) has mean eta*log2(1/N) for every value q and a small range,
# making the per-constraint deviation bounds of the binary case carry over.


def _candidate(shape, marks):
    """shape: int n for a balanced n-leaf tree, or a pair of (size, shape)
    children of the root.  marks: node ids under the builder's creation
    order."""
    b = _TreeBuilder()
    if isinstance(shape, int):
        _balanced(b, 0, shape)
    else:
        total = left_sum(s for s, _ in shape)
        for size, sub in shape:
            node = b.add(0, size / total)
            if isinstance(sub, int):
                _balanced(b, node, sub)
    leaves = b.leaves()
    tree = b.build({leaf: i for i, leaf in enumerate(leaves)})
    xs = [marked_path_log2(tree, marks, q) for q in range(len(leaves))]
    return tree, frozenset(marks), xs


@functools.lru_cache(maxsize=None)
def _fixed_candidates(n: int):
    """The two fixed (tree, marks) pairs for 3 <= N <= 7.  Node ids follow
    the builder's creation order (root 0, then depth-first)."""
    if n == 3:
        return [_candidate(3, {0, 1}), _candidate(3, {0})]
    if n == 4:
        return [_candidate(4, {0}), _candidate(4, {0, 1, 2})]
    if n == 5:
        return [_candidate(5, {0, 1}), _candidate(5, {1, 2, 3})]
    if n == 6:
        return [_candidate(((4, 4), (2, 2)), {0, 1}), _candidate(6, {0})]
    if n == 7:
        return [_candidate(7, {0, 1}), _candidate(7, {1, 2, 3, 4, 9})]
    raise InvariantError("no fixed candidates for this size")


def subtree_counts(n: int, x: int) -> tuple[int, int]:
    """(A, B): how many x-leaf and (x+1)-leaf subtrees partition n leaves
    using floor(n/x) subtrees in total."""
    nsub = n // x
    return nsub * (x + 1) - n, n - nsub * x


@functools.lru_cache(maxsize=None)
def _large_candidate(n: int, x: int):
    """A Huffman top tree (all its merge nodes marked) over A balanced x-leaf
    and B balanced (x+1)-leaf subtrees."""
    a, bb = subtree_counts(n, x)
    if not (1 <= x <= n and a >= 0 and bb >= 0):
        raise InvariantError(
            f"subtree counts out of range for N={n}, x={x}")
    sizes = [x] * a + [x + 1] * bb
    masses = [s / n for s in sizes]
    b = _TreeBuilder()
    marks = set()
    _attach(b, 0, _huffman_structure(masses), masses, marks,
            lambda node, i: _balanced(b, node, sizes[i]))
    # number leaves left to right; the caller permutes values anyway
    leaf_values = {leaf: i for i, leaf in enumerate(b.leaves())}
    tree = b.build(leaf_values)
    xs = [marked_path_log2(tree, marks, q) for q in range(n)]
    return tree, frozenset(marks), xs


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


def uniform_randomized_tensorization(n: int, stream: TapeStream):
    """One random (tree, marked nodes) draw for a uniform domain of size N.

    The construction mixes two deterministic candidates (one coin from the
    stream) and then assigns values to leaves by a uniform permutation, so
    that E[X(v,q)] = eta*log2(1/N) exactly for every value q.
    """
    if n < 2:
        raise InvalidInstanceError("uniform tensorization needs N >= 2")
    if n == 2:
        b = _TreeBuilder()
        _balanced(b, 0, 2)
        tree = b.build({leaf: i for i, leaf in enumerate(b.leaves())})
        marks = frozenset({0}) if stream.next_uniform() < UNIFORM_ETA \
            else frozenset()
        return tree, marks
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
    tree, marks, _ = first if stream.next_uniform() < p_first else second
    # Uniform leaf assignment: permute values over leaves (Fisher-Yates).
    perm = list(range(n))
    for i in range(n - 1, 0, -1):
        j = min(int(stream.next_uniform() * (i + 1)), i)
        perm[i], perm[j] = perm[j], perm[i]
    leaf_value = {leaf: perm[old] for leaf, old in tree.leaf_value.items()}
    return TensorTree(tree.children, tree.weight, leaf_value), marks


def check_uniform_domains(csp: AtomicCsp) -> None:
    """Raise ``RegimeError`` unless every domain's weights are uniform: the
    uniform trees reproduce no other weights."""
    for spec in csp.flat.specs:
        if any(abs(w - 1.0 / spec.domain_size) > _WEIGHT_TOL
               for w in spec.weights):
            raise RegimeError("uniform tensorization needs uniform domains")


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
    check_uniform_regime(csp.measures)
    flat = csp.flat
    vs, qs = flat.cons_vars.tolist(), flat.cons_fals.tolist()
    windows = []  # (entries, lo, hi), the tolerance included
    for a, b in flat.spans():
        l_c = math.fsum(math.log2(csp.vars[v].domain_size) for v in vs[a:b])
        windows.append((list(zip(vs[a:b], qs[a:b])),
                        -(UNIFORM_ETA + UNIFORM_TAU1) * l_c - _WEIGHT_TOL,
                        -(UNIFORM_ETA - UNIFORM_TAU2) * l_c + _WEIGHT_TOL))

    def violated(cons):
        return np.array([not lo <= math.fsum(
            marked_path_log2(*cons[v], q) for v, q in entries) <= hi
            for entries, lo, hi in windows])

    for attempt in range(DEFAULT_RETRY_CAP):
        tape = RandomnessTape(derive_seed(seed, "tensor-uniform", attempt))
        streams = [tape.stream(v, LABEL_TENSOR) for v in range(csp.num_vars)]

        def sample(vs):
            out = np.empty(len(vs), dtype=object)
            for i, v in enumerate(vs.tolist()):
                out[i] = uniform_randomized_tensorization(
                    csp.vars[v].domain_size, streams[v])
            return out

        try:
            cons = moser_tardos(csp, sample, violated)
        except ConstructionFailedError:
            continue
        tensorized = tensorize(csp, [t for t, _ in cons])
        marking = global_marking(tensorized, [m for _, m in cons])
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
