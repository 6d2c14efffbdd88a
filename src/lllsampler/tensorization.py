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
import math
from dataclasses import dataclass, field

from .core import AtomicConstraint, AtomicCsp, VariableSpec
from .errors import (ConstructionFailedError, InvalidInstanceError,
                     InvariantError, RegimeError)
from .kernels import LABEL_TENSOR, RandomnessTape, TapeStream, derive_seed
from .marking import (DEFAULT_RETRY_CAP, Marking, UNIFORM_ETA, UNIFORM_GAMMA,
                      UNIFORM_TAU1, UNIFORM_TAU2, UNIFORM_ZETA,
                      check_theorem_conditions, kl_divergence, moser_tardos)

_LEAF_PRODUCT_TOL = 1e-12
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
            wsum = sum(self.weight[c] for c in ch)
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


def huffman_tensorize(pmf) -> TensorTree:
    """Binary tree over a pmf built by repeatedly merging the two minimum
    masses; every sibling weight ratio is at most max(kappa, 2)."""
    pmf = list(pmf)
    if not pmf:
        raise InvalidInstanceError("empty pmf")
    if any(w <= 0.0 for w in pmf) or abs(sum(pmf) - 1.0) > _WEIGHT_TOL:
        raise InvalidInstanceError("pmf must be positive and sum to 1")
    b = _TreeBuilder()
    if len(pmf) == 1:
        leaf = b.add(0, 1.0)
        return b.build({leaf: 0})
    struct = _huffman_structure(pmf)
    leaf_values = {}

    def attach(node, struct):
        if isinstance(struct, int):
            leaf_values[node] = struct
            return
        l, r = struct
        ml = _struct_mass(l, pmf)
        mr = _struct_mass(r, pmf)
        tot = ml + mr
        attach(b.add(node, ml / tot), l)
        attach(b.add(node, mr / tot), r)

    attach(0, struct)
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
    pmf = edge weights).  ``node_of[v]`` maps variable v's local internal node
    ids to global indices; ``var_of[z]`` gives (v, local node) back.
    """

    base: AtomicCsp
    original: AtomicCsp = field(compare=False)
    trees: tuple[TensorTree, ...]
    node_of: tuple[dict, ...] = field(hash=False)
    var_of: tuple[tuple[int, int], ...]


def tensorize(csp: AtomicCsp, trees) -> TensorizedCsp:
    """Build the tensorized CSP from one tree per variable.

    Each constraint keeps its identity: its falsifying assignment becomes the
    chosen-child indices along the falsifying values' root-to-leaf paths.
    """
    trees = tuple(trees)
    if len(trees) != csp.num_vars:
        raise InvalidInstanceError("need one tree per variable")
    for v, tree in enumerate(trees):
        spec = csp.vars[v]
        if tree.num_values != spec.domain_size:
            raise InvalidInstanceError(f"tree {v} has the wrong leaf count")
        for q in range(spec.domain_size):
            if abs(tree.leaf_product(q) - spec.weights[q]) > _WEIGHT_TOL:
                raise InvalidInstanceError(
                    f"tree {v} does not reproduce the weight of value {q}")
    node_of = []
    var_of = []
    zvars = []
    spec_of = {}  # one shared spec per distinct node pmf
    for v, tree in enumerate(trees):
        local = {}
        for z in tree.internal_nodes():
            local[z] = len(zvars)
            var_of.append((v, z))
            ws = [tree.weight[c] for c in tree.children[z]]
            s = sum(ws)
            pmf = tuple(w / s for w in ws)
            if pmf not in spec_of:
                spec_of[pmf] = VariableSpec(len(pmf), pmf)
            zvars.append(spec_of[pmf])
        node_of.append(local)
    cons = []
    for c in csp.constraints:
        vbl = []
        fals = []
        for v, q in zip(c.vbl, c.falsifying):
            for z, ci in trees[v].path(q):
                vbl.append(node_of[v][z])
                fals.append(ci)
        cons.append(AtomicConstraint(tuple(vbl), tuple(fals)))
    base = AtomicCsp(zvars, cons)
    out = TensorizedCsp(base, csp, trees, tuple(node_of), tuple(var_of))
    _check_preservation(out)
    return out


def _check_preservation(t: TensorizedCsp) -> None:
    """Constraint count, Delta, d and per-constraint falsifying probability
    are invariant under tensorization; node count is at most Q*|V|."""
    if len(t.base.constraints) != len(t.original.constraints):
        raise InvariantError("tensorization changed the constraint count")
    mo = t.original.measures
    mt = t.base.measures
    if (mt.d, mt.delta) != (mo.d, mo.delta):
        raise InvariantError("tensorization changed d or Delta")
    if t.base.num_vars > mo.q * t.original.num_vars:
        raise InvariantError("tensorization exceeded the Q|V| node bound")
    for co, ct in zip(t.original.constraints, t.base.constraints):
        po = math.fsum(t.original.vars[v].log_weights[q]
                       for v, q in zip(co.vbl, co.falsifying))
        pt = math.fsum(t.base.vars[z].log_weights[ci]
                       for z, ci in zip(ct.vbl, ct.falsifying))
        if abs(po - pt) > 1e-9:
            raise InvariantError(
                "tensorization changed a falsifying probability")


def trans(tensorized: TensorizedCsp, sigma_tensor) -> list[int]:
    """Read a full tensor assignment back to original-domain values by
    root-to-leaf descent in every variable's tree."""
    out = []
    for v, tree in enumerate(tensorized.trees):
        z = 0
        while tree.children[z]:
            ci = (0 if len(tree.children[z]) == 1
                  else sigma_tensor[tensorized.node_of[v][z]])
            z = tree.children[z][ci]
        out.append(tree.leaf_value[z])
    return out


def global_marking(tensorized: TensorizedCsp, per_var_marks) -> Marking:
    """Lift per-variable local node mark sets to a marking over the
    tensorized variable set."""
    marked = [False] * tensorized.base.num_vars
    for v, local in enumerate(per_var_marks):
        for z in local:
            marked[tensorized.node_of[v][z]] = True
    return Marking(tuple(marked))


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
        total = sum(s for s, _ in shape)
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
    struct = _huffman_structure(masses)
    b = _TreeBuilder()
    marks = set()

    def attach(node, struct):
        if isinstance(struct, int):
            _balanced(b, node, sizes[struct])
            return
        marks.add(node)
        l, r = struct
        ml = _struct_mass(l, masses)
        mr = _struct_mass(r, masses)
        tot = ml + mr
        attach(b.add(node, ml / tot), l)
        attach(b.add(node, mr / tot), r)

    attach(0, struct)
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


def uniform_tensorize_with_marking(csp: AtomicCsp, seed: int = 0,
                                   retry_cap: int = DEFAULT_RETRY_CAP,
                                   check_regime: bool = True):
    """End-to-end randomized construction for uniform domains.

    Draws per-variable trees and marks, resamples variables of constraints
    whose marked falsifying log-mass deviates outside the
    [-(eta+tau1), -(eta-tau2)]*log2(1/p_C) window, then tensorizes and
    verifies the chain conditions.  Returns (TensorizedCsp, Marking).
    """
    for spec in csp.vars:
        if spec.domain_size < 2:
            raise RegimeError("uniform tensorization needs domains >= 2 "
                              "(preprocess first)")
        if any(abs(w - 1.0 / spec.domain_size) > _WEIGHT_TOL
               for w in spec.weights):
            raise RegimeError("uniform tensorization needs uniform domains")
    meas = csp.measures
    if check_regime and csp.constraints and (
            UNIFORM_GAMMA * meas.log_p
            + math.log(max(meas.delta, 1)) > math.log(1e-7)):
        raise RegimeError(
            f"regime p^0.175*Delta <= 1e-7 fails: ln p={meas.log_p:.4f} "
            f"Delta={meas.delta}")

    events = []
    for c in csp.constraints:
        l_c = math.fsum(math.log2(csp.vars[v].domain_size) for v in c.vbl)
        lo = -(UNIFORM_ETA + UNIFORM_TAU1) * l_c
        hi = -(UNIFORM_ETA - UNIFORM_TAU2) * l_c

        def pred(cons, c=c, lo=lo, hi=hi):
            s = math.fsum(
                marked_path_log2(cons[v][0], cons[v][1], q)
                for v, q in zip(c.vbl, c.falsifying))
            return s < lo - _WEIGHT_TOL or s > hi + _WEIGHT_TOL

        events.append((c.vbl, pred))

    for attempt in range(retry_cap):
        tape = RandomnessTape(derive_seed(seed, "tensor-uniform", attempt))
        streams = [tape.stream(v, LABEL_TENSOR) for v in range(csp.num_vars)]

        def sample_var(v, _stream):
            return uniform_randomized_tensorization(
                csp.vars[v].domain_size, streams[v])

        try:
            cons = moser_tardos(csp.num_vars, sample_var, events, None)
        except ConstructionFailedError:
            continue
        tensorized = tensorize(csp, [t for t, _ in cons])
        marking = global_marking(tensorized, [m for _, m in cons])
        if check_theorem_conditions(tensorized.base, marking).passed:
            return tensorized, marking
    raise ConstructionFailedError(
        f"uniform tensorization failed after {retry_cap} attempts")


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
