import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lllsampler import (HypergraphInstance, InvalidInstanceError, Marking,
                        RegimeError, TensorTree, VariableSpec,
                        build_coloring, compute_measures, huffman_tensorize,
                        tensorize, trans)
from lllsampler.cli import PipelineConfig, prepare_pipeline
from lllsampler.kernels import LABEL_TENSOR, RandomnessTape
from lllsampler.marking import UNIFORM_ETA, UNIFORM_TAU1, UNIFORM_TAU2
from lllsampler.tensorization import (
    complete_binary_tensorize_with_marking, expected_marked_log2,
    global_marking, marked_path_log2, subtree_counts,
    uniform_randomized_tensorization, uniform_tensorize_with_marking,
    verify_numeric_facts, _large_candidate)
from lllsampler.verify import enumerate_law, tv_distance
from lllsampler.marking import check_necessary_bound, check_theorem_conditions

from conftest import (constraint_pairs, counted_measures, csp_of, mixed_csp,
                      random_weighted_csp)


def checked_tensorize(csp, trees):
    """``tensorize``, with the base's measures checked against counted ones.
    When every constrained variable's root is an internal node, the base's
    d and Delta are the original's: every path starts at its root."""
    t = tensorize(csp, trees)
    counted = counted_measures(t.base)
    assert t.base.measures == counted
    if all(trees[v].children[0] for v in csp.flat.cons_vars.tolist()):
        original = counted_measures(csp)
        assert (counted.d, counted.delta) == (original.d, original.delta)
    return t


def test_huffman_reproduces_pmf():
    pmf = (1 / 6, 1 / 6, 1 / 6, 1 / 10, 1 / 10, 3 / 10)
    tree = huffman_tensorize(pmf)
    assert tree.num_values == 6
    for q, w in enumerate(pmf):
        assert tree.leaf_product(q) == pytest.approx(w, abs=1e-12)


def test_huffman_trivial_and_invalid():
    tree = huffman_tensorize((1.0,))
    assert tree.num_values == 1 and tree.depth() == 1
    with pytest.raises(InvalidInstanceError):
        huffman_tensorize(())
    with pytest.raises(InvalidInstanceError):
        huffman_tensorize((0.5, 0.6))


def test_huffman_depth_999():
    # halving masses give a chain with one leaf per level, far deeper than
    # the interpreter's recursion limit allows a recursive walk
    pmf = [2.0 ** -(i + 1) for i in range(999)] + [2.0 ** -999]
    tree = huffman_tensorize(pmf)
    assert tree.depth() == 999
    for q in (0, 500, 999):
        assert tree.leaf_product(q) == pmf[q]
        assert len(tree.path(q)) == min(q + 1, 999)
    lines = tree.dump().splitlines()
    assert len(lines) == 1999
    assert lines[-1].startswith(" " * 2 * 999 + "leaf")


@given(st.lists(st.floats(0.05, 1.0), min_size=2, max_size=8))
def test_huffman_random_pmfs(raw):
    total = sum(raw)
    pmf = tuple(w / total for w in raw)
    tree = huffman_tensorize(pmf)
    for q, w in enumerate(pmf):
        assert tree.leaf_product(q) == pytest.approx(w, abs=1e-9)


def test_tree_validation():
    with pytest.raises(InvalidInstanceError):
        TensorTree(((1, 2), (), ()), (1.0, 0.5, 0.6), {1: 0, 2: 1})
    with pytest.raises(InvalidInstanceError):
        TensorTree(((1, 2), (), ()), (1.0, 0.5, 0.5), {1: 0, 2: 2})


def test_tensorize_preserves_law():
    csp = mixed_csp()
    trees = [huffman_tensorize(s.weights) for s in csp.vars]
    tz = checked_tensorize(csp, trees)
    # identical measures where promised
    mo, mt = compute_measures(csp), compute_measures(tz.base)
    assert (mt.d, mt.delta) == (mo.d, mo.delta)
    assert mt.log_p == pytest.approx(mo.log_p)
    # pushforward of the tensorized law under trans equals the original law
    law_t = enumerate_law(tz.base)
    pushed = {}
    for outcome, p in zip(law_t.support, law_t.pmf):
        key = tuple(trans(tz, list(outcome)))
        pushed[key] = pushed.get(key, 0.0) + p
    law_o = enumerate_law(csp)
    assert tv_distance(pushed, law_o.as_dict()) < 1e-12


def test_tensorize_shares_equal_node_specs():
    csp = csp_of([VariableSpec.uniform(4), VariableSpec(2, (0.3, 0.7)),
                  VariableSpec(3, (0.5, 0.25, 0.25))],
                 [((0, 1, 2), (0, 0, 0))])
    tz = checked_tensorize(csp, [huffman_tensorize(s.weights) for s in csp.vars])
    specs = tz.base.vars
    assert len(specs) == 6
    # every node splits evenly except the (0.3, 0.7) one
    assert len({id(s) for s in specs}) == 2
    assert all((a == b) == (a is b) for a in specs for b in specs)


def node_index(tensorized, v, z):
    """The node variable of variable v's local internal node z."""
    t = tensorized
    return int(t.first_node[v] + t.node_rank[t.var_root[v] + z])


def reference_tensorize(csp, trees):
    """Node numbering and constraints of the tensorized instance, one
    constraint at a time: each entry (v, q) becomes q's root-to-leaf path
    in v's tree."""
    node_of, first = [], 0
    for tree in trees:
        node_of.append({z: first + r
                        for r, z in enumerate(tree.internal_nodes())})
        first += len(node_of[-1])
    cons = []
    for vbl, fals in constraint_pairs(csp):
        pairs = [(node_of[v][z], ci) for v, q in zip(vbl, fals)
                 for z, ci in trees[v].path(q)]
        cons.append((tuple(v for v, _ in pairs), tuple(q for _, q in pairs)))
    return node_of, cons


def test_tensorize_matches_reference():
    # shared and distinct tree objects, of one size or several
    rng = random.Random(4)
    for i in range(60):
        csp = random_weighted_csp(rng)
        if i % 2:
            vars = [VariableSpec.uniform(rng.randint(2, 9))
                    for _ in csp.vars]
            csp = csp_of(vars, [
                (vbl, tuple(rng.randrange(
                    vars[v].domain_size) for v in vbl))
                for vbl, _ in constraint_pairs(csp)])
            tape = RandomnessTape(i)
            trees = [uniform_randomized_tensorization(
                s.domain_size, tape.stream(v, LABEL_TENSOR))[0]
                for v, s in enumerate(vars)]
            trees = [trees[vars.index(s)] if rng.random() < 0.3 else t
                     for t, s in zip(trees, vars)]
        else:
            trees = [huffman_tensorize(s.weights) for s in csp.vars]
        t = checked_tensorize(csp, trees)
        node_of, cons = reference_tensorize(csp, trees)
        assert [{z: node_index(t, v, z) for z in local}
                for v, local in enumerate(node_of)] == node_of
        assert constraint_pairs(t.base) == cons


def test_trans_on_trivial_binary_trees():
    csp = csp_of([VariableSpec(2, (0.3, 0.7)) for _ in range(3)],
                 [((0, 1, 2), (0, 0, 0))])
    tz = checked_tensorize(csp, [huffman_tensorize(s.weights) for s in csp.vars])
    assert tz.base.num_vars == 3
    for bits in ((0, 0, 1), (1, 1, 0)):
        assert trans(tz, list(bits)).tolist() == list(bits)


def reference_trans(tensorized, sigma_tensor):
    """Root-to-leaf descent in every variable's tree, one variable and one
    node at a time."""
    out = []
    for v, tree in enumerate(tensorized.trees):
        z = 0
        while tree.children[z]:
            ci = (0 if len(tree.children[z]) == 1
                  else sigma_tensor[node_index(tensorized, v, z)])
            z = tree.children[z][ci]
        out.append(tree.leaf_value[z])
    return out


def test_trans_matches_per_variable_descent():
    rng = random.Random(6)
    tape = RandomnessTape(6)
    coloring = {q: complete_binary_tensorize_with_marking(q)[0]
                for q in (5, 12, 256)}
    one = VariableSpec(1, (1.0,))
    single_node = TensorTree(((),), (1.0,), {0: 0})

    # (spec, tree) pairs of one kind each
    def complete_binary():
        q = rng.choice(sorted(coloring))
        return VariableSpec.uniform(q), coloring[q]

    def huffman():
        # halving masses give leaves at every depth
        d = rng.randint(2, 7)
        pmf = tuple([2.0 ** -(i + 1) for i in range(d - 1)] + [2.0 ** (1 - d)])
        return VariableSpec(d, pmf), huffman_tensorize(pmf)

    def uniform():
        n = rng.randint(2, 17)
        tree, _, _ = uniform_randomized_tensorization(
            n, tape.stream(rng.randrange(1 << 30), LABEL_TENSOR))
        return VariableSpec.uniform(n), tree

    kinds = {
        "coloring": complete_binary,
        "huffman": huffman,
        "uniform": uniform,
        "domain1": lambda: (one, huffman_tensorize((1.0,))),
    }
    # instances of one kind, then instances that mix the kinds and end
    # with a one-node tree, whose variable has no node variable
    instances = [[kinds[k]() for _ in range(rng.randint(1, 6))]
                 for k in kinds for _ in range(5)]
    for _ in range(10):
        mix = [kinds[rng.choice(sorted(kinds))]()
               for _ in range(rng.randint(2, 12))]
        instances.append(mix + [(one, single_node)])
    for pairs in instances:
        specs = [s for s, _ in pairs]
        tz = checked_tensorize(csp_of(specs, []), [t for _, t in pairs])
        for _ in range(20):
            sigma = [rng.randrange(s.domain_size) for s in tz.base.vars]
            got = trans(tz, sigma)
            assert got.dtype == np.int64
            assert got.tolist() == reference_trans(tz, sigma)


def test_base_and_original_agree_on_satisfaction():
    # a tensor assignment violates a base constraint exactly when its
    # reading back violates the original one, so either instance's check
    # decides a draw.  Half the assignments read back as an original
    # assignment that takes one constraint's falsifying values
    rng = random.Random(12)
    tape = RandomnessTape(12)
    tree8 = complete_binary_tensorize_with_marking(8)[0]

    def coloring():
        edges = tuple(tuple(sorted(rng.sample(range(7), 3)))
                      for _ in range(rng.randint(1, 4)))
        csp = build_coloring(HypergraphInstance(7, edges), 8)
        return tensorize(csp, [tree8] * csp.num_vars)

    def general():
        csp = random_weighted_csp(rng, max_domain=5)
        trees = {s: huffman_tensorize(s.weights) for s in csp.flat.specs}
        return tensorize(csp, [trees[s] for s in csp.vars])

    def uniform():
        sizes = [rng.randint(2, 9) for _ in range(rng.randint(3, 12))]
        cons = []
        for _ in range(rng.randint(1, 8)):
            vbl = rng.sample(range(len(sizes)), rng.randint(1, 3))
            cons.append((vbl, [rng.randrange(sizes[v]) for v in vbl]))
        trees = [uniform_randomized_tensorization(
            d, tape.stream(rng.randrange(1 << 30), LABEL_TENSOR))[0]
            for d in sizes]
        return tensorize(csp_of([VariableSpec.uniform(d) for d in sizes],
                                cons), trees)

    for kind in (coloring, general, uniform):
        seen = {True: 0, False: 0}
        for _ in range(30):
            tz = kind()
            pairs = constraint_pairs(tz.original)
            for _ in range(20):
                sigma = [rng.randrange(s.domain_size) for s in tz.base.vars]
                if pairs and rng.random() < 0.5:
                    x = [rng.randrange(s.domain_size)
                         for s in tz.original.vars]
                    vbl, fals = rng.choice(pairs)
                    for v, q in zip(vbl, fals):
                        x[v] = q
                    for v, q in enumerate(x):
                        for z, ci in tz.trees[v].path(q):
                            sigma[node_index(tz, v, z)] = ci
                ok = tz.base.satisfies(sigma)
                assert ok == tz.original.satisfies(trans(tz, sigma))
                seen[ok] += 1
        assert min(seen.values()) > 50, (kind.__name__, seen)


def test_tensorize_derives_measures_with_domain1_trees():
    one = VariableSpec(1, (1.0,))
    csp = csp_of([VariableSpec.uniform(3), one, VariableSpec(2, (0.3, 0.7)),
                  one],
                 [((0, 1), (2, 0)), ((1, 2, 3), (0, 1, 0)), ((2,), (0,))])
    trees = [huffman_tensorize(s.weights) for s in csp.vars]
    # a domain-1 Huffman tree is a root over one leaf: a node variable
    # with one value
    tz = checked_tensorize(csp, trees)
    assert tz.base.measures.delta == csp.measures.delta == 3
    # a one-node tree's variable has no node variable and leaves its
    # constraints, which meet less often: the base's Delta is counted
    single = TensorTree(((),), (1.0,), {0: 0})
    tz = checked_tensorize(csp, [trees[0], single, trees[2], single])
    assert tz.base.measures.delta == 2


def test_tensorize_rejects_wrong_tree():
    csp = mixed_csp()
    trees = [huffman_tensorize((0.5, 0.25, 0.25)),
             huffman_tensorize(csp.vars[1].weights)]
    with pytest.raises(InvalidInstanceError):
        checked_tensorize(csp, trees)


def test_tensorize_checks_each_tree_and_spec_once(monkeypatch):
    calls = []
    leaf_product = TensorTree.leaf_product

    def counting(self, q):
        calls.append(q)
        return leaf_product(self, q)

    monkeypatch.setattr(TensorTree, "leaf_product", counting)
    q5 = VariableSpec.uniform(5)
    csp = csp_of([q5] * 6, [((0, 3), (1, 1))])
    tree = huffman_tensorize(q5.weights)
    checked_tensorize(csp, [tree] * 6)
    assert sorted(calls) == list(range(5))
    # the same tree under a different spec is checked again, and rejected
    skewed = csp_of([q5, VariableSpec(5, (0.2, 0.2, 0.2, 0.3, 0.1))], [])
    with pytest.raises(InvalidInstanceError):
        checked_tensorize(skewed, [tree, tree])


def parent_walk_path(tree, q):
    """Reference for TensorTree.path: walk from q's leaf up to the root."""
    parent = {c: z for z, ch in enumerate(tree.children) for c in ch}
    node = next(z for z, v in tree.leaf_value.items() if v == q)
    steps = []
    while node != 0:
        z = parent[node]
        steps.append((z, tree.children[z].index(node)))
        node = z
    return tuple(reversed(steps))


def test_path_matches_parent_walk():
    trees = [huffman_tensorize(pmf) for pmf in (
        (1.0,), (0.3, 0.7), (1 / 6, 1 / 6, 1 / 6, 1 / 10, 1 / 10, 3 / 10),
        (0.5, 0.25, 0.125, 0.0625, 0.0625))]
    tape = RandomnessTape(5)
    trees += [uniform_randomized_tensorization(
        n, tape.stream(n, LABEL_TENSOR))[0] for n in range(2, 18)]
    for tree in trees:
        for q in range(tree.num_values):
            assert tree.path(q) == parent_walk_path(tree, q)


def test_complete_binary_q8():
    tree, marks = complete_binary_tensorize_with_marking(8)
    assert tree.depth() == 3
    lv = tree.levels()
    assert marks == frozenset(z for z in tree.internal_nodes() if lv[z] >= 2)
    assert len(marks) == 4
    for q in range(8):
        assert tree.leaf_product(q) == pytest.approx(1 / 8)
        # the marked path mass is exactly one level-2 split: 1/2
        assert marked_path_log2(tree, marks, q) == pytest.approx(-1.0)


def test_complete_binary_q16_bounds():
    tree, marks = complete_binary_tensorize_with_marking(16)
    assert tree.depth() == 4
    for q in range(16):
        m = marked_path_log2(tree, marks, q)
        u = math.log2(tree.leaf_product(q)) - m
        assert m <= math.log2(4.0) - math.log2(16) / 3.0 + 1e-9
        assert u <= math.log2(8.0) - 2 * math.log2(16) / 3.0 + 1e-9
    with pytest.raises(RegimeError):
        complete_binary_tensorize_with_marking(4)


def test_coloring_regime():
    # the coloring pipeline admits exactly when its one deterministic
    # marking passes the theorem's conditions; Q < 5 has no such marking
    admitted = []
    for q, k in ((256, 10), (256, 12), (256, 24), (8, 22), (8, 24),
                 (5, 18), (5, 20), (4, 32)):
        h = HypergraphInstance(k, (tuple(range(k)),))
        cfg = PipelineConfig("-", "hypergraph", "coloring", colors=q)
        if q < 5:
            with pytest.raises(RegimeError, match="Q >= 5"):
                prepare_pipeline(h, cfg)
            continue
        tree, marks = complete_binary_tensorize_with_marking(q)
        csp = build_coloring(h, q)
        tz = checked_tensorize(csp, [tree] * csp.num_vars)
        m = global_marking(tz, [marks] * csp.num_vars)
        if check_theorem_conditions(tz.base, m).passed:
            prepared = prepare_pipeline(h, cfg)
            assert prepared.marking == m
            for csp in (prepared.original, prepared.run_csp):
                assert csp.measures == counted_measures(csp)
            check_necessary_bound(csp.measures)
            admitted.append((q, k))
        else:
            with pytest.raises(RegimeError, match="coloring marking fails"):
                prepare_pipeline(h, cfg)
    assert admitted == [(256, 12), (256, 24), (8, 24), (5, 20)]


def test_subtree_counts():
    assert subtree_counts(8, 2) == (4, 0)
    rng = random.Random(0)
    for _ in range(200):
        n = rng.randint(8, 200)
        x = rng.randint(1, n)
        a, b = subtree_counts(n, x)
        assert a * x + b * (x + 1) == n


def test_expected_marked_log2_matches_candidate():
    for n in range(8, 18):
        r = int(math.floor(n ** (1.0 - UNIFORM_ETA)))
        for x in (r - 1, r, r + 1):
            _, _, xs = _large_candidate(n, x)
            assert math.fsum(xs) / n == pytest.approx(
                expected_marked_log2(n, x), abs=1e-12)


def test_randomized_tensorization_mean_and_width():
    # Monte-Carlo estimate of E[X(v, q)] per value; the mixture plus the
    # uniform leaf permutation must give exactly eta*log2(1/N).  Each draw's
    # x is its tree's marked path masses, bit for bit
    tape = RandomnessTape(8)
    for n in (2, 5, 8, 11):
        stream = tape.stream(n, LABEL_TENSOR)
        target = UNIFORM_ETA * math.log2(1.0 / n)
        draws = 30000
        acc = [0.0] * n
        for _ in range(draws):
            tree, marks, xq = uniform_randomized_tensorization(n, stream)
            for q in range(n):
                x = marked_path_log2(tree, marks, q)
                assert xq[q] == x
                acc[q] += x
                assert x <= 0.0
        for q in range(n):
            assert acc[q] / draws == pytest.approx(target, abs=0.03)


def test_randomized_tensorization_deterministic():
    tape = RandomnessTape(3)
    a = uniform_randomized_tensorization(9, tape.stream(0, LABEL_TENSOR))
    b = uniform_randomized_tensorization(9, tape.stream(0, LABEL_TENSOR))
    assert a[0].children == b[0].children
    assert a[0].leaf_value == b[0].leaf_value
    assert a[1] == b[1]


def test_uniform_construction_in_regime():
    k = 45
    csp = csp_of([VariableSpec.uniform(8) for _ in range(k)],
                 [(tuple(range(k)), (0,) * k)])
    tz, marking = uniform_tensorize_with_marking(csp, seed=2)
    assert tz.base.num_vars == 7 * k
    assert tz.base.measures == counted_measures(tz.base)
    assert check_theorem_conditions(tz.base, marking).passed
    check_necessary_bound(csp.measures)
    # recompute the marked falsifying log-mass independently and check the
    # acceptance window for the single constraint
    vbl, fals = constraint_pairs(csp)[0]
    var_of = {node_index(tz, v, z): (v, z) for v, tree in enumerate(tz.trees)
              for z in tree.internal_nodes()}
    marks_by_var = [set() for _ in range(k)]
    for z, flag in enumerate(marking.marked):
        if flag:
            v, local = var_of[z]
            marks_by_var[v].add(local)
    s = math.fsum(marked_path_log2(tz.trees[v], marks_by_var[v], q)
                  for v, q in zip(vbl, fals))
    l_c = 3.0 * k
    assert -(UNIFORM_ETA + UNIFORM_TAU1) * l_c - 1e-9 <= s
    assert s <= -(UNIFORM_ETA - UNIFORM_TAU2) * l_c + 1e-9


def test_uniform_construction_regime_error():
    csp = csp_of([VariableSpec.uniform(4) for _ in range(2)],
                 [((0, 1), (0, 0))])
    with pytest.raises(RegimeError):
        uniform_tensorize_with_marking(csp, seed=0)
    csp2 = csp_of([VariableSpec(2, (0.3, 0.7))], [])
    with pytest.raises(RegimeError):
        uniform_tensorize_with_marking(csp2, seed=0)


def test_verify_numeric_facts():
    report = verify_numeric_facts()
    assert report["all_passed"]
    assert report["t1_in_range"] and report["t2_in_range"]
    assert report["gamma"] >= 0.175
    # falsification probe: an over-wide tau1 must break the margins
    broken = verify_numeric_facts(tau1=0.4)
    assert not broken["all_passed"]


def test_global_marking_roundtrip():
    csp = csp_of([VariableSpec.uniform(4) for _ in range(2)], [])
    trees = [huffman_tensorize(s.weights) for s in csp.vars]
    tz = checked_tensorize(csp, trees)
    marking = global_marking(tz, [{0}, {0, 4}])
    assert isinstance(marking, Marking)
    assert sum(marking.marked) == 3
    assert marking.marked[node_index(tz, 1, 4)]


def test_dump_golden():
    tree = huffman_tensorize((0.5, 0.25, 0.25))
    expected = "\n".join([
        "node 0 w=1",
        "  leaf 1 w=0.5 value=0",
        "  node 2 w=0.5 *",
        "    leaf 3 w=0.5 value=1",
        "    leaf 4 w=0.5 value=2",
    ])
    assert tree.dump(marks={2}) == expected
