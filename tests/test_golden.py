"""Golden draw digests: one sha256 per pipeline case over its marking and
its first 20 draws on a small fixed instance (each pipeline in regime, and
each forced fallback), one per residual case over
300 ``sample`` draws whose chain enters the residual layer, one per
rejection case over 30 ``final_sampling`` draws and their attempt totals
under the empty marking, and one per input text over the ``flat`` arrays of
the parsed and the chain instance, the marking and the first 20 draws of
text -> parse -> ``prepare_pipeline``, and one over the structure and marks
of the uniform, the coloring and the Huffman trees.

A change that keeps the draw stream keeps these digests.  A change that alters
the stream on purpose updates them, names the change, and re-certifies the law
with acceptance criterion 1.  ``python tests/test_golden.py`` prints each
case's current digest.
"""

import hashlib
import json
import math
import random

import pytest

import numpy as np

from lllsampler import (STAR, Marking, VariableSpec, final_sampling, kernels,
                        sample)
from lllsampler.cli import PipelineConfig, prepare_pipeline
from lllsampler.frontends import (HypergraphInstance, parse_dimacs,
                                  parse_hypergraph)
from lllsampler.kernels import LABEL_TENSOR, RandomnessTape
from lllsampler.marking import check_necessary_bound
from lllsampler.tensorization import (complete_binary_tensorize_with_marking,
                                      huffman_tensorize,
                                      uniform_randomized_tensorization)

from conftest import csp_of, ternary9, weighted8
from test_marking import binary_regime_instance

SEED = 3
NUM_DRAWS = 20


def weighted_ternary(k=80):
    """k weighted ternary variables in one constraint; the general pipeline
    finds a marking passing the theorem's conditions at k = 40 and 80, and
    none at k = 6."""
    vars = [VariableSpec(3, (0.5, 0.3, 0.2)) for _ in range(k)]
    return csp_of(vars, [(tuple(range(k)), (2,) * k)])


def uniform_octal(k=45):
    """k uniform size-8 variables in one constraint; the uniform
    construction finds a passing marking at k = 20 and 45, and none at
    k = 5."""
    vars = [VariableSpec.uniform(8) for _ in range(k)]
    return csp_of(vars, [(tuple(range(k)), (0,) * k)])


def uniform_mixed(k=16):
    """k uniform variables in one constraint forbidding all-0, their
    domains cycling through 2, 3, 5, 6, 7, 8, 11 and 16: every fixed
    candidate, N = 6's two-subtree one included, and two large sizes.  The
    uniform construction finds a passing marking at k = 16 and none at
    k = 6."""
    sizes = (2, 3, 5, 6, 7, 8, 11, 16)
    vars = [VariableSpec.uniform(sizes[i % len(sizes)]) for i in range(k)]
    return csp_of(vars, [(tuple(range(k)), (0,) * k)])


# case -> (instance, config, whether the marking is the forced empty one,
#          sha256 of the marking and the first NUM_DRAWS draws)
CASES = {
    "binary": (
        binary_regime_instance(1.0),
        PipelineConfig("-", "csp", "binary", seed=SEED), False,
        "447d6943b8282d73358825aca43a5e24aa22f1e06fba12aa889d04d0f78ed578"),
    "general": (
        weighted_ternary(),
        PipelineConfig("-", "csp", "general", seed=SEED), False,
        "9832227e9dc57d7d7e3c7f67966d0f014940c2efa959ddb4e97822a79018b246"),
    "uniform": (
        uniform_octal(),
        PipelineConfig("-", "csp", "uniform", seed=SEED), False,
        "8571ae24da79db17fb812e7694e04436c9a1f953a6da55be708394bc0cb7e6c4"),
    # Admitted by the theorem's conditions below the lemmas' sufficient
    # regimes, which started at k = 77 and k = 45 on these shapes
    "general-k40": (
        weighted_ternary(40),
        PipelineConfig("-", "csp", "general", seed=SEED), False,
        "1610c714f46bb0e881e3e7ed719d2bd6db187407a8e59f25099b149779fe25a7"),
    "uniform-k20": (
        uniform_octal(20),
        PipelineConfig("-", "csp", "uniform", seed=SEED), False,
        "5357ad55e14f9f1404413486781ccb03129fd72ed0b37af74201a5119bd30c71"),
    # In-regime coloring needs thousands of chain variables; the forced
    # small instance still runs tensorization and the back-map.
    "coloring": (
        HypergraphInstance(3, ((0, 1, 2),)),
        PipelineConfig("-", "hypergraph", "coloring", colors=5, seed=SEED,
                       force=True), True,
        "3ccb83adaa1583fd5778039544765ac7c0cfc2001d0c29ce03fabb1c866be372"),
    # Out of regime under --force: the general fallback keeps its Huffman
    # tensorization, the uniform one draws its fallback trees, and Q = 3
    # coloring runs untensorized.
    "general-forced": (
        weighted_ternary(6),
        PipelineConfig("-", "csp", "general", seed=SEED, force=True), True,
        "16753609a422e3f0b8178eaa1d0e927374ea323004aa78c9505d981f9b9b7712"),
    "uniform-forced": (
        uniform_octal(5),
        PipelineConfig("-", "csp", "uniform", seed=SEED, force=True), True,
        "0c30b24657a449a3c7c7172b1f1abdb407d142fa213e7fad086af1374db94cb4"),
    "uniform-mixed": (
        uniform_mixed(),
        PipelineConfig("-", "csp", "uniform", seed=SEED), False,
        "daae5fcaa41b90d729e5c92c0f764a59b7ff1268d4aed4ecfcde2ea7db32335f"),
    "uniform-mixed-forced": (
        uniform_mixed(6),
        PipelineConfig("-", "csp", "uniform", seed=SEED, force=True), True,
        "13e304956cfbf7c15f7fe05d9ac12b0e3d7fbe7fa46aa2cec37eea978fafc2f9"),
    "coloring-q3-forced": (
        HypergraphInstance(4, ((0, 1, 2), (1, 2, 3))),
        PipelineConfig("-", "hypergraph", "coloring", colors=3, seed=SEED,
                       force=True), True,
        "93da319a8a2a7f39d5cc193f1b054efe9e1698f87d689301a279435a87979fa7"),
    # Q = 2 coloring has binary domains and takes the binary construction;
    # one 150-vertex edge is in its regime
    "coloring-q2": (
        HypergraphInstance(150, (tuple(range(150)),)),
        PipelineConfig("-", "hypergraph", "coloring", colors=2, seed=SEED),
        False,
        "9ab9344b94fdbad8e3025aca626e8684d39daf15194e2b6985dbd406a44df73b"),
}


def draw_digest(prepared) -> str:
    h = hashlib.sha256(json.dumps(prepared.marking.indices()).encode())
    for i in range(NUM_DRAWS):
        h.update(json.dumps(prepared.draw(SEED, i)).encode() + b"\n")
    return h.hexdigest()


def dense4():
    """4 weighted binary variables under 6 constraints, variable 1 marked.
    Every residual step's component holds all 6 constraints, so
    enumerating its 16 states is cheaper than inclusion-exclusion over its
    64 constraint subsets."""
    spec = VariableSpec(2, (0.3, 0.7))
    cons = [((0, 1, 2, 3), (1, 1, 1, 0)), ((0, 2, 3), (1, 0, 0)),
            ((0, 3), (0, 0)), ((0, 3), (0, 1)), ((0, 1), (0, 1)),
            ((1, 2, 3), (1, 1, 0))]
    return csp_of([spec] * 4, cons), Marking.from_indices(4, [1])


# The pipelines' instances are in regime, where the safe mass is 1.0, so
# their chains never leave the safe layer.  These small instances, run
# without the condition check, take the residual step (``component`` and
# the exact component marginal) hundreds of times; ``dense4``'s marginals
# take the enumeration branch.
# name -> (function returning the instance and its marking, the ``kernels``
#          function whose calls are counted, sha256 of the draws)
RESIDUAL_CASES = {
    "ternary9": (
        ternary9, "component",
        "b5c797aaa461df53b824eea1921e585919eb3773f8011f61c3836074eec2db59"),
    "weighted8": (
        weighted8, "component",
        "333e87a39fd66d1a04cc8a93021ec15a42b286f20fe44dca002fa7a297c5990c"),
    "dense4": (
        dense4, "_enum_marginal",
        "1aa91bca2522d8bff25b801bbd8bcc27500bfcf3c40661a2ebe116e43ba9667c"),
}
RESIDUAL_DRAWS = 300


def residual_digest(csp, m) -> str:
    h = hashlib.sha256()
    for seed in range(RESIDUAL_DRAWS):
        r = sample(csp, m, seed, check_conditions=False)
        h.update(json.dumps([r.assignment.tolist(), r.horizon_used,
                             r.wall_steps]).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_golden_draw_digest(case):
    instance, cfg, forced_empty, expected = CASES[case]
    prepared = prepare_pipeline(instance, cfg)
    assert prepared.forced_empty == forced_empty
    assert any(prepared.marking.marked) != forced_empty
    if not forced_empty:
        check_necessary_bound(prepared.run_csp.measures)
    assert draw_digest(prepared) == expected


@pytest.mark.parametrize("case", sorted(RESIDUAL_CASES))
def test_residual_draw_digest(case, monkeypatch):
    make, counted, expected = RESIDUAL_CASES[case]
    calls = []
    fn = getattr(kernels, counted)

    def counting(*args):
        calls.append(args[3])
        return fn(*args)

    monkeypatch.setattr(kernels, counted, counting)
    assert residual_digest(*make()) == expected
    assert len(calls) >= 40


def planted_blocks(seed, blocks, specs, clauses, arities):
    """Disjoint blocks over ``len(specs)`` variables each, block b's
    variables b * len(specs) + i taking ``specs[i]``; each block has
    ``clauses`` constraints of an arity drawn from ``arities`` over
    distinct variables of the block, each forbidding a tuple other than a
    hidden assignment's, so the instance is satisfiable."""
    rng = random.Random(seed)
    size = len(specs)
    hidden = [rng.randrange(s.domain_size) for _ in range(blocks)
              for s in specs]
    cons = []
    for b in range(blocks):
        for _ in range(clauses):
            vs = tuple(b * size + i
                       for i in rng.sample(range(size), rng.choice(arities)))
            while True:
                fals = tuple(rng.randrange(specs[v % size].domain_size)
                             for v in vs)
                if any(f != hidden[v] for v, f in zip(vs, fals)):
                    break
            cons.append((vs, fals))
    return csp_of([specs[i] for _ in range(blocks) for i in range(size)],
                  cons)


# The empty marking leaves the whole draw to lockstep rejection, as
# ``--force`` does out of regime.  ``cnf-forced`` is the benchmark's shape:
# 100 blocks of 20 uniform binary variables and 16 three-variable clauses;
# ``mixed-ternary`` puts domain-3 variables in the constraints, so the draw
# compares each deviate with two running sums.
# name -> (function returning the instance, sha256 of the draws and their
#          attempt totals)
REJECTION_CASES = {
    "cnf-forced": (
        lambda: planted_blocks(11, 100, [VariableSpec.uniform(2)] * 20, 16,
                               (3,)),
        "19f5bc505d015466173394141dc8a4c701a6c04690c00e59432bbdea1056a0eb"),
    "mixed-ternary": (
        lambda: planted_blocks(
            12, 40, [VariableSpec(2, (0.3, 0.7)),
                     VariableSpec(3, (0.2, 0.3, 0.5))] * 3, 8, (2, 3)),
        "f4db6232e74c27487c5cdf9294a150d4a0d89060ed8440349ee092af46936b2b"),
}
REJECTION_DRAWS = 30


def rejection_digest(csp) -> str:
    m = Marking.empty(csp.num_vars)
    state = np.full(csp.num_vars, STAR, dtype=np.int64)
    h = hashlib.sha256()
    for seed in range(REJECTION_DRAWS):
        values, attempts = final_sampling(csp, m, state, seed)
        h.update(json.dumps([values.tolist(), attempts]).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(REJECTION_CASES))
def test_rejection_draw_digest(case):
    make, expected = REJECTION_CASES[case]
    assert rejection_digest(make()) == expected


def regime_dimacs(n=600, k=200, seed=7) -> str:
    """A ``cnf-regime``-shaped DIMACS text: every variable in exactly two
    k-clauses, the clause sets two random partitions into blocks of k."""
    rng = random.Random(seed)
    lines = [f"c cnf-regime shape, n={n} k={k}", f"p cnf {n} {2 * n // k}"]
    for _ in range(2):
        perm = rng.sample(range(1, n + 1), n)
        for i in range(0, n, k):
            lines.append(" ".join(str(v if rng.random() < 0.5 else -v)
                                  for v in perm[i:i + k]) + " 0")
    return "\n".join(lines) + "\n"


# name -> (parser, input text, config, sha256 of both instances' arrays, the
#          marking and the first NUM_DRAWS draws)
TEXT_CASES = {
    "cnf-regime-text": (
        parse_dimacs, regime_dimacs(),
        PipelineConfig("-", "dimacs", "binary", seed=SEED),
        "d8333300f5f802a42015efe6377daa34071e34907bfbd70fe89749455c8a24ee"),
    # the in-regime coloring-q256 shape: 32 vertices, one 32-edge, Q = 256
    "coloring-q256-text": (
        parse_hypergraph,
        "h 32 1 32\n" + " ".join(str(v) for v in range(32, 0, -1)) + "\n",
        PipelineConfig("-", "hypergraph", "coloring", colors=256, seed=SEED),
        "c56dd2c662998949fcbab3ba5294574f45f077be0b15d8cffe88e41e31c8e10d"),
}

FLAT_ARRAYS = ("cons_vars", "cons_fals", "log_w", "starts", "arity",
               "entry_cons", "var_ptr", "var_cons", "spec_of", "cum_table")


def text_digest(parse, text, cfg) -> str:
    prepared = prepare_pipeline(parse(text), cfg)
    assert not prepared.forced_empty
    check_necessary_bound(prepared.run_csp.measures)
    h = hashlib.sha256()
    for csp in (prepared.original, prepared.run_csp):
        flat = csp.flat
        for name in FLAT_ARRAYS:
            a = getattr(flat, name)
            h.update(f"{name} {a.dtype.str} {a.shape}\n".encode())
            h.update(a.tobytes())
        h.update(repr([s.weights for s in flat.specs]).encode())
    h.update(draw_digest(prepared).encode())
    return h.hexdigest()


@pytest.mark.parametrize("case", sorted(TEXT_CASES))
def test_text_pipeline_digest(case):
    parse, text, cfg, expected = TEXT_CASES[case]
    assert text_digest(parse, text, cfg) == expected


def tree_digest() -> str:
    """sha256 over the children, weights, leaf values and marks of 60
    uniform draws for each N = 2..39 (one tape), the coloring templates of
    a few Q, and 200 seeded Huffman pmfs, skewed or with tied masses."""
    h = hashlib.sha256()

    def add(tree, marks=()):
        h.update(json.dumps([tree.children, tree.weight,
                             sorted(tree.leaf_value.items()),
                             sorted(marks)]).encode() + b"\n")

    tape = RandomnessTape(SEED)
    for n in range(2, 40):
        stream = tape.stream(n, LABEL_TENSOR)
        for _ in range(60):
            draw = uniform_randomized_tensorization(n, stream)
            add(draw[0], draw[1])
    for q in (5, 6, 7, 8, 13, 256):
        add(*complete_binary_tensorize_with_marking(q))
    rng = random.Random(SEED)
    for i in range(200):
        size = rng.randint(1, 40)
        if i % 3:
            raw = [rng.random() ** 4 + 1e-3 for _ in range(size)]
        else:
            raw = [rng.choice((1.0, 2.0, 3.0)) for _ in range(size)]
        total = math.fsum(raw)
        add(huffman_tensorize([w / total for w in raw]))
    return h.hexdigest()


TREE_DIGEST = (
    "9d7abf929b1f0f9d487093576c6415637dd48ac50cc3532ca83d5c47f2c09210")


def test_tree_digest():
    assert tree_digest() == TREE_DIGEST


if __name__ == "__main__":
    # Print each case's current digest, to paste into CASES after a change
    # that alters the draw stream on purpose.
    for name, (instance, cfg, _, _) in sorted(CASES.items()):
        print(name, draw_digest(prepare_pipeline(instance, cfg)))
    for name, (make, _, _) in sorted(RESIDUAL_CASES.items()):
        print(name, residual_digest(*make()))
    for name, (make, _) in sorted(REJECTION_CASES.items()):
        print(name, rejection_digest(make()))
    for name, (parse, text, cfg, _) in sorted(TEXT_CASES.items()):
        print(name, text_digest(parse, text, cfg))
    print("trees", tree_digest())
