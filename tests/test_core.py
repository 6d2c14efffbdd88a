import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from lllsampler import core
from lllsampler import (AtomicConstraint, AtomicCsp, InvalidInstanceError,
                        STAR, UnsatisfiableInstanceError, VariableSpec,
                        component, compute_measures, preprocess)

from conftest import mixed_csp, overlap18


def test_variable_spec_validation():
    with pytest.raises(InvalidInstanceError):
        VariableSpec(2, (0.5, 0.6))
    with pytest.raises(InvalidInstanceError):
        VariableSpec(2, (1.0, 0.0))
    with pytest.raises(InvalidInstanceError):
        VariableSpec(0, ())
    s = VariableSpec.uniform(4)
    assert s.weights == (0.25,) * 4


def test_constraint_validation():
    with pytest.raises(InvalidInstanceError):
        AtomicConstraint((), ())
    with pytest.raises(InvalidInstanceError):
        AtomicConstraint((0, 0), (1, 1))
    with pytest.raises(
            InvalidInstanceError,
            match="falsifying value 2 outside domain of variable 0"):
        AtomicCsp([VariableSpec.uniform(2)], [AtomicConstraint((0,), (2,))])
    # numpy fancy indexing would wrap a negative index silently
    with pytest.raises(InvalidInstanceError,
                       match="variable index -1 out of range"):
        AtomicCsp([VariableSpec.uniform(2)] * 2,
                  [AtomicConstraint((0, -1), (0, 0))])
    with pytest.raises(InvalidInstanceError,
                       match="variable index 2 out of range"):
        AtomicCsp([VariableSpec.uniform(2)] * 2,
                  [AtomicConstraint((0, 2), (0, 0))])
    with pytest.raises(
            InvalidInstanceError,
            match="falsifying value -1 outside domain of variable 1"):
        AtomicCsp([VariableSpec.uniform(2)] * 2,
                  [AtomicConstraint((0, 1), (0, -1))])


def test_measures_mixed():
    csp = mixed_csp()
    m = compute_measures(csp)
    assert m.k == 2 and m.d == 2 and m.delta == 2 and m.q == 4
    assert m.kappa == pytest.approx(2.0)
    # worst falsifying probability is the unary constraint's 1/3
    assert m.log_p == pytest.approx(math.log(1 / 3))


def test_derived_quantities_cached():
    csp = mixed_csp()
    assert csp.measures is csp.measures
    assert csp.measures == compute_measures(csp)
    spec = csp.vars[1]
    assert spec.log_weights is spec.log_weights


def test_measures_constraint_free():
    csp = AtomicCsp([VariableSpec.uniform(3)], [])
    m = compute_measures(csp)
    assert (m.k, m.d, m.delta) == (0, 0, 0)
    assert m.log_p == -math.inf


def reference_measures(csp):
    """(k, d, delta) by a scan of the constraints: delta is the largest
    number of constraints sharing a variable with one, itself included."""
    if not csp.constraints:
        return 0, 0, 0
    occ = [[] for _ in csp.vars]
    for ci, c in enumerate(csp.constraints):
        for v in c.vbl:
            occ[v].append(ci)
    delta = 0
    for c in csp.constraints:
        neigh = set()
        for v in c.vbl:
            neigh.update(occ[v])
        delta = max(delta, len(neigh))
    return (max(len(c.vbl) for c in csp.constraints),
            max(len(x) for x in occ), delta)


@st.composite
def random_instances(draw):
    """Random instances, constraint-free ones and variables in no
    constraint included."""
    n = draw(st.integers(1, 8))
    cons = [AtomicConstraint(tuple(vbl), (0,) * len(vbl))
            for vbl in draw(st.lists(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                         unique=True), max_size=10))]
    return AtomicCsp([VariableSpec.uniform(2)] * n, cons)


def more_constraints_than_a_block():
    rng = random.Random(0)
    n = 300
    cons = []
    for _ in range(core._DELTA_BLOCK + 500):
        vbl = tuple(rng.sample(range(n), rng.randint(1, 4)))
        cons.append(AtomicConstraint(vbl, (0,) * len(vbl)))
    return AtomicCsp([VariableSpec.uniform(2)] * (n + 5), cons)


@given(random_instances())
@example(more_constraints_than_a_block())
def test_csr_index_and_measures_match_a_constraint_scan(csp):
    f = csp.flat
    for v in range(csp.num_vars):
        row = f.var_cons[f.var_ptr[v]:f.var_ptr[v + 1]].tolist()
        assert row == [ci for ci, c in enumerate(csp.constraints)
                       if v in c.vbl]
    m = compute_measures(csp)
    assert (m.k, m.d, m.delta) == reference_measures(csp)


def test_falsifiable_and_projection():
    csp = mixed_csp()
    comp = component(csp, [False, False], [STAR, 1], 0)
    assert comp.token and comp.component_vars == (0,)
    # both constraints are falsifiable and survive, restricted to variable 0
    assert comp.component_constraints == (0, 1)
    assert len(comp.projected) == 2
    assert all(c.vbl == (0,) for c in comp.projected)
    comp2 = component(csp, [False, False], np.array([STAR, 2]), 0)
    # the (u,v)=(c,B) constraint dropped
    assert comp2.component_constraints == (0,)
    assert len(comp2.projected) == 1
    assert comp2.projected[0].vbl == (0,)


def test_projection_measures_do_not_increase():
    csp = mixed_csp()
    comp = component(csp, [False, False], [STAR, 1], 0)
    index = {v: i for i, v in enumerate(comp.component_vars)}
    proj = AtomicCsp(
        [csp.vars[v] for v in comp.component_vars],
        [AtomicConstraint(tuple(index[v] for v in c.vbl), c.falsifying)
         for c in comp.projected])
    before = compute_measures(csp)
    after = compute_measures(proj)
    assert after.k <= before.k
    assert after.d <= before.d
    assert after.delta <= before.delta
    assert after.log_p <= before.log_p + 1e-12


def test_preprocess_removes_singletons():
    csp = AtomicCsp(
        [VariableSpec.uniform(2), VariableSpec(1, (1.0,)),
         VariableSpec.uniform(2)],
        [AtomicConstraint((0, 1, 2), (0, 0, 1))])
    out, kept = preprocess(csp)
    assert kept == (0, 2)
    assert out.num_vars == 2
    assert out.constraints[0].vbl == (0, 1)
    assert out.constraints[0].falsifying == (0, 1)


def test_preprocess_unsat():
    csp = AtomicCsp([VariableSpec(1, (1.0,))],
                    [AtomicConstraint((0,), (0,))])
    with pytest.raises(UnsatisfiableInstanceError):
        preprocess(csp)


@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=6))
def test_weights_normalize_and_roundtrip(raw):
    total = sum(raw)
    spec = VariableSpec(len(raw), tuple(w / total for w in raw))
    assert abs(sum(spec.weights) - 1.0) <= 1e-12
    assert all(math.isfinite(x) for x in spec.log_weights)


@st.composite
def csp_and_assignment(draw):
    sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=6))
    n = len(sizes)
    cons = []
    for _ in range(draw(st.integers(0, 6))):
        vbl = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                            unique=True))
        cons.append(AtomicConstraint(
            tuple(vbl),
            tuple(draw(st.integers(0, sizes[v] - 1)) for v in vbl)))
    values = [draw(st.integers(0, q - 1)) for q in sizes]
    return AtomicCsp([VariableSpec.uniform(q) for q in sizes], cons), values


@given(csp_and_assignment())
def test_satisfies_matches_constraint_scan(case):
    csp, values = case
    expect = not any(all(values[v] == q for v, q in zip(c.vbl, c.falsifying))
                     for c in csp.constraints)
    assert csp.satisfies(values) == expect


def test_flat_view():
    csp, _ = overlap18()
    f = csp.flat
    assert f is csp.flat
    assert f.cons_vars.tolist() == list(range(10)) + list(range(8, 18))
    assert f.cons_fals.tolist() == [0] * 20
    assert f.starts.tolist() == [0, 10]
    assert f.entry_cons.tolist() == [0] * 10 + [1] * 10
    assert f.spec_of.tolist() == [0] * 18
    assert f.cum_table.tolist() == [[0.2]]
    mixed = mixed_csp().flat
    assert mixed.spec_of.tolist() == [0, 1]
    assert mixed.cum_table[0, :2].tolist() == [1 / 3, 2 / 3]
    assert mixed.cum_table[0, 2] == math.inf
    assert mixed.cum_table[1].tolist() == [0.25, 0.5, 0.25 + 0.25 + 1 / 3]


def names_star(node):
    return ((isinstance(node, ast.Name) and node.id == "STAR")
            or (isinstance(node, ast.Attribute) and node.attr == "STAR"))


def test_no_identity_comparison_with_star():
    # STAR is the int -1, and ``np.int64(-1) is STAR`` is always False: an
    # identity test silently misreads every state array
    repo = Path(__file__).resolve().parent.parent
    found = []
    for path in sorted([*(repo / "src").rglob("*.py"),
                        *(repo / "tests").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, a, b in zip(node.ops, operands, operands[1:]):
                if (isinstance(op, (ast.Is, ast.IsNot))
                        and (names_star(a) or names_star(b))):
                    found.append(f"{path.relative_to(repo)}:{node.lineno}")
    assert found == []
