import ast
import math
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from lllsampler import core
from lllsampler import (AtomicCsp, InvalidInstanceError, STAR,
                        UnsatisfiableInstanceError, VariableSpec, component,
                        compute_measures, parse_dimacs, preprocess)

from conftest import (constraint_pairs, csp_of, mixed_csp, overlap18,
                      projected_constraints, random_weighted_csp)


def test_variable_spec_validation():
    with pytest.raises(InvalidInstanceError):
        VariableSpec(2, (0.5, 0.6))
    with pytest.raises(InvalidInstanceError):
        VariableSpec(2, (1.0, 0.0))
    with pytest.raises(InvalidInstanceError):
        VariableSpec(0, ())
    # NaN fails ``w <= 0`` and the sum test alike
    with pytest.raises(InvalidInstanceError, match="strictly positive"):
        VariableSpec(2, (math.nan, 0.5))
    s = VariableSpec.uniform(4)
    assert s.weights == (0.25,) * 4


def test_constraint_validation():
    with pytest.raises(InvalidInstanceError,
                       match=r"empty constraint \(arity 0\)"):
        csp_of([VariableSpec.uniform(2)], [((), ())])
    with pytest.raises(InvalidInstanceError,
                       match="constraint variables must be distinct"):
        csp_of([VariableSpec.uniform(2)], [((0, 0), (1, 1))])
    with pytest.raises(
            InvalidInstanceError,
            match="falsifying value 2 outside domain of variable 0"):
        csp_of([VariableSpec.uniform(2)], [((0,), (2,))])
    # numpy fancy indexing would wrap a negative index silently
    with pytest.raises(InvalidInstanceError,
                       match="variable index -1 out of range"):
        csp_of([VariableSpec.uniform(2)] * 2, [((0, -1), (0, 0))])
    with pytest.raises(InvalidInstanceError,
                       match="variable index 2 out of range"):
        csp_of([VariableSpec.uniform(2)] * 2, [((0, 2), (0, 0))])
    with pytest.raises(
            InvalidInstanceError,
            match="falsifying value -1 outside domain of variable 1"):
        csp_of([VariableSpec.uniform(2)] * 2, [((0, 1), (0, -1))])
    # the first bad entry, in constraint order, names the error
    with pytest.raises(
            InvalidInstanceError,
            match="falsifying value 3 outside domain of variable 1"):
        csp_of([VariableSpec.uniform(2)] * 2,
               [((0, 1), (0, 3)), ((0, -5), (0, 0))])


def test_constructor_checks_the_entry_arrays():
    two = [VariableSpec.uniform(2)] * 3
    for arrays, message in (
            (([0, 1], [0, 0], [2, 0]), "empty constraint"),
            (([0, 1, 0], [0, 0, 1], [3]), "variables must be distinct"),
            (([0, 1, 2, 1], [0, 0, 1, 1], [3, 1]), None),
            (([2, 0, 2], [0, 0, 1], [1, 2]), None),
            # distinct but descending: checked on the variable index
            (([2, 1, 0, 1], [0, 0, 1, 1], [3, 1]), None),
            (([1, 2, 0, 2], [0, 0, 0, 1], [1, 3]),
             "variables must be distinct"),
            (([0, 1], [0], [2]), "falsifying must match vbl"),
            (([0, 1], [0, 0], [1]), "arities must sum"),
            (([0, 3], [0, 0], [2]), "variable index 3 out of range"),
            (([0, 1], [0, 2], [2]), "falsifying value 2 outside domain")):
        if message is None:
            csp = AtomicCsp(two, *map(np.array, arrays))
            f = csp.flat
            assert len(f.arity) == len(arrays[2])
            # variables that ascend in each constraint need no index
            ascending = all(list(vbl) == sorted(vbl)
                            for vbl, _ in constraint_pairs(csp))
            assert ("var_cons" in f.__dict__) != ascending
            assert [f.var_cons[f.var_ptr[v]:f.var_ptr[v + 1]].tolist()
                    for v in range(3)] == constraints_of_variables(csp)
        else:
            with pytest.raises(InvalidInstanceError, match=message):
                AtomicCsp(two, *map(np.array, arrays))


def test_arrays_and_constraints_give_one_instance():
    rng = random.Random(11)
    for _ in range(30):
        csp = random_weighted_csp(rng)
        f = csp.flat
        again = AtomicCsp(csp.vars, f.cons_vars.copy(), f.cons_fals.copy(),
                          f.arity.copy())
        assert again == csp and hash(again) == hash(csp)
        assert constraint_pairs(again) == constraint_pairs(csp)
        assert csp_of(csp.vars, constraint_pairs(again)) == csp
        for name in ("var_ptr", "var_cons", "entry_cons", "starts",
                     "spec_of", "log_w"):
            assert np.array_equal(getattr(again.flat, name), getattr(f, name))
    a = mixed_csp()
    b = csp_of(a.vars, [((0,), (0,)), ((0, 1), (2, 2))])
    c = csp_of(a.vars, [((0, 1), (0, 2))])
    assert a != b and a != c and b != c and a != "a"


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


def acc_sum(first, xs):
    """``first`` plus ``xs``, added left to right: Python's ``sum`` of
    floats is compensated from 3.12 on."""
    acc = first
    for x in xs:
        acc += x
    return acc


def test_constraint_sums_add_left_to_right():
    rng = random.Random(3)
    n = 40
    cons = []
    for _ in range(300):
        vbl = tuple(rng.sample(range(n), rng.randint(1, 12)))
        cons.append((vbl, (0,) * len(vbl)))
    csp = csp_of([VariableSpec.uniform(2)] * n, cons)
    f = csp.flat
    # magnitudes spread over 16 decades, so that the order of the adds shows
    x = np.array([rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
                  for _ in range(len(f.cons_vars))])
    first = np.array([rng.uniform(-1e3, 1e3) for _ in cons])
    ends = (f.starts + f.arity).tolist()
    for got, start in ((core.constraint_sums(f, x, first), first.tolist()),
                       (core.constraint_sums(f, x), [0.0] * len(cons))):
        want = [acc_sum(a, x[s:e].tolist())
                for a, s, e in zip(start, f.starts.tolist(), ends)]
        assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]


def gathered_sums(f, x, first):
    """Per constraint, ``first`` plus its entries gathered by index into
    one row per constraint, summed by a row-wise cumsum."""
    out = np.empty(len(f.arity))
    for a in np.unique(f.arity).tolist():
        rows = np.flatnonzero(f.arity == a)
        block = np.column_stack(
            [first[rows], x[f.starts[rows, None] + np.arange(a)]])
        out[rows] = np.cumsum(block, axis=1)[:, -1]
    return out


@pytest.mark.parametrize("arities", [(7,), (1,), (3, 5, 12), (9,),
                                     (2, 8, 30)])
def test_constraint_sums_match_the_gather_path(arities):
    # one arity reads the entries as rows of x; both layouts must add in
    # the gather path's order, bit for bit
    rng = random.Random(len(arities) * 100 + arities[0])
    n = 30
    for trial in range(40):
        if trial % 2:
            # one or two constraints of each arity: numpy sums a one-column
            # block pairwise, which differs from a left-to-right sum from
            # 8 terms on
            sizes = [a for a in arities for _ in range(rng.randint(1, 2))]
            rng.shuffle(sizes)
        else:
            sizes = [rng.choice(arities) for _ in range(rng.randint(1, 60))]
        cons = [(tuple(rng.sample(range(n), a)), (0,) * a) for a in sizes]
        f = csp_of([VariableSpec.uniform(2)] * n, cons).flat
        x = np.array([rng.uniform(-1, 1) * 10.0 ** rng.randint(-8, 8)
                      for _ in range(len(f.cons_vars))])
        first = np.array([rng.uniform(-1e3, 1e3) for _ in cons])
        ends = (f.starts + f.arity).tolist()
        want = [acc_sum(a, x[s:e].tolist())
                for a, s, e in zip(first.tolist(), f.starts.tolist(), ends)]
        for got in (core.constraint_sums(f, x, first),
                    gathered_sums(f, x, first)):
            assert [v.hex() for v in got.tolist()] == [v.hex() for v in want]
        assert (core.constraint_sums(f, x).tobytes()
                == gathered_sums(f, x, np.zeros(len(cons))).tobytes())
        # -0.0 plus -0.0 is -0.0: the sum starts from no +0.0
        zeros = np.full(len(x), -0.0)
        assert np.signbit(core.constraint_sums(f, zeros, -0.0)).all()


def test_log_p_matches_the_entry_loop_bitwise():
    rng = random.Random(11)
    for _ in range(100):
        csp = random_weighted_csp(rng)
        want = max((acc_sum(0.0, [csp.vars[v].log_weights[q]
                                  for v, q in zip(vbl, fals)])
                    for vbl, fals in constraint_pairs(csp)),
                   default=-math.inf)
        assert compute_measures(csp).log_p.hex() == want.hex()


def test_measures_constraint_free():
    csp = csp_of([VariableSpec.uniform(3)], [])
    m = compute_measures(csp)
    assert (m.k, m.d, m.delta) == (0, 0, 0)
    assert m.log_p == -math.inf


def constraints_of_variables(csp):
    """Per variable, its constraints ascending, by a scan of the
    constraints."""
    occ = [[] for _ in csp.vars]
    for ci, (vbl, _) in enumerate(constraint_pairs(csp)):
        for v in vbl:
            occ[v].append(ci)
    return occ


def reference_measures(csp):
    """(k, d, delta) by a scan of the constraints: delta is the largest
    number of constraints sharing a variable with one, itself included."""
    scopes = [vbl for vbl, _ in constraint_pairs(csp)]
    if not scopes:
        return 0, 0, 0
    occ = constraints_of_variables(csp)
    delta = 0
    for vbl in scopes:
        neigh = set()
        for v in vbl:
            neigh.update(occ[v])
        delta = max(delta, len(neigh))
    return (max(len(vbl) for vbl in scopes),
            max(len(x) for x in occ), delta)


@st.composite
def random_instances(draw):
    """Random instances, constraint-free ones and variables in no
    constraint included."""
    n = draw(st.integers(1, 8))
    cons = [(tuple(vbl), (0,) * len(vbl))
            for vbl in draw(st.lists(
                st.lists(st.integers(0, n - 1), min_size=1, max_size=n,
                         unique=True), max_size=10))]
    return csp_of([VariableSpec.uniform(2)] * n, cons)


def more_pairs_than_a_block():
    rng = random.Random(0)
    n = 100
    cons = []
    for _ in range(600):
        vbl = tuple(rng.sample(range(n), rng.randint(10, 30)))
        cons.append((vbl, (0,) * len(vbl)))
    csp = csp_of([VariableSpec.uniform(2)] * (n + 5), cons)
    # its (constraint, neighbouring constraint) pairs fill over three blocks
    f = csp.flat
    assert np.diff(f.var_ptr)[f.cons_vars].sum() > 3 * core._PAIR_BLOCK
    return csp


def one_constraint_over_a_block():
    # each of the long constraint's n variables is in one unary constraint
    # too, so it has 2n pairs
    n = core._PAIR_BLOCK // 2 + 1
    assert 2 * n > core._PAIR_BLOCK
    return csp_of([VariableSpec.uniform(2)] * n,
                  [(tuple(range(n)), (0,) * n)]
                  + [((v,), (0,)) for v in range(n)])


def keys_beyond_int32():
    # so many short constraints that one block's keys (constraint in the
    # block, neighbour) pass 2^31; among them, twin constraints whose pairs
    # are all repeats, so a key that wraps around misplaces their counts
    rng = random.Random(1)
    n, m, twins = 100_000, 70_000, 500
    cons = [tuple(rng.sample(range(n), rng.randint(1, 2))) for _ in range(m)]
    for t in range(twins):
        scope = tuple(range(n + 10 * t, n + 10 * t + 10))
        at = rng.randrange(len(cons))
        cons[at:at] = [scope, scope]
    csp = csp_of([VariableSpec.uniform(2)] * (n + 10 * twins),
                 [(vbl, (0,) * len(vbl)) for vbl in cons])
    f = csp.flat
    assert np.diff(f.var_ptr)[f.cons_vars].sum() <= core._PAIR_BLOCK
    assert m * m > 1 << 31
    return csp


def check_index_and_measures(csp):
    f = csp.flat
    assert [f.var_cons[f.var_ptr[v]:f.var_ptr[v + 1]].tolist()
            for v in range(csp.num_vars)] == constraints_of_variables(csp)
    m = compute_measures(csp)
    assert (m.k, m.d, m.delta) == reference_measures(csp)


@given(random_instances())
def test_csr_index_and_measures_match_a_constraint_scan(csp):
    check_index_and_measures(csp)


@pytest.mark.parametrize("build", [more_pairs_than_a_block,
                                   one_constraint_over_a_block,
                                   keys_beyond_int32])
def test_measures_match_a_constraint_scan_across_blocks(build):
    # too slow for a hypothesis example's deadline
    check_index_and_measures(build())


def test_falsifiable_and_projection():
    csp = mixed_csp()
    comp = component(csp, [False, False], [STAR, 1], 0)
    assert comp.token and comp.component_vars == (0,)
    # both constraints are falsifiable and survive, restricted to variable 0
    assert comp.component_constraints == (0, 1)
    projected = projected_constraints(csp, comp, [STAR, 1])
    assert [vbl for vbl, _ in projected] == [(0,), (0,)]
    assert comp.entries == (((0, 0),), ((0, 2),))
    comp2 = component(csp, [False, False], np.array([STAR, 2]), 0)
    # the (u,v)=(c,B) constraint dropped
    assert comp2.component_constraints == (0,)
    projected = projected_constraints(csp, comp2, [STAR, 2])
    assert [vbl for vbl, _ in projected] == [(0,)]
    assert comp2.entries == (((0, 0),),)


def test_projection_measures_do_not_increase():
    csp = mixed_csp()
    comp = component(csp, [False, False], [STAR, 1], 0)
    index = {v: i for i, v in enumerate(comp.component_vars)}
    proj = csp_of(
        [csp.vars[v] for v in comp.component_vars],
        [(tuple(index[v] for v in vbl), fals)
         for vbl, fals in projected_constraints(csp, comp, [STAR, 1])])
    before = compute_measures(csp)
    after = compute_measures(proj)
    assert after.k <= before.k
    assert after.d <= before.d
    assert after.delta <= before.delta
    assert after.log_p <= before.log_p + 1e-12


def test_preprocess_removes_singletons():
    csp = csp_of(
        [VariableSpec.uniform(2), VariableSpec(1, (1.0,)),
         VariableSpec.uniform(2)],
        [((0, 1, 2), (0, 0, 1))])
    out, kept = preprocess(csp)
    assert kept == (0, 2)
    assert out.num_vars == 2
    assert constraint_pairs(out)[0] == ((0, 1), (0, 1))


def test_preprocess_keeps_entry_order():
    one = VariableSpec(1, (1.0,))
    spec = VariableSpec(3, (0.5, 0.3, 0.2))
    csp = csp_of(
        [spec, one, spec, one, spec],
        [((4, 1, 0), (2, 0, 1)), ((3, 2), (0, 0)), ((2, 4, 0), (1, 1, 1))])
    out, kept = preprocess(csp)
    assert kept == (0, 2, 4)
    assert constraint_pairs(out) == [
        ((2, 0), (2, 1)), ((1,), (0,)), ((1, 2, 0), (1, 1, 1))]
    assert out.vars == (spec,) * 3


def test_preprocess_unsat():
    csp = csp_of([VariableSpec(1, (1.0,))], [((0,), (0,))])
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
        cons.append((
            tuple(vbl),
            tuple(draw(st.integers(0, sizes[v] - 1)) for v in vbl)))
    values = [draw(st.integers(0, q - 1)) for q in sizes]
    return csp_of([VariableSpec.uniform(q) for q in sizes], cons), values


@given(csp_and_assignment())
def test_satisfies_matches_constraint_scan(case):
    csp, values = case
    expect = not any(all(values[v] == q for v, q in zip(vbl, fals))
                     for vbl, fals in constraint_pairs(csp))
    assert csp.satisfies(values) == expect


def test_flat_view():
    csp, _ = overlap18()
    f = csp.flat
    assert f is csp.flat
    assert f.cons_vars.tolist() == list(range(10)) + list(range(8, 18))
    assert f.cons_fals.tolist() == [0] * 20
    assert f.starts.tolist() == [0, 10]
    assert f.arity.tolist() == [10, 10]
    assert f.log_w.tolist() == [math.log(0.2)] * 20
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


def test_no_builtin_float_sum():
    # from Python 3.12 on the builtin ``sum`` compensates float sums, so an
    # instance, a safe total or a marginal would depend on the interpreter;
    # ``core.left_sum`` adds left to right, as 3.11's ``sum`` does
    assert core.left_sum([0.1] * 10) == 0.9999999999999999
    src = Path(__file__).resolve().parent.parent / "src" / "lllsampler"
    found = []
    for name in ("core", "frontends", "kernels", "marking", "sampler",
                 "tensorization"):
        path = src / f"{name}.py"
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "sum"):
                found.append(f"{name}.py:{node.lineno}")
    assert found == []


def test_flatten_hashes_each_spec_object_once(monkeypatch):
    # hashing a VariableSpec hashes its weight tuple; ``parse_dimacs`` passes
    # one shared spec object for every variable
    calls = []
    spec_hash = VariableSpec.__hash__

    def counting_hash(self):
        calls.append(self)
        return spec_hash(self)

    monkeypatch.setattr(VariableSpec, "__hash__", counting_hash)
    rng = random.Random(3)
    n = 1000
    clauses = [" ".join(str(rng.choice((1, -1)) * v)
                        for v in rng.sample(range(1, n + 1), 3)) + " 0"
               for _ in range(400)]
    csp = parse_dimacs(f"p cnf {n} {len(clauses)}\n" + "\n".join(clauses))
    distinct = {id(s) for s in csp.vars}
    assert csp.num_vars == n and len(distinct) == 1
    assert 1 <= len(calls) <= len(distinct)
    # equal specs in distinct objects still share one row
    a, b = VariableSpec(2, (0.3, 0.7)), VariableSpec(2, (0.3, 0.7))
    c = VariableSpec.uniform(2)
    f = csp_of([a, c, b, a, c], []).flat
    assert f.spec_of.tolist() == [0, 1, 0, 0, 1]
    assert f.specs[0] is a and f.specs[1] is c


def test_flatten_tests_one_spec_by_identity(monkeypatch):
    # specs that alternate, as a tensorized instance's node variables do,
    # are told apart without the dataclass ``__eq__`` of each variable
    calls = []
    spec_eq = VariableSpec.__eq__

    def counting_eq(self, other):
        calls.append(self)
        return spec_eq(self, other)

    monkeypatch.setattr(VariableSpec, "__eq__", counting_eq)
    a, c = VariableSpec(2, (0.3, 0.7)), VariableSpec.uniform(3)
    f = csp_of([a, c] * 500, []).flat
    assert f.specs == (a, c) and f.spec_of.tolist() == [0, 1] * 500
    assert len(calls) <= 2
