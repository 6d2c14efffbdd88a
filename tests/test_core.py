import math

import pytest
from hypothesis import given, strategies as st

from lllsampler import (AtomicConstraint, AtomicCsp, InvalidInstanceError,
                        PartialAssignment, STAR, UnsatisfiableInstanceError,
                        VariableSpec, compute_measures, falsifiable_under,
                        preprocess, project)

from conftest import mixed_csp


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
    with pytest.raises(InvalidInstanceError):
        AtomicCsp([VariableSpec.uniform(2)], [AtomicConstraint((0,), (2,))])


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


def test_falsifiable_and_projection():
    csp = mixed_csp()
    sigma = PartialAssignment([STAR, 1])
    c_binary = csp.constraints[1]
    assert falsifiable_under(c_binary, sigma)
    proj = project(csp, sigma)
    assert proj.free_vars == (0,)
    # both constraints survive, restricted to variable 0
    assert len(proj.constraints) == 2
    assert all(c.vbl == (0,) for c in proj.constraints)
    sigma2 = PartialAssignment([STAR, 2])
    proj2 = project(csp, sigma2)
    assert len(proj2.constraints) == 1  # the (u,v)=(c,B) constraint dropped


def test_projection_detects_violation():
    csp = mixed_csp()
    with pytest.raises(UnsatisfiableInstanceError):
        project(csp, PartialAssignment([0, STAR]))


def test_projection_measures_do_not_increase():
    csp = mixed_csp()
    proj = project(csp, PartialAssignment([STAR, 1])).to_atomic_csp()
    before = compute_measures(csp)
    after = compute_measures(proj)
    assert after.k <= before.k
    assert after.d <= before.d
    assert after.delta <= before.delta
    assert after.log_p <= before.log_p + 1e-12


def test_containment():
    a = PartialAssignment([0, 1, 2])
    b = PartialAssignment([0, STAR, 2])
    assert a.contained_in(b)
    assert not b.contained_in(a) or b.values == a.values
    assert a.contained_in(PartialAssignment.all_star(3))


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
