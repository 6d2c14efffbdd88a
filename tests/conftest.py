"""Shared instances used across the test modules."""

import pytest

from lllsampler import (AtomicConstraint, AtomicCsp, Marking, VariableSpec)


def weighted8():
    """8 binary variables with weights (0.2, 0.8), one arity-8 constraint
    forbidding all-0; marking the first 5 variables satisfies the chain
    conditions with room to spare."""
    vars = [VariableSpec(2, (0.2, 0.8)) for _ in range(8)]
    csp = AtomicCsp(vars, [AtomicConstraint(tuple(range(8)), (0,) * 8)])
    return csp, Marking.from_indices(8, range(5))


def uniform20():
    """20 uniform binary variables, one arity-20 constraint; 14 marked."""
    vars = [VariableSpec.uniform(2) for _ in range(20)]
    csp = AtomicCsp(vars, [AtomicConstraint(tuple(range(20)), (0,) * 20)])
    return csp, Marking.from_indices(20, range(14))


def overlap18():
    """18 weighted binary variables; two arity-10 constraints sharing
    variables 8 and 9; 6 marked in each, none shared."""
    vars = [VariableSpec(2, (0.2, 0.8)) for _ in range(18)]
    cons = [AtomicConstraint(tuple(range(10)), (0,) * 10),
            AtomicConstraint(tuple(range(8, 18)), (0,) * 10)]
    csp = AtomicCsp(vars, cons)
    return csp, Marking.from_indices(18, list(range(6)) + list(range(12, 18)))


def ternary9():
    """9 ternary variables with weights (0.5, 0.3, 0.2) and two arity-5
    constraints sharing variable 7; the first 6 marked.  Each marked
    variable's safe mass is about 0.49, so about half the marked slots of a
    sweep enter the residual layer."""
    spec = VariableSpec(3, (0.5, 0.3, 0.2))
    cons = [AtomicConstraint((0, 1, 2, 6, 7), (0, 1, 0, 2, 2)),
            AtomicConstraint((3, 4, 5, 7, 8), (1, 0, 0, 2, 2))]
    return AtomicCsp([spec] * 9, cons), Marking.from_indices(9, range(6))


def free8():
    """Constraint-free uniform binary instance, everything marked."""
    csp = AtomicCsp([VariableSpec.uniform(2) for _ in range(8)], [])
    return csp, Marking.from_indices(8, range(8))


def mixed_csp():
    """Two mixed-size weighted domains and two constraints (one unary)."""
    return AtomicCsp(
        [VariableSpec(3, (1 / 3, 1 / 3, 1 / 3)),
         VariableSpec(4, (0.25, 0.25, 1 / 3, 1 / 6))],
        [AtomicConstraint((0,), (0,)),
         AtomicConstraint((0, 1), (2, 1))])


@pytest.fixture
def weighted8_csp():
    return weighted8()


@pytest.fixture
def uniform20_csp():
    return uniform20()
