import math

import pytest

from lllsampler import (HypergraphInstance, ParseError, build_coloring,
                        compute_measures, emit_csp, emit_dimacs,
                        emit_hypergraph, parse_csp, parse_dimacs,
                        parse_hypergraph)
from lllsampler.verify import enumerate_law

from conftest import mixed_csp


DIMACS = """c tiny example
p cnf 3 2
1 -2 3 0
-1 2 0
"""


def test_parse_dimacs_example():
    csp = parse_dimacs(DIMACS)
    assert csp.num_vars == 3 and len(csp.constraints) == 2
    c = csp.constraints[0]
    assert c.vbl == (0, 1, 2)
    # "1 -2 3" is falsified exactly by x1=0, x2=1, x3=0
    assert c.falsifying == (0, 1, 0)
    assert csp.constraints[1].falsifying == (1, 0)


def test_parse_dimacs_errors_and_warnings():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.warns(UserWarning):
        csp = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
    assert len(csp.constraints) == 1
    # duplicate literal collapses
    csp = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert csp.constraints[0].vbl == (0, 1)


def test_dimacs_roundtrip():
    csp = parse_dimacs(DIMACS)
    again = parse_dimacs(emit_dimacs(csp))
    assert again == csp


def test_hypergraph_parse_and_roundtrip():
    text = "c comment\nh 4 2 3\n1 2 3\n2 3 4\n"
    h = parse_hypergraph(text)
    assert h.num_vertices == 4 and h.k == 3
    assert h.edges == ((0, 1, 2), (1, 2, 3))
    # the two edges meet: Delta(H) = 2, each color copy meets Q copies
    assert build_coloring(h, 3).measures.delta == 3 * 2
    assert parse_hypergraph(emit_hypergraph(h)) == h
    with pytest.raises(ParseError):
        parse_hypergraph("h 4 2 3\n1 2 3\n")
    with pytest.raises(ParseError):
        parse_hypergraph("h 4 1 3\n1 2 5\n")
    with pytest.raises(ParseError):
        parse_hypergraph("h 4 1 3\n1 1 2\n")


def test_build_coloring_counts_and_measures():
    # path with two edges, 2 colors: 2^4 = 16 assignments, monochromatic
    # edges forbidden leaves 8 proper colorings... enumerate to be sure
    h = HypergraphInstance(3, ((0, 1), (1, 2)))
    csp = build_coloring(h, 2)
    assert len(csp.constraints) == 4
    law = enumerate_law(csp)
    assert len(law.support) == 2  # alternating colorings only
    m = compute_measures(csp)
    assert m.k == 2 and m.q == 2
    assert m.log_p == pytest.approx(2 * math.log(0.5))
    # Delta counts color-copies: both edges meet, so Q * Delta(H) = 2 * 2
    assert m.delta == 2 * 2


def test_build_coloring_three_colors():
    h = HypergraphInstance(3, ((0, 1, 2),))
    csp = build_coloring(h, 3)
    assert len(csp.constraints) == 3
    law = enumerate_law(csp)
    assert len(law.support) == 27 - 3


def test_csp_json_roundtrip():
    csp = mixed_csp()
    again = parse_csp(emit_csp(csp))
    assert again.constraints == csp.constraints
    for a, b in zip(again.vars, csp.vars):
        assert a.domain_size == b.domain_size
        # renormalization may perturb the last bit
        assert a.weights == pytest.approx(b.weights, abs=1e-15)


def test_parse_csp_defaults_and_errors():
    csp = parse_csp('{"vars": [{"domain": 3}]}')
    assert csp.vars[0].weights == (pytest.approx(1 / 3),) * 3
    with pytest.raises(ParseError):
        parse_csp("not json")
    with pytest.raises(ParseError):
        parse_csp('{"vars": [{"domain": 2, "weights": [0.9, 0.9]}]}')
    with pytest.raises(ParseError):
        parse_csp('{"vars": [{"domain": 2}], '
                  '"constraints": [{"vbl": [0], "false": [2]}]}')
    with pytest.raises(ParseError):
        parse_csp('{"vars": [{"domain": 2}], '
                  '"constraints": [{"vbl": [0, 0], "false": [0, 1]}]}')
    with pytest.raises(ParseError, match="positive numeric weights"):
        parse_csp('{"vars": [{"domain": 2, "weights": [NaN, 0.5]}, '
                  '{"domain": 2}], '
                  '"constraints": [{"vbl": [0, 1], "false": [0, 0]}]}')
