import json
import math
import random
import warnings

import numpy as np
import pytest

from lllsampler import (HypergraphInstance, InvalidInstanceError,
                        VariableSpec, frontends, ParseError, build_coloring,
                        compute_measures, emit_csp, emit_dimacs,
                        emit_hypergraph, parse_csp, parse_dimacs,
                        parse_hypergraph)
from lllsampler.verify import enumerate_law

from conftest import (constraint_pairs, counted_measures, csp_of, free8,
                      mixed_csp, random_weighted_csp)


DIMACS = """c tiny example
p cnf 3 2
1 -2 3 0
-1 2 0
"""


def test_parse_dimacs_example():
    csp = parse_dimacs(DIMACS)
    assert csp.num_vars == 3 and len(csp.flat.arity) == 2
    (vbl, fals), (_, second) = constraint_pairs(csp)
    assert vbl == (0, 1, 2)
    # "1 -2 3" is falsified exactly by x1=0, x2=1, x3=0
    assert fals == (0, 1, 0)
    assert second == (1, 0)


def test_parse_dimacs_errors_and_warnings():
    with pytest.raises(ParseError):
        parse_dimacs("1 2 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 3 0\n")
    with pytest.raises(ParseError):
        parse_dimacs("p cnf 2 1\n1 2\n")
    with pytest.warns(UserWarning):
        csp = parse_dimacs("p cnf 2 2\n1 -1 0\n1 2 0\n")
    assert len(csp.flat.arity) == 1
    # duplicate literal collapses
    csp = parse_dimacs("p cnf 2 1\n1 1 2 0\n")
    assert constraint_pairs(csp)[0][0] == (0, 1)


# DIMACS text -> (message, line) of the ParseError it raises; the first
# error in file order is the one reported.  A clause's own errors are
# reported at the line of its terminating 0, and a line with a non-integer
# token fails before any clause it ends.
DIMACS_ERRORS = [
    ("", "missing problem line", None),
    ("c only a comment\n\n", "missing problem line", None),
    ("c x\n1 2 0\np cnf 2 1\n", "clause before the problem line", 2),
    ("p cnf 2\n1 0\n", "malformed problem line", 1),
    ("c x\np dnf 2 1\n1 0\n", "malformed problem line", 2),
    ("p cnf two 1\n1 0\n", "malformed problem line", 1),
    ("p cnf 0 1\n", "variable count must be positive", 1),
    ("p cnf 3 2\n1 2 0\nc between\n3 x 0\n", "non-integer literal", 4),
    ("p cnf 3 2\n1 2\n-3 1.5 0\n", "non-integer literal", 3),
    # a clause spanning lines, its bad literal on the first of them
    ("p cnf 3 1\n1 5\nc between\n2 0\n", "literal 5 out of range", 4),
    # two clauses on one line, the second one bad
    ("p cnf 3 2\n1 2 0 -4 0\n", "literal -4 out of range", 2),
    ("p cnf 3 2\n1 -2\n4 0 2 0\n", "literal 4 out of range", 3),
    ("p cnf 3 2\n1 2 0 0\n", "empty clause", 2),
    ("p cnf 3 2\n0\n", "empty clause", 2),
    ("p cnf 3 2\n1 2 0\n3\n", "last clause is not 0-terminated", None),
    ("p cnf 3 1\n1 0 2 0\n", "more clauses than the header declares",
     None),
    # first in file order
    ("p cnf 3 3\n1 2 0\n5 0\nx 0\n", "literal 5 out of range", 3),
    ("p cnf 3 3\n1 x 0\n5 0\n", "non-integer literal", 2),
    ("p cnf 3 3\n5 0 x\n", "non-integer literal", 2),
    ("p cnf 3 3\n0 5 0\n", "empty clause", 2),
    # a tautology does not hide an out-of-range literal of its clause
    ("p cnf 2 1\n1 -1 5 0\n", "literal 5 out of range", 2),
    ("p cnf 2 2\n1\n2 0 2 -2\n99999999999999999999 0\n",
     "literal 99999999999999999999 out of range", 4),
    # one problem line, with a clause count of at least 0
    ("p cnf 3 2\n3 0\np cnf 1 5\n", "duplicate problem line", 3),
    ("p cnf 3 2\n3 0\nc x\n  p cnf 3 2\n1 0\n", "duplicate problem line",
     4),
    ("p cnf 3 2\n3\np cnf 3 2\n", "duplicate problem line", 3),
    ("p cnf 3 2\n5 0\np cnf 3 2\n", "literal 5 out of range", 2),
    ("p cnf 3 -1\n", "malformed problem line", 1),
]


@pytest.mark.parametrize("text, message, line", DIMACS_ERRORS)
def test_parse_dimacs_error_table(text, message, line):
    with pytest.raises(ParseError) as e:
        parse_dimacs(text)
    assert e.value.line == line
    assert str(e.value) == (message if line is None
                            else f"line {line}: {message}")


def test_parse_dimacs_tautology_warnings():
    # a tautology is dropped with a warning at the line of its 0; warnings
    # before an error are still given
    text = "c x\np cnf 4 3\n1 2\n-1 0 3 -3 0\nc y\n4 1 -4 0 2 4 0\n"
    with pytest.warns(UserWarning) as record:
        csp = parse_dimacs(text)
    assert [str(w.message) for w in record] == [
        "line 4: tautological clause dropped",
        "line 4: tautological clause dropped",
        "line 6: tautological clause dropped"]
    assert constraint_pairs(csp) == [((1, 3), (0, 0))]
    with pytest.warns(UserWarning) as record:
        with pytest.raises(ParseError, match="line 4: literal 9 out of range"):
            parse_dimacs("p cnf 3 3\n1 -1 0\n2 -2\n0 9 0\n")
    assert [str(w.message) for w in record] == [
        "line 2: tautological clause dropped",
        "line 4: tautological clause dropped"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        csp = parse_dimacs("p cnf 3 2\n1 1 -2\n0 -3 2 -3 0\n")
    assert constraint_pairs(csp) == [((0, 1), (0, 1)), ((1, 2), (0, 1))]


def reference_dimacs(text):
    """The kept clauses as (vbl, falsifying) and the lines of the dropped
    tautologies, reading one line and one literal at a time."""
    clauses, dropped, pending = [], [], []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] in "cp":
            continue
        for lit in map(int, line.split()):
            if lit:
                pending.append(lit)
                continue
            sign = {}
            if any(sign.setdefault(abs(x) - 1, x > 0) != (x > 0)
                   for x in pending):
                dropped.append(lineno)
            else:
                vbl = tuple(sorted(sign))
                clauses.append((vbl, tuple(int(not sign[v]) for v in vbl)))
            pending = []
    return clauses, dropped


def test_parse_dimacs_matches_reference():
    # duplicate literals, tautologies, clauses spanning lines, several
    # clauses on a line, blank lines and, on every other text, comment lines
    rng = random.Random(8)
    for i in range(200):
        n = rng.randint(1, 6)
        tokens = []
        for _ in range(rng.randint(0, 12)):
            tokens += [rng.choice((1, -1)) * rng.randint(1, n)
                       for _ in range(rng.randint(1, 5))] + [0]
        lines = [f"p cnf {n} {tokens.count(0)}", ""]
        while tokens:
            cut = rng.randint(1, 6)
            lines.append(" ".join(map(str, tokens[:cut])))
            tokens = tokens[cut:]
            if i % 2 and rng.random() < 0.3:
                lines.append("c comment")
        text = "\n".join(lines) + "\n"
        with warnings.catch_warnings(record=True) as record:
            warnings.simplefilter("always")
            csp = parse_dimacs(text)
        clauses, dropped = reference_dimacs(text)
        assert csp.num_vars == n
        assert constraint_pairs(csp) == clauses
        assert [str(w.message) for w in record] == [
            f"line {x}: tautological clause dropped" for x in dropped]


def test_comment_lines_keep_the_array_path(monkeypatch):
    # comment and blank lines among the clauses are dropped, with their
    # line numbers, and the rest is read as one array
    def refuse(*args):
        raise AssertionError("read line by line")

    monkeypatch.setattr(frontends, "_read_lines", refuse)
    text = ("c head\np cnf 3 3\nc x\n1 -2 0\n\n  c y\n2 3\nc z\n-1 0\n"
            "1 1 -1 0\n")
    with pytest.warns(UserWarning) as record:
        csp = parse_dimacs(text)
    assert [str(w.message) for w in record] == [
        "line 10: tautological clause dropped"]
    assert constraint_pairs(csp) == [((0, 1), (0, 1)),
                                     ((0, 1, 2), (1, 0, 0))]
    assert constraint_pairs(csp) == reference_dimacs(text)[0]
    with pytest.raises(ParseError, match="line 5: literal 5 out of range"):
        parse_dimacs("p cnf 3 1\nc x\n1 5\nc y\n2 0\n")


def test_dimacs_roundtrip():
    csp = parse_dimacs(DIMACS)
    again = parse_dimacs(emit_dimacs(csp))
    assert again == csp


def random_cnf(rng):
    """Up to 20 clauses over 1-12 uniform bits, each clause's variables
    ascending and distinct, as ``parse_dimacs`` gives them."""
    n = rng.randint(1, 12)
    clauses = []
    for _ in range(rng.randint(0, 20)):
        vbl = tuple(sorted(rng.sample(range(n), rng.randint(1, n))))
        clauses.append((vbl, tuple(rng.randrange(2) for _ in vbl)))
    return csp_of([VariableSpec.uniform(2)] * n, clauses)


def test_emitters_roundtrip_random_instances():
    rng = random.Random(12)
    free, _ = free8()
    for csp in [free, *(random_cnf(rng) for _ in range(200))]:
        assert parse_dimacs(emit_dimacs(csp)) == csp
    for csp in [free, *(random_weighted_csp(rng) for _ in range(200))]:
        again = parse_csp(emit_csp(csp))
        for name in ("cons_vars", "cons_fals", "arity"):
            assert np.array_equal(getattr(again.flat, name),
                                  getattr(csp.flat, name))
        assert [s.domain_size for s in again.vars] == [
            s.domain_size for s in csp.vars]


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
    assert len(csp.flat.arity) == 4
    law = enumerate_law(csp)
    assert len(law.support) == 2  # alternating colorings only
    m = compute_measures(csp)
    assert m.k == 2 and m.q == 2
    assert m.log_p == pytest.approx(2 * math.log(0.5))
    # Delta counts color-copies: both edges meet, so Q * Delta(H) = 2 * 2
    assert m.delta == 2 * 2


def test_build_coloring_derives_counted_measures():
    # random hypergraphs with overlapping and repeated edges and isolated
    # vertices; Q = 256 copies each edge 256 times, so its graphs are small
    rng = random.Random(12)
    for q, count, size in ((2, 60, 10), (3, 60, 10), (256, 8, 4)):
        for _ in range(count):
            n = rng.randint(1, size)
            k = rng.randint(1, n)
            edges = [tuple(rng.sample(range(n), k))
                     for _ in range(rng.randint(1, size // 2))]
            edges += rng.sample(edges, rng.randint(0, len(edges)))
            h = HypergraphInstance(n + rng.randint(0, 2), tuple(edges))
            csp = build_coloring(h, q)
            assert csp.measures == counted_measures(csp)
    # a hypergraph without edges is refused before any coloring
    with pytest.raises(InvalidInstanceError):
        HypergraphInstance(3, ())


def test_build_coloring_three_colors():
    h = HypergraphInstance(3, ((0, 1, 2),))
    csp = build_coloring(h, 3)
    assert len(csp.flat.arity) == 3
    law = enumerate_law(csp)
    assert len(law.support) == 27 - 3


def test_csp_json_roundtrip():
    csp = mixed_csp()
    again = parse_csp(emit_csp(csp))
    assert constraint_pairs(again) == constraint_pairs(csp)
    for a, b in zip(again.vars, csp.vars):
        assert a.domain_size == b.domain_size
        # renormalization may perturb the last bit
        assert a.weights == pytest.approx(b.weights, abs=1e-15)


def test_parse_csp_shares_equal_specs():
    # equal (domain, weights) pairs share one spec object, written either
    # way; others keep their own, in first-use order
    doc = {"vars": [{"domain": 2}] * 999
           + [{"domain": 2, "weights": [0.5, 0.5]}],
           "constraints": [{"vbl": [0, 999], "false": [0, 1]}]}
    csp = parse_csp(json.dumps(doc))
    assert len({id(s) for s in csp.vars}) == 1
    assert csp.flat.specs == (VariableSpec.uniform(2),)
    doc["vars"] = [{"domain": 3}, {"domain": 2}, {"domain": 3},
                   {"domain": 2, "weights": [0.3, 0.7]}, {"domain": 2}]
    csp = parse_csp(json.dumps(doc | {"constraints": []}))
    assert [id(s) for s in csp.vars].count(id(csp.vars[0])) == 2
    assert csp.vars[1] is csp.vars[4] and csp.vars[1] is not csp.vars[3]
    assert csp.flat.spec_of.tolist() == [0, 1, 0, 2, 1]


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
    with pytest.raises(ParseError, match=r"constraints\[0\]: constraint "
                       "variables must be distinct"):
        parse_csp('{"vars": [{"domain": 2}], '
                  '"constraints": [{"vbl": [0, 0], "false": [0, 1]}]}')
    with pytest.raises(ParseError, match="positive numeric weights"):
        parse_csp('{"vars": [{"domain": 2, "weights": [NaN, 0.5]}, '
                  '{"domain": 2}], '
                  '"constraints": [{"vbl": [0, 1], "false": [0, 0]}]}')
    big = "1" + "0" * 400
    with pytest.raises(ParseError, match=r"vars\[0\] needs finite weights"):
        parse_csp('{"vars": [{"domain": 2, "weights": [%s, 1]}]}' % big)
    with pytest.raises(ParseError, match=r"vars\[0\] weights sum to inf"):
        parse_csp('{"vars": [{"domain": 2, "weights": [1e400, 1]}]}')
    for n in (big, "100000000000000000000"):
        with pytest.raises(ParseError, match=r"vars\[0\]\.domain exceeds"):
            parse_csp('{"vars": [{"domain": %s}]}' % n)
