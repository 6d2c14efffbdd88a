"""Instance frontends: DIMACS CNF, k-uniform hypergraph coloring, and a
general JSON interchange format for weighted atomic CSPs.

Each parser has a matching emitter so canonicalized instances round-trip.
"""

from __future__ import annotations

import json
import sys
import warnings
from dataclasses import dataclass

import numpy as np

from .core import (AtomicCsp, VariableSpec, constraint_degree, flatten,
                   left_sum, measures_with)
from .errors import InvalidInstanceError, ParseError

_WEIGHT_TOL = 1e-9


@dataclass(frozen=True)
class HypergraphInstance:
    """A k-uniform hypergraph: every edge has exactly k distinct vertices."""

    num_vertices: int
    edges: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.num_vertices < 1:
            raise InvalidInstanceError("hypergraph needs at least one vertex")
        if not self.edges:
            raise InvalidInstanceError("hypergraph needs at least one edge")
        k = len(self.edges[0])
        for e in self.edges:
            if len(e) != k:
                raise InvalidInstanceError("edges must all have size k")
            if len(set(e)) != len(e):
                raise InvalidInstanceError("edge vertices must be distinct")
            for v in e:
                if not 0 <= v < self.num_vertices:
                    raise InvalidInstanceError(f"vertex {v} out of range")

    @property
    def k(self) -> int:
        return len(self.edges[0])


def parse_dimacs(text: str) -> AtomicCsp:
    """DIMACS CNF to an atomic CSP over uniform binary variables.

    A clause's single falsifying assignment sets every literal false.
    Duplicate literals are dropped; tautological clauses (x and not x) are
    dropped entirely with a warning.  The lines after the problem line are
    read as one array of literals, in which the zeros end the clauses; when
    they hold more than integers, the blank and comment lines are dropped
    first.  The first error in file order is raised: a clause's own errors
    at the line of its terminating 0, and a line with a non-integer token
    before any clause that it ends.
    """
    lines = text.splitlines()
    header = None
    for i, raw in enumerate(lines):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if not line.startswith("p"):
            raise ParseError("clause before the problem line", i + 1)
        header = _problem_line(line, i + 1)
        break
    if header is None:
        raise ParseError("missing problem line")
    num_vars, num_clauses = header
    lines, linenos = lines[i + 1:], range(i + 2, len(lines) + 1)
    lits, stop = _integers(" ".join(lines)), None
    if lits is None:
        kept = [(line, lineno) for line, lineno in zip(lines, linenos)
                if line.lstrip()[:1] not in ("", "c")]
        lines = [line for line, _ in kept]
        linenos = [lineno for _, lineno in kept]
        lits = _integers(" ".join(lines))
        if lits is None:
            lits, lines, linenos, stop = _read_lines(lines, linenos,
                                                     num_vars)
    zero = lits == 0
    ends = np.flatnonzero(zero)    # each clause's terminating 0
    cid = np.cumsum(zero)          # per literal, its clause (0s before it)
    size = np.diff(ends, prepend=-1) - 1
    lit = ~zero
    out = lit & ((lits > num_vars) | (lits < -num_vars))
    # a clause is bad when empty or holding a literal out of range
    bad = size == 0
    hit = cid[out]
    bad[hit[hit < len(ends)]] = True
    done = int(bad.argmax()) if bad.any() else len(ends)
    # the clauses before the first bad one, by one sort over (clause,
    # variable, sign): equal neighbours are duplicate literals, and
    # neighbours equal but for the sign make a tautology
    head = lit & (cid < done)
    signed = lits[head]
    key = np.sort((cid[head] * num_vars + np.abs(signed) - 1) * 2
                  + (signed < 0))
    key = key[np.diff(key, prepend=-1) != 0]
    pair = key >> 1
    clause = pair // num_vars
    taut = np.zeros(done, dtype=bool)
    taut[clause[1:][pair[1:] == pair[:-1]]] = True
    if taut.any() or done < len(ends):
        at = np.repeat(linenos, [len(line.split()) for line in lines])
        for lineno in at[ends[np.flatnonzero(taut)]].tolist():
            warnings.warn(f"line {lineno}: tautological clause dropped")
        if done < len(ends):
            lineno = int(at[ends[done]])
            if size[done] == 0:
                raise ParseError("empty clause", lineno)
            first = np.flatnonzero(out & (cid == done))[0]
            literal = int(" ".join(lines).split()[first])
            raise ParseError(f"literal {literal} out of range", lineno)
    if stop is not None:
        raise stop
    if len(lits) and not zero[-1]:
        raise ParseError("last clause is not 0-terminated")
    if done - int(taut.sum()) > num_clauses:
        raise ParseError("more clauses than the header declares")
    keep = ~taut[clause]
    return AtomicCsp(
        [VariableSpec.uniform(2)] * num_vars, (pair % num_vars)[keep],
        key[keep] & 1, np.bincount(clause[keep], minlength=done)[~taut])


def _problem_line(line: str, lineno: int) -> tuple[int, int]:
    """The variable and clause counts of a "p cnf" line."""
    parts = line.split()
    if len(parts) != 4 or parts[1] != "cnf":
        raise ParseError("malformed problem line", lineno)
    try:
        num_vars, num_clauses = int(parts[2]), int(parts[3])
    except ValueError:
        raise ParseError("malformed problem line", lineno) from None
    if num_vars < 1:
        raise ParseError("variable count must be positive", lineno)
    if num_clauses < 0:
        raise ParseError("malformed problem line", lineno)
    return num_vars, num_clauses


_INT64 = np.iinfo(np.int64)


def _integers(body: str):
    """The integers of ``body`` in one C pass, or None unless it holds only
    ASCII whitespace and decimal integers inside int64 (so no comment line,
    problem line or bad token)."""
    if not body.isascii():
        return None
    b = np.frombuffer(body.encode(), dtype=np.uint8)
    digit = b - 48 < 10     # uint8 arithmetic wraps below "0"
    sign = (b == 43) | (b == 45)
    if (not (digit | sign | (b == 32) | (b - 9 < 5)).all()
            or (sign & ~np.append(digit[1:], False)).any()):
        return None
    if not digit.any():
        return np.zeros(0, dtype=np.int64)
    try:
        lits = np.fromstring(body, dtype=np.int64, sep=" ")
    except ValueError:
        return None
    # fromstring saturates at the int64 bounds
    if ((lits == _INT64.max) | (lits == _INT64.min)).any():
        return None
    return lits


def _read_lines(lines, linenos, num_vars):
    """The literals line by line, up to a second problem line or a line with
    a non-integer token, whose error is returned; with the lines read and
    their numbers.  A literal outside int64 is out of range, and stays
    so."""
    values, read, numbers, stop = [], [], [], None
    for raw, lineno in zip(lines, linenos):
        line = raw.strip()
        if line.startswith("p"):
            stop = ParseError("duplicate problem line", lineno)
            break
        try:
            values += [int(x) for x in line.split()]
        except ValueError:
            stop = ParseError("non-integer literal", lineno)
            break
        read.append(line)
        numbers.append(lineno)
    bound = num_vars + 1
    return (np.array([max(-bound, min(x, bound)) for x in values],
                     dtype=np.int64), read, numbers, stop)


def emit_dimacs(csp: AtomicCsp) -> str:
    for spec in csp.flat.specs:
        if spec.domain_size != 2 or spec.weights != (0.5, 0.5):
            raise InvalidInstanceError(
                "DIMACS output requires uniform binary variables")
    f = csp.flat
    lits = np.where(f.cons_fals == 0, f.cons_vars + 1,
                    -(f.cons_vars + 1)).tolist()
    lines = [f"p cnf {csp.num_vars} {len(f.arity)}"]
    lines += [" ".join(map(str, lits[a:b])) + " 0" for a, b in f.spans()]
    return "\n".join(lines) + "\n"


def parse_hypergraph(text: str) -> HypergraphInstance:
    """Header "h <nvertices> <nedges> <k>", then one edge per line as k
    space-separated 1-based vertex ids."""
    header = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if header is None:
            parts = line.split()
            if len(parts) != 4 or parts[0] != "h":
                raise ParseError("malformed hypergraph header", lineno)
            try:
                header = tuple(int(x) for x in parts[1:])
            except ValueError:
                raise ParseError("malformed hypergraph header", lineno) from None
            continue
        try:
            vs = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError("non-integer vertex id", lineno) from None
        if len(vs) != header[2]:
            raise ParseError(f"edge must have {header[2]} vertices", lineno)
        if any(not 1 <= v <= header[0] for v in vs):
            raise ParseError("vertex id out of range", lineno)
        edges.append(tuple(v - 1 for v in vs))
    if header is None:
        raise ParseError("missing hypergraph header")
    if len(edges) != header[1]:
        raise ParseError(
            f"expected {header[1]} edges, found {len(edges)}")
    try:
        return HypergraphInstance(header[0], tuple(edges))
    except InvalidInstanceError as e:
        raise ParseError(str(e)) from None


def emit_hypergraph(h: HypergraphInstance) -> str:
    lines = [f"h {h.num_vertices} {len(h.edges)} {h.k}"]
    for e in h.edges:
        lines.append(" ".join(str(v + 1) for v in e))
    return "\n".join(lines) + "\n"


def build_coloring(h: HypergraphInstance, q_colors: int) -> AtomicCsp:
    """Proper-coloring CSP: one constraint per (edge, color) forbidding the
    edge being monochromatic in that color, edge by edge, each edge's
    vertices ascending.

    Its measures are derived from H: (e, c) and (f, c') share a variable
    exactly when e and f share a vertex, so d and Delta are Q times H's
    largest vertex degree and edge degree (each edge counted with
    itself)."""
    if q_colors < 2:
        raise InvalidInstanceError("coloring needs at least 2 colors")
    vars = [VariableSpec.uniform(q_colors)] * h.num_vertices
    edges = np.sort(np.array(h.edges, dtype=np.int64), axis=1)
    colors = np.tile(np.arange(q_colors, dtype=np.int64), len(h.edges))
    csp = AtomicCsp(
        vars, np.repeat(edges, q_colors, axis=0).ravel(),
        np.repeat(colors, h.k), np.full(len(colors), h.k, dtype=np.int64))
    # H as an instance with one constraint per edge
    graph = flatten(csp.vars, edges.ravel(), np.zeros(edges.size, np.int64),
                    np.full(len(edges), h.k, dtype=np.int64))
    csp.measures = measures_with(
        csp.flat, q_colors * int(np.diff(graph.var_ptr).max()),
        q_colors * constraint_degree(graph))
    return csp


def _is_int(x) -> bool:
    """A JSON integer: ``true`` and ``false`` are not."""
    return isinstance(x, int) and not isinstance(x, bool)


def parse_csp(text: str) -> AtomicCsp:
    """JSON interchange: {"vars": [{"domain": n, "weights": [...]}, ...],
    "constraints": [{"vbl": [...], "false": [...]}, ...]}, 0-based."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ParseError(f"invalid JSON: {e}") from None
    if (not isinstance(doc, dict) or not isinstance(doc.get("vars"), list)
            or not isinstance(doc.get("constraints", []), list)):
        raise ParseError("document must be an object with a 'vars' list and"
                         " an optional 'constraints' list")
    vars = []
    for i, spec in enumerate(doc["vars"]):
        if not isinstance(spec, dict) or "domain" not in spec:
            raise ParseError(f"vars[{i}] must be an object with 'domain'")
        n = spec["domain"]
        if not _is_int(n) or n < 1:
            raise ParseError(f"vars[{i}].domain must be a positive integer")
        if n > sys.maxsize:
            raise ParseError(f"vars[{i}].domain exceeds {sys.maxsize}")
        weights = spec.get("weights", [1.0 / n] * n)
        if not isinstance(weights, list) or len(weights) != n:
            raise ParseError(f"vars[{i}] needs a list of {n} weights")
        # ``not w > 0`` also rejects NaN
        if any(isinstance(w, bool) or not isinstance(w, (int, float))
               or not w > 0 for w in weights):
            raise ParseError(f"vars[{i}] needs positive numeric weights")
        try:
            total = left_sum(weights)
        except OverflowError:  # an integer beyond the float range
            raise ParseError(f"vars[{i}] needs finite weights") from None
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ParseError(f"vars[{i}] weights sum to {total}, not 1")
        vars.append(VariableSpec(n, tuple(w / total for w in weights)))
    cons_vars, cons_fals, arity = [], [], []
    for i, c in enumerate(doc.get("constraints", [])):
        if not isinstance(c, dict) or "vbl" not in c or "false" not in c:
            raise ParseError(
                f"constraints[{i}] must be an object with 'vbl' and 'false'")
        vbl, fals = c["vbl"], c["false"]
        if (not isinstance(vbl, list) or not isinstance(fals, list)
                or len(vbl) != len(fals) or not vbl):
            raise ParseError(f"constraints[{i}] needs nonempty 'vbl' and "
                             "'false' lists of equal length")
        for v, q in zip(vbl, fals):
            if not _is_int(v) or not 0 <= v < len(vars):
                raise ParseError(f"constraints[{i}]: variable {v} out of range")
            if not _is_int(q) or not 0 <= q < vars[v].domain_size:
                raise ParseError(
                    f"constraints[{i}]: falsifying value {q} out of range")
        if len(set(vbl)) != len(vbl):
            raise ParseError(
                f"constraints[{i}]: constraint variables must be distinct")
        cons_vars += vbl
        cons_fals += fals
        arity.append(len(vbl))
    return AtomicCsp(vars, cons_vars, cons_fals, arity)


def emit_csp(csp: AtomicCsp) -> str:
    f = csp.flat
    vs, qs = f.cons_vars.tolist(), f.cons_fals.tolist()
    doc = {
        "vars": [{"domain": s.domain_size, "weights": list(s.weights)}
                 for s in csp.vars],
        "constraints": [{"vbl": vs[a:b], "false": qs[a:b]}
                        for a, b in f.spans()],
    }
    return json.dumps(doc, indent=1) + "\n"
