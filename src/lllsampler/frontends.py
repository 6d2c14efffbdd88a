"""Instance frontends: DIMACS CNF, k-uniform hypergraph coloring, and a
general JSON interchange format for weighted atomic CSPs.

Each parser has a matching emitter so canonicalized instances round-trip.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass

from .core import AtomicConstraint, AtomicCsp, VariableSpec, left_sum
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
    dropped entirely with a warning.
    """
    num_vars = None
    num_clauses = None
    constraints = []
    pending: list[int] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise ParseError("malformed problem line", lineno)
            try:
                num_vars, num_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise ParseError("malformed problem line", lineno) from None
            if num_vars < 1:
                raise ParseError("variable count must be positive", lineno)
            continue
        if num_vars is None:
            raise ParseError("clause before the problem line", lineno)
        try:
            lits = [int(x) for x in line.split()]
        except ValueError:
            raise ParseError("non-integer literal", lineno) from None
        for lit in lits:
            if lit == 0:
                _finish_clause(pending, num_vars, constraints, lineno)
                pending = []
            else:
                pending.append(lit)
    if pending:
        raise ParseError("last clause is not 0-terminated")
    if num_vars is None:
        raise ParseError("missing problem line")
    if num_clauses is not None and len(constraints) > num_clauses:
        raise ParseError("more clauses than the header declares")
    vars = [VariableSpec.uniform(2)] * num_vars
    return AtomicCsp(vars, constraints)


def _finish_clause(lits, num_vars, constraints, lineno):
    if not lits:
        raise ParseError("empty clause", lineno)
    seen = {}
    for lit in lits:
        v = abs(lit) - 1
        if not 0 <= v < num_vars:
            raise ParseError(f"literal {lit} out of range", lineno)
        sign = lit > 0
        if v in seen:
            if seen[v] != sign:
                warnings.warn(
                    f"line {lineno}: tautological clause dropped")
                return
        else:
            seen[v] = sign
    vbl = tuple(sorted(seen))
    # the falsifying assignment makes every literal false
    fals = tuple(0 if seen[v] else 1 for v in vbl)
    constraints.append(AtomicConstraint(vbl, fals))


def emit_dimacs(csp: AtomicCsp) -> str:
    for spec in csp.vars:
        if spec.domain_size != 2 or spec.weights != (0.5, 0.5):
            raise InvalidInstanceError(
                "DIMACS output requires uniform binary variables")
    lines = [f"p cnf {csp.num_vars} {len(csp.constraints)}"]
    for c in csp.constraints:
        lits = [(v + 1) if q == 0 else -(v + 1)
                for v, q in zip(c.vbl, c.falsifying)]
        lines.append(" ".join(str(x) for x in lits) + " 0")
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
    edge being monochromatic in that color."""
    if q_colors < 2:
        raise InvalidInstanceError("coloring needs at least 2 colors")
    vars = [VariableSpec.uniform(q_colors)] * h.num_vertices
    constraints = [AtomicConstraint(tuple(sorted(e)), (i,) * len(e))
                   for e in h.edges for i in range(q_colors)]
    return AtomicCsp(vars, constraints)


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
        weights = spec.get("weights", [1.0 / n] * n)
        if not isinstance(weights, list) or len(weights) != n:
            raise ParseError(f"vars[{i}] needs a list of {n} weights")
        # ``not w > 0`` also rejects NaN
        if any(isinstance(w, bool) or not isinstance(w, (int, float))
               or not w > 0 for w in weights):
            raise ParseError(f"vars[{i}] needs positive numeric weights")
        total = left_sum(weights)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ParseError(f"vars[{i}] weights sum to {total}, not 1")
        vars.append(VariableSpec(n, tuple(w / total for w in weights)))
    constraints = []
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
        try:
            constraints.append(AtomicConstraint(tuple(vbl), tuple(fals)))
        except InvalidInstanceError as e:
            raise ParseError(f"constraints[{i}]: {e}") from None
    return AtomicCsp(vars, constraints)


def emit_csp(csp: AtomicCsp) -> str:
    doc = {
        "vars": [{"domain": s.domain_size, "weights": list(s.weights)}
                 for s in csp.vars],
        "constraints": [{"vbl": list(c.vbl), "false": list(c.falsifying)}
                        for c in csp.constraints],
    }
    return json.dumps(doc, indent=1) + "\n"
