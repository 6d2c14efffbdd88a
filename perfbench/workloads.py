"""Seeded workload generators and the benchmark's own output checks.

Each workload builds its instance from the benchmark seed alone, writes it in
one of the sampler's input formats, and keeps the generated clauses or edges
so that draws can be checked without the sampler's own ``satisfies``.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: how to generate it and how to run it."""

    name: str
    generator: Callable[..., "Instance"]
    format: str             # --format value of the written instance
    pipeline: str           # --pipeline value
    force: bool             # --force
    forced_empty: bool      # the marking the pipeline must fall back to
    jobs_num: int           # --num of the timed ``--jobs`` run
    setup_repeats: int      # set-ups spread over a run; the median is reported
    size: dict              # generator parameters

    def generate(self, seed: int) -> "Instance":
        return self.generator(seed, **self.size)

    @property
    def colors(self) -> int:
        """--colors value (coloring only)."""
        return self.size.get("colors", 0)


@dataclass(frozen=True)
class Instance:
    """A generated instance: its file text and the structure to check
    draws against (signed 1-based clauses, or 0-based edges)."""

    text: str
    num_vars: int
    clauses: tuple = ()
    edges: tuple = ()
    colors: int = 0

    def check_line(self, line: str) -> bool:
        """True iff one emitted JSON line is a valid solution."""
        try:
            values = json.loads(line)
        except ValueError:
            return False
        if not isinstance(values, list) or len(values) != self.num_vars:
            return False
        if self.clauses:
            return self._check_cnf(values)
        return self._check_coloring(values)

    def _check_cnf(self, values) -> bool:
        if any(x not in (0, 1) for x in values):
            return False
        return all(any((values[l - 1] == 1) if l > 0 else (values[-l - 1] == 0)
                       for l in clause)
                   for clause in self.clauses)

    def _check_coloring(self, values) -> bool:
        if any(type(x) is not int or not 0 <= x < self.colors
               for x in values):
            return False
        return all(len({values[v] for v in e}) > 1 for e in self.edges)


def _dimacs(n: int, clauses) -> str:
    lines = [f"p cnf {n} {len(clauses)}"]
    lines += [" ".join(map(str, c)) + " 0" for c in clauses]
    return "\n".join(lines) + "\n"


def _signed(rng: random.Random, vs) -> tuple:
    return tuple(v + 1 if rng.random() < 0.5 else -(v + 1) for v in vs)


def gen_cnf_regime(seed: int, n: int, k: int) -> Instance:
    """k-CNF in which every variable sits in exactly two clauses: the clause
    sets are two random partitions of the variables into blocks of k."""
    if n % k:
        raise ValueError("n must be a multiple of k")
    rng = random.Random(seed)
    clauses = []
    for _ in range(2):
        perm = list(range(n))
        rng.shuffle(perm)
        clauses += [_signed(rng, perm[i:i + k]) for i in range(0, n, k)]
    return Instance(_dimacs(n, clauses), n, clauses=tuple(clauses))


def gen_cnf_forced(seed: int, blocks: int, n: int, m: int) -> Instance:
    """Disjoint union of random 3-CNF blocks, each m clauses over n variables.

    Every clause has 3 distinct variables of its block and one of the 7 sign
    patterns satisfied by a hidden assignment, so the instance is always
    satisfiable.  Independent blocks keep the rejection work per draw an
    average over many components, so it varies little between seeds.
    """
    rng = random.Random(seed)
    hidden = [rng.random() < 0.5 for _ in range(blocks * n)]
    clauses = []
    for b in range(blocks):
        for _ in range(m):
            vs = [b * n + v for v in rng.sample(range(n), 3)]
            while True:
                c = _signed(rng, vs)
                if any((l > 0) == hidden[abs(l) - 1] for l in c):
                    break
            clauses.append(c)
    return Instance(_dimacs(blocks * n, clauses), blocks * n,
                    clauses=tuple(clauses))


def gen_coloring(seed: int, n: int, edges: int, k: int, colors: int) -> Instance:
    """k-uniform hypergraph: each edge is k distinct random vertices."""
    rng = random.Random(seed)
    es = tuple(tuple(rng.sample(range(n), k)) for _ in range(edges))
    lines = [f"h {n} {len(es)} {k}"]
    lines += [" ".join(str(v + 1) for v in e) for e in es]
    return Instance("\n".join(lines) + "\n", n, edges=es, colors=colors)


#: Sizes keep every run at 200 draws or more within 25 s and keep the
#: figures close from seed to seed; README.md gives the reasons per workload.
WORKLOADS = {
    w.name: w for w in (
        Workload("cnf-regime", gen_cnf_regime, "dimacs", "binary",
                 force=False, forced_empty=False, jobs_num=128,
                 setup_repeats=12, size={"n": 3000, "k": 200}),
        Workload("coloring-q256", gen_coloring, "hypergraph", "coloring",
                 force=False, forced_empty=False, jobs_num=32,
                 setup_repeats=3,
                 size={"n": 32, "edges": 1, "k": 32, "colors": 256}),
        Workload("cnf-forced", gen_cnf_forced, "dimacs", "binary",
                 force=True, forced_empty=True, jobs_num=128,
                 setup_repeats=12, size={"blocks": 100, "n": 20, "m": 16}),
    )
}
