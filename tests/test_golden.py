"""Golden draw digests: one sha256 per pipeline over its marking and its
first 20 draws on a small fixed instance.

A change that keeps the draw stream keeps these digests.  A change that alters
the stream on purpose updates them, names the change, and re-certifies the law
with acceptance criterion 1.  ``python tests/test_golden.py`` prints each
case's current digest.
"""

import hashlib
import json

import pytest

from lllsampler import AtomicConstraint, AtomicCsp, VariableSpec
from lllsampler.cli import PipelineConfig, prepare_pipeline
from lllsampler.frontends import HypergraphInstance

from test_marking import binary_regime_instance

SEED = 3
NUM_DRAWS = 20


def weighted_ternary(k=80):
    """k weighted ternary variables in one constraint; inside the general
    pipeline's regime from k = 77 on."""
    vars = [VariableSpec(3, (0.5, 0.3, 0.2)) for _ in range(k)]
    return AtomicCsp(vars, [AtomicConstraint(tuple(range(k)), (2,) * k)])


def uniform_octal(k=45):
    """k uniform size-8 variables in one constraint; inside the uniform
    construction's regime."""
    vars = [VariableSpec.uniform(8) for _ in range(k)]
    return AtomicCsp(vars, [AtomicConstraint(tuple(range(k)), (0,) * k)])


# pipeline -> (instance, config, whether the marking is the forced empty one,
#              sha256 of the marking and the first NUM_DRAWS draws)
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
    # In-regime coloring needs thousands of chain variables; the forced
    # small instance still runs tensorization and the back-map.
    "coloring": (
        HypergraphInstance(3, ((0, 1, 2),)),
        PipelineConfig("-", "hypergraph", "coloring", colors=5, seed=SEED,
                       force=True), True,
        "3ccb83adaa1583fd5778039544765ac7c0cfc2001d0c29ce03fabb1c866be372"),
}


def draw_digest(prepared) -> str:
    h = hashlib.sha256(json.dumps(prepared.marking.indices()).encode())
    for i in range(NUM_DRAWS):
        h.update(json.dumps(prepared.draw(SEED, i)).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("pipeline", sorted(CASES))
def test_golden_draw_digest(pipeline):
    instance, cfg, forced_empty, expected = CASES[pipeline]
    prepared = prepare_pipeline(instance, cfg)
    assert prepared.forced_empty == forced_empty
    assert any(prepared.marking.marked) != forced_empty
    assert draw_digest(prepared) == expected


if __name__ == "__main__":
    # Print each case's current digest, to paste into CASES after a change
    # that alters the draw stream on purpose.
    for name, (instance, cfg, _, _) in sorted(CASES.items()):
        print(name, draw_digest(prepare_pipeline(instance, cfg)))
