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
        "cd3c4de48b0589e28b588bc917e55a808644cb6fd032bd570deb4f9aa8b87272"),
    "general": (
        weighted_ternary(),
        PipelineConfig("-", "csp", "general", seed=SEED), False,
        "3a3e80229a86ef2deff7155f7f03db79c1d05f76a6458539e108150185548b4c"),
    "uniform": (
        uniform_octal(),
        PipelineConfig("-", "csp", "uniform", seed=SEED), False,
        "0b5c224c9c6c1c2d90db09ebc2a1b42c900925bc175739bad55ab6a7ad8841c4"),
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
