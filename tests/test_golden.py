"""Golden draw digests: one sha256 per pipeline over its marking and its
first 20 draws on a small fixed instance.

A change that keeps the draw stream keeps these digests.  A change that alters
the stream on purpose updates them, names the change, and re-certifies the law
with acceptance criterion 1.
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
        "6eb48ae4b8fe470c7a80f12c3f098d2fff6669573927b6dcb1aabce252c92188"),
    "general": (
        weighted_ternary(),
        PipelineConfig("-", "csp", "general", seed=SEED), False,
        "f527de748baa74885ef4a9c92f9d9b5eb564dafae8a6f85fcdb93c969a1dcf47"),
    "uniform": (
        uniform_octal(),
        PipelineConfig("-", "csp", "uniform", seed=SEED), False,
        "d393e805a92f6b3a8b86eeb9ab09fa3022493057c64478382d1c056aac00f929"),
    # In-regime coloring needs thousands of chain variables; the forced
    # small instance still runs tensorization and the back-map.
    "coloring": (
        HypergraphInstance(3, ((0, 1, 2),)),
        PipelineConfig("-", "hypergraph", "coloring", colors=5, seed=SEED,
                       force=True), True,
        "45f14880557877f34e0fe26457aefc9e695d88dcc788ee0fc1767767e416418a"),
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
