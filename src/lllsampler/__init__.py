"""Perfect sampling of random solutions of atomic constraint satisfaction
problems in the local lemma regime, via a monotone bounding chain run by
coupling from the past, with state tensorization for large domains."""

from .core import AtomicCsp, Measures, STAR, VariableSpec, compute_measures
from .errors import (BudgetError, ConditionsError, ConfigError,
                     ConstructionFailedError, InvalidInstanceError,
                     InvariantError, ParseError, RegimeError, SamplerError,
                     UnsatisfiableInstanceError)
from .frontends import (HypergraphInstance, build_coloring, emit_csp,
                        emit_dimacs, emit_hypergraph, parse_csp,
                        parse_dimacs, parse_hypergraph)
from .kernels import RandomnessTape, derive_seed
from .marking import (Marking, check_theorem_conditions,
                      construct_marking_binary,
                      construct_marking_uniform_binary)
from .pipeline import (PIPELINES, PipelineConfig, PreparedPipeline,
                       check_report, prepare_pipeline)
from .sampler import SampleRecord, sample
from .tensorization import (TensorTree, TensorizedCsp, huffman_tensorize,
                            tensorize, trans)
from .verify import ExactLaw, certify, enumerate_law, tv_distance

__version__ = "1.0.0"

__all__ = [
    "AtomicCsp", "Measures", "STAR", "VariableSpec", "compute_measures",
    "BudgetError", "ConditionsError", "ConfigError", "ConstructionFailedError",
    "InvalidInstanceError", "InvariantError", "ParseError", "RegimeError",
    "SamplerError", "UnsatisfiableInstanceError", "HypergraphInstance",
    "build_coloring", "emit_csp", "emit_dimacs", "emit_hypergraph",
    "parse_csp", "parse_dimacs", "parse_hypergraph", "RandomnessTape",
    "derive_seed", "Marking", "check_theorem_conditions",
    "construct_marking_binary", "construct_marking_uniform_binary",
    "PIPELINES", "PipelineConfig", "PreparedPipeline", "check_report",
    "prepare_pipeline", "SampleRecord", "sample", "TensorTree",
    "TensorizedCsp", "huffman_tensorize", "tensorize", "trans", "ExactLaw",
    "certify", "enumerate_law", "tv_distance",
]
