"""Perfect sampling of random solutions of atomic constraint satisfaction
problems in the local lemma regime, via a monotone bounding chain run by
coupling from the past, with state tensorization for large domains."""

from .core import (AtomicCsp, Measures, STAR, VariableSpec, compute_measures,
                   preprocess)
from .errors import (BudgetError, ConditionsError, ConstructionFailedError,
                     InvalidInstanceError, InvariantError, ParseError,
                     RegimeError, SamplerError, UnsatisfiableInstanceError)
from .frontends import (HypergraphInstance, build_coloring, emit_csp,
                        emit_dimacs, emit_hypergraph, parse_csp,
                        parse_dimacs, parse_hypergraph)
from .kernels import (ComponentResult, RandomnessTape, component, coupled_update,
                      derive_seed, exact_component_marginal, rejection_sampling,
                      safe_pmf)
from .marking import (Marking, binary_gamma, check_theorem_conditions,
                      compute_constants, construct_marking_binary,
                      construct_marking_uniform_binary, kl_divergence)
from .sampler import (ChainRun, SampleRecord, bounding_chain, final_sampling,
                      sample, systematic_scan)
from .tensorization import (TensorTree, TensorizedCsp,
                            complete_binary_tensorize_with_marking,
                            huffman_tensorize, tensorize, trans,
                            uniform_randomized_tensorization,
                            uniform_tensorize_with_marking,
                            verify_numeric_facts)
from .verify import (ExactLaw, certify_sampler, check_bounding_invariant,
                     coalescence_experiment, enumerate_law, tv_distance)

__version__ = "1.0.0"

__all__ = [name for name in dir() if not name.startswith("_")]
