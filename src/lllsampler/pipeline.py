"""The sampler as one pipeline, with no file or option handling: an
instance's marking and tensorization built once, exact draws by id in the
original domains, and ``lll-sampler check``'s report."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import AtomicCsp, max_domain, preprocess
from .errors import (ConfigError, ConstructionFailedError, InvariantError,
                     RegimeError, SamplerError)
from .frontends import HypergraphInstance, build_coloring
from .kernels import (LABEL_TENSOR, RandomnessTape, derive_seed,
                      update_context)
from .marking import (DEFAULT_ZETA, Marking, binary_gamma,
                      check_theorem_conditions, constants,
                      construct_marking_binary,
                      construct_marking_uniform_binary)
from .sampler import DEFAULT_HORIZON_CAP, sample
from .tensorization import (check_uniform_domains,
                            complete_binary_tensorize_with_marking,
                            global_marking, huffman_tensorize, tensorize, trans,
                            uniform_randomized_tensorization,
                            uniform_tensorize_with_marking)

PIPELINES = ("binary", "general", "uniform", "coloring")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to rebuild a pipeline deterministically.  ``input``
    and ``format`` name the instance's source; set-up reads neither."""

    input: str
    format: str
    pipeline: str
    colors: int = 0
    seed: int = 0
    max_horizon: int = DEFAULT_HORIZON_CAP
    force: bool = False


class PreparedPipeline:
    """A fully constructed pipeline: the chain instance, its marking, and the
    mapping back to original-domain assignments."""

    def __init__(self, original: AtomicCsp, run_csp: AtomicCsp,
                 marking: Marking, kept_vars, tensorized=None,
                 max_horizon: int = DEFAULT_HORIZON_CAP,
                 forced_empty: bool = False):
        self.original = original
        self.run_csp = run_csp
        self.marking = marking
        # the original indices of the chain instance's variables, ascending:
        # all of them unless preprocessing removed some (converting a long
        # tuple of ints costs more than the range)
        self.kept_vars = (np.arange(original.num_vars)
                          if len(kept_vars) == original.num_vars
                          else np.asarray(kept_vars, dtype=np.int64))
        self.tensorized = tensorized
        self.max_horizon = max_horizon
        self.forced_empty = forced_empty
        if run_csp.num_vars:
            # built here, at set-up, and found again by each draw
            update_context(run_csp, marking)

    def draw(self, master_seed: int, i: int) -> list[int]:
        """The i-th sample as an original-domain assignment."""
        seed_i = derive_seed(master_seed, "sample", i)
        if self.run_csp.num_vars == 0:
            values = np.zeros(0, dtype=np.int64)
        else:
            values = sample(self.run_csp, self.marking, seed_i,
                            check_conditions=False,
                            horizon_cap=self.max_horizon).assignment
        if self.original is self.run_csp:
            # nothing was removed or tensorized, and ``sample`` has checked
            # this assignment against this instance
            return values.tolist()
        if self.tensorized is not None:
            values = trans(self.tensorized, values)
        if len(self.kept_vars) < self.original.num_vars:
            # re-insert variables removed by preprocessing (all had domain 1)
            reduced = values
            values = np.zeros(self.original.num_vars, dtype=np.int64)
            values[self.kept_vars] = reduced
        if not self.original.satisfies(values):
            raise InvariantError("emitted assignment violates a constraint")
        return values.tolist()


def prepare_pipeline(instance, cfg: PipelineConfig) -> PreparedPipeline:
    """Construct the marking, and the tensorization where the pipeline calls
    for it, of an instance (a hypergraph for the coloring pipeline).  A
    construction that finds no marking passing the theorem's conditions
    raises, or with ``cfg.force`` falls back to the empty marking.  Settings
    that do not fit together or the instance raise ``ConfigError``."""
    coloring = cfg.pipeline == "coloring"
    if cfg.pipeline not in PIPELINES:
        raise ConfigError(f"unknown pipeline {cfg.pipeline!r}")
    if coloring != isinstance(instance, HypergraphInstance):
        raise ConfigError("the coloring pipeline takes a hypergraph "
                          "(--format hypergraph), and no other does")
    if coloring and cfg.colors < 2:
        raise ConfigError("--colors is required for the coloring pipeline")
    original = build_coloring(instance, cfg.colors) if coloring else instance
    csp, kept = preprocess(original)
    mseed = derive_seed(cfg.seed, "construction")
    tens = marking = None
    try:
        # Q = 2 colorings have binary domains: the binary construction
        if cfg.pipeline == "binary" or coloring and cfg.colors == 2:
            marking = construct_marking_binary(csp, mseed)
        elif coloring:
            tree, marks = complete_binary_tensorize_with_marking(cfg.colors)
            tens = tensorize(csp, [tree] * csp.num_vars)
            m = global_marking(tens, [marks] * csp.num_vars)
            if not check_theorem_conditions(tens.base, m).passed:
                raise RegimeError("the coloring marking fails the theorem's "
                                  "conditions")
            marking = m
        elif cfg.pipeline == "general":
            # one tree per distinct spec, shared by its variables
            trees = [huffman_tensorize(s.weights) for s in csp.flat.specs]
            tens = tensorize(csp, [trees[g] for g in csp.flat.spec_of.tolist()])
            marking = construct_marking_binary(tens.base, mseed)
        elif max_domain(csp.flat) <= 2:
            marking = construct_marking_uniform_binary(csp, mseed)
        else:
            tens, marking = uniform_tensorize_with_marking(csp, mseed)
    except (RegimeError, ConstructionFailedError):
        if not cfg.force:
            raise
        if cfg.pipeline == "uniform" and max_domain(csp.flat) > 2:
            # the fallback still needs trees for the large domains, and
            # uniform trees reproduce uniform domains only
            check_uniform_domains(csp)
            rtape = RandomnessTape(derive_seed(mseed, "fallback-trees"))
            tens = tensorize(csp, [uniform_randomized_tensorization(
                s.domain_size, rtape.stream(v, LABEL_TENSOR))[0]
                for v, s in enumerate(csp.vars)])
    run_csp = csp if tens is None else tens.base
    forced_empty = marking is None
    if forced_empty:
        marking = Marking.empty(run_csp.num_vars)
    return PreparedPipeline(original, run_csp, marking, kept, tens,
                            cfg.max_horizon, forced_empty)


def check_report(instance, cfg: PipelineConfig) -> dict:
    """The instance's measures, and the marking's constants and the
    chain-condition verdict, or the construction's error where a draw
    without ``cfg.force`` would stop.  A ``ConfigError`` is raised, not
    reported."""
    try:
        prepared, error = prepare_pipeline(instance, cfg), None
        csp = prepared.original
    except ConfigError:
        raise
    except SamplerError as e:
        prepared, error = None, e
        csp = (build_coloring(instance, cfg.colors)
               if cfg.pipeline == "coloring" else instance)
    meas = csp.measures
    report = {
        "num_vars": csp.num_vars,
        "num_constraints": len(csp.flat.arity),
        "measures": {"k": meas.k, "d": meas.d, "delta": meas.delta,
                     "q": meas.q, "log_p": meas.log_p, "kappa": meas.kappa},
        "general_gamma": binary_gamma(max(meas.kappa, 2.0), DEFAULT_ZETA)[0],
    }
    if meas.q <= 2:
        report["binary_gamma"] = binary_gamma(meas.kappa, DEFAULT_ZETA)[0]
    if error is not None:
        report["construction_error"] = str(error)
        report["regime_ok"] = False
        return report
    run_csp, marking = prepared.run_csp, prepared.marking
    consts = constants(run_csp, marking)
    report.update(
        marked_count=int(marking.mask.sum()),
        forced_empty_marking=prepared.forced_empty,
        constants={name: getattr(consts, name) for name in (
            "log_alpha", "log_beta", "log_rho", "log_lambda")},
        conditions=check_theorem_conditions(run_csp, marking).as_dict(),
        regime_ok=not prepared.forced_empty)
    return report
