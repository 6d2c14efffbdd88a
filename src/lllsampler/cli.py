"""Command-line surface: the four end-to-end pipelines plus reporting,
verification, benchmarking and self-test subcommands.

Exit codes: 0 success, 1 usage, 2 parse, 3 regime, 4 budget/timeout,
5 internal invariant failure.
"""

from __future__ import annotations

import concurrent.futures
import json
import math
import os
import sys
from dataclasses import dataclass, replace

import click
import numpy as np

from .core import AtomicCsp, preprocess
from .errors import (BudgetError, ConstructionFailedError,
                     InvalidInstanceError, InvariantError, ParseError,
                     RegimeError, SamplerError, UnsatisfiableInstanceError)
from .frontends import (HypergraphInstance, build_coloring, parse_csp,
                        parse_dimacs, parse_hypergraph)
from .kernels import DEFAULT_TERM_BUDGET, derive_seed, update_context
from .marking import (Marking, binary_gamma, check_theorem_conditions,
                      constants, construct_marking_binary,
                      construct_marking_uniform_binary)
from .sampler import DEFAULT_HORIZON_CAP, sample
from .tensorization import (complete_binary_tensorize_with_marking,
                            coloring_regime_ok, global_marking,
                            huffman_tensorize, tensorize, trans,
                            uniform_randomized_tensorization,
                            uniform_tensorize_with_marking,
                            verify_numeric_facts)
from . import verify as verify_mod
from .kernels import LABEL_TENSOR, RandomnessTape

PIPELINES = ("binary", "general", "uniform", "coloring")
FORMATS = ("dimacs", "hypergraph", "csp")


@dataclass(frozen=True)
class PipelineConfig:
    """Everything needed to rebuild a pipeline deterministically."""

    input: str
    format: str
    pipeline: str
    colors: int = 0
    zeta: float = 1e-5
    seed: int = 0
    num: int = 1
    jobs: int = 1
    out: str = None
    budget_terms: int = DEFAULT_TERM_BUDGET
    max_horizon: int = DEFAULT_HORIZON_CAP
    force: bool = False
    named: bool = False


class PreparedPipeline:
    """A fully constructed pipeline: the chain instance, its marking, and the
    mapping back to original-domain assignments."""

    def __init__(self, original: AtomicCsp, run_csp: AtomicCsp,
                 marking: Marking, kept_vars, tensorized=None,
                 budget: int = DEFAULT_TERM_BUDGET,
                 max_horizon: int = DEFAULT_HORIZON_CAP,
                 forced_empty: bool = False):
        self.original = original
        self.run_csp = run_csp
        self.marking = marking
        self.kept_vars = tuple(kept_vars)
        self.tensorized = tensorized
        self.max_horizon = max_horizon
        self.forced_empty = forced_empty
        self.ctx = (update_context(run_csp, marking, budget)
                    if run_csp.num_vars else None)

    def draw(self, master_seed: int, i: int) -> list[int]:
        """The i-th sample as an original-domain assignment."""
        seed_i = derive_seed(master_seed, "sample", i)
        if self.run_csp.num_vars == 0:
            chain_values = []
        else:
            rec = sample(self.run_csp, self.marking, seed_i, ctx=self.ctx,
                         check_conditions=False,
                         horizon_cap=self.max_horizon)
            chain_values = rec.assignment
        if self.original is self.run_csp:
            # nothing was removed or tensorized, and ``sample`` has checked
            # this assignment against this instance
            return chain_values
        if self.tensorized is not None:
            reduced = trans(self.tensorized, chain_values)
        else:
            reduced = chain_values
        # re-insert variables removed by preprocessing (all had domain 1)
        values = np.zeros(self.original.num_vars, dtype=np.int64)
        values[list(self.kept_vars)] = reduced
        if not self.original.satisfies(values):
            raise InvariantError("emitted assignment violates a constraint")
        return values.tolist()


def _fallback(original, run_csp, kept, tensorized, cfg, error):
    if not cfg.force:
        raise error
    return PreparedPipeline(original, run_csp, Marking.empty(run_csp.num_vars),
                            kept, tensorized, cfg.budget_terms,
                            cfg.max_horizon, forced_empty=True)


def prepare_pipeline(csp_or_h, cfg: PipelineConfig) -> PreparedPipeline:
    """Construct marking (and tensorization where the pipeline calls for it),
    honoring --force by falling back to the empty marking."""
    if cfg.pipeline == "coloring":
        return _prepare_coloring(csp_or_h, cfg)
    original = csp_or_h
    csp, kept = preprocess(original)
    mseed = derive_seed(cfg.seed, "construction")
    if cfg.pipeline == "binary":
        try:
            m = construct_marking_binary(csp, cfg.zeta, mseed)
        except (RegimeError, ConstructionFailedError) as e:
            return _fallback(original, csp, kept, None, cfg, e)
        return PreparedPipeline(original, csp, m, kept, None,
                                cfg.budget_terms, cfg.max_horizon)
    if cfg.pipeline == "general":
        meas = csp.measures
        kappa_t = max(meas.kappa, 2.0)
        gamma, _, _ = binary_gamma(kappa_t, cfg.zeta)
        in_regime = (not csp.constraints
                     or gamma * meas.log_p + math.log(max(meas.delta, 1))
                     <= math.log(0.01 * cfg.zeta / kappa_t))
        trees = [huffman_tensorize(s.weights) for s in csp.vars]
        tens = tensorize(csp, trees)
        if not in_regime:
            return _fallback(original, tens.base, kept, tens, cfg,
                             RegimeError(
                                 f"regime p^gamma*Delta <= 0.01*zeta/kappa~ "
                                 f"fails: gamma={gamma:.4f} "
                                 f"ln p={meas.log_p:.4f} Delta={meas.delta} "
                                 f"kappa~={kappa_t:.4f}"))
        try:
            m = construct_marking_binary(tens.base, cfg.zeta, mseed,
                                         check_regime=False)
        except ConstructionFailedError as e:
            return _fallback(original, tens.base, kept, tens, cfg, e)
        return PreparedPipeline(original, tens.base, m, kept, tens,
                                cfg.budget_terms, cfg.max_horizon)
    if cfg.pipeline == "uniform":
        meas = csp.measures
        if meas.q <= 2:
            try:
                m = construct_marking_uniform_binary(csp, mseed)
            except (RegimeError, ConstructionFailedError) as e:
                return _fallback(original, csp, kept, None, cfg, e)
            return PreparedPipeline(original, csp, m, kept, None,
                                    cfg.budget_terms, cfg.max_horizon)
        try:
            tens, m = uniform_tensorize_with_marking(csp, mseed)
        except (RegimeError, ConstructionFailedError) as e:
            # the fallback still needs trees for the large domains
            rtape = RandomnessTape(derive_seed(mseed, "fallback-trees"))
            trees = []
            for v, s in enumerate(csp.vars):
                t, _ = uniform_randomized_tensorization(
                    s.domain_size, rtape.stream(v, LABEL_TENSOR))
                trees.append(t)
            tens = tensorize(csp, trees)
            return _fallback(original, tens.base, kept, tens, cfg, e)
        return PreparedPipeline(original, tens.base, m, kept, tens,
                                cfg.budget_terms, cfg.max_horizon)
    raise click.UsageError(f"unknown pipeline {cfg.pipeline!r}")


def _prepare_coloring(h: HypergraphInstance, cfg: PipelineConfig):
    if cfg.colors < 2:
        raise click.UsageError("--colors is required for the coloring pipeline")
    q = cfg.colors
    csp = build_coloring(h, q)
    if q == 2:
        # degenerate: binary domains, route through the binary construction
        return prepare_pipeline(csp, replace(cfg, pipeline="binary"))
    if q < 5:
        return _fallback(csp, csp, range(csp.num_vars), None, cfg,
                         RegimeError("coloring pipeline requires Q >= 5"))
    tree, marks, _ = complete_binary_tensorize_with_marking(q, h.k)
    tens = tensorize(csp, [tree] * csp.num_vars)
    marking = global_marking(tens, [marks] * csp.num_vars)
    in_regime = coloring_regime_ok(q, h.k, h.max_edge_degree())
    if not in_regime or not check_theorem_conditions(tens.base, marking).passed:
        return _fallback(csp, tens.base, range(csp.num_vars), tens, cfg,
                         RegimeError(
                             "coloring regime Delta <= (Q^(1/3)/4)^k /"
                             " (40 k Q log Q) fails"))
    return PreparedPipeline(csp, tens.base, marking, range(csp.num_vars),
                            tens, cfg.budget_terms, cfg.max_horizon)


# --- spec-level pipeline entry points ---------------------------------------

def pipeline_binary(csp: AtomicCsp, zeta: float = 1e-5, seed: int = 0,
                    num: int = 1, force: bool = False):
    cfg = PipelineConfig("-", "csp", "binary", zeta=zeta, seed=seed, num=num,
                         force=force)
    prepared = prepare_pipeline(csp, cfg)
    return [prepared.draw(seed, i) for i in range(num)]


# --- input/output plumbing --------------------------------------------------

def _read_input(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path) as f:
            return f.read()
    except OSError as e:
        raise click.UsageError(f"cannot read {path}: {e}") from None


def _load(cfg: PipelineConfig):
    text = _read_input(cfg.input)
    if cfg.format == "dimacs":
        return parse_dimacs(text)
    if cfg.format == "hypergraph":
        h = parse_hypergraph(text)
        return h if cfg.pipeline == "coloring" else build_coloring(
            h, max(cfg.colors, 2))
    return parse_csp(text)


def _render(values, cfg: PipelineConfig) -> str:
    if cfg.named and cfg.format == "dimacs":
        lits = [(v + 1) if q == 1 else -(v + 1) for v, q in enumerate(values)]
        return json.dumps(lits)
    return json.dumps(values)


def _emit(lines, cfg: PipelineConfig):
    text = "\n".join(lines) + "\n"
    if cfg.out:
        with open(cfg.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)


_WORKER: PreparedPipeline = None
_WORKER_CFG: PipelineConfig = None


def _worker_init(cfg):
    global _WORKER, _WORKER_CFG
    _WORKER_CFG = cfg
    _WORKER = prepare_pipeline(_load(cfg), cfg)


def _worker_draw(i):
    return i, _WORKER.draw(_WORKER_CFG.seed, i)


def _sample_lines(cfg: PipelineConfig) -> list[str]:
    if cfg.jobs <= 1:
        prepared = prepare_pipeline(_load(cfg), cfg)
        return [_render(prepared.draw(cfg.seed, i), cfg)
                for i in range(cfg.num)]
    results = [None] * cfg.num
    with concurrent.futures.ProcessPoolExecutor(
            max_workers=cfg.jobs, initializer=_worker_init,
            initargs=(cfg,)) as pool:
        for i, values in pool.map(_worker_draw, range(cfg.num)):
            results[i] = _render(values, cfg)
    return results


# --- click wiring -----------------------------------------------------------

def _common_options(f):
    opts = [
        click.option("--input", "input_", default="-", show_default=True,
                     help="Instance file, or - for stdin."),
        click.option("--format", "format_", default="csp",
                     type=click.Choice(FORMATS), show_default=True),
        click.option("--pipeline", default="general",
                     type=click.Choice(PIPELINES), show_default=True),
        click.option("--colors", default=0, type=int,
                     help="Color count for the coloring pipeline."),
        click.option("--zeta", default=1e-5, type=float, show_default=True),
        click.option("--seed", default=None, type=int,
                     help="Master seed (falls back to $LLL_SAMPLER_SEED, "
                          "then 0)."),
        click.option("--num", default=1, type=click.IntRange(min=1),
                     show_default=True),
        click.option("--jobs", default=1, type=click.IntRange(min=1),
                     show_default=True),
        click.option("--out", default=None, help="Output file."),
        click.option("--budget-terms", default=DEFAULT_TERM_BUDGET, type=int,
                     show_default=True),
        click.option("--max-horizon", default=DEFAULT_HORIZON_CAP, type=int,
                     show_default=True),
        click.option("--force", is_flag=True,
                     help="Bypass regime checks; fall back to the empty "
                          "marking when construction fails."),
        click.option("--named", is_flag=True,
                     help="Render DIMACS samples as signed literal lists."),
    ]
    for opt in reversed(opts):
        f = opt(f)
    return f


def _make_config(input_, format_, pipeline, colors, zeta, seed, num, jobs,
                 out, budget_terms, max_horizon, force, named):
    if seed is None:
        seed = int(os.environ.get("LLL_SAMPLER_SEED", "0"))
    return PipelineConfig(input_, format_, pipeline, colors, zeta, seed, num,
                          jobs, out, budget_terms, max_horizon, force, named)


@click.group()
def cli():
    """Perfect sampler for atomic CSP solutions in the local lemma regime."""


@cli.command("sample")
@_common_options
def cmd_sample(**kw):
    """Draw solutions; one JSON array of value indices per line."""
    cfg = _make_config(**kw)
    _emit(_sample_lines(cfg), cfg)


@cli.command("check")
@_common_options
def cmd_check(**kw):
    """Report measures, constants and the chain-condition verdict."""
    cfg = _make_config(**kw)
    loaded = _load(cfg)
    if cfg.pipeline == "coloring":
        csp = build_coloring(loaded, max(cfg.colors, 2))
    else:
        csp = loaded
    run_csp = csp
    meas = csp.measures
    report = {
        "num_vars": csp.num_vars,
        "num_constraints": len(csp.constraints),
        "measures": {
            "k": meas.k, "d": meas.d, "delta": meas.delta, "q": meas.q,
            "log_p": meas.log_p, "kappa": meas.kappa,
        },
    }
    gamma, eta, tau = binary_gamma(max(meas.kappa, 2.0), cfg.zeta)
    report["general_gamma"] = gamma
    if meas.q <= 2:
        gb, _, _ = binary_gamma(meas.kappa, cfg.zeta)
        report["binary_gamma"] = gb
    try:
        prepared = prepare_pipeline(loaded, replace(cfg, force=True))
        run_csp = prepared.run_csp
        report["marked_count"] = sum(prepared.marking.marked)
        report["forced_empty_marking"] = prepared.forced_empty
        consts = constants(run_csp, prepared.marking)
        report["constants"] = {
            "log_alpha": consts.log_alpha,
            "log_beta": consts.log_beta,
            "log_rho": consts.log_rho,
            "log_lambda": consts.log_lambda,
        }
        report["conditions"] = check_theorem_conditions(
            run_csp, prepared.marking).as_dict()
        report["regime_ok"] = not prepared.forced_empty
    except SamplerError as e:
        report["construction_error"] = str(e)
        report["regime_ok"] = False
    _emit([json.dumps(report, indent=1)], cfg)


@cli.command("verify")
@_common_options
def cmd_verify(**kw):
    """End-to-end certification against exhaustive enumeration."""
    cfg = _make_config(**kw)
    prepared = prepare_pipeline(_load(cfg), cfg)
    num = max(cfg.num, 2000)
    law = verify_mod.enumerate_law(prepared.original)
    counts = {}
    for i in range(num):
        key = tuple(prepared.draw(cfg.seed, i))
        counts[key] = counts.get(key, 0) + 1
    empirical = {k: c / num for k, c in counts.items()}
    tv = verify_mod.tv_distance(empirical, law.as_dict())
    inv = verify_mod.check_bounding_invariant(
        prepared.run_csp, prepared.marking, 10 * max(prepared.run_csp.num_vars, 1),
        min(200, num), cfg.seed,
        # enumerated again only when preprocessing or tensorization changed
        # the instance
        law=law if prepared.run_csp is prepared.original else None)
    threshold = 2.0 * 0.5 * math.sqrt(len(law.support) / num)
    report = {
        "num_samples": num,
        "tv_distance": tv,
        "tv_threshold": max(threshold, 0.03),
        "containment_violations": inv["containment_violations"],
        "equality_failures": inv["equality_failures"],
        "sweep_mismatches": inv["sweep_mismatches"],
    }
    passed = (tv <= report["tv_threshold"]
              and inv["containment_violations"] == 0
              and inv["equality_failures"] == 0
              and inv["sweep_mismatches"] == 0)
    report["passed"] = passed
    _emit([json.dumps(report, indent=1)], cfg)
    if not passed:
        raise InvariantError("verification failed")


@cli.command("bench")
@_common_options
def cmd_bench(**kw):
    """Coalescence-tail table at T in {20n, 30n, 40n}."""
    cfg = _make_config(**kw)
    prepared = prepare_pipeline(_load(cfg), cfg)
    n = max(prepared.run_csp.num_vars, 1)
    rows = verify_mod.coalescence_experiment(
        prepared.run_csp, prepared.marking, [20 * n, 30 * n, 40 * n],
        max(cfg.num, 100), cfg.seed)
    _emit([json.dumps(r) for r in rows], cfg)


@cli.command("tensorize")
@_common_options
def cmd_tensorize(**kw):
    """Emit per-variable decision-tree dumps."""
    cfg = _make_config(**kw)
    prepared = prepare_pipeline(_load(cfg), replace(cfg, force=True))
    if prepared.tensorized is None:
        raise click.UsageError(
            "the selected pipeline does not tensorize this instance")
    lines = []
    for v, tree in enumerate(prepared.tensorized.trees):
        marks = {z for z in tree.internal_nodes()
                 if prepared.marking.marked[prepared.tensorized.node_of[v][z]]}
        lines.append(f"var {v}")
        lines.append(tree.dump(marks))
    _emit(lines, cfg)


@cli.command("selftest")
@_common_options
def cmd_selftest(**kw):
    """Numeric-constant checks plus fast construction properties."""
    cfg = _make_config(**kw)
    report = verify_numeric_facts()
    ok = report["all_passed"]
    # quick structural probes
    rng = RandomnessTape(derive_seed(cfg.seed, "selftest"))
    for n in range(2, 18):
        tree, _ = uniform_randomized_tensorization(
            n, rng.stream(n, LABEL_TENSOR))
        for q in range(n):
            if abs(tree.leaf_product(q) - 1.0 / n) > 1e-12:
                ok = False
    report["tree_products_ok"] = ok
    report["all_passed"] = ok
    _emit([json.dumps(report, indent=1)], cfg)
    if not ok:
        raise InvariantError("self-test failed")


def run(argv=None) -> int:
    """Dispatch and map exceptions to documented exit codes."""
    try:
        cli.main(args=argv, prog_name="lll-sampler", standalone_mode=False)
        return 0
    except click.exceptions.Exit as e:
        return int(e.exit_code)
    except click.UsageError as e:
        click.echo(f"usage error: {e.format_message()}", err=True)
        return 1
    except click.ClickException as e:
        e.show()
        return 1
    except (ParseError, InvalidInstanceError, UnsatisfiableInstanceError) as e:
        click.echo(f"input error: {e}", err=True)
        return 2
    except RegimeError as e:
        click.echo(f"regime error: {e}", err=True)
        return 3
    except (BudgetError, ConstructionFailedError) as e:
        click.echo(f"budget error: {e}", err=True)
        return 4
    except (InvariantError, SamplerError) as e:
        click.echo(f"internal error: {e}", err=True)
        return 5


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
