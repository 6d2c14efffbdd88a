"""Command-line surface of the ``pipeline`` module, plus verification,
benchmarking and self-test subcommands.  It reads the options and the input,
writes the output, runs the ``--jobs`` workers and maps errors to exit codes.

Exit codes: 0 success, 1 usage (a ``ConfigError`` included), 2 parse, 3 no
marking can pass the main theorem's conditions, 4 budget/timeout (a
construction's attempts included), 5 internal invariant failure.
"""

from __future__ import annotations

import collections
import concurrent.futures
import contextlib
import json
import os
import stat
import sys
import tempfile

import click
import numpy as np

from .errors import (BudgetError, ConfigError, ConstructionFailedError,
                     InvalidInstanceError, InvariantError, ParseError,
                     RegimeError, SamplerError, UnsatisfiableInstanceError)
from .frontends import (build_coloring, parse_csp, parse_dimacs,
                        parse_hypergraph)
from .kernels import LABEL_TENSOR, RandomnessTape, derive_seed
# PipelineConfig, prepare_pipeline and PreparedPipeline.draw are also read
# here by name, as cli.*, by the benchmark and its span tracer
from .pipeline import (PIPELINES, PipelineConfig, PreparedPipeline,
                       check_report, prepare_pipeline)
from .sampler import DEFAULT_HORIZON_CAP
from .tensorization import (uniform_randomized_tensorization,
                            verify_numeric_facts)
from . import verify as verify_mod

FORMATS = ("dimacs", "hypergraph", "csp")


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


def _render(values, named: bool) -> str:
    """One JSON line; ``named`` renders DIMACS values as signed literals."""
    if named:
        values = [(v + 1) if q == 1 else -(v + 1)
                  for v, q in enumerate(values)]
    return json.dumps(values)


def _cannot_write(out: str, e: OSError) -> click.UsageError:
    return click.UsageError(f"cannot write {out}: {e}")


def _open_out(out: str):
    """Open ``out`` for writing: a regular file, or a new one, through a new
    temporary file in its directory, returned with the temporary's path;
    anything else (a symlink, a FIFO, ``/dev/stdout``) directly, with None.
    An existing ``out`` must be writable itself, since a rename would
    replace a read-only file, and the temporary takes the mode that writing
    ``out`` in place would leave."""
    try:
        try:
            mode = os.lstat(out).st_mode
        except FileNotFoundError:
            mode = None
        if mode is not None and not stat.S_ISREG(mode):
            return open(out, "w"), None
        if mode is None:
            umask = os.umask(0)
            os.umask(umask)
            mode = 0o666 & ~umask
        else:
            os.close(os.open(out, os.O_WRONLY))
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(out) or ".",
                                   prefix=f".{os.path.basename(out)}.",
                                   suffix=".tmp")
    except OSError as e:
        raise _cannot_write(out, e) from None
    os.fchmod(fd, stat.S_IMODE(mode))
    return os.fdopen(fd, "w"), tmp


def _emit(lines, out: str | None):
    """Write each line as it arrives, to stdout or to ``out``.

    ``out`` is opened before the first line is asked for, so a lazy
    ``lines`` does no work for an unwritable path.  A regular file is
    written through a temporary file, renamed over it once the last line is
    written and removed if anything fails first.
    """
    if not out:
        for line in lines:
            sys.stdout.write(line + "\n")
        return
    f, tmp = _open_out(out)
    try:
        with f:
            for line in lines:
                try:
                    f.write(line + "\n")
                except OSError as e:
                    raise _cannot_write(out, e) from None
            try:
                f.flush()
            except OSError as e:
                raise _cannot_write(out, e) from None
        if tmp is not None:
            os.replace(tmp, out)
    except BaseException:
        if tmp is not None:
            os.unlink(tmp)
        raise


def _draw_lines(prepared: PreparedPipeline, seed: int, ids, named: bool):
    """Yield the rendered draws ``ids`` of a prepared pipeline."""
    for i in ids:
        yield _render(prepared.draw(seed, i), named)


#: Draw ids per ``--jobs`` task, at most; a worker hands back one chunk of
#: rendered lines at a time.
_CHUNK_IDS = 16
#: Chunks pending per worker: one drawn while the next waits in the queue.
_WINDOW_PER_JOB = 2

# a pool worker's (cfg, instance, named), kept by ``_start_worker``, and
# what its first chunk's set-up gave: the prepared pipeline or the error
_worker: dict = {}


def _start_worker(cfg: PipelineConfig, instance, named: bool):
    # only stores: an error raised here would break the pool and lose its
    # type, so the set-up runs in the first chunk and is raised as itself
    _worker["args"] = cfg, instance, named


def _draw_chunk(a: int, b: int) -> list[str]:
    """The rendered draws a..b-1, drawn in a pool worker."""
    cfg, instance, named = _worker["args"]
    if "prepared" not in _worker:
        try:
            _worker["prepared"] = prepare_pipeline(instance, cfg)
        except Exception as e:
            # a queued chunk raises it again instead of setting up again
            _worker["prepared"] = e
    prepared = _worker["prepared"]
    if isinstance(prepared, Exception):
        raise prepared
    return list(_draw_lines(prepared, cfg.seed, range(a, b), named))


def _sample_lines(cfg: PipelineConfig, num: int, jobs: int, named: bool):
    """Yield the rendered draws 0..num-1, in id order; nothing is read or
    prepared before the first line is asked for."""
    named = named and cfg.format == "dimacs"
    instance = _load(cfg)
    parts = min(jobs, num)
    if parts == 1:
        yield from _draw_lines(prepare_pipeline(instance, cfg), cfg.seed,
                               range(num), named)
        return
    # draw i reads only its own tape, so workers draw contiguous chunks of
    # ids in any order; a bounded window of pending chunks, taken in id
    # order, keeps every worker busy and holds O(jobs x chunk) lines
    size = max(1, min(_CHUNK_IDS, num // (_WINDOW_PER_JOB * parts)))
    starts = iter(range(0, num, size))
    pool = concurrent.futures.ProcessPoolExecutor(
        parts, initializer=_start_worker, initargs=(cfg, instance, named))
    pending = collections.deque()

    def submit():
        a = next(starts, None)
        if a is not None:
            pending.append(pool.submit(_draw_chunk, a, min(a + size, num)))

    try:
        for _ in range(_WINDOW_PER_JOB * parts):
            submit()
        while pending:
            lines = pending.popleft().result()
            submit()
            yield from lines
    finally:
        # on every exit, a closed reader's included: no worker outlives the
        # run
        pool.shutdown(wait=True, cancel_futures=True)


# --- click wiring -----------------------------------------------------------

# Each option once; every command lists the ones it reads.  The parameter
# names are ``PipelineConfig``'s field names.
_OPTIONS = {
    "input": click.option("--input", default="-", show_default=True,
                          help="Instance file, or - for stdin."),
    "format": click.option("--format", default="csp",
                           type=click.Choice(FORMATS), show_default=True),
    "pipeline": click.option("--pipeline", default="general",
                             type=click.Choice(PIPELINES), show_default=True),
    "colors": click.option("--colors", default=0, type=int,
                           help="Color count for the coloring pipeline."),
    "seed": click.option("--seed", default=0, type=int,
                         envvar="LLL_SAMPLER_SEED",
                         help="Master seed (falls back to $LLL_SAMPLER_SEED, "
                              "then 0)."),
    "num": click.option("--num", default=1, type=click.IntRange(min=1),
                        show_default=True),
    "jobs": click.option("--jobs", default=1, type=click.IntRange(min=1),
                         show_default=True),
    "out": click.option("--out", default=None, help="Output file."),
    "max_horizon": click.option("--max-horizon", default=DEFAULT_HORIZON_CAP,
                                type=click.IntRange(min=1),
                                show_default=True),
    "force": click.option("--force", is_flag=True,
                          help="Fall back to the empty marking when no "
                               "passing marking is found."),
    "named": click.option("--named", is_flag=True,
                          help="Render DIMACS samples as signed literal "
                               "lists."),
}

# the options that pick and build an instance's pipeline
_INSTANCE = ("input", "format", "pipeline", "colors", "seed")


def _options(*names):
    def decorate(f):
        for name in reversed(names):
            f = _OPTIONS[name](f)
        return f
    return decorate


@click.group()
def cli():
    """Perfect sampler for atomic CSP solutions in the local lemma regime."""


@cli.command("sample")
@_options(*_INSTANCE, "num", "jobs", "out", "max_horizon", "force",
          "named")
def cmd_sample(num, jobs, out, named, **kw):
    """Draw solutions; one JSON array of value indices per line, written as
    it is drawn."""
    with contextlib.closing(_sample_lines(PipelineConfig(**kw), num, jobs,
                                          named)) as lines:
        _emit(lines, out)


@cli.command("check")
@_options(*_INSTANCE, "out")
def cmd_check(out, **kw):
    """Report measures, constants and the chain-condition verdict, or the
    construction's error where ``sample`` without ``--force`` would stop."""
    cfg = PipelineConfig(**kw)
    _emit([json.dumps(check_report(_load(cfg), cfg), indent=1)], out)


@cli.command("verify")
@_options(*_INSTANCE, "num", "out", "max_horizon", "force")
def cmd_verify(num, out, **kw):
    """End-to-end certification against exhaustive enumeration."""
    cfg = PipelineConfig(**kw)
    prepared = prepare_pipeline(_load(cfg), cfg)
    num = max(num, 2000)
    law = verify_mod.enumerate_law(prepared.original)
    report = verify_mod.certify(lambda i: prepared.draw(cfg.seed, i), law,
                                num)
    inv = verify_mod.check_bounding_invariant(
        prepared.run_csp, prepared.marking, 10 * max(prepared.run_csp.num_vars, 1),
        min(200, num), cfg.seed,
        # enumerated again only when preprocessing or tensorization changed
        # the instance
        law=law if prepared.run_csp is prepared.original else None)
    passed = report.pop("passed")
    for key in ("containment_violations", "equality_failures",
                "sweep_mismatches"):
        report[key] = inv[key]
        passed = passed and inv[key] == 0
    report["passed"] = passed
    _emit([json.dumps(report, indent=1)], out)
    if not passed:
        raise InvariantError("verification failed")


@cli.command("bench")
@_options(*_INSTANCE, "num", "out", "force")
def cmd_bench(num, out, **kw):
    """Coalescence-tail table at T in {20n, 30n, 40n}."""
    cfg = PipelineConfig(**kw)
    prepared = prepare_pipeline(_load(cfg), cfg)
    n = max(prepared.run_csp.num_vars, 1)
    rows = verify_mod.coalescence_experiment(
        prepared.run_csp, prepared.marking, [20 * n, 30 * n, 40 * n],
        max(num, 100), cfg.seed)
    _emit([json.dumps(r) for r in rows], out)


@cli.command("tensorize")
@_options(*_INSTANCE, "out")
def cmd_tensorize(out, **kw):
    """Emit per-variable decision-tree dumps."""
    cfg = PipelineConfig(**kw, force=True)
    prepared = prepare_pipeline(_load(cfg), cfg)
    if prepared.tensorized is None:
        raise click.UsageError(
            "the selected pipeline does not tensorize this instance")
    t = prepared.tensorized
    lines = []
    for v, tree in enumerate(t.trees):
        nodes = np.array(tree.internal_nodes(), dtype=np.int64)
        marked = prepared.marking.mask[t.node_vars(v, nodes)]
        marks = set(nodes[marked].tolist())
        lines.append(f"var {prepared.kept_vars[v]}")
        lines.append(tree.dump(marks))
    _emit(lines, out)


@cli.command("selftest")
@_options("seed", "out")
def cmd_selftest(seed, out):
    """Numeric-constant checks plus fast construction properties."""
    report = verify_numeric_facts()
    ok = report["all_passed"]
    # quick structural probes
    rng = RandomnessTape(derive_seed(seed, "selftest"))
    for n in range(2, 18):
        tree, _, _ = uniform_randomized_tensorization(
            n, rng.stream(n, LABEL_TENSOR))
        for q in range(n):
            if abs(tree.leaf_product(q) - 1.0 / n) > 1e-12:
                ok = False
    report["tree_products_ok"] = ok
    report["all_passed"] = ok
    _emit([json.dumps(report, indent=1)], out)
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
    except ConfigError as e:
        click.echo(f"usage error: {e}", err=True)
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
