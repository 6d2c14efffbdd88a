"""Sampler benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cnf-regime --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout; the sampler is imported from its
``src`` directory.  The workload instance is generated from ``--seed``,
written in a real input format and driven through the public API: parse,
``cli.prepare_pipeline``, ``PreparedPipeline.draw`` in a closed loop (one
caller, each draw starts when the previous one returns), then one in-process
``cli.run(["sample", ..., "--jobs", "2"])``.  Every draw is checked against
the generated clauses or edges, and the ``--jobs`` output must be
byte-identical to the serial draws.

With ``--trace 0`` the last output line holds the end-to-end metrics.  With
``--trace 1`` half the run is drawn untraced and the same draw ids are drawn
again with every layer traced; the last line holds the per-layer metrics and
the tracing overhead, and the spans are written to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

from spans import Tracer
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
JOBS = 2
#: Draws needed for a p95 with at least ten draws beyond it.
P95_MIN_DRAWS = 200


def import_sampler():
    """Import lllsampler from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import lllsampler
        from lllsampler import cli, frontends
    except ImportError as e:
        sys.exit(f"cannot import the sampler from {SRC}: {e}")
    if SRC not in Path(lllsampler.__file__).resolve().parents:
        sys.exit(f"lllsampler was imported from outside {SRC}")
    return cli, frontends


def tail_percentile(count: int) -> int:
    """95, or for short runs the highest percentile with ten draws beyond."""
    if count >= P95_MIN_DRAWS:
        return 95
    return max(50, (100 * (count - 10)) // count)


def percentile(values, p: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


class Run:
    """State of one benchmark run over one generated instance."""

    def __init__(self, workload, seed: int, workdir: Path, cli, frontends):
        self.w = workload
        self.seed = seed
        self.cli = cli
        self.frontends = frontends
        self.instance = workload.generate(seed)
        self.path = workdir / ("instance.cnf" if workload.format == "dimacs"
                               else "instance.hg")
        self.path.write_text(self.instance.text)
        self.out_path = workdir / "jobs.out"
        self.cfg = cli.PipelineConfig(
            str(self.path), workload.format, workload.pipeline,
            colors=workload.colors, seed=seed, force=workload.force)
        # draw id -> digest of the serial draw's JSON line (None if it raised)
        self.digests: dict[int, bytes] = {}
        self.attempted = 0
        self.failed = 0

    def setup(self):
        """Parse the written file and prepare the pipeline; returns the
        prepared pipeline and the elapsed seconds.  The caller drops its
        previous pipeline first, and the heap is collected before the clock
        starts: whether a full collection lands inside a set-up otherwise
        moves its time by up to a factor of two."""
        gc.collect()
        t0 = time.perf_counter()
        text = self.path.read_text()
        if self.w.format == "dimacs":
            parsed = self.frontends.parse_dimacs(text)
        else:
            parsed = self.frontends.parse_hypergraph(text)
        prepared = self.cli.prepare_pipeline(parsed, self.cfg)
        elapsed = time.perf_counter() - t0
        if prepared.forced_empty != self.w.forced_empty:
            sys.exit(f"{self.w.name} seed {self.seed}: forced_empty is "
                     f"{prepared.forced_empty}, expected {self.w.forced_empty};"
                     " the workload left its code path")
        return prepared, elapsed

    def draw_loop(self, prepared, seconds: float, first: int = 0,
                  count: int = None, on_draw=None):
        """Closed-loop draws from id ``first`` on, for ``seconds`` or for
        exactly ``count`` draws; returns per-draw latencies in seconds.
        Each draw is checked after its latency is taken."""
        latencies = []
        start = time.perf_counter()
        i = first
        while (i - first < count if count is not None
               else time.perf_counter() - start < seconds):
            if on_draw is not None:
                on_draw(i)
            t0 = time.perf_counter()
            try:
                values = prepared.draw(self.seed, i)
            except Exception as e:  # a failed draw is data, not a crash
                values = e
            latencies.append(time.perf_counter() - t0)
            self.check_draw(i, values)
            i += 1
        return latencies

    def check_draw(self, i: int, values) -> None:
        self.attempted += 1
        if isinstance(values, Exception):
            print(f"draw {i} raised {type(values).__name__}: {values}",
                  file=sys.stderr)
            self.failed += 1
            self.digests.setdefault(i, None)
            return
        line = json.dumps(values)
        digest = _digest(line)
        if self.digests.setdefault(i, digest) != digest:
            print(f"draw {i} differs between runs", file=sys.stderr)
            self.failed += 1
        elif not self.instance.check_line(line):
            print(f"draw {i} is not a solution", file=sys.stderr)
            self.failed += 1

    def jobs_run(self, prepared) -> float:
        """Wall time of one ``sample --jobs`` run; its output must equal the
        serial draws line for line."""
        n = self.w.jobs_num
        argv = ["sample", "--input", str(self.path),
                "--format", self.w.format, "--pipeline", self.w.pipeline,
                "--seed", str(self.seed), "--num", str(n),
                "--jobs", str(JOBS), "--out", str(self.out_path)]
        if self.w.colors:
            argv += ["--colors", str(self.w.colors)]
        if self.w.force:
            argv.append("--force")
        t0 = time.perf_counter()
        code = self.cli.run(argv)
        wall = time.perf_counter() - t0
        if len(self.digests) < n:
            self.draw_loop(prepared, 0, first=len(self.digests),
                           count=n - len(self.digests))
        self.attempted += n
        if code != 0:
            print(f"--jobs run exited {code}", file=sys.stderr)
            self.failed += n
            return wall
        text = self.out_path.read_text()
        got = text.split("\n")
        bad = sum(1 for i in range(n)
                  if i >= len(got) or self.digests[i] is None
                  or _digest(got[i]) != self.digests[i])
        if bad or text != "\n".join(got[:n]) + "\n":
            print(f"--jobs output differs from the serial draws on "
                  f"{bad} of {n} lines", file=sys.stderr)
            self.failed += max(bad, 1)
        return wall


def _digest(line: str) -> bytes:
    return hashlib.blake2b(line.encode(), digest_size=16).digest()


def setups_and_draws(run: Run, seconds: float):
    """The workload's set-up repeated ``setup_repeats`` times, spread over
    the run: each set-up is followed by an equal share of the closed-loop
    draws, whose ids carry on from the previous share.  Returns the last
    prepared pipeline, the median set-up time and the draw latencies."""
    times, lat = [], []
    for _ in range(run.w.setup_repeats):
        prepared = None   # one prepared pipeline alive at a time
        prepared, elapsed = run.setup()
        times.append(elapsed)
        lat += run.draw_loop(prepared, seconds / run.w.setup_repeats,
                             first=len(lat))
    return prepared, statistics.median(times), lat


def end_to_end(run: Run, seconds: float) -> dict:
    prepared, setup_s, lat = setups_and_draws(run, seconds)
    jobs_wall = run.jobs_run(prepared)
    p = tail_percentile(len(lat))
    if p != 95:
        print(f"note: {len(lat)} draws, draw_ms_p95 holds p{p}")
    lat_ms = [1000.0 * x for x in lat]
    # Printed but not gated: on a host whose speed alternates between two
    # levels, the mean and the median follow the share of the run spent at
    # each level and the single --jobs wall time the level of its few
    # seconds, so all three spread past the largest allowed bound.
    print(f"{run.w.name} samples_per_s = {len(lat) / sum(lat):.6g} 1/s "
          f"({len(lat)} draws, not gated)")
    print(f"{run.w.name} draw_ms_p50 = {statistics.median(lat_ms):.6g} ms "
          f"({len(lat)} draws, not gated)")
    print(f"{run.w.name} jobs_wall_s = {jobs_wall:.6g} s "
          f"(--num {run.w.jobs_num} --jobs {JOBS}, not gated)")
    return {
        "setup_s": (setup_s, "s"),
        "draw_ms_p95": (percentile(lat_ms, p), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                        / 1024.0, "MB"),
    }


def per_layer(run: Run, seconds: float) -> dict:
    prepared, setup_plain, lat_plain = setups_and_draws(run, seconds / 2)
    jobs_wall = run.jobs_run(prepared)
    draws = len(lat_plain)

    tracer = Tracer()
    try:
        tracer.install()
        prepared = None
        prepared, setup_traced = run.setup()
        tracer.counts.clear()   # the counts below are per draw

        def on_draw(i):
            tracer.draw_id = i

        lat_traced = run.draw_loop(prepared, 0, count=draws, on_draw=on_draw)
    finally:
        tracer.uninstall()
    WORK.mkdir(exist_ok=True)
    tracer.save(WORK / f"spans-{run.w.name}.npz")

    s = tracer.summary()
    c = tracer.counts

    def setup_self(name):
        return s[(name, "setup")][2]

    def draw_calls(name):
        return s[(name, "draw")][0] / draws

    def draw_self(name):
        return s[(name, "draw")][2] / draws

    def ratio(a, b):
        return a / b if b else 0.0

    chain_calls, chain_total, chain_self = s[("sampler.bounding_chain",
                                              "draw")]
    rej_calls = s[("kernels.rejection", "draw")][0]
    comp_calls = s[("kernels.component", "draw")][0]
    marked = prepared.marking.marked
    samples_per_s = len(lat_plain) / sum(lat_plain)
    return {
        "frontends.parse_s": (setup_self("frontends.parse"), "s"),
        "core.preprocess_s": (setup_self("core.preprocess"), "s"),
        "core.compute_measures_calls": (
            s[("core.compute_measures", "setup")][0], "count"),
        "core.compute_measures_s": (setup_self("core.compute_measures"),
                                    "s"),
        "marking.construct_s": (setup_self("marking.construct"), "s"),
        "marking.check_conditions_calls": (
            s[("marking.check_conditions", "setup")][0], "count"),
        "marking.check_conditions_s": (
            setup_self("marking.check_conditions"), "s"),
        "marking.marked_frac": (ratio(sum(marked), len(marked)), "ratio"),
        "tensorization.tensorize_s": (setup_self("tensorization.tensorize"),
                                      "s"),
        "tensorization.chain_vars": (prepared.run_csp.num_vars, "count"),
        "tensorization.trans_s": (draw_self("tensorization.trans"),
                                  "s/draw"),
        "kernels.update_ctx_s": (setup_self("kernels.update_ctx"), "s"),
        "kernels.component_calls": (draw_calls("kernels.component"),
                                    "count/draw"),
        "kernels.component_s": (draw_self("kernels.component"), "s/draw"),
        "kernels.component_vars_mean": (
            ratio(c["kernels.component_vars"], comp_calls), "count"),
        "kernels.rejection_calls": (draw_calls("kernels.rejection"),
                                    "count/draw"),
        "kernels.rejection_attempts": (
            c["kernels.rejection_attempts"] / draws, "count/draw"),
        "kernels.rejection_s": (draw_self("kernels.rejection"), "s/draw"),
        "kernels.rejection_accept_ratio": (
            ratio(rej_calls, c["kernels.rejection_attempts"]), "ratio"),
        "kernels.tape_streams": (c["kernels.tape_streams"] / draws,
                                 "count/draw"),
        "kernels.layered_block_calls": (
            c["kernels.layered_block_calls"] / draws, "count/draw"),
        "sampler.chain_steps": (c["sampler.chain_steps"] / draws,
                                "count/draw"),
        "sampler.horizon": (c["sampler.horizon"] / draws, "steps"),
        "sampler.bounding_chain_calls": (chain_calls / draws, "count/draw"),
        "sampler.bounding_chain_s": (chain_self / draws, "s/draw"),
        "sampler.chain_step_ns": (
            1e9 * ratio(chain_total, c["sampler.chain_steps"]), "ns"),
        "sampler.coalesced_ratio": (
            ratio(c["sampler.coalesced_runs"], chain_calls), "ratio"),
        "sampler.final_sampling_s": (draw_self("sampler.final_sampling"),
                                     "s/draw"),
        "cli.prepare_s": (setup_self("cli.prepare"), "s"),
        "cli.draw_self_s": (draw_self("cli.draw"), "s/draw"),
        "cli.jobs_speedup": (
            (setup_plain + run.w.jobs_num / samples_per_s) / jobs_wall,
            "ratio"),
        "trace.setup_overhead_frac": (setup_traced / setup_plain - 1.0,
                                      "ratio"),
        "trace.draw_overhead_frac": (sum(lat_traced) / sum(lat_plain) - 1.0,
                                     "ratio"),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    cli, frontends = import_sampler()
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{time.time_ns()}"
    workdir.mkdir()
    try:
        run = Run(WORKLOADS[args.workload], args.seed, workdir, cli,
                  frontends)
        measure = per_layer if args.trace else end_to_end
        metrics = measure(run, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = "
          f"{run.failed / max(run.attempted, 1):.6g} "
          f"({run.failed}/{run.attempted})")
    correct = run.failed == 0 and run.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
