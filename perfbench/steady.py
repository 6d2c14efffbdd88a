"""Steadiness runner: repeat every workload and summarise each metric.

    python3 perfbench/steady.py                  # 10 runs of every workload
    python3 perfbench/steady.py --repeats 1      # one run of every workload
    python3 perfbench/steady.py --sets 2         # two sets; compare medians
    python3 perfbench/steady.py --trace 1        # per-layer metrics instead

Each run is ``BENCHMARK.json``'s command with its own ``--seed``; runs go
round-robin over the workloads.  For every metric the runner prints the
median and quartiles (``statistics.quantiles(values, n=4)``) and, for the
end-to-end metrics, the quartile spread as a share of the median against
the metric's bound; the figures a run prints as "not gated" are summarised
without a bound.  With two sets it also prints how far the second set's
median moved in the worse direction.  Exits 1 if any run failed or any
output check failed, 2 if a spread or a median shift exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The first run in a fresh checkout may take this long; later ones 180 s.
RUN_TIMEOUT_S = 900
#: Output lines of figures that are printed but carry no bound.
UNGATED = re.compile(r"^\S+ (\S+) = (\S+) (\S+) \(.*not gated\)$")


def run_once(spec, workload, seed, trace):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None or not result["correct"]:
        sys.stderr.write(f"{workload} seed {seed}: exit {proc.returncode}\n"
                         f"{proc.stderr[-2000:]}")
        return None
    result["ungated"] = [m.groups() for m in map(UNGATED.match, lines) if m]
    return result


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--repeats", type=int, default=10)
    ap.add_argument("--sets", type=int, choices=(1, 2), default=1)
    ap.add_argument("--seed", type=int, default=1, help="first seed")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]

    # values[set][workload][metric] -> list of run values
    values = [{w: {m["name"]: [] for m in metrics} for w in workloads}
              for _ in range(args.sets)]
    units = {}   # name -> unit of the printed, ungated figures
    failures = 0
    seed = args.seed
    for s in range(args.sets):
        for _ in range(args.repeats):
            for w in workloads:
                result = run_once(spec, w, seed, args.trace)
                seed += 1
                if result is None:
                    failures += 1
                    continue
                failures += result["failed"] > 0
                for name, entry in result["metrics"].items():
                    values[s][w][name].append(entry["value"])
                for name, value, unit in result["ungated"]:
                    units.setdefault(name, unit)
                    values[s][w].setdefault(name, []).append(float(value))

    unsteady = 0
    shown = metrics + [{"name": n, "unit": u} for n, u in units.items()]
    for w in workloads:
        print(f"== {w}")
        for m in shown:
            name, unit = m["name"], m["unit"]
            for s in range(args.sets):
                vals = values[s][w].get(name, [])
                if not vals:
                    print(f"  {name}: no successful runs")
                    continue
                q1, med, q3 = quartiles(vals)
                line = (f"  {name} [{unit}] set {s + 1}: median {med:.6g}"
                        f"  q1 {q1:.6g}  q3 {q3:.6g}  n={len(vals)}")
                if "bound" in m and med:
                    spread = (q3 - q1) / abs(med)
                    wide = spread > m["bound"]
                    unsteady += wide
                    line += (f"  spread {spread:.3f} / bound {m['bound']}"
                             f"{'  WIDE' if wide else ''}")
                print(line)
            if args.sets == 2 and "bound" in m:
                a, b = values[0][w][name], values[1][w][name]
                if a and b:
                    ma, mb = statistics.median(a), statistics.median(b)
                    worse = ((mb - ma) if m["better"] == "lower"
                             else (ma - mb)) / abs(ma)
                    moved = worse > m["bound"]
                    unsteady += moved
                    print(f"  {name}: set 2 worse than set 1 by "
                          f"{worse:+.3f} / bound {m['bound']}"
                          f"{'  MOVED' if moved else ''}")
    if failures:
        print(f"{failures} run(s) failed or failed an output check")
        return 1
    return 2 if unsteady else 0


if __name__ == "__main__":
    sys.exit(main())
