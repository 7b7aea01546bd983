"""Benchmark of binact: exhaustive workloads measured end to end and per layer.

    python3 bench/run.py --workload enum-full --seed 0 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 10 --trace 0

Run from the root of a checkout. Each round runs a workload's ops once in
a fresh interpreter (bench/worker.py), single-process and single-threaded.
A run makes at least one round and starts another while it still fits in
--seconds; every round takes 6-15 s, so at 10 s a run is one round. With
--trace 0, fifteen more interpreters only do the set-up, so that setup_s
is a median of many. The library is reached only through its public
functions and its CLI entry point binact.cli.main.

Times are given at a reference machine speed: each worker samples the
speed of the machine as it runs, and every wall time is converted with the
speed measured over that interval (bench/speed.py says why and how). The
raw wall times and the median speed factor are printed on stderr.

End-to-end metrics (--trace 0), each the median over the run's rounds:
  wall_s       the timed phase of a round, at the reference speed
  setup_s      from starting the interpreter to the end of set-up (import
               binact, build the groups and the workload inputs), at the
               reference speed; the median over the set-up-only
               interpreters and the rounds
  peak_rss_mb  peak RSS of the interpreter that ran the round
The failed fraction of ops is reported as `failed` over `attempted` in the
result line and as failed_frac in the summary on stderr. An op fails when
it raises, stops on a budget, or misses its reference counts or (at seed
0) its output digest; see bench/reference.json.

With --trace 1, rounds alternate untraced and traced. The traced ones
install timing wrappers (bench/tracer.py) and report per-layer metrics,
medians over the traced rounds, with times at the reference speed like
wall_s. trace.overhead_s is the traced minus the
untraced median wall_s; trace.overhead_est_s is the measured cost of one
wrapper times the number of wrapped calls, taken inside the traced
interpreter. Spans are written to .bench_run/.

Seed 0 keeps the catalog labels and every output is checked against its
recorded digest. Other seeds relabel the group elements other than the
identity (and, for battery-sweep, the carrier points of action and
topology alike; see bench/inputs.py), and only the labelling-invariant
counts are checked.

Cases left out because a single run at the commit that introduced the
benchmark took too long for one round: homomorphism generation for q8 on
5 points (about 60 s) and z2xz2xz2 on 5 points (about 72 s); full
enumeration of z3 on 4 points (about 14 s); and distributive enumeration of
k4 and s3 on 5 points, which ran 37-43 s on a 20 s budget and still
stopped on the budget. They are for a later benchmark change.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import reference_seconds
from worker import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 15
ROUND_TIMEOUT_S = 150


class RoundFailed(Exception):
    pass


def spawn(workload: str, seed: int, *flags: str) -> dict:
    """One worker interpreter; its result plus setup_s, measured from just
    before the interpreter starts. The interpreter's own start-up, until
    the worker's first line, is taken as it is: it slows far less than
    Python code when the machine does. The rest is converted to the
    reference speed."""
    cmd = [sys.executable, "-E", "-s", str(BENCH / "worker.py"),
           "--workload", workload, "--seed", str(seed), *flags]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=ROUND_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RoundFailed(f"{' '.join(cmd)} exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    result["setup_raw_s"] = result["setup_end"] - start
    result["setup_s"] = result["started"] - start + reference_seconds(
        result["setup_end"] - result["started"], result["setup_factor"],
        result["setup_sampling_s"])
    return result


def layer_value(rnd: dict, name: str, unit: str) -> float:
    """A per-layer metric of a traced round; times are converted to the
    reference speed the way the round's wall time was, which also takes
    out the sampler's share of them."""
    value = rnd["layers"][name]
    return value * rnd["wall_s"] / rnd["wall_raw_s"] if unit == "s" else value


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + seconds
    setups = [] if trace else [spawn(workload, seed, "--setup-only")
                               for _ in range(SETUP_PROBES)]
    plain, traced = [], []
    longest = 0.0
    while True:
        began = time.monotonic()
        plain.append(spawn(workload, seed))
        if trace:
            traced.append(spawn(workload, seed, "--trace"))
        longest = max(longest, time.monotonic() - began)
        if time.monotonic() + longest > deadline:
            break

    rounds = plain + traced
    problems = [f"{r['op']}: {p}" for rnd in rounds for r in rnd["ops"] for p in r["problems"]]
    attempted = sum(len(rnd["ops"]) for rnd in rounds)
    failed = sum(1 for rnd in rounds for r in rnd["ops"] if r["problems"])
    wall = statistics.median(r["wall_s"] for r in plain)
    setups += plain
    raw = {"wall_raw_s": statistics.median(r["wall_raw_s"] for r in plain),
           "setup_raw_s": statistics.median(r["setup_raw_s"] for r in setups),
           "speed_factor": statistics.median(r["speed_factor"] for r in plain)}
    if trace:
        units = {m["name"]: m["unit"] for m in
                 json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]}
        metrics = {name: (statistics.median(layer_value(r, name, units[name]) for r in traced),
                          units[name])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (
            statistics.median(r["wall_s"] for r in traced) - wall, "s")
    else:
        metrics = {
            "wall_s": (wall, "s"),
            "setup_s": (statistics.median(r["setup_s"] for r in setups), "s"),
            "peak_rss_mb": (statistics.median(r["peak_rss_mb"] for r in plain), "MB"),
        }
    return {
        "workload": workload,
        "rounds": len(plain),
        "traced_rounds": len(traced),
        "setups": len(setups),
        "raw": raw,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "metrics": metrics,
        "split": traced[-1]["split"] if traced else None,
    }


def report(res: dict, seed: int) -> None:
    """Human-readable summary on stderr."""
    out = sys.stderr
    print(f"{res['workload']} seed={seed}: {res['rounds']} rounds, {res['traced_rounds']} traced, "
          f"{res['setups']} set-ups", file=out)
    for name, (value, unit) in res["metrics"].items():
        print(f"  {name:34} {value:.6g} {unit}", file=out)
    for name, value in res["raw"].items():
        print(f"  {name:34} {value:.6g} {'' if name == 'speed_factor' else 's'}", file=out)
    print(f"  {'failed_frac':34} {res['failed'] / res['attempted']:.6g} ratio "
          f"({res['failed']} of {res['attempted']} ops failed)", file=out)
    for p in res["problems"]:
        print(f"  FAILED {p}", file=out)
    for op, part in (res["split"] or {}).items():
        total = part["total_s"]
        print(f"  split of {op}, traced, raw: {total:.3f} s, of which untraced "
              f"{100 * part['untraced_s'] / total:.1f}%", file=out)
        print(f"    {'traced function':36} {'inclusive':>17} {'self':>17}", file=out)
        for name, (incl, own) in sorted(part["functions"].items(), key=lambda kv: -kv[1][0]):
            if incl >= 0.01 * total:
                print(f"    {name:36} {incl:8.3f} s {100 * incl / total:5.1f}% "
                      f"{own:8.3f} s {100 * own / total:5.1f}%", file=out)


def result_line(res: dict) -> dict:
    return {
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in res["metrics"].items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "binact" / "__init__.py").is_file():
        print(f"no binact sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    lines = {}
    for name in names:
        try:
            res = measure(name, args.seed, args.seconds, bool(args.trace))
        except (RoundFailed, subprocess.TimeoutExpired) as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 1
        report(res, args.seed)
        lines[name] = result_line(res)
    print(json.dumps(lines if args.workload == "all" else lines[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
