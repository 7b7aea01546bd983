"""One round of a benchmark workload, run in a fresh interpreter.

    python3 bench/worker.py --workload enum-full --seed 0 [--setup-only] [--trace]

Set-up imports binact from the checkout's src/, builds the groups and the
workload inputs for the seed; the timed phase then runs every op of the
workload once, and the checks afterwards compare each op's output with
bench/reference.json. A speed sampler (bench/speed.py) runs from the
start. The last line of stdout is one JSON object: the monotonic time
set-up ended and the speed factor and sampling time of set-up; the timed
phase in seconds, raw and at the reference speed; the peak RSS of this
process over set-up and timed phase; the outcome of every op and, with
--trace, the per-layer metrics, whose span times include the sampler's
few percent. A fresh process per round matters:
topology.minimal_neighborhoods is a process-wide cache that a single CLI
call always starts cold.
"""

from __future__ import annotations

import time

from speed import SpeedSampler, reference_seconds

# The interpreter has started; sample the machine's speed from here on,
# through the imports below and the rest of set-up.
STARTED = time.monotonic()
SAMPLER = SpeedSampler()
if __name__ == "__main__":
    SAMPLER.start()

import argparse
import contextlib
import hashlib
import io
import json
import resource
import shutil
import sys
import tempfile
from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from pathlib import Path
from typing import Callable

from inputs import draw_perm, relabel_group, relabel_opens, relabel_table, rng_for

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUN_DIR = ROOT / ".bench_run"


@dataclass
class Op:
    """One unit of work: run() is timed; observe(output) is not, and returns
    the op's counts and the bytes its digest covers."""

    name: str
    run: Callable
    observe: Callable


# --- ops ---------------------------------------------------------------------

def run_cli(binact, argv) -> int:
    """binact.cli.main with its stdout kept off the worker's result line."""
    with contextlib.redirect_stdout(io.StringIO()):
        return binact.cli.main(argv)


def _read(path: Path) -> bytes:
    return path.read_bytes() if path.is_file() else b""


def group_file(binact, work, rng, name) -> Path:
    """The relabelled group written as JSON, for the CLI's --group."""
    g, _ = relabel_group(binact, name, rng)
    path = work / f"{name}.json"
    path.write_text(json.dumps(binact.group_to_json(g)))
    return path


def enumerate_op(binact, work, rng, name, carrier, flags=()):
    out = work / f"enumerate-{name}-{carrier}.jsonl"
    argv = ["enumerate", "--group", str(group_file(binact, work, rng, name)),
            "--carrier", str(carrier), *flags, "--out", str(out)]

    def observe(code):
        payload = _read(out)
        lines = payload.decode().splitlines()
        summary = json.loads(lines[-1]) if lines else {}
        counts = {k: summary.get(k) for k in ("raw_count", "canonical_count", "distributive_count",
                                               "exhaustive")}
        counts.update(exit_code=code, actions_written=max(len(lines) - 1, 0), out_bytes=len(payload))
        return counts, payload

    label = "enumerate-distributive" if flags else "enumerate"
    return Op(f"{label} {name}/{carrier}", lambda: run_cli(binact, argv), observe)


def witnesses_op(binact, work, rng, name, carrier):
    out = work / f"witnesses-{name}-{carrier}.json"
    argv = ["witnesses", "--group", str(group_file(binact, work, rng, name)),
            "--carrier", str(carrier), "--out", str(out)]

    def observe(code):
        payload = _read(out)
        report = json.loads(payload) if payload else {}
        counts = {
            "exit_code": code,
            "actions_scanned": report.get("actions_scanned"),
            "intersecting_orbits_found": report.get("intersecting_orbits") is not None,
            "non_bi_invariant_union_found": report.get("non_bi_invariant_union") is not None,
            "out_bytes": len(payload),
        }
        return counts, payload

    return Op(f"witnesses {name}/{carrier}", lambda: run_cli(binact, argv), observe)


def dey_count(binact, g, n: int) -> int:
    """Number of homomorphisms G -> S_n by Dey's formula: their exponential
    generating function is exp(sum over subgroups H of x^[G:H] / [G:H]).
    With c_d the number of subgroups of index d and a_k = h_k / k!, this
    gives k a_k = sum_{d=1..k} c_d a_{k-d}."""
    c = [0] * (n + 1)
    for h in binact.all_subgroups(g):
        d = g.order // len(h)
        if d <= n:
            c[d] += 1
    a = [Fraction(1)]
    for k in range(1, n + 1):
        a.append(sum((c[d] * a[k - d] for d in range(1, k + 1)), Fraction(0)) / k)
    return int(a[n] * factorial(n))


def ordinary_op(binact, rng, name, carrier):
    g, _ = relabel_group(binact, name, rng)

    def observe(result):
        payload = json.dumps([o.table for o in result]).encode()
        return {"homs": len(result), "homs_by_dey": dey_count(binact, g, carrier)}, payload

    return Op(f"ordinary {name}/{carrier}",
              lambda: binact.search.all_ordinary_actions(g, carrier), observe)


def battery_op(binact, name, group, p, tables, sigma, topologies):
    """Continuity of every model of the group's actions; quotient topology
    and the theorem battery on each continuous one."""
    models = []
    for table in tables:
        a = binact.validate_action(group, relabel_table(table, p, sigma))
        models.extend(binact.make_space(a, t) for t in topologies)

    def run():
        topo = binact.topology
        out = []
        for s in models:
            if topo.is_continuous(s) is True:
                q = topo.quotient_topology(s)
                out.append((q.opens, topo.run_topology_battery(s.action, s.topology)))
        return out

    def observe(result):
        payload = "\n".join(
            json.dumps([list(q), [r.to_json() for r in recs]]) for q, recs in result).encode()
        counts = {"models": len(models), "continuous": len(result),
                  "records": sum(len(recs) for _, recs in result)}
        return counts, payload

    return Op(f"battery {name}/4", run, observe)


# --- workloads ---------------------------------------------------------------

def setup_enum_full(binact, seed, work):
    rng = rng_for(seed)
    return [enumerate_op(binact, work, rng, "z2", 4),
            witnesses_op(binact, work, rng, "s3", 3)]


def setup_enum_distributive(binact, seed, work):
    rng = rng_for(seed)
    flags = ("--require-distributive", "--dedupe")
    return [enumerate_op(binact, work, rng, name, m, flags)
            for name, m in (("k4", 4), ("z3", 5), ("s3", 4))]


def setup_ordinary_actions(binact, seed, work):
    rng = rng_for(seed)
    return [ordinary_op(binact, rng, name, m)
            for name, m in (("k4", 6), ("s3", 5), ("d4", 5), ("z2xz2xz2", 4))]


def setup_battery_sweep(binact, seed, work):
    """The 32 canonical distributive actions of z2, z3 and s3 on 4 points
    (bench/battery_actions.json, as enumerate_actions with
    require_distributive and dedupe gives them) times all 355 topologies."""
    rng = rng_for(seed)
    tables = json.loads((BENCH / "battery_actions.json").read_text())
    groups = {name: relabel_group(binact, name, rng) for name in tables}
    sigma = draw_perm(rng, range(4))
    topologies = [binact.validate_topology(4, relabel_opens(t.opens, sigma))
                  for t in binact.topology.all_topologies(4)]
    return [battery_op(binact, name, *groups[name], rows, sigma, topologies)
            for name, rows in tables.items()]


WORKLOADS = {
    "enum-full": setup_enum_full,
    "enum-distributive": setup_enum_distributive,
    "ordinary-actions": setup_ordinary_actions,
    "battery-sweep": setup_battery_sweep,
}


# --- one round -----------------------------------------------------------------

def check(op: Op, output, seed: int, reference: dict):
    """Problems with one op's output: an exception, a count that differs
    from the reference (every seed), or a digest that differs (seed 0)."""
    if isinstance(output, Exception):
        return [f"raised {type(output).__name__}: {output}"], {}
    try:
        counts, payload = op.observe(output)
    except Exception as exc:  # unreadable output fails the op, not the round
        return [f"output unreadable: {type(exc).__name__}: {exc}"], {}
    ref = reference[op.name]
    problems = [f"{k} = {counts.get(k)!r}, expected {v!r}"
                for k, v in ref["counts"].items() if counts.get(k) != v]
    digest = hashlib.sha256(payload).hexdigest()
    if seed == 0 and digest != ref["sha256"]:
        problems.append(f"output sha256 {digest}, expected {ref['sha256']}")
    return problems, counts


def import_binact():
    sys.path.insert(0, str(ROOT / "src"))
    import binact
    import binact.cli  # noqa: F401  (the CLI module is not imported by the package)

    return binact


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    binact = import_binact()
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    RUN_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=RUN_DIR))
    try:
        ops = WORKLOADS[args.workload](binact, args.seed, work)
        SAMPLER.sample()
        setup_factor, setup_sampling_s = SAMPLER.interval((0, 0.0), SAMPLER.mark())
        setup = {"started": STARTED, "setup_end": time.monotonic(), "setup_factor": setup_factor,
                 "setup_sampling_s": setup_sampling_s}
        if args.setup_only:
            SAMPLER.stop()
            print(json.dumps(setup))
            return 0

        outputs = []
        before = SAMPLER.mark()
        start = time.perf_counter()
        for op in ops:
            span = tracer.span("op:" + op.name) if tracer else contextlib.nullcontext()
            with span:
                try:
                    outputs.append(op.run())
                except Exception as exc:  # a failed op is reported, not fatal
                    outputs.append(exc)
        wall = time.perf_counter() - start
        SAMPLER.stop()
        factor, sampling_s = SAMPLER.interval(before, SAMPLER.mark())
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        reference = json.loads((BENCH / "reference.json").read_text())
        results = []
        extra = {"out_bytes": 0, "models": 0, "continuous": 0}
        for op, output in zip(ops, outputs):
            problems, counts = check(op, output, args.seed, reference)
            results.append({"op": op.name, "problems": problems})
            for k in extra:
                extra[k] += counts.get(k) or 0
        record = {**setup, "wall_raw_s": wall, "speed_factor": factor,
                  "wall_s": reference_seconds(wall, factor, sampling_s),
                  "peak_rss_mb": peak_rss_mb, "ops": results}
        if tracer is not None:
            layers = tracer.metrics()
            layers["cli.out_bytes"] = extra["out_bytes"]
            layers["topology.continuous_yield"] = (
                extra["continuous"] / extra["models"] if extra["models"] else 0.0)
            record["layers"] = layers
            layers["trace.overhead_est_s"] = tracer.overhead_estimate()
            record["split"] = tracer.split()
            tracer.write(RUN_DIR / f"spans-{args.workload}-seed{args.seed}.tsv")
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
