"""Command-line front end.

Exit codes: 0 when the requested check passes, 1 when validation or an
asserted check fails (the witness is printed), 2 for usage or IO errors.
Output is deterministic byte for byte for a given input and flag set; no
subcommand uses randomness. The BINACT_THREADS environment variable caps
worker parallelism; evaluation is currently sequential, which respects
any cap, and the variable is still validated so misuse fails loudly.

main() builds its argument parser on its first call and keeps it for the
rest of the process, since parsing leaves no state on a parser;
build_parser() builds a fresh one on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .actions import (
    _table_json,
    action_from_json,
    action_to_json,
    conjugation_coset_action,
    from_ordinary,
    induced_action,
    is_distributive,
    ordinary_from_json,
    ordinary_to_json,
)
from .binops import (
    identity_op,
    invertible_group_order,
    op_from_json,
    op_to_json,
    star,
    try_invert,
)
from .errors import (
    BinactError,
    BudgetExceeded,
    CapExceeded,
    NotContinuous,
    NotDistributive,
    NotInvertible,
    TheoremViolation,
)
from .groups import builtin_group, group_from_json, group_to_json, subgroup_closure
from .orbits import orbit_report_json, orbit_space
from .search import EnumerationTask, enumerate_actions, mine_counterexamples
from .topology import (
    _battery,
    points_of,
    run_topology_battery,
    topology_from_json,
    topology_to_json,
)


class CliFailure(Exception):
    """Internal: carries an exit code and a message for main() to report."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code


def _read_json(path: str):
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise CliFailure(2, f"cannot read {path}: {exc.strerror or exc}") from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise CliFailure(2, f"invalid JSON in {path}: {exc}") from exc


def _write_text(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliFailure(2, f"cannot write {path}: {exc.strerror or exc}") from exc


def _resolve_group(ref: str):
    """A group argument is a path if such a file exists, else a catalog name."""
    if Path(ref).is_file():
        return group_from_json(_read_json(ref))
    try:
        return builtin_group(ref)
    except CapExceeded:
        raise
    except BinactError:
        raise CliFailure(2, f"group {ref!r} is neither a readable file nor a known name") from None


def _load(path: str, from_json):
    """An action record read by from_json; a group name in it is a file
    beside the record if one exists, else a catalog name."""
    data = _read_json(path)

    def resolver(name: str):
        rel = Path(path).parent / name
        if rel.is_file():
            return group_from_json(_read_json(str(rel)))
        return builtin_group(name)

    return from_json(data, group_resolver=resolver)


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _emit(args, obj) -> None:
    if args.out:
        _write_text(Path(args.out), _dump(obj))


def _print_records(records) -> None:
    for rec in records:
        print(f"check={rec.check} outcome={'true' if rec.outcome else 'false'} "
              f"hypotheses_met={'true' if rec.hypotheses_met else 'false'}")


def _parse_members(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise CliFailure(2, f"expected a list of integers, got {text!r}") from None


# --- subcommand handlers ------------------------------------------------------

def _cmd_validate(args) -> int:
    if args.action:
        _load(args.action, action_from_json)
        print("axioms (1),(2): OK")
    elif args.group:
        g = _resolve_group(args.group)
        print(f"group axioms: OK (name={g.name} order={g.order})")
    elif args.op:
        f = op_from_json(_read_json(args.op))
        print(f"binary operation: OK (size={f.size})")
    elif args.topology:
        t = topology_from_json(_read_json(args.topology))
        print(f"topology: OK (size={t.carrier_size} opens={len(t.opens)})")
    else:
        raise CliFailure(2, "validate needs one of --action/--group/--op/--topology")
    return 0


def _cmd_distributive(args) -> int:
    a = _load(args.action, action_from_json)
    witness = is_distributive(a)
    if witness is True:
        print("distributive: yes")
        return 0
    print(f"distributive: no; witness (g, h, x, x', x'') = {witness}")
    return 1


def _cmd_orbits(args) -> int:
    a = _load(args.action, action_from_json)
    try:
        space = orbit_space(a)
    except NotDistributive as exc:
        print(f"action is not distributive; witness (g, h, x, x', x'') = {exc.witness}")
        print("orbit spaces are only defined for distributive actions; "
              "use the witnesses subcommand to inspect nesting")
        return 1
    print(f"classes: {len(space.classes)}")
    for i, members in enumerate(space.classes):
        print(f"class {i} (size {len(members)}): " + " ".join(str(x) for x in members))
    print("projection: " + " ".join(str(c) for c in space.projection))
    _emit(args, orbit_report_json(space))
    return 0


def _cmd_quotient(args) -> int:
    a = _load(args.action, action_from_json)
    t = topology_from_json(_read_json(args.topology))
    model_id = f"action={args.action};topology={args.topology}"
    qt, witness, records = _battery(a, t, model_id)
    if qt is None:
        raise NotDistributive(witness)
    print(f"quotient classes: {qt.carrier_size}")
    print("quotient opens: " + "; ".join(
        "{" + ",".join(str(p) for p in points_of(u)) + "}" for u in qt.opens))
    _print_records(records)
    _emit(args, topology_to_json(qt))
    return 0


def _cmd_monoid(args) -> int:
    if args.size is not None:
        order = invertible_group_order(args.size, cap=args.cap)
        print(f"carrier={args.size} invertible_operations={order}")
        return 0
    if not args.op:
        raise CliFailure(2, "monoid needs --size or --op")
    f = op_from_json(_read_json(args.op))
    if args.star:
        g = op_from_json(_read_json(args.star))
        result = star(f, g)
        print(f"star: size={result.size}")
        sys.stdout.write(_dump(op_to_json(result)))
        _emit(args, op_to_json(result))
        return 0
    if args.invert:
        try:
            inv = try_invert(f)
        except NotInvertible as exc:
            print(f"not invertible: row {exc.row} is not a bijection")
            return 1
        check = star(f, inv) == identity_op(f.size) and star(inv, f) == identity_op(f.size)
        print(f"invertible: yes (two-sided check {'passed' if check else 'failed'})")
        sys.stdout.write(_dump(op_to_json(inv)))
        _emit(args, op_to_json(inv))
        return 0 if check else 1
    raise CliFailure(2, "monoid --op needs --invert or --star")


def _report_budget_stop(exc: BudgetExceeded) -> int:
    """A budget stop: where it stopped and the counts of the partial result."""
    partial = exc.partial
    print(f"non-exhaustive: {exc}")
    print(f"raw_count={partial.raw_count} canonical_count={partial.canonical_count} "
          f"distributive_count={partial.distributive_count} exhaustive=no")
    return 1


def _enumerate(args, **flags):
    """The enumeration that the group, carrier and budget arguments name; a
    budget stop propagates to main, which reports it."""
    return enumerate_actions(EnumerationTask(
        group=_resolve_group(args.group), carrier_size=args.carrier,
        node_budget=args.node_budget, time_budget_s=args.time_budget, **flags))


def _cmd_enumerate(args) -> int:
    result = _enumerate(args, require_distributive=args.require_distributive, dedupe=args.dedupe)
    print(f"raw_count={result.raw_count} canonical_count={result.canonical_count} "
          f"distributive_count={result.distributive_count} exhaustive=yes")
    if args.out:
        path = Path(args.out)
        summary = {
            "raw_count": result.raw_count,
            "canonical_count": result.canonical_count,
            "distributive_count": result.distributive_count,
            "witnesses": None,
            "exhaustive": result.exhaustive,
        }
        try:
            with path.open("w") as fh:
                fh.writelines(_action_lines(result.task.group, args.carrier, result.homs,
                                            result.rows))
                fh.write(json.dumps(summary) + "\n")
        except OSError as exc:
            raise CliFailure(2, f"cannot write {path}: {exc.strerror or exc}") from exc
    return 0


def _action_lines(g, m: int, homs, rows):
    """The JSONL line of the action of g on m points whose row at point t
    is homs[row[t]], for each index tuple row: byte for byte
    json.dumps(action_to_json(a)) + "\n" for the action a with no
    group_embedding that EnumerationResult.actions builds from it.

    The record head, group included, is encoded once. json.dumps with its
    default separators writes a list as its items' encodings joined by
    ", " inside brackets, so the slice of element h is written by joining
    the encodings of rho(h) over the rows rho. texts[i] holds them for
    homs[i], one per element, encoded the first time a row uses it.
    """
    head = f'{{"group": {json.dumps(group_to_json(g))}, "carrier": {m}, "table": [['
    texts = [None] * len(homs)

    def encode(i: int) -> list[str]:
        texts[i] = [json.dumps(list(p)) for p in homs[i]]
        return texts[i]

    for row in rows:
        slices = zip(*[texts[i] or encode(i) for i in row])
        yield head + "], [".join(map(", ".join, slices)) + "]]}\n"


def _cmd_topology_check(args) -> int:
    a = _load(args.action, action_from_json)
    t = topology_from_json(_read_json(args.topology))
    model_id = f"action={args.action};topology={args.topology}"
    records = run_topology_battery(
        a, t, model_id=model_id, include_probes=args.probe_non_hausdorff)
    _print_records(records)
    if args.out:
        _write_text(Path(args.out), "\n".join(json.dumps(r.to_json()) for r in records) + "\n")
    return 0


def _cmd_witnesses(args) -> int:
    report = mine_counterexamples(_enumerate(args))
    w = report.intersecting_orbits
    if w is None:
        print("intersecting_orbits: none at this scale")
    else:
        print(f"intersecting_orbits: x={w.x} x'={w.xp} "
              f"sets {sorted(w.set_x)} vs {sorted(w.set_xp)} "
              f"action_table={_table_json(w.action)}")
    u = report.non_bi_invariant_union
    if u is None:
        print("non_bi_invariant_union: none at this scale")
    else:
        print(f"non_bi_invariant_union: A={sorted(u.set_a)} B={sorted(u.set_b)} "
              f"G(AuB,AuB)={sorted(u.union_image)} "
              f"action_table={_table_json(u.action)}")
    print(f"actions_scanned: {report.actions_scanned}")
    _emit(args, report.to_json())
    return 0


def _cmd_induce(args) -> int:
    a = _load(args.action, action_from_json)
    o = induced_action(a, args.point)
    print(f"induced ordinary action at t={args.point}: group={o.group.name} carrier={o.carrier_size}")
    sys.stdout.write(_dump(ordinary_to_json(o)))
    _emit(args, ordinary_to_json(o))
    return 0


def _cmd_embed(args) -> int:
    o = _load(args.ordinary, ordinary_from_json)
    a = from_ordinary(o)
    print(f"embedded binary action: group={a.group.name} carrier={a.carrier_size}")
    sys.stdout.write(_dump(action_to_json(a)))
    _emit(args, action_to_json(a))
    return 0


def _cmd_conjugation(args) -> int:
    g = _resolve_group(args.group)
    if args.subgroup:
        members = _parse_members(args.subgroup)
    elif args.generators:
        members = sorted(subgroup_closure(g, _parse_members(args.generators)))
    else:
        raise CliFailure(2, "conjugation needs --subgroup or --generators")
    a = conjugation_coset_action(g, members)
    print(f"conjugation-coset action: subgroup_size={a.group.order} carrier={a.carrier_size} "
          f"distributive=yes")
    sys.stdout.write(_dump(action_to_json(a)))
    _emit(args, action_to_json(a))
    return 0


# --- parser -------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    """A new parser; the budget options take EnumerationTask's defaults as
    they are at this call."""
    parser = argparse.ArgumentParser(
        prog="binact",
        description="Binary actions of finite groups: validation, orbits, "
                    "quotients, topology checks, enumeration.",
    )
    parser.add_argument("--version", action="version", version=f"binact {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        return p

    p = command("validate", _cmd_validate, "validate a group/op/action/topology file")
    p.add_argument("--action")
    p.add_argument("--group")
    p.add_argument("--op")
    p.add_argument("--topology")

    p = command("distributive", _cmd_distributive, "check the distributivity law")
    p.add_argument("--action", required=True)

    p = command("orbits", _cmd_orbits, "orbit classes and projection of a distributive action")
    p.add_argument("--action", required=True)
    p.add_argument("--out")

    p = command("quotient", _cmd_quotient, "quotient topology of the orbit space")
    p.add_argument("--action", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--out")

    p = command("monoid", _cmd_monoid, "star-monoid utilities")
    p.add_argument("--size", type=int)
    p.add_argument("--cap", type=int, default=4)
    p.add_argument("--op")
    p.add_argument("--invert", action="store_true")
    p.add_argument("--star")
    p.add_argument("--out")

    p = command("enumerate", _cmd_enumerate, "enumerate all binary actions of a group")
    p.add_argument("--group", required=True)
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--require-distributive", action="store_true")
    p.add_argument("--dedupe", action="store_true")
    p.add_argument("--node-budget", type=int, default=EnumerationTask.node_budget)
    p.add_argument("--time-budget", type=float, default=EnumerationTask.time_budget_s)
    p.add_argument("--out")

    p = command("topology-check", _cmd_topology_check, "run the theorem battery on a model")
    p.add_argument("--action", required=True)
    p.add_argument("--topology", required=True)
    p.add_argument("--probe-non-hausdorff", action="store_true")
    p.add_argument("--out")

    p = command("witnesses", _cmd_witnesses, "mine counterexamples from an enumeration")
    p.add_argument("--group", required=True)
    p.add_argument("--carrier", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=EnumerationTask.node_budget)
    p.add_argument("--time-budget", type=float, default=EnumerationTask.time_budget_s)
    p.add_argument("--out")

    p = command("induce", _cmd_induce, "ordinary action induced at a carrier point")
    p.add_argument("--action", required=True)
    p.add_argument("--point", type=int, required=True)
    p.add_argument("--out")

    p = command("embed", _cmd_embed, "embed an ordinary action as a binary action")
    p.add_argument("--ordinary", required=True)
    p.add_argument("--out")

    p = command("conjugation", _cmd_conjugation, "conjugation-coset action of a subgroup")
    p.add_argument("--group", required=True)
    p.add_argument("--subgroup")
    p.add_argument("--generators")
    p.add_argument("--out")

    return parser


_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit code. The parser is built on the
    first call and shared by every later call in the process: each parse
    fills a fresh Namespace, and the defaults and handlers are fixed when
    the parser is built."""
    try:
        args = _shared_parser().parse_args(argv)
    except SystemExit as exc:  # argparse signals usage errors with code 2
        return int(exc.code or 0)

    threads_raw = os.environ.get("BINACT_THREADS")
    if threads_raw is not None:
        try:
            threads = int(threads_raw)
        except ValueError:
            threads = 0
        if threads < 1:
            print(f"BINACT_THREADS must be a positive integer, got {threads_raw!r}",
                  file=sys.stderr)
            return 2

    try:
        return args.handler(args)
    except CliFailure as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except NotContinuous as exc:
        print(f"not continuous: witness open {{{','.join(str(p) for p in points_of(exc.witness_open))}}}")
        return 1
    except TheoremViolation as exc:
        print(f"theorem check failed (this is a bug): {exc}", file=sys.stderr)
        return 1
    except BudgetExceeded as exc:
        return _report_budget_stop(exc)
    except BinactError as exc:
        print(f"{type(exc).__name__}: {exc}")
        return 1


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
