"""Command-line front end.

Exit codes: 0 when the requested check passes, 1 when validation or an
asserted check fails (the witness is printed), 2 for usage or IO errors.
Output is deterministic byte for byte for a given input and flag set; no
subcommand uses randomness. The BINACT_THREADS environment variable caps
worker parallelism; evaluation is currently sequential, which respects
any cap, and the variable is still validated so misuse fails loudly.

main() parses a call whose first argument names a subcommand with a tree
that holds that subcommand alone, and any other call (--help, --version,
no argument, an unknown command) with the whole tree; help, usage errors
and exit codes are the same either way. Each tree is built on its first
use and kept for the rest of the process, since parsing leaves no state
on a parser; build_parser() builds a fresh one on every call.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import itertools
import json
import os
import sys
from pathlib import Path

from . import __version__
from .actions import (
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
    DEFAULT_INVERTIBLE_CAP,
    identity_op,
    invertible_group_digits,
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
    make_space,
    points_of,
    quotient_topology,
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
    except UnicodeDecodeError as exc:  # a file that is not UTF-8 text
        raise CliFailure(2, f"cannot read {path}: {exc}") from exc
    try:
        return json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer past the digit limit
        raise CliFailure(2, f"invalid JSON in {path}: {exc}") from exc


def _write_text(path: Path, text: str):
    try:
        path.write_text(text)
    except OSError as exc:
        raise CliFailure(2, f"cannot write {path}: {exc.strerror or exc}") from exc


def _group(path: Path, name: str, catalog=builtin_group):
    """A group reference: the JSON file at path if one exists, else the
    catalog's name. A path the file system cannot stat (too long a name,
    say) is no file."""
    try:
        found = path.is_file()
    except OSError:
        found = False
    return group_from_json(_read_json(str(path))) if found else catalog(name)


def _catalog_group(ref: str):
    try:
        return builtin_group(ref)
    except CapExceeded:
        raise
    except BinactError:
        raise CliFailure(2, f"group {ref!r} is neither a readable file nor a known name") from None


def _resolve_group(ref: str):
    """A group argument is a path if such a file exists, else a catalog name."""
    return _group(Path(ref), ref, _catalog_group)


def _load(path: str, from_json):
    """An action record read by from_json; a group name in it is a file
    beside the record if one exists, else a catalog name."""
    data = _read_json(path)
    return from_json(data, group_resolver=lambda name: _group(Path(path).parent / name, name))


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
    records = run_topology_battery(a, t, model_id)
    qt = quotient_topology(make_space(a, t))
    print(f"quotient classes: {qt.carrier_size}")
    print("quotient opens: " + "; ".join(
        "{" + ",".join(str(p) for p in points_of(u)) + "}" for u in qt.opens))
    _print_records(records)
    _emit(args, topology_to_json(qt))
    return 0


def _cmd_monoid(args) -> int:
    if args.size is not None:
        digits = invertible_group_digits(args.size, cap=args.cap)
        limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
        if limit and digits > limit:  # str() would refuse the order, once computed
            raise CapExceeded(digits, limit, "digit count of (N!)^N")
        print(f"carrier={args.size} "
              f"invertible_operations={invertible_group_order(args.size, cap=args.cap)}")
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


def _task(args, **flags) -> EnumerationTask:
    """The enumeration that the group, carrier and budget arguments name."""
    return EnumerationTask(
        group=_resolve_group(args.group), carrier_size=args.carrier,
        node_budget=args.node_budget, time_budget_s=args.time_budget, **flags)


def _cmd_enumerate(args) -> int:
    """The counts, and with --out the JSONL listing and its summary line.

    The lines are written run by run as enumerate_actions emits them. With
    no --out the run is the --dedupe one, whose counts are the same, with
    each representative dropped: no class is kept and nothing is walked or
    expanded. The file is opened when the first lines are ready. A budget
    stop leaves the lines written so far, whole, a table-order prefix of
    the finished listing and the rows of the API's partial result, with no
    summary line; it propagates to main, which reports it."""
    task = _task(args, require_distributive=args.require_distributive,
                 dedupe=args.dedupe or not args.out)
    path = Path(args.out) if args.out else None
    out = lines = None
    with contextlib.ExitStack() as stack:
        def write(homs, runs):
            nonlocal out, lines
            if out is None:
                out = stack.enter_context(path.open("w"))
                lines = _action_lines(task.group, task.carrier_size, homs)
            out.writelines(itertools.starmap(lines, runs))

        try:
            result = enumerate_actions(task, write if path else lambda homs, runs: None)
            if path:
                summary = {
                    "raw_count": result.raw_count,
                    "canonical_count": result.canonical_count,
                    "distributive_count": result.distributive_count,
                    "witnesses": None,
                    "exhaustive": result.exhaustive,
                }
                out.write(json.dumps(summary) + "\n")
        except OSError as exc:
            raise CliFailure(2, f"cannot write {path}: {exc.strerror or exc}") from exc
    print(f"raw_count={result.raw_count} canonical_count={result.canonical_count} "
          f"distributive_count={result.distributive_count} exhaustive=yes")
    return 0


def _action_lines(g, m: int, homs):
    """The writer of runs (outer, last) of index tuples into homs: the
    JSONL lines of the actions of g on m points whose row at point t is
    homs[row[t]], for the rows outer + (i,) with i in last, as one string.
    Each line is byte for byte json.dumps(action_to_json(a)) + "\n" for the
    action a with no group_embedding that EnumerationResult.actions builds
    from its row.

    The record head, group included, is encoded once. json.dumps with its
    default separators writes a list as its items' encodings joined by
    ", " inside brackets, so the slice of element h is written by joining
    the encodings of rho(h) over the rows rho. texts[i] holds them for
    homs[i], one per element, encoded the first time a row uses it. Per
    run, one template is built: the head with any % doubled, then each
    slice's start, the texts at points 0..m-2 joined and followed by ", ",
    with %s where the text at point m - 1 goes. The run's lines are that
    template repeated len(last) times, filled by one % from the texts of
    last, flattened; the flat tuple is kept for the last list seen, which
    _walk passes unchanged to every run that shares it.
    """
    head = f'{{"group": {json.dumps(group_to_json(g))}, "carrier": {m}, "table": [['
    head = head.replace("%", "%%")
    texts = [None] * len(homs)
    blank = [""] * g.order  # the starts of a run on one point
    seen = flat = None

    def text(i: int) -> list[str]:
        if texts[i] is None:
            texts[i] = [json.dumps(list(p)) for p in homs[i]]
        return texts[i]

    def lines(outer, last) -> str:
        nonlocal seen, flat
        if last is not seen:
            seen, flat = last, tuple(itertools.chain.from_iterable(map(text, last)))
        starts = [", ".join(sl) + ", " for sl in zip(*map(text, outer))] or blank
        template = head + "%s], [".join(starts) + "%s]]}\n"
        return (template * len(last)) % flat

    return lines


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
    report = mine_counterexamples(enumerate_actions(_task(args, dedupe=True))).to_json()
    w = report["intersecting_orbits"]
    if w is None:
        print("intersecting_orbits: none at this scale")
    else:
        print(f"intersecting_orbits: x={w['x']} x'={w['x_prime']} "
              f"sets {w['minimal_set_x']} vs {w['minimal_set_x_prime']} "
              f"action_table={w['action_table']}")
    u = report["non_bi_invariant_union"]
    if u is None:
        print("non_bi_invariant_union: none at this scale")
    else:
        print(f"non_bi_invariant_union: A={u['set_a']} B={u['set_b']} "
              f"G(AuB,AuB)={u['union_image']} action_table={u['action_table']}")
    print(f"actions_scanned: {report['actions_scanned']}")
    _emit(args, report)
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

def _commands() -> list:
    """The subcommands as (name, handler, help, options), each option a
    flag and its add_argument keywords; the budget options take
    EnumerationTask's defaults as they are at this call."""
    flag = {"action": "store_true"}
    action, topology = ("--action", {"required": True}), ("--topology", {"required": True})
    out = ("--out", {})
    group_carrier = [("--group", {"required": True}),
                     ("--carrier", {"type": int, "required": True})]
    budgets = [("--node-budget", {"type": int, "default": EnumerationTask.node_budget}),
               ("--time-budget", {"type": float, "default": EnumerationTask.time_budget_s})]
    return [
        ("validate", _cmd_validate, "validate a group/op/action/topology file",
         [("--action", {}), ("--group", {}), ("--op", {}), ("--topology", {})]),
        ("distributive", _cmd_distributive, "check the distributivity law", [action]),
        ("orbits", _cmd_orbits, "orbit classes and projection of a distributive action",
         [action, out]),
        ("quotient", _cmd_quotient, "quotient topology of the orbit space",
         [action, topology, out]),
        ("monoid", _cmd_monoid, "star-monoid utilities",
         [("--size", {"type": int}), ("--cap", {"type": int, "default": DEFAULT_INVERTIBLE_CAP}),
          ("--op", {}), ("--invert", flag), ("--star", {}), out]),
        ("enumerate", _cmd_enumerate, "enumerate all binary actions of a group",
         [*group_carrier, ("--require-distributive", flag), ("--dedupe", flag), *budgets, out]),
        ("topology-check", _cmd_topology_check, "run the theorem battery on a model",
         [action, topology, ("--probe-non-hausdorff", flag), out]),
        ("witnesses", _cmd_witnesses, "mine counterexamples from an enumeration",
         [*group_carrier, *budgets, out]),
        ("induce", _cmd_induce, "ordinary action induced at a carrier point",
         [action, ("--point", {"type": int, "required": True}), out]),
        ("embed", _cmd_embed, "embed an ordinary action as a binary action",
         [("--ordinary", {"required": True}), out]),
        ("conjugation", _cmd_conjugation, "conjugation-coset action of a subgroup",
         [("--group", {"required": True}), ("--subgroup", {}), ("--generators", {}), out]),
    ]


_COMMAND_NAMES = tuple(name for name, *_ in _commands())


def build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """A new parser: with only None the whole tree, else one that holds
    only that subcommand, whose top-level usage still lists every one."""
    parser = argparse.ArgumentParser(
        prog="binact",
        description="Binary actions of finite groups: validation, orbits, "
                    "quotients, topology checks, enumeration.",
    )
    parser.add_argument("--version", action="version", version=f"binact {__version__}")
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if only is None else "{" + ",".join(_COMMAND_NAMES) + "}")
    for name, handler, help, options in _commands():
        if only in (None, name):
            p = sub.add_parser(name, help=help)
            p.set_defaults(handler=handler)
            for option, keywords in options:
                p.add_argument(option, **keywords)
    return parser


_shared_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    """Run one command and return its exit code. A first argument that
    names a subcommand is parsed by a tree that holds that subcommand
    alone; any other argv (--help, --version, none, an unknown command)
    by the whole tree, whose help and errors the one-command trees repeat
    byte for byte. Each tree is built on its first use and shared by every
    later call in the process: each parse fills a fresh Namespace, and the
    defaults and handlers are fixed when the tree is built."""
    argv = sys.argv[1:] if argv is None else list(argv)
    only = argv[0] if argv and argv[0] in _COMMAND_NAMES else None
    try:
        args = _shared_parser(only).parse_args(argv)
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
