import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import binact.cli
from binact import (
    EnumerationTask,
    action_from_json,
    action_to_json,
    builtin_group,
    conjugation_coset_action,
    discrete_topology,
    enumerate_actions,
    from_ordinary,
    group_from_json,
    group_to_json,
    make_group,
    make_ordinary_action,
    op_to_json,
    make_binary_op,
    topology_to_json,
    trivial_action,
)
from binact.cli import _action_lines, build_parser, main


@pytest.fixture
def files(tmp_path):
    z2 = builtin_group("z2")
    s3 = builtin_group("s3")
    paths = {}

    def put(name, obj):
        p = tmp_path / name
        p.write_text(json.dumps(obj))
        paths[name] = str(p)
        return p

    put("z2.json", group_to_json(z2))
    put("trivial_z2.json", action_to_json(trivial_action(z2, 2)))
    xor = from_ordinary(make_ordinary_action(z2, ((0, 1), (1, 0))))
    put("xor.json", action_to_json(xor))
    put("mixed.json", {"group": "z2", "carrier": 2,
                       "table": [[[0, 1], [0, 1]], [[0, 1], [1, 0]]]})
    put("s3_a3_conj.json", action_to_json(conjugation_coset_action(s3, [0, 3, 4])))
    put("disc2.json", topology_to_json(discrete_topology(2)))
    put("sierp2.json", {"size": 2, "opens": [[], [0], [0, 1]]})
    put("xorop.json", op_to_json(make_binary_op(((1, 0), (1, 0)))))
    put("projop.json", op_to_json(make_binary_op(((0, 0), (1, 1)))))
    put("ord_swap.json", {"group": "z2", "carrier": 2, "table": [[0, 1], [1, 0]]})
    paths["dir"] = str(tmp_path)
    return paths


def test_validate_action_golden_line(files, capsys):
    assert main(["validate", "--action", files["trivial_z2.json"]]) == 0
    assert capsys.readouterr().out == "axioms (1),(2): OK\n"


def test_validate_large_topology(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"size": 64, "opens": [[], list(range(64))]}))
    assert main(["validate", "--topology", str(path)]) == 0
    assert capsys.readouterr().out == "topology: OK (size=64 opens=2)\n"


def test_validate_each_kind(files, capsys):
    assert main(["validate", "--group", files["z2.json"]]) == 0
    assert main(["validate", "--group", "s3"]) == 0
    assert main(["validate", "--op", files["xorop.json"]]) == 0
    assert main(["validate", "--topology", files["sierp2.json"]]) == 0


def test_validate_usage_error(files, capsys):
    assert main(["validate"]) == 2


def test_validate_bad_table_exits_one(tmp_path, capsys):
    p = tmp_path / "bad.json"
    p.write_text(json.dumps({"group": "z2", "carrier": 2,
                             "table": [[[0, 0], [0, 1]], [[0, 1], [0, 1]]]}))
    assert main(["validate", "--action", str(p)]) == 1
    assert "AxiomTwoViolated" in capsys.readouterr().out


Z2_ACTION = [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]


@pytest.mark.parametrize("kind, record, line", [
    ("action", {"group": "z2", "table": [[[0, 1], [0, 1]], [[1, 0], [1, "x"]]]},
     "ShapeMismatch: table[1][1][1] = 'x' is not an integer"),
    ("action", {"group": "z2", "table": [[[0, 1], [0, 1]], [[1, 0], [1.9, 0]]]},
     "ShapeMismatch: table[1][1][0] = 1.9 is not an integer"),
    ("action", {"group": "z2", "carrier": "2", "table": Z2_ACTION},
     "ShapeMismatch: carrier = '2' is not an integer"),
    ("action", {"group": "z2", "group_embedding": [0, 1.0], "table": Z2_ACTION},
     "ShapeMismatch: group_embedding[1] = 1.0 is not an integer"),
    ("group", {"cayley": [[0, 1], [1, "y"]]},
     "MalformedTable: cayley[1][1] = 'y' is not an integer"),
    ("group", {"cayley": [[0, 1], [1, 0.0]]},
     "MalformedTable: cayley[1][1] = 0.0 is not an integer"),
    ("op", {"table": [[0, "1"], [1, 0]]},
     "MalformedTable: table[0][1] = '1' is not an integer"),
    ("op", {"table": [[0, 1.5], [1, 0]]},
     "MalformedTable: table[0][1] = 1.5 is not an integer"),
    ("op", {"size": 2.0, "table": [[0, 1], [1, 0]]},
     "MalformedTable: size = 2.0 is not an integer"),
    ("topology", {"size": 2, "opens": [[], ["q"], [0, 1]]},
     "MalformedTable: points[0] = 'q' is not an integer"),
    ("topology", {"size": 2, "opens": [[], [0.0], [0, 1]]},
     "MalformedTable: points[0] = 0.0 is not an integer"),
    ("topology", {"size": 2, "opens": [[], 1.5, [0, 1]]},
     "MalformedTable: points = 1.5 is not a list"),
    ("topology", {"size": "2", "opens": [[], [0, 1]]},
     "MalformedTable: size = '2' is not an integer"),
    ("group", {"cayley": [[0]], "labels": 5},
     "MalformedTable: labels = 5 is not a list"),
    ("topology", {"size": 2, "opens": 5},
     "MalformedTable: opens = 5 is not a list"),
    ("group", {"cayley": [[0, 1], [1, 0]], "labels": "ab"},
     "MalformedTable: labels = 'ab' is not a list"),
    ("group", {"cayley": [[0]], "labels": {"0": "e"}},
     "MalformedTable: labels = {'0': 'e'} is not a list"),
    ("topology", {"size": 2, "opens": "01"},
     "MalformedTable: opens = '01' is not a list"),
    ("topology", {"size": 2, "opens": {"0": [0]}},
     "MalformedTable: opens = {'0': [0]} is not a list"),
    ("action", {"group": "z2", "group_embedding": "01", "table": Z2_ACTION},
     "ShapeMismatch: group_embedding = '01' is not a list"),
    ("topology", {"size": 2, "opens": [[], "0", [0, 1]]},
     "MalformedTable: points = '0' is not a list"),
    ("topology", {"size": 2, "opens": [[], {"0": 1}, [0, 1]]},
     "MalformedTable: points = {'0': 1} is not a list"),
    ("action", {"group": "z2", "group_embedding": [5, 7, 9], "table": Z2_ACTION},
     "ShapeMismatch: group_embedding has length 3, expected 2"),
    ("action", {"group": "z2", "group_embedding": [0, -1], "table": Z2_ACTION},
     "ShapeMismatch: group_embedding[1] = -1 is negative"),
    ("action", {"group": "z2", "group_embedding": [3, 3], "table": Z2_ACTION},
     "ShapeMismatch: group_embedding[1] = 3 is a repeat"),
    ("action", {"group": "z2", "group_embedding": [3, 3], "table": [[[0, 1]], "x"]},
     "ShapeMismatch: group_embedding[1] = 3 is a repeat"),
], ids=["action-string", "action-float", "action-carrier", "action-embedding",
        "group-string", "group-float", "op-string", "op-float", "op-size",
        "topology-string-point", "topology-float-point", "topology-float-open",
        "topology-size", "group-labels", "topology-opens", "group-labels-string",
        "group-labels-mapping", "topology-opens-string", "topology-opens-mapping",
        "action-embedding-string", "topology-point-string", "topology-point-mapping",
        "action-embedding-length", "action-embedding-negative", "action-embedding-repeat",
        "action-embedding-before-table"])
def test_validate_refuses_non_integer_entries(tmp_path, capsys, kind, record, line):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(record))
    assert main(["validate", f"--{kind}", str(path)]) == 1
    assert capsys.readouterr().out == line + "\n"


def test_catalog_order_cap_exits_one(capsys):
    assert main(["enumerate", "--group", "z129", "--carrier", "2"]) == 1
    assert "catalog group order 129 exceeds configured cap 128" in capsys.readouterr().out


def test_missing_file_exits_two(capsys):
    assert main(["validate", "--action", "no_such_file.json"]) == 2
    assert "no_such_file.json" in capsys.readouterr().err


def test_distributive_exit_codes(files, capsys):
    assert main(["distributive", "--action", files["xor.json"]]) == 0
    assert main(["distributive", "--action", files["mixed.json"]]) == 1
    out = capsys.readouterr().out
    assert "witness" in out and "(1, 1, 1, 0, 0)" in out


def test_orbits_conjugation_golden(files, capsys, tmp_path):
    out = tmp_path / "orb.json"
    assert main(["orbits", "--action", files["s3_a3_conj.json"],
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "classes: 2" in text
    assert "class 0 (size 3): 0 3 4" in text
    assert "class 1 (size 3): 1 2 5" in text
    data = json.loads(out.read_text())
    assert data["classes"] == [[0, 3, 4], [1, 2, 5]]
    assert data["projection"] == [0, 1, 1, 0, 0, 1]


def test_orbits_non_distributive_exits_one(files, capsys):
    assert main(["orbits", "--action", files["mixed.json"]]) == 1
    assert "not distributive" in capsys.readouterr().out


def test_quotient_prints_battery(files, capsys):
    assert main(["quotient", "--action", files["trivial_z2.json"],
                 "--topology", files["sierp2.json"]]) == 0
    out = capsys.readouterr().out
    assert "quotient classes: 2" in out
    assert "check=quotient_hausdorff outcome=false hypotheses_met=false" in out


def test_quotient_non_continuous_exits_one(files, capsys):
    assert main(["quotient", "--action", files["xor.json"],
                 "--topology", files["sierp2.json"]]) == 1
    assert "not continuous" in capsys.readouterr().out


def test_monoid_size_and_invert(files, capsys):
    assert main(["monoid", "--size", "3"]) == 0
    assert "invertible_operations=216" in capsys.readouterr().out
    assert main(["monoid", "--op", files["xorop.json"], "--invert"]) == 0
    assert main(["monoid", "--op", files["projop.json"], "--invert"]) == 1
    assert "row 0" in capsys.readouterr().out


def test_monoid_star(files, capsys):
    assert main(["monoid", "--op", files["xorop.json"],
                 "--star", files["xorop.json"]]) == 0
    data = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert data["table"] == [[0, 1], [0, 1]]


def test_enumerate_summary_and_round_trip(files, capsys, tmp_path):
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "z2", "--carrier", "2",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "raw_count=4" in text and "distributive_count=2" in text
    lines = out.read_text().splitlines()
    summary = json.loads(lines[-1])
    assert summary["raw_count"] == 4 and summary["exhaustive"] is True
    # every emitted action re-validates when fed back in
    for line in lines[:-1]:
        action_from_json(json.loads(line))


def _enumerated_lines(g, m, **flags):
    """The lines enumerate --out must write: each action's record, then
    the summary."""
    result = enumerate_actions(EnumerationTask(group=g, carrier_size=m, **flags))
    summary = {"raw_count": result.raw_count, "canonical_count": result.canonical_count,
               "distributive_count": result.distributive_count, "witnesses": None,
               "exhaustive": True}
    return [json.dumps(action_to_json(a)) for a in result.actions] + [json.dumps(summary)]


def _relabelled_group_file(tmp_path, g):
    """g written as JSON with its non-identity elements numbered in reverse."""
    order = [g.identity] + [x for x in reversed(g.elements()) if x != g.identity]
    new = {x: i for i, x in enumerate(order)}
    cayley = [[new[g.mul(a, b)] for b in order] for a in order]
    path = tmp_path / f"{g.name}-relabelled.json"
    path.write_text(json.dumps({"name": g.name, "cayley": cayley}))
    return path


@pytest.mark.parametrize("name, m, flags", [
    ("z2", 4, {}),
    ("s3", 3, {}),
    ("k4", 3, {}),
    ("s3", 3, {"dedupe": True}),
    ("k4", 3, {"require_distributive": True}),
    ("z3", 4, {}),
    pytest.param("s3", 3, {"relabelled": True}, id="s3-3-relabelled-group-file"),
])
def test_enumerate_out_lines_are_action_records(name, m, flags, tmp_path, capsys):
    """relabelled: the group is read from a JSON file in which its
    non-identity elements are numbered in reverse."""
    flags = dict(flags)
    g = builtin_group(name)
    ref = name
    if flags.pop("relabelled", False):
        path = _relabelled_group_file(tmp_path, g)
        g = group_from_json(json.loads(path.read_text()))
        assert g.cayley != builtin_group(name).cayley
        ref = str(path)
    out = tmp_path / "enum.jsonl"
    argv = ["enumerate", "--group", ref, "--carrier", str(m), "--out", str(out)]
    argv += ["--" + flag.replace("_", "-") for flag in flags]
    assert main(argv) == 0
    text = out.read_text()
    assert text.endswith("\n")
    assert text.split("\n")[:-1] == _enumerated_lines(g, m, **flags)


def test_enumerate_out_builds_one_action_per_class(monkeypatch, tmp_path, capsys):
    """enumerate --out writes its lines from index tuples: of the 10000
    actions of z2 on 4 points, only the first of each of the 475 classes
    is built as a BinaryAction, for its distributivity scan."""
    import binact.search

    built = []
    action = binact.search._action
    monkeypatch.setattr(binact.search, "_action",
                        lambda group, homs, row: built.append(row) or action(group, homs, row))
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "z2", "--carrier", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "raw_count=10000 canonical_count=475 distributive_count=74 exhaustive=yes\n")
    assert len(built) == 475 == len(set(built))
    assert len(out.read_text().splitlines()) == 10001


def test_enumerate_out_escapes_group_labels(tmp_path, capsys):
    """Labels and a name that JSON must escape are written as json.dumps
    writes them, and read back."""
    g = make_group(builtin_group("z2").cayley, name='z2 "\u00e9"', labels=["\u00e9", '"'])
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(g)))
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", str(path), "--carrier", "3", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines == _enumerated_lines(group_from_json(json.loads(path.read_text())), 3)
    assert '"labels": ["\\u00e9", "\\""]' in lines[0]
    assert action_from_json(json.loads(lines[0])).group.labels == ("\u00e9", '"')


def test_action_lines_write_multi_digit_entries():
    """Entries of ten and more, on a carrier too large to enumerate
    (11! relabellings), are encoded like json.dumps encodes them; each
    line is written from the action's index tuple into the homomorphisms."""
    z2 = builtin_group("z2")
    identity = tuple(range(11))
    swap = (10,) + tuple(range(1, 10)) + (0,)
    homs = [(identity, identity), (identity, swap)]
    actions = [trivial_action(z2, 11), from_ordinary(make_ordinary_action(z2, homs[1]))]
    assert list(_action_lines(z2, 11, homs, [(0,) * 11, (1,) * 11])) == [
        json.dumps(action_to_json(a)) + "\n" for a in actions]


def test_enumerate_out_unwritable_exits_two(tmp_path, capsys):
    assert main(["enumerate", "--group", "z2", "--carrier", "2", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"cannot write {tmp_path}: ")


def test_enumerate_accepts_group_file(files, capsys):
    assert main(["enumerate", "--group", files["z2.json"], "--carrier", "2"]) == 0
    assert "raw_count=4" in capsys.readouterr().out


def test_enumerate_budget_exhaustion_exits_one(tmp_path, capsys):
    """A budget stop exits 1 and writes no --out file."""
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "s3", "--carrier", "3",
                 "--node-budget", "5", "--out", str(out)]) == 1
    assert "non-exhaustive" in capsys.readouterr().out
    assert not out.exists()


def test_unknown_group_exits_two(capsys):
    assert main(["enumerate", "--group", "mystery", "--carrier", "2"]) == 2
    assert "mystery" in capsys.readouterr().err


def test_topology_check_probe_flag(files, capsys):
    assert main(["topology-check", "--action", files["trivial_z2.json"],
                 "--topology", files["sierp2.json"]]) == 0
    bare = capsys.readouterr().out
    assert "quotient_hausdorff" not in bare  # probes dropped by default
    assert main(["topology-check", "--action", files["trivial_z2.json"],
                 "--topology", files["sierp2.json"], "--probe-non-hausdorff"]) == 0
    probed = capsys.readouterr().out
    assert "check=quotient_hausdorff outcome=false hypotheses_met=false" in probed


def test_witnesses_output(files, capsys):
    assert main(["witnesses", "--group", "z2", "--carrier", "2"]) == 0
    out = capsys.readouterr().out
    assert "intersecting_orbits: x=0 x'=1" in out
    assert "non_bi_invariant_union: none at this scale" in out


def test_induce_embed_round_trip(files, capsys):
    assert main(["induce", "--action", files["xor.json"], "--point", "0"]) == 0
    induced = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert induced["table"] == [[0, 1], [1, 0]]
    assert main(["embed", "--ordinary", files["ord_swap.json"]]) == 0
    embedded = json.loads(capsys.readouterr().out.split("\n", 1)[1])
    assert embedded["table"] == [[[0, 1], [0, 1]], [[1, 0], [1, 0]]]


def test_conjugation_subcommand(files, capsys):
    assert main(["conjugation", "--group", "s3", "--generators", "3"]) == 0
    out = capsys.readouterr().out
    assert "subgroup_size=3 carrier=6" in out
    data = json.loads(out.split("\n", 1)[1])
    assert data["group_embedding"] == [0, 3, 4]
    assert main(["conjugation", "--group", "s3", "--subgroup", "0,1,3"]) == 1


def test_bad_threads_env_exits_two(files, capsys, monkeypatch):
    monkeypatch.setenv("BINACT_THREADS", "-2")
    assert main(["validate", "--group", "z2"]) == 2
    monkeypatch.setenv("BINACT_THREADS", "3")
    assert main(["validate", "--group", "z2"]) == 0


def test_byte_determinism(files, tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    assert main(["enumerate", "--group", "s3", "--carrier", "2", "--out", str(a)]) == 0
    assert main(["enumerate", "--group", "s3", "--carrier", "2", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_usage_error_exit_code():
    assert main(["enumerate", "--group", "z2"]) == 2  # missing --carrier
    assert main(["no-such-command"]) == 2


def test_monoid_size_counts_without_building(monkeypatch, capsys):
    """(N!)^N is printed, not counted: nothing may build the operations."""
    import binact.binops
    import binact.cli

    def refuse(*args, **kwargs):
        raise AssertionError("invertible_group must not be called")

    monkeypatch.setattr(binact.binops, "invertible_group", refuse)
    monkeypatch.setattr(binact.cli, "invertible_group", refuse, raising=False)
    assert main(["monoid", "--size", "3"]) == 0
    assert capsys.readouterr().out == "carrier=3 invertible_operations=216\n"
    assert main(["monoid", "--size", "5", "--cap", "5"]) == 0
    assert capsys.readouterr().out == "carrier=5 invertible_operations=24883200000\n"
    assert main(["monoid", "--size", "5"]) == 1  # default cap 4
    assert capsys.readouterr().out == "CapExceeded: carrier size 5 exceeds configured cap 4\n"
    assert main(["monoid", "--size", "0"]) == 1
    assert capsys.readouterr().out == "MalformedTable: carrier size must be >= 1\n"


def test_witnesses_budget_stop_reports_partial_counts(monkeypatch, capsys):
    """Every clock read advances one second, so a 16 s budget (six reads for
    the relabellings of 3 points, then one per class) runs out while the
    classes are expanded; the stop is reported like enumerate's. The first
    ten classes the search meets hold 40 actions of z2 on 3 points, 10 of
    them distributive (by the oracles in tests/oracles.py)."""
    import itertools

    import binact.search

    ticks = itertools.count()
    monkeypatch.setattr(binact.search.time, "monotonic", lambda: next(ticks))
    assert main(["witnesses", "--group", "z2", "--carrier", "3", "--time-budget", "16"]) == 1
    assert capsys.readouterr().out == (
        "non-exhaustive: enumeration budget exceeded: time budget 16.0s reached\n"
        "raw_count=40 canonical_count=10 distributive_count=10 exhaustive=no\n")


def test_enumerate_budget_stop_names_the_node_budget(monkeypatch, capsys):
    """The node budget stops the search of z2 on 3 points after 14 of its
    16 classes, 56 of its 64 actions; every clock read then advances one
    second, so a 10 s budget (six reads for the relabellings and one per
    class) cuts the assembly after 4 classes, 13 actions. The line names
    both budgets, the node budget first. Of those 13 actions, 7 are
    distributive (by the oracles in tests/oracles.py)."""
    import itertools

    import binact.search

    ticks = itertools.count()
    monkeypatch.setattr(binact.search.time, "monotonic", lambda: next(ticks))
    assert main(["enumerate", "--group", "z2", "--carrier", "3",
                 "--node-budget", "40", "--time-budget", "10"]) == 1
    assert capsys.readouterr().out == (
        "non-exhaustive: enumeration budget exceeded: node budget 40 reached; "
        "time budget 10.0s reached (56 actions found, 13 assembled)\n"
        "raw_count=13 canonical_count=4 distributive_count=7 exhaustive=no\n")


@pytest.mark.parametrize("command", [
    ["witnesses", "--group", "s3", "--carrier", "3"],
    ["enumerate", "--group", "z2", "--carrier", "5"],
])
def test_nan_time_budget_is_refused(command, capsys):
    """NaN compares false with every bound, so it must be refused outright
    rather than switch the time budget off."""
    assert main([*command, "--time-budget", "nan"]) == 1
    assert capsys.readouterr().out == "MalformedTable: budgets must be positive\n"


@pytest.mark.parametrize("command", ["enumerate", "witnesses"])
def test_budget_defaults_are_the_tasks(command, monkeypatch):
    """The budget options default to EnumerationTask's own defaults, read
    from the task when the parser is built, so each is written once."""
    argv = [command, "--group", "z2", "--carrier", "2"]
    args = build_parser().parse_args(argv)
    task = EnumerationTask(group=builtin_group("z2"), carrier_size=2)
    assert (args.node_budget, args.time_budget) == (task.node_budget, task.time_budget_s)
    monkeypatch.setattr(EnumerationTask, "node_budget", 12345)
    monkeypatch.setattr(EnumerationTask, "time_budget_s", 6.5)
    args = build_parser().parse_args(argv)
    assert (args.node_budget, args.time_budget) == (12345, 6.5)


def test_main_builds_the_parser_once_per_process(monkeypatch, capsys):
    """Only the first main() call builds parsers (the top-level one and one
    per subcommand); build_parser() still builds a new one each call."""
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    binact.cli._shared_parser.cache_clear()
    per_call = []
    for argv in (["enumerate", "--group", "z2", "--carrier", "2"],
                 ["witnesses", "--group", "z2", "--carrier", "2"],
                 ["validate", "--group", "z2"],
                 ["enumerate", "--group", "z2", "--carrier", "2"]):
        before = len(built)
        assert main(argv) == 0
        per_call.append(len(built) - before)
    capsys.readouterr()
    assert per_call == [12, 0, 0, 0]
    assert build_parser() is not build_parser()


def test_shared_parser_calls_match_fresh_parser_calls(tmp_path, monkeypatch, capsys):
    """Usage errors, --version, a budget stop and a refused BINACT_THREADS
    between two identical enumerations leave the shared parser as it was:
    every call gives the exit code and output it gives on a fresh parser."""
    out = tmp_path / "actions.jsonl"
    enumerate_argv = ["enumerate", "--group", "z2", "--carrier", "3", "--out", str(out)]
    calls = [
        (enumerate_argv, None),
        (["enumerate", "--group", "z2"], None),  # missing --carrier
        (["no-such-command"], None),
        (["--version"], None),
        (["enumerate", "--group", "z2", "--carrier", "3", "--node-budget", "40"], None),
        (["validate", "--group", "z2"], "0"),  # BINACT_THREADS
        (enumerate_argv, None),
    ]

    def run_all(fresh):
        results = []
        for argv, threads in calls:
            if fresh:
                binact.cli._shared_parser.cache_clear()
            if threads is None:
                monkeypatch.delenv("BINACT_THREADS", raising=False)
            else:
                monkeypatch.setenv("BINACT_THREADS", threads)
            code = main(argv)
            captured = capsys.readouterr()
            written = out.read_bytes() if argv is enumerate_argv else None
            results.append((code, captured.out, captured.err, written))
        return results

    shared = run_all(fresh=False)
    assert [r[0] for r in shared] == [0, 2, 2, 0, 1, 2, 0]
    counts = "raw_count=64 canonical_count=16 distributive_count=11 exhaustive=yes\n"
    assert shared[0][1] == shared[-1][1] == counts
    assert shared[0][3] == shared[-1][3]
    assert shared == run_all(fresh=True)


def test_entry_runs_as_a_console_script():
    """entry(), the [project.scripts] target, reads sys.argv and exits with
    main()'s code."""
    env = {**os.environ, "PYTHONPATH": str(Path(binact.__file__).resolve().parents[1])}
    env.pop("BINACT_THREADS", None)

    def run(*argv):
        return subprocess.run([sys.executable, "-c", "from binact.cli import entry; entry()",
                               *argv], capture_output=True, text=True, env=env, timeout=60)

    version = run("--version")
    assert (version.returncode, version.stdout) == (0, f"binact {binact.__version__}\n")
    counts = run("enumerate", "--group", "z2", "--carrier", "3")
    assert (counts.returncode, counts.stdout) == (
        0, "raw_count=64 canonical_count=16 distributive_count=11 exhaustive=yes\n")
    usage = run("enumerate", "--group", "z2")
    assert usage.returncode == 2
    assert "the following arguments are required: --carrier" in usage.stderr
