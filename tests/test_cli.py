import argparse
import itertools
import json
import math
import os
import subprocess
import sys
import time
from decimal import Decimal, localcontext
from pathlib import Path

import pytest

import binact.cli
import binact.search
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
    permutation_homomorphisms,
    topology_to_json,
    trivial_action,
    validate_action,
)
from binact.cli import _action_lines, build_parser, main
from binact.errors import BudgetExceeded


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
    ("action", [Z2_ACTION],
     "ShapeMismatch: action record must be an object with 'group' and 'table'"),
    ("group", [[0]], "MalformedTable: group record must be an object with a 'cayley' field"),
    ("op", [[0]], "MalformedTable: operation record must be an object with a 'table' field"),
    ("topology", [[], [0]],
     "MalformedTable: topology record must be an object with 'size' and 'opens'"),
    ("group", {"cayley": [[0, 1], [1, 0]], "labels": ["e"]},
     "MalformedTable: got 1 labels for 2 elements"),
    ("action", {"group": "z2", "table": [[[0, 1], [0, 1]], [[1, 0]]]},
     "ShapeMismatch: table[1] has length 1, expected 2"),
], ids=["action-string", "action-float", "action-carrier", "action-embedding",
        "group-string", "group-float", "op-string", "op-float", "op-size",
        "topology-string-point", "topology-float-point", "topology-float-open",
        "topology-size", "group-labels", "topology-opens", "group-labels-string",
        "group-labels-mapping", "topology-opens-string", "topology-opens-mapping",
        "action-embedding-string", "topology-point-string", "topology-point-mapping",
        "action-embedding-length", "action-embedding-negative", "action-embedding-repeat",
        "action-embedding-before-table", "action-not-object", "group-not-object",
        "op-not-object", "topology-not-object", "group-labels-length", "action-ragged-slice"])
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
    ("s3", 3, {"require_distributive": True, "dedupe": True}),
    ("q8", 3, {"dedupe": True}),
    ("q8", 3, {"require_distributive": True}),
    ("q8", 3, {"require_distributive": True, "dedupe": True}),
    pytest.param("s3", 3, {"relabelled": True}, id="s3-3-relabelled-group-file"),
])
def test_enumerate_out_lines_are_action_records(name, m, flags, tmp_path, capsys):
    """relabelled: the group is read from a JSON file in which its
    non-identity elements are numbered in reverse. s3 and q8 (two and
    three greedy generators) under dedupe or the filter are written one
    line per run."""
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


@pytest.mark.parametrize("name, m", [
    *[(name, m) for name in ("z1", "z2", "z3", "k4", "s3") for m in (1, 2, 3)],
    ("z2", 4), ("z3", 4), ("q8", 3), ("d4", 3)])
def test_streamed_out_matches_the_api_listing(name, m, monkeypatch, tmp_path, capsys):
    """The full listing is written run by run as the walk yields it, through
    the sink enumerate hands enumerate_actions, with no listing gathered in
    the result, and matches the API's listing line for line at every full
    size tier-1 runs, on one point, and for q8 (three greedy generators),
    d4 (two) and z1 (none) on 3 points."""
    g = builtin_group(name)
    want = _enumerated_lines(g, m)
    real = binact.cli.enumerate_actions

    def spy(task, emit=None):
        assert emit is not None, "enumerate must not gather the listing"
        result = real(task, emit)
        assert result.rows == []
        return result

    monkeypatch.setattr(binact.cli, "enumerate_actions", spy)
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", name, "--carrier", str(m), "--out", str(out)]) == 0
    assert out.read_text().split("\n") == [*want, ""]
    summary = json.loads(want[-1])
    assert capsys.readouterr().out == (
        f"raw_count={summary['raw_count']} canonical_count={summary['canonical_count']} "
        f"distributive_count={summary['distributive_count']} exhaustive=yes\n")


@pytest.mark.parametrize("budget, written", [(34.5, 9220), (25.5, 0)])
def test_a_deadline_that_cuts_the_stream_leaves_whole_lines(budget, written, monkeypatch,
                                                            tmp_path, capsys):
    """Every clock read advances one second. z2 on 4 points reads the
    clock once when the run starts, 24 times for the relabellings and once
    in the search, then before its first row and before the first run of
    ten rows past each further 1024. A 34.5 s budget cuts the stream at
    its tenth read, at row 9220, and a 25.5 s one at its first: the run
    exits 1, the message counts the actions found, the counts are those
    of every class the finished search settled, and the file holds those
    lines whole, in table order, with no summary line."""
    import itertools

    import binact.search

    want = _enumerated_lines(builtin_group("z2"), 4)[:-1]
    ticks = itertools.count()
    monkeypatch.setattr(binact.search.time, "monotonic", lambda: next(ticks))
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "z2", "--carrier", "4", "--time-budget", str(budget),
                 "--out", str(out)]) == 1
    assert capsys.readouterr().out == (
        f"non-exhaustive: enumeration budget exceeded: time budget {budget}s reached "
        f"(10000 actions found)\n"
        "raw_count=10000 canonical_count=475 distributive_count=74 exhaustive=no\n")
    assert out.read_text() == "".join(line + "\n" for line in want[:written])


def test_count_only_enumerate_walks_nothing(monkeypatch, capsys):
    """Without --out the run is the --dedupe one with each representative
    dropped, so the full listing is never walked."""
    import binact.search

    def refuse(*args):
        raise AssertionError("a count-only run must not walk the listing")

    monkeypatch.setattr(binact.search, "_walk", refuse)
    assert main(["enumerate", "--group", "s3", "--carrier", "3"]) == 0
    assert capsys.readouterr().out == (
        "raw_count=1000 canonical_count=180 distributive_count=11 exhaustive=yes\n")


def test_enumerate_out_builds_no_action(monkeypatch, tmp_path, capsys):
    """enumerate --out writes its lines from index tuples: none of the 10000
    actions of z2 on 4 points is built as a BinaryAction, and the law of
    each of the 475 classes is settled on its representative's index
    tuple."""
    import binact.search

    built = []
    action = binact.search._action
    monkeypatch.setattr(binact.search, "_action",
                        lambda group, homs, row: built.append(row) or action(group, homs, row))
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "z2", "--carrier", "4", "--out", str(out)]) == 0
    assert capsys.readouterr().out == (
        "raw_count=10000 canonical_count=475 distributive_count=74 exhaustive=yes\n")
    assert built == []
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
    (11! relabellings), are encoded like json.dumps encodes them; the
    lines of a run (outer, last) are written as one string, from the
    index tuples outer + (i,) into the homomorphisms, i in last."""
    z2 = builtin_group("z2")
    identity = tuple(range(11))
    swap = (10,) + tuple(range(1, 10)) + (0,)
    homs = [(identity, identity), (identity, swap)]
    lines = _action_lines(z2, 11, homs)
    for outer, last in [((0,) * 10, [0, 1]), ((1,) * 10, [1]), ((0, 1) * 5, [0, 1])]:
        actions = [validate_action(z2, tuple(zip(*[homs[i] for i in (*outer, i)])))
                   for i in last]
        assert lines(outer, last) == "".join(
            json.dumps(action_to_json(a)) + "\n" for a in actions)
    assert lines((1,) * 10, [1]) == (
        json.dumps(action_to_json(from_ordinary(make_ordinary_action(z2, homs[1])))) + "\n")


def test_action_lines_fill_each_run_from_its_last_list():
    """A run's lines are one template filled from the texts of last,
    which are kept for the last list seen: runs that share a list, runs
    between which another list with the same entries comes, and a list
    seen again after another are each written as json.dumps writes their
    actions. On z1 (order 1) every run has one slice, and on one point
    no outer tuple."""
    for name, m in [("s3", 3), ("q8", 3), ("z1", 1), ("z1", 3)]:
        g = builtin_group(name)
        homs = permutation_homomorphisms(g, m)
        lines = _action_lines(g, m, homs)
        shared, other = [0, len(homs) - 1], [len(homs) - 1]
        for outer, last in [((0,) * (m - 1), shared), ((len(homs) - 1,) * (m - 1), shared),
                            ((0,) * (m - 1), [0, len(homs) - 1]), ((0,) * (m - 1), other),
                            ((len(homs) - 1,) * (m - 1), shared)]:
            actions = [validate_action(g, tuple(zip(*[homs[i] for i in (*outer, i)])))
                       for i in last]
            assert lines(outer, last) == "".join(
                json.dumps(action_to_json(a)) + "\n" for a in actions)


@pytest.mark.parametrize("name, labels", [
    ("z2 %s %d %% 100%", ["%s", "%(x)s"]),
    ("%", ["%%", "%s%"]),
])
def test_enumerate_out_writes_percent_signs_in_the_group(name, labels, tmp_path, capsys):
    """The run template doubles every % of the group's JSON, so a name and
    labels that hold %, %s or %% are written as json.dumps writes them, in
    the full listing, under dedupe and under the filter."""
    g = make_group(builtin_group("z2").cayley, name=name, labels=labels)
    path = tmp_path / "group.json"
    path.write_text(json.dumps(group_to_json(g)))
    g = group_from_json(json.loads(path.read_text()))
    for flags in ({}, {"dedupe": True}, {"require_distributive": True}):
        out = tmp_path / "enum.jsonl"
        argv = ["enumerate", "--group", str(path), "--carrier", "3", "--out", str(out)]
        assert main(argv + ["--" + flag.replace("_", "-") for flag in flags]) == 0
        lines = out.read_text().splitlines()
        assert lines == _enumerated_lines(g, 3, **flags)
        assert action_from_json(json.loads(lines[0])).group.name == name
    capsys.readouterr()


def test_enumerate_out_unwritable_exits_two(tmp_path, capsys):
    """With --dedupe the file is opened inside the search, at the first
    class it settles; an OSError there still exits 2."""
    for flags in ([], ["--dedupe"]):
        assert main(["enumerate", "--group", "z2", "--carrier", "2", *flags,
                     "--out", str(tmp_path)]) == 2
        assert capsys.readouterr().err.startswith(f"cannot write {tmp_path}: ")


def test_enumerate_accepts_group_file(files, capsys):
    assert main(["enumerate", "--group", files["z2.json"], "--carrier", "2"]) == 0
    assert "raw_count=4" in capsys.readouterr().out


def _tally_run(task, monkeypatch):
    """task run through enumerate_actions: its result, or the partial of
    its BudgetExceeded, whose message must count the partial's actions,
    and the classes its search settled, as _Settled.add counted them."""
    settled = []
    add = binact.search._Settled.add
    monkeypatch.setattr(binact.search._Settled, "add",
                        lambda self, *leaf: settled.append(leaf) or add(self, *leaf))
    try:
        result = enumerate_actions(task)
    except BudgetExceeded as exc:
        result = exc.partial
        assert str(exc).endswith(f" reached ({result.raw_count} actions found)")
    monkeypatch.setattr(binact.search._Settled, "add", add)
    return result, settled


def _out_lines(argv, path, code):
    """The lines main(argv) leaves in the --out file path, none if it
    writes no file, after it exits with code."""
    assert main([*argv, "--out", str(path)]) == code
    if not path.exists():
        return []
    lines = path.read_text().split("\n")
    path.unlink()
    assert lines.pop() == ""
    return lines


def _records(result):
    return [json.dumps(action_to_json(a)) for a in result.actions]


def _tick(monkeypatch):
    """A fresh clock that advances one second a read, from 0."""
    ticks = itertools.count()
    monkeypatch.setattr(binact.search.time, "monotonic", lambda: next(ticks))


# each group in all four modes: the full and deduplicated listings on the
# sizes whose full listing tier-1 can hold, the filtered ones on 4 points;
# the fake-clock deadlines cut the search of z2 on 4 points (24.5 s), its
# walk at the first row (25.5 s) and at row 9220 (34.5 s), and the
# expansion of k4 on 4 points under the filter (100.5 s)
PREFIX_CASES = [
    pytest.param(name, 4 if dist else m, dist, dedupe, {
        ("z2", False, False): (24.5, 25.5, 34.5), ("z2", False, True): (24.5,),
        ("k4", True, False): (100.5,)}.get((name, dist, dedupe), ()),
        id=f"{name}-{4 if dist else m}{'-filtered' * dist}{'-dedupe' * dedupe}")
    for name, m in [("z1", 3), ("z2", 4), ("z3", 4), ("k4", 3), ("s3", 3), ("q8", 3)]
    for dist, dedupe in itertools.product((False, True), repeat=2)]


@pytest.mark.parametrize("name, m, dist, dedupe, deadlines", PREFIX_CASES)
def test_a_stopped_run_keeps_a_prefix_of_its_listing(name, m, dist, dedupe, deadlines,
                                                     monkeypatch, tmp_path, capsys):
    """Rows leave a run only as it emits them, so a budget stop at node
    budgets spread across the search, or at a deadline, keeps the rows
    emitted before it: a prefix of the finished run's rows, and the lines
    the same run's --out file holds. Its counts are the tally of the
    classes its search settled, the first ones the finished search
    settles. A finished run's --out file holds its actions' records and
    the summary line."""
    task = EnumerationTask(group=builtin_group(name), carrier_size=m,
                           require_distributive=dist, dedupe=dedupe)
    argv = ["enumerate", "--group", name, "--carrier", str(m),
            *["--require-distributive"] * dist, *["--dedupe"] * dedupe]
    out = tmp_path / "enum.jsonl"
    unit = math.factorial(m)

    def check_tally(result, settled):
        assert (result.raw_count, result.canonical_count, result.distributive_count) == (
            sum(unit // aut for _, aut, _ in settled), len(settled),
            sum(unit // aut for _, aut, lawful in settled if lawful))

    finished, classes = _tally_run(task, monkeypatch)
    assert finished.exhaustive
    check_tally(finished, classes)
    summary = {"raw_count": finished.raw_count, "canonical_count": finished.canonical_count,
               "distributive_count": finished.distributive_count, "witnesses": None,
               "exhaustive": True}
    assert _out_lines(argv, out, 0) == [*_records(finished), json.dumps(summary)]
    stops = [(EnumerationTask(group=task.group, carrier_size=m, require_distributive=dist,
                              dedupe=dedupe, node_budget=budget), ["--node-budget", str(budget)])
             for budget in sorted({finished.nodes * j // 4 for j in (1, 2, 3)} - {0})]
    stops += [(EnumerationTask(group=task.group, carrier_size=m, require_distributive=dist,
                               dedupe=dedupe, time_budget_s=budget), ["--time-budget", str(budget)])
              for budget in deadlines]
    for stopped, flags in stops:
        fake_clock = flags[0] == "--time-budget"
        if fake_clock:
            _tick(monkeypatch)
        partial, settled = _tally_run(stopped, monkeypatch)
        assert not partial.exhaustive
        assert partial.rows == finished.rows[:len(partial.rows)]
        assert settled == classes[:len(settled)]
        check_tally(partial, settled)
        if fake_clock:
            _tick(monkeypatch)
        assert _out_lines([*argv, *flags], out, 1) == _records(partial)
    capsys.readouterr()


def test_enumerate_budget_exhaustion_exits_one(tmp_path, capsys):
    """Without dedupe, a budget stop in the search exits 1 and writes no
    --out file."""
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "s3", "--carrier", "3",
                 "--node-budget", "5", "--out", str(out)]) == 1
    assert "non-exhaustive" in capsys.readouterr().out
    assert not out.exists()


def test_a_budget_stop_leaves_the_deduplicated_lines_settled(tmp_path, capsys):
    """With --dedupe each representative is written as the search settles
    it. The node budget stops the search of z2 on 3 points after 14 of
    its 16 classes: the run exits 1 and reports the stop as a count-only
    run does, and the file holds the finished run's first 14 lines,
    whole, with no summary line."""
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "z2", "--carrier", "3", "--dedupe",
                 "--node-budget", "40", "--out", str(out)]) == 1
    assert capsys.readouterr().out == (
        "non-exhaustive: enumeration budget exceeded: node budget 40 reached "
        "(56 actions found)\n"
        "raw_count=56 canonical_count=14 distributive_count=11 exhaustive=no\n")
    want = _enumerated_lines(builtin_group("z2"), 3, dedupe=True)
    assert len(want) == 17
    assert out.read_text() == "".join(line + "\n" for line in want[:14])


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
    capsys.readouterr()
    # no generators close to the trivial subgroup; an empty member list is no subgroup
    assert main(["conjugation", "--group", "s3", "--generators", ""]) == 0
    out = capsys.readouterr().out
    assert out.startswith("conjugation-coset action: subgroup_size=1 carrier=6 distributive=yes\n")
    assert json.loads(out.split("\n", 1)[1])["group_embedding"] == [0]
    assert main(["conjugation", "--group", "s3", "--subgroup", ""]) == 1
    assert capsys.readouterr().out == "NotASubgroup: element set [] is not a subgroup\n"


@pytest.mark.parametrize("argv, threads, err", [
    (["enumerate", "--group", "{bad}", "--carrier", "2"], None, "invalid JSON in {bad}: "),
    (["orbits", "--action", "{conj}", "--out", "{dir}"], None, "cannot write {dir}: "),
    (["conjugation", "--group", "s3", "--subgroup", "0 x"], None,
     "expected a list of integers, got '0 x'\n"),
    (["conjugation", "--group", "s3"], None, "conjugation needs --subgroup or --generators\n"),
    (["monoid"], None, "monoid needs --size or --op\n"),
    (["monoid", "--op", "{op}"], None, "monoid --op needs --invert or --star\n"),
    (["validate", "--group", "z2"], "x", "BINACT_THREADS must be a positive integer, got 'x'\n"),
    (["validate", "--group", "{latin}"], None, "cannot read {latin}: "),
    (["enumerate", "--group", "q" + "9" * 300, "--carrier", "2"], None,
     "group 'q" + "9" * 300 + "' is neither a readable file nor a known name\n"),
    pytest.param(["validate", "--group", "{huge}"], None,
                 "invalid JSON in {huge}: ",
                 marks=pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                          reason="this interpreter has no int-to-str digit limit")),
], ids=["group-invalid-json", "orbits-unwritable-out", "conjugation-bad-member",
        "conjugation-no-members", "monoid-no-input", "monoid-op-no-mode", "threads-not-integer",
        "group-file-not-utf8", "group-name-too-long-for-a-file",
        "group-integer-past-the-digit-limit"])
def test_usage_and_io_errors_exit_two(files, capsys, monkeypatch, argv, threads, err):
    """Each usage or IO error exits 2 with its message on stderr."""
    bad = Path(files["dir"]) / "bad.json"
    bad.write_text("{")
    huge = Path(files["dir"]) / "huge.json"
    huge.write_text('{"cayley": [[' + "9" * 5000 + "]]}")
    latin = Path(files["dir"]) / "latin.json"
    latin.write_bytes(b"\xff\xfe{")  # not UTF-8 text
    paths = {"bad": str(bad), "conj": files["s3_a3_conj.json"], "op": files["xorop.json"],
             "dir": files["dir"], "huge": str(huge), "latin": str(latin)}
    if threads is not None:
        monkeypatch.setenv("BINACT_THREADS", threads)
    assert main([arg.format(**paths) for arg in argv]) == 2
    assert capsys.readouterr().err.startswith(err.format(**paths))


def test_action_record_reads_its_group_from_a_file_beside_it(tmp_path, monkeypatch, capsys):
    """A group name in an action record names a file in the record's own
    directory when there is one, not in the working directory."""
    models = tmp_path / "models"
    models.mkdir()
    (models / "mine.json").write_text(json.dumps(group_to_json(
        make_group([[0, 1], [1, 0]], name="mine"))))
    record = models / "xor.json"
    record.write_text(json.dumps({"group": "mine.json", "table": Z2_ACTION}))
    monkeypatch.chdir(tmp_path)
    assert main(["induce", "--action", str(record), "--point", "0"]) == 0
    assert capsys.readouterr().out.startswith(
        "induced ordinary action at t=0: group=mine carrier=2\n")


def test_group_names_too_long_for_a_file_are_catalog_names(tmp_path, capsys):
    """A group name longer than the file system allows for a file name is
    no file, as an argument or in an action record: z2 written with 300
    leading zeros is z2, and an unknown long name in a record is the same
    MalformedTable as a short one."""
    z2 = "z" + "0" * 300 + "2"
    assert main(["enumerate", "--group", z2, "--carrier", "2"]) == 0
    assert capsys.readouterr().out == (
        "raw_count=4 canonical_count=3 distributive_count=2 exhaustive=yes\n")
    for name, code, out in ((z2, 0, "distributive: yes\n"),
                            ("q" + "9" * 300, 1, "MalformedTable: unknown group name 'q{}'\n"),
                            ("q9", 1, "MalformedTable: unknown group name 'q{}'\n")):
        record = tmp_path / "a.json"
        record.write_text(json.dumps({"group": name, "table": Z2_ACTION}))
        assert main(["distributive", "--action", str(record)]) == code
        assert capsys.readouterr() == (out.format(name[1:]), "")


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


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int-to-str digit limit")
def test_monoid_size_past_the_digit_limit_is_refused(capsys):
    """(N!)^N has 4192 digits at N = 56 and 4367 at N = 57. Under the
    interpreter's default limit of 4300 digits, 56 prints and 57 is
    refused in one line with exit code 1, as a cap is. The digit count is
    read off N log10(N!) before any power is taken, so N = 4000 is refused
    at once, not after the two minutes taking the power costs, with the
    count that decimal's 50-digit logarithm gives."""
    with localcontext() as ctx:
        ctx.prec = 50
        digits = int(Decimal(math.factorial(4000)).log10() * 4000) + 1
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        assert main(["monoid", "--size", "56", "--cap", "56"]) == 0
        assert capsys.readouterr().out == (
            f"carrier=56 invertible_operations={math.factorial(56) ** 56}\n")
        assert main(["monoid", "--size", "57", "--cap", "57"]) == 1
        assert capsys.readouterr() == (
            "CapExceeded: digit count of (N!)^N 4367 exceeds configured cap 4300\n", "")
        start = time.perf_counter()
        assert main(["monoid", "--size", "4000", "--cap", "4000"]) == 1
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr() == (
            f"CapExceeded: digit count of (N!)^N {digits} exceeds configured cap 4300\n", "")
    finally:
        sys.set_int_max_str_digits(limit)


def test_witnesses_budget_stop_reports_partial_counts(capsys):
    """witnesses mines the class representatives, so there is no walk to
    cut: the node budget stops the search of z2 on 3 points after 14 of
    its 16 classes, 56 of its 64 actions, and every class settled is
    counted. The stop is reported like enumerate's."""
    assert main(["witnesses", "--group", "z2", "--carrier", "3", "--node-budget", "40"]) == 1
    assert capsys.readouterr().out == (
        "non-exhaustive: enumeration budget exceeded: node budget 40 reached "
        "(56 actions found)\n"
        "raw_count=56 canonical_count=14 distributive_count=11 exhaustive=no\n")


def test_orbits_are_expanded_only_for_rows(monkeypatch, tmp_path, capsys):
    """_expand runs only where rows are built from the classes: the
    filtered listing of enumerate_actions, and the filtered --out listing,
    of a search that finished. k4 on 5 points under the filter, counted
    without --out, expands no orbit and prints the line of the run with
    --dedupe; a node-budget stop of the filtered --out run expands none
    and writes no file."""
    import binact.search

    calls = []
    expand = binact.search._expand
    monkeypatch.setattr(binact.search, "_expand",
                        lambda *args: calls.append(args[3]) or expand(*args))
    argv = ["enumerate", "--group", "k4", "--carrier", "5", "--require-distributive"]
    assert main(argv) == main([*argv, "--dedupe"]) == 0
    plain, deduped = capsys.readouterr().out.splitlines()
    assert plain == deduped
    assert calls == []
    out = tmp_path / "enum.jsonl"
    assert main(["enumerate", "--group", "k4", "--carrier", "3", "--require-distributive",
                 "--node-budget", "3", "--out", str(out)]) == 1
    assert calls == [] and not out.exists()
    assert main(["enumerate", "--group", "k4", "--carrier", "3", "--require-distributive",
                 "--out", str(out)]) == 0
    assert calls == [3]
    enumerate_actions(EnumerationTask(group=builtin_group("k4"), carrier_size=3,
                                      require_distributive=True))
    assert calls == [3, 3]
    capsys.readouterr()


def test_enumerate_budget_stop_names_the_node_budget(monkeypatch, capsys):
    """The node budget stops the search of z2 on 3 points after 14 of its
    16 classes, 56 of its 64 actions, and ends the run: no orbit is
    expanded, so with every clock read advancing one second a 10 s budget
    is never reached, the line names the node budget, and the counts are
    the tally of the 14 classes, as the run with --dedupe prints them."""
    import itertools

    import binact.search

    def refuse(*args):
        raise AssertionError("a count-only run must expand no orbit")

    monkeypatch.setattr(binact.search, "_expand", refuse)
    for flags in ([], ["--dedupe"]):
        ticks = itertools.count()
        monkeypatch.setattr(binact.search.time, "monotonic", lambda: next(ticks))
        assert main(["enumerate", "--group", "z2", "--carrier", "3", *flags,
                     "--node-budget", "40", "--time-budget", "10"]) == 1
        assert capsys.readouterr().out == (
            "non-exhaustive: enumeration budget exceeded: node budget 40 reached "
            "(56 actions found)\n"
            "raw_count=56 canonical_count=14 distributive_count=11 exhaustive=no\n")


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
    """A call whose first argument names a subcommand builds, on its
    first use, a tree of two parsers: the top-level one and that
    subcommand's. Any other argv builds the whole tree (the top-level
    parser and one per subcommand) on its first use. build_parser()
    still builds a new one each call."""
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
                 ["enumerate", "--group", "z2", "--carrier", "2"],
                 ["--version"],
                 ["--version"],
                 ["witnesses", "--group", "z2", "--carrier", "2"]):
        before = len(built)
        assert main(argv) == 0
        per_call.append(len(built) - before)
    capsys.readouterr()
    assert per_call == [2, 2, 2, 0, 12, 0, 0]
    assert build_parser() is not build_parser()


def test_shared_parser_calls_match_fresh_parser_calls(tmp_path, monkeypatch, capsys):
    """Usage errors, --version, help, a budget stop and a refused
    BINACT_THREADS between two identical enumerations leave the shared
    trees as they were: every call gives the exit code, stdout and stderr
    it gives on a fresh whole tree from build_parser(), so a one-command
    tree repeats the whole tree's help and errors byte for byte."""
    out = tmp_path / "actions.jsonl"
    enumerate_argv = ["enumerate", "--group", "z2", "--carrier", "3", "--out", str(out)]
    calls = [
        (enumerate_argv, None),
        (["enumerate", "--group", "z2"], None),  # missing --carrier
        (["no-such-command"], None),
        (["--version"], None),
        (["--help"], None),
        (["enumerate", "--help"], None),
        (["witnesses", "-h"], None),
        (["enumerate", "--group", "z2", "--carrier", "3", "--bogus"], None),
        (["enumerate", "--group", "z2", "--carrier", "3", "--node-budget", "40"], None),
        (["validate", "--group", "z2"], "0"),  # BINACT_THREADS
        (enumerate_argv, None),
    ]

    def run_all(fresh):
        results = []
        if fresh:
            monkeypatch.setattr(binact.cli, "_shared_parser", lambda only=None: build_parser())
        for argv, threads in calls:
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
    assert [r[0] for r in shared] == [0, 2, 2, 0, 0, 0, 0, 2, 1, 2, 0]
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
