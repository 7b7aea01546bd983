"""The atlas checker passes a row that holds, names each row that fails,
and the committed table is well formed."""

import json
from pathlib import Path

from atlas import check

Z2_3 = "raw_count=64 canonical_count=16 distributive_count=11 exhaustive=yes\n"


def cli_row(name, **fields):
    return {"name": name, "why": "z2 on 3 points.",
            "argv": ["enumerate", "--group", "z2", "--carrier", "3"],
            "exit": 0, "stdout": Z2_3, "seconds": 30, **fields}


def api_row(name, **fields):
    return {"name": name, "why": "z2 on 3 points.", "task": {"group": "z2", "carrier_size": 3},
            "result": {"raw_count": 64, "canonical_count": 16, "exhaustive": True},
            "seconds": 30, **fields}


def test_check_names_each_failing_row(capsys):
    rows = [
        cli_row("holds", mb=100),
        api_row("api-holds"),
        api_row("api-stop", task={"group": "z2", "carrier_size": 3, "node_budget": 1},
                result={"exhaustive": False}, message="enumeration budget exceeded: node budget 1 .*"),
        cli_row("wrong-count", stdout=Z2_3.replace("=16", "=17")),
        cli_row("rss", mb=1),
        cli_row("slow", seconds=0.01),
        cli_row("exit", exit=1),
        api_row("api-wrong-count", result={"canonical_count": 17}),
        api_row("api-unexpected-stop", task={"group": "z2", "carrier_size": 3, "node_budget": 1}),
    ]
    assert check(rows) == ["wrong-count", "rss", "slow", "exit", "api-wrong-count",
                           "api-unexpected-stop"]
    verdicts = {line.split()[0]: line.split("  ")[-1].strip()
                for line in capsys.readouterr().out.splitlines() if not line.startswith(" ")}
    want = {
        "holds": "ok", "api-holds": "ok", "api-stop": "ok",
        "wrong-count": "FAIL: stdout does not match",
        "rss": "FAIL: peak RSS ",
        "slow": "FAIL: killed at its 0.01 s time limit",
        "exit": "FAIL: exit code 0, expected 1",
        "api-wrong-count": "FAIL: canonical_count = 16, expected 17",
        "api-unexpected-stop": "FAIL: raw_count = 0, expected 64",
    }
    assert verdicts.keys() == want.keys()
    for name, start in want.items():
        assert verdicts[name].startswith(start), (name, verdicts[name])


def test_table_rows_are_well_formed():
    rows = json.loads((Path(__file__).parent / "data" / "atlas.json").read_text())
    assert len({row["name"] for row in rows}) == len(rows)
    for row in rows:
        assert row["why"].endswith(".") and row["seconds"] > 0
        shape = {"argv", "exit", "stdout"} if "argv" in row else {"task", "result"}
        assert shape <= row.keys() <= shape | {"name", "why", "seconds", "mb", "message"}
        assert "message" not in row or "task" in row
