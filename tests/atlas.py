"""Check the atlas: the exact counts, time limits and memory bounds of the
frontier runs, one row of tests/data/atlas.json each.

Every row runs in a fresh interpreter with PYTHONPATH=src, killed by
`timeout` when it passes its time limit (`seconds`):
- a CLI row runs `python -m binact *argv`; it must exit with `exit` and
  print a stdout that the regex `stdout` matches in full (a line of counts
  is its own regex);
- an API row runs enumerate_actions on its `task`, a catalog group name with
  EnumerationTask's other arguments; it must exit 0 with the `result` fields
  given (`rows` is the number of rows), and when the row names a budget
  stop's `message`, a regex, the search must stop with that message and
  `result` is its partial result.
A row with an `mb` bound must peak below it, in the RSS that wait4 reports
for that row's own child.

Usage: python tests/atlas.py. It prints each row's name, exit code, seconds,
peak RSS and verdict, the output of each row that fails, and exits 1 if any
row fails.
"""

import json
import os
import re
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

API = """
import json, sys
from binact import EnumerationTask, builtin_group, enumerate_actions
from binact.errors import BudgetExceeded
task = json.loads(sys.argv[1])
out = {}
try:
    r = enumerate_actions(EnumerationTask(builtin_group(task.pop("group")), **task))
except BudgetExceeded as exc:
    r, out["message"] = exc.partial, str(exc)
out.update(raw_count=r.raw_count, canonical_count=r.canonical_count,
           distributive_count=r.distributive_count, exhaustive=r.exhaustive,
           nodes=r.nodes, rows=len(r.rows))
print(json.dumps(out))
"""


def run(row) -> tuple[int, float, float, str, str]:
    """Run row's command; its exit code, seconds, peak RSS in MB, stdout and stderr."""
    if "argv" in row:
        command = [sys.executable, "-m", "binact", *row["argv"]]
    else:
        command = [sys.executable, "-c", API, json.dumps(row["task"])]
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.monotonic()
        pid = os.posix_spawnp("timeout", ["timeout", str(row["seconds"]), *command],
                              env, file_actions=[(os.POSIX_SPAWN_DUP2, out.fileno(), 1),
                                                 (os.POSIX_SPAWN_DUP2, err.fileno(), 2)])
        _, status, usage = os.wait4(pid, 0)
        seconds = time.monotonic() - start
        out.seek(0)
        err.seek(0)
        return (os.waitstatus_to_exitcode(status), seconds, usage.ru_maxrss / 1024,
                out.read().decode(), err.read().decode())


def faults(row, code: int, mb: float, stdout: str) -> list[str]:
    """What row's run got wrong; none if it passes."""
    if code == 124:  # timeout's status for a command it killed
        return [f"killed at its {row['seconds']} s time limit"]
    found = []
    if code != row.get("exit", 0):
        found.append(f"exit code {code}, expected {row.get('exit', 0)}")
    if mb >= row.get("mb", float("inf")):
        found.append(f"peak RSS {mb:.0f} MB, bound {row['mb']} MB")
    if "argv" in row:
        if not re.fullmatch(row["stdout"], stdout):
            found.append("stdout does not match")
        return found
    try:
        got = json.loads(stdout)
    except ValueError:
        return found + ["no result"]
    found += [f"{key} = {got.get(key)!r}, expected {want!r}"
              for key, want in row["result"].items() if got.get(key) != want]
    if "message" in row and not re.fullmatch(row["message"], got.get("message", "")):
        found.append(f"message {got.get('message')!r} does not match")
    if "message" not in row and "message" in got:
        found.append(f"stopped: {got['message']}")
    return found


def check(rows) -> list[str]:
    """Run the rows one by one, print a line for each, and return the
    names of the rows that fail."""
    failed = []
    for row in rows:
        code, seconds, mb, stdout, stderr = run(row)
        found = faults(row, code, mb, stdout)
        limits = f"{seconds:6.1f} s of {row['seconds']:<4g} {mb:5.0f} MB"
        limits += f" of {row['mb']:<4g}" if "mb" in row else " " * 8
        print(f"{row['name']:<34} exit {code:<3} {limits}  "
              + ("FAIL: " + "; ".join(found) if found else "ok"), flush=True)
        if found:
            failed.append(row["name"])
            for line in (stdout + stderr).splitlines():
                print("    " + line)
    return failed


if __name__ == "__main__":
    sys.exit(1 if check(json.loads((ROOT / "tests" / "data" / "atlas.json").read_text())) else 0)
