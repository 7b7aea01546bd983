"""Byte-identical CLI output: SHA-256 digests of stdout and of the --out file
for fixed invocations. The enumerate and witnesses digests were recorded
with the brute-force canonicalization that tests/oracles.py keeps, the
quotient and topology-check digests with the open-by-open continuity scan
and the per-check re-verification that the battery used before it verified
each fact once, and the two raw `--require-distributive` enumerations
(no --dedupe, so the raw order is pinned) with the search that re-checked
every assigned law instance at each depth, before it checked only the
instances a new row adds. The monoid, induce, embed and conjugation digests were
recorded while each of those commands dumped its record twice, once for stdout
and once for --out. A change to any of them changes the output format, the
enumeration order, the canonical representatives or a check's verdict, and
needs a deliberate new recording."""

import hashlib
import json

import pytest

from binact.cli import main

GOLDEN = [
    pytest.param(
        ["enumerate", "--group", "z2", "--carrier", "3"],
        "6ddabfef29ab908184c3a85e17bd933567a349380dc0f6d1deb0d450215cf32d",
        "148a617581d158d2d37dc36888669f7de11329c2a1f8c82b9c7d42a7467b2f98",
        id="enumerate-z2-3"),
    pytest.param(
        ["enumerate", "--group", "z2", "--carrier", "3", "--dedupe"],
        "6ddabfef29ab908184c3a85e17bd933567a349380dc0f6d1deb0d450215cf32d",
        "7b28dbe86e1718eaabcedd102035ad91a16d843f9a3d34d1d692dc27c7492624",
        id="enumerate-z2-3-dedupe"),
    pytest.param(
        ["enumerate", "--group", "s3", "--carrier", "3", "--require-distributive", "--dedupe"],
        "db1ee5f524148ddd8273a858cd8bd119f87436ed62f108b7d86828b0639aaf21",
        "210f1509ee99087555c090296fecdc5d1aa7581ee1f2a91548fde5a0f8e41496",
        id="enumerate-s3-3-distributive-dedupe"),
    pytest.param(
        ["enumerate", "--group", "k4", "--carrier", "3", "--require-distributive"],
        "f57344c92b73ad6f5c902baeda681a37c6d1fe81b88795185e36264e88850998",
        "6bf31264c9f010baa232d58d69070bf799225142fdc815b6891d008023645cc6",
        id="enumerate-k4-3-distributive"),
    pytest.param(
        ["enumerate", "--group", "z3", "--carrier", "4", "--require-distributive"],
        "e8109e5bd9baf6346714e7f36fd62ebe6fec8dddddb8999ba7ebbeec5301d91b",
        "75cfc6b6ebd41e204fd4d48d9ef2941399e3dfeb611ff402e87d9e5e8626d6b8",
        id="enumerate-z3-4-distributive"),
    pytest.param(
        ["witnesses", "--group", "s3", "--carrier", "3"],
        "8cada431d8cce24b3fdd1c9e4c8c8a87d070e81e6c64206c41a1e95b355f4089",
        "284fd5e54f9b22e88f4529dbb8699262ed4362e6ca6c8251fe88f9cc24684c08",
        id="witnesses-s3-3"),
    pytest.param(
        ["conjugation", "--group", "s3", "--generators", "3"],
        "23eb0d16ebb18eeb61b36d23859bcb0ca1d418ddc9bec8884cd4ae510da236e4",
        "6f2f84c7671a8a0abeb5176a1129972bca55f7d5b68c8ebeb9af63cc7cdbe6f3",
        id="conjugation-s3-3"),
]


@pytest.mark.parametrize("argv, stdout_sha256, out_sha256", GOLDEN)
def test_golden_output(argv, stdout_sha256, out_sha256, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha256


# A distributive z2 action on four points, classes {0}, {1}, {2, 3}, under a
# non-Hausdorff topology on which it is continuous, and a topology on which
# it is not (the open {0} passes, {2} is the first whose preimage is not open).
MODEL_ACTION = {"group": "z2", "carrier": 4,
                "table": [[[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 2, 3]],
                          [[0, 1, 2, 3], [0, 1, 2, 3], [0, 1, 3, 2], [0, 1, 3, 2]]]}
CONTINUOUS_TOPOLOGY = {"size": 4, "opens": [[], [0], [1], [0, 1], [0, 2, 3], [0, 1, 2, 3]]}
BROKEN_TOPOLOGY = {"size": 4, "opens": [[], [0], [2], [0, 2], [0, 1, 2, 3]]}
# An invertible operation on three points, a second one to star it with, and
# an ordinary action of z2 on three points to embed.
MODEL_OP = {"size": 3, "table": [[1, 2, 0], [0, 2, 1], [2, 1, 0]]}
STAR_OP = {"size": 3, "table": [[0, 0, 1], [2, 1, 0], [1, 1, 1]]}
MODEL_ORDINARY = {"group": "z2", "carrier": 3, "table": [[0, 1, 2], [1, 0, 2]]}

GOLDEN_MODELS = [
    pytest.param(
        ["quotient", "--action", "action.json", "--topology", "continuous.json"], 0,
        "c44cc6d5cb05924ae9db7cc2dcb3e0ea8bf6e8c77dc04a0031b927f5e21554de",
        "d7631c4402dd316649dd1b51e4fb041190e1add23e4167260e94ff305b9efa34",
        id="quotient-continuous"),
    pytest.param(
        ["topology-check", "--action", "action.json", "--topology", "continuous.json",
         "--probe-non-hausdorff"], 0,
        "601f3eace976ad6e9a1685238796bd0cde607e55516f6c61c5d8af15d4d5782c",
        "9c8201c25f0151822df8414dc6a320790c0f09fabf1457e38fbb6b63420586aa",
        id="topology-check-continuous"),
    pytest.param(
        ["topology-check", "--action", "action.json", "--topology", "broken.json",
         "--probe-non-hausdorff"], 1,
        "68c66813afd16cf786dc1e3b863bca146642d276c830402c1070eec040fd8876",
        None,
        id="topology-check-not-continuous"),
    pytest.param(
        ["monoid", "--op", "op.json", "--star", "star.json"], 0,
        "4601c5a1f476fe273effdbe0d64556f695bf339f2e9cb480edc43561fb7ca8ea",
        "a33c0981e9623d522d29f386292a5322cec085c583c436d8e40889c649f27b91",
        id="monoid-star"),
    pytest.param(
        ["monoid", "--op", "op.json", "--invert"], 0,
        "eee392f6c3ef054255f044b1425611cd74b71505b39f249b90bf425312681eec",
        "c879f68fde4f295a625e6a5ac6c27eba6206d6559bbe4ca342f021eafd8b6b39",
        id="monoid-invert"),
    pytest.param(
        ["induce", "--action", "action.json", "--point", "2"], 0,
        "8e013b95165a2892ef02cf637b1eb9ddeab3c92e3520051057f62f10022c4262",
        "763b6abb5dd4918e5dde76b70e7067d677489c922b71a2bab5476a79b8a45a06",
        id="induce-2"),
    pytest.param(
        ["embed", "--ordinary", "ordinary.json"], 0,
        "13be152ffe578517ddc6ee9cbc9e272628980d8a1f0581e1b7e3d311a1f619a4",
        "da25117ae1a063d706187db6c6ea1f551f8d6e6984516b1b771807bbd9a5e578",
        id="embed"),
]


@pytest.mark.parametrize("argv, code, stdout_sha256, out_sha256", GOLDEN_MODELS)
def test_golden_model_output(argv, code, stdout_sha256, out_sha256, tmp_path,
                             monkeypatch, capsys):
    """Relative paths keep the model ids, which name the input files, fixed."""
    for name, obj in (("action.json", MODEL_ACTION), ("continuous.json", CONTINUOUS_TOPOLOGY),
                      ("broken.json", BROKEN_TOPOLOGY), ("op.json", MODEL_OP),
                      ("star.json", STAR_OP), ("ordinary.json", MODEL_ORDINARY)):
        (tmp_path / name).write_text(json.dumps(obj))
    monkeypatch.chdir(tmp_path)
    assert main([*argv, "--out", "out"]) == code
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha256
    if out_sha256 is None:
        assert not (tmp_path / "out").exists()
    else:
        assert hashlib.sha256((tmp_path / "out").read_bytes()).hexdigest() == out_sha256
