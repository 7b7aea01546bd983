"""Byte-identical CLI output: SHA-256 digests of stdout and of the --out file
for fixed invocations, recorded with the brute-force canonicalization that
tests/oracles.py keeps. A change to any of them changes the output format,
the enumeration order or the canonical representatives, and needs a
deliberate new recording."""

import hashlib

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
        ["witnesses", "--group", "s3", "--carrier", "3"],
        "8cada431d8cce24b3fdd1c9e4c8c8a87d070e81e6c64206c41a1e95b355f4089",
        "284fd5e54f9b22e88f4529dbb8699262ed4362e6ca6c8251fe88f9cc24684c08",
        id="witnesses-s3-3"),
]


@pytest.mark.parametrize("argv, stdout_sha256, out_sha256", GOLDEN)
def test_golden_output(argv, stdout_sha256, out_sha256, tmp_path, capsys):
    out = tmp_path / "out"
    assert main([*argv, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out.encode()
    assert hashlib.sha256(stdout).hexdigest() == stdout_sha256
    assert hashlib.sha256(out.read_bytes()).hexdigest() == out_sha256
