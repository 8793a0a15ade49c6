"""Smoke test of tools/output_hashes.py: its CLI listing is repeatable."""
import hashlib
import importlib.util
import re
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "output_hashes.py"


def test_cli_listing_at_tiny_size_is_the_same_twice(monkeypatch):
    monkeypatch.delenv("ROBUSTLAB_OUT", raising=False)
    spec = importlib.util.spec_from_file_location("output_hashes", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    first = tool.cli_hashes(tool.workloads.TINY)
    assert first == tool.cli_hashes(tool.workloads.TINY)
    refused = [line for line in first if "  cli/refused/" in line]
    assert all(re.fullmatch(r"(exit=0|[0-9a-f]{64})  cli/\S+", line) for line in first if line not in refused)
    assert {"cli/file/sweep.csv", "cli/file/fat.ckpt", "cli/oracle-check"} <= {line.split("  ")[1] for line in first}
    # Each refused run exits 2 and says why on stderr.
    empty = hashlib.sha256(b"").hexdigest()
    assert len(refused) == 2 * len(tool._refusals(tool.workloads.TINY))
    for stderr, exit_line in zip(refused[::2], refused[1::2]):
        digest, name = stderr.split("  ")
        assert re.fullmatch(r"[0-9a-f]{64}", digest) and digest != empty
        assert exit_line == f"exit=2  {name.removesuffix('.stderr')}"
