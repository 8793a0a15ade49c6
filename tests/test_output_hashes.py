"""Smoke test of tools/output_hashes.py: its CLI listing is repeatable."""
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
    assert all(re.fullmatch(r"(exit=0|[0-9a-f]{64})  cli/\S+", line) for line in first)
    assert {"cli/file/sweep.csv", "cli/file/fat.ckpt", "cli/oracle-check"} <= {line.split("  ")[1] for line in first}
