"""Smoke tests of the benchmark itself.

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import importlib
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_passes_and_prints_only_declared_metrics(workload, trace):
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "7", "--seconds", "0",
           "--trace", str(trace), "--size", "tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    printed = [line.split() for line in lines[:-1] if not line.startswith("#")]
    assert {name: unit for name, _, unit in printed} == declared


class RobustAboveNatural(AssertionError):
    pass


@pytest.mark.xfail(strict=True, raises=RobustAboveNatural,
                   reason="pgd_attack's best-iterate point never includes the natural point, "
                          "so a naturally misclassified example can count as robust")
def test_robust_accuracy_never_exceeds_natural_accuracy(tmp_path):
    # Tiny pipeline, seed 5: the pgd20 sweep scores 0.225 robust against 0.2125 natural at alpha 0.01.
    # Only that check's failure is the expected one; any other error fails the test.
    workload = workloads.Pipeline(5, workloads.TINY, tmp_path)
    workload.setup()
    op = workload.run(0)
    try:
        workload.check(0, op)
    except workloads.OpCheckError as e:
        if re.search(r"robust accuracy \S+ at alpha \S+ vs natural", str(e)):
            raise RobustAboveNatural(str(e)) from e
        raise


def _attributes():
    modules = [importlib.import_module(name) for name in ["robustlab"] + [f"robustlab.{m}" for m in spans.LAYERS]]
    return {module.__name__: dict(vars(module)) for module in modules}


def test_shims_are_removed_on_exit_even_after_an_error():
    before = _attributes()
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed():
            import robustlab.attacks

            assert robustlab.attacks.forward_logits.__wrapped__ is before["robustlab.attacks"]["forward_logits"]
            raise RuntimeError("stop")
    after = _attributes()
    assert after.keys() == before.keys()
    for name in before:
        assert after[name].keys() == before[name].keys()
        changed = [k for k in before[name] if after[name][k] is not before[name][k]]
        assert not changed, f"{name}: {changed}"


def test_traced_run_skips_a_target_the_package_no_longer_has(monkeypatch, tmp_path):
    import robustlab.cli

    # The train workload never generates rings, so the program still works without it.
    monkeypatch.delattr(robustlab.cli, "gen_rings")
    assert ("robustlab.cli", "gen_rings") in spans.TARGETS
    workload = workloads.Train(7, workloads.TINY, tmp_path)
    workload.setup()
    tracer = spans.Tracer()
    with tracer.installed():
        assert not hasattr(robustlab.cli, "gen_rings")
        workload.check(1, workload.run(1))
    assert not hasattr(robustlab.cli, "gen_rings")
    assert tracer.take()["spans"]["attacks.pgd_attack"][0] > 0


def test_timer_scales_each_call_by_the_reference_kernel_around_it():
    class FakeReference:
        scale = staticmethod(run.Reference.scale)

        def __init__(self):
            self.kernel_s = iter([0.01, 0.03])

        def seconds(self):
            return next(self.kernel_s)

    timed = workloads.Timer(FakeReference())
    assert timed("sleep", time.sleep, 0.01) is None
    assert timed.parts["sleep"] >= 0.01
    assert timed.scaled["sleep"] == pytest.approx(timed.parts["sleep"] * run.REFERENCE_S / 0.02)


def test_tail_is_a_fixed_nearest_rank_percentile():
    assert run.tail([float(i) for i in range(40)], 75) == (29.0, 10)
    assert run.tail([float(i) for i in range(10)], 90) == (8.0, 1)
    assert run.tail([float(i) for i in range(20)], 90) == (17.0, 2)
    assert run.tail([3.0, 1.0, 2.0], 90) == (3.0, 0)
