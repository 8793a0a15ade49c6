"""robustlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload pipeline --seed 1 --seconds 35 --trace 0

Run from the repository root. `--trace 0` measures the end-to-end metrics
with no instrumentation. `--trace 1` runs every op twice, untraced and then
under the span shims of `spans.py`, checks that both write the same bytes,
and reports the per-layer metrics and the tracing overhead. End-to-end times
are scaled to reference speed by a kernel timed around every timed section
(see `Reference`); the wall times are printed as `#` lines. Every metric is
printed by name with its unit; the last line of standard output is a JSON
object with the keys correct, attempted, failed and metrics. Metric names
and units are those declared in BENCHMARK.json. A result file with the
provenance of the run is written under perfbench/out/.
"""
from __future__ import annotations

import os

# BLAS threads are pinned before numpy is first imported. One thread: on a
# 2-core machine two OpenBLAS threads were no faster on the 4000-row sweep
# cells, and a second thread competes with other processes for the cores.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
os.environ.pop("ROBUSTLAB_OUT", None)  # the CLI would redirect its outputs

import argparse  # noqa: E402
import datetime  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 3
IMPORT_REPEATS = 9  # a single import time varies by 2-3x on a shared machine
CMD_METRICS = {"train": "cmd.train_s", "sweep-pgd20": "cmd.sweep_pgd20_s",
               "sweep-pgdplus": "cmd.sweep_pgdplus_s", "oracle-check": "cmd.oracle_check_s"}
# op_s.tail is this nearest-rank percentile on every workload. It is fixed, so
# that two versions of the program are compared at the same percentile
# whatever their op counts. It was chosen from the op counts of 35 s runs at
# the seed commit: 8 to 14 ops on pipeline (2 or 3 above p75; p90 would be
# the slowest op in runs of up to 9 ops), about 50 on train (12 above, inside
# the GAIRAT ops of the cycle) and about 30 on sweep-large (7 above).
TAIL_PERCENTILE = 75
REFERENCE_S = 0.013  # the time of `Reference.seconds()` at reference speed


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=["pipeline", "train", "sweep-large"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True, help="measure for this long (whole cycles)")
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--size", choices=["full", "tiny"], default="full", help="tiny: smoke-test inputs")
    return p.parse_args(argv)


def import_program() -> Path:
    """Import robustlab from this checkout's src/; return that directory."""
    src = ROOT / "src"
    if not (src / "robustlab" / "__init__.py").is_file():
        raise SystemExit(f"error: {src / 'robustlab'} not found; run from a robustlab checkout")
    sys.path.insert(0, str(src))
    import robustlab

    if Path(robustlab.__file__).resolve().parent != (src / "robustlab").resolve():
        raise SystemExit(f"error: imported robustlab from {robustlab.__file__}, not from {src}")
    return src


def import_seconds(src: Path) -> float:
    """Time to import robustlab (numpy included) in a fresh interpreter."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
            "import robustlab; print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code, str(src)], capture_output=True, text=True,
                          timeout=120, check=True)
    return float(proc.stdout)


def timed(fn) -> float:
    t0 = perf_counter()
    fn()
    return perf_counter() - t0


def declared_metrics() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"end_to_end": {m["name"]: m for m in spec["end_to_end"]},
            "per_layer": {m["name"]: m for m in spec["per_layer"]}}


def provenance(args) -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        pass
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        **git_state(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": blas.get("name", "unknown"),
        "blas_version": blas.get("version", "unknown"),
        "blas_threads": int(BLAS_THREADS),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "loop": "closed, 1 client",
        "started_at": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_revision": "unknown (not a git checkout)", "git_dirty": None}

    def git(*cmd):
        return subprocess.run(["git", "-C", str(ROOT), *cmd], capture_output=True, text=True,
                              timeout=30, check=True).stdout.strip()

    try:
        return {"git_revision": git("rev-parse", "HEAD"), "git_dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_revision": "unknown (git failed)", "git_dirty": None}


class Reference:
    """A fixed numpy kernel, timed next to every timed section to track the machine's speed.

    On a shared machine the speed of one deterministic op drifts by tens of
    percent over seconds and minutes, and the kernel drifts with it. A timed
    section is scaled by REFERENCE_S over the mean of the kernel's times just
    before and just after it: the end-to-end times are those of a machine on
    which the kernel takes REFERENCE_S. The kernel is small-batch MLP steps,
    as in `train`. It allocates no large arrays: a kernel on 4000-row arrays
    switched between about 5 and 11 ms from run to run while the ops did not.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        self.x = rng.standard_normal((64, 2))
        self.w = rng.standard_normal((2, 16)), rng.standard_normal((16, 16)), rng.standard_normal((16, 4))
        self.samples: list[float] = []

    def seconds(self) -> float:
        import numpy as np

        w1, w2, w3 = self.w
        t0 = perf_counter()
        for _ in range(600):
            h = np.tanh(np.tanh(self.x @ w1) @ w2)
            (h @ w3).sum()
            (h.T @ h).sum()
        self.samples.append(perf_counter() - t0)
        return self.samples[-1]

    @staticmethod
    def scale(before: float, after: float) -> float:
        """The factor that scales a section timed between two kernel times to reference speed."""
        return 2 * REFERENCE_S / (before + after)

    def scaled(self, fn) -> float:
        """The time of `fn()` at reference speed; `fn` returns its own wall time."""
        before = self.seconds()
        wall = fn()
        return wall * self.scale(before, self.seconds())


def tail(values: list[float], pct: int) -> tuple[float, int]:
    """The nearest-rank `pct` percentile of `values`, and how many samples lie above it."""
    ordered = sorted(values)
    rank = max(1, -(-pct * len(ordered) // 100))  # ceil(pct / 100 * n) in integers
    return ordered[rank - 1], len(ordered) - rank


class Loop:
    """The closed loop: ops back to back, whole cycles until time is up."""

    def __init__(self, workload, tracer=None) -> None:
        self.workload, self.tracer = workload, tracer
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.untraced: list = []  # ops that passed every check
        self.traced: list = []
        self._first: dict[int, str] = {}

    def _one(self, i: int, traced: bool):
        self.attempted += 1
        try:
            if traced:
                self.tracer.new_op()
                with self.tracer.installed():
                    op = self.workload.run(i)
            else:
                op = self.workload.run(i)
            digest = self.workload.check(i, op)
            first = self._first.setdefault(i % self.workload.period, digest)
            if digest != first:
                raise RuntimeError("output differs from an earlier op with the same inputs"
                                   + (" (traced vs untraced)" if traced else ""))
        except Exception as e:  # a failed op is counted, the loop goes on
            self.failed += 1
            self.failures.append(f"op {i}{' traced' if traced else ''}: {type(e).__name__}: {e}")
            print(f"# FAILED {self.failures[-1]}", file=sys.stderr)
            traceback.print_exc(file=sys.stderr)
            return None
        (self.traced if traced else self.untraced).append(op)
        return op

    def run(self, seconds: float) -> None:
        i, t_end = 0, perf_counter() + seconds
        while True:
            for _ in range(self.workload.cycle):
                self._one(i, traced=False)
                if self.tracer is not None:
                    self._one(i, traced=True)
                i += 1
            if perf_counter() >= t_end:
                return


def end_to_end(loop: Loop, import_runs: list[float], setup_runs: list[float]) -> tuple[dict, dict]:
    """Times at reference speed (see `Reference`)."""
    times = [op.reference_seconds for op in loop.untraced]
    wall = [op.seconds for op in loop.untraced]
    tail_s, beyond = tail(times, TAIL_PERCENTILE)
    metrics = {
        "setup_s": statistics.median(import_runs) + statistics.median(setup_runs),
        "op_s.p50": statistics.median(times),
        "op_s.tail": tail_s,
        "examples_per_s": sum(op.examples for op in loop.untraced) / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {"ops": len(times), "tail_percentile": TAIL_PERCENTILE, "tail_beyond": beyond,
             "wall.op_s.p50": statistics.median(wall), "wall.op_s.tail": tail(wall, TAIL_PERCENTILE)[0],
             "wall.examples_per_s": sum(op.examples for op in loop.untraced) / sum(wall),
             "reference_kernel_s.p50": statistics.median(loop.workload.reference.samples),
             "import_runs_s": import_runs, "setup_runs_s": setup_runs, "op_s": times, "wall.op_s": wall}
    return metrics, notes


def per_layer(loop: Loop, setup_stats: dict, op_stats: dict) -> tuple[dict, dict]:
    import spans

    traced = [op.seconds for op in loop.traced]
    untraced = [op.seconds for op in loop.untraced]
    metrics = spans.layer_metrics(setup_stats, op_stats, len(traced), sum(traced))
    metrics["trace.overhead"] = statistics.median(traced) / statistics.median(untraced)
    for part, name in CMD_METRICS.items():
        samples = [op.parts[part] for op in loop.untraced if part in op.parts]
        metrics[name] = statistics.median(samples) if samples else 0.0
    notes = {"traced_ops": len(traced), "untraced_ops": len(untraced),
             "op_s.p50.traced": statistics.median(traced), "op_s.p50.untraced": statistics.median(untraced),
             "op_span_edges": {f"{parent} > {child}": v for (parent, child), v in sorted(op_stats["edges"].items())}}
    return metrics, notes


def main(argv=None) -> int:
    args = parse_args(argv)
    src = import_program()
    import spans
    import workloads

    size = workloads.TINY if args.size == "tiny" else workloads.FULL
    workdir = OUT / "work" / f"{args.workload}-{os.getpid()}"
    tracer = spans.Tracer() if args.trace else None
    reference = None if args.trace else Reference()
    workload = workloads.WORKLOADS[args.workload](args.seed, size, workdir, reference)
    declared = declared_metrics()["per_layer" if args.trace else "end_to_end"]
    info = provenance(args)
    try:
        setup_runs, import_runs = [], []
        if tracer is None:
            # Set-up is the import, timed in fresh interpreters, plus the
            # workload's own set-up; each is repeated and its median taken.
            import_runs = [reference.scaled(lambda: import_seconds(src)) for _ in range(IMPORT_REPEATS)]
            setup_runs = [reference.scaled(lambda: timed(workload.setup)) for _ in range(SETUP_REPEATS)]
        else:
            with tracer.installed():
                workload.setup()
        setup_stats = tracer.take() if tracer else None
        loop = Loop(workload, tracer)
        loop.run(args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if not loop.untraced or (tracer and not loop.traced):
        print(f"error: no op passed its checks ({loop.failed} of {loop.attempted} failed)", file=sys.stderr)
        return 1
    if tracer:
        metrics, notes = per_layer(loop, setup_stats, tracer.take())
    else:
        metrics, notes = end_to_end(loop, import_runs, setup_runs)
    if set(metrics) != set(declared):
        print(f"error: metrics {sorted(set(metrics) ^ set(declared))} are not as declared in BENCHMARK.json",
              file=sys.stderr)
        return 3

    for key, value in info.items():
        print(f"# {key} = {value}")
    for key in ("ops", "tail_percentile", "tail_beyond", "wall.op_s.p50", "wall.op_s.tail",
                "wall.examples_per_s", "reference_kernel_s.p50", "traced_ops", "untraced_ops"):
        if key in notes:
            print(f"# {key} = {notes[key]}")
    print(f"# fail_ratio = {loop.failed / loop.attempted:.6g} ({loop.failed} of {loop.attempted} ops)")
    for name in declared:
        print(f"{name:<34} {metrics[name]:>16.6g} {declared[name]['unit']}")
    OUT.mkdir(exist_ok=True)
    result_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    record = {"provenance": info, "attempted": loop.attempted, "failed": loop.failed,
              "fail_ratio": loop.failed / loop.attempted, "failures": loop.failures,
              "metrics": {k: {"value": metrics[k], "unit": declared[k]["unit"]} for k in declared}, **notes}
    result_file.write_text(json.dumps(record, indent=1, default=str) + "\n")
    print(f"# result_file = {result_file.relative_to(ROOT)}")
    print(json.dumps({"correct": loop.failed == 0, "attempted": loop.attempted, "failed": loop.failed,
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
