"""List a sha256 of every output of a fixed set of runs, so that two versions
of robustlab can be shown to write the same bytes.

    python3 tools/output_hashes.py > hashes.txt

Run it in two checkouts and diff the listings: each imports robustlab from
its own src/ and the benchmark's workloads from its own perfbench/. Each
output gets one `<sha256>  <name>` line, hashed with its `# generated_at`
lines dropped; a command's exit code is listed as `exit=<code>  <name>`.
The runs are:

- the README workflow through `robustlab.cli.main` (gen-data, GAIRAT train,
  pgd20 and pgdplus sweeps, report, oracle-check): each command's stdout,
  stderr and exit code, and every file it writes;
- on the same model and data, `eval --out` for pgd20 and pgdplus under both
  verdicts, `attack --out-adv` at pgd20 alpha 1 and 100 and at pgdplus
  alpha 10, and `train --method fat --fat-slack 1` at batch 64 and at
  batch 200, whose friendly searches run passes of four 64-row blocks that
  shrink as their rows settle, and `train --method gairat` at batch 67,
  whose full batches take two 64-row blocks and whose last batch takes one,
  so that its SGD workspace goes to a prefix and back every epoch;
- on the same model and a 20-point `gen-data` set, whose pgdplus passes
  stack several restarts, `eval --out` under both verdicts and
  `attack --out-adv` for pgdplus;
- on 9-center blobs of 801 points (the workflow's size rounded up to a
  multiple of 9), an AT `train` and `eval --out` for pgd20 and pgdplus
  under both verdicts: a 9-class head keeps its exponentials in C order,
  so the runs' 13-block passes take each row's correctness from argmax;
- the same four evals and AT `train` on 800 two-moons points (the CLI's
  default kind) with a tanh model: a 2-class head whose 13-block passes
  read correctness off its Fortran-ordered exponentials;
- GAIRAT `train` at `--omega-lambda` -1 and 3, AT `train` with hidden
  widths 16,1, whose one-block products include matrix-vector and outer
  products, and AT `train` at batch 32, whose SGD passes are one block of
  32 real rows;
- on the same files, after those are listed, seven runs refused before any
  work: stderr and exit code only (`cli/refused/<name>`);
- the digest `check` returns for each op of one period of every perfbench
  workload, on seeds 1 and 7;
- in one process, runs that interleave their shapes, so that each takes the
  workspace another gave back or finds it of another shape: `predict` on
  4000 rows, `pgd_attack` on 64 and 800 rows and a short `train`, each
  output hashed with its dtype and shape (`inproc/<run>/<output>`).

BLAS runs on one thread, as in the benchmark.
"""
from __future__ import annotations

import os
import sys

if __name__ == "__main__":  # before numpy is first imported
    for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[_var] = "1"
    os.environ.pop("ROBUSTLAB_OUT", None)  # the CLI would redirect its outputs

import contextlib  # noqa: E402
from dataclasses import replace  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from robustlab import cli  # noqa: E402
from robustlab.attacks import AttackConfig, pgd20_config, pgd_attack, pgd_plus_config  # noqa: E402
from robustlab.datasets import gen_gaussian_blobs  # noqa: E402
from robustlab.model import MlpConfig, predict  # noqa: E402
from robustlab.tensor import Tensor  # noqa: E402
from robustlab.training import TrainConfig, train  # noqa: E402

SEEDS = (1, 7)


def _sha256(body: bytes) -> str:
    kept = b"\n".join(line for line in body.split(b"\n") if not line.startswith(b"# generated_at"))
    return hashlib.sha256(kept).hexdigest()


def _commands(size: workloads.Size) -> list[tuple[str, list[str]]]:
    """The README workflow at `size`, then the other commands on its model and data."""
    s = size
    centers = ";".join(f"{x}:{y}" for x, y in workloads.CENTERS)
    common = ["--inner-steps", "5", "--eps", "0.031", "--lr", "0.15", "--batch-size", "64", "--seed", "3",
              "--hidden", "16,16", "--epochs", str(s.epochs), "--data", "blobs.csv"]
    on_model = ["--model", "gairat.ckpt", "--data", "blobs.csv", "--seed", "5"]
    grid = f"1e-2:1e2:{s.alphas}"
    commands = [
        ("gen-data", ["gen-data", "--kind", "blobs", "--n", str(s.n), "--seed", "11", "--noise", "0.13",
                      "--centers", centers, "--out", "blobs.csv"]),
        ("train-gairat", ["train", "--method", "gairat", "--burn-in", str(s.burn_in), *common,
                          "--out", "gairat.ckpt"]),
        ("sweep-pgd20", ["sweep", *on_model, "--attack", "pgd20", "--alpha-grid", grid, "--out", "sweep.csv"]),
        ("sweep-pgdplus", ["sweep", *on_model, "--attack", "pgdplus", "--alpha-grid", grid,
                           "--out", "sweep_plus.csv"]),
        ("report", ["report", "--in", "sweep.csv"]),
        ("oracle-check", ["oracle-check", "--model", "gairat.ckpt", "--data", "blobs.csv", "--eps", "0.05",
                          "--grid", str(s.oracle_grid), "--limit", str(s.oracle_points), "--seed", "2"]),
    ]
    for attack in ("pgd20", "pgdplus"):
        for verdict in ("best_iterate", "all_iterates"):
            name = f"eval-{attack}-{verdict}"
            commands.append((name, ["eval", *on_model, "--attack", attack, "--verdict", verdict,
                                    "--out", f"{name}.csv"]))
    for attack, alpha in (("pgd20", "1"), ("pgd20", "100"), ("pgdplus", "10")):
        name = f"attack-{attack}-alpha{alpha}"
        commands.append((name, ["attack", *on_model, "--attack", attack, "--alpha", alpha,
                                "--out-adv", f"{name}.csv"]))
    commands.append(("train-fat", ["train", "--method", "fat", "--fat-slack", "1", *common, "--out", "fat.ckpt"]))

    def at_batch(size: str) -> list[str]:
        args = list(common)
        args[args.index("--batch-size") + 1] = size
        return args

    commands.append(("train-fat-200", ["train", "--method", "fat", "--fat-slack", "1", *at_batch("200"),
                                       "--out", "fat200.ckpt"]))
    commands.append(("train-gairat-67", ["train", "--method", "gairat", "--burn-in", str(s.burn_in), *at_batch("67"),
                                         "--out", "gairat67.ckpt"]))
    # 20 points: each pgdplus pass stacks 3 (then 2) of the 5 restarts into one 64-row block.
    commands.append(("gen-data-20", ["gen-data", "--kind", "blobs", "--n", "20", "--seed", "12", "--noise", "0.13",
                                     "--centers", centers, "--out", "blobs20.csv"]))
    on_20 = ["--model", "gairat.ckpt", "--data", "blobs20.csv", "--seed", "5", "--attack", "pgdplus"]
    for verdict in ("best_iterate", "all_iterates"):
        name = f"eval-pgdplus-{verdict}-20"
        commands.append((name, ["eval", *on_20, "--verdict", verdict, "--out", f"{name}.csv"]))
    commands.append(("attack-pgdplus-20", ["attack", *on_20, "--out-adv", "attack-pgdplus-20.csv"]))
    nine = ";".join(f"{x}:{y}" for x in (0.2, 0.5, 0.8) for y in (0.2, 0.5, 0.8))
    commands.append(("gen-data-9", ["gen-data", "--kind", "blobs", "--n", str(-(-s.n // 9) * 9), "--seed", "13",
                                    "--noise", "0.08", "--centers", nine, "--out", "blobs9.csv"]))
    commands.append(("gen-data-moons", ["gen-data", "--kind", "two-moons", "--n", str(s.n), "--seed", "14",
                                        "--noise", "0.1", "--out", "moons.csv"]))
    for suffix, data, extra in (("9", "blobs9.csv", []), ("moons", "moons.csv", ["--activation", "tanh"])):
        on_data = list(common)
        on_data[on_data.index("--data") + 1] = data
        commands.append((f"train-at-{suffix}", ["train", "--method", "at", *extra, *on_data, "--out", f"at{suffix}.ckpt"]))
        for attack in ("pgd20", "pgdplus"):
            for verdict in ("best_iterate", "all_iterates"):
                name = f"eval-{attack}-{verdict}-{suffix}"
                commands.append((name, ["eval", "--model", f"at{suffix}.ckpt", "--data", data, "--seed", "5",
                                        "--attack", attack, "--verdict", verdict, "--out", f"{name}.csv"]))
    # GAIRAT weights off either side of lambda 0; a 1-unit hidden layer, whose one-block
    # products are matrix-vector and outer products; and one-block SGD passes of 32 real rows.
    for lam in ("-1", "3"):
        commands.append((f"train-gairat-lambda{lam}", ["train", "--method", "gairat", "--burn-in", str(s.burn_in),
                                                       "--omega-lambda", lam, *common,
                                                       "--out", f"gairat-lambda{lam}.ckpt"]))
    width1 = list(common)
    width1[width1.index("--hidden") + 1] = "16,1"
    commands.append(("train-at-width1", ["train", "--method", "at", *width1, "--out", "at-width1.ckpt"]))
    commands.append(("train-at-32", ["train", "--method", "at", *at_batch("32"), "--out", "at32.ckpt"]))
    return commands


def _refusals(size: workloads.Size) -> list[tuple[str, list[str]]]:
    """Runs on the workflow's files that each refuse one input. The edited copies of the
    GAIRAT checkpoint: `shape.ckpt` declares its first weight's shape to conflict with its
    config, `field.ckpt` carries an unknown config field, `negdim.ckpt` a negative dimension."""
    sweep = ["sweep", "--data", "blobs.csv", "--seed", "5", "--attack", "pgd20", "--alpha-grid", f"1e-2:1e2:{size.alphas}"]
    return [
        ("sweep-shape-conflict", [*sweep, "--model", "shape.ckpt"]),
        ("sweep-unknown-config-field", [*sweep, "--model", "field.ckpt"]),
        ("sweep-negative-dimension", [*sweep, "--model", "negdim.ckpt"]),
        ("sweep-out-under-file", [*sweep, "--model", "gairat.ckpt", "--out", "blobs.csv/r.csv"]),
        ("eval-alpha-inf", ["eval", "--model", "gairat.ckpt", "--data", "blobs.csv", "--alpha", "inf"]),
        ("train-out-dir", ["train", "--method", "erm", "--data", "blobs.csv", "--out", "."]),
        ("oracle-check-grid-1", ["oracle-check", "--model", "gairat.ckpt", "--data", "blobs.csv", "--grid", "1"]),
    ]


def _run(argv: list[str]) -> tuple[str, str, int]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return out.getvalue(), err.getvalue(), code


def cli_hashes(size: workloads.Size) -> list[str]:
    """Listing lines for the CLI runs, in a fresh directory that is removed after."""
    lines = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="output-hashes-") as tmp:
        os.chdir(tmp)  # relative paths keep the written files free of the directory name
        try:
            for name, argv in _commands(size):
                out, err, code = _run(argv)
                lines += [f"{_sha256(out.encode())}  cli/{name}.stdout",
                          f"{_sha256(err.encode())}  cli/{name}.stderr",
                          f"exit={code}  cli/{name}"]
            lines += [f"{_sha256(p.read_bytes())}  cli/file/{p.name}" for p in sorted(Path(tmp).iterdir())]
            ckpt = Path("gairat.ckpt").read_text()
            header, config, body = ckpt.split("\n", 2)
            Path("shape.ckpt").write_text(ckpt.replace("\nw0 2x16 ", "\nw0 16x2 ", 1))
            Path("field.ckpt").write_text(f"{header}\n{config} bogus=1\n{body}")
            Path("negdim.ckpt").write_text(ckpt.replace("\nw0 2x16 ", "\nw0 2x-16 ", 1))
            for name, argv in _refusals(size):
                _, err, code = _run(argv)
                lines += [f"{_sha256(err.encode())}  cli/refused/{name}.stderr", f"exit={code}  cli/refused/{name}"]
        finally:
            os.chdir(cwd)
    return lines


def perfbench_hashes(size: workloads.Size) -> list[str]:
    """Listing lines for one period of ops of every perfbench workload on each of SEEDS."""
    lines = []
    for seed in SEEDS:
        for name, workload in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory(prefix="output-hashes-") as tmp:
                w = workload(seed, size, Path(tmp))
                w.setup()
                lines += [f"{w.check(i, w.run(i))}  perfbench/{name}/seed{seed}/op{i}" for i in range(w.period)]
    return lines


def _array_sha256(a: np.ndarray) -> str:
    return hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode() + np.ascontiguousarray(a).tobytes()).hexdigest()


def reuse_hashes() -> list[str]:
    """Listing lines for in-process runs on the workflow's data and a held-out
    set, in an order that moves the kept workspace between shapes."""
    data = gen_gaussian_blobs(800, workloads.CENTERS, 0.13, 11)
    held = gen_gaussian_blobs(4000, workloads.CENTERS, 0.13, 99)
    inner = AttackConfig(epsilon=0.031, steps=5, step_size=0.031 / 4, random_start=True)
    first64 = Tensor._wrap(data.points.data[:64].copy())
    lines = []

    def listed(name, outputs):
        lines.extend(f"{_array_sha256(a)}  inproc/{name}/{key}" for key, a in outputs.items() if a is not None)

    def trained(name, method, epochs):
        cfg = TrainConfig(method=method, epochs=epochs, batch_size=64, learning_rate=0.15, seed=3,
                          inner_attack=inner, burn_in_epochs=1 if method == "gairat" else 0,
                          omega_lambda=0.0 if method == "gairat" else None)
        params, history = train(MlpConfig((2, 16, 16, 4), init_seed=3), data, cfg)
        keys = [f"{kind}{i}" for i in range(params.config.num_layers) for kind in "wb"]
        listed(name, {**{k: t.data for k, t in zip(keys, params.leaves())},
                      "history": np.frombuffer(repr(history).encode(), dtype=np.uint8)})
        return params

    def attacked(name, params, x, y, cfg, seed):
        res = pgd_attack(params, x, y, cfg, domain=data.domain, seed=seed, friendly_slack=1)
        listed(name, {k: v.data if isinstance(v, Tensor) else v for k, v in vars(res).items()})

    params = trained("train-gairat", "gairat", 3)
    listed("predict-4000-a", {"classes": predict(params, held.points)})
    attacked("pgd20-64-a", params, first64, data.labels[:64], pgd20_config(), 5)
    attacked("pgdplus-800", params, data.points, data.labels, pgd_plus_config(), 5)
    listed("predict-4000-b", {"classes": predict(params, held.points)})
    attacked("pgd20-64-b", params, first64, data.labels[:64], pgd20_config(), 6)
    params = trained("train-at", "at", 2)
    attacked("pgd20-800-alpha10", params, data.points, data.labels, replace(pgd20_config(), alpha=10.0), 7)
    listed("predict-4000-c", {"classes": predict(params, held.points)})
    return lines


def main() -> int:
    for line in cli_hashes(workloads.FULL) + perfbench_hashes(workloads.FULL) + reuse_hashes():
        print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
