"""The benchmark's workloads: inputs derived from a seed, one op at a time.

Each workload is driven as a closed loop by one client: op i+1 starts when
op i has finished. `run(i)` does the program's work and times only calls
into robustlab, each also at reference speed when the workload is given a
`run.Reference`; `check(i, op)` then verifies the outputs, outside the timed
region and outside any tracing, and returns a digest of the output bytes.
Ops i and i + period get identical inputs, so their digests must match.
The loop stops only after a whole `cycle` of ops, so a run of a workload
whose ops differ in cost always holds the same mix.

- pipeline: the README workflow through `robustlab.cli.main`, one fresh
  directory per op. The only workload that runs the CLI, the CSV,
  checkpoint and report files, and attacks at batch 64 (train), 800
  (sweeps) and 1 (oracle).
- train: in-process `robustlab.training.train` at batch 64 on the README
  data and model, cycling erm, at, fat, gairat and gairat with FAT crafting.
  Small batches, so per-call Python overhead outweighs arithmetic.
- sweep-large: robust-accuracy cells on a 4000-point held-out set against a
  GAIRAT checkpoint trained in setup. One op is one alpha of the 9-point
  grid, scored by pgd20 (best-iterate) and by pgdplus (all-iterates).
  Large batches, so the tensor kernels dominate.
"""
from __future__ import annotations

import hashlib
import io
import math
import os
import shutil
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import perf_counter

import numpy as np

from robustlab import attacks, cli, datasets, evaluate, model, training

CENTERS = ((0.3, 0.3), (0.7, 0.3), (0.3, 0.7), (0.7, 0.7))
NOISE = 0.13
HIDDEN = (16, 16)
EPSILON = 0.031
LEARNING_RATE = 0.15
BATCH_SIZE = 64
INNER_STEPS = 5


@dataclass(frozen=True)
class Size:
    """Input sizes. FULL is the README workflow; TINY is for smoke tests."""

    n: int
    epochs: int
    burn_in: int
    heldout: int
    alphas: int
    oracle_points: int
    oracle_grid: int


FULL = Size(n=800, epochs=25, burn_in=8, heldout=4000, alphas=9, oracle_points=6, oracle_grid=51)
TINY = Size(n=80, epochs=2, burn_in=1, heldout=200, alphas=3, oracle_points=2, oracle_grid=11)


class OpCheckError(Exception):
    """An op's output failed a correctness check."""


@dataclass
class Op:
    """One op's timings and raw outputs."""

    parts: dict[str, float]  # wall seconds per call into robustlab
    scaled: dict[str, float]  # the same at reference speed
    examples: int  # training examples consumed plus attacked example x alpha cells
    outputs: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.parts.values())

    @property
    def reference_seconds(self) -> float:
        return sum(self.scaled.values())


def derive_seed(seed: int, tag: str) -> int:
    """A seed for one input, fixed by the workload seed and a tag."""
    digest = hashlib.blake2b(f"{seed}/{tag}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "little") % 1_000_000


def _digest(items) -> str:
    h = hashlib.sha256()
    for key, value in items:
        h.update(key.encode() + b"\0")
        h.update(value if isinstance(value, bytes) else repr(value).encode())
        h.update(b"\0")
    return h.hexdigest()


class Timer:
    """Times each call into robustlab, in wall seconds and at reference speed.

    With a `reference` (a `run.Reference`), its kernel is timed just before
    and just after every call, and the call's time is scaled by it. Without
    one, both times are the wall time.
    """

    def __init__(self, reference=None) -> None:
        self.reference = reference
        self.parts: dict[str, float] = {}
        self.scaled: dict[str, float] = {}

    def __call__(self, name: str, fn, *args, **kwargs):
        reference = self.reference
        before = reference.seconds() if reference else None
        t0 = perf_counter()
        result = fn(*args, **kwargs)
        wall = perf_counter() - t0
        scale = reference.scale(before, reference.seconds()) if reference else 1.0
        self.parts[name] = self.parts.get(name, 0.0) + wall
        self.scaled[name] = self.scaled.get(name, 0.0) + wall * scale
        return result

    def op(self, examples: int, outputs: dict) -> Op:
        return Op(self.parts, self.scaled, examples, outputs)


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise OpCheckError(message)


def _blobs(n: int, seed: int):
    return datasets.gen_gaussian_blobs(n, CENTERS, NOISE, seed)


def _model_config(dataset, init_seed: int):
    return model.MlpConfig(layer_sizes=(dataset.dim, *HIDDEN, dataset.num_classes), init_seed=init_seed)


def _inner_attack():
    return attacks.AttackConfig(epsilon=EPSILON, steps=INNER_STEPS, step_size=EPSILON / 4,
                                restarts=1, alpha=1.0, random_start=True, clip_to_domain=True)


def _train_config(method: str, size: Size, seed: int, crafting: str = "pgd"):
    gairat = method == "gairat"
    return training.TrainConfig(
        method=method, epochs=size.epochs, batch_size=BATCH_SIZE, learning_rate=LEARNING_RATE,
        seed=seed, inner_attack=None if method == "erm" else _inner_attack(),
        burn_in_epochs=size.burn_in if gairat else 0, omega_lambda=0.0 if gairat else None,
        gairat_crafting=crafting,
    )


def _params_bytes(params) -> bytes:
    return b"".join(t.data.tobytes() for t in params.leaves())


def _check_history(history, size: Size, n: int) -> None:
    _require(len(history) == size.epochs, f"history has {len(history)} epochs, expected {size.epochs}")
    for rec in history:
        _require(math.isfinite(rec.mean_loss), f"epoch {rec.epoch}: loss {rec.mean_loss}")
        _require(0.0 <= rec.natural_accuracy <= 1.0, f"epoch {rec.epoch}: accuracy {rec.natural_accuracy}")
        if rec.kappa_hist is not None:
            covered = sum(rec.kappa_hist)
            _require(covered == n, f"epoch {rec.epoch}: kappa histogram covers {covered} of {n}")


class Pipeline:
    name = "pipeline"
    period = cycle = 1

    def __init__(self, seed: int, size: Size, workdir: Path, reference=None) -> None:
        self.size, self.workdir, self.reference = size, workdir, reference
        s = size
        centers = ";".join(f"{x}:{y}" for x, y in CENTERS)
        self.commands = (
            ("gen-data", ["gen-data", "--kind", "blobs", "--n", str(s.n), "--seed", str(derive_seed(seed, "data")),
                          "--noise", str(NOISE), "--centers", centers, "--out", "blobs.csv"]),
            ("train", ["train", "--data", "blobs.csv", "--method", "gairat", "--epochs", str(s.epochs),
                       "--burn-in", str(s.burn_in), "--inner-steps", str(INNER_STEPS), "--eps", str(EPSILON),
                       "--lr", str(LEARNING_RATE), "--batch-size", str(BATCH_SIZE),
                       "--seed", str(derive_seed(seed, "train")), "--hidden", ",".join(map(str, HIDDEN)),
                       "--out", "gairat.ckpt"]),
            ("sweep-pgd20", ["sweep", "--model", "gairat.ckpt", "--data", "blobs.csv", "--attack", "pgd20",
                             "--alpha-grid", f"1e-2:1e2:{s.alphas}", "--seed", str(derive_seed(seed, "sweep")),
                             "--out", "sweep.csv"]),
            ("sweep-pgdplus", ["sweep", "--model", "gairat.ckpt", "--data", "blobs.csv", "--attack", "pgdplus",
                               "--alpha-grid", f"1e-2:1e2:{s.alphas}", "--seed", str(derive_seed(seed, "sweep")),
                               "--out", "sweep_plus.csv"]),
            ("report", ["report", "--in", "sweep.csv"]),
            ("oracle-check", ["oracle-check", "--model", "gairat.ckpt", "--data", "blobs.csv", "--eps", "0.05",
                              "--grid", str(s.oracle_grid), "--limit", str(s.oracle_points),
                              "--seed", str(derive_seed(seed, "oracle"))]),
        )
        self.examples = s.n * s.epochs + 2 * s.n * s.alphas + s.oracle_points

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)

    def run(self, i: int) -> Op:
        op_dir = Path(tempfile.mkdtemp(prefix="pipeline-", dir=self.workdir))
        cwd = os.getcwd()
        log = io.StringIO()
        timed = Timer(self.reference)
        try:
            os.chdir(op_dir)  # relative paths keep the written files free of the directory name
            for name, argv in self.commands:
                with redirect_stdout(log), redirect_stderr(log):
                    rc = timed(name, cli.main, argv)
                if rc != 0:
                    raise OpCheckError(f"{name} exited {rc}: {log.getvalue()[-300:]!r}")
            outputs = {p.name: p.read_bytes() for p in sorted(op_dir.iterdir())}
        finally:
            os.chdir(cwd)
            shutil.rmtree(op_dir, ignore_errors=True)
        outputs["stdout"] = log.getvalue().encode()
        return timed.op(self.examples, outputs)

    def check(self, i: int, op: Op) -> str:
        out, s = op.outputs, self.size
        _require(f"violations = 0 / {s.oracle_points}".encode() in out["stdout"], "oracle-check found violations")
        history = [line.split(",") for line in out["gairat.history.csv"].decode().splitlines()
                   if line and not line.startswith("#")]
        _require(len(history) == s.epochs + 1, f"history has {len(history) - 1} rows, expected {s.epochs}")
        _require(all(math.isfinite(float(row[1])) for row in history[1:]), "history has a non-finite loss")
        for name in ("sweep.csv", "sweep_plus.csv"):
            natural, rows = _read_report(out[name])
            _require(len(rows) == s.alphas, f"{name}: {len(rows)} rows, expected {s.alphas}")
            for alpha, acc in rows:
                _require(0.0 <= acc <= natural, f"{name}: robust accuracy {acc} at alpha {alpha} "
                                                 f"vs natural {natural}")
        return _digest((name, _drop_timestamp(body)) for name, body in sorted(out.items()))


def _drop_timestamp(body: bytes) -> bytes:
    return b"\n".join(line for line in body.split(b"\n") if not line.startswith(b"# generated_at"))


def _read_report(body: bytes) -> tuple[float, list[tuple[float, float]]]:
    natural, rows = None, []
    for line in body.decode().splitlines():
        if line.startswith("# natural_accuracy ="):
            natural = float(line.split("=", 1)[1])
        elif line and not line.startswith("#") and not line.startswith("attack,"):
            _, alpha, acc, _ = line.split(",")
            rows.append((float(alpha), float(acc)))
    _require(natural is not None, "report has no natural_accuracy line")
    return natural, rows


class Train:
    name = "train"
    methods = (("erm", "pgd"), ("at", "pgd"), ("fat", "pgd"), ("gairat", "pgd"), ("gairat", "fat"))
    period = cycle = len(methods)

    def __init__(self, seed: int, size: Size, workdir: Path, reference=None) -> None:
        self.seed, self.size, self.reference = seed, size, reference

    def setup(self) -> None:
        self.dataset = _blobs(self.size.n, derive_seed(self.seed, "data"))
        self.train_seed = derive_seed(self.seed, "train")
        self.model_config = _model_config(self.dataset, self.train_seed)

    def run(self, i: int) -> Op:
        method, crafting = self.methods[i % self.period]
        config = _train_config(method, self.size, self.train_seed, crafting)
        timed = Timer(self.reference)
        params, history = timed(f"train.{method}.{crafting}", training.train, self.model_config, self.dataset, config)
        return timed.op(self.size.n * self.size.epochs, {"params": params, "history": history})

    def check(self, i: int, op: Op) -> str:
        params, history = op.outputs["params"], op.outputs["history"]
        _require(all(np.all(np.isfinite(t.data)) for t in params.leaves()), "non-finite parameters")
        _check_history(history, self.size, self.size.n)
        return _digest([("params", _params_bytes(params)), ("history", history.records)])


class SweepLarge:
    name = "sweep-large"
    cycle = 1  # every alpha costs the same
    cells = (("pgd20", attacks.pgd20_config, "best_iterate"), ("pgdplus", attacks.pgd_plus_config, "all_iterates"))

    def __init__(self, seed: int, size: Size, workdir: Path, reference=None) -> None:
        self.seed, self.size, self.workdir, self.reference = seed, size, workdir, reference
        self.period = size.alphas
        self.alphas = tuple(float(a) for a in np.logspace(-2.0, 2.0, size.alphas))
        self._contained: set[int] = set()

    def setup(self) -> None:
        s = self.size
        train_set = _blobs(s.n, derive_seed(self.seed, "data"))
        self.heldout = _blobs(s.heldout, derive_seed(self.seed, "heldout"))
        train_seed = derive_seed(self.seed, "train")
        params, history = training.train(_model_config(train_set, train_seed), train_set,
                                         _train_config("gairat", s, train_seed))
        _check_history(history, s, s.n)
        self.workdir.mkdir(parents=True, exist_ok=True)
        path = self.workdir / "sweep-large.ckpt"
        try:
            model.save_checkpoint(params, {"method": "gairat", "seed": train_seed}, path)
            self.model = model.load_checkpoint(path).params
        finally:
            path.unlink(missing_ok=True)
        _require(_params_bytes(self.model) == _params_bytes(params), "checkpoint does not round-trip")
        self.natural = evaluate.eval_natural(self.model, self.heldout)
        self.attack_seed = derive_seed(self.seed, "attack")

    def run(self, i: int) -> Op:
        alpha = self.alphas[i % self.period]
        timed = Timer(self.reference)
        accuracy = {}
        for name, preset, verdict in self.cells:
            accuracy[name] = timed(name, evaluate.eval_robust, self.model, self.heldout,
                                   replace(preset(), alpha=alpha), verdict, seed=self.attack_seed)
        return timed.op(len(self.heldout) * len(self.cells), {"alpha": alpha, "accuracy": accuracy})

    def check(self, i: int, op: Op) -> str:
        alpha, accuracy = op.outputs["alpha"], op.outputs["accuracy"]
        for name, acc in accuracy.items():
            _require(0.0 <= acc <= self.natural, f"{name} at alpha {alpha}: robust {acc} vs natural {self.natural}")
        if i % self.period not in self._contained:
            self._check_containment(alpha, accuracy["pgd20"])
            self._contained.add(i % self.period)
        return _digest(sorted(accuracy.items()))

    def _check_containment(self, alpha: float, accuracy: float) -> None:
        """Re-run the pgd20 cell directly: same accuracy, points in the ball and the domain."""
        ds = self.heldout
        config = replace(attacks.pgd20_config(), alpha=alpha)
        res = attacks.pgd_attack(self.model, ds.points, ds.labels, config, domain=ds.domain, seed=self.attack_seed)
        _require(float(np.mean(res.final_correct)) == accuracy,
                 f"eval_robust disagrees with pgd_attack at alpha {alpha}")
        adv, x0 = res.adversarial.data, ds.points.data
        eps = config.epsilon
        _require(bool(np.all(adv >= x0 - eps) and np.all(adv <= x0 + eps)),
                 f"alpha {alpha}: point outside the eps-ball")
        _require(ds.domain.contains(adv), f"alpha {alpha}: point outside the domain")


WORKLOADS = {w.name: w for w in (Pipeline, Train, SweepLarge)}
