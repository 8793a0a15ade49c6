"""Outer-minimization loops: ERM, adversarial training, its early-stopped
variant, and geometry-aware instance reweighting.

Every method shares one batch pipeline (craft -> weight -> weighted mean
cross-entropy -> SGD); they differ only in how the training points are
crafted and how the per-example weights are assigned. That shared pipeline
is what makes the reweighted method with a full-length bootstrap period
bit-identical to plain adversarial training.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Iterable, Sequence

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .datasets import Dataset
from .errors import ConfigError, ContractError, ParameterError, ShapeError, check_seed, check_size
from .model import MlpConfig, MlpParams, init_params, predict
from .tensor import Tensor, mlp_loss_and_grad
from .textfile import fmt, write_table

TRAIN_METHODS = ("erm", "at", "fat", "gairat")


@dataclass(frozen=True)
class TrainConfig:
    """Training regime selector plus hyperparameters.

    burn_in_epochs and omega_lambda only matter for the reweighted method;
    fat_slack only for the early-stopped one. omega_lambda must be given
    explicitly when method="gairat".
    """

    method: str
    epochs: int
    batch_size: int
    learning_rate: float
    seed: int = 0
    inner_attack: AttackConfig | None = None
    burn_in_epochs: int = 0
    omega_lambda: float | None = None
    fat_slack: int = 0
    gairat_crafting: str = "pgd"  # "pgd" | "fat"

    def __post_init__(self):
        if self.method not in TRAIN_METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {TRAIN_METHODS}")
        if self.epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.epochs}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not (np.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError(f"learning_rate must be > 0, got {self.learning_rate}")
        if not 0 <= self.burn_in_epochs <= self.epochs:
            raise ConfigError(
                f"burn_in_epochs must lie in [0, epochs], got {self.burn_in_epochs} with epochs={self.epochs}"
            )
        if self.method != "erm" and self.inner_attack is None:
            raise ConfigError(f"method {self.method!r} needs an inner_attack config")
        if self.method == "gairat" and self.omega_lambda is None:
            raise ConfigError("gairat needs omega_lambda (the weight-shape parameter)")
        if self.omega_lambda is not None and not np.isfinite(self.omega_lambda):
            raise ConfigError(f"omega_lambda must be finite, got {self.omega_lambda}")
        if self.method == "gairat":
            check_size(self.inner_attack.steps + 1, f"{self.inner_attack.steps} inner steps give a kappa histogram")
        if self.fat_slack < 0:
            raise ConfigError(f"fat_slack must be >= 0, got {self.fat_slack}")
        check_seed(self.seed, ConfigError)
        if self.gairat_crafting not in ("pgd", "fat"):
            raise ConfigError(f"gairat_crafting must be 'pgd' or 'fat', got {self.gairat_crafting!r}")


@dataclass(frozen=True)
class WeightAssignment:
    """Per-example loss weights: non-negative, batch mean exactly 1."""

    omega: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.omega, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ShapeError(f"weights must be a non-empty vector, got shape {w.shape}")
        if not (np.all(np.isfinite(w)) and w.min() >= 0):
            raise ContractError("weights must be finite and non-negative")
        if abs(w.mean() - 1.0) > 1e-10:
            raise ContractError(f"weight mean must be 1 within 1e-10, got {w.mean()!r}")
        w.setflags(write=False)
        object.__setattr__(self, "omega", w)


def compute_weights(kappa, steps: int, omega_lambda: float) -> WeightAssignment:
    """Map survived-iteration counts to normalized loss weights.

    raw_i = (1 + tanh(omega_lambda + 5 * (1 - 2 * kappa_i / steps))) / 2,
    then rescaled so the batch mean is exactly 1. Non-increasing in kappa:
    examples that flip early (near the boundary) get the large weights. If
    every raw weight underflows to zero the assignment falls back to
    uniform.
    """
    k = np.asarray(kappa)
    if k.ndim != 1 or k.size == 0:
        raise ContractError(f"kappa must be a non-empty vector, got shape {k.shape}")
    if steps < 1:
        raise ParameterError(f"steps must be >= 1, got {steps}")
    if k.min() < 0 or k.max() > steps:
        raise ContractError(f"kappa values must lie in [0, {steps}], got range [{k.min()}, {k.max()}]")
    lam = float(omega_lambda)
    raw = (1.0 + np.tanh(lam + 5.0 * (1.0 - 2.0 * k.astype(np.float64) / steps))) / 2.0
    total = raw.sum()
    if total == 0.0:
        return WeightAssignment(np.ones(k.size))
    return WeightAssignment(raw * (k.size / total))


def sgd_step(params: MlpParams, grads: Sequence[np.ndarray], learning_rate: float) -> MlpParams:
    """theta <- theta - lr * g, elementwise; returns fresh params.

    `grads` holds one array per parameter, in `params.leaves()` order
    (w0, b0, w1, b1, ...), as `mlp_loss_and_grad` returns them.
    """
    lr = float(learning_rate)
    if not (np.isfinite(lr) and lr > 0):
        raise ParameterError(f"learning_rate must be > 0, got {learning_rate}")
    n_leaves = 2 * params.config.num_layers
    if len(grads) != n_leaves:
        raise ContractError(f"expected {n_leaves} gradient arrays (w0, b0, ...), got {len(grads)}")
    new_w, new_b = [], []
    for w, b, gw, gb in zip(params.weights, params.biases, grads[0::2], grads[1::2]):
        gw, gb = np.asarray(gw, dtype=np.float64), np.asarray(gb, dtype=np.float64)
        if gw.shape != w.shape or gb.shape != b.shape:
            raise ShapeError(
                f"gradient shapes {gw.shape}/{gb.shape} do not match parameter shapes {w.shape}/{b.shape}"
            )
        new_w.append(Tensor._wrap(w.data - lr * gw))
        new_b.append(Tensor._wrap(b.data - lr * gb))
    return MlpParams(config=params.config, weights=tuple(new_w), biases=tuple(new_b))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    mean_loss: float
    natural_accuracy: float
    kappa_hist: tuple[int, ...] | None = None


@dataclass(frozen=True)
class TrainHistory:
    records: tuple[EpochRecord, ...] = ()

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)


def write_history(history: TrainHistory, path, comments: dict[str, str] | None = None) -> None:
    """History CSV: epoch, loss, nat_acc, plus kappa_0..kappa_K when present."""
    hist_width = max((len(rec.kappa_hist) for rec in history if rec.kappa_hist is not None), default=0)
    header = ["epoch", "loss", "nat_acc"] + [f"kappa_{i}" for i in range(hist_width)]
    rows = []
    for rec in history:
        hist = [str(k) for k in rec.kappa_hist or ()]
        rows.append([str(rec.epoch), fmt(rec.mean_loss), fmt(rec.natural_accuracy), *hist]
                    + ["0"] * (hist_width - len(hist)))
    write_table(path, (comments or {}).items(), header, rows)


def _batches(n: int, batch_size: int, perm: np.ndarray) -> Iterable[np.ndarray]:
    for start in range(0, n, batch_size):
        yield perm[start:start + batch_size]


# A diverging run is reported by the non-finite loss's ConfigError, not by numpy warnings first.
@np.errstate(over="ignore", invalid="ignore")
def train(model_config: MlpConfig, dataset: Dataset, config: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Run the configured outer-minimization loop.

    Per batch: craft training points (natural for ERM, max-loss PGD points
    for AT and the reweighted method, early-stopped points for FAT), assign
    weights (uniform except after the reweighted method's bootstrap
    period), then descend the weighted mean cross-entropy. Deterministic
    per seed: batch order and attack seeds all derive from one generator.
    A non-finite batch loss raises ConfigError naming epoch and batch.
    """
    if dataset.dim != model_config.input_dim:
        raise ConfigError(
            f"dataset dim {dataset.dim} does not match model input dim {model_config.input_dim}"
        )
    if dataset.num_classes > model_config.num_classes:
        raise ConfigError(
            f"dataset has {dataset.num_classes} classes but model emits {model_config.num_classes} logits"
        )
    params = init_params(model_config)
    history: list[EpochRecord] = []
    if config.epochs == 0:
        return params, TrainHistory(())

    rng = np.random.default_rng(config.seed)
    points, labels = dataset.points.data, dataset.labels
    n = points.shape[0]
    inner = None
    if config.inner_attack is not None:
        # kappa and crafting both run at scale 1: the logit scale belongs
        # to the attacker, not to training.
        inner = replace(config.inner_attack, alpha=1.0)

    for epoch in range(config.epochs):
        perm = rng.permutation(n)
        losses = []
        kappa_counts = np.zeros(inner.steps + 1, dtype=np.int64) if config.method == "gairat" else None
        for batch, idx in enumerate(_batches(n, config.batch_size, perm)):
            yb = labels[idx]
            kappa = None
            if config.method == "erm":
                x_train = points[idx]
            else:
                # One PGD run per batch: kappa, the max-loss points and the
                # early-stopped points all come from the same trajectory.
                early_stop = config.method == "fat" or (
                    config.method == "gairat" and config.gairat_crafting == "fat"
                )
                res = pgd_attack(
                    params, Tensor._wrap(points[idx]), yb, inner, domain=dataset.domain,
                    seed=int(rng.integers(0, 2**63)),
                    friendly_slack=config.fat_slack if early_stop else None,
                )
                x_train = (res.friendly if early_stop else res.adversarial).data
                kappa = res.kappa
            if config.method == "gairat" and epoch >= config.burn_in_epochs:
                omega = compute_weights(kappa, inner.steps, config.omega_lambda).omega
            else:
                omega = np.ones(len(yb))
            if kappa_counts is not None:
                kappa_counts += np.bincount(kappa, minlength=inner.steps + 1)

            step = mlp_loss_and_grad(params, x_train, yb, 1.0, omega, False, True)
            if not np.isfinite(step.loss):
                raise ConfigError(
                    f"training diverged: non-finite loss {step.loss} at epoch {epoch}, batch {batch} "
                    f"(learning_rate {config.learning_rate})"
                )
            params = sgd_step(params, step.param_grads, config.learning_rate)
            losses.append(step.loss)

        nat_acc = float(np.mean(predict(params, dataset.points) == labels))
        history.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                natural_accuracy=nat_acc,
                kappa_hist=tuple(int(c) for c in kappa_counts) if kappa_counts is not None else None,
            )
        )
    return params, TrainHistory(tuple(history))
