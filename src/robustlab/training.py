"""Outer-minimization loops: ERM, adversarial training, its early-stopped
variant, and geometry-aware instance reweighting.

Every method shares one batch pipeline (craft -> weight -> weighted mean
cross-entropy -> SGD); they differ only in how the training points are
crafted and how the per-example weights are assigned. That shared pipeline
is what makes the reweighted method with a full-length bootstrap period
bit-identical to plain adversarial training.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass, replace
from typing import Iterable

import numpy as np

from .attacks import AttackConfig, pgd_attack
from .datasets import Dataset
from .errors import (
    ConfigError, ContractError, NumericalError, ShapeError, check_at_least, check_positive, check_seed, check_size,
)
from .evaluate import eval_natural
from .model import MlpConfig, MlpParams, init_params
from .tensor import Tensor, _Workspace, mlp_loss_and_grad
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
        check_at_least(self.epochs, 0, "epochs", ConfigError)
        check_at_least(self.batch_size, 1, "batch_size", ConfigError)
        check_positive(self.learning_rate, "learning_rate", ConfigError)
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
        check_at_least(self.fat_slack, 0, "fat_slack", ConfigError)
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
        if not (np.logical_and.reduce(np.isfinite(w)) and np.minimum.reduce(w) >= 0):
            raise ContractError("weights must be finite and non-negative")
        if abs(np.add.reduce(w) / w.size - 1.0) > 1e-10:
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
    if k.dtype.kind not in "iu":
        raise ContractError(f"kappa must be integer counts, got dtype {k.dtype}")
    check_at_least(steps, 1, "steps")
    if np.minimum.reduce(k) < 0 or np.maximum.reduce(k) > steps:
        raise ContractError(f"kappa values must lie in [0, {steps}], got range [{k.min()}, {k.max()}]")
    raw = _raw_weights(steps, float(omega_lambda)).take(k)
    total = np.add.reduce(raw)
    if total == 0.0:
        return WeightAssignment(np.ones(k.size))
    return WeightAssignment(raw * (k.size / total))


@functools.lru_cache(maxsize=16)
def _raw_weights(steps: int, lam: float) -> np.ndarray:
    """compute_weights' raw weight of each kappa in 0..steps, read-only: the
    closed form on a float64 vector, so taking a batch's weights from it
    gives the bits of the closed form on the batch."""
    raw = (1.0 + np.tanh(lam + 5.0 * (1.0 - 2.0 * np.arange(steps + 1, dtype=np.float64) / steps))) / 2.0
    raw.setflags(write=False)
    return raw


def sgd_step(params: MlpParams, grad: np.ndarray, learning_rate: float) -> MlpParams:
    """theta <- theta - lr * g, elementwise, for `grad` a vector of `params.theta`'s shape and layout, as
    `mlp_loss_and_grad` returns it (anything else is a ShapeError); returns fresh params on the new vector."""
    lr = check_positive(learning_rate, "learning_rate")
    if not (isinstance(grad, np.ndarray) and grad.shape == params.theta.shape):
        got = grad.shape if isinstance(grad, np.ndarray) else type(grad).__name__
        raise ShapeError(f"gradient must be an array of params.theta's shape {params.theta.shape}, got {got}")
    return MlpParams._of_vector(params.config, params.theta - grad * lr)


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


def _diverged(what: object, epoch: int, batch: int, config: TrainConfig) -> ConfigError:
    return ConfigError(f"training diverged: {what} at epoch {epoch}, batch {batch} "
                       f"(learning_rate {config.learning_rate})")


def _check_fit(model: MlpConfig, dataset: Dataset) -> None:
    """Refuse a dataset whose points or labels the model cannot take (ConfigError)."""
    if dataset.dim != model.input_dim:
        raise ConfigError(f"dataset dim {dataset.dim} does not match model input dim {model.input_dim}")
    if dataset.num_classes > model.num_classes:
        raise ConfigError(f"dataset has {dataset.num_classes} classes but model emits {model.num_classes} logits")


# A diverging run is reported by its ConfigError, not by numpy warnings first.
@np.errstate(over="ignore", invalid="ignore")
def train(model_config: MlpConfig, dataset: Dataset, config: TrainConfig) -> tuple[MlpParams, TrainHistory]:
    """Run the configured outer-minimization loop.

    Per batch: craft training points (natural for ERM, max-loss PGD points
    for AT and the reweighted method, early-stopped points for FAT), assign
    weights (uniform except after the reweighted method's bootstrap
    period), then descend the weighted mean cross-entropy. Deterministic
    per seed: batch order and attack seeds all derive from one generator.
    A non-finite batch loss, or a NaN in a batch's PGD run, raises
    ConfigError naming epoch and batch.
    """
    _check_fit(model_config, dataset)
    params = init_params(model_config)
    history: list[EpochRecord] = []
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
                try:
                    res = pgd_attack(
                        params, Tensor._wrap(points[idx]), yb, inner, domain=dataset.domain,
                        seed=int(rng.integers(0, 2**63)),
                        friendly_slack=config.fat_slack if early_stop else None,
                    )
                except NumericalError as e:  # the model an earlier step blew up
                    raise _diverged(e, epoch, batch, config) from None
                x_train = (res.friendly if early_stop else res.adversarial).data
                kappa = res.kappa
            if config.method == "gairat" and epoch >= config.burn_in_epochs:
                omega = compute_weights(kappa, inner.steps, config.omega_lambda).omega
            else:
                omega = np.ones(len(yb))
            if kappa_counts is not None:
                kappa_counts += np.bincount(kappa, minlength=inner.steps + 1)

            # The batch's PGD workspace, if it ran one, its bias tiles already filled for these params.
            ws = _Workspace.for_batch(model_config.layer_sizes, yb)
            step = mlp_loss_and_grad(params, x_train, yb, 1.0, omega, False, True, ws)
            if not np.isfinite(step.loss):
                raise _diverged(f"non-finite loss {step.loss}", epoch, batch, config)
            ws.give_back()  # the parameter gradient is a new vector
            params = sgd_step(params, step.param_grad, config.learning_rate)
            losses.append(step.loss)

        history.append(
            EpochRecord(
                epoch=epoch,
                mean_loss=float(np.mean(losses)),
                natural_accuracy=eval_natural(params, dataset),
                kappa_hist=tuple(int(c) for c in kappa_counts) if kappa_counts is not None else None,
            )
        )
    return params, TrainHistory(tuple(history))
