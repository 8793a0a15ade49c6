"""Evaluation protocols and the CSV report format.

Natural accuracy, robust accuracy under either verdict (best-iterate or
all-iterates), and the logit-scale sweep that compares a fixed attack
across a grid of scales on identical seeds.
"""
from __future__ import annotations

import datetime
import hashlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .attacks import AttackConfig, pgd_attack, pgd_plus_verdict
from .datasets import Dataset
from .errors import ParameterError, ParseError, SchemaError
from .model import MlpParams, predict
from .textfile import fmt, read_table, write_table

VERDICTS = ("best_iterate", "all_iterates")
DEFAULT_ALPHA_GRID = tuple(float(a) for a in np.logspace(-2.0, 2.0, 9))
REPORT_HEADER = "attack,alpha,robust_accuracy,n"
_TIMESTAMP_KEY = "generated_at"


def file_sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def dataset_sha256(dataset: Dataset) -> str:
    h = hashlib.sha256()
    h.update(dataset.points.data.tobytes())
    h.update(np.ascontiguousarray(dataset.labels).tobytes())
    return h.hexdigest()


@dataclass(frozen=True)
class SweepConfig:
    """A base attack evaluated at every scale in a strictly increasing grid."""

    base_attack: AttackConfig
    alpha_grid: tuple[float, ...] = DEFAULT_ALPHA_GRID

    def __post_init__(self):
        grid = tuple(float(a) for a in self.alpha_grid)
        object.__setattr__(self, "alpha_grid", grid)
        if not grid:
            raise ParameterError("alpha_grid must be non-empty")
        if any(not (np.isfinite(a) and a > 0) for a in grid):
            raise ParameterError(f"alpha_grid values must be positive, got {grid}")
        if any(b <= a for a, b in zip(grid, grid[1:])):
            raise ParameterError(f"alpha_grid must be strictly increasing, got {grid}")


@dataclass(frozen=True)
class ReportRow:
    attack: str
    alpha: float
    robust_accuracy: float
    n: int


@dataclass(frozen=True)
class EvalReport:
    """Accuracy table for one (model, dataset) pair.

    worst_alpha holds one (attack, alpha) pair per swept attack: the grid
    scale with the lowest robust accuracy, smallest alpha on ties. Empty
    when no sweep ran. extra carries free-form metadata comments.
    """

    model_id: str
    checkpoint_hash: str
    dataset_id: str
    dataset_seed: str
    natural_accuracy: float
    rows: tuple[ReportRow, ...] = ()
    worst_alpha: tuple[tuple[str, float], ...] = ()
    extra: tuple[tuple[str, str], ...] = ()

    def __post_init__(self):
        if not 0.0 <= self.natural_accuracy <= 1.0:
            raise SchemaError(f"natural accuracy {self.natural_accuracy} outside [0, 1]")
        for row in self.rows:
            if not 0.0 <= row.robust_accuracy <= 1.0:
                raise SchemaError(f"robust accuracy {row.robust_accuracy} outside [0, 1]")
            if not 0 < row.alpha < np.inf:
                raise SchemaError(f"alpha {row.alpha} must be positive and finite")
            if row.n < 0:
                raise SchemaError(f"row count {row.n} must be non-negative")

    def worst_alpha_for(self, attack: str) -> float | None:
        return next((alpha for name, alpha in self.worst_alpha if name == attack), None)

    def accuracy_at(self, attack: str, alpha: float) -> float | None:
        return next((r.robust_accuracy for r in self.rows if r.attack == attack and r.alpha == alpha), None)


def eval_natural(model: MlpParams, dataset: Dataset) -> float:
    """Fraction of examples whose prediction matches the label."""
    return float(np.mean(predict(model, dataset.points) == dataset.labels))


def eval_robust(
    model: MlpParams,
    dataset: Dataset,
    attack: AttackConfig,
    verdict: str = "best_iterate",
    *,
    seed: int = 0,
) -> float:
    """Robust accuracy under one attack.

    best_iterate scores predictions at the returned max-loss points;
    all_iterates requires correctness at the natural point and every
    iterate of every restart.
    """
    if verdict not in VERDICTS:
        raise ParameterError(f"verdict must be one of {VERDICTS}, got {verdict!r}")
    if verdict == "all_iterates":
        ok = pgd_plus_verdict(model, dataset.points, dataset.labels, attack,
                              domain=dataset.domain, seed=seed)
        return float(np.mean(ok))
    res = pgd_attack(model, dataset.points, dataset.labels, attack,
                     domain=dataset.domain, seed=seed)
    return float(np.mean(res.final_correct))


def alpha_sweep(
    model: MlpParams,
    dataset: Dataset,
    sweep: SweepConfig,
    verdict: str = "best_iterate",
    *,
    attack_name: str = "pgd",
    seed: int = 0,
    model_id: str = "",
    checkpoint_hash: str = "",
    dataset_id: str = "",
) -> EvalReport:
    """One robust-accuracy cell per grid scale, all on the same seed.

    Sharing the seed across cells makes the cells comparable: only the
    crafting-loss scale differs between them.
    """
    rows = []
    for alpha in sweep.alpha_grid:
        acc = eval_robust(model, dataset, replace(sweep.base_attack, alpha=alpha),
                          verdict, seed=seed)
        rows.append(ReportRow(attack=attack_name, alpha=alpha, robust_accuracy=acc, n=len(dataset)))
    worst = min(rows, key=lambda r: (r.robust_accuracy, r.alpha))
    extra = (
        ("verdict." + attack_name, verdict),
        ("seed", str(seed)),
        ("dataset_sha256", dataset_sha256(dataset)),
        ("attack." + attack_name, sweep.base_attack.to_kv(sep=" ")),
    )
    return EvalReport(
        model_id=model_id,
        checkpoint_hash=checkpoint_hash,
        dataset_id=dataset_id,
        dataset_seed=dataset.meta.get("seed", ""),
        natural_accuracy=eval_natural(model, dataset),
        rows=tuple(rows),
        worst_alpha=((attack_name, worst.alpha),),
        extra=extra,
    )


def write_report(report: EvalReport, path) -> None:
    """Report CSV with metadata in comments.

    The timestamp lives in its own comment line and is the only
    non-deterministic output; `read_report` drops it, so write -> read is
    the identity on the report itself.
    """
    comments = [
        ("format", "robustlab-report-v1"),
        (_TIMESTAMP_KEY, datetime.datetime.now(datetime.timezone.utc).isoformat()),
        ("model", report.model_id),
        ("checkpoint_sha256", report.checkpoint_hash),
        ("dataset", report.dataset_id),
        ("dataset_seed", report.dataset_seed),
        ("natural_accuracy", fmt(report.natural_accuracy)),
        *((f"worst_alpha.{name}", fmt(alpha)) for name, alpha in report.worst_alpha),
        *((key, value) for key, value in dict(report.extra).items() if key != _TIMESTAMP_KEY),
    ]
    rows = ([row.attack, fmt(row.alpha), fmt(row.robust_accuracy), str(row.n)] for row in report.rows)
    write_table(path, comments, REPORT_HEADER.split(","), rows)


_RESERVED_KEYS = (
    "format", "model", "checkpoint_sha256", "dataset", "dataset_seed",
    "natural_accuracy", _TIMESTAMP_KEY,
)


def read_report(path) -> EvalReport:
    """Parse a report CSV back; inverse of write_report."""
    meta, header, lines = read_table(path)
    if header is None:
        raise ParseError(f"missing header {REPORT_HEADER!r}")
    if header[1] != REPORT_HEADER:
        raise ParseError(f"expected header {REPORT_HEADER!r}, got {header[1]!r}", line=header[0])
    rows: list[ReportRow] = []
    for lineno, line in lines:
        cells = line.split(",")
        if len(cells) != 4:
            raise ParseError(f"expected 4 cells, got {len(cells)}", line=lineno)
        try:
            row = ReportRow(
                attack=cells[0],
                alpha=float(cells[1]),
                robust_accuracy=float(cells[2]),
                n=int(cells[3]),
            )
        except ValueError:
            raise ParseError(f"non-numeric cell in row {line!r}", line=lineno) from None
        if not 0.0 <= row.robust_accuracy <= 1.0:
            raise SchemaError(f"robust accuracy {row.robust_accuracy} outside [0, 1] (line {lineno})")
        if not 0 < row.alpha < np.inf:
            raise SchemaError(f"alpha {row.alpha} must be positive and finite (line {lineno})")
        rows.append(row)
    if "natural_accuracy" not in meta:
        raise ParseError("missing natural_accuracy comment")
    try:
        natural = float(meta["natural_accuracy"])
    except ValueError:
        raise ParseError("natural_accuracy is not numeric") from None
    worst, extra = [], []
    for key, value in meta.items():
        if key.startswith("worst_alpha."):
            try:
                alpha = float(value)
            except ValueError:
                alpha = np.nan
            if not 0 < alpha < np.inf:
                raise ParseError(f"worst_alpha value {value!r} is not a positive finite number")
            worst.append((key[len("worst_alpha."):], alpha))
        elif key not in _RESERVED_KEYS:
            extra.append((key, value))
    return EvalReport(
        model_id=meta.get("model", ""),
        checkpoint_hash=meta.get("checkpoint_sha256", ""),
        dataset_id=meta.get("dataset", ""),
        dataset_seed=meta.get("dataset_seed", ""),
        natural_accuracy=natural,
        rows=tuple(rows),
        worst_alpha=tuple(worst),
        extra=tuple(extra),
    )
