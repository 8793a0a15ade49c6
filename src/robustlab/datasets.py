"""Seeded synthetic 2-d classification sets and their CSV exchange format.

All generators emit points inside the unit box. Two-moons and rings are
min/max rescaled into [0,1]^2, and their files record the affine transform
in the dataset metadata (`rescale_offset`, `rescale_scale`): points * scale
+ offset recovers the pre-rescale geometry. Blobs are clipped instead.
"""
from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ParameterError, ParseError, SchemaError, ShapeError, check_seed, check_size
from .tensor import Tensor, _check_label_dtype, _check_label_range
from .textfile import fmt, fmt_vec, read_table, write_table


@dataclass(frozen=True)
class DomainBox:
    """Axis-aligned valid-input region with finite per-dimension bounds."""

    lower: tuple[float, ...]
    upper: tuple[float, ...]

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)
        if len(lo) != len(hi) or not lo:
            raise ParameterError("domain bounds must be non-empty and of equal length")
        if not all(math.isfinite(a) and math.isfinite(b) for a, b in zip(lo, hi)):
            raise ParameterError("domain bounds must be finite")
        if not all(a < b for a, b in zip(lo, hi)):
            raise ParameterError(f"domain needs lower < upper in every dimension, got {lo} / {hi}")

    @classmethod
    def unit(cls, dim: int) -> "DomainBox":
        return cls(lower=(0.0,) * dim, upper=(1.0,) * dim)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def lower_array(self) -> np.ndarray:
        return self._arrays[0]

    def upper_array(self) -> np.ndarray:
        return self._arrays[1]

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """`lower` and `upper` as read-only arrays, built once per box: every PGD run clips to them."""
        arrays = np.asarray(self.lower), np.asarray(self.upper)
        for a in arrays:
            a.setflags(write=False)
        return arrays

    def clip(self, points: np.ndarray) -> np.ndarray:
        return np.clip(points, self.lower_array(), self.upper_array())

    def contains(self, points: np.ndarray) -> bool:
        pts = np.asarray(points)
        return bool(np.all(pts >= self.lower_array()) and np.all(pts <= self.upper_array()))


@dataclass(frozen=True)
class Dataset:
    """Labeled points plus the domain they live in and how they were made."""

    points: Tensor
    labels: np.ndarray
    domain: DomainBox
    num_classes: int
    meta: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        pts = self.points.data
        lab = np.asarray(self.labels)
        if pts.ndim != 2 or pts.shape[1] != self.domain.dim:
            raise ShapeError(f"points shape {pts.shape} does not match domain dim {self.domain.dim}")
        if lab.ndim != 1 or lab.shape[0] != pts.shape[0]:
            raise ShapeError(f"labels shape {lab.shape} does not match {pts.shape[0]} points")
        if not lab.size:
            raise ParameterError("a dataset needs at least one point, got 0")
        _check_label_dtype(lab)
        if self.num_classes < 2:
            raise ParameterError("num_classes must be at least 2")
        _check_label_range(lab, self.num_classes)
        if not self.domain.contains(pts):
            raise ParameterError("points must lie inside the domain box")
        lab = lab.astype(np.int64)
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    def __len__(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.domain.dim

    def take(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(
            points=Tensor._wrap(self.points.data[idx].copy()),
            labels=self.labels[idx],
            domain=self.domain,
            num_classes=self.num_classes,
            meta=dict(self.meta),
        )


def split_dataset(dataset: Dataset, n_first: int, seed: int) -> tuple[Dataset, Dataset]:
    """Seeded shuffle, then split into (first n, rest)."""
    n = len(dataset)
    if not 0 < n_first < n:
        raise ParameterError(f"n_first must be in (0, {n}), got {n_first}")
    perm = np.random.default_rng(check_seed(seed)).permutation(n)
    return dataset.take(perm[:n_first]), dataset.take(perm[n_first:])


def _rescale_to_unit(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Min/max map onto [0,1] per dimension; returns (scaled, offset, scale).

    Inverse transform: original = scaled * scale + offset. Degenerate
    (constant) dimensions map to 0.5.
    """
    offset = points.min(axis=0)
    scale = points.max(axis=0) - offset
    degenerate = scale == 0.0
    scale = np.where(degenerate, 1.0, scale)
    offset = np.where(degenerate, offset - 0.5, offset)
    return (points - offset) / scale, offset, scale


def _two_class_setup(what: str, n: int, noise_sigma: float, seed: int) -> tuple[np.random.Generator, int]:
    """The checks two-moons and rings share; returns their generator and class size."""
    if n <= 0 or n % 2:
        raise ParameterError(f"{what} needs a positive even n, got {n}")
    if not 0 <= noise_sigma < math.inf:
        raise ParameterError(f"noise_sigma must be finite and >= 0, got {noise_sigma}")
    check_size(n * 2, f"{n} points in 2 dimensions give a dataset")
    return np.random.default_rng(check_seed(seed)), n // 2


def _balanced_labels(n: int, num_classes: int) -> np.ndarray:
    return np.repeat(np.arange(num_classes), n // num_classes)


@contextmanager
def _noise_overflow(sigma: float):
    """Turn a float64 overflow of the noisy points into a ParameterError that
    names the noise sigma, instead of numpy warnings and points from +-inf."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError:
            raise ParameterError(f"noise sigma {sigma!r} is too large: the noisy points overflow float64") from None


def _noisy_unit_square(clean: np.ndarray, noise_sigma: float, rng: np.random.Generator, meta: dict) -> Dataset:
    """The tail shared by two-moons and rings: add noise to `clean` (class 0's
    half, then class 1's), rescale into [0,1]^2 and record both in `meta`."""
    with _noise_overflow(noise_sigma):
        raw = clean + noise_sigma * rng.standard_normal(clean.shape)
        scaled, offset, scale = _rescale_to_unit(raw)
    meta.update(noise_sigma=fmt(noise_sigma), rescale_offset=fmt_vec(offset), rescale_scale=fmt_vec(scale))
    return Dataset(points=Tensor._wrap(scaled), labels=_balanced_labels(len(clean), 2),
                   domain=DomainBox.unit(2), num_classes=2, meta=meta)


def gen_two_moons(n: int, noise_sigma: float, seed: int) -> Dataset:
    """Two interleaved radius-1 half-circle arcs, the second flipped and
    offset by (1, -0.5), plus isotropic Gaussian noise; rescaled to [0,1]^2.
    """
    rng, half = _two_class_setup("two moons", n, noise_sigma, seed)
    t0 = rng.uniform(0.0, math.pi, half)
    t1 = rng.uniform(0.0, math.pi, half)
    arc0 = np.column_stack([np.cos(t0), np.sin(t0)])
    arc1 = np.column_stack([1.0 + np.cos(t1), 0.5 - np.sin(t1)])
    return _noisy_unit_square(np.concatenate([arc0, arc1]), noise_sigma, rng,
                              {"generator": "two_moons", "seed": str(seed)})


def gen_gaussian_blobs(n: int, centers: Sequence[Sequence[float]], sigma: float, seed: int) -> Dataset:
    """Equal-sized isotropic Gaussian classes around the given centers,
    clipped to the unit box.
    """
    try:
        ctr = np.asarray(centers, dtype=np.float64)
    except (TypeError, ValueError):
        raise ParameterError(f"centers must be a rectangular list of numbers, got {centers!r}") from None
    if ctr.ndim != 2 or ctr.shape[0] < 2:
        raise ParameterError("need at least 2 centers")
    dim = ctr.shape[1]
    box = DomainBox.unit(dim)
    if not box.contains(ctr):
        raise ParameterError(f"centers must lie inside the unit box, got {ctr.tolist()}")
    k = ctr.shape[0]
    if n <= 0 or n % k:
        raise ParameterError(f"n must be a positive multiple of the {k} centers, got {n}")
    if not 0 <= sigma < math.inf:
        raise ParameterError(f"sigma must be finite and >= 0, got {sigma}")
    check_size(n * dim, f"{n} points in {dim} dimensions give a dataset")
    rng = np.random.default_rng(check_seed(seed))
    per = n // k
    with _noise_overflow(sigma):
        pts = np.repeat(ctr, per, axis=0) + sigma * rng.standard_normal((n, dim))
    meta = {
        "generator": "gaussian_blobs",
        "seed": str(seed),
        "sigma": fmt(sigma),
        "centers": ";".join(fmt_vec(c) for c in ctr),
    }
    return Dataset(
        points=Tensor._wrap(box.clip(pts)),
        labels=_balanced_labels(n, k),
        domain=box,
        num_classes=k,
        meta=meta,
    )


def gen_rings(n: int, radii: tuple[float, float], noise_sigma: float, seed: int) -> Dataset:
    """Class 0 on an inner circle, class 1 on an outer one, noise added,
    then rescaled to [0,1]^2.
    """
    r_inner, r_outer = (float(r) for r in radii)
    if not 0 < r_inner < r_outer:
        raise ParameterError(f"radii must satisfy 0 < inner < outer, got {radii}")
    rng, half = _two_class_setup("rings", n, noise_sigma, seed)
    theta0 = rng.uniform(0.0, 2.0 * math.pi, half)
    theta1 = rng.uniform(0.0, 2.0 * math.pi, half)
    ring0 = r_inner * np.column_stack([np.cos(theta0), np.sin(theta0)])
    ring1 = r_outer * np.column_stack([np.cos(theta1), np.sin(theta1)])
    return _noisy_unit_square(np.concatenate([ring0, ring1]), noise_sigma, rng, {
        "generator": "rings", "seed": str(seed), "r_inner": fmt(r_inner), "r_outer": fmt(r_outer),
    })


def save_csv(dataset: Dataset, path) -> None:
    """CSV with `#`-comment metadata lines, a header row, then one row per point."""
    comments = [
        ("num_classes", dataset.num_classes),
        ("domain_lower", fmt_vec(dataset.domain.lower_array())),
        ("domain_upper", fmt_vec(dataset.domain.upper_array())),
        *((key, dataset.meta[key]) for key in sorted(dataset.meta)),
    ]
    header = [f"x{i}" for i in range(dataset.dim)] + ["label"]
    rows = ([fmt(v) for v in row] + [str(int(lab))] for row, lab in zip(dataset.points.data, dataset.labels))
    write_table(path, comments, header, rows)


def load_csv(path) -> Dataset:
    """Parse a dataset CSV written by `save_csv`.

    Raises ParseError with the offending line number for malformed content
    and SchemaError for declared-schema violations (e.g. a label >= C).
    """
    meta, header, rows = read_table(path)
    if header is None:
        raise ParseError("missing header row")
    header_line, header_text = header
    dim = header_text.count(",")
    if dim < 1 or header_text != ",".join([f"x{i}" for i in range(dim)] + ["label"]):
        raise ParseError(f"bad header {header_text!r}", line=header_line)

    for key in ("num_classes", "domain_lower", "domain_upper"):
        if key not in meta:
            raise ParseError(f"missing required metadata comment {key!r}")
    try:
        num_classes = int(meta.pop("num_classes"))
        lower = tuple(float(v) for v in meta.pop("domain_lower").split())
        upper = tuple(float(v) for v in meta.pop("domain_upper").split())
    except ValueError as e:
        raise ParseError(f"bad metadata value: {e}") from None
    if len(lower) != dim or len(upper) != dim:
        raise SchemaError(f"domain bounds have dim {len(lower)}, header declares {dim}")
    domain = DomainBox(lower, upper)

    points = np.empty((len(rows), dim))
    labels = np.empty(len(rows), dtype=np.int64)
    for i, (lineno, row) in enumerate(rows):
        cells = row.split(",")
        if len(cells) != dim + 1:
            raise ParseError(f"expected {dim + 1} cells, got {len(cells)}", line=lineno)
        try:
            points[i] = [float(c) for c in cells[:dim]]
            labels[i] = int(cells[dim])
        except ValueError:
            raise ParseError(f"non-numeric cell in row {row!r}", line=lineno) from None
        except OverflowError:
            raise ParseError(f"label {cells[dim]!r} does not fit in int64", line=lineno) from None
        if not (0 <= labels[i] < num_classes):
            raise SchemaError(f"label {labels[i]} outside declared [0, {num_classes}) (line {lineno})")
    if not np.all(np.isfinite(points)):
        raise SchemaError("dataset contains non-finite coordinates")
    if not domain.contains(points):
        raise SchemaError("dataset contains points outside its declared domain")
    return Dataset(
        points=Tensor._wrap(points),
        labels=labels,
        domain=domain,
        num_classes=num_classes,
        meta=meta,
    )
