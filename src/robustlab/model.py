"""Small MLP classifiers with seeded init and a bit-faithful text checkpoint. `MlpConfig`
and `MlpParams` are the one home of the architecture and parameter-shape rules."""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import ParameterError, ParseError, SchemaError, ShapeError, check_size
from .tensor import ACTIVATION_KINDS, Tensor, _leaf_views, mlp_forward
from .textfile import fmt_vec, write_text_atomic

CHECKPOINT_HEADER = "MLPCKPT v1"


@dataclass(frozen=True)
class MlpConfig:
    """Architecture: layer_sizes = (input dim, hidden widths..., classes)."""

    layer_sizes: tuple[int, ...]
    activation: str = "relu"
    init_seed: int = 0

    def __post_init__(self):
        sizes = tuple(int(s) for s in self.layer_sizes)
        object.__setattr__(self, "layer_sizes", sizes)
        object.__setattr__(self, "init_seed", int(self.init_seed))
        if len(sizes) < 2:
            raise ParameterError("layer_sizes needs at least an input and an output entry")
        if any(s <= 0 for s in sizes):
            raise ParameterError(f"layer sizes must be positive, got {sizes}")
        if sizes[-1] < 2:
            raise ParameterError(f"output layer needs at least 2 classes, got {sizes[-1]}")
        check_size(max(a * b for a, b in zip(sizes, sizes[1:])), f"layer sizes {sizes} give a weight matrix")
        if self.activation not in ACTIVATION_KINDS:
            raise ParameterError(f"unsupported activation {self.activation!r}")
        if not (0 <= self.init_seed < 2**64):
            raise ParameterError("init_seed must fit in an unsigned 64-bit integer")

    @property
    def input_dim(self) -> int:
        return self.layer_sizes[0]

    @property
    def num_classes(self) -> int:
        return self.layer_sizes[-1]

    @property
    def num_layers(self) -> int:
        return len(self.layer_sizes) - 1


@dataclass(frozen=True)
class MlpParams:
    """Per-layer weights and biases; immutable once built. `theta` holds every
    parameter in one read-only float64 vector, in `leaves()` order; the leaves,
    and `_weight_arrays`, the raw weights the passes read, are views of it."""

    config: MlpConfig
    weights: tuple[Tensor, ...]
    biases: tuple[Tensor, ...]
    theta: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sizes = self.config.layer_sizes
        n_layers = len(sizes) - 1
        if len(self.weights) != n_layers or len(self.biases) != n_layers:
            raise ShapeError(
                f"expected {n_layers} weight/bias pairs for layer sizes {sizes}, "
                f"got {len(self.weights)}/{len(self.biases)}"
            )
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            want_w, want_b = (sizes[i], sizes[i + 1]), (sizes[i + 1],)
            if w.shape != want_w or b.shape != want_b:
                raise ShapeError(
                    f"layer {i}: weight {w.shape} / bias {b.shape} conflict with "
                    f"config shapes {want_w} / {want_b}"
                )
        self._hold(np.concatenate([t.data for t in self.leaves()], axis=None))

    @classmethod
    def _of_vector(cls, config: MlpConfig, theta: np.ndarray) -> "MlpParams":
        """Params that take over `theta`, a float64 vector of the config's parameter count."""
        params = cls.__new__(cls)
        object.__setattr__(params, "config", config)
        params._hold(theta)
        return params

    def _hold(self, theta: np.ndarray) -> None:
        """Take `theta`, made read-only, as these params' vector, with the leaves as views of it. Both
        builders' finiteness rule: one check of the whole vector, then, only if it fails, a search for
        the first non-finite layer, which the ParameterError names."""
        theta.setflags(write=False)
        views = _leaf_views(self.config.layer_sizes, theta)
        if not np.logical_and.reduce(np.isfinite(theta)):
            bad = next(i for i, v in enumerate(views) if not np.isfinite(v).all())
            raise ParameterError(f"layer {bad // 2} contains non-finite parameters")
        leaves = [Tensor.__new__(Tensor) for _ in views]
        for t, v in zip(leaves, views):  # views of a read-only contiguous vector: `Tensor._wrap` has nothing to do
            t._data = v
        for name, value in (("theta", theta), ("weights", tuple(leaves[0::2])), ("biases", tuple(leaves[1::2])),
                            ("_weight_arrays", tuple(views[0::2]))):
            object.__setattr__(self, name, value)

    @cached_property
    def transposed_weights(self) -> tuple[np.ndarray, ...]:
        """Each layer's w.T, C-ordered: the operand of the reverse pass's
        products, which BLAS runs several times faster than on the view."""
        return tuple(np.ascontiguousarray(w.T) for w in self._weight_arrays)

    def leaves(self) -> Iterator[Tensor]:
        """Parameter tensors in the fixed order w0, b0, w1, b1, ..."""
        for w, b in zip(self.weights, self.biases):
            yield w
            yield b


def init_params(config: MlpConfig) -> MlpParams:
    """Glorot-uniform weights, zero biases, deterministic per init_seed."""
    rng = np.random.default_rng(config.init_seed)
    weights, biases = [], []
    sizes = config.layer_sizes
    for fan_in, fan_out in zip(sizes[:-1], sizes[1:]):
        bound = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(Tensor(rng.uniform(-bound, bound, size=(fan_in, fan_out))))
        biases.append(Tensor(np.zeros(fan_out)))
    return MlpParams(config=config, weights=tuple(weights), biases=tuple(biases))


def forward_logits(params: MlpParams, x: Tensor) -> Tensor:
    """Logits before any softmax."""
    return Tensor._wrap(mlp_forward(params, x.data))


def predict(params: MlpParams, x: Tensor) -> np.ndarray:
    """Argmax class per row, lowest index on ties.

    Computed on raw logits, so it is exactly invariant to any positive
    rescaling of the logits.
    """
    return np.argmax(forward_logits(params, x).data, axis=1)


@dataclass(frozen=True)
class Checkpoint:
    """A model plus the metadata it was saved with."""

    params: MlpParams
    metadata: dict[str, str] = field(default_factory=dict)


def _tensor_names(config: MlpConfig) -> list[str]:
    return [f"{kind}{i}" for i in range(config.num_layers) for kind in "wb"]


def save_checkpoint(params: MlpParams, metadata: Mapping[str, object], path) -> None:
    """Write the text checkpoint format; round-trips float64 bit-exactly."""
    cfg = params.config
    sizes = ",".join(str(s) for s in cfg.layer_sizes)
    lines = [CHECKPOINT_HEADER, f"config layer_sizes={sizes} activation={cfg.activation} init_seed={cfg.init_seed}"]
    seen: set[str] = set()
    for key, value in metadata.items():
        key = str(key)
        if fault := _meta_key_fault(key, seen):
            raise ParameterError(fault)
        seen.add(key)
        text = str(value)
        if "".join(text.splitlines()) != text:  # any line break, as in textfile.write_table
            raise ParameterError(f"metadata value for {key!r} must not hold a line break")
        lines.append(f"meta {key}={text}")
    tensors = dict(zip(_tensor_names(cfg), params.leaves()))
    for name, tensor in tensors.items():
        shape = "x".join(str(s) for s in tensor.shape)
        lines.append(f"{name} {shape} {fmt_vec(tensor.data.reshape(-1))}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def _meta_key_fault(key: str, seen) -> str | None:
    """Why `key` cannot follow the metadata keys `seen`, or None: a key is one
    non-empty token, without whitespace or '=', written once. The rule of both
    `save_checkpoint` and `load_checkpoint`."""
    if not key or "=" in key or any(c.isspace() for c in key):
        return f"metadata key {key!r} must be a single token without '='"
    return f"repeated metadata key {key!r}" if key in seen else None


def _parse_config_line(text: str, lineno: int, offset: int) -> MlpConfig:
    fields = {}
    for token in text.split()[1:]:
        if "=" not in token:
            raise ParseError(f"bad config token {token!r}", line=lineno, offset=offset)
        key, value = token.split("=", 1)
        if key in fields or key not in ("layer_sizes", "activation", "init_seed"):
            raise ParseError(f"unknown or repeated config field {key!r}", line=lineno, offset=offset)
        fields[key] = value
    try:
        sizes = tuple(int(s) for s in fields["layer_sizes"].split(","))
        return MlpConfig(
            layer_sizes=sizes,
            activation=fields["activation"],
            init_seed=int(fields["init_seed"]),
        )
    except KeyError as e:
        raise ParseError(f"config line missing field {e.args[0]!r}", line=lineno, offset=offset) from None
    except (ValueError, ParameterError) as e:
        raise ParseError(f"invalid config: {e}", line=lineno, offset=offset) from None


def load_checkpoint(path) -> Checkpoint:
    """Parse a checkpoint file; never returns a partially read model.

    Raises ParseError (with line and byte offset) on malformed content and
    SchemaError on content that contradicts its config line, with the shape
    rule left to `MlpParams`.
    """
    raw = Path(path).read_bytes()
    entries: list[tuple[int, int, str]] = []  # (lineno, byte offset, text)
    pos = 0
    for i, bline in enumerate(raw.split(b"\n"), start=1):
        try:
            text = bline.decode("utf-8").rstrip("\r")
        except UnicodeDecodeError as e:
            raise ParseError("checkpoint is not valid UTF-8", line=i, offset=pos + e.start) from None
        if text.strip():
            entries.append((i, pos, text))
        pos += len(bline) + 1
    if not entries or entries[0][2] != CHECKPOINT_HEADER:
        raise ParseError(f"expected header {CHECKPOINT_HEADER!r}", line=1, offset=0)
    if len(entries) < 2 or not entries[1][2].startswith("config "):
        lineno, offset, _ = entries[1] if len(entries) > 1 else (1, 0, "")
        raise ParseError("expected a config line after the header", line=lineno, offset=offset)
    config = _parse_config_line(entries[1][2], entries[1][0], entries[1][1])

    metadata: dict[str, str] = {}
    tensors: dict[str, Tensor] = {}
    for lineno, offset, text in entries[2:]:
        if text.startswith("config "):
            raise ParseError("repeated config line", line=lineno, offset=offset)
        if text.startswith("meta "):
            body = text[len("meta "):]
            if "=" not in body:
                raise ParseError("meta line is not key=value", line=lineno, offset=offset)
            key, value = body.split("=", 1)
            if fault := _meta_key_fault(key, metadata):
                raise ParseError(fault, line=lineno, offset=offset)
            metadata[key] = value
            continue
        tokens = text.split()
        if len(tokens) < 2:
            raise ParseError(f"unrecognized line {text[:40]!r}", line=lineno, offset=offset)
        name, shape_token = tokens[0], tokens[1]
        if not all(d.isdecimal() for d in shape_token.split("x")):  # non-negative integers only
            raise ParseError(f"bad shape token {shape_token!r}", line=lineno, offset=offset)
        shape = tuple(int(d) for d in shape_token.split("x"))
        expected_n = int(np.prod(shape))
        values = tokens[2:]
        if len(values) != expected_n:
            raise ParseError(
                f"tensor {name!r} declares {expected_n} values but carries {len(values)}",
                line=lineno, offset=offset,
            )
        try:
            arr = np.array([float(v) for v in values], dtype=np.float64).reshape(shape)
        except ValueError:
            raise ParseError(f"non-numeric value in tensor {name!r}", line=lineno, offset=offset) from None
        if not np.all(np.isfinite(arr)):
            raise SchemaError(f"tensor {name!r} contains non-finite values (line {lineno})")
        if name in tensors:
            raise ParseError(f"duplicate tensor {name!r}", line=lineno, offset=offset)
        tensors[name] = Tensor._wrap(arr)

    names = _tensor_names(config)
    missing = [n for n in names if n not in tensors]
    if missing:
        raise ParseError(f"checkpoint is truncated: missing tensors {missing}", line=entries[-1][0], offset=entries[-1][1])
    extra = [n for n in tensors if n not in names]
    if extra:
        raise SchemaError(f"checkpoint carries tensors {extra} not implied by config {config.layer_sizes}")

    try:
        params = MlpParams(
            config=config,
            weights=tuple(tensors[f"w{i}"] for i in range(config.num_layers)),
            biases=tuple(tensors[f"b{i}"] for i in range(config.num_layers)),
        )
    except ShapeError as e:
        raise SchemaError(f"checkpoint {path}: {e}") from None
    return Checkpoint(params=params, metadata=metadata)
