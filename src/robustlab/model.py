"""Small MLP classifiers with seeded init and a bit-faithful text checkpoint."""
from __future__ import annotations

import math
import os
import stat
import uuid
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Mapping

import numpy as np

from .errors import ParameterError, ParseError, SchemaError, ShapeError
from .tensor import ACTIVATION_KINDS, Tensor, mlp_forward

CHECKPOINT_HEADER = "MLPCKPT v1"
FLOAT_FMT = ".17g"  # 17 significant digits round-trip float64 exactly
# The most entries one layer's weight matrix may have: a wider layer (say one
# sized by a corrupt class count) is refused before anything is allocated.
MAX_LAYER_ENTRIES = 2**24


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
        if any(a * b > MAX_LAYER_ENTRIES for a, b in zip(sizes, sizes[1:])):
            raise ParameterError(f"layer sizes {sizes} give a weight matrix of more than {MAX_LAYER_ENTRIES} entries")
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
    """Per-layer weights and biases; immutable once built."""

    config: MlpConfig
    weights: tuple[Tensor, ...]
    biases: tuple[Tensor, ...]

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
            if not (np.all(np.isfinite(w.data)) and np.all(np.isfinite(b.data))):
                raise ParameterError(f"layer {i} contains non-finite parameters")

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
    return Tensor._wrap(mlp_forward(params, x.data)[-1])


def predict(params: MlpParams, x: Tensor) -> np.ndarray:
    """Argmax class per row, lowest index on ties.

    Computed on raw logits, so it is exactly invariant to any positive
    rescaling of the logits.
    """
    return np.argmax(forward_logits(params, x).data, axis=1)


@dataclass(frozen=True)
class Checkpoint:
    """A model plus the metadata it was saved with."""

    config: MlpConfig
    params: MlpParams
    metadata: dict[str, str] = field(default_factory=dict)


def _tensor_names(config: MlpConfig) -> list[str]:
    names = []
    for i in range(config.num_layers):
        names.extend((f"w{i}", f"b{i}"))
    return names


def _format_values(arr: np.ndarray) -> str:
    return " ".join(format(v, FLOAT_FMT) for v in arr.reshape(-1))


def write_text_atomic(path, text: str) -> None:
    """Write UTF-8 `text` to `path` so that `path` never holds a partial file.

    The text goes to a fresh file in the same directory and is flushed to
    disk (fsync), and that file then replaces `path` in one `os.replace`.
    After a crash, even of the operating system, `path` holds either the old
    or the new content in full. If anything fails first, `path` keeps its
    previous content (or stays absent) and the temporary file is removed.
    As with a plain write, a symlink at `path` is written through (its
    target is replaced) and an existing file keeps its permission bits; a
    new file gets mode 0o666 less the umask. Every file writer of the
    package goes through here.
    """
    path = Path(os.path.realpath(path))
    tmp = path.with_name(f".{path.name}.{uuid.uuid4().hex}.tmp")
    try:
        with open(tmp, "x", encoding="utf-8") as f:
            f.write(text)
            f.flush()
            os.fsync(f.fileno())
        if path.exists():
            os.chmod(tmp, stat.S_IMODE(path.stat().st_mode))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def save_checkpoint(params: MlpParams, metadata: Mapping[str, object], path) -> None:
    """Write the text checkpoint format; round-trips float64 bit-exactly."""
    cfg = params.config
    lines = [CHECKPOINT_HEADER]
    lines.append(
        "config layer_sizes={} activation={} init_seed={}".format(
            ",".join(str(s) for s in cfg.layer_sizes), cfg.activation, cfg.init_seed
        )
    )
    for key, value in metadata.items():
        key = str(key)
        if not key or "=" in key or any(c.isspace() for c in key):
            raise ParameterError(f"metadata key {key!r} must be a single token without '='")
        text = str(value)
        if "\n" in text:
            raise ParameterError(f"metadata value for {key!r} must not contain newlines")
        lines.append(f"meta {key}={text}")
    tensors = dict(zip(_tensor_names(cfg), params.leaves()))
    for name, tensor in tensors.items():
        shape = "x".join(str(s) for s in tensor.shape)
        lines.append(f"{name} {shape} {_format_values(tensor.data)}")
    write_text_atomic(path, "\n".join(lines) + "\n")


def _parse_config_line(text: str, lineno: int, offset: int) -> MlpConfig:
    fields = {}
    for token in text.split()[1:]:
        if "=" not in token:
            raise ParseError(f"bad config token {token!r}", line=lineno, offset=offset)
        key, value = token.split("=", 1)
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


def load_checkpoint(path, expected_config: MlpConfig | None = None) -> Checkpoint:
    """Parse a checkpoint file; never returns a partially read model.

    Raises ParseError (with line and byte offset) on malformed content and
    SchemaError when shapes or configs conflict.
    """
    raw = Path(path).read_bytes()
    entries: list[tuple[int, int, str]] = []  # (lineno, byte offset, text)
    pos = 0
    for i, bline in enumerate(raw.split(b"\n"), start=1):
        try:
            text = bline.decode("utf-8").rstrip("\r")
        except UnicodeDecodeError as e:
            raise ParseError("checkpoint is not valid UTF-8", line=i, offset=pos + e.start) from None
        entries.append((i, pos, text))
        pos += len(bline) + 1
    entries = [e for e in entries if e[2].strip()]
    if not entries or entries[0][2] != CHECKPOINT_HEADER:
        raise ParseError(f"expected header {CHECKPOINT_HEADER!r}", line=1, offset=0)
    if len(entries) < 2 or not entries[1][2].startswith("config "):
        lineno, offset, _ = entries[1] if len(entries) > 1 else (1, 0, "")
        raise ParseError("expected a config line after the header", line=lineno, offset=offset)
    config = _parse_config_line(entries[1][2], entries[1][0], entries[1][1])

    metadata: dict[str, str] = {}
    tensors: dict[str, Tensor] = {}
    for lineno, offset, text in entries[2:]:
        if text.startswith("meta "):
            body = text[len("meta "):]
            if "=" not in body:
                raise ParseError("meta line is not key=value", line=lineno, offset=offset)
            key, value = body.split("=", 1)
            metadata[key] = value
            continue
        tokens = text.split()
        if len(tokens) < 2:
            raise ParseError(f"unrecognized line {text[:40]!r}", line=lineno, offset=offset)
        name, shape_token = tokens[0], tokens[1]
        try:
            shape = tuple(int(s) for s in shape_token.split("x"))
        except ValueError:
            raise ParseError(f"bad shape token {shape_token!r}", line=lineno, offset=offset) from None
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

    sizes = config.layer_sizes
    for i in range(config.num_layers):
        want_w, want_b = (sizes[i], sizes[i + 1]), (sizes[i + 1],)
        got_w, got_b = tensors[f"w{i}"].shape, tensors[f"b{i}"].shape
        if got_w != want_w or got_b != want_b:
            raise SchemaError(
                f"layer {i} shapes {got_w}/{got_b} in file conflict with "
                f"config layer_sizes {sizes} (expected {want_w}/{want_b})"
            )
    if expected_config is not None and expected_config != config:
        raise SchemaError(
            f"checkpoint config {config} does not match expected config {expected_config}"
        )
    params = MlpParams(
        config=config,
        weights=tuple(tensors[f"w{i}"] for i in range(config.num_layers)),
        biases=tuple(tensors[f"b{i}"] for i in range(config.num_layers)),
    )
    return Checkpoint(config=config, params=params, metadata=metadata)
