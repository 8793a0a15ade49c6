"""Dense float64 tensors and one fused MLP loss-and-gradient pass.

`Tensor` is the validated boundary for user data; the scale-aware softmax
and cross-entropy take tensors of logits. `mlp_forward` is the package's one
checked MLP forward entry (affine layers, relu/tanh). `mlp_loss_and_grad`
runs the same forward pass on raw arrays its callers have already checked,
then the alpha-scaled cross-entropy with a sum or weighted-mean reduction
and one reverse pass that computes only the gradients asked for. Scope is
deliberately the minimum an MLP robustness lab needs.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError

if TYPE_CHECKING:
    from .model import MlpParams

ACTIVATION_KINDS = ("relu", "tanh")


class Tensor:
    """Immutable dense array of 64-bit floats.

    Construction from user data validates finiteness; op outputs go through
    the trusted `_wrap` path and may hold whatever finite or infinite values
    the arithmetic produced (e.g. a saturated cross-entropy).
    """

    __slots__ = ("_data",)

    def __init__(self, values) -> None:
        arr = np.array(values, dtype=np.float64, order="C")
        if arr.size and not np.all(np.isfinite(arr)):
            raise ParameterError("tensor values must be finite (no NaN/Inf)")
        arr.setflags(write=False)
        self._data = arr

    @classmethod
    def _wrap(cls, arr: np.ndarray) -> "Tensor":
        # Trusted constructor for op outputs. Takes ownership: the caller
        # must not mutate `arr` afterwards.
        out = cls.__new__(cls)
        a = np.asarray(arr, dtype=np.float64)
        if a.ndim and not a.flags["C_CONTIGUOUS"]:
            # ascontiguousarray would promote 0-d arrays to 1-d
            a = np.ascontiguousarray(a)
        a.setflags(write=False)
        out._data = a
        return out

    @property
    def data(self) -> np.ndarray:
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape})"


def _affine(xd: np.ndarray, xf: np.ndarray, wd: np.ndarray, bd: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
    """x @ w + b, with xf the same values as xd in Fortran order.

    einsum (not BLAS matmul) keeps each output row's summation order
    independent of batch size, so batch results are bit-identical to
    per-example results. On Fortran-ordered operands its inner loop runs
    down the batch rather than along a row's few outputs, several times
    faster, and each output still adds its products in ascending j: the
    bits are those of the C-ordered einsum. The result is Fortran-ordered.
    A single output column takes einsum's dot-product loop, whose order
    differs, so that case stays on the C-ordered input and ignores `out`,
    the Fortran-ordered array the result is otherwise written into.
    """
    if wd.shape[1] == 1:
        out = np.einsum("ij,jk->ik", xd, wd)
    else:
        out = np.einsum("ij,jk->ik", xf, wd, order="F", out=out)
    out += bd
    return out


def _activate(h: np.ndarray, kind: str, out: np.ndarray | None = None) -> np.ndarray:
    if kind == "relu":
        return np.maximum(h, 0.0, out=out)
    if kind == "tanh":
        return np.tanh(h, out=out)
    raise ParameterError(f"unknown activation kind {kind!r}; expected one of {ACTIVATION_KINDS}")


def _check_alpha(alpha: float) -> float:
    a = float(alpha)
    if not np.isfinite(a) or a <= 0.0:
        raise ParameterError(f"alpha must be a positive finite scalar, got {alpha!r}")
    return a


def _check_logits(logits: Tensor) -> np.ndarray:
    ld = logits.data
    if ld.ndim != 2 or ld.shape[1] < 1:
        raise ShapeError(f"logits must have shape (n, C), got {ld.shape}")
    return ld


def _log_softmax(logits: np.ndarray, alpha: float) -> np.ndarray:
    # Stabilized by max-subtraction so exp() stays in [0, 1] even when the
    # scale pushes logits far apart (the sweep goes up to alpha = 100).
    # The row max as a running maximum over the columns gives the bits of
    # logits.max(axis=1) without numpy's slow reduction along a short axis.
    top = logits[:, 0].copy()
    for column in logits.T[1:]:
        np.maximum(top, column, out=top)
    shifted = alpha * (logits - top[:, None])
    lse = np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    return shifted - lse


def scaled_softmax(logits: Tensor, alpha: float = 1.0) -> Tensor:
    """Row-wise softmax of `alpha * logits`."""
    a = _check_alpha(alpha)
    ld = _check_logits(logits)
    return Tensor._wrap(np.exp(_log_softmax(ld, a)))


def _check_labels(labels, n: int, num_classes: int) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != n:
        raise ShapeError(f"labels must be a length-{n} vector, got shape {lab.shape}")
    if not np.issubdtype(lab.dtype, np.integer):
        raise ParameterError(f"labels must be integers, got dtype {lab.dtype}")
    if lab.size and (lab.min() < 0 or lab.max() >= num_classes):
        raise IndexError(f"label out of range [0, {num_classes})")
    return lab.astype(np.int64, copy=False)


def _cross_entropy(ld: np.ndarray, lab: np.ndarray, a: float) -> tuple[np.ndarray, np.ndarray]:
    """Log-probabilities and per-example losses, for labels `_check_labels` returned."""
    logp = _log_softmax(ld, a)
    return logp, -logp[np.arange(ld.shape[0]), lab]


def scaled_softmax_cross_entropy(logits: Tensor, labels, alpha: float = 1.0) -> Tensor:
    """Per-example loss -log softmax(alpha * logits)[label], as a length-n tensor."""
    a = _check_alpha(alpha)
    ld = _check_logits(logits)
    return Tensor._wrap(_cross_entropy(ld, _check_labels(labels, *ld.shape), a)[1])


def mlp_forward(params: MlpParams, x: np.ndarray) -> list[np.ndarray]:
    """Every layer's input, then the logits: [x, h_1, ..., h_{L-1}, logits].

    The package's one checked forward entry, behind `model.forward_logits`:
    it refuses an `x` that is not (n, input_dim). `mlp_loss_and_grad` runs
    the same pass on inputs its callers have checked.
    """
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise ShapeError(
            f"input shape {x.shape} does not match model input dim {params.config.input_dim}"
        )
    return _forward(params, x)


class _Workspace(NamedTuple):
    """The arrays every pass of one PGD run writes into, per layer: its
    Fortran-ordered affine output, the C-ordered copy the reverse pass
    keeps, and the gradient with respect to its input. `pgd_attack` makes
    one for its batch and drops it when it returns.

    Layer i's affine output and input gradient are views of scratch buffer
    i % 2: each is read only by the next layer in its pass's direction, and
    the reverse pass reads only the kept copies, so no view is overwritten
    while it is still to be read.
    """

    affine: list[np.ndarray]
    kept: list[np.ndarray]
    grads: list[np.ndarray]

    @classmethod
    def for_batch(cls, sizes: tuple[int, ...], n: int) -> "_Workspace":
        scratch = np.empty(n * max(sizes)), np.empty(n * max(sizes))
        return cls([scratch[i % 2][:n * k].reshape((n, k), order="F") for i, k in enumerate(sizes[1:])],
                   [np.empty((n, k)) for k in sizes[1:]],
                   [scratch[i % 2][:n * k].reshape(n, k) for i, k in enumerate(sizes[:-1])])


def _forward(params: MlpParams, x: np.ndarray, ws: _Workspace | None = None) -> list[np.ndarray]:
    kind = params.config.activation
    last = params.config.num_layers - 1
    hs, hf = [x], np.asfortranarray(x)
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        hf = _affine(hs[-1], hf, w.data, b.data, None if ws is None else ws.affine[i])
        if i != last:
            _activate(hf, kind, out=hf)
        # The reverse pass's BLAS kernels round differently on Fortran-
        # ordered operands, so the kept layer inputs are C-ordered.
        if ws is None:
            hs.append(np.ascontiguousarray(hf))
        else:
            np.copyto(ws.kept[i], hf)
            hs.append(ws.kept[i])
    return hs


class LossAndGrad(NamedTuple):
    """One fused pass: gradients that were not asked for are None.

    param_grads follows `MlpParams.leaves()` order: w0, b0, w1, b1, ...
    """

    logits: np.ndarray
    losses: np.ndarray
    loss: float
    input_grad: np.ndarray | None
    param_grads: tuple[np.ndarray, ...] | None


def mlp_loss_and_grad(
    params: MlpParams,
    x: np.ndarray,
    lab: np.ndarray,
    alpha: float,
    weights: np.ndarray | None,
    want_input: bool,
    want_params: bool,
    ws: _Workspace | None = None,
) -> LossAndGrad:
    """Loss of an MLP on a batch and its gradients, in one pass each way.

    Takes arguments its two callers have already checked, so that no pass
    checks them again: `pgd_attack` (input gradients, every PGD step) and
    `train` (parameter gradients, every batch). `x` is finite float64
    (n, input_dim), `lab` n labels in [0, num_classes), `alpha` positive
    and finite, and `weights` None or a float64 length-n vector.

    The per-example losses -log softmax(alpha * logits)[label] are reduced
    by their sum or, given `weights`, by (1/n) * sum_i weights[i] * losses[i];
    `want_input` and `want_params` ask for that loss's gradients with respect
    to x and to the parameters. relu takes subgradient 0 at exactly 0. The
    reverse pass is a fixed sequence of numpy kernels, so identical inputs
    give bit-identical gradients.

    Given a workspace for x's row count, the layer outputs and input
    gradients are written into it, so the returned logits and input gradient
    hold until the next pass with that workspace.
    """
    hs = _forward(params, x, ws)
    logits = hs[-1]
    logp, losses = _cross_entropy(logits, lab, alpha)
    n = losses.shape[0]
    if weights is None:
        loss, upstream = float(losses.sum()), None
    else:
        loss, upstream = float((weights * losses).sum() / n), weights / n
    if not (want_input or want_params):
        return LossAndGrad(logits, losses, loss, None, None)

    # The reverse pass uses BLAS matmul, so unlike the einsum forward pass
    # its input gradients are not batch-invariant in the last bits.
    # A PGD run keeps these arrays in a workspace: freed on a large batch,
    # glibc trimmed them off the heap and every pass faulted them in again.
    g = np.exp(logp)
    g[np.arange(n), lab] -= 1.0
    g *= alpha
    if upstream is not None:
        g *= upstream[:, None]
    kind = params.config.activation
    param_grads = [None] * (2 * params.config.num_layers)
    for i in range(params.config.num_layers - 1, -1, -1):
        if want_params:
            param_grads[2 * i] = hs[i].T @ g
            param_grads[2 * i + 1] = g.sum(axis=0)
        if i == 0 and not want_input:
            break
        g = np.matmul(g, params.weights[i].data.T, out=None if ws is None else ws.grads[i])
        if i:
            h = hs[i]  # the activation's output: relu > 0 exactly where its input is
            if kind == "relu":
                g *= h > 0.0
            else:
                slope = h * h
                g *= np.subtract(1.0, slope, out=slope)
    return LossAndGrad(
        logits, losses, loss,
        g if want_input else None,
        tuple(param_grads) if want_params else None,
    )
