"""Dense float64 tensors and one fused MLP loss-and-gradient pass.

`Tensor` is the validated boundary for user data. `mlp_forward`, the one
checked MLP forward entry (affine layers, relu/tanh), makes new arrays on
every call and returns only the logits; `_check_input` is its input rule and
`pgd_attack`'s. `mlp_loss_and_grad` runs the same pass on raw arrays its
callers have checked, then the alpha-scaled cross-entropy (the package's one
softmax) with a sum or weighted-mean reduction and one reverse pass that
computes only the gradients asked for. A PGD run makes every pass in one
`_Workspace`, its natural forward pass on the clean points included. Scope
is deliberately the minimum an MLP robustness lab needs.

Every layer product that maps rows to rows (x @ w forward, g @ w.T back)
runs as one stacked `np.matmul` over blocks of `_BLOCK` rows, the batch's
rows padded with finite values to a whole number of blocks. BLAS then makes
the same call, on the same shapes, for every block of every batch, so a
row's logits and input gradient have the same bits in a batch of any size,
one row included, as long as BLAS treats every row of a block alike (the
README gives the layer sizes for which that was measured). A plain 2-D
product lets BLAS pick its kernel by the batch's size (gemv for one row,
tail kernels for others), and its last bits follow.
"""
from __future__ import annotations

from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from .errors import ParameterError, ShapeError

if TYPE_CHECKING:
    from .model import MlpParams

ACTIVATION_KINDS = ("relu", "tanh")
# numpy sums a contiguous row of at least this many terms pairwise.
_PAIRWISE_FROM = 8
# The rows of every block a layer product runs on.
_BLOCK = 64


class Tensor:
    """Immutable dense array of 64-bit floats.

    Construction from user data validates finiteness; arrays the package
    computed itself go through the trusted `_wrap` path unchecked.
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
        # Trusted constructor for computed arrays. Takes ownership: the
        # caller must not mutate `arr` afterwards.
        out = cls.__new__(cls)
        a = np.ascontiguousarray(arr, dtype=np.float64)
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


def _activate(h: np.ndarray, kind: str, out: np.ndarray) -> np.ndarray:
    return np.maximum(h, 0.0, out=out) if kind == "relu" else np.tanh(h, out=out)  # MlpConfig admits no other


def _log_softmax(logits: np.ndarray, alpha: float, out: np.ndarray, exps: np.ndarray) -> np.ndarray:
    """log softmax(alpha * logits) by rows, written into `out`; the
    exponentials exp(alpha * (logits - row max)) are left in `exps`.

    The fused pass hands in a Fortran-ordered copy of the logits: the row
    max and the row sum then run down contiguous columns, several times
    faster than along C-ordered rows of a few entries. On either order
    they give the bits of the C-ordered axis-1 reductions, with one
    exception: numpy sums a C-ordered row of 8 or more terms pairwise,
    and column by column it adds them in order. So from
    `_PAIRWISE_FROM` classes on, `exps` must be C-ordered.
    """
    # Stabilized by max-subtraction so exp() stays in [0, 1] even when the
    # scale pushes logits far apart (the sweep goes up to alpha = 100).
    shifted = np.subtract(logits, logits.max(axis=1, keepdims=True), out=out)
    if alpha != 1.0:  # x * 1.0 is x, bit for bit: every training pass skips it
        shifted *= alpha
    lse = np.exp(shifted, out=exps).sum(axis=1, keepdims=True)
    shifted -= np.log(lse, out=lse)
    return shifted


def _check_label_dtype(lab: np.ndarray) -> None:
    """The package's one rule for a label array's dtype, `Dataset`'s included."""
    if lab.dtype.kind not in "iu":  # signed or unsigned integers (np.issubdtype would pass timedelta64 too)
        raise ParameterError(f"labels must be integers, got dtype {lab.dtype}")


def _check_label_range(lab: np.ndarray, num_classes: int) -> None:
    """The package's one rule for integer labels' values, `Dataset`'s included."""
    if lab.size and (lab.min() < 0 or lab.max() >= num_classes):
        raise ParameterError(f"labels must lie in [0, {num_classes})")


def _check_labels(labels, n: int, num_classes: int) -> np.ndarray:
    lab = np.asarray(labels)
    if lab.ndim != 1 or lab.shape[0] != n:
        raise ShapeError(f"labels must be a length-{n} vector, got shape {lab.shape}")
    _check_label_dtype(lab)
    _check_label_range(lab, num_classes)
    return lab.astype(np.int64, copy=False)


def _padded(n: int) -> int:
    """n rounded up to a whole number of blocks."""
    return -(-n // _BLOCK) * _BLOCK


def _blocks(a: np.ndarray) -> np.ndarray:
    """A C-ordered (rows, k) array, rows a whole number of blocks, as a (blocks, _BLOCK, k) view."""
    return a.reshape(-1, _BLOCK, a.shape[1])


def _layers(sizes: tuple[int, ...], rows: int) -> list[np.ndarray]:
    """Uninitialised C-ordered (rows, k) arrays, one per layer width k in `sizes`."""
    return [np.empty((rows, k)) for k in sizes]


def _tiled(params: MlpParams, tiles: list[np.ndarray]) -> list[np.ndarray]:
    """Write each layer's bias into every row of its (_BLOCK, k) tile in
    `tiles` and return them. Added to a layer's block view, a tile gives
    the bits of the bias broadcast along the rows, several times faster on
    layers of a few units."""
    for tile, b in zip(tiles, params.biases):
        np.copyto(tile, b.data)
    return tiles


def _check_input(params: MlpParams, x: np.ndarray) -> None:
    if x.ndim != 2 or x.shape[1] != params.config.input_dim:
        raise ShapeError(f"input shape {x.shape} does not match model input dim {params.config.input_dim}")


def mlp_forward(params: MlpParams, x: np.ndarray) -> np.ndarray:
    """The logits of `x`, a C-ordered view of the first n rows of a padded array.

    The package's one checked forward entry, behind `model.forward_logits`:
    it refuses an `x` that is not (n, input_dim). `mlp_loss_and_grad` runs
    the same pass on inputs its callers have checked.
    """
    _check_input(params, x)
    sizes = params.config.layer_sizes
    acts = _layers(sizes, _padded(x.shape[0]))
    acts[0][x.shape[0]:] = 0.0
    return _forward(params, x, acts, [_blocks(a) for a in acts], _tiled(params, _layers(sizes[1:], _BLOCK)))


class _Workspace(NamedTuple):
    """The arrays every pass of one PGD run writes into, and the run's
    labels in the two forms the loss head reads. `pgd_attack` makes one for
    its batch, runs its natural forward pass and then every step in it,
    narrows it when rows settle, and drops it when it returns; `train`
    makes one for its batch size and narrows it to each batch's labels for
    that batch's SGD pass; `mlp_loss_and_grad` makes one for a pass given
    none. (Freed after every pass, a large batch's arrays were trimmed off
    the heap by glibc and faulted in again on the next.)

    Layer products: `acts` holds the input and every layer's output, and
    `grads` every layer's input gradient and then the upstream gradient
    (the loss's gradient with respect to the logits), one C-ordered array
    per layer width each, from `np.empty`. They have the batch's n rows and
    then padding up to a whole number of blocks; `act_blocks` and
    `grad_blocks` are their 3-D block views, the operands of the stacked
    products. Only the padding rows of the input and of the upstream
    gradient are zeroed, and no pass writes them, so every padding row
    stays finite: the forward pass computes the layers of a zero input, and
    the reverse pass carries zeros. Every other entry a pass reads it has
    written first. Only the products and the bias and activation read the
    padding; the loss head, the masks of the reverse pass and the parameter
    gradients read the first n rows.

    Biases: `tiles` holds each layer's bias tile (`_tiled`), and `tiled`, a
    one-item list, the params they were last filled from. `tiles_of` fills
    them for other params only, so a PGD run fills them once, and `train`,
    whose every step makes new params, once per SGD pass.

    The head: `logp` is Fortran-ordered, for the head's row reductions, and
    first receives a copy of the logits; `exps`, the head's exponentials,
    is Fortran-ordered below `_PAIRWISE_FROM` classes and C-ordered from
    there (`_log_softmax`). `onehot` holds 1.0 at each row's label and
    `flat` each label's index into the Fortran-order flattening of an
    (n, classes) array: the pass takes by it logp's label entries for the
    loss and, when `exps` is Fortran-ordered, its label entries for the
    rows' correctness.
    """

    acts: list[np.ndarray]
    grads: list[np.ndarray]
    act_blocks: list[np.ndarray]
    grad_blocks: list[np.ndarray]
    logp: np.ndarray
    exps: np.ndarray
    onehot: np.ndarray
    flat: np.ndarray
    tiles: list[np.ndarray]
    tiled: list

    @classmethod
    def for_batch(cls, sizes: tuple[int, ...], lab: np.ndarray) -> "_Workspace":
        """A workspace for `lab`, labels `_check_labels` returned, on a model of layer widths `sizes`."""
        rows = _padded(lab.shape[0])
        return cls._over(_layers(sizes, rows), _layers(sizes, rows), lab)

    def tiles_of(self, params: MlpParams) -> list[np.ndarray]:
        """The bias tiles of `params`, filled unless the last pass was with them."""
        if self.tiled[0] is not params:
            _tiled(params, self.tiles)
            self.tiled[0] = params
        return self.tiles

    def narrowed(self, lab: np.ndarray) -> "_Workspace":
        """A workspace for the rows labelled `lab`, at most this one's rows, on the first entries of its arrays.

        Given fewer rows, the layer arrays are prefix views, already faulted
        in, whose input and upstream gradient padding is zeroed again; the
        head's scratch, `logp` and `exps`, lies on the first entries of this
        one's, its bias tiles are this one's, and its label arrays are new.
        A pass with either workspace overwrites the other's layers and
        scratch, but never the padding of this one's input or upstream
        gradient, which lies past either's rows. Given as many rows, it is
        this one, its label arrays refilled for `lab` in place.
        """
        m = lab.shape[0]
        if m < self.flat.shape[0]:
            rows = _padded(m)
            return self._over([a[:rows] for a in self.acts], [g[:rows] for g in self.grads], lab, self)
        _label(lab, self.onehot, self.flat)
        return self

    @classmethod
    def _over(cls, acts: list[np.ndarray], grads: list[np.ndarray], lab: np.ndarray,
              on: "_Workspace | None" = None) -> "_Workspace":
        """The workspace on layer arrays `acts` and `grads`, their input and
        upstream gradient padding zeroed, with new label arrays for `lab`,
        and the head's scratch and the bias tiles: new, or those of `on`
        (the scratch on its first entries)."""
        n, classes = lab.shape[0], acts[-1].shape[1]
        if on is None:
            logp = np.empty((n, classes), order="F")
            exps = np.empty((n, classes), order="C" if classes >= _PAIRWISE_FROM else "F")
            tiles, tiled = _layers(tuple(a.shape[1] for a in acts[1:]), _BLOCK), [None]
        else:
            logp, exps, tiles, tiled = _prefix(on.logp, n), _prefix(on.exps, n), on.tiles, on.tiled
        acts[0][n:] = 0.0
        grads[-1][n:] = 0.0
        onehot, flat = np.empty((n, classes)), np.empty(n, dtype=np.int64)
        _label(lab, onehot, flat)
        return cls(acts, grads, [_blocks(a) for a in acts], [_blocks(g) for g in grads], logp, exps, onehot, flat,
                   tiles, tiled)


def _label(lab: np.ndarray, onehot: np.ndarray, flat: np.ndarray) -> None:
    """Write into `onehot`, (n, classes), 1.0 at each row's label and 0.0
    elsewhere, and into `flat` each label's index into the Fortran-order
    flattening of an (n, classes) array."""
    n = lab.shape[0]
    rows = np.arange(n)
    onehot.fill(0.0)
    onehot[rows, lab] = 1.0
    np.multiply(lab, n, out=flat)
    flat += rows


def _prefix(a: np.ndarray, n: int) -> np.ndarray:
    """An (n, k) array on the first n k entries of `a`, a contiguous (m, k) array with m >= n, in a's order."""
    order = "F" if a.flags.f_contiguous else "C"
    return a.reshape(-1, order=order)[:n * a.shape[1]].reshape((n, a.shape[1]), order=order)


def _forward(params: MlpParams, x: np.ndarray, acts: list[np.ndarray], blocks: list[np.ndarray],
             tiles: list[np.ndarray]) -> np.ndarray:
    """Write x into the first rows of acts[0], whose padding rows must be
    zero, then every layer's output into the next of `acts`, padding rows
    included; `blocks` are their block views (see `_Workspace`), and
    `tiles` the biases as `_tiled` writes them, added block by block.
    Returns the logits, the last layer's first n rows."""
    np.copyto(acts[0][:x.shape[0]], x)
    kind = params.config.activation
    last = params.config.num_layers - 1
    for i, w in enumerate(params.weights):
        np.matmul(blocks[i], w.data, out=blocks[i + 1])
        blocks[i + 1] += tiles[i]
        if i < last:
            _activate(acts[i + 1], kind, out=acts[i + 1])
    return acts[-1][:x.shape[0]]


class LossAndGrad(NamedTuple):
    """One fused pass: gradients that were not asked for are None.

    logits and the input gradient are C-ordered. loss is the weighted-mean
    reduction `train` descends, None for a pass without weights.
    param_grads follows `MlpParams.leaves()` order: w0, b0, w1, b1, ...
    correct marks the rows whose label argmax of the logits picks.
    """

    logits: np.ndarray
    losses: np.ndarray
    loss: float | None
    input_grad: np.ndarray | None
    param_grads: tuple[np.ndarray, ...] | None
    correct: np.ndarray


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
    (n, input_dim), `lab` n labels in [0, num_classes) as `_check_labels`
    returns them, `alpha` positive and finite, and `weights` None or a
    float64 length-n vector.

    The per-example losses -log softmax(alpha * logits)[label] are reduced
    by their sum or, given `weights`, by (1/n) * sum_i weights[i] * losses[i];
    `want_input` and `want_params` ask for that loss's gradients with respect
    to x and to the parameters. Only the weighted mean is returned as
    `loss`. relu takes subgradient 0 at exactly 0. The reverse pass is a
    fixed sequence of numpy kernels, so identical inputs give bit-identical
    gradients, and a row's input gradient has the same bits in any batch.

    `correct` is argmax's verdict on every pass. A pass of more than one
    block reads it off the head's exponentials exp(alpha * (logits - row
    max)), whose row maxima are exactly 1.0: when they are Fortran-ordered
    and every row holds a single 1.0, at argmax's index, a row is correct
    where its label's entry is 1.0. Any other pass (a tie, a near-tie that
    rounds to 1.0, a NaN, C-ordered exponentials, or one block, where
    argmax costs less than the count) takes argmax.

    Given a workspace made for `lab`, the pass writes into it, so the
    returned logits and input gradient hold until the next pass with that
    workspace.
    """
    if ws is None:
        ws = _Workspace.for_batch(params.config.layer_sizes, lab)
    logits = _forward(params, x, ws.acts, ws.act_blocks, ws.tiles_of(params))
    n = x.shape[0]
    np.copyto(ws.logp, logits)
    logp = _log_softmax(ws.logp, alpha, ws.logp, ws.exps)
    losses = -logp.T.take(ws.flat)  # logp.T is C-contiguous: a flat take reads it in place
    exps = ws.exps
    if n > _BLOCK and exps.flags.f_contiguous and np.count_nonzero(exps < 1.0) == exps.size - n:
        correct = exps.T.take(ws.flat) == 1.0
    else:
        correct = logits.argmax(axis=1) == lab
    loss = None if weights is None else float((weights * losses).sum() / n)
    if not (want_input or want_params):
        return LossAndGrad(logits, losses, loss, None, None, correct)

    g = np.exp(logp, out=ws.grads[-1][:n])
    g -= ws.onehot  # exact off the label too: x - 0.0 is x
    if alpha != 1.0:
        g *= alpha
    if weights is not None:
        g *= (weights / n)[:, None]
    kind = params.config.activation
    param_grads = [None] * (2 * params.config.num_layers)
    for i in range(params.config.num_layers - 1, -1, -1):
        if want_params:
            param_grads[2 * i] = ws.acts[i][:n].T @ g
            param_grads[2 * i + 1] = g.sum(axis=0)
        if i == 0 and not want_input:
            break
        np.matmul(ws.grad_blocks[i + 1], params.transposed_weights[i], out=ws.grad_blocks[i])
        g = ws.grads[i][:n]
        if i:
            h = ws.acts[i][:n]  # the activation's output: relu > 0 exactly where its input is
            if kind == "relu":
                g *= h > 0.0
            else:
                slope = h * h
                g *= np.subtract(1.0, slope, out=slope)
    return LossAndGrad(
        logits, losses, loss,
        g if want_input else None,
        tuple(param_grads) if want_params else None,
        correct,
    )
