"""Shared helpers: finite-difference oracle and model builders used across tests."""
from __future__ import annotations

import numpy as np
import pytest

from robustlab.model import MlpConfig, MlpParams
from robustlab.tensor import _BLOCK, Tensor, _leaf_views, _take_kept, mlp_loss_and_grad


@pytest.fixture(autouse=True)
def no_kept_workspace():
    """Every test starts with no workspace kept from an earlier one (see `tensor._Workspace`)."""
    _take_kept()


def make_params(config: MlpConfig, weights, biases) -> MlpParams:
    return MlpParams(
        config=config,
        weights=tuple(Tensor(w) for w in weights),
        biases=tuple(Tensor(b) for b in biases),
    )


def random_params(rng: np.random.Generator, sizes, activation="tanh", scale=1.0) -> MlpParams:
    """Arbitrary-weight model (not Glorot) for attack/oracle tests."""
    config = MlpConfig(layer_sizes=tuple(sizes), activation=activation)
    weights = [scale * rng.standard_normal((a, b)) for a, b in zip(sizes[:-1], sizes[1:])]
    biases = [scale * rng.standard_normal(b) for b in sizes[1:]]
    return make_params(config, weights, biases)


def linear_model(weight, bias, activation="relu") -> MlpParams:
    """Single affine layer: logits = x @ weight + bias."""
    w = np.asarray(weight, dtype=float)
    config = MlpConfig(layer_sizes=(w.shape[0], w.shape[1]), activation=activation)
    return make_params(config, [w], [np.asarray(bias, dtype=float)])


def total_loss(params: MlpParams, x: Tensor, y: np.ndarray, alpha: float) -> float:
    """The summed loss, from the fused pass's per-example losses."""
    return float(mlp_loss_and_grad(params, x.data, y, alpha, None, False, False).losses.sum())


def analytic_grads(params: MlpParams, x: Tensor, y: np.ndarray, alpha: float):
    """Fused-pass gradients of the summed loss w.r.t. every parameter and the input."""
    res = mlp_loss_and_grad(params, x.data, y, alpha, None, True, True)
    return _leaf_views(params.config.layer_sizes, res.param_grad) + [res.input_grad]


def assert_leaves_are_views_of_theta(params: MlpParams) -> None:
    """Every leaf is a read-only, C-contiguous float64 view of `params.theta`,
    a read-only float64 vector that holds the leaves' bytes in leaves()
    order, and the raw weight arrays the passes read are the weights' views
    themselves."""
    theta = params.theta
    assert theta.dtype == np.float64 and theta.ndim == 1 and not theta.flags.writeable
    for t in params.leaves():
        a = t.data
        assert a.base is theta and a.dtype == np.float64 and a.flags.c_contiguous and not a.flags.writeable
    assert theta.tobytes() == b"".join(t.data.tobytes() for t in params.leaves())
    assert len(params._weight_arrays) == len(params.weights)
    assert all(a is w.data for a, w in zip(params._weight_arrays, params.weights))


def blocked_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as the fused pass computes every layer product: a's rows padded
    with zeros to whole blocks of the tensor module's block size, and one
    stacked matmul of those blocks by a C-ordered b."""
    n, k = a.shape
    blocks = np.zeros((-(-n // _BLOCK), _BLOCK, k))
    blocks.reshape(-1, k)[:n] = a
    return np.matmul(blocks, np.ascontiguousarray(b)).reshape(-1, b.shape[1])[:n]


def per_op_grads(params: MlpParams, x: np.ndarray, y: np.ndarray, alpha: float, weights=None):
    """Reference reverse pass: one vector-Jacobian product per op, replayed in reverse.

    Each op of linear -> activation -> ... -> scaled cross-entropy ->
    reduction records its own VJP closure, as a general tape does. Returns
    the parameter gradients (leaves() order), then the input gradient.
    """
    vjps = []  # (op kind, layer index, VJP closure) in forward order
    h = x
    last = params.config.num_layers - 1
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        xd, wd = h, w.data
        h = blocked_product(xd, wd) + b.data
        vjps.append(("linear", i, lambda g, xd=xd, wd=wd: (blocked_product(g, wd.T), xd.T @ g, g.sum(axis=0))))
        if i != last:
            if params.config.activation == "relu":
                mask = h > 0.0
                h = np.maximum(h, 0.0)
                vjps.append(("act", i, lambda g, mask=mask: g * mask))
            else:
                h = np.tanh(h)
                vjps.append(("act", i, lambda g, od=h: g * (1.0 - od * od)))
    shifted = alpha * (h - h.max(axis=1, keepdims=True))
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    rows = np.arange(len(y))
    probs = np.exp(logp)
    if weights is None:
        g = np.full(len(y), 1.0)
    else:
        g = 1.0 * np.asarray(weights, dtype=np.float64) / len(y)
    d = probs.copy()
    d[rows, y] -= 1.0
    g = alpha * d * g[:, None]
    grads = [None] * (2 * params.config.num_layers)
    for kind, i, vjp in reversed(vjps):
        if kind == "act":
            g = vjp(g)
        else:
            g, grads[2 * i], grads[2 * i + 1] = vjp(g)
    return grads + [g]


def _rebuild(params: MlpParams, leaf_index: int, new_array: np.ndarray) -> MlpParams:
    tensors = list(params.leaves())
    tensors[leaf_index] = Tensor(new_array)
    weights = tuple(tensors[2 * i] for i in range(params.config.num_layers))
    biases = tuple(tensors[2 * i + 1] for i in range(params.config.num_layers))
    return MlpParams(config=params.config, weights=weights, biases=biases)


def _mp_total_loss(weights, biases, activation_kind, x_rows, y, alpha, mp):
    """Straight-line arbitrary-precision forward loss.

    Independent of the numpy implementation: plain Python loops over mpf
    scalars. Used to evaluate central differences where float64 rounding
    of the loss would drown the difference quotient.
    """
    total = mp.mpf(0)
    a = mp.mpf(float(alpha))
    n_layers = len(weights)
    for row, label in zip(x_rows, y):
        h = [mp.mpf(v) for v in row]
        for li, (w, b) in enumerate(zip(weights, biases)):
            out = []
            for jj in range(len(b)):
                acc = mp.mpf(b[jj])
                for kk in range(len(h)):
                    acc += h[kk] * mp.mpf(w[kk][jj])
                out.append(acc)
            if li != n_layers - 1:
                if activation_kind == "relu":
                    out = [v if v > 0 else mp.mpf(0) for v in out]
                else:
                    out = [mp.tanh(v) for v in out]
            h = out
        m = max(h)
        shifted = [a * (v - m) for v in h]
        lse = mp.log(mp.fsum(mp.e**s for s in shifted))
        total += lse - shifted[int(label)]
    return total


def fd_max_rel_error(
    params: MlpParams,
    x: Tensor,
    y: np.ndarray,
    alpha: float,
    h: float = 1e-5,
    grad_floor: float = 1e-8,
) -> float:
    """Central finite differences against the fused pass's gradients.

    Returns the max relative error over every coordinate (all parameters
    plus the input) whose analytic gradient exceeds grad_floor in
    magnitude. Coordinates where the float64 difference quotient is
    rounding-limited (loss magnitude times machine epsilon comparable to
    the quotient's target accuracy) are re-evaluated with an independent
    arbitrary-precision forward pass, keeping the oracle a true central
    difference instead of float64 noise.
    """
    import mpmath as mp

    grads = analytic_grads(params, x, y, alpha)
    n_param_leaves = 2 * params.config.num_layers
    leaves = list(params.leaves())
    worst = 0.0
    eps64 = np.finfo(np.float64).eps

    def losses_at(leaf_idx, plus, minus, shape, precise):
        if leaf_idx < n_param_leaves:
            pp = _rebuild(params, leaf_idx, plus.reshape(shape))
            pm = _rebuild(params, leaf_idx, minus.reshape(shape))
            xp = xm = x
        else:
            pp = pm = params
            xp, xm = Tensor(plus.reshape(shape)), Tensor(minus.reshape(shape))
        if not precise:
            return total_loss(pp, xp, y, alpha), total_loss(pm, xm, y, alpha)
        with mp.workdps(30):
            lp = _mp_total_loss(
                [w.data.tolist() for w in pp.weights], [b.data.tolist() for b in pp.biases],
                params.config.activation, xp.data.tolist(), y, alpha, mp,
            )
            lm = _mp_total_loss(
                [w.data.tolist() for w in pm.weights], [b.data.tolist() for b in pm.biases],
                params.config.activation, xm.data.tolist(), y, alpha, mp,
            )
            return lp, lm

    for leaf_idx, grad in enumerate(grads):
        base = leaves[leaf_idx].data if leaf_idx < n_param_leaves else x.data
        flat_grad = grad.reshape(-1)
        base_flat = base.reshape(-1)
        for j in range(base_flat.size):
            g = flat_grad[j]
            if abs(g) <= grad_floor:
                continue
            plus = base_flat.copy()
            minus = base_flat.copy()
            plus[j] += h
            minus[j] -= h
            spacing = plus[j] - minus[j]
            lp, lm = losses_at(leaf_idx, plus, minus, base.shape, precise=False)
            fd = (lp - lm) / spacing
            # float64 rounding of lp/lm bounds the quotient's noise
            noise = 4.0 * eps64 * (abs(lp) + abs(lm)) / spacing
            if noise > 0.2e-5 * max(abs(g), abs(fd)):
                lp, lm = losses_at(leaf_idx, plus, minus, base.shape, precise=True)
                fd = float((lp - lm) / mp.mpf(float(spacing)))
            rel = abs(g - fd) / max(abs(g), abs(fd))
            worst = max(worst, rel)
    return worst


def relu_preactivation_margin(params: MlpParams, x: Tensor) -> float:
    """Smallest |pre-activation| over all hidden relu units (inf for tanh).

    Finite differences straddle the relu kink when this is below the step
    size, so FD tests resample configurations with tiny margins.
    """
    if params.config.activation != "relu":
        return np.inf
    h = x.data
    margin = np.inf
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        pre = h @ w.data + b.data
        if i == params.config.num_layers - 1:
            break
        margin = min(margin, float(np.abs(pre).min()))
        h = np.maximum(pre, 0.0)
    return margin


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
