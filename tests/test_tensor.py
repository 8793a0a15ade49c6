"""Tensor core: forward ops, the scale-aware loss, and the fused reverse pass."""
import hashlib
import json
import os
import re
import subprocess
import sys
import threading
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab import attacks, tensor, training
from robustlab.attacks import AttackConfig, pgd_attack
from robustlab.datasets import DomainBox, gen_two_moons
from robustlab.errors import ParameterError, ShapeError
from robustlab.model import MlpConfig, forward_logits, predict
from robustlab.training import TrainConfig, train
from robustlab.tensor import (
    Tensor,
    _leaf_views,
    _log_softmax,
    _Workspace,
    mlp_forward,
    mlp_loss_and_grad,
)

from conftest import blocked_product, fd_max_rel_error, linear_model, make_params, per_op_grads, random_params

# Frozen oracle values, computed with mpmath at 50 decimal digits.
TANH_HALF = 0.46211715726000976
LN_4 = 1.3862943611198906
LN_1P_EXP_NEG1 = 0.31326168751822283


class TestTensor:
    def test_rejects_nan(self):
        with pytest.raises(ParameterError):
            Tensor([1.0, np.nan])

    def test_rejects_inf(self):
        with pytest.raises(ParameterError):
            Tensor([[np.inf]])

    def test_immutable(self):
        t = Tensor([1.0, 2.0])
        with pytest.raises(ValueError):
            t.data[0] = 3.0

    def test_shape(self):
        assert Tensor([[1.0, 2.0]]).shape == (1, 2)
        assert Tensor(3.5).shape == ()


class TestLinear:
    """The affine layer, read through forward_logits of a single-layer model."""

    def test_identity(self):
        out = forward_logits(linear_model(np.eye(2), [0.0, 0.0]), Tensor(np.eye(2)))
        np.testing.assert_array_equal(out.data, np.eye(2))

    def test_sum_plus_bias(self):
        out = forward_logits(linear_model([[1.0, 0.0], [1.0, 0.0]], [3.0, 0.0]), Tensor([[1.0, 2.0]]))
        np.testing.assert_array_equal(out.data, [[6.0, 0.0]])

    def test_matches_triple_loop_oracle(self, rng):
        x = rng.standard_normal((4, 3))
        w = rng.standard_normal((3, 5))
        b = rng.standard_normal(5)
        # independent naive oracle
        expected = np.zeros((4, 5))
        for i in range(4):
            for j in range(5):
                acc = b[j]
                for k in range(3):
                    acc += x[i, k] * w[k, j]
                expected[i, j] = acc
        out = forward_logits(linear_model(w, b), Tensor(x))
        np.testing.assert_allclose(out.data, expected, rtol=0, atol=1e-14)

    def test_shape_mismatch_names_both_shapes(self):
        params = linear_model(np.zeros((2, 5)), np.zeros(5))
        with pytest.raises(ShapeError, match=r"\(2, 3\).*input dim 2"):
            forward_logits(params, Tensor(np.zeros((2, 3))))

    def test_batch_independence_is_exact(self, rng):
        x = rng.standard_normal((6, 3))
        params = linear_model(rng.standard_normal((3, 4)), rng.standard_normal(4))
        full = forward_logits(params, Tensor(x)).data
        rows = [forward_logits(params, Tensor(x[i:i + 1])).data[0] for i in range(6)]
        np.testing.assert_array_equal(full, np.stack(rows))


def hidden_output(kind: str, values) -> np.ndarray:
    """The first layer's activation output for inputs `values` through a unit
    weight, read off the first logit through a unit second layer."""
    params = make_params(MlpConfig((1, 1, 2), activation=kind), [[[1.0]], [[1.0, 0.0]]], [[0.0], [0.0, 0.0]])
    return mlp_forward(params, np.array(values, dtype=float).reshape(-1, 1))[:, 0]


class TestActivation:
    def test_relu_sign_cases(self):
        np.testing.assert_array_equal(hidden_output("relu", [-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_tanh_origin(self):
        assert hidden_output("tanh", [0.0])[0] == 0.0

    def test_tanh_high_precision(self):
        assert abs(hidden_output("tanh", [0.5])[0] - TANH_HALF) < 1e-12

    # Every kind of value a relu input can hold: signed zeros, infinities, NaN, denormals, normals.
    SPECIAL = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1.0, -1.0,
                        1.7e308, -1.7e308])

    @pytest.mark.parametrize("n", [64, 4000], ids=["one-block", "63-blocks"])
    @pytest.mark.parametrize("width", [1, 2, 7, 16, 33, 245])
    def test_the_zero_operand_gives_the_bits_of_a_python_zero(self, rng, n, width):
        # relu on the product's operand, as the forward pass runs it, and the reverse pass's mask on
        # the 2-D layer array, each with the workspace's zero operand in place of 0.0.
        ws = _Workspace.new((2, width, width, 3), n)
        assert len(ws.zeros) == 2
        for i, zero in enumerate(ws.zeros):
            assert not zero.any() and not zero.flags.writeable
            h = ws.acts[i + 1]
            h[...] = rng.choice(self.SPECIAL, size=h.shape)
            h.reshape(-1)[:self.SPECIAL.size] = self.SPECIAL
            assert np.greater(h, zero).tobytes() == (h > 0.0).tobytes()
            want = np.maximum(h, 0.0)
            np.maximum(ws.act_ops[i + 1], zero, out=ws.act_ops[i + 1])
            assert h.tobytes() == want.tobytes()

    @pytest.mark.parametrize("n", [1, 64, 65])
    def test_a_pass_with_a_minus_zero_bias(self, rng, n):
        # Unit 0's weights are zero and its bias -0.0, so its input is an exact zero on every row;
        # the row x = (-0.0, 0.0) makes every unit's product zero. The pass, relu and its mask
        # included, keeps the bits of the per-op formulas with np.maximum(h, 0.0) and h > 0.0.
        config = MlpConfig((2, 3, 2), activation="relu")
        params = make_params(config, [[[0.0, -1.0, 1.0], [-0.0, -2.0, 0.5]], [[1.0, -1.0], [0.5, 2.0], [-3.0, 1.0]]],
                             [[-0.0, -0.0, 0.0], [-0.0, 0.0]])
        x = rng.uniform(-1, 1, size=(n, 2))
        x[0] = (-0.0, 0.0)
        y = rng.integers(0, 2, size=n)
        ws = _Workspace.new(config.layer_sizes, n)
        logits = tensor._forward(params, x, ws)
        pre = blocked_product(x, params.weights[0].data) + params.biases[0].data
        assert not pre[:, 0].any() and not pre[0].any()
        assert ws.act_rows[1].tobytes() == np.maximum(pre, 0.0).tobytes()
        assert logits.tobytes() == (blocked_product(np.maximum(pre, 0.0), params.weights[1].data)
                                    + params.biases[1].data).tobytes()
        _assert_per_op_bits(params, x, y, 1.0)


def head(z, alpha):
    """The loss head on logits z, as the fused pass runs it: `_log_softmax`
    on a Fortran-ordered copy. Returns the log-probabilities and exp of them."""
    logp = np.array(z, dtype=float, order="F")
    logp = _log_softmax(logp, alpha, logp, np.empty_like(logp))
    return logp, np.exp(logp)


def identity_pass(z, y, alpha):
    """The fused pass through a one-layer identity model fed logits z, so that
    its losses and correctness are those of the head on z (its + 0.0 bias
    turns -0.0 into 0.0)."""
    z = np.asarray(z, dtype=float)
    c = z.shape[1]
    res = mlp_loss_and_grad(linear_model(np.eye(c), np.zeros(c)), z, np.asarray(y, dtype=np.int64), alpha, None,
                            False, False)
    assert res.logits.tobytes() == (z + 0.0).tobytes()
    return res


class TestScaledCrossEntropy:
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 10.0, 100.0])
    def test_equal_logits_gives_ln_c(self, alpha):
        losses = identity_pass(np.full((3, 4), 1.7), [0, 1, 3], alpha).losses
        np.testing.assert_allclose(losses, LN_4, rtol=0, atol=1e-12)

    def test_two_class_closed_form(self):
        losses = identity_pass([[1.0, 0.0]], [0], 1.0).losses
        assert abs(losses[0] - LN_1P_EXP_NEG1) < 1e-12

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 10.0, 100.0])
    def test_argmax_scale_invariance(self, alpha):
        _, probs = head([[2.0, 1.0]], alpha)
        assert np.argmax(probs[0]) == 0
        assert identity_pass([[2.0, 1.0], [2.0, 1.0]], [0, 1], alpha).correct.tolist() == [True, False]


def attack_with_labels(labels):
    """`pgd_attack` on 2 points of a 2-class model, its labels checked by `_check_labels`."""
    params = linear_model([[1.0, -1.0], [-1.0, 1.0]], [0.0, 0.0])
    cfg = AttackConfig(epsilon=0.1, steps=2, step_size=0.05)
    return pgd_attack(params, Tensor([[0.6, 0.4], [0.3, 0.7]]), labels, cfg, domain=DomainBox.unit(2))


class TestLabels:
    """pgd_attack's label rule, `_check_labels`: dtype and range as `Dataset` has them."""

    @pytest.mark.parametrize("labels", [[0, 2], [-1, 0]], ids=["above-range", "negative"])
    def test_label_out_of_range(self, labels):
        with pytest.raises(ParameterError, match=re.escape("labels must lie in [0, 2)")):
            attack_with_labels(np.array(labels))

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ParameterError):
            attack_with_labels(np.array([0.0, 1.0]))

    @pytest.mark.parametrize("dtype", ["bool", "timedelta64[s]", "object"])
    def test_labels_of_a_dtype_of_another_kind_rejected(self, dtype):
        # Only signed and unsigned integers are labels: not bools, and not
        # timedeltas, although numpy counts those as a subtype of np.integer.
        with pytest.raises(ParameterError, match="labels must be integers"):
            attack_with_labels(np.array([0, 1]).astype(dtype))

    @pytest.mark.parametrize("dtype", ["int8", "uint8", "int32", "uint64"])
    def test_every_integer_label_dtype_accepted(self, dtype):
        got = attack_with_labels(np.array([1, 0], dtype=dtype))
        want = attack_with_labels(np.array([1, 0]))
        for f in fields(want):
            a, b = getattr(got, f.name), getattr(want, f.name)
            a, b = (a.data, b.data) if isinstance(a, Tensor) else (a, b)
            assert (a is None and b is None) or a.tobytes() == b.tobytes(), f.name


class TestSoftmaxProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
        st.sampled_from([1e-6, 0.01, 1.0, 10.0, 100.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, logits, alpha):
        _, probs = head([logits], alpha)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_sums_to_one_extreme_spread(self):
        _, probs = head([[1e300, -1e300, 0.0]], 100.0)
        assert abs(probs.sum() - 1.0) < 1e-12

    def test_max_probability_nondecreasing_in_alpha(self, rng):
        for _ in range(20):
            logits = [rng.uniform(-3, 3, size=5)]
            alphas = np.logspace(-6, 2, 30)
            maxima = [head(logits, a)[1].max() for a in alphas]
            assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))

    def test_flattens_to_uniform_at_tiny_alpha(self, rng):
        # O(1) logits: the deviation from 1/C at alpha=1e-6 is O(alpha).
        for c in (2, 3, 5, 8):
            logits = [rng.uniform(-1, 1, size=c)]
            assert abs(head(logits, 1e-6)[1].max() - 1.0 / c) < 1e-6

    def test_argmax_matches_logits_argmax(self, rng):
        for _ in range(50):
            logits = rng.uniform(-1, 1, size=(1, 6))
            for alpha in (1e-6, 0.01, 1.0, 10.0, 100.0):
                _, probs = head(logits, alpha)
                assert np.argmax(probs[0]) == np.argmax(logits[0])
                assert identity_pass(np.repeat(logits, 6, axis=0), np.arange(6), alpha).correct.tolist() == [
                    label == np.argmax(logits[0]) for label in range(6)]

    def test_ties_and_signed_zeros_keep_the_axis_max_bits(self):
        # On the Fortran-ordered logits of the fused pass the row max runs
        # down the columns; with equal entries and zeros of both signs it
        # must give the bits that max(axis=1) gives on C-ordered ones.
        z = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, 0.0], [2.0, 2.0, -0.0], [-3.0, -3.0, -3.0], [-0.0, -7.5, 1e-300]])
        for alpha in (0.01, 1.0, 100.0):
            shifted = alpha * (z - z.max(axis=1, keepdims=True))
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            got = np.asfortranarray(z)
            exps = np.empty_like(got)
            np.testing.assert_array_equal(_log_softmax(got, alpha, got, exps).view(np.uint64), logp.view(np.uint64))
            np.testing.assert_array_equal(exps.view(np.uint64), np.exp(shifted).view(np.uint64))

    def test_tie_resolution_lowest_index(self):
        _, probs = head([[3.0, 3.0, 1.0]], 1.0)
        assert np.argmax(probs[0]) == 0
        assert identity_pass([[3.0, 3.0, 1.0]] * 3, [0, 1, 2], 1.0).correct.tolist() == [True, False, False]


def _relu_net(w0, b0):
    """2 -> hidden relu -> 2 net whose output layer sums the hidden units into class 0."""
    w0 = np.asarray(w0, dtype=float)
    hidden = w0.shape[1]
    w1 = np.zeros((hidden, 2))
    w1[:, 0] = 1.0
    config = MlpConfig(layer_sizes=(w0.shape[0], hidden, 2), activation="relu")
    return make_params(config, [w0, w1], [np.asarray(b0, dtype=float), np.zeros(2)])


def _assert_per_op_bits(params, x, y, alpha):
    """The fused pass has the bits of the C-ordered per-op formulas: blocked
    layer products, h.max(axis=1) and np.exp(shifted).sum(axis=1), and per_op_grads."""
    res = mlp_loss_and_grad(params, x, y, alpha, None, True, True)
    h = x
    for i, (w, b) in enumerate(zip(params.weights, params.biases)):
        h = blocked_product(h, w.data) + b.data
        if i < params.config.num_layers - 1:
            h = np.maximum(h, 0.0) if params.config.activation == "relu" else np.tanh(h)
    shifted = alpha * (h - h.max(axis=1, keepdims=True))
    logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
    np.testing.assert_array_equal(res.logits, h)
    np.testing.assert_array_equal(res.losses, -logp[np.arange(len(y)), y])
    for got, want in zip(_leaf_views(params.config.layer_sizes, res.param_grad) + [res.input_grad],
                         per_op_grads(params, x, y, alpha)):
        np.testing.assert_array_equal(got, want)


def row_outputs(params, x, y):
    """Per row of x: every hidden layer's output and the logits, read off the
    fused pass's own workspace, and the input gradient."""
    ws = _Workspace.for_batch(params.config.layer_sizes, y)
    res = mlp_loss_and_grad(params, x, y, 3.0, None, True, False, ws)
    return [*(a[:len(x)] for a in ws.acts[1:-1]), res.logits, res.input_grad]


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        # The sum reduction gives every example upstream gradient exactly 1:
        # the same as the weighted mean with every weight equal to n.
        params = random_params(rng, (3, 4, 3))
        x = rng.uniform(-1, 1, size=(5, 3))
        y = rng.integers(0, 3, size=5)
        summed = mlp_loss_and_grad(params, x, y, 2.0, None, True, True)
        as_mean = mlp_loss_and_grad(params, x, y, 2.0, np.full(5, 5.0), True, True)
        assert summed.loss is None  # only the weighted mean, which train descends, is reduced
        for a, b in zip((summed.param_grad, summed.input_grad), (as_mean.param_grad, as_mean.input_grad)):
            np.testing.assert_array_equal(a, b)

    def test_dead_relu_unit_gets_zero_gradient(self):
        # hidden unit 0 has pre-activation -5, unit 1 has +2
        params = _relu_net([[1.0, 1.0]], [-6.0, 1.0])
        res = mlp_loss_and_grad(params, np.array([[1.0]]), np.array([1]), 1.0, None, True, True)
        gw0, gb0 = _leaf_views(params.config.layer_sizes, res.param_grad)[:2]
        assert gw0[0, 0] == 0.0 and gb0[0] == 0.0
        assert gw0[0, 1] != 0.0 and gb0[1] != 0.0

    def test_relu_gradient_zero_at_exactly_zero(self):
        params = _relu_net([[1.0]], [-1.0])
        res = mlp_loss_and_grad(params, np.array([[1.0]]), np.array([1]), 1.0, None, True, True)
        gw0, gb0 = _leaf_views(params.config.layer_sizes, res.param_grad)[:2]
        assert gw0[0, 0] == 0.0
        assert gb0[0] == 0.0
        assert res.input_grad[0, 0] == 0.0

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 10.0])
    def test_finite_differences_two_layer_mlp(self, rng, alpha):
        params = random_params(rng, (3, 6, 3), activation="tanh")
        x = Tensor(rng.uniform(-1, 1, size=(4, 3)))
        y = rng.integers(0, 3, size=4)
        assert fd_max_rel_error(params, x, y, alpha) < 1e-5

    def test_finite_differences_relu(self, rng):
        params = random_params(rng, (2, 5, 2), activation="relu")
        x = Tensor(rng.uniform(-1, 1, size=(3, 2)))
        y = rng.integers(0, 2, size=3)
        assert fd_max_rel_error(params, x, y, 1.0) < 1e-5

    def test_backward_deterministic_bitwise(self, rng):
        params = random_params(rng, (3, 4, 2))
        x = rng.uniform(-1, 1, size=(5, 3))
        y = rng.integers(0, 2, size=5)

        def run():
            res = mlp_loss_and_grad(params, x, y, 10.0, None, True, True)
            return [res.param_grad, res.input_grad]

        for a, b in zip(run(), run()):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_matches_per_op_reverse_pass_bitwise(self, rng, act, weighted):
        # Fusing the ops must not change a single bit of the per-op arithmetic.
        params = random_params(rng, (3, 7, 5, 4), activation=act)
        x = rng.uniform(-1, 1, size=(9, 3))
        y = rng.integers(0, 4, size=9)
        weights = rng.uniform(0.1, 2.0, size=9) if weighted else None
        res = mlp_loss_and_grad(params, x, y, 3.0, weights, True, True)
        for got, want in zip(_leaf_views(params.config.layer_sizes, res.param_grad) + [res.input_grad],
                             per_op_grads(params, x, y, 3.0, weights)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 801])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("sizes", [(2, 16, 16, 4), (24, 1, 5, 2), (1, 9, 10)], ids=["readme", "width1", "10class"])
    def test_matches_per_op_pass_at_every_width_and_batch(self, rng, sizes, act, n):
        # The fused pass pads every batch to whole blocks, a 1-row batch
        # included; logits, losses and gradients must keep the bits of the
        # per-op formulas at every width and batch size.
        params = random_params(rng, sizes, activation=act)
        x = rng.uniform(-1, 1, size=(n, sizes[0]))
        x[0, 0] = 0.0
        y = rng.integers(0, sizes[-1], size=n)
        _assert_per_op_bits(params, x, y, 3.0)

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("n", [1, 2, 7, 64, 801])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [2, 4, 7, 8, 9, 16, 33])
    def test_head_keeps_the_c_ordered_row_reductions_bits(self, rng, classes, act, n, alpha):
        # The loss head reduces the Fortran-ordered logits down their
        # columns. A column-by-column sum adds a row's terms in order, and
        # numpy sums a C-ordered row of 8 or more terms pairwise: 7, 8 and 9
        # classes pin where the head switches to a C-ordered sum.
        params = random_params(rng, (2, 16, 16, classes), activation=act)
        x = rng.uniform(0, 1, size=(n, 2))
        y = rng.integers(0, classes, size=n)
        _assert_per_op_bits(params, x, y, alpha)

    def test_gradients_asked_for_alone_are_bit_identical(self, rng):
        params = random_params(rng, (3, 6, 3))
        x = rng.uniform(-1, 1, size=(4, 3))
        y = rng.integers(0, 3, size=4)
        both = mlp_loss_and_grad(params, x, y, 2.0, None, True, True)
        only_input = mlp_loss_and_grad(params, x, y, 2.0, None, True, False)
        only_params = mlp_loss_and_grad(params, x, y, 2.0, None, False, True)
        none = mlp_loss_and_grad(params, x, y, 2.0, None, False, False)
        assert only_input.param_grad is None and only_params.input_grad is None
        assert none.input_grad is None and none.param_grad is None
        np.testing.assert_array_equal(only_input.input_grad, both.input_grad)
        np.testing.assert_array_equal(only_params.param_grad, both.param_grad)
        for res in (only_input, only_params, none):
            np.testing.assert_array_equal(res.losses, both.losses)
            assert res.loss == both.loss

    def test_logits_and_losses_match_the_forward_ops(self, rng):
        params = random_params(rng, (3, 5, 3), activation="relu")
        x = Tensor(rng.uniform(-1, 1, size=(6, 3)))
        y = rng.integers(0, 3, size=6)
        res = mlp_loss_and_grad(params, x.data, y, 0.5, None, False, False)
        logits = forward_logits(params, x).data
        np.testing.assert_array_equal(res.logits, logits)
        shifted = 0.5 * (logits - logits.max(axis=1, keepdims=True))
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(res.losses, -logp[np.arange(6), y])

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [64, 800, 4000])
    def test_input_gradient_of_a_row_subset_is_bit_identical(self, rng, act, n):
        # Attacking only some rows of a batch relies on this, at the README
        # model's shapes and the sweeps' batch sizes; the test below adds
        # every size, 1-row batches included, and other model shapes.
        params = random_params(rng, (2, 16, 16, 4), activation=act)
        x = rng.uniform(0, 1, size=(n, 2))
        y = rng.integers(0, 4, size=n)
        full = mlp_loss_and_grad(params, x, y, 3.0, None, True, False).input_grad
        for size in (2, 3, 5, 17, n // 2, n - 1):
            rows = np.sort(rng.choice(n, size=size, replace=False))
            sub = mlp_loss_and_grad(params, x[rows], y[rows], 3.0, None, True, False).input_grad
            np.testing.assert_array_equal(sub, full[rows])

    @pytest.mark.parametrize("sizes", [(2, 16, 16, 4), (24, 1, 5, 2), (1, 9, 10), (2, 16, 16, 33)],
                             ids=["readme", "width1", "10class", "33class"])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [800, 4000])
    def test_input_gradient_of_a_row_subset_of_every_size_is_bit_identical(self, rng, n, act, sizes):
        # PGD moves the rows it still steps into a smaller batch of any size, one row
        # included, so every layer's output and the input gradient must give each row
        # its bits at every size, not only at the few above, and for every model shape:
        # a 1-unit layer and 1 input take BLAS's vector kernels in a 2-D product.
        params = random_params(rng, sizes, activation=act)
        x = rng.uniform(0, 1, size=(n, sizes[0]))
        y = rng.integers(0, sizes[-1], size=n)
        full = row_outputs(params, x, y)
        sample = rng.choice(np.arange(71, n), size=100, replace=False)
        for size in [*range(1, 71), *sample, n - 1]:
            rows = np.sort(rng.choice(n, size=size, replace=False))
            for i, (got, want) in enumerate(zip(row_outputs(params, x[rows], y[rows]), full)):
                assert got.tobytes() == want[rows].tobytes(), (size, i)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_every_output_of_a_row_subset_is_bit_identical_for_any_shape(self, data):
        draw = data.draw
        sizes = (draw(st.integers(1, 5)), *draw(st.lists(st.integers(1, 40), max_size=3)),
                 draw(st.integers(2, 40)))
        n = draw(st.integers(1, 300))
        rng = np.random.default_rng(draw(st.integers(0, 2**32)))
        params = random_params(rng, sizes, activation=draw(st.sampled_from(["relu", "tanh"])))
        x = rng.uniform(-1, 1, size=(n, sizes[0]))
        y = rng.integers(0, sizes[-1], size=n)
        rows = np.flatnonzero(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
        full = row_outputs(params, x, y)
        for got, want in zip(row_outputs(params, x[rows], y[rows]), full):
            assert got.tobytes() == want[rows].tobytes()

    def test_weighted_mean_gradient_linear_in_weights(self, rng):
        # doubling the weights exactly doubles the gradient (power of two,
        # so float scaling is exact)
        params = linear_model(rng.standard_normal((3, 4)), rng.standard_normal(4))
        x = rng.standard_normal((6, 3))
        y = rng.integers(0, 4, size=6)
        w = rng.uniform(0.1, 2.0, size=6)

        def grad_with(weights):
            return mlp_loss_and_grad(params, x, y, 1.0, weights, True, False).input_grad

        np.testing.assert_array_equal(grad_with(2.0 * w), 2.0 * grad_with(w))


class TestOneBlockProducts:
    """A one-block pass runs its products through np.dot on 2-D arrays, a pass
    of more blocks through the stacked np.matmul: both make one gemm call per
    64-row block, so a row gets the same bits from either."""

    @staticmethod
    def pass_in(params, x, y):
        ws = _Workspace.for_batch(params.config.layer_sizes, y)
        return ws, mlp_loss_and_grad(params, x, y, 3.0, None, True, True, ws)

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("classes", [2, 4, 9])
    @pytest.mark.parametrize("width", [1, 2, 16, 33, 245])
    def test_rows_match_the_same_rows_of_a_two_block_pass(self, rng, width, classes, act):
        params = random_params(rng, (3, width, width, classes), activation=act)
        x = rng.uniform(-1, 1, size=(128, 3))
        y = rng.integers(0, classes, size=128)
        both, whole = self.pass_in(params, x, y)
        assert both.acts[0].shape[0] == 128
        self.assert_param_grad_bits(params, whole.param_grad, both, np.arange(128))
        for rows in (np.arange(64), np.arange(64, 128), np.arange(64, 101)):
            one, res = self.pass_in(params, x[rows], y[rows])
            assert one.acts[0].shape[0] == 64
            m = len(rows)
            for got, want in zip([*one.acts[1:], res.input_grad], [*both.acts[1:], whole.input_grad]):
                assert got[:m].tobytes() == want[rows].tobytes()
            self.assert_param_grad_bits(params, res.param_grad, both, rows)

    @staticmethod
    def assert_param_grad_bits(params, param_grad, ws, rows):
        """`param_grad` is a vector of theta's size whose views hold each layer's parameter gradients,
        by the 2-D matmul and the row sum, on `rows` of that layer's input and of its masked upstream
        gradient in the workspace `ws`."""
        assert param_grad.shape == params.theta.shape
        views = _leaf_views(params.config.layer_sizes, param_grad)
        for i in range(params.config.num_layers):
            h, g = ws.acts[i][rows], ws.grads[i + 1][rows]
            assert views[2 * i].tobytes() == (h.T @ g).tobytes()
            assert views[2 * i + 1].tobytes() == g.sum(axis=0).tobytes()


class TestReusedWorkspace:
    """A workspace narrowed to a batch's labels: to as many rows, as the kept
    workspace is for a run of its shape, it is relabelled in place, and to
    fewer, as a PGD run's is when rows settle, its prefix. A pass in it
    keeps the bits of a pass in a new workspace. The runs that take the kept
    workspace make a new one only for another shape."""

    @staticmethod
    def assert_new_workspace_bits(params, ws, x, y, alpha, weights):
        got = mlp_loss_and_grad(params, x, y, alpha, weights, True, True, ws)
        want = mlp_loss_and_grad(params, x, y, alpha, weights, True, True,
                                 _Workspace.for_batch(params.config.layer_sizes, y))
        assert got.loss == want.loss
        for a, b in zip((got.logits, got.losses, got.input_grad, got.param_grad),
                        (want.logits, want.losses, want.input_grad, want.param_grad)):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("alpha", [1.0, 3.0])
    @pytest.mark.parametrize("classes", [2, 4, 33])
    @pytest.mark.parametrize("n", [64, 67])
    def test_relabelled_then_narrowed_and_back(self, rng, n, classes, alpha):
        params = random_params(rng, (2, 16, 16, classes), activation="relu")
        full = _Workspace.for_batch(params.config.layer_sizes, rng.integers(0, classes, size=n))

        def batch(m):
            return rng.uniform(0, 1, size=(m, 2)), rng.integers(0, classes, size=m), rng.uniform(0.1, 2, size=m)

        x, y, w = batch(n)
        ws = full.narrowed(y)
        assert ws is full
        self.assert_new_workspace_bits(params, ws, x, y, alpha, w)
        # Every label changes, so a stale one-hot entry or flat index would show.
        y = (y + rng.integers(1, classes, size=n)) % classes
        assert full.narrowed(y) is full
        self.assert_new_workspace_bits(params, full, x, y, alpha, w)
        m = n - 4 if n > 64 else n // 2  # 67 -> 63 rows: one 64-row block, on a prefix of two
        x, y, w = batch(m)
        short = full.narrowed(y)
        assert short.acts[0].shape[0] == -(-m // 64) * 64 and np.shares_memory(short.acts[0], full.acts[0])
        self.assert_new_workspace_bits(params, short, x, y, alpha, w)
        x, y, w = batch(n)
        assert full.narrowed(y) is full
        self.assert_new_workspace_bits(params, full, x, y, alpha, w)

    @staticmethod
    def assert_plan(ws, n):
        """The n-row views of `ws` are the first n rows of its own layer arrays, in memory and in value; its
        product, operands and zero operands are those of its row count; its row index is 0..n-1."""
        assert ws.sizes == tuple(a.shape[1] for a in ws.acts) and ws.rows.tobytes() == np.arange(n).tobytes()
        one_block = ws.acts[0].shape[0] == 64
        assert ws.mul is (np.dot if one_block else np.matmul)
        for full, views, ops in ((ws.acts, ws.act_rows, ws.act_ops), (ws.grads, ws.grad_rows, ws.grad_ops)):
            for a, v, op in zip(full, views, ops, strict=True):
                assert v.shape == (n, a.shape[1]) and v.ctypes.data == a.ctypes.data and np.shares_memory(v, a)
                assert v.tobytes() == a[:n].tobytes()
                assert op is a if one_block else (op.shape == (a.shape[0] // 64, 64, a.shape[1])
                                                  and op.ctypes.data == a.ctypes.data)
        assert len(ws.zeros) == len(ws.sizes) - 2
        for z, k in zip(ws.zeros, ws.sizes[1:-1]):
            assert z.shape == ((64, k) if one_block else ()) and not z.any() and not z.flags.writeable

    @pytest.mark.parametrize("n", [64, 67, 4000])
    def test_each_workspace_plans_its_own_rows(self, rng, n):
        # Taken, narrowed to fewer rows (67 -> 33 goes from two blocks to one), narrowed to as many,
        # and given back and taken again: each plan holds after a pass in it.
        params = random_params(rng, (2, 16, 16, 4), activation="relu")
        sizes = params.config.layer_sizes

        def after_pass(ws, m):
            x, y, w = rng.uniform(0, 1, size=(m, 2)), rng.integers(0, 4, size=m), rng.uniform(0.1, 2, size=m)
            ws = ws.narrowed(y)
            mlp_loss_and_grad(params, x, y, 1.0, w, True, True, ws)
            self.assert_plan(ws, m)
            return ws

        taken = after_pass(_Workspace.taken(sizes, n), n)
        after_pass(taken, n // 2)
        assert after_pass(taken, n) is taken
        taken.give_back()
        assert after_pass(_Workspace.taken(sizes, n), n) is taken

    def test_new_workspaces_only_for_new_shapes(self, rng, monkeypatch):
        made = []
        new = _Workspace.new.__func__
        monkeypatch.setattr(_Workspace, "new", classmethod(lambda cls, sizes, n: made.append(n) or new(cls, sizes, n)))
        inner = AttackConfig(epsilon=0.05, steps=3, step_size=0.0125, random_start=True)
        tc = TrainConfig(method="at", epochs=2, batch_size=64, learning_rate=0.1, inner_attack=inner)
        params, _ = train(MlpConfig((2, 16, 16, 2)), gen_two_moons(128, 0.1, seed=3), tc)
        # Per epoch: one for both batches' PGD runs and SGD passes, one for the natural accuracy on all 128 rows.
        assert made == [64, 128] * 2
        made.clear()
        x = rng.uniform(0, 1, size=(100, 2))
        for p in (params, params, random_params(rng, (2, 16, 16, 2), activation="tanh")):
            mlp_forward(p, x)
        assert made == [100]


    def test_a_large_workspace_is_not_kept(self, rng):
        # A 200,000-row predict's layer arrays are 15 M entries; a 4000-row run's, 306,432, are kept.
        params = random_params(rng, (2, 16, 16, 4), activation="relu")
        predict(params, Tensor(rng.uniform(0, 1, size=(200_000, 2))))
        assert tensor._kept[0] is None
        x, y = Tensor(rng.uniform(0, 1, size=(4000, 2))), rng.integers(0, 4, size=4000)
        pgd_attack(params, x, y, AttackConfig(epsilon=0.05, steps=3, step_size=0.0125), domain=DomainBox.unit(2))
        assert tensor._kept[0] is not None and tensor._kept[0].acts[0].shape == (4032, 2)


class _NanFilled:
    """numpy, except that `empty` and `empty_like` fill every byte of their
    arrays with 0xFF: a NaN in each float, -1 in each integer."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def _filled(a):
        (a if a.flags.c_contiguous else a.T).view(np.uint8).fill(0xFF)
        return a

    def empty(self, *args, **kwargs):
        return self._filled(np.empty(*args, **kwargs))

    def empty_like(self, *args, **kwargs):
        return self._filled(np.empty_like(*args, **kwargs))


class TestUnwrittenEntries:
    """Workspaces, layer arrays and bias tiles come from `np.empty`; only the
    padding of the input and of the upstream gradient is zeroed. With every
    new array of the tensor and attack modules filled with NaN, each output
    keeps its bits and every pass finds that padding zero: no pass reads an
    entry it has not written. Each run starts with no kept workspace, so
    that its workspaces are new."""

    SIZES = (1, 64, 65, 4000)

    @staticmethod
    def twice(monkeypatch, run):
        """run() as it is, then with the new arrays filled with NaN and every
        pass checked for zero padding."""

        def padding_is_zero(acts, grads, n):
            assert not acts[0][n:].any() and (grads is None or not grads[-1][n:].any())

        def forward(params, x, ws):
            padding_is_zero(ws.acts, None, x.shape[0])
            return tensor_forward(params, x, ws)

        def loss_and_grad(params, x, *args, **kwargs):
            step = tensor_loss_and_grad(params, x, *args, **kwargs)
            ws = kwargs.get("ws", args[5] if len(args) > 5 else None)
            if ws is not None:  # after the pass: it wrote neither
                padding_is_zero(ws.acts, ws.grads, x.shape[0])
            return step

        tensor_forward, tensor_loss_and_grad = tensor._forward, tensor.mlp_loss_and_grad
        want = run()
        tensor._take_kept()
        for module in (tensor, attacks):
            monkeypatch.setattr(module, "np", _NanFilled())
            monkeypatch.setattr(module, "_forward", forward)
        for module in (tensor, attacks, training):
            monkeypatch.setattr(module, "mlp_loss_and_grad", loss_and_grad)
        got = run()
        monkeypatch.undo()
        return got, want

    @staticmethod
    def assert_same_bits(got, want):
        for a, b in zip(got, want, strict=True):
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())

    @pytest.mark.parametrize("n", SIZES)
    def test_mlp_forward(self, rng, monkeypatch, n):
        params = random_params(rng, (2, 16, 16, 4), activation="relu")
        x = rng.uniform(0, 1, size=(n, 2))
        got, want = self.twice(monkeypatch, lambda: tensor.mlp_forward(params, x))
        self.assert_same_bits([got], [want])

    @pytest.mark.parametrize("classes", [4, 33])
    @pytest.mark.parametrize("n", SIZES)
    def test_the_sgd_pass(self, rng, monkeypatch, classes, n):
        # In a workspace for a larger batch, narrowed to this one's labels, after a pass with
        # other params, as a PGD run's passes are once rows settle.
        before, params = (random_params(rng, (2, 16, 16, classes), activation="tanh") for _ in range(2))
        x, y, w = rng.uniform(0, 1, size=(n, 2)), rng.integers(0, classes, size=n), rng.uniform(0.1, 2, size=n)
        other = rng.integers(0, classes, size=n + 70)

        def run():
            ws = _Workspace.for_batch(params.config.layer_sizes, other)
            tensor.mlp_loss_and_grad(before, rng.uniform(0, 1, size=(n + 70, 2)), other, 1.0, None, True, True, ws)
            step = tensor.mlp_loss_and_grad(params, x, y, 1.0, w, True, True, ws.narrowed(y))
            return [step.logits, step.losses, np.array(step.loss), step.input_grad, step.param_grad, step.correct]

        got, want = self.twice(monkeypatch, run)
        self.assert_same_bits(got, want)
        fresh = tensor.mlp_loss_and_grad(params, x, y, 1.0, w, True, True)  # in a new workspace
        self.assert_same_bits(want, [fresh.logits, fresh.losses, np.array(fresh.loss), fresh.input_grad,
                                     fresh.param_grad, fresh.correct])

    @pytest.mark.parametrize("classes", [4, 33])
    @pytest.mark.parametrize("n", SIZES)
    def test_pgd_runs(self, rng, monkeypatch, classes, n):
        params = random_params(rng, (2, 16, 16, classes), activation="relu")
        x0, y = Tensor(rng.uniform(0, 1, size=(n, 2))), rng.integers(0, classes, size=n)
        cfg = AttackConfig(epsilon=0.05, steps=8, step_size=0.01, restarts=3, alpha=0.5, random_start=True)

        def run():
            res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=4, friendly_slack=1)
            return [getattr(res, f.name) for f in fields(res)]

        got, want = self.twice(monkeypatch, run)
        self.assert_same_bits(*([a.data if isinstance(a, Tensor) else a for a in r] for r in (got, want)))

    def test_train(self, monkeypatch):
        # Batch 67 on 130 points: each epoch's batches take two blocks, then one.
        inner = AttackConfig(epsilon=0.05, steps=5, step_size=0.0125, random_start=True)
        cfg = TrainConfig(method="gairat", epochs=3, batch_size=67, learning_rate=0.1, seed=2, inner_attack=inner,
                          burn_in_epochs=1, omega_lambda=0.0)
        data = gen_two_moons(130, 0.1, seed=21)
        got, want = self.twice(monkeypatch, lambda: train(MlpConfig((2, 16, 16, 2)), data, cfg))
        self.assert_same_bits([t.data for t in got[0].leaves()], [t.data for t in want[0].leaves()])
        assert got[1] == want[1]


def _digest(outputs) -> str:
    """One sha256 of a list of arrays, Tensors and None: each one's dtype, shape and bytes."""
    h = hashlib.sha256()
    for a in outputs:
        a = a.data if isinstance(a, Tensor) else a
        h.update(b"None" if a is None else f"{a.dtype.str} {a.shape}".encode() + a.tobytes())
    return h.hexdigest()


def reuse_cases() -> dict:
    """Runs that take and give back kept workspaces, each a function returning its outputs."""
    rng = np.random.default_rng(31)
    relu, tanh = (random_params(rng, (2, 16, 16, 4), activation=kind) for kind in ("relu", "tanh"))
    box = DomainBox.unit(2)

    def attack(params, n, cfg, seed):
        x0, y = Tensor(rng.uniform(0, 1, size=(n, 2))), rng.integers(0, 4, size=n)

        def run():
            res = pgd_attack(params, x0, y, cfg, domain=box, seed=seed, friendly_slack=1)
            return [getattr(res, f.name) for f in fields(res)]
        return run

    def sgd_pass():
        # As `train` runs it: in the workspace `for_batch` hands out, given back after the pass.
        x, y, w = rng.uniform(0, 1, size=(64, 2)), rng.integers(0, 4, size=64), rng.uniform(0.1, 2, size=64)

        def run():
            ws = _Workspace.for_batch(tanh.config.layer_sizes, y)
            step = tensor.mlp_loss_and_grad(tanh, x, y, 1.0, w, True, True, ws)
            out = [step.logits.copy(), step.losses, np.array(step.loss), step.input_grad.copy(), step.param_grad,
                   step.correct]
            ws.give_back()
            return out
        return run

    def forward(n):
        x = rng.uniform(0, 1, size=(n, 2))
        return lambda: [mlp_forward(relu, x)]

    def training(batch_size):
        inner = AttackConfig(epsilon=0.05, steps=5, step_size=0.0125, random_start=True)
        cfg = TrainConfig(method="gairat", epochs=3, batch_size=batch_size, learning_rate=0.1, seed=2,
                          inner_attack=inner, burn_in_epochs=1, omega_lambda=0.0, fat_slack=1,
                          gairat_crafting="fat")
        data = gen_two_moons(130, 0.1, seed=21)

        def run():
            params, history = train(MlpConfig((2, 16, 16, 2)), data, cfg)
            return [*params.leaves(), np.frombuffer(repr(history).encode(), dtype=np.uint8)]
        return run

    pgd20 = AttackConfig(epsilon=0.05, steps=20, step_size=0.0125, random_start=True)
    pgdplus = AttackConfig(epsilon=0.05, steps=20, step_size=0.01, restarts=5, alpha=3.0, random_start=True)
    return {
        "pgd-one-block": attack(relu, 50, pgd20, 4),  # one 64-row pass: it never shrinks
        "pgd-20-stacked": attack(tanh, 20, pgdplus, 5),  # 3, then 2, restarts per 64-row pass
        "pgd-800-shrinking": attack(relu, 800, pgdplus, 6),
        "sgd-pass": sgd_pass(),
        "mlp-forward-65": forward(65),
        "mlp-forward-4000": forward(4000),
        "train-64": training(64),  # batches of 64, 64 and 2 rows
        "train-67": training(67),  # batches of 67 and 63 rows
    }


@pytest.fixture(scope="module")
def fresh_process_digests():
    """Each `reuse_cases` run's digest from a new process, every run from an empty slot."""
    code = ("import json, test_tensor as t\n"
            "from robustlab.tensor import _take_kept\n"
            "digests = {}\n"
            "for name, run in t.reuse_cases().items():\n"
            "    _take_kept()\n"
            "    digests[name] = t._digest(run())\n"
            "print(json.dumps(digests))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=300,
                          env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def _dirty(ws: _Workspace) -> None:
    """Fill with NaN bytes every entry of `ws` that a pass writes before it reads it: all but the
    padding rows of the input and of the upstream gradient, and the bias tiles, which stay those
    of `ws.tiled[0]`."""
    n = ws.flat.shape[0]
    for a in (ws.acts[0][:n], ws.grads[-1][:n], *ws.acts[1:], *ws.grads[:-1], ws.logp, ws.exps, ws.onehot, ws.flat):
        _NanFilled._filled(a)


class TestDirtyReuse:
    """A kept workspace holds whatever its last run left. With every entry
    a pass must write first filled with NaN bytes at each give-back, a run
    that reuses it keeps the bits a new process gives."""

    @pytest.mark.parametrize("name", list(reuse_cases()))
    def test_matches_a_fresh_process(self, monkeypatch, fresh_process_digests, name):
        run = reuse_cases()[name]
        given = []
        give_back = _Workspace.give_back

        def dirty_give_back(ws):
            _dirty(ws)
            given.append(ws)
            give_back(ws)

        monkeypatch.setattr(_Workspace, "give_back", dirty_give_back)
        for _ in range(3):
            assert _digest(run()) == fresh_process_digests[name]
        # Some workspace was given back, taken and given back again: reuse happened.
        assert len({id(ws) for ws in given}) < len(given)


class TestNothingReturnedAliasesTheKeptWorkspace:
    """Outputs keep their bytes while later passes reuse the kept workspace."""

    @staticmethod
    def snapshot(outputs):
        return [None if a is None else (a.data if isinstance(a, Tensor) else a).tobytes() for a in outputs]

    def test_logits_predictions_attack_results_and_trained_params(self, rng):
        params = random_params(rng, (2, 16, 16, 4), activation="relu")
        cfg = AttackConfig(epsilon=0.05, steps=10, step_size=0.0125, restarts=2, random_start=True)
        inner = AttackConfig(epsilon=0.05, steps=3, step_size=0.0125, random_start=True)
        data = gen_two_moons(128, 0.1, seed=3)
        tc = TrainConfig(method="at", epochs=2, batch_size=64, learning_rate=0.1, inner_attack=inner)

        def outputs(seed):
            x = Tensor(np.random.default_rng(seed).uniform(0, 1, size=(64, 2)))
            res = pgd_attack(params, x, np.arange(64) % 4, cfg, domain=DomainBox.unit(2), seed=seed, friendly_slack=0)
            trained, _ = train(MlpConfig((2, 16, 16, 2), init_seed=seed), data, tc)
            return [forward_logits(params, x), predict(params, x), *(getattr(res, f.name) for f in fields(res)),
                    *trained.leaves()]

        first = outputs(1)
        kept = self.snapshot(first)
        assert kept != self.snapshot(outputs(2))  # the same shapes, other values, in the same workspaces
        assert self.snapshot(first) == kept

    def test_two_threads_give_the_sequential_results(self, rng):
        params = random_params(rng, (2, 16, 16, 4), activation="tanh")
        cfg = AttackConfig(epsilon=0.05, steps=10, step_size=0.0125, restarts=3, random_start=True)
        # Batches of one shape, so that each thread's runs fit the workspace the other gives back.
        batches = [(Tensor(rng.uniform(0, 1, size=(64, 2))), rng.integers(0, 4, size=64)) for _ in range(4)]

        def results(x, y):
            res = pgd_attack(params, x, y, cfg, domain=DomainBox.unit(2), seed=3, friendly_slack=1)
            return self.snapshot(getattr(res, f.name) for f in fields(res))

        want = [results(*b) for b in batches]
        got = [[], []]

        def worker(k):
            for _ in range(10):
                got[k].append([results(*b) for b in batches[k::2]])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(2):
            assert got[k] == [want[k::2]] * 10


class TestReductions:
    def test_weighted_mean_value(self):
        # identity logits: losses are the closed-form 2-class cross-entropies
        params = linear_model(np.eye(2), [0.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        res = mlp_loss_and_grad(params, x, np.array([0, 0, 0]), 1.0, np.ones(3), False, False)
        assert res.loss == pytest.approx((LN_1P_EXP_NEG1 + np.log(2.0) + np.log1p(np.e)) / 3)


class TestCorrect:
    """`LossAndGrad.correct` is argmax's verdict on every pass, whether the
    pass reads it off the head's exponentials or takes argmax."""

    @staticmethod
    def tied_params(classes, ulps):
        # Classes 0 and 1 share their weights; their biases are equal (ulps 0) or 2 ulps apart per
        # unit of ulps, class 1 above on ulps > 0, and both raised by 1 to hold the row max in most rows.
        p = random_params(np.random.default_rng(3), (2, 16, classes), "relu")
        w, b = [t.data.copy() for t in p.weights], [t.data.copy() for t in p.biases]
        w[-1][:, 1] = w[-1][:, 0]
        b[-1][0] += 1.0
        b[-1][1] = b[-1][0] + 2 * ulps * np.spacing(b[-1][0])
        return make_params(p.config, w, b)

    @pytest.mark.parametrize("kind", ["pgd", "sgd"])
    @pytest.mark.parametrize("classes", [2, 4, 33])
    @pytest.mark.parametrize("ulps, alpha, ties", [
        (0, 1.0, True), (-2, 0.01, True), (2, 0.01, True), (-2, 1.0, False),
    ], ids=["exact-tie", "near-tie-lower-index-above", "near-tie-higher-index-above", "apart-at-alpha-1"])
    @pytest.mark.parametrize("n", [1, 64, 65, 4000])
    def test_is_argmax(self, kind, classes, ulps, alpha, ties, n):
        params = self.tied_params(classes, ulps)
        rng = np.random.default_rng(n)
        x, lab = rng.uniform(0, 1, size=(n, 2)), rng.choice([0, 1, 0, 1, classes - 1], size=n)
        sizes = params.config.layer_sizes
        if kind == "pgd":  # as `pgd_attack` runs it: the run's own workspace, input gradient only
            step = mlp_loss_and_grad(params, x, lab, alpha, None, True, False, _Workspace.for_batch(sizes, lab))
        else:  # as `train` runs it: weights, parameter gradients, a larger batch's workspace narrowed to this one
            ws = _Workspace.for_batch(sizes, rng.integers(0, classes, size=n + 70)).narrowed(lab)
            step = mlp_loss_and_grad(params, x, lab, alpha, rng.uniform(0.1, 2, n), False, True, ws)
        want = step.logits.argmax(axis=1) == lab
        assert (step.correct.dtype, step.correct.shape) == (want.dtype, want.shape)
        assert step.correct.tobytes() == want.tobytes()
        # The head's exponentials, as it computes them: a tie gives some wrong row a label entry of 1.0.
        logits = np.asfortranarray(step.logits)
        exps = np.empty_like(logits)
        _log_softmax(logits, alpha, np.empty_like(logits), exps)
        misread = np.count_nonzero((exps[np.arange(n), lab] == 1.0) & ~want)
        assert misread > 0 or not (ties and n == 4000)
