"""Tensor core: forward ops, the scale-aware loss, and the fused reverse pass."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab.errors import ParameterError, ShapeError
from robustlab.model import MlpConfig, forward_logits
from robustlab.tensor import (
    Tensor,
    _activate,
    mlp_forward,
    mlp_loss_and_grad,
    scaled_softmax,
    scaled_softmax_cross_entropy,
)

from conftest import fd_max_rel_error, linear_model, make_params, per_op_grads, random_params

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
    """The first layer's activation output for inputs `values` through a unit weight."""
    params = make_params(MlpConfig((1, 1, 2), activation=kind), [[[1.0]], [[0.0, 0.0]]], [[0.0], [0.0, 0.0]])
    return mlp_forward(params, np.array(values, dtype=float).reshape(-1, 1))[1].reshape(-1)


class TestActivation:
    def test_relu_sign_cases(self):
        np.testing.assert_array_equal(hidden_output("relu", [-1.0, 0.0, 2.0]), [0.0, 0.0, 2.0])

    def test_tanh_origin(self):
        assert hidden_output("tanh", [0.0])[0] == 0.0

    def test_tanh_high_precision(self):
        assert abs(hidden_output("tanh", [0.5])[0] - TANH_HALF) < 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ParameterError):
            _activate(np.array([1.0]), "gelu")


class TestScaledCrossEntropy:
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 10.0, 100.0])
    def test_equal_logits_gives_ln_c(self, alpha):
        logits = Tensor(np.full((3, 4), 1.7))
        losses = scaled_softmax_cross_entropy(logits, np.array([0, 1, 3]), alpha)
        np.testing.assert_allclose(losses.data, LN_4, rtol=0, atol=1e-12)

    def test_two_class_closed_form(self):
        losses = scaled_softmax_cross_entropy(Tensor([[1.0, 0.0]]), np.array([0]), 1.0)
        assert abs(losses.data[0] - LN_1P_EXP_NEG1) < 1e-12

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 10.0, 100.0])
    def test_argmax_scale_invariance(self, alpha):
        probs = scaled_softmax(Tensor([[2.0, 1.0]]), alpha)
        assert np.argmax(probs.data[0]) == 0

    def test_alpha_must_be_positive(self):
        logits = Tensor([[1.0, 2.0]])
        for bad in (0.0, -1.0, np.nan):
            with pytest.raises(ParameterError):
                scaled_softmax_cross_entropy(logits, np.array([0]), bad)

    def test_label_out_of_range(self):
        logits = Tensor([[1.0, 2.0]])
        with pytest.raises(IndexError):
            scaled_softmax_cross_entropy(logits, np.array([2]), 1.0)
        with pytest.raises(IndexError):
            scaled_softmax_cross_entropy(logits, np.array([-1]), 1.0)

    def test_non_integer_labels_rejected(self):
        with pytest.raises(ParameterError):
            scaled_softmax_cross_entropy(Tensor([[1.0, 2.0]]), np.array([0.0]), 1.0)


class TestSoftmaxProperties:
    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=8),
        st.sampled_from([1e-6, 0.01, 1.0, 10.0, 100.0]),
    )
    @settings(max_examples=200, deadline=None)
    def test_sums_to_one(self, logits, alpha):
        probs = scaled_softmax(Tensor([logits]), alpha)
        assert abs(probs.data.sum() - 1.0) < 1e-12

    def test_sums_to_one_extreme_spread(self):
        probs = scaled_softmax(Tensor([[1e300, -1e300, 0.0]]), 100.0)
        assert abs(probs.data.sum() - 1.0) < 1e-12

    def test_max_probability_nondecreasing_in_alpha(self, rng):
        for _ in range(20):
            logits = Tensor([rng.uniform(-3, 3, size=5)])
            alphas = np.logspace(-6, 2, 30)
            maxima = [scaled_softmax(logits, a).data.max() for a in alphas]
            assert all(b >= a - 1e-12 for a, b in zip(maxima, maxima[1:]))

    def test_flattens_to_uniform_at_tiny_alpha(self, rng):
        # O(1) logits: the deviation from 1/C at alpha=1e-6 is O(alpha).
        for c in (2, 3, 5, 8):
            logits = Tensor([rng.uniform(-1, 1, size=c)])
            assert abs(scaled_softmax(logits, 1e-6).data.max() - 1.0 / c) < 1e-6

    def test_argmax_matches_logits_argmax(self, rng):
        for _ in range(50):
            logits = rng.uniform(-1, 1, size=(1, 6))
            for alpha in (1e-6, 0.01, 1.0, 10.0, 100.0):
                probs = scaled_softmax(Tensor(logits), alpha)
                assert np.argmax(probs.data[0]) == np.argmax(logits[0])

    def test_ties_and_signed_zeros_keep_the_axis_max_bits(self):
        # The row max is a running maximum over the columns; with equal
        # entries and zeros of both signs it must give the bits that
        # max(axis=1) gives.
        z = np.array([[0.0, -0.0, -1.0], [-0.0, 0.0, 0.0], [2.0, 2.0, -0.0], [-3.0, -3.0, -3.0], [-0.0, -7.5, 1e-300]])
        for alpha in (0.01, 1.0, 100.0):
            shifted = alpha * (z - z.max(axis=1, keepdims=True))
            logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
            np.testing.assert_array_equal(scaled_softmax(Tensor(z), alpha).data, np.exp(logp))
            for label in range(3):
                y = np.full(len(z), label)
                got = scaled_softmax_cross_entropy(Tensor(z), y, alpha).data
                np.testing.assert_array_equal(got.view(np.uint64), (-logp[:, label]).view(np.uint64))

    def test_tie_resolution_lowest_index(self):
        probs = scaled_softmax(Tensor([[3.0, 3.0, 1.0]]), 1.0)
        assert np.argmax(probs.data[0]) == 0


def _relu_net(w0, b0):
    """2 -> hidden relu -> 2 net whose output layer sums the hidden units into class 0."""
    w0 = np.asarray(w0, dtype=float)
    hidden = w0.shape[1]
    w1 = np.zeros((hidden, 2))
    w1[:, 0] = 1.0
    config = MlpConfig(layer_sizes=(w0.shape[0], hidden, 2), activation="relu")
    return make_params(config, [w0, w1], [np.asarray(b0, dtype=float), np.zeros(2)])


class TestBackward:
    def test_sum_gradient_is_ones(self, rng):
        # The sum reduction gives every example upstream gradient exactly 1:
        # the same as the weighted mean with every weight equal to n.
        params = random_params(rng, (3, 4, 3))
        x = rng.uniform(-1, 1, size=(5, 3))
        y = rng.integers(0, 3, size=5)
        summed = mlp_loss_and_grad(params, x, y, 2.0, None, True, True)
        as_mean = mlp_loss_and_grad(params, x, y, 2.0, np.full(5, 5.0), True, True)
        assert summed.loss == summed.losses.sum()
        for a, b in zip(summed.param_grads + (summed.input_grad,), as_mean.param_grads + (as_mean.input_grad,)):
            np.testing.assert_array_equal(a, b)

    def test_dead_relu_unit_gets_zero_gradient(self):
        # hidden unit 0 has pre-activation -5, unit 1 has +2
        params = _relu_net([[1.0, 1.0]], [-6.0, 1.0])
        res = mlp_loss_and_grad(params, np.array([[1.0]]), np.array([1]), 1.0, None, True, True)
        gw0, gb0 = res.param_grads[:2]
        assert gw0[0, 0] == 0.0 and gb0[0] == 0.0
        assert gw0[0, 1] != 0.0 and gb0[1] != 0.0

    def test_relu_gradient_zero_at_exactly_zero(self):
        params = _relu_net([[1.0]], [-1.0])
        res = mlp_loss_and_grad(params, np.array([[1.0]]), np.array([1]), 1.0, None, True, True)
        assert res.param_grads[0][0, 0] == 0.0
        assert res.param_grads[1][0] == 0.0
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
            return list(res.param_grads) + [res.input_grad]

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
        for got, want in zip(list(res.param_grads) + [res.input_grad], per_op_grads(params, x, y, 3.0, weights)):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 2, 801])
    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("sizes", [(2, 16, 16, 4), (24, 1, 5, 2), (1, 9, 10)], ids=["readme", "width1", "10class"])
    def test_matches_per_op_pass_at_every_width_and_batch(self, rng, sizes, act, n):
        # The fused forward pass runs einsum on Fortran-ordered operands (a
        # width-1 layer on C-ordered ones) and takes the row max column by
        # column; logits, losses and gradients must keep the bits of the
        # C-ordered einsum and the axis-1 max at every width and batch size.
        params = random_params(rng, sizes, activation=act)
        x = rng.uniform(-1, 1, size=(n, sizes[0]))
        x[0, 0] = 0.0
        y = rng.integers(0, sizes[-1], size=n)
        res = mlp_loss_and_grad(params, x, y, 3.0, None, True, True)
        h = x
        for i, (w, b) in enumerate(zip(params.weights, params.biases)):
            h = np.einsum("ij,jk->ik", h, w.data) + b.data
            if i < len(sizes) - 2:
                h = np.maximum(h, 0.0) if act == "relu" else np.tanh(h)
        shifted = 3.0 * (h - h.max(axis=1, keepdims=True))
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        np.testing.assert_array_equal(res.logits, h)
        np.testing.assert_array_equal(res.losses, -logp[np.arange(n), y])
        for got, want in zip(list(res.param_grads) + [res.input_grad], per_op_grads(params, x, y, 3.0)):
            np.testing.assert_array_equal(got, want)

    def test_gradients_asked_for_alone_are_bit_identical(self, rng):
        params = random_params(rng, (3, 6, 3))
        x = rng.uniform(-1, 1, size=(4, 3))
        y = rng.integers(0, 3, size=4)
        both = mlp_loss_and_grad(params, x, y, 2.0, None, True, True)
        only_input = mlp_loss_and_grad(params, x, y, 2.0, None, True, False)
        only_params = mlp_loss_and_grad(params, x, y, 2.0, None, False, True)
        none = mlp_loss_and_grad(params, x, y, 2.0, None, False, False)
        assert only_input.param_grads is None and only_params.input_grad is None
        assert none.input_grad is None and none.param_grads is None
        np.testing.assert_array_equal(only_input.input_grad, both.input_grad)
        for a, b in zip(only_params.param_grads, both.param_grads):
            np.testing.assert_array_equal(a, b)
        for res in (only_input, only_params, none):
            np.testing.assert_array_equal(res.losses, both.losses)
            assert res.loss == both.loss

    def test_logits_and_losses_match_the_forward_ops(self, rng):
        params = random_params(rng, (3, 5, 3), activation="relu")
        x = Tensor(rng.uniform(-1, 1, size=(6, 3)))
        y = rng.integers(0, 3, size=6)
        res = mlp_loss_and_grad(params, x.data, y, 0.5, None, False, False)
        logits = forward_logits(params, x)
        np.testing.assert_array_equal(res.logits, logits.data)
        np.testing.assert_array_equal(res.losses, scaled_softmax_cross_entropy(logits, y, 0.5).data)

    @pytest.mark.parametrize("act", ["relu", "tanh"])
    @pytest.mark.parametrize("n", [64, 800, 4000])
    def test_input_gradient_of_a_row_subset_is_bit_identical(self, rng, act, n):
        # Attacking only some rows of a batch (ROADMAP item 3) relies on
        # this, at the README model's shapes and the sweeps' batch sizes.
        # 1-row batches are not pinned: BLAS takes gemv there, whose last
        # bits differ; a batch-invariant reverse kernel (ROADMAP item 2)
        # is still open.
        params = random_params(rng, (2, 16, 16, 4), activation=act)
        x = rng.uniform(0, 1, size=(n, 2))
        y = rng.integers(0, 4, size=n)
        full = mlp_loss_and_grad(params, x, y, 3.0, None, True, False).input_grad
        for size in (2, 3, 5, 17, n // 2, n - 1):
            rows = np.sort(rng.choice(n, size=size, replace=False))
            sub = mlp_loss_and_grad(params, x[rows], y[rows], 3.0, None, True, False).input_grad
            np.testing.assert_array_equal(sub, full[rows])

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


class TestReductions:
    def test_weighted_mean_value(self):
        # identity logits: losses are the closed-form 2-class cross-entropies
        params = linear_model(np.eye(2), [0.0, 0.0])
        x = np.array([[1.0, 0.0], [0.0, 0.0], [0.0, 1.0]])
        res = mlp_loss_and_grad(params, x, np.array([0, 0, 0]), 1.0, np.ones(3), False, False)
        assert res.loss == pytest.approx((LN_1P_EXP_NEG1 + np.log(2.0) + np.log1p(np.e)) / 3)
