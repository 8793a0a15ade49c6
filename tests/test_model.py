"""MLP init, forward, predict, and the checkpoint format."""
import math

import numpy as np
import pytest

from robustlab.errors import ParameterError, ParseError, SchemaError, ShapeError
from robustlab.model import (
    MlpConfig,
    MlpParams,
    forward_logits,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from robustlab.tensor import Tensor

from conftest import linear_model, make_params


class TestConfig:
    def test_needs_two_sizes(self):
        with pytest.raises(ParameterError):
            MlpConfig(layer_sizes=(4,))

    def test_needs_two_classes(self):
        with pytest.raises(ParameterError):
            MlpConfig(layer_sizes=(4, 1))

    def test_positive_sizes(self):
        with pytest.raises(ParameterError):
            MlpConfig(layer_sizes=(4, 0, 2))

    def test_unknown_activation(self):
        with pytest.raises(ParameterError):
            MlpConfig(layer_sizes=(2, 2), activation="sigmoid")

    def test_layer_size_bound(self):
        MlpConfig(layer_sizes=(2, 2**23, 2))  # 2**24 entries per weight matrix: the most allowed
        with pytest.raises(ParameterError, match="more than 16777216 entries"):
            MlpConfig(layer_sizes=(2, 32, 2**19 + 1))


class TestInit:
    def test_same_seed_bit_identical(self):
        cfg = MlpConfig((3, 8, 2), init_seed=99)
        a, b = init_params(cfg), init_params(cfg)
        for ta, tb in zip(a.leaves(), b.leaves()):
            np.testing.assert_array_equal(ta.data, tb.data)

    def test_different_seed_differs(self):
        a = init_params(MlpConfig((3, 8, 2), init_seed=1))
        b = init_params(MlpConfig((3, 8, 2), init_seed=2))
        assert not np.array_equal(a.weights[0].data, b.weights[0].data)

    def test_biases_exactly_zero(self):
        params = init_params(MlpConfig((3, 8, 4), init_seed=0))
        for b in params.biases:
            np.testing.assert_array_equal(b.data, np.zeros_like(b.data))

    def test_weights_within_glorot_bound(self):
        params = init_params(MlpConfig((6, 10, 2), init_seed=5))
        bound = math.sqrt(6.0 / (6 + 10))
        assert np.all(np.abs(params.weights[0].data) <= bound)

    def test_sample_mean_moment_bound(self):
        # uniform(-a, a): std of the mean of n samples is a / sqrt(3 n)
        params = init_params(MlpConfig((512, 512, 2), init_seed=7))
        w = params.weights[0].data
        bound = math.sqrt(6.0 / (512 + 512))
        n = w.size
        assert abs(w.mean()) < 3 * bound / math.sqrt(3 * n)


class TestForward:
    def test_zero_params_zero_logits(self):
        params = make_params(
            MlpConfig((2, 3, 2)), [np.zeros((2, 3)), np.zeros((3, 2))], [np.zeros(3), np.zeros(2)]
        )
        out = forward_logits(params, Tensor([[0.3, 0.7]]))
        np.testing.assert_array_equal(out.data, np.zeros((1, 2)))

    def test_single_layer_equals_linear(self, rng):
        w, b = rng.standard_normal((3, 2)), rng.standard_normal(2)
        params = linear_model(w, b)
        x = rng.standard_normal((4, 3))
        # no activation on the last layer: exactly the einsum affine map
        np.testing.assert_array_equal(
            forward_logits(params, Tensor(x)).data, np.einsum("ij,jk->ik", x, w) + b
        )

    def test_two_layer_matches_hand_rolled_oracle(self, rng):
        w0, b0 = rng.standard_normal((3, 5)), rng.standard_normal(5)
        w1, b1 = rng.standard_normal((5, 2)), rng.standard_normal(2)
        params = make_params(MlpConfig((3, 5, 2), activation="relu"), [w0, w1], [b0, b1])
        x = rng.standard_normal((6, 3))
        hidden = np.maximum(x @ w0 + b0, 0.0)
        expected = hidden @ w1 + b1
        got = forward_logits(params, Tensor(x)).data
        np.testing.assert_allclose(got, expected, rtol=0, atol=1e-12)

    def test_dimension_mismatch(self):
        params = init_params(MlpConfig((3, 2), init_seed=0))
        with pytest.raises(ShapeError):
            forward_logits(params, Tensor(np.zeros((4, 5))))

    def test_batch_equals_per_example_concat(self, rng):
        params = init_params(MlpConfig((3, 7, 4), activation="tanh", init_seed=2))
        x = rng.uniform(-1, 1, (5, 3))
        full = forward_logits(params, Tensor(x)).data
        rows = [forward_logits(params, Tensor(x[i:i + 1])).data[0] for i in range(5)]
        np.testing.assert_array_equal(full, np.stack(rows))


class TestPredict:
    def test_simple_argmax(self):
        params = linear_model(np.eye(2), [0.0, 0.0])
        assert predict(params, Tensor([[3.0, 1.0]]))[0] == 0

    def test_tie_goes_to_lowest_index(self):
        params = linear_model(np.eye(2), [0.0, 0.0])
        assert predict(params, Tensor([[1.0, 1.0]]))[0] == 0

    def test_scale_invariance(self, rng):
        w, b = rng.standard_normal((3, 4)), rng.standard_normal(4)
        x = Tensor(rng.standard_normal((10, 3)))
        base = predict(linear_model(w, b), x)
        scaled = predict(linear_model(10.0 * w, 10.0 * b), x)
        np.testing.assert_array_equal(base, scaled)


class TestCheckpoint:
    def _params(self, rng, sizes=(2, 3, 2)):
        cfg = MlpConfig(sizes, activation="tanh", init_seed=11)
        params = init_params(cfg)
        # perturb so values are not round numbers
        return make_params(
            cfg,
            [w.data + rng.standard_normal(w.shape) for w in params.weights],
            [b.data + rng.standard_normal(b.shape) for b in params.biases],
        )

    def test_round_trip_bit_exact(self, rng, tmp_path):
        params = self._params(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, {"method": "at", "epochs": "3"}, path)
        ckpt = load_checkpoint(path)
        assert ckpt.config == params.config
        assert ckpt.metadata == {"method": "at", "epochs": "3"}
        for a, b in zip(ckpt.params.leaves(), params.leaves()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_truncated_file_is_parse_error(self, rng, tmp_path):
        params = self._params(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, {}, path)
        text = path.read_text()
        (tmp_path / "t.ckpt").write_text(text[: len(text) // 2])
        with pytest.raises(ParseError):
            load_checkpoint(tmp_path / "t.ckpt")

    def test_parse_error_carries_line_and_offset(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("MLPCKPT v1\nconfig layer_sizes=2,2 activation=relu init_seed=0\nw0 2x2 1 2 oops 4\nb0 2 0 0\n")
        with pytest.raises(ParseError) as exc:
            load_checkpoint(path)
        assert exc.value.line == 3
        assert exc.value.offset == len("MLPCKPT v1\nconfig layer_sizes=2,2 activation=relu init_seed=0\n")

    def test_config_over_the_layer_size_bound_is_parse_error(self, tmp_path):
        path = tmp_path / "big.ckpt"
        path.write_text("MLPCKPT v1\nconfig layer_sizes=2,32,1000000000000 activation=relu init_seed=0\n")
        with pytest.raises(ParseError, match="more than 16777216 entries") as exc:
            load_checkpoint(path)
        assert exc.value.line == 2

    def test_bad_header(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text("NOTACKPT\n")
        with pytest.raises(ParseError):
            load_checkpoint(path)

    def test_shape_conflict_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(
            "MLPCKPT v1\n"
            "config layer_sizes=2,2 activation=relu init_seed=0\n"
            "w0 2x3 1 2 3 4 5 6\n"
            "b0 2 0 0\n"
        )
        with pytest.raises(SchemaError, match=r"2, 2"):
            load_checkpoint(path)

    def test_expected_config_mismatch_names_both(self, rng, tmp_path):
        params = self._params(rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(params, {}, path)
        other = MlpConfig((2, 4, 2), activation="relu", init_seed=0)
        with pytest.raises(SchemaError, match="does not match expected"):
            load_checkpoint(path, expected_config=other)

    def test_non_finite_value_is_schema_error(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        path.write_text(
            "MLPCKPT v1\n"
            "config layer_sizes=2,2 activation=relu init_seed=0\n"
            "w0 2x2 1 inf 3 4\n"
            "b0 2 0 0\n"
        )
        with pytest.raises(SchemaError):
            load_checkpoint(path)

    def test_metadata_keys_validated(self, rng, tmp_path):
        params = self._params(rng)
        with pytest.raises(ParameterError):
            save_checkpoint(params, {"bad key": "x"}, tmp_path / "m.ckpt")


class TestParamsInvariants:
    def test_shape_consistency_enforced(self):
        cfg = MlpConfig((2, 3, 2))
        with pytest.raises(ShapeError):
            MlpParams(
                config=cfg,
                weights=(Tensor(np.zeros((2, 3))), Tensor(np.zeros((3, 3)))),
                biases=(Tensor(np.zeros(3)), Tensor(np.zeros(2))),
            )

    def test_wrong_layer_count(self):
        cfg = MlpConfig((2, 3, 2))
        with pytest.raises(ShapeError):
            MlpParams(config=cfg, weights=(Tensor(np.zeros((2, 3))),), biases=(Tensor(np.zeros(3)),))
