"""MLP init, forward, predict, and the checkpoint format."""
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab.errors import ParameterError, ParseError, RobustlabError, SchemaError, ShapeError
from robustlab.model import (
    Checkpoint,
    MlpConfig,
    MlpParams,
    forward_logits,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from robustlab.tensor import Tensor

from conftest import assert_leaves_are_views_of_theta, blocked_product, linear_model, make_params


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
        assert_leaves_are_views_of_theta(a)
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
        # no activation on the last layer: exactly the blocked affine map
        np.testing.assert_array_equal(forward_logits(params, Tensor(x)).data, blocked_product(x, w) + b)

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
        assert_leaves_are_views_of_theta(ckpt.params)
        assert ckpt.params.config == params.config
        assert ckpt.params.theta.tobytes() == params.theta.tobytes()
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

    @pytest.mark.parametrize("config, field", [
        ("layer_sizes=2,3,2 activation=relu init_seed=0 bogus=1", "bogus"),
        ("layer_sizes=2,3,2 activation=tanh activation=relu init_seed=0", "activation"),
    ], ids=["unknown", "repeated"])
    def test_unknown_or_repeated_config_field_is_parse_error(self, tmp_path, config, field):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MlpConfig((2, 3, 2))), {}, path)
        head, _, body = path.read_text().split("\n", 2)
        path.write_text(f"{head}\nconfig {config}\n{body}")
        with pytest.raises(ParseError, match=f"unknown or repeated config field '{field}'") as exc:
            load_checkpoint(path)
        assert (exc.value.line, exc.value.offset) == (2, len(head) + 1)

    @pytest.mark.parametrize("token", ["-2x-3", "2x-3", "+2x3", "2x", "2x3.0"])
    def test_a_shape_token_holds_non_negative_integers(self, tmp_path, token):
        # Six values keep the value count of a 2x3 weight, so no other rule can refuse the line.
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MlpConfig((2, 3, 2))), {}, path)
        text = path.read_text()
        path.write_text(text.replace("\nw0 2x3 ", f"\nw0 {token} ", 1))
        with pytest.raises(ParseError, match=f"^bad shape token '{re.escape(token)}'") as exc:
            load_checkpoint(path)
        assert (exc.value.line, exc.value.offset) == (3, text.index("\nw0 ") + 1)

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

    @pytest.mark.parametrize("name, declared, layer", [
        ("w0", "16x2", 0), ("b0", "2x8", 0), ("w1", "8x32", 1), ("b1", "16x1", 1), ("w2", "4x16", 2), ("b2", "2x2", 2),
    ])
    def test_shape_conflict_at_every_layer_is_schema_error(self, tmp_path, name, declared, layer):
        # The line keeps its value count, so it parses; only MlpParams can refuse the shape.
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MlpConfig((2, 16, 16, 4), init_seed=1)), {}, path)
        lines = path.read_text().splitlines(keepends=True)
        i = next(k for k, line in enumerate(lines) if line.startswith(f"{name} "))
        lines[i] = f"{name} {declared} {lines[i].split(' ', 2)[2]}"
        path.write_text("".join(lines))
        with pytest.raises(SchemaError, match=rf"^checkpoint {re.escape(str(path))}: layer {layer}: weight .* conflict") as exc:
            load_checkpoint(path)
        assert not isinstance(exc.value, ShapeError)

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

    def test_metadata_keys_that_read_back_as_one_are_refused(self, tmp_path):
        # 1 and "1" are different keys of a dict but write the same line.
        with pytest.raises(ParameterError, match="^repeated metadata key '1'$"):
            save_checkpoint(init_params(MlpConfig((2, 2))), {1: "a", "1": "b"}, tmp_path / "m.ckpt")
        assert not (tmp_path / "m.ckpt").exists()

    @pytest.mark.parametrize("lines, message", [
        (["meta method=at", "meta method=erm"], "repeated metadata key 'method'"),
        (["meta =x"], "metadata key '' must be a single token without '='"),
        (["meta  method=at"], "metadata key ' method' must be a single token without '='"),
        (["meta me\tthod=at"], "metadata key 'me\\tthod' must be a single token without '='"),
    ], ids=["repeated", "empty", "leading-space", "tab"])
    def test_the_reader_refuses_a_metadata_key_the_writer_refuses(self, tmp_path, lines, message):
        # The writer's key rule, read back: the last line is the one refused.
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MlpConfig((2, 2))), {}, path)
        head, config, body = path.read_text().split("\n", 2)
        path.write_text("\n".join([head, config, *lines, body]))
        with pytest.raises(ParseError, match=f"^{re.escape(message)}") as exc:
            load_checkpoint(path)
        assert (exc.value.line, exc.value.offset) == (2 + len(lines), len(head) + len(config) + 2
                                                      + sum(len(line) + 1 for line in lines[:-1]))

    def test_a_repeated_config_line_is_refused_as_such(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_params(MlpConfig((2, 3, 2))), {"method": "at"}, path)
        head, config, body = path.read_text().split("\n", 2)
        path.write_text(f"{head}\n{config}\n{config}\n{body}")
        with pytest.raises(ParseError, match="^repeated config line") as exc:
            load_checkpoint(path)
        assert (exc.value.line, exc.value.offset) == (3, len(head) + len(config) + 2)

    @given(value=st.text(max_size=8))
    @settings(max_examples=200, deadline=None)
    def test_metadata_value_round_trips_or_is_refused(self, tmp_path_factory, value):
        # A line break of any kind is refused, "v\r" included, which the
        # reader would strip; every other value reads back as written.
        path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
        params = init_params(MlpConfig((2, 2)))
        if "".join(value.splitlines()) != value:
            with pytest.raises(ParameterError) as exc:
                save_checkpoint(params, {"note": value}, path)
            assert str(exc.value) == "metadata value for 'note' must not hold a line break"
            assert not path.exists()
        else:
            save_checkpoint(params, {"note": value}, path)
            assert load_checkpoint(path).metadata == {"note": value}


def _valid_checkpoint_body() -> bytes:
    cfg = MlpConfig((2, 3, 2), activation="tanh", init_seed=5)
    lines = ["MLPCKPT v1", "config layer_sizes=2,3,2 activation=tanh init_seed=5", "meta method=at"]
    for name, tensor in zip(("w0", "b0", "w1", "b1"), init_params(cfg).leaves()):
        shape = "x".join(str(s) for s in tensor.shape)
        lines.append(f"{name} {shape} " + " ".join(repr(float(v)) for v in tensor.data.reshape(-1)))
    return ("\n".join(lines) + "\n").encode()


VALID_BODY = _valid_checkpoint_body()


# Tokens that sit on the parser's edges: shapes, counts, non-finite and
# out-of-range numbers, separators and line kinds.
EDGE_TOKENS = ["", "0", "-1", "2x", "x3", "2x-3", "-2x-3", "3x2", "1e999", "nan", "-inf", "1_0",
               "9" * 30, "=", "meta", "config", "w0", "b1", "w2", "layer_sizes=2,3", "activation=relu",
               "init_seed=-1", "\r", "\xff", "\t"]


@st.composite
def mutated_checkpoints(draw) -> bytes:
    """A valid checkpoint body with a few byte-level or token-level edits."""
    body = VALID_BODY
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            i = draw(st.integers(0, len(body)))
            j = draw(st.integers(i, min(len(body), i + 8)))
            chunk = draw(st.one_of(st.binary(max_size=8), st.text(max_size=8).map(str.encode)))
            body = body[:i] + chunk + body[j:]
        else:
            lines = body.split(b"\n")
            k = draw(st.integers(0, len(lines) - 1))
            tokens = lines[k].split(b" ")
            t = draw(st.integers(0, len(tokens)))
            edit = draw(st.sampled_from(["replace", "insert", "drop", "repeat_line", "drop_line"]))
            new = draw(st.sampled_from(EDGE_TOKENS)).encode()
            if edit == "replace" and t < len(tokens):
                tokens[t] = new
            elif edit == "insert":
                tokens.insert(t, new)
            elif edit == "drop":
                del tokens[t:t + 1]
            lines[k] = b" ".join(tokens)
            if edit == "repeat_line":
                lines.insert(k, lines[k])
            elif edit == "drop_line":
                del lines[k]
            body = b"\n".join(lines)
    return body


@given(body=st.one_of(st.binary(max_size=200), mutated_checkpoints()))
@settings(max_examples=400, deadline=None)
def test_any_checkpoint_body_loads_whole_or_raises_a_package_error(tmp_path_factory, body):
    path = tmp_path_factory.mktemp("ckpt") / "m.ckpt"
    path.write_bytes(body)
    try:
        ckpt = load_checkpoint(path)
    except RobustlabError:
        return
    # Loaded: a whole model, every tensor shaped by the config and finite.
    assert isinstance(ckpt, Checkpoint)
    sizes = ckpt.params.config.layer_sizes
    shapes = [s for a, b in zip(sizes, sizes[1:]) for s in ((a, b), (b,))]
    assert [t.shape for t in ckpt.params.leaves()] == shapes
    assert all(np.isfinite(t.data).all() for t in ckpt.params.leaves())
    assert_leaves_are_views_of_theta(ckpt.params)


class TestParamsInvariants:
    def test_leaves_are_views_of_one_copy_of_the_given_leaves(self, rng):
        cfg = MlpConfig((3, 5, 1, 2))
        weights = [Tensor(rng.standard_normal((a, b))) for a, b in zip((3, 5, 1), (5, 1, 2))]
        biases = [Tensor(rng.standard_normal(b)) for b in (5, 1, 2)]
        params = MlpParams(config=cfg, weights=tuple(weights), biases=tuple(biases))
        assert_leaves_are_views_of_theta(params)
        for got, want in zip(params.leaves(), (t for pair in zip(weights, biases) for t in pair)):
            assert got.data.tobytes() == want.data.tobytes() and not np.shares_memory(got.data, want.data)

    @pytest.mark.parametrize("leaf", range(6))
    def test_a_non_finite_leaf_names_its_layer(self, leaf):
        cfg = MlpConfig((2, 3, 3, 2))
        leaves = [np.zeros(s) for a, b in zip((2, 3, 3), (3, 3, 2)) for s in ((a, b), (b,))]
        leaves[leaf].flat[-1] = np.nan
        with pytest.raises(ParameterError) as info:  # Tensor._wrap, unlike Tensor, lets a NaN through
            MlpParams(cfg, tuple(map(Tensor._wrap, leaves[0::2])), tuple(map(Tensor._wrap, leaves[1::2])))
        assert str(info.value) == f"layer {leaf // 2} contains non-finite parameters"

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
