"""Weight assignment, SGD, and the four training regimes."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab import training
from robustlab.attacks import AttackConfig, pgd_attack
from robustlab.datasets import gen_gaussian_blobs, gen_two_moons
from robustlab.errors import ConfigError, ContractError, ParameterError, ShapeError
from robustlab.evaluate import eval_natural
from robustlab.model import MlpConfig, init_params
from robustlab.tensor import Tensor, mlp_loss_and_grad
from robustlab.training import (
    TrainConfig,
    WeightAssignment,
    compute_weights,
    sgd_step,
    train,
    write_history,
)

from conftest import linear_model

# Frozen oracle (mpmath, 50 digits): kappa=(0,10), K=10, lambda=0 under
# raw = (1 + tanh(lambda + 5(1 - 2 kappa/K))) / 2, normalized to mean 1.
OMEGA_KAPPA_0 = 1.9999092042625951
OMEGA_KAPPA_10 = 9.0795737404868789e-05


def inner_cfg(steps=5):
    return AttackConfig(epsilon=0.031, steps=steps, step_size=0.031 / 4,
                        restarts=1, random_start=True)


class TestComputeWeights:
    def test_constant_kappa_gives_ones(self):
        # normalization of a constant vector: exact up to one rounding
        for k in (0, 3, 10):
            w = compute_weights(np.full(7, k), 10, 0.0).omega
            np.testing.assert_allclose(w, np.ones(7), rtol=0, atol=1e-15)

    def test_monotone_non_increasing_in_kappa(self):
        w = compute_weights(np.arange(11), 10, 0.0).omega
        assert np.all(np.diff(w) <= 0)

    def test_worked_example_against_mpmath_oracle(self):
        w = compute_weights(np.array([0, 10]), 10, 0.0).omega
        # recompute with the arbitrary-precision oracle
        import mpmath as mp

        with mp.workdps(50):
            raw = [(1 + mp.tanh(0 + 5 * (1 - mp.mpf(2) * k / 10))) / 2 for k in (0, 10)]
            total = raw[0] + raw[1]
            expected = [float(r * 2 / total) for r in raw]
        np.testing.assert_allclose(w, expected, rtol=0, atol=1e-12)
        np.testing.assert_allclose(w, [OMEGA_KAPPA_0, OMEGA_KAPPA_10], rtol=0, atol=1e-12)

    def test_kappa_out_of_range(self):
        with pytest.raises(ContractError):
            compute_weights(np.array([11]), 10, 0.0)
        with pytest.raises(ContractError):
            compute_weights(np.array([-1]), 10, 0.0)

    def test_empty_batch(self):
        with pytest.raises(ContractError):
            compute_weights(np.array([], dtype=int), 10, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_weights_refused(self, bad):
        # NaN passes both a `min() < 0` and a `mean` test.
        with pytest.raises(ContractError, match="finite"):
            WeightAssignment(np.array([1.0, bad, 1.0]))

    def test_underflow_falls_back_to_uniform(self):
        # tanh saturates to exactly -1 for arguments below about -19.1
        w = compute_weights(np.full(4, 10), 10, -30.0).omega
        np.testing.assert_array_equal(w, np.ones(4))

    @pytest.mark.parametrize("steps", [1, 3, 5, 10, 20, 50])
    @pytest.mark.parametrize("lam", [-3.0, -1.0, 0.0, 0.5, 1.0, 3.0])
    def test_table_has_the_closed_forms_bits(self, rng, steps, lam):
        for n in (1, 2, 7, 64, 65, 1000):
            kappa = rng.integers(0, steps + 1, size=n)
            raw = (1.0 + np.tanh(lam + 5.0 * (1.0 - 2.0 * kappa.astype(np.float64) / steps))) / 2.0
            want = np.ones(n) if raw.sum() == 0.0 else raw * (n / raw.sum())
            assert compute_weights(kappa, steps, lam).omega.tobytes() == want.tobytes()
        table = training._raw_weights(steps, lam)
        assert table.shape == (steps + 1,) and not table.flags.writeable

    def test_non_integer_kappa_refused(self):
        with pytest.raises(ContractError, match="integer"):
            compute_weights(np.array([0.0, 2.0]), 10, 0.0)

    @given(
        st.integers(1, 30).flatmap(
            lambda k: st.tuples(
                st.just(k),
                st.lists(st.integers(0, k), min_size=1, max_size=64),
                st.floats(-3, 3),
            )
        )
    )
    @settings(max_examples=300, deadline=None)
    def test_contract_properties(self, case):
        steps, kappa, lam = case
        w = compute_weights(np.array(kappa), steps, lam).omega
        assert np.all(w >= 0)
        assert abs(w.mean() - 1.0) <= 1e-10
        order = np.argsort(kappa)
        assert np.all(np.diff(w[order]) <= 1e-12)


class TestSgdStep:
    def test_zero_gradient_keeps_params(self):
        params = init_params(MlpConfig((2, 3, 2), init_seed=1))
        zeros = [np.zeros(t.shape) for t in params.leaves()]
        out = sgd_step(params, zeros, 0.5)
        for a, b in zip(out.leaves(), params.leaves()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_lr_one_gradient_theta_zeroes_params(self):
        params = init_params(MlpConfig((2, 3, 2), init_seed=1))
        gs = [t.data.copy() for t in params.leaves()]
        out = sgd_step(params, gs, 1.0)
        for t in out.leaves():
            np.testing.assert_array_equal(t.data, np.zeros(t.shape))

    def test_quadratic_bowl_geometric_decay(self):
        # f(theta) = (theta - c)^2 per coordinate; gradient 2(theta - c).
        # theta_t - c = (1 - 2 lr)^t (theta_0 - c): lr=0.1 -> 0.8^100 ~ 2e-10.
        params = linear_model(np.array([[1.0, -1.0]]).T.reshape(1, 2), [0.0, 0.0])
        target_w = np.array([[0.25, -0.75]])
        lr = 0.1
        for _ in range(100):
            g_w = 2.0 * (params.weights[0].data - target_w)
            params = sgd_step(params, [g_w, np.zeros(2)], lr)
        assert np.abs(params.weights[0].data - target_w).max() < 1e-6

    @pytest.mark.parametrize("sizes", [(2, 16, 16, 4), (3, 1, 2), (5, 9)])
    def test_leaves_are_read_only_views_of_one_vector_with_the_per_layer_bits(self, rng, sizes):
        params = init_params(MlpConfig(sizes, init_seed=2))
        grads = [rng.standard_normal(t.shape) for t in params.leaves()]
        out = sgd_step(params, grads, 0.15)
        theta = out.weights[0].data.base
        assert theta.ndim == 1 and theta.size == sum(t.data.size for t in out.leaves())
        assert not theta.flags.writeable
        for t, p, g in zip(out.leaves(), params.leaves(), grads):
            assert t.data.base is theta and not t.data.flags.writeable
            assert t.data.tobytes() == (p.data - 0.15 * g).tobytes()

    def test_non_finite_update_names_its_layer(self):
        params = init_params(MlpConfig((2, 3, 3, 2), init_seed=1))
        for leaf in range(6):
            grads = [np.zeros(t.shape) for t in params.leaves()]
            grads[leaf].flat[-1] = np.inf
            with pytest.raises(ParameterError, match=f"layer {leaf // 2} contains non-finite parameters"):
                sgd_step(params, grads, 0.1)

    def test_unmatched_gradient_rejected(self):
        params = init_params(MlpConfig((2, 3, 2), init_seed=1))
        other = init_params(MlpConfig((2, 4, 4, 2), init_seed=1))
        grads = [np.zeros(t.shape) for t in params.leaves()]
        with pytest.raises(ContractError):
            sgd_step(other, grads, 0.1)

    def test_shape_mismatch(self):
        params = init_params(MlpConfig((2, 3, 2), init_seed=1))
        bad = [np.zeros((1,)) for _ in params.leaves()]
        with pytest.raises(ShapeError):
            sgd_step(params, bad, 0.1)


class TestTrainConfig:
    def test_adversarial_methods_need_inner_attack(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="at", epochs=1, batch_size=8, learning_rate=0.1)

    def test_gairat_needs_omega_lambda(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="gairat", epochs=1, batch_size=8, learning_rate=0.1,
                        inner_attack=inner_cfg())

    @pytest.mark.parametrize("omega_lambda", [np.nan, np.inf, -np.inf])
    def test_non_finite_omega_lambda_refused(self, omega_lambda):
        # With burn-in over the whole run it used to train and write `omega_lambda = nan`.
        with pytest.raises(ConfigError, match="omega_lambda must be finite"):
            TrainConfig(method="gairat", epochs=2, batch_size=8, learning_rate=0.1,
                        inner_attack=inner_cfg(), burn_in_epochs=2, omega_lambda=omega_lambda)

    def test_burn_in_bounded_by_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="gairat", epochs=2, batch_size=8, learning_rate=0.1,
                        inner_attack=inner_cfg(), burn_in_epochs=3, omega_lambda=0.0)

    def test_unknown_method(self):
        with pytest.raises(ConfigError):
            TrainConfig(method="trades", epochs=1, batch_size=8, learning_rate=0.1)

    def test_negative_seed(self):
        with pytest.raises(ConfigError, match="seed must be >= 0"):
            TrainConfig(method="erm", epochs=1, batch_size=8, learning_rate=0.1, seed=-1)


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(80, 0.1, seed=21)


class TestTrain:
    def test_zero_epochs_returns_init(self, moons):
        mc = MlpConfig((2, 8, 2), init_seed=5)
        cfg = TrainConfig(method="erm", epochs=0, batch_size=16, learning_rate=0.1, seed=5)
        params, history = train(mc, moons, cfg)
        ref = init_params(mc)
        for a, b in zip(params.leaves(), ref.leaves()):
            np.testing.assert_array_equal(a.data, b.data)
        assert len(history) == 0

    @pytest.mark.parametrize("method, extra", [
        ("erm", {}),
        ("at", {"inner_attack": inner_cfg()}),
        ("fat", {"inner_attack": inner_cfg(), "fat_slack": 1}),
        ("gairat", {"inner_attack": inner_cfg(), "burn_in_epochs": 1, "omega_lambda": 0.0}),
    ])
    def test_epoch_accuracy_is_eval_natural(self, moons, method, extra):
        cfg = TrainConfig(method=method, epochs=2, batch_size=16, learning_rate=0.2, seed=4, **extra)
        params, history = train(MlpConfig((2, 6, 2), init_seed=2), moons, cfg)
        assert history.records[-1].natural_accuracy == eval_natural(params, moons)

    def test_full_burn_in_reduces_to_plain_adversarial_training(self, moons):
        mc = MlpConfig((2, 8, 2), init_seed=3)
        at = TrainConfig(method="at", epochs=3, batch_size=16, learning_rate=0.1,
                         seed=3, inner_attack=inner_cfg())
        gairat = TrainConfig(method="gairat", epochs=3, batch_size=16, learning_rate=0.1,
                             seed=3, inner_attack=inner_cfg(), burn_in_epochs=3,
                             omega_lambda=0.0)
        p_at, _ = train(mc, moons, at)
        p_g, _ = train(mc, moons, gairat)
        for a, b in zip(p_at.leaves(), p_g.leaves()):
            np.testing.assert_array_equal(a.data, b.data)

    def test_erm_fits_separable_blobs(self):
        ds = gen_gaussian_blobs(200, [[0.25, 0.25], [0.75, 0.75]], 0.05, seed=4)
        mc = MlpConfig((2, 8, 2), init_seed=0)
        cfg = TrainConfig(method="erm", epochs=50, batch_size=32, learning_rate=0.5, seed=0)
        _, history = train(mc, ds, cfg)
        assert history.records[-1].natural_accuracy >= 0.99

    def test_training_deterministic_per_seed(self, moons):
        mc = MlpConfig((2, 6, 2), init_seed=2)
        cfg = TrainConfig(method="fat", epochs=2, batch_size=16, learning_rate=0.2,
                          seed=9, inner_attack=inner_cfg(), fat_slack=1)
        p1, h1 = train(mc, moons, cfg)
        p2, h2 = train(mc, moons, cfg)
        for a, b in zip(p1.leaves(), p2.leaves()):
            np.testing.assert_array_equal(a.data, b.data)
        assert h1 == h2

    def test_gairat_records_kappa_histogram(self, moons):
        mc = MlpConfig((2, 6, 2), init_seed=2)
        cfg = TrainConfig(method="gairat", epochs=2, batch_size=16, learning_rate=0.2,
                          seed=1, inner_attack=inner_cfg(steps=4), burn_in_epochs=1,
                          omega_lambda=0.0)
        _, history = train(mc, moons, cfg)
        for rec in history:
            assert rec.kappa_hist is not None
            assert len(rec.kappa_hist) == 5
            assert sum(rec.kappa_hist) == len(moons)

    def test_gairat_fat_crafting_option(self, moons):
        mc = MlpConfig((2, 6, 2), init_seed=2)
        base = dict(method="gairat", epochs=2, batch_size=16, learning_rate=0.2,
                    seed=1, inner_attack=inner_cfg(steps=4), burn_in_epochs=0,
                    omega_lambda=0.0)
        p_pgd, _ = train(mc, moons, TrainConfig(**base))
        p_fat, _ = train(mc, moons, TrainConfig(**base, gairat_crafting="fat"))
        assert not np.array_equal(p_pgd.weights[0].data, p_fat.weights[0].data)

    def test_weight_scaling_scales_batch_gradient_exactly(self, moons):
        # doubling every example weight doubles the parameter gradient
        # bit-for-bit (power-of-two scaling commutes with rounding)
        params = init_params(MlpConfig((2, 6, 2), init_seed=8))
        x = moons.points.data
        y = moons.labels
        w = np.random.default_rng(0).uniform(0.1, 2.0, size=len(y))

        def grads_with(weights):
            return mlp_loss_and_grad(params, x, y, 1.0, weights, False, True).param_grads

        for a, b in zip(grads_with(2.0 * w), grads_with(w)):
            np.testing.assert_array_equal(a, 2.0 * b)

    @pytest.mark.parametrize("crafting", ["pgd", "fat"])
    def test_gairat_batch_points_and_kappa_match_separate_attacks(self, moons, monkeypatch, crafting):
        # Exactly one PGD run per batch, and it gives what a separate
        # pgd_attack on the same seed gives (with the run's fat_slack for fat).
        inner = inner_cfg(steps=4)
        cfg = TrainConfig(method="gairat", epochs=2, batch_size=16, learning_rate=0.2, seed=4,
                          inner_attack=inner, burn_in_epochs=0, omega_lambda=0.0, fat_slack=1,
                          gairat_crafting=crafting)
        seen = {"steps": [], "kappa": [], "pgd_runs": 0}

        def spy_attack(*args, **kwargs):
            seen["pgd_runs"] += 1
            return pgd_attack(*args, **kwargs)

        def spy_step(params, x, *args):
            seen["steps"].append((params, x.copy(), np.array(args[0])))
            return mlp_loss_and_grad(params, x, *args)

        def spy_weights(kappa, steps, omega_lambda):
            seen["kappa"].append(np.array(kappa))
            return compute_weights(kappa, steps, omega_lambda)

        monkeypatch.setattr(training, "mlp_loss_and_grad", spy_step)
        monkeypatch.setattr(training, "compute_weights", spy_weights)
        monkeypatch.setattr(training, "pgd_attack", spy_attack)
        train(MlpConfig((2, 6, 2), init_seed=2), moons, cfg)
        monkeypatch.undo()

        # batch order and attack seeds come from one generator, in this order
        rng = np.random.default_rng(cfg.seed)
        batches = []
        for _ in range(cfg.epochs):
            perm = rng.permutation(len(moons))
            for start in range(0, len(moons), cfg.batch_size):
                batches.append((perm[start:start + cfg.batch_size], int(rng.integers(0, 2**63))))
        assert len(seen["steps"]) == len(seen["kappa"]) == seen["pgd_runs"] == len(batches)
        for (idx, seed), (params, x_train, y), kappa in zip(batches, seen["steps"], seen["kappa"]):
            xb = Tensor(moons.points.data[idx])
            np.testing.assert_array_equal(y, moons.labels[idx])
            pgd = pgd_attack(params, xb, y, inner, domain=moons.domain, seed=seed)
            np.testing.assert_array_equal(kappa, pgd.kappa)
            if crafting == "fat":
                want = pgd_attack(params, xb, y, inner, domain=moons.domain, seed=seed,
                                  friendly_slack=cfg.fat_slack).friendly.data
            else:
                want = pgd.adversarial.data
            np.testing.assert_array_equal(x_train, want)

    @pytest.mark.parametrize("method", ["at", "gairat"])
    def test_matches_a_loop_of_the_public_pieces(self, moons, method):
        # 80 points at batch 24 end each epoch on an 8-row batch, and the next epoch
        # starts at 24 rows again; gairat's second epoch is past its burn-in.
        inner = inner_cfg()
        cfg = TrainConfig(method=method, epochs=2, batch_size=24, learning_rate=0.2, seed=6, inner_attack=inner,
                          burn_in_epochs=1 if method == "gairat" else 0,
                          omega_lambda=0.0 if method == "gairat" else None)
        mc = MlpConfig((2, 8, 2), init_seed=4)
        got_params, got_history = train(mc, moons, cfg)

        params, records = init_params(mc), []
        rng = np.random.default_rng(cfg.seed)
        for epoch in range(cfg.epochs):
            perm, losses, counts = rng.permutation(len(moons)), [], np.zeros(inner.steps + 1, dtype=np.int64)
            for start in range(0, len(moons), cfg.batch_size):
                idx = perm[start:start + cfg.batch_size]
                y = moons.labels[idx]
                res = pgd_attack(params, Tensor(moons.points.data[idx]), y, inner, domain=moons.domain,
                                 seed=int(rng.integers(0, 2**63)))
                counts += np.bincount(res.kappa, minlength=inner.steps + 1)
                omega = np.ones(len(y))
                if method == "gairat" and epoch >= cfg.burn_in_epochs:
                    omega = compute_weights(res.kappa, inner.steps, cfg.omega_lambda).omega
                step = mlp_loss_and_grad(params, res.adversarial.data, y, 1.0, omega, False, True)
                params = sgd_step(params, step.param_grads, cfg.learning_rate)
                losses.append(step.loss)
            records.append(training.EpochRecord(epoch, float(np.mean(losses)), eval_natural(params, moons),
                                                tuple(int(c) for c in counts) if method == "gairat" else None))
        for a, b in zip(got_params.leaves(), params.leaves()):
            assert a.data.tobytes() == b.data.tobytes()
        assert got_history.records == tuple(records)

    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning", "ignore:overflow:RuntimeWarning")
    def test_divergence_names_epoch_and_batch(self, moons):
        cfg = TrainConfig(method="erm", epochs=3, batch_size=16, learning_rate=1e200, seed=1)
        with pytest.raises(ConfigError, match=r"non-finite loss .* at epoch 0, batch 1"):
            train(MlpConfig((2, 6, 2), init_seed=2), moons, cfg)

    def test_erm_history_has_no_histogram(self, moons):
        mc = MlpConfig((2, 6, 2), init_seed=2)
        cfg = TrainConfig(method="erm", epochs=1, batch_size=16, learning_rate=0.2, seed=1)
        _, history = train(mc, moons, cfg)
        assert history.records[0].kappa_hist is None

    def test_dimension_mismatch_is_config_error(self, moons):
        with pytest.raises(ConfigError):
            train(MlpConfig((3, 4, 2)), moons,
                  TrainConfig(method="erm", epochs=1, batch_size=8, learning_rate=0.1))

    def test_history_csv(self, moons, tmp_path):
        mc = MlpConfig((2, 6, 2), init_seed=2)
        cfg = TrainConfig(method="gairat", epochs=2, batch_size=32, learning_rate=0.2,
                          seed=1, inner_attack=inner_cfg(steps=3), burn_in_epochs=0,
                          omega_lambda=0.0)
        _, history = train(mc, moons, cfg)
        path = tmp_path / "hist.csv"
        write_history(history, path, comments={"method": "gairat"})
        lines = path.read_text().splitlines()
        assert lines[0] == "# method = gairat"
        assert lines[1] == "epoch,loss,nat_acc,kappa_0,kappa_1,kappa_2,kappa_3"
        assert len(lines) == 2 + len(history)
