"""PGD family: projection, traces, kappa, early stopping, verdicts, oracle."""
import platform
import sys
from dataclasses import fields, replace
from functools import partial
from itertools import combinations

import numpy as np
import pytest

from robustlab import attacks, tensor
from robustlab.attacks import (
    AttackConfig,
    AttackResult,
    brute_force_attack,
    pgd20_config,
    pgd200_config,
    pgd_attack,
    pgd_plus_config,
)
from robustlab.datasets import DomainBox, gen_gaussian_blobs
from robustlab.errors import CapabilityError, NumericalError, ParameterError, ShapeError
from robustlab.model import MlpConfig, init_params, predict
from robustlab.training import TrainConfig, train
from robustlab.tensor import Tensor, mlp_loss_and_grad

from conftest import linear_model, make_params, random_params


def scaled_ce_input_grad(x, w, b, y, alpha):
    """Straight-line oracle: d/dx of -log softmax(alpha*(xW+b))[y]."""
    z = alpha * (x @ w + b)
    z = z - z.max(axis=1, keepdims=True)
    p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
    d = p.copy()
    d[np.arange(len(y)), y] -= 1.0
    return alpha * d @ w.T


class TestAttackConfig:
    def test_validation(self):
        with pytest.raises(ParameterError):
            AttackConfig(epsilon=0.0, steps=1, step_size=0.1)
        with pytest.raises(ParameterError):
            AttackConfig(epsilon=0.1, steps=0, step_size=0.1)
        with pytest.raises(ParameterError):
            AttackConfig(epsilon=0.1, steps=1, step_size=-0.1)
        with pytest.raises(ParameterError):
            AttackConfig(epsilon=0.1, steps=1, step_size=0.1, restarts=0)
        with pytest.raises(ParameterError):
            AttackConfig(epsilon=0.1, steps=1, step_size=0.1, alpha=0.0)

    def test_epsilon_bounded_by_its_random_start_range(self, rng):
        # The random start draws from [-epsilon, epsilon]; numpy refuses a range of 2 * epsilon = inf.
        widest = np.finfo(np.float64).max / 2
        with pytest.raises(ParameterError, match="2 \\* epsilon finite"):
            AttackConfig(epsilon=np.nextafter(widest, np.inf), steps=1, step_size=0.1)
        cfg = AttackConfig(epsilon=widest, steps=2, step_size=0.1, random_start=True)
        res = pgd_attack(random_params(rng, (2, 3)), Tensor(rng.uniform(0, 1, size=(5, 2))),
                         np.zeros(5, dtype=int), cfg, domain=DomainBox.unit(2))
        assert DomainBox.unit(2).contains(res.adversarial.data)

    def test_pgd20_preset_matches_protocol(self):
        cfg = pgd20_config(0.031)
        assert cfg.steps == 20
        assert cfg.step_size == 0.031 / 4  # = 0.00775
        assert cfg.restarts == 1
        assert cfg.random_start

    def test_pgd_plus_preset(self):
        cfg = pgd_plus_config(0.031)
        assert (cfg.steps, cfg.step_size, cfg.restarts) == (40, 0.01, 5)
        assert cfg.steps * cfg.restarts == 200

    def test_pgd200_preset(self):
        cfg = pgd200_config(0.031)
        assert cfg.steps == 200 and cfg.step_size == 0.031 / 100

    def test_to_kv_text_is_pinned(self):
        # Reports' `# attack.<name>` line and `attack --out-adv` metadata are this text.
        cfg = AttackConfig(epsilon=0.1, steps=20, step_size=0.025, restarts=5,
                           alpha=10.0, random_start=True, clip_to_domain=False)
        assert cfg.to_kv() == (
            "epsilon = 0.10000000000000001\nsteps = 20\nstep_size = 0.025000000000000001\n"
            "restarts = 5\nalpha = 10\nrandom_start = true\nclip_to_domain = false")
        assert cfg.to_kv(sep="; ") == cfg.to_kv().replace("\n", "; ")


def project(x, x0, epsilon, domain=None):
    """x clamped into the epsilon-ball around x0, then into the domain box, as
    PGD's starts and steps clamp: one clip to `_ball_bounds`."""
    return np.clip(x, *attacks._ball_bounds(np.asarray(x0, dtype=float), epsilon, domain))


class TestProject:
    def test_inside_ball_unchanged(self):
        x = np.array([[0.52, 0.48]])
        np.testing.assert_array_equal(project(x, [[0.5, 0.5]], 0.1), x)

    def test_clamp_arithmetic(self):
        assert project([[0.63]], [[0.5]], 0.1)[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_domain_binds_after_ball(self):
        assert project([[1.2]], [[0.99]], 0.05, domain=DomainBox((0.0,), (1.0,)))[0, 0] == 1.0

    def test_idempotent_exactly(self, rng):
        x = rng.uniform(-2, 3, size=(50, 4))
        x0 = rng.uniform(0, 1, size=(50, 4))
        box = DomainBox.unit(4)
        once = project(x, x0, 0.3, domain=box)
        twice = project(once, x0, 0.3, domain=box)
        np.testing.assert_array_equal(once, twice)

    @pytest.mark.parametrize("centre", [-0.5, 1.5, 1.02, -0.03, 0.0], ids=[
        "ball-below-the-box", "ball-above-the-box", "straddles-upper-face", "straddles-lower-face",
        "centred-on-a-face"])
    def test_one_clip_matches_the_two_stage_clamp_bit_for_bit(self, rng, centre):
        # The bounds are clamped into the box once; a clip to the ball, then
        # to the box, must give the same bits, signed zeros included.
        x0 = centre + rng.uniform(-0.05, 0.05, size=(200, 2))
        x0[:10] = centre
        x = x0 + rng.uniform(-0.3, 0.3, size=x0.shape)
        x[:50:2] = 0.0
        x[1:50:2] = -0.0
        box = DomainBox.unit(2)
        got = project(x, x0, 0.1, domain=box)
        want = np.clip(np.clip(x, x0 - 0.1, x0 + 0.1), box.lower_array(), box.upper_array())
        assert got.tobytes() == want.tobytes()


class TestPgdAttack:
    def test_constant_logits_is_fixed_point(self):
        params = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        x0 = Tensor([[0.5, 0.5], [0.2, 0.8]])
        y = np.array([0, 1])
        cfg = AttackConfig(epsilon=0.1, steps=5, step_size=0.02, random_start=False)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2))
        np.testing.assert_array_equal(res.adversarial.data, x0.data)

    def test_three_steps_match_hand_stepped_oracle(self):
        w = np.array([[1.0, -1.0], [-0.5, 0.5]])
        b = np.array([0.1, -0.1])
        params = linear_model(w, b)
        x0 = np.array([[0.45, 0.55], [0.6, 0.3]])
        y = np.array([0, 1])
        eps, lam, alpha = 0.08, 0.03, 2.0
        box = DomainBox.unit(2)
        cfg = AttackConfig(epsilon=eps, steps=3, step_size=lam, alpha=alpha, random_start=False)
        res = pgd_attack(params, Tensor(x0), y, cfg, domain=box)
        # independent hand-stepped simulation
        x = x0.copy()
        visited = [x.copy()]
        for _ in range(3):
            g = scaled_ce_input_grad(x, w, b, y, alpha)
            x = np.clip(x + lam * np.sign(g), x0 - eps, x0 + eps)
            x = np.clip(x, 0.0, 1.0)
            visited.append(x.copy())
        # max-loss selection over the visited points, earliest wins ties
        def loss(pts):
            z = alpha * (pts @ w + b)
            z = z - z.max(axis=1, keepdims=True)
            p = np.exp(z) / np.exp(z).sum(axis=1, keepdims=True)
            return -np.log(p[np.arange(len(y)), y])
        losses = np.stack([loss(v) for v in visited])
        best_t = np.argmax(losses, axis=0)
        expected = np.stack([visited[t][i] for i, t in enumerate(best_t)])
        np.testing.assert_array_equal(res.adversarial.data, expected)

    def test_epsilon_ball_containment(self, rng):
        params = random_params(rng, (2, 8, 2), scale=1.5)
        x0 = Tensor(rng.uniform(0, 1, size=(40, 2)))
        y = rng.integers(0, 2, size=40)
        cfg = AttackConfig(epsilon=0.05, steps=10, step_size=0.02, restarts=3, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=4)
        assert np.abs(res.adversarial.data - x0.data).max() <= 0.05 + 1e-12
        assert DomainBox.unit(2).contains(res.adversarial.data)

    def test_deterministic_per_seed(self, rng):
        params = random_params(rng, (2, 6, 2))
        x0 = Tensor(rng.uniform(0, 1, size=(10, 2)))
        y = rng.integers(0, 2, size=10)
        cfg = AttackConfig(epsilon=0.1, steps=8, step_size=0.02, restarts=2, random_start=True)
        a = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=7)
        b = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=7)
        np.testing.assert_array_equal(a.adversarial.data, b.adversarial.data)
        np.testing.assert_array_equal(a.kappa, b.kappa)
        np.testing.assert_array_equal(a.correct_trace, b.correct_trace)
        c = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=8)
        assert not np.array_equal(a.adversarial.data, c.adversarial.data)

    def test_constant_model_ties_keep_earliest_point(self):
        # All iterates have equal loss; the first visited point (restart 0's
        # start) must win.
        params = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        x0 = Tensor([[0.5, 0.5]])
        y = np.array([0])
        eps = 0.1
        cfg = AttackConfig(epsilon=eps, steps=3, step_size=0.05, restarts=3, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=11)
        noise = np.random.default_rng(11).uniform(-eps, eps, size=(1, 2))
        expected = np.clip(np.clip(x0.data + noise, x0.data - eps, x0.data + eps), 0.0, 1.0)
        np.testing.assert_array_equal(res.adversarial.data, expected)

    def test_trace_shape_and_natural_column(self, rng):
        params = random_params(rng, (2, 4, 2))
        x0 = Tensor(rng.uniform(0, 1, size=(6, 2)))
        y = rng.integers(0, 2, size=6)
        cfg = AttackConfig(epsilon=0.05, steps=4, step_size=0.02, restarts=2, random_start=False)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2))
        assert res.correct_trace.shape == (6, 2, 5)
        # without random start, iterate 0 is the natural point
        np.testing.assert_array_equal(res.correct_trace[:, 0, 0], res.natural_correct)

    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    def test_final_correct_is_predict_at_the_returned_points(self, rng, alpha):
        # final_correct is read off the run's trace, not recomputed
        params = random_params(rng, (2, 8, 3), activation="relu", scale=2.0)
        x0 = Tensor(rng.uniform(0, 1, size=(50, 2)))
        y = rng.integers(0, 3, size=50)
        cfg = AttackConfig(epsilon=0.1, steps=6, step_size=0.03, restarts=3, alpha=alpha, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=9)
        np.testing.assert_array_equal(res.final_correct, predict(params, res.adversarial) == y)
        assert res.friendly is None


def two_stage_pgd(params, x0, y, cfg, domain, seed):
    """Best-iterate PGD written out step by step, projecting into the ball
    and then into the box at every step."""
    eps = cfg.epsilon
    rng = np.random.default_rng(seed)

    def project(x):
        return np.clip(np.clip(x, x0 - eps, x0 + eps), domain.lower_array(), domain.upper_array())

    best_loss, best_x = np.full(len(y), -np.inf), x0.copy()
    for _ in range(cfg.restarts):
        x = project(x0 + rng.uniform(-eps, eps, size=x0.shape)) if cfg.random_start else x0.copy()
        for t in range(cfg.steps + 1):
            step = mlp_loss_and_grad(params, x, y, cfg.alpha, None, True, False)
            better = step.losses > best_loss
            best_loss = np.where(better, step.losses, best_loss)
            best_x[better] = x[better]
            if t < cfg.steps:
                x = project(x + cfg.step_size * np.sign(step.input_grad))
    return best_x


def full_batch_pgd(params, x0, y, cfg, domain, seed, friendly_slack=None):
    """Every `AttackResult` field of best-iterate PGD written out the long
    way: every pass on the whole batch with fresh arrays, every restart to
    its last step, projecting into the ball and then into the box. Also
    returns the iterates, shape (restarts, steps + 1, n, d)."""
    eps, T, R = cfg.epsilon, cfg.steps, cfg.restarts
    rng = np.random.default_rng(seed)
    box = domain if cfg.clip_to_domain else None

    def project(x):
        x = np.clip(x, x0 - eps, x0 + eps)
        return x if box is None else np.clip(x, box.lower_array(), box.upper_array())

    n = len(y)
    natural = predict(params, Tensor(x0)) == y
    trace = np.zeros((n, R, T + 1), dtype=bool)
    paths = np.empty((R, T + 1) + x0.shape)
    best_loss, best_x, best_correct = np.full(n, -np.inf), x0.copy(), natural.copy()
    with np.errstate(over="ignore"):
        for r in range(R):
            x = project(x0 + rng.uniform(-eps, eps, size=x0.shape)) if cfg.random_start else x0.copy()
            for t in range(T + 1):
                paths[r, t] = x
                step = mlp_loss_and_grad(params, x, y, cfg.alpha, None, True, False)
                trace[:, r, t] = correct = step.logits.argmax(axis=1) == y
                better = step.losses > best_loss
                best_loss = np.where(better, step.losses, best_loss)
                best_x[better], best_correct[better] = x[better], correct[better]
                x = project(x + cfg.step_size * np.sign(step.input_grad))
    wrong = ~np.column_stack([natural, trace[:, 0, 1:]])
    kappa = np.where(wrong.any(axis=1), wrong.argmax(axis=1), T).astype(np.int64)
    friendly = None
    if friendly_slack is not None:
        friendly = best_x.copy()
        for i in range(n):
            flips = np.flatnonzero(~trace[i, 0])
            if flips.size:
                friendly[i] = paths[0, min(flips[0] + friendly_slack, T), i]
        friendly = Tensor(friendly)
    return AttackResult(Tensor(best_x), kappa, trace, natural, best_correct, friendly), paths


def assert_same_result(got, want):
    for f in fields(AttackResult):
        a, b = getattr(got, f.name), getattr(want, f.name)
        if isinstance(a, Tensor):
            a, b = a.data, b.data
        if a is None or b is None:
            assert a is b, f.name
        else:
            assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name


class TestPgdRunSetUp:
    """Labels are checked and projection bounds computed once per run."""

    @pytest.mark.parametrize("centre", [-0.5, 1.5, 1.02], ids=[
        "ball-below-the-box", "ball-above-the-box", "straddles-a-face"])
    @pytest.mark.parametrize("random_start", [False, True])
    def test_x0_outside_the_box_matches_the_two_stage_clamp(self, rng, centre, random_start):
        params = random_params(rng, (2, 8, 3), activation="relu", scale=2.0)
        x0 = np.column_stack([centre + rng.uniform(-0.05, 0.05, 30), rng.uniform(0, 1, 30)])
        y = rng.integers(0, 3, size=30)
        box = DomainBox.unit(2)
        cfg = AttackConfig(epsilon=0.1, steps=6, step_size=0.03, restarts=2, random_start=random_start)
        res = pgd_attack(params, Tensor(x0), y, cfg, domain=box, seed=3)
        want = two_stage_pgd(params, x0, y, cfg, box, seed=3)
        assert res.adversarial.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("labels, error", [
        ([0, 1, 3, 2], ParameterError),
        ([0, -1, 2, 1], ParameterError),
        ([0], ShapeError),
        ([0, 1, 2], ShapeError),
        ([0, 1, 2, 0, 1], ShapeError),
        ([[0], [1], [2], [0]], ShapeError),
        ([0.0, 1.0, 2.0, 1.0], ParameterError),
        ([True, False, True, False], ParameterError),
    ], ids=["above-range", "negative", "length-1", "too-short", "too-long", "column", "float", "bool"])
    @pytest.mark.parametrize("entry", [
        pytest.param(pgd_attack, id="pgd_attack"),
        # the FAT path keeps a trajectory buffer; it is sized after the check
        pytest.param(partial(pgd_attack, friendly_slack=2), id="pgd_attack-friendly_slack"),
    ])
    def test_bad_labels_raise_before_any_step(self, rng, labels, error, entry):
        # A wrong length used to escape from numpy's broadcasting as a plain
        # ValueError; ShapeError is one too.
        params = random_params(rng, (2, 4, 3))
        x0 = Tensor(rng.uniform(0, 1, size=(4, 2)))
        with pytest.raises(error):
            entry(params, x0, np.array(labels), pgd20_config(), domain=DomainBox.unit(2))

    @pytest.mark.parametrize("entry", [
        pytest.param(pgd_attack, id="pgd_attack"),
        pytest.param(partial(pgd_attack, friendly_slack=0), id="pgd_attack-friendly_slack"),
    ])
    def test_negative_seed_rejected(self, entry):
        params = linear_model(np.eye(2), [0.0, 0.0])
        cfg = AttackConfig(epsilon=0.1, steps=2, step_size=0.05, random_start=True)
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            entry(params, Tensor([[0.2, 0.7]]), np.array([1]), cfg, seed=-1)

    def test_input_shape_is_checked_before_the_labels(self, rng):
        # One rule, tensor._check_input, refuses a wrong width and a wrong rank alike.
        params = random_params(rng, (2, 4, 3))
        for shape in [(4, 3), (4,), (4, 2, 1)]:
            with pytest.raises(ShapeError, match="input shape"):
                pgd_attack(params, Tensor(np.zeros(shape)), np.array([0.5] * 4), pgd20_config())


class TestPgdOutOfRange:
    def test_a_nan_is_refused_naming_the_pass_that_made_it(self):
        # Class 0 wins by 2, label 1: at alpha 1e308 the scaled gradient (1e308, -1e308) times
        # w1.T overflows to inf (not an error), and the dead relu unit's 0 * inf is NaN.
        config = MlpConfig((2, 2, 2), activation="relu")
        params = make_params(config, [np.eye(2), [[2.0, -2.0], [2.0, -2.0]]], [[0.0, -10.0], [0.0, 0.0]])
        cfg = AttackConfig(epsilon=0.1, steps=3, step_size=0.01, alpha=1e308)
        with pytest.raises(ParameterError, match=r"made a NaN at restart 0, step 0 \(alpha 1e\+308\)"):
            pgd_attack(params, Tensor([[0.5, 0.5]]), np.array([1]), cfg)

    def test_a_nan_after_other_rows_settled_names_the_full_batch_pass(self, monkeypatch):
        # One hidden unit h = relu(x1 + x2) and logits (1e308 h, -1e308 h). Row 0 is
        # misclassified and climbs by 2 * 0.1 in h per step: h = 1.5, 1.7, 1.9, and at
        # step 2 its logits overflow to inf, whose row max makes a NaN. The other 129 rows
        # have a dead unit, a zero input gradient and so a fixed point: they settle at
        # step 0, the 3-block pass shrinks to one, and the passes of steps 1 and 2 run on
        # row 0 alone.
        config = MlpConfig((2, 1, 2), activation="relu")
        params = make_params(config, [[[1.0], [1.0]], [[1e308, -1e308]]], [[0.0], [0.0, 0.0]])
        cfg = AttackConfig(epsilon=1.0, steps=5, step_size=0.1, clip_to_domain=False)
        dead = np.random.default_rng(0).uniform(-1.0, -0.25, size=(129, 2))
        x0, y = Tensor(np.vstack([[[0.75, 0.75]], dead])), np.ones(130, dtype=int)
        rows = spy_on_passes(monkeypatch)
        with pytest.raises(NumericalError, match=r"made a NaN at restart 0, step 2 \(alpha 1\.0\)"):
            pgd_attack(params, x0, y, cfg)
        assert rows == [130, 1, 1]
        for k in (1, 3):  # one block: row 0 alone, and with two dead rows that it keeps computing
            rows.clear()
            with pytest.raises(NumericalError, match=r"made a NaN at restart 0, step 2 "):
                pgd_attack(params, Tensor(x0.data[:k]), y[:k], cfg)
            assert rows == [k] * 3

    @pytest.mark.parametrize("seed, named", [(0, "restart 0, step 8"), (22, "restart 2, step 4")])
    def test_a_nan_in_stacked_restarts_names_the_pass_of_one_restart_at_a_time(self, monkeypatch, seed, named):
        # The model of the test above, on one row: a restart's h = relu(x1 + x2) climbs by 0.2
        # per step and overflows once past 1.797. Seed 0 starts restart 2 past it, so the
        # stacked pass of step 0 makes a NaN; restart 0 starts at h = 0.31 and, run alone,
        # first makes one at step 8. Seed 22 starts restarts 0 and 1 on the dead side.
        config = MlpConfig((2, 1, 2), activation="relu")
        params = make_params(config, [[[1.0], [1.0]], [[1e308, -1e308]]], [[0.0], [0.0, 0.0]])
        cfg = AttackConfig(epsilon=1.0, steps=12, step_size=0.1, restarts=3, random_start=True,
                           clip_to_domain=False)
        x0, y = Tensor([[0.25, 0.25]]), np.array([1])
        rows = spy_on_passes(monkeypatch)
        with pytest.raises(NumericalError, match=f"made a NaN at {named} ") as stacked:
            pgd_attack(params, x0, y, cfg, seed=seed)
        assert rows[0] == 3
        if seed == 0:
            assert rows == [3] + [1] * 9  # the stacked pass, then restart 0 alone up to step 8
        monkeypatch.setattr(attacks, "_padded", lambda n: n)  # one restart per pass
        with pytest.raises(NumericalError) as alone:
            pgd_attack(params, x0, y, cfg, seed=seed)
        assert str(stacked.value) == str(alone.value)


class TestPgdWorkspace:
    """A PGD run writes every pass into one workspace of its own."""

    @pytest.mark.parametrize("sizes, activation", [
        ((2, 16, 16, 4), "relu"), ((2, 16, 16, 4), "tanh"), ((2, 8, 1, 3), "relu"),
    ], ids=["relu", "tanh", "one-column-layer"])
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    def test_same_bits_as_the_allocating_pass(self, rng, monkeypatch, sizes, activation, alpha):
        params = random_params(rng, sizes, activation)
        cfg = AttackConfig(epsilon=0.1, steps=5, step_size=0.03, restarts=2, alpha=alpha, random_start=True)
        box = DomainBox.unit(2)
        # Runs of different sizes, one after another: no run reads another's buffers.
        batches = [(Tensor(rng.uniform(0, 1, size=(n, 2))), rng.integers(0, sizes[-1], size=n))
                   for n in (4000, 1, 64, 2)]
        got = [pgd_attack(params, x0, y, cfg, domain=box, seed=5, friendly_slack=1) for x0, y in batches]

        def allocating(*args):
            *checked, ws = args
            assert isinstance(ws, tensor._Workspace)
            return tensor.mlp_loss_and_grad(*checked, ws=None)  # fresh arrays on every pass

        monkeypatch.setattr(attacks, "mlp_loss_and_grad", allocating)
        for (x0, y), res in zip(batches, got):
            want = pgd_attack(params, x0, y, cfg, domain=box, seed=5, friendly_slack=1)
            for f in fields(AttackResult):
                a, b = getattr(res, f.name), getattr(want, f.name)
                if isinstance(a, Tensor):
                    a, b = a.data, b.data
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), f.name

    @pytest.mark.parametrize("classes", [4, 33])
    @pytest.mark.parametrize("n", [1, 64, 65, 4000])
    def test_no_two_arrays_of_a_workspace_share_memory(self, rng, classes, n):
        # Apart from a layer array and its own block view, a pass may write any array of its
        # workspace without changing another, in the full workspace and in a narrowed one.
        sizes = (2, 16, 16, classes)
        lab = rng.integers(0, classes, size=n)
        full = tensor._Workspace.for_batch(sizes, lab)
        for ws, m in ((full, n), (full.narrowed(lab[:(n + 1) // 2]), (n + 1) // 2)):
            arrays = [(kind, i, a) for kind in ("acts", "grads", "act_blocks", "grad_blocks")
                      for i, a in enumerate(getattr(ws, kind))]
            arrays += [(name, 0, getattr(ws, name)) for name in ("logp", "exps", "onehot", "flat")]
            for (k, i, a), (l, j, b) in combinations(arrays, 2):
                if not ((k, l) in {("acts", "act_blocks"), ("grads", "grad_blocks")} and i == j):
                    assert not np.shares_memory(a, b), (m, k, i, l, j)
            # The padding rows the passes never write stay zero.
            assert ws.acts[0].shape[0] == tensor._padded(m) and not ws.acts[0][m:].any()
            assert not ws.grads[-1][m:].any()

    @pytest.mark.parametrize("classes", [4, 33])
    @pytest.mark.parametrize("n", [1, 64, 65, 4000])
    def test_the_natural_pass_runs_in_the_workspace(self, monkeypatch, classes, n):
        params = init_params(MlpConfig((2, 16, 16, classes), init_seed=1))
        rng = np.random.default_rng(n)
        x0, y = Tensor(rng.uniform(0, 1, size=(n, 2))), rng.integers(0, classes, size=n)
        calls = []

        def counted(*args):
            calls.append(args)
            return tensor.mlp_forward(*args)

        monkeypatch.setattr("robustlab.model.mlp_forward", counted)
        res = pgd_attack(params, x0, y, pgd20_config(), domain=DomainBox.unit(2), seed=2)
        assert calls == []  # forward_logits, behind predict, would allocate its own layers
        monkeypatch.undo()
        np.testing.assert_array_equal(res.natural_correct, predict(params, x0) == y)

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts are those of Linux with glibc's allocator")
    def test_passes_do_not_fault_their_buffers_in_again(self):
        """Linux with glibc only: a 4000-row pgdplus-shaped run (40 steps x 5
        restarts, 205 passes) on the README model, and on models of 16 and
        33 classes, takes fewer than 100 minor page faults per pass. Passes
        that free their 512 KB layer arrays, or (n, classes) loss-head
        arrays as large, let glibc give the top of the heap back to the
        system and fault it in again on the next pass, hundreds of faults
        each. Skipped elsewhere, where neither the allocator nor the fault
        counter is the same.
        """
        import resource

        for classes in (4, 16, 33):
            params = init_params(MlpConfig((2, 16, 16, classes), init_seed=1))
            rng = np.random.default_rng(0)
            x0, y = Tensor(rng.uniform(0, 1, size=(4000, 2))), rng.integers(0, classes, size=4000)
            cfg = pgd_plus_config()
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=1)
            faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
            passes = cfg.restarts * (cfg.steps + 1)
            assert faults < 100 * passes, f"{classes} classes: {faults / passes:.0f} faults per pass"


def spy_on_passes(monkeypatch):
    """The row count of every pass `pgd_attack` makes from now on."""
    rows = []

    def spy(params, x, *args):
        rows.append(x.shape[0])
        return mlp_loss_and_grad(params, x, *args)

    monkeypatch.setattr(attacks, "mlp_loss_and_grad", spy)
    return rows


SETTLING_MODELS = {
    "relu": ((2, 16, 16, 4), "relu"), "tanh": ((2, 16, 16, 4), "tanh"),
    "one-column-layer": ((2, 8, 1, 3), "relu"), "10-classes": ((2, 16, 16, 10), "relu"),
}


SETTLING_SIZES = (1, 2, 3, 5, 40, 65, 130, 300)


def settling_batches(name):
    """A random model and batches of SETTLING_SIZES rows in the unit box: up to 40
    rows a pass is one block and never shrinks; 65, 130 and 300 rows take 2, 3 and 5
    blocks, and their passes shrink as rows settle."""
    sizes, activation = SETTLING_MODELS[name]
    rng = np.random.default_rng(7)
    params = random_params(rng, sizes, activation)
    return params, [(rng.uniform(0, 1, size=(k, 2)), rng.integers(0, sizes[-1], size=k)) for k in SETTLING_SIZES]


def settling_config(alpha=1.0, random_start=True, clip_to_domain=True):
    return AttackConfig(epsilon=0.1, steps=12, step_size=0.03, restarts=2, alpha=alpha,
                        random_start=random_start, clip_to_domain=clip_to_domain)


class TestSettledRows:
    """PGD stops computing a row once its new iterate repeats its current one
    or the one before it, and keeps every output bit of the full-batch loop."""

    @pytest.mark.parametrize("model", list(SETTLING_MODELS))
    @pytest.mark.parametrize("alpha", [0.01, 1.0, 100.0])
    @pytest.mark.parametrize("random_start, clip_to_domain", [(False, False), (False, True), (True, False), (True, True)])
    def test_same_bits_as_the_full_batch_loop(self, model, alpha, random_start, clip_to_domain):
        params, batches = settling_batches(model)
        cfg = settling_config(alpha, random_start, clip_to_domain)
        for x0, y in batches:
            for slack in (None, 0, 2):
                got = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), seed=5, friendly_slack=slack)
                want, _ = full_batch_pgd(params, x0, y, cfg, DomainBox.unit(2), 5, slack)
                assert_same_result(got, want)

    @pytest.mark.parametrize("d", [1, 3])
    def test_same_bits_at_other_input_dims(self, d):
        # A best iterate is copied as one record of 8 d bytes. Batches of up to 32 rows
        # stack their two restarts into one pass, larger ones do not.
        rng = np.random.default_rng(d)
        params = random_params(rng, (d, 16, 16, 4), "relu")
        cfg = settling_config()
        for k in (1, 2, 3, 5, 17, 32, 33, 40):
            x0, y = rng.uniform(0, 1, size=(k, d)), rng.integers(0, 4, size=k)
            for slack in (None, 0, 2):
                got = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(d), seed=5, friendly_slack=slack)
                want, _ = full_batch_pgd(params, x0, y, cfg, DomainBox.unit(d), 5, slack)
                assert_same_result(got, want)

    @pytest.mark.parametrize("d", [1, 3])
    def test_a_best_iterate_at_minus_zero_keeps_its_bits(self, d):
        # Logits (0, 10 x1) and label 1: the loss grows as x1 falls. The box's lower face is
        # -0.0, so row 0, from x1 = 0.02, walks onto x1 = -0.0 and its loss peaks there.
        w = np.zeros((d, 2))
        w[0, 1] = 10.0
        params = linear_model(w, [0.0, 0.0])
        box = DomainBox((-0.0,) * d, (1.0,) * d)
        rng = np.random.default_rng(d)
        x0 = np.vstack([np.full((1, d), 0.02), rng.uniform(0.2, 1, size=(4, d))])
        y = np.ones(5, dtype=int)
        cfg = settling_config()
        for slack in (None, 0, 2):
            got = pgd_attack(params, Tensor(x0), y, cfg, domain=box, seed=5, friendly_slack=slack)
            want, _ = full_batch_pgd(params, x0, y, cfg, box, 5, slack)
            assert_same_result(got, want)
            assert got.adversarial.data[0, 0] == 0.0 and np.signbit(got.adversarial.data[0, 0])

    @pytest.mark.parametrize("n", [1, 20, 22, 32])
    def test_restarts_in_uneven_groups(self, monkeypatch, n):
        # pgdplus's 5 restarts stack G = min(5, 64 // n) at a time: one group of 5 at n = 1,
        # groups of 3 and 2 at n = 20, and of 2, 2 and 1 at n = 22 and 32.
        params, _ = settling_batches("relu")
        rng = np.random.default_rng(n)
        x0, y = rng.uniform(0, 1, size=(n, 2)), rng.integers(0, 4, size=n)
        cfg = AttackConfig(epsilon=0.1, steps=12, step_size=0.03, restarts=5, random_start=True)
        climbs = []

        def spy(model, config, x, *args):
            climbs.append(x.shape[0])
            return climb(model, config, x, *args)

        climb = attacks._climb
        monkeypatch.setattr(attacks, "_climb", spy)
        for slack in (None, 1):
            climbs.clear()
            got = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), seed=3, friendly_slack=slack)
            want, _ = full_batch_pgd(params, x0, y, cfg, DomainBox.unit(2), 3, slack)
            assert_same_result(got, want)
            assert climbs == [g * n for g in {1: [5], 20: [3, 2], 22: [2, 2, 1], 32: [2, 2, 1]}[n]]

    def test_the_batches_hit_every_case(self, monkeypatch):
        # Fixed points, 2-cycles and settled rows are read off the full-batch iterates, so
        # they do not depend on the code under test; the spy shows the passes it made.
        rows = spy_on_passes(monkeypatch)
        cfg = settling_config()
        hit = set()
        for model in SETTLING_MODELS:
            params, batches = settling_batches(model)
            for x0, y in batches:
                rows.clear()
                pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), seed=5)
                _, paths = full_batch_pgd(params, x0, y, cfg, DomainBox.unit(2), 5)
                bits = paths.view(np.int64)
                fixed = (bits[:, 1:] == bits[:, :-1]).all(axis=-1)  # x[t + 1] == x[t]
                cycle = (bits[:, 2:] == bits[:, :-2]).all(axis=-1)  # x[t + 1] == x[t - 1]
                settled = fixed[:, :-1] | cycle  # at steps 0 .. steps - 2, as the passes that follow
                shrunk = sorted({k for k in rows if tensor._padded(k) < tensor._padded(len(y))}, reverse=True)
                hit |= {case for case, seen in [
                    ("fixed point", fixed.any()),
                    ("2-cycle", (cycle & ~fixed[:, 1:]).any()),
                    ("every row settled before the last step", settled.any(axis=1).all(axis=-1).any()),
                    ("a pass shrunk to fewer blocks", len(shrunk) > 0),
                    ("a shrunk pass shrunk again", len(shrunk) > 1),
                    ("a shrink to one block", 0 < len(shrunk) and shrunk[-1] <= 64),
                    ("one row", len(y) == 1), ("two rows", len(y) == 2),
                ] if seen}
        assert len(hit) == 8, hit

    def test_a_two_cycle_across_the_boundary_fills_in_alternating_tails(self, monkeypatch):
        # h = (relu(0.53 - x1), relu(x1 - 0.53)) and logits (100 h1 + h2, 0.05): label 0's
        # loss peaks at x1 = 0.53. Steps of 1/16 from x1 = 0.25 end in a 2-cycle between
        # 0.5, correct, and 0.5625, wrong, which settles at step 5 of 10. 64 more rows from
        # x1 = 0.3125 (x2 does not move) settle a step earlier, so the 2-block pass shrinks
        # and the pass of step 5 runs on the first row alone.
        config = MlpConfig((2, 2, 2), activation="relu")
        params = make_params(config, [[[-1.0, 1.0], [0.0, 0.0]], [[100.0, 0.0], [1.0, 0.0]]],
                             [[0.53, -0.53], [0.0, 0.05]])
        cfg = AttackConfig(epsilon=0.5, steps=10, step_size=0.0625, clip_to_domain=False)
        rows = spy_on_passes(monkeypatch)
        earlier = np.column_stack([np.full(64, 0.3125), np.linspace(0.0, 1.0, 64)])
        for x0 in (np.array([[0.25, 0.5]]), np.vstack([[[0.25, 0.5]], earlier])):
            y = np.zeros(len(x0), dtype=int)
            for slack in (None, 0, 1, 2, 3):
                rows.clear()
                want, _ = full_batch_pgd(params, x0, y, cfg, None, 0, slack)
                assert_same_result(pgd_attack(params, Tensor(x0), y, cfg, friendly_slack=slack), want)
                assert want.correct_trace[0, 0, 4:].tolist() == [True, False] * 3 + [True]
                assert rows == [len(y)] * 5 + [1]

    def test_a_fixed_point_reached_right_after_a_shrink(self, monkeypatch):
        # Logits (0, 10 (x1 - 0.47)) and label 0: every row walks right in steps of 1/16.
        # Rows 0-63 stop at the box's face after two steps and settle at step 2, so the
        # 2-block pass shrinks to row 64. Its step in the first pass after the shrink, at
        # step 3, crosses the boundary to its ball's face at x1 = 0.5, where it stays: it
        # settles at step 4, in the second 1-row pass.
        params = linear_model([[0.0, 10.0], [0.0, 0.0]], [0.0, -4.7])
        cfg = AttackConfig(epsilon=0.25, steps=8, step_size=0.0625)
        face = np.column_stack([np.full(64, 0.875), np.linspace(0.0, 1.0, 64)])
        x0, y = np.vstack([face, [[0.25, 0.5]]]), np.zeros(65, dtype=int)
        rows = spy_on_passes(monkeypatch)
        for slack in (None, 0, 1, 2):
            rows.clear()
            want, _ = full_batch_pgd(params, x0, y, cfg, DomainBox.unit(2), 0, slack)
            got = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), friendly_slack=slack)
            assert_same_result(got, want)
            assert want.correct_trace[64, 0, 3:].tolist() == [True] + [False] * 5
            assert rows == [65, 65, 65, 1, 1]

    def test_a_row_at_a_fixed_point_is_not_computed_in_the_next_pass(self, monkeypatch):
        # h = relu(x1 + x2 - 1) and logits (h, -h), label 1: a row above the line climbs by
        # 0.01 per coordinate and step. A row below it has a dead unit and a zero input
        # gradient, so its first step leaves it where it started: a fixed point, seen at
        # step 0. A pass of more than one block drops such rows at once; a one-block pass
        # keeps computing them until every row has settled.
        config = MlpConfig((2, 1, 2), activation="relu")
        params = make_params(config, [[[1.0], [1.0]], [[1.0, -1.0]]], [[-1.0], [0.0, 0.0]])
        cfg = AttackConfig(epsilon=0.5, steps=6, step_size=0.01, clip_to_domain=False)
        x0 = np.random.default_rng(0).uniform(0.0, 0.45, size=(130, 2))
        x0[::3] += 0.55  # rows 0, 3, ..., 129 are live
        passes = []

        def spy(params, x, *args):
            passes.append(x.copy())
            return mlp_loss_and_grad(params, x, *args)

        monkeypatch.setattr(attacks, "mlp_loss_and_grad", spy)
        dead = np.ones(130, dtype=bool)
        dead[::3] = False
        for x, want_rows in [(x0, [130] + [44] * 6), (x0[dead], [86]), (x0[:40], [40] * 7), (x0[1:3], [2])]:
            y = np.ones(len(x), dtype=int)
            for slack in (None, 1):
                passes.clear()
                want, paths = full_batch_pgd(params, x, y, cfg, None, 0, slack)
                assert_same_result(pgd_attack(params, Tensor(x), y, cfg, friendly_slack=slack), want)
                assert [p.shape[0] for p in passes] == want_rows
                if len(x) == 130:  # after step 0, exactly the live rows' iterates
                    assert all(p.tobytes() == paths[0, t, ::3].tobytes() for t, p in enumerate(passes[1:], 1))

    def test_most_row_passes_skipped(self, monkeypatch):
        # A 4000-row pgdplus-shaped run on the README model: sign steps of 0.01 reach the
        # 0.031-ball's corners within a few steps, and about 14 % of the rows are computed.
        rows = spy_on_passes(monkeypatch)
        params = init_params(MlpConfig((2, 16, 16, 4), init_seed=1))
        rng = np.random.default_rng(0)
        x0, y = Tensor(rng.uniform(0, 1, size=(4000, 2))), rng.integers(0, 4, size=4000)
        cfg = pgd_plus_config()
        pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=1)
        assert sum(rows) <= 0.16 * 4000 * cfg.restarts * (cfg.steps + 1)

    @pytest.mark.parametrize("model", ["cancelling", *SETTLING_MODELS])
    def test_a_one_row_run_gives_that_rows_bits_in_a_batched_run(self, model):
        # oracle-check attacks one row at a time. Without a random start each row of a
        # batched run starts where its 1-row run does, and every output keeps its bits,
        # also in the shrinking passes of the 130-row settling batch. In the cancelling
        # model two relu units, alike in x1 and opposite in x2, get the same upstream
        # gradient: the x2 component of the input gradient is 0 in real arithmetic, and
        # its float sign follows the kernel's rounding.
        if model == "cancelling":
            params = make_params(MlpConfig((2, 2, 3), activation="relu"),
                                 [[[1.0, 1.0], [0.3, -0.3]], [[0.7, -1.1, 0.2], [0.7, -1.1, 0.2]]],
                                 [[0.5, 0.5], [0.0, 0.1, -0.2]])
            rng = np.random.default_rng(7)
            x0, y = rng.uniform(0, 1, size=(40, 2)), rng.integers(0, 3, size=40)
        else:
            params, batches = settling_batches(model)
            x0, y = batches[SETTLING_SIZES.index(130)]
        cfg = settling_config(random_start=False)
        batch = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), friendly_slack=1)
        for i in range(len(y)):
            alone = pgd_attack(params, Tensor(x0[i:i + 1]), y[i:i + 1], cfg, domain=DomainBox.unit(2),
                               friendly_slack=1)
            for f in fields(AttackResult):
                a, b = getattr(alone, f.name), getattr(batch, f.name)
                if isinstance(a, Tensor):
                    a, b = a.data, b.data
                assert a.tobytes() == b[i:i + 1].tobytes(), (i, f.name)


def gairat_on_blobs():
    """A GAIRAT model trained with a 5-step inner PGD on 192 blobs points, and the points."""
    data = gen_gaussian_blobs(192, ((0.3, 0.3), (0.7, 0.3), (0.3, 0.7), (0.7, 0.7)), 0.13, 11)
    inner = AttackConfig(epsilon=0.031, steps=5, step_size=0.031 / 4, random_start=True)
    cfg = TrainConfig(method="gairat", epochs=3, batch_size=64, learning_rate=0.15, seed=3, inner_attack=inner,
                      burn_in_epochs=1, omega_lambda=0.0)
    return train(MlpConfig((2, 16, 16, 4), init_seed=3), data, cfg)[0], data


class TestOneBlockSettleGate:
    """A one-block pass stops only once every row has settled, so it runs the
    settle test only at a step where its first row has. The passes made are
    the ones a settle test at every step makes: the counts below were taken
    with that test, on the same model, data and seeds."""

    @pytest.fixture(scope="class")
    def trained(self):
        return gairat_on_blobs()

    def test_a_five_step_training_run_makes_every_pass(self, monkeypatch):
        rows = spy_on_passes(monkeypatch)
        gairat_on_blobs()
        assert (len(rows), sum(rows)) == (54, 3456)  # 3 epochs x 3 batches x 6 passes of 64 rows

    def test_oracle_check_runs_stop_where_they_did(self, monkeypatch, trained):
        # oracle-check's runs: one row, 5 restarts stacked into one pass, 50 steps.
        params, data = trained
        cfg = AttackConfig(epsilon=0.05, steps=50, step_size=0.005, restarts=5, random_start=True)
        rows = spy_on_passes(monkeypatch)
        passes = []
        for i in range(6):
            pgd_attack(params, Tensor(data.points.data[i:i + 1]), data.labels[i:i + 1], cfg, domain=data.domain,
                       seed=2 + i)
            passes.append(len(rows))
            rows.clear()
        assert passes == [20, 20, 21, 21, 14, 21]

    def test_a_stacked_pgdplus_run_stops_where_it_did(self, monkeypatch, trained):
        # 20 points: 3 restarts stacked into a 60-row pass, then 2 into a 40-row one.
        params, data = trained
        rows = spy_on_passes(monkeypatch)
        pgd_attack(params, Tensor(data.points.data[:20]), data.labels[:20], pgd_plus_config(), domain=data.domain,
                   seed=5)
        assert rows == [60] * 8 + [40] * 8


@pytest.mark.parametrize("d", range(1, 10))
def test_rows_holding_a_true(d):
    # A row of 1, 2, 4 or 8 bools is read as one unsigned integer, others by a product by ones;
    # a gathered pass's masks are prefix rows of the run's.
    a = np.random.default_rng(d).random((3, 50, d)) < 0.1
    a[1, :4] = True
    for rows in (a[0], a[1], a[2, :17]):
        np.testing.assert_array_equal(attacks._any_by_row(rows), rows.any(axis=1))


def tied_model(classes, ulps):
    """A random relu model whose classes 1 and 2 have the same weights, and
    biases that are equal (ulps 0) or 2 ulps apart per unit of ulps, class 2
    above on ulps > 0. Both biases are raised by 1, so the pair holds the
    row max in most rows."""
    rng = np.random.default_rng(3)
    p = random_params(rng, (2, 16, classes), "relu")
    w, b = [t.data.copy() for t in p.weights], [t.data.copy() for t in p.biases]
    w[-1][:, 2] = w[-1][:, 1]
    b[-1][1] += 1.0
    b[-1][2] = b[-1][1] + 2 * ulps * np.spacing(b[-1][1])
    return make_params(p.config, w, b)


class TestCorrectnessFromTheHead:
    """A fused pass of more than one block reads each row's correctness off
    the head's Fortran-ordered exponentials, whose row maxima are exactly
    1.0, and falls back to argmax unless every row holds a single 1.0.
    Every output keeps the bits of the full-batch loop, which reads argmax
    on every pass."""

    @pytest.mark.parametrize("classes", [4, 33], ids=["F-ordered-exps", "C-ordered-exps"])
    @pytest.mark.parametrize("ulps, alpha, ties", [
        (0, 1.0, True), (-2, 0.01, True), (2, 0.01, True), (-2, 1.0, False),
    ], ids=["exact-tie", "near-tie-lower-index-above", "near-tie-higher-index-above", "apart-at-alpha-1"])
    @pytest.mark.parametrize("n", [20, 64, 300], ids=["restart-stacked", "one-block", "multi-block"])
    def test_same_bits_as_argmax(self, monkeypatch, classes, ulps, alpha, ties, n):
        # Labels 1 and 2 in most rows: where the pair holds the max, argmax picks the lower
        # index on an exact tie and the larger logit on a near one, and the other label is
        # wrong although its exponential is 1.0 too (a near-tie's rounds to 1.0 at alpha 0.01).
        params = tied_model(classes, ulps)
        rng = np.random.default_rng(n)
        x0, y = rng.uniform(0, 1, size=(n, 2)), rng.choice([0, 1, 2, 2, 1], size=n)
        cfg = AttackConfig(epsilon=0.1, steps=12, step_size=0.03, restarts=3, alpha=alpha, random_start=True)
        passes = []  # per pass: its rows, and its rows whose label's exponential is 1.0 but not argmax's

        def spy(params, x, lab, alpha, *args):
            step = mlp_loss_and_grad(params, x, lab, alpha, *args)
            logits = np.asfortranarray(step.logits)  # the head's exponentials, as it computes them
            exps = np.empty_like(logits)
            tensor._log_softmax(logits, alpha, np.empty_like(logits), exps)
            misread = (exps[np.arange(len(lab)), lab] == 1.0) & (step.logits.argmax(axis=1) != lab)
            passes.append((x.shape[0], np.count_nonzero(misread)))
            return step

        monkeypatch.setattr(attacks, "mlp_loss_and_grad", spy)
        for slack in (None, 1):
            got = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), seed=5, friendly_slack=slack)
            want, _ = full_batch_pgd(params, x0, y, cfg, DomainBox.unit(2), 5, slack)
            assert_same_result(got, want)
        first = passes[0][0]
        assert first == {20: 60, 64: 64, 300: 300}[n]  # 20 rows stack their 3 restarts into one block
        read = [misread for rows, misread in passes if rows == first]
        assert (min(read) > 0) if ties else (max(read) == 0)


class TestKappa:
    def test_kappa_counts_from_natural_point_under_random_start(self):
        # natural point already misclassified -> kappa 0 even though the
        # noised start may be classified correctly
        params = linear_model(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        x0 = Tensor([[0.4, 0.6]])  # predicts class 1
        y = np.array([0])
        cfg = AttackConfig(epsilon=0.3, steps=3, step_size=0.1, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=0)
        assert res.kappa[0] == 0


class TestFriendlySearch:
    def _setup(self):
        # boundary is x0 = x1; both points start correctly classified with
        # a small margin so PGD flips them quickly
        w = np.array([[1.0, -1.0], [-1.0, 1.0]])
        params = linear_model(w, [0.0, 0.0])
        x0 = np.array([[0.52, 0.48], [0.45, 0.55]])
        y = np.array([0, 1])
        cfg = AttackConfig(epsilon=0.2, steps=8, step_size=0.03, random_start=False)
        return params, Tensor(x0), y, cfg

    def test_early_stop_returns_first_flip(self):
        params, x0, y, cfg = self._setup()
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), friendly_slack=0)
        adv = res.friendly
        # flips happen within 2 steps here; the early-stopped points differ
        # from the full-run max-loss points
        assert np.all(predict(params, adv) != y)
        assert not np.array_equal(adv.data, res.adversarial.data)
        # moved at most (first flip step count) * lam in sup norm
        assert np.abs(adv.data - x0.data).max() <= 2 * cfg.step_size + 1e-12

    def test_margin_holds_at_stop_but_not_before(self):
        params, x0, y, cfg = self._setup()
        adv = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), friendly_slack=0).friendly
        # hand-step to find the same trajectory and locate the flip
        w, b = params.weights[0].data, params.biases[0].data
        x = x0.data.copy()
        prev = x.copy()
        flipped_at_prev_ok = np.zeros(len(y), dtype=bool)
        for _ in range(cfg.steps):
            g = scaled_ce_input_grad(x, w, b, y, 1.0)
            nxt = np.clip(x + cfg.step_size * np.sign(g), x0.data - cfg.epsilon, x0.data + cfg.epsilon)
            nxt = np.clip(nxt, 0.0, 1.0)
            prev, x = x, nxt
            done = np.all(np.abs(adv.data - x) < 1e-15, axis=1)
            for i in np.nonzero(done)[0]:
                flipped_at_prev_ok[i] = (
                    predict(params, Tensor(x[i:i + 1]))[0] != y[i]
                    and predict(params, Tensor(prev[i:i + 1]))[0] == y[i]
                )
        assert flipped_at_prev_ok.all()

    def test_never_flipped_falls_back_to_pgd_output(self, rng):
        # strongly separated points a weak attack cannot flip
        params = linear_model(np.array([[2.0, -2.0], [-2.0, 2.0]]), [0.0, 0.0])
        x0 = Tensor([[0.9, 0.1], [0.1, 0.9]])
        y = np.array([0, 1])
        cfg = AttackConfig(epsilon=0.05, steps=5, step_size=0.01, restarts=2, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=3, friendly_slack=0)
        adv = res.friendly
        assert np.all(predict(params, Tensor._wrap(adv.data.copy())) == y)
        np.testing.assert_array_equal(adv.data, res.adversarial.data)

    def test_slack_continues_past_flip(self):
        params, x0, y, cfg = self._setup()
        adv0 = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), friendly_slack=0).friendly
        adv2 = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), friendly_slack=2).friendly
        assert np.all(np.abs(adv2.data - x0.data).max(axis=1) >= np.abs(adv0.data - x0.data).max(axis=1))
        assert not np.array_equal(adv0.data, adv2.data)

    def test_negative_slack_rejected(self):
        params, x0, y, cfg = self._setup()
        with pytest.raises(ParameterError, match=r"^friendly_slack must be >= 0, got -1$"):
            pgd_attack(params, x0, y, cfg, friendly_slack=-1)

    @pytest.mark.parametrize("slack", [0, 2])
    def test_pgd_attack_carries_the_same_points(self, rng, slack):
        params = random_params(rng, (2, 8, 2), scale=2.0)
        x0 = Tensor(rng.uniform(0, 1, size=(30, 2)))
        y = rng.integers(0, 2, size=30)
        cfg = AttackConfig(epsilon=0.1, steps=6, step_size=0.03, restarts=2, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=4, friendly_slack=slack)
        plain = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=4)
        np.testing.assert_array_equal(res.adversarial.data, plain.adversarial.data)
        np.testing.assert_array_equal(res.kappa, plain.kappa)


class TestLargeAlphaMarginLimit:
    """As alpha grows, the alpha-scaled cross-entropy's sign-gradient step
    becomes the logit-margin step (Carlini & Wagner, arXiv 1608.04644)."""

    def test_sign_of_scaled_ce_gradient_is_sign_of_margin_gradient(self, rng):
        # Linear model z = x W + b: the margin max_{j != y} z_j - z_y has
        # gradient W[:, j*] - W[:, y] away from ties. The third class trails
        # the runner-up by alpha * 0.2 = 20 in scaled logits, so its weight
        # is e^-20 of the runner-up's. alpha * (gap to the runner-up) stays
        # below 30: past about 37, 1 - p_y rounds to 0 in float64 and the
        # -W[:, y] half of the gradient is lost.
        w = rng.standard_normal((2, 4))
        b = rng.standard_normal(4)
        params = linear_model(w, b)
        alpha = 100.0
        checked = 0
        for x in rng.uniform(0, 1, size=(2000, 2)):
            z = x @ w + b
            y, runner_up, third = np.argsort(z)[::-1][:3]
            gap = z[y] - z[runner_up]
            margin_grad = w[:, runner_up] - w[:, y]
            if not (0.01 < gap < 0.3 and z[runner_up] - z[third] > 0.2 and np.abs(margin_grad).min() > 1e-3):
                continue
            ce = mlp_loss_and_grad(params, x[None, :], np.array([y]), alpha, None, True, False)
            np.testing.assert_array_equal(np.sign(ce.input_grad[0]), np.sign(margin_grad))
            checked += 1
        assert checked >= 50


class TestBruteForce:
    def test_constant_model_robust(self):
        params = linear_model(np.zeros((2, 2)), [1.0, 0.0])  # always predicts 0
        assert brute_force_attack(params, np.array([0.5, 0.5]), 0, 0.1, 11,
                                  domain=DomainBox.unit(2))

    def test_boundary_through_ball_incorrect(self):
        params = linear_model(np.array([[1.0, -1.0], [-1.0, 1.0]]), [0.0, 0.0])
        assert not brute_force_attack(params, np.array([0.52, 0.48]), 0, 0.1, 21,
                                      domain=DomainBox.unit(2))

    def test_dimension_cap(self):
        params = linear_model(np.zeros((4, 2)), [0.0, 0.0])
        with pytest.raises(CapabilityError):
            brute_force_attack(params, np.zeros(4), 0, 0.1, 11)

    def test_grid_cap(self):
        params = linear_model(np.zeros((2, 2)), [0.0, 0.0])
        with pytest.raises(CapabilityError):
            brute_force_attack(params, np.zeros(2), 0, 0.1, 102)

    @pytest.mark.parametrize("centre", [-0.5, 1.5, 1.02, 0.0], ids=[
        "ball-below-the-box", "ball-above-the-box", "straddles-upper-face", "centred-on-a-face"])
    def test_grid_spans_the_clamped_ball_that_pgd_walks(self, monkeypatch, centre):
        # The cases of TestProject: the grid runs exactly over the ball that
        # every PGD step clamps into the box.
        grids = []
        monkeypatch.setattr(attacks, "predict", lambda m, x: grids.append(x.data) or predict(m, x))
        params = linear_model(np.zeros((2, 2)), [1.0, 0.0])
        x0, box = np.array([centre, 0.5]), DomainBox.unit(2)
        assert brute_force_attack(params, x0, 0, 0.1, 5, domain=box)
        far = np.array([[-10.0, -10.0], [10.0, 10.0]])
        corners = project(x0 + far, np.tile(x0, (2, 1)), 0.1, domain=box)
        grid = grids[0]
        assert grid.shape == (25, 2)
        np.testing.assert_array_equal(grid.min(axis=0), corners[0])
        np.testing.assert_array_equal(grid.max(axis=0), corners[1])
        inside = project(grid, np.tile(x0, (25, 1)), 0.1, domain=box)
        np.testing.assert_array_equal(inside, grid)
        # One long PGD step from a random start ends on a corner of that ball: a grid point.
        pgd_params = linear_model(np.array([[1.0, -1.0], [-1.0, 1.0]]), [0.0, 0.0])
        cfg = AttackConfig(epsilon=0.1, steps=1, step_size=1.0, random_start=True)
        res = pgd_attack(pgd_params, Tensor(x0[None]), np.array([0]), cfg, domain=box, seed=1)
        np.testing.assert_array_equal(res.adversarial.data[0], [corners[0][0], corners[1][1]])

    def test_dominates_pgd_on_random_tiny_models(self, rng):
        # If PGD finds any misclassified point, the exhaustive grid must
        # also refute robustness.
        violations = 0
        for trial in range(15):
            params = random_params(rng, (2, 6, 2), scale=1.2)
            x0 = rng.uniform(0.2, 0.8, size=(1, 2))
            y = np.array([int(predict(params, Tensor(x0))[0])])  # start correct
            cfg = AttackConfig(epsilon=0.1, steps=30, step_size=0.01, restarts=3, random_start=True)
            res = pgd_attack(params, Tensor(x0), y, cfg, domain=DomainBox.unit(2), seed=trial)
            pgd_flipped = bool((~res.correct_trace).any())
            bf_robust = brute_force_attack(params, x0[0], int(y[0]), 0.1, 51,
                                           domain=DomainBox.unit(2))
            if pgd_flipped and bf_robust:
                violations += 1
        assert violations == 0


class TestAlphaOnlyAffectsCrafting:
    def test_fixed_adversarial_set_accuracy_identical_across_alpha(self, rng):
        params = random_params(rng, (2, 8, 2))
        x0 = Tensor(rng.uniform(0, 1, size=(30, 2)))
        y = rng.integers(0, 2, size=30)
        cfg = AttackConfig(epsilon=0.08, steps=10, step_size=0.02, alpha=10.0, random_start=True)
        adv = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=5).adversarial
        base_correct = predict(params, adv) == y
        for alpha in (1e-6, 0.01, 1.0, 10.0, 100.0):
            # The fused pass at any scale: its loss head's verdict is argmax's.
            correct = mlp_loss_and_grad(params, adv.data, y, alpha, None, False, False).correct
            np.testing.assert_array_equal(correct, base_correct)


class TestLogitScaleEquivariance:
    """Multiplying the last layer's weight and bias by 2^k multiplies the
    logits by 2^k exactly, and the scaled cross-entropy at alpha then makes
    the float operations of the original model at 2^k alpha, reverse pass
    included: every PGD output keeps its bits. At alpha = 1 the head skips
    its multiplies by alpha, and x * 1.0 is x, so a pair in which one side
    runs at alpha = 1 keeps them too."""

    @pytest.mark.parametrize("activation", ["relu", "tanh"])
    @pytest.mark.parametrize("k", [-3, 3, 7])
    @pytest.mark.parametrize("alpha", [0.01, 1.0, np.sqrt(10.0), None], ids=["0.01", "1", "sqrt10", "2^-k"])
    @pytest.mark.parametrize("preset", [pgd20_config, pgd_plus_config], ids=["pgd20", "pgdplus"])
    def test_scaled_last_layer_at_alpha_is_the_model_at_scaled_alpha(self, activation, k, alpha, preset):
        rng = np.random.default_rng(17)
        params = random_params(rng, (2, 16, 16, 4), activation)
        s = 2.0 ** k
        weights, biases = [w.data for w in params.weights], [b.data for b in params.biases]
        weights[-1], biases[-1] = s * weights[-1], s * biases[-1]
        scaled = make_params(params.config, weights, biases)
        alpha = 1.0 / s if alpha is None else alpha  # None: the original model runs at alpha = 1
        box = DomainBox.unit(2)
        for n in (20, 100):  # 20 rows stack pgdplus's restarts into one pass
            x0, y = Tensor(rng.uniform(0, 1, size=(n, 2))), rng.integers(0, 4, size=n)
            got = pgd_attack(scaled, x0, y, replace(preset(0.1), alpha=alpha), domain=box, seed=3)
            want = pgd_attack(params, x0, y, replace(preset(0.1), alpha=s * alpha), domain=box, seed=3)
            assert_same_result(got, want)
            assert not got.correct_trace.all()  # the attack flips some rows
