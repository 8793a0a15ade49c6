"""PGD family: projection, traces, kappa, early stopping, verdicts, oracle."""
import platform
import sys
from dataclasses import fields

import numpy as np
import pytest

from robustlab import attacks, tensor
from robustlab.attacks import (
    AttackConfig,
    AttackResult,
    brute_force_attack,
    count_kappa,
    friendly_adversarial_search,
    pgd20_config,
    pgd200_config,
    pgd_attack,
    pgd_plus_config,
    pgd_plus_verdict,
    project_linf,
)
from robustlab.datasets import DomainBox
from robustlab.errors import CapabilityError, ContractError, ParameterError, ShapeError
from robustlab.model import MlpConfig, init_params, predict
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


class TestProject:
    def test_inside_ball_unchanged(self):
        x = Tensor([[0.52, 0.48]])
        x0 = Tensor([[0.5, 0.5]])
        out = project_linf(x, x0, 0.1)
        np.testing.assert_array_equal(out.data, x.data)

    def test_clamp_arithmetic(self):
        out = project_linf(Tensor([[0.63]]), Tensor([[0.5]]), 0.1)
        assert out.data[0, 0] == pytest.approx(0.6, abs=1e-12)

    def test_domain_binds_after_ball(self):
        out = project_linf(Tensor([[1.2]]), Tensor([[0.99]]), 0.05,
                           domain=DomainBox((0.0,), (1.0,)))
        assert out.data[0, 0] == 1.0

    def test_idempotent_exactly(self, rng):
        x = Tensor(rng.uniform(-2, 3, size=(50, 4)))
        x0 = Tensor(rng.uniform(0, 1, size=(50, 4)))
        box = DomainBox.unit(4)
        once = project_linf(x, x0, 0.3, domain=box)
        twice = project_linf(once, x0, 0.3, domain=box)
        np.testing.assert_array_equal(once.data, twice.data)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            project_linf(Tensor([[1.0]]), Tensor([[1.0, 2.0]]), 0.1)

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
        got = project_linf(Tensor(x), Tensor(x0), 0.1, domain=box).data
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
        ([0, 1, 3, 2], IndexError),
        ([0, -1, 2, 1], IndexError),
        ([0], ShapeError),
        ([0, 1, 2], ShapeError),
        ([0, 1, 2, 0, 1], ShapeError),
        ([[0], [1], [2], [0]], ShapeError),
        ([0.0, 1.0, 2.0, 1.0], ParameterError),
        ([True, False, True, False], ParameterError),
    ], ids=["above-range", "negative", "length-1", "too-short", "too-long", "column", "float", "bool"])
    @pytest.mark.parametrize("entry", [pgd_attack, pgd_plus_verdict, friendly_adversarial_search])
    def test_bad_labels_raise_before_any_step(self, rng, labels, error, entry):
        # A wrong length used to escape from numpy's broadcasting as a plain
        # ValueError; ShapeError is one too.
        params = random_params(rng, (2, 4, 3))
        x0 = Tensor(rng.uniform(0, 1, size=(4, 2)))
        with pytest.raises(error):
            entry(params, x0, np.array(labels), pgd20_config(), domain=DomainBox.unit(2))

    def test_input_shape_is_checked_before_the_labels(self, rng):
        params = random_params(rng, (2, 4, 3))
        with pytest.raises(ShapeError, match="input shape"):
            pgd_attack(params, Tensor(np.zeros((4, 3))), np.array([0.5] * 4), pgd20_config())


class TestPgdOutOfRange:
    def test_a_nan_is_refused_naming_the_pass_that_made_it(self):
        # Class 0 wins by 2, label 1: at alpha 1e308 the scaled gradient (1e308, -1e308) times
        # w1.T overflows to inf (not an error), and the dead relu unit's 0 * inf is NaN.
        config = MlpConfig((2, 2, 2), activation="relu")
        params = make_params(config, [np.eye(2), [[2.0, -2.0], [2.0, -2.0]]], [[0.0, -10.0], [0.0, 0.0]])
        cfg = AttackConfig(epsilon=0.1, steps=3, step_size=0.01, alpha=1e308)
        with pytest.raises(ParameterError, match=r"made a NaN at restart 0, step 0 \(alpha 1e\+308\)"):
            pgd_attack(params, Tensor([[0.5, 0.5]]), np.array([1]), cfg)


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

    @pytest.mark.skipif(not sys.platform.startswith("linux") or platform.libc_ver()[0] != "glibc",
                        reason="page-fault counts are those of Linux with glibc's allocator")
    def test_passes_do_not_fault_their_buffers_in_again(self):
        """Linux with glibc only: a 4000-row pgdplus-shaped run (40 steps x 5
        restarts, 205 passes) on the README model takes fewer than 100 minor
        page faults per pass. Passes that free their 512 KB layer arrays let
        glibc give the top of the heap back to the system and fault it in
        again on the next pass, about 600 faults each. Skipped elsewhere,
        where neither the allocator nor the fault counter is the same.
        """
        import resource

        params = init_params(MlpConfig((2, 16, 16, 4), init_seed=1))
        rng = np.random.default_rng(0)
        x0, y = Tensor(rng.uniform(0, 1, size=(4000, 2))), rng.integers(0, 4, size=4000)
        cfg = pgd_plus_config()
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        passes = cfg.restarts * (cfg.steps + 1)
        assert faults < 100 * passes, f"{faults / passes:.0f} faults per pass"


class TestKappa:
    def test_natural_misclassification_is_zero(self):
        trace = np.array([[False, True, True]])
        assert count_kappa(trace, 2)[0] == 0

    def test_never_misclassified_is_steps(self):
        trace = np.ones((1, 11), dtype=bool)
        assert count_kappa(trace, 10)[0] == 10

    def test_first_failure_index(self):
        trace = np.array([[True, True, True, False, True]])
        assert count_kappa(trace, 4)[0] == 3

    def test_trace_width_contract(self):
        with pytest.raises(ContractError):
            count_kappa(np.ones((1, 5), dtype=bool), 10)

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
        adv = friendly_adversarial_search(params, x0, y, cfg, slack_steps=0,
                                          domain=DomainBox.unit(2))
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2))
        # flips happen within 2 steps here; the early-stopped points differ
        # from the full-run max-loss points
        assert np.all(predict(params, adv) != y)
        assert not np.array_equal(adv.data, res.adversarial.data)
        # moved at most (first flip step count) * lam in sup norm
        assert np.abs(adv.data - x0.data).max() <= 2 * cfg.step_size + 1e-12

    def test_margin_holds_at_stop_but_not_before(self):
        params, x0, y, cfg = self._setup()
        adv = friendly_adversarial_search(params, x0, y, cfg, slack_steps=0,
                                          domain=DomainBox.unit(2))
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
        adv = friendly_adversarial_search(params, x0, y, cfg, domain=DomainBox.unit(2), seed=3)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=3)
        assert np.all(predict(params, Tensor._wrap(adv.data.copy())) == y)
        np.testing.assert_array_equal(adv.data, res.adversarial.data)

    def test_slack_continues_past_flip(self):
        params, x0, y, cfg = self._setup()
        adv0 = friendly_adversarial_search(params, x0, y, cfg, slack_steps=0,
                                           domain=DomainBox.unit(2))
        adv2 = friendly_adversarial_search(params, x0, y, cfg, slack_steps=2,
                                           domain=DomainBox.unit(2))
        assert np.all(np.abs(adv2.data - x0.data).max(axis=1) >= np.abs(adv0.data - x0.data).max(axis=1))
        assert not np.array_equal(adv0.data, adv2.data)

    def test_negative_slack_rejected(self):
        params, x0, y, cfg = self._setup()
        with pytest.raises(ParameterError):
            friendly_adversarial_search(params, x0, y, cfg, slack_steps=-1)
        with pytest.raises(ParameterError):
            pgd_attack(params, x0, y, cfg, friendly_slack=-1)

    @pytest.mark.parametrize("slack", [0, 2])
    def test_pgd_attack_carries_the_same_points(self, rng, slack):
        params = random_params(rng, (2, 8, 2), scale=2.0)
        x0 = Tensor(rng.uniform(0, 1, size=(30, 2)))
        y = rng.integers(0, 2, size=30)
        cfg = AttackConfig(epsilon=0.1, steps=6, step_size=0.03, restarts=2, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=4, friendly_slack=slack)
        plain = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=4)
        adv = friendly_adversarial_search(params, x0, y, cfg, slack, domain=DomainBox.unit(2), seed=4)
        np.testing.assert_array_equal(res.friendly.data, adv.data)
        np.testing.assert_array_equal(res.adversarial.data, plain.adversarial.data)
        np.testing.assert_array_equal(res.kappa, plain.kappa)


class TestPgdPlusVerdict:
    def test_all_correct_is_robust(self):
        params = linear_model(np.array([[2.0, -2.0], [-2.0, 2.0]]), [0.0, 0.0])
        x0 = Tensor([[0.9, 0.1]])
        y = np.array([0])
        cfg = AttackConfig(epsilon=0.02, steps=5, step_size=0.005, restarts=3, random_start=True)
        assert pgd_plus_verdict(params, x0, y, cfg, domain=DomainBox.unit(2), seed=1)[0]

    def test_single_flip_anywhere_loses(self):
        # margin small enough that the attack flips at some iterate
        params = linear_model(np.array([[1.0, -1.0], [-1.0, 1.0]]), [0.0, 0.0])
        x0 = Tensor([[0.51, 0.49]])
        y = np.array([0])
        cfg = AttackConfig(epsilon=0.1, steps=10, step_size=0.02, restarts=2, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=DomainBox.unit(2), seed=2)
        assert not res.correct_trace[:, :, 1:].all()
        assert not pgd_plus_verdict(params, x0, y, cfg, domain=DomainBox.unit(2), seed=2)[0]

    def test_naturally_misclassified_loses_regardless(self):
        params = linear_model(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        x0 = Tensor([[0.3, 0.7]])
        y = np.array([0])
        cfg = AttackConfig(epsilon=0.01, steps=3, step_size=0.005, restarts=1, random_start=True)
        assert not pgd_plus_verdict(params, x0, y, cfg, domain=DomainBox.unit(2), seed=0)[0]

    @pytest.mark.parametrize("entry", ["pgd_attack", "pgd_plus_verdict", "friendly_adversarial_search"])
    def test_negative_seed_rejected(self, entry):
        params = linear_model(np.eye(2), [0.0, 0.0])
        cfg = AttackConfig(epsilon=0.1, steps=2, step_size=0.05, random_start=True)
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            getattr(attacks, entry)(params, Tensor([[0.2, 0.7]]), np.array([1]), cfg, seed=-1)


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
        # project_linf (and so every PGD step) clamps into the box.
        grids = []
        monkeypatch.setattr(attacks, "predict", lambda m, x: grids.append(x.data) or predict(m, x))
        params = linear_model(np.zeros((2, 2)), [1.0, 0.0])
        x0, box = np.array([centre, 0.5]), DomainBox.unit(2)
        assert brute_force_attack(params, x0, 0, 0.1, 5, domain=box)
        far = np.array([[-10.0, -10.0], [10.0, 10.0]])
        corners = project_linf(Tensor(x0 + far), Tensor(np.tile(x0, (2, 1))), 0.1, domain=box).data
        grid = grids[0]
        assert grid.shape == (25, 2)
        np.testing.assert_array_equal(grid.min(axis=0), corners[0])
        np.testing.assert_array_equal(grid.max(axis=0), corners[1])
        inside = project_linf(Tensor(grid), Tensor(np.tile(x0, (25, 1))), 0.1, domain=box).data
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
        from robustlab.model import forward_logits
        from robustlab.tensor import scaled_softmax

        logits = forward_logits(params, adv)
        base_pred = predict(params, adv)
        base_acc = float(np.mean(base_pred == y))
        for alpha in (1e-6, 0.01, 1.0, 10.0, 100.0):
            pred = np.argmax(scaled_softmax(logits, alpha).data, axis=1)
            np.testing.assert_array_equal(pred, base_pred)
            assert float(np.mean(pred == y)) == base_acc
