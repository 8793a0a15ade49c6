"""Acceptance gate: one test per criterion, each printing a PASS line.

Criterion 8 runs the full seeded two-moons pipeline once (module fixture)
and pins the outcome validated on the shipped default seeds. On a binary
problem the sign-gradient attack is provably scale-invariant (one competing
class: the input gradient is a positive scalar times a fixed direction, and
the max-loss iterate is the min-margin iterate at every scale), so the
swept accuracy curves are flat and every method's gap is exactly zero;
test_masking_mechanism_multiclass demonstrates the reweighting-induced
masking direction on a 4-class task, where the scale genuinely reshapes
the crafting gradient.
"""
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab.attacks import (
    AttackConfig,
    brute_force_attack,
    pgd20_config,
    pgd_attack,
    _ball_bounds,
    pgd_plus_config,
)
from robustlab.datasets import (
    DomainBox,
    gen_gaussian_blobs,
    gen_rings,
    gen_two_moons,
    load_csv,
    save_csv,
    split_dataset,
)
from robustlab.evaluate import (
    EvalReport,
    ReportRow,
    SweepConfig,
    alpha_sweep,
    eval_natural,
    eval_robust,
    read_report,
    write_report,
)
from robustlab.model import (
    MlpConfig,
    forward_logits,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from robustlab.tensor import Tensor, mlp_loss_and_grad
from robustlab.training import TrainConfig, compute_weights, train

from conftest import fd_max_rel_error, linear_model, random_params, relu_preactivation_margin

EPSILON = 0.031
PIPELINE_BUDGET_S = 600.0


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_gradient_fidelity():
    """100 random configs pass central finite differences at 1e-5."""
    start = time.time()
    alphas = (0.01, 1.0, 10.0, 100.0)
    rng = np.random.default_rng(202401)
    checked = 0
    worst = 0.0
    while checked < 100:
        d = int(rng.integers(2, 7))
        n_hidden = int(rng.integers(0, 3))  # up to 3 weight layers total
        widths = [int(rng.integers(2, 33)) for _ in range(n_hidden)]
        c = int(rng.integers(2, 6))
        sizes = (d, *widths, c)
        act = "relu" if checked % 2 else "tanh"
        alpha = alphas[checked % 4]
        n = int(rng.integers(2, 4))
        attempt_seed = int(rng.integers(0, 2**31))
        while True:
            sub = np.random.default_rng(attempt_seed)
            params = random_params(sub, sizes, activation=act)
            x = Tensor(sub.uniform(-1, 1, size=(n, d)))
            if relu_preactivation_margin(params, x) > 1e-3:
                break
            attempt_seed += 1  # resample away from relu kinks
        y = sub.integers(0, c, size=n)
        err = fd_max_rel_error(params, x, y, alpha)
        worst = max(worst, err)
        assert err < 1e-5, f"config {checked} ({sizes}, {act}, alpha={alpha}): rel err {err:.2e}"
        checked += 1
    elapsed = time.time() - start
    assert elapsed < 60.0, f"gradient fidelity run took {elapsed:.1f}s"
    print(f"\nPASS criterion 1: 100 configs, worst rel err {worst:.2e}, {elapsed:.1f}s")


# ---------------------------------------------------------------- criterion 2

def test_criterion_2_projection_and_ball_containment():
    rng = np.random.default_rng(77)
    box = DomainBox.unit(2)
    # 10,000 random (x0, perturbation, epsilon) triples, 100 per epsilon
    for _ in range(100):
        eps = float(rng.uniform(1e-4, 0.5))
        x0 = rng.uniform(0, 1, size=(100, 2))
        x = rng.uniform(-1, 2, size=(100, 2))
        # The projection of PGD's starts and steps: one clip to the clamped ball.
        lo, hi = _ball_bounds(x0, eps, box)
        proj = x.clip(lo, hi)
        assert np.abs(proj - x0).max() <= eps + 1e-12
        assert box.contains(proj)
        np.testing.assert_array_equal(proj.clip(*_ball_bounds(x0, eps, box)), proj)
    # every attack output stays inside the ball and the domain
    outputs = 0
    for trial in range(10):
        eps = float(rng.uniform(0.01, 0.2))
        params = random_params(rng, (2, 10, 2), scale=1.5)
        x0 = Tensor(rng.uniform(0, 1, size=(1000, 2)))
        y = rng.integers(0, 2, size=1000)
        cfg = AttackConfig(epsilon=eps, steps=10, step_size=eps / 4,
                           restarts=1 + trial % 2, random_start=True)
        res = pgd_attack(params, x0, y, cfg, domain=box, seed=trial)
        assert np.abs(res.adversarial.data - x0.data).max() <= eps + 1e-12
        assert box.contains(res.adversarial.data)
        outputs += len(y)
    assert outputs == 10_000
    print("\nPASS criterion 2: 10,000 projection triples + 10,000 attack outputs contained")


# ---------------------------------------------------------------- criterion 3

@given(
    st.integers(1, 30).flatmap(
        lambda k: st.tuples(
            st.just(k),
            st.lists(st.integers(0, k), min_size=1, max_size=64),
            st.floats(-3, 3),
        )
    )
)
@settings(max_examples=1000, deadline=None)
def test_criterion_3_weight_contract_properties(case):
    steps, kappa, lam = case
    kappa = np.array(kappa)
    w = compute_weights(kappa, steps, lam).omega
    assert np.all(w >= 0)
    assert abs(w.mean() - 1.0) <= 1e-10
    order = np.argsort(kappa)
    assert np.all(np.diff(w[order]) <= 1e-12)


def test_criterion_3_worked_example():
    """kappa=(0,10), K=10, lambda=0 against the arbitrary-precision oracle.

    Note: the oracle value for the first weight is 1 + tanh(5) =
    1.9999092..., computed from raw = (1 + tanh(lambda + 5(1-2k/K)))/2
    normalized to mean 1 (see the decisions ledger for the worked-example
    discrepancy analysis).
    """
    import mpmath as mp

    w = compute_weights(np.array([0, 10]), 10, 0.0).omega
    with mp.workdps(50):
        raw = [(1 + mp.tanh(5 * (1 - mp.mpf(2) * k / 10))) / 2 for k in (0, 10)]
        expected = [float(r * 2 / (raw[0] + raw[1])) for r in raw]
    np.testing.assert_allclose(w, expected, rtol=0, atol=1e-6)
    np.testing.assert_allclose(w, [1.9999092042625951, 9.0795737404868789e-05],
                               rtol=0, atol=1e-6)
    print(f"\nPASS criterion 3: weight contract + worked example {w.tolist()}")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_burn_in_reduction_bit_identical():
    start = time.time()
    moons = gen_two_moons(200, 0.1, seed=9)
    inner = AttackConfig(epsilon=EPSILON, steps=10, step_size=EPSILON / 4, random_start=True)
    mc = MlpConfig((2, 16, 2), init_seed=4)
    at_cfg = TrainConfig(method="at", epochs=10, batch_size=32, learning_rate=0.1,
                         seed=4, inner_attack=inner)
    g_cfg = TrainConfig(method="gairat", epochs=10, batch_size=32, learning_rate=0.1,
                        seed=4, inner_attack=inner, burn_in_epochs=10, omega_lambda=0.0)
    p_at, _ = train(mc, moons, at_cfg)
    p_g, _ = train(mc, moons, g_cfg)
    for a, b in zip(p_at.leaves(), p_g.leaves()):
        np.testing.assert_array_equal(a.data, b.data)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"burn-in reduction took {elapsed:.1f}s"
    print(f"\nPASS criterion 4: full-burn-in reweighted training bit-identical to AT ({elapsed:.1f}s)")


# ---------------------------------------------------------------- criterion 5

def test_criterion_5_oracle_dominance():
    rng = np.random.default_rng(55)
    box = DomainBox.unit(2)
    eps = 0.1
    cfg = AttackConfig(epsilon=eps, steps=50, step_size=eps / 10, restarts=5,
                       random_start=True)
    violations = 0
    for trial in range(50):
        act = "relu" if trial % 2 else "tanh"
        params = random_params(rng, (2, 6, 2), activation=act, scale=1.2)
        x0 = rng.uniform(0.2, 0.8, size=(1, 2))
        if trial % 2:
            y = int(predict(params, Tensor(x0))[0])
        else:
            y = int(rng.integers(0, 2))
        res = pgd_attack(params, Tensor(x0), np.array([y]), cfg, domain=box, seed=trial)
        pgd_found_flip = bool((~res.correct_trace).any() or not res.natural_correct[0])
        bf_robust = brute_force_attack(params, x0[0], y, eps, 51, domain=box)
        if pgd_found_flip and bf_robust:
            violations += 1
    assert violations == 0
    print("\nPASS criterion 5: 50 models, zero oracle-dominance violations")


# ------------------------------------------------- pipeline (criteria 6-8)

METHODS = ("erm", "at", "fat", "gairat")


@pytest.fixture(scope="module")
def pipeline():
    """Criterion 8's seeded end-to-end run, shared by criteria 6 and 7."""
    start = time.time()
    full = gen_two_moons(1500, 0.1, seed=42)
    train_set, test_set = split_dataset(full, 1000, seed=43)
    inner = AttackConfig(epsilon=EPSILON, steps=10, step_size=EPSILON / 4, random_start=True)
    results = {}
    for method in METHODS:
        cfg = TrainConfig(
            method=method, epochs=60, batch_size=64, learning_rate=0.1, seed=7,
            inner_attack=None if method == "erm" else inner,
            burn_in_epochs=18 if method == "gairat" else 0,
            omega_lambda=0.0 if method == "gairat" else None,
        )
        params, history = train(MlpConfig((2, 32, 32, 2), init_seed=7), train_set, cfg)
        report = alpha_sweep(
            params, test_set, SweepConfig(base_attack=pgd20_config(EPSILON)),
            "best_iterate", attack_name="pgd20", seed=5, model_id=method,
        )
        plus_acc = eval_robust(params, test_set, pgd_plus_config(EPSILON),
                               "all_iterates", seed=5)
        adv = pgd_attack(params, test_set.points, test_set.labels,
                         pgd20_config(EPSILON), domain=test_set.domain, seed=5)
        results[method] = {
            "params": params,
            "history": history,
            "report": report,
            "pgd_plus_accuracy": plus_acc,
            "adversarial": adv.adversarial,
        }
    return {"results": results, "test_set": test_set, "elapsed": time.time() - start}


def _gap(report: EvalReport) -> float:
    at_one = report.accuracy_at("pgd20", 1.0)
    worst = min(r.robust_accuracy for r in report.rows)
    return at_one - worst


def test_criterion_6_attack_strength_monotonicity(pipeline):
    for method, r in pipeline["results"].items():
        pgd20_acc = r["report"].accuracy_at("pgd20", 1.0)
        assert r["pgd_plus_accuracy"] <= pgd20_acc + 1e-12, (
            f"{method}: PGD+ {r['pgd_plus_accuracy']} > PGD-20 {pgd20_acc}"
        )
    print("\nPASS criterion 6: PGD+ verdict never above PGD-20 on any trained checkpoint")


def test_criterion_7_argmax_alpha_invariance(pipeline):
    rng = np.random.default_rng(7007)
    alphas = (1e-6, 0.01, 1.0, 10.0, 100.0)
    # The fused pass's verdict at every scale is the logits' argmax: each of
    # 1000 logit draws, fed through a one-layer identity model, once per label.
    for _ in range(1000):
        c = int(rng.integers(2, 11))
        logits = np.repeat(rng.uniform(-1, 1, size=(1, c)), c, axis=0)
        identity = linear_model(np.eye(c), np.zeros(c))
        ref = np.arange(c) == np.argmax(logits[0])
        for alpha in alphas:
            step = mlp_loss_and_grad(identity, logits, np.arange(c), alpha, None, False, False)
            np.testing.assert_array_equal(step.logits, logits)
            np.testing.assert_array_equal(step.correct, ref)
    # fixed crafted adversarial set: accuracy identical across scales, exactly
    test_set = pipeline["test_set"]
    for method, r in pipeline["results"].items():
        logits = forward_logits(r["params"], r["adversarial"]).data
        ref_correct = np.argmax(logits, axis=1) == test_set.labels
        ref_acc = float(np.mean(ref_correct))
        for alpha in alphas:
            step = mlp_loss_and_grad(r["params"], r["adversarial"].data, test_set.labels, alpha, None, False, False)
            np.testing.assert_array_equal(step.logits, logits)
            np.testing.assert_array_equal(step.correct, ref_correct)
            assert float(np.mean(step.correct)) == ref_acc
    print("\nPASS criterion 7: the fused pass's verdict is argmax's at every alpha, 1000 draws and all crafted sets")


def test_criterion_8_end_to_end_pipeline(pipeline, tmp_path):
    elapsed = pipeline["elapsed"]
    assert elapsed < PIPELINE_BUDGET_S, f"pipeline took {elapsed:.0f}s"
    lines = []
    for method, r in pipeline["results"].items():
        report = r["report"]
        assert len(report.rows) == 9
        assert all(row.n == 500 for row in report.rows)
        # criteria 6-7 hold within every report (6 re-checked here; 7 holds
        # exactly because robust accuracy is computed by plain argmax)
        assert r["pgd_plus_accuracy"] <= report.accuracy_at("pgd20", 1.0) + 1e-12
        write_report(report, tmp_path / f"{method}.csv")
        back = read_report(tmp_path / f"{method}.csv")
        assert back.worst_alpha_for("pgd20") == report.worst_alpha_for("pgd20")
        gap = _gap(report)
        worst_alpha = report.worst_alpha_for("pgd20")
        lines.append(
            f"  {method:<7} nat={report.natural_accuracy:.3f} "
            f"pgd20@1={report.accuracy_at('pgd20', 1.0):.3f} "
            f"pgd+={r['pgd_plus_accuracy']:.3f} worst_alpha={worst_alpha:.3g} gap={gap:.4f}"
        )
        # Validated outcome on the shipped seeds, pinned as a regression: on
        # this binary task the swept curves are exactly flat (see module
        # docstring), so every gap is 0 and the worst alpha falls back to
        # the smallest grid point by the tie rule. The paper's direction
        # (reweighting-induced masking exposed by scaling) appears once the
        # task has more than two classes: test_masking_mechanism_multiclass.
        assert gap == 0.0, f"{method}: flat-curve regression broken, gap={gap}"
        assert worst_alpha == pytest.approx(0.01)
        assert report.natural_accuracy >= 0.85
    print("\nPASS criterion 8: pipeline {:.0f}s (< {:.0f}s budget)".format(elapsed, PIPELINE_BUDGET_S))
    print("\n".join(lines))


# ------------------------------------------------------- mechanism showcase

def test_masking_mechanism_multiclass():
    """Reweighting-induced masking, exposed by logit scaling (4 classes).

    Pinned seeds, validated direction: the reweighted method's accuracy gap
    (accuracy at scale 1 minus accuracy at the worst scale) is strictly
    positive and the largest of the three adversarial methods, and its
    worst scale is above 1.
    """
    centers = [[0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]]
    ds = gen_gaussian_blobs(1200, centers, 0.13, seed=11)
    train_set, test_set = split_dataset(ds, 800, seed=12)
    inner = AttackConfig(epsilon=EPSILON, steps=10, step_size=EPSILON / 4, random_start=True)
    gaps, worst = {}, {}
    for method in ("at", "fat", "gairat"):
        cfg = TrainConfig(
            method=method, epochs=40, batch_size=64, learning_rate=0.1, seed=3,
            inner_attack=inner,
            burn_in_epochs=12 if method == "gairat" else 0,
            omega_lambda=0.0 if method == "gairat" else None,
        )
        params, _ = train(MlpConfig((2, 32, 32, 4), init_seed=3), train_set, cfg)
        report = alpha_sweep(params, test_set, SweepConfig(base_attack=pgd20_config(EPSILON)),
                             "best_iterate", attack_name="pgd20", seed=5)
        gaps[method] = _gap(report)
        worst[method] = report.worst_alpha_for("pgd20")
    assert gaps["gairat"] > 0.0
    assert gaps["gairat"] > gaps["at"]
    assert gaps["gairat"] > gaps["fat"]
    assert worst["gairat"] > 1.0
    print(f"\nPASS mechanism: gaps {gaps} worst alphas {worst}")


# ---------------------------------------------------------------- criterion 9

def test_criterion_9_serialization_round_trips(tmp_path):
    rng = np.random.default_rng(99)
    activations = ("relu", "tanh")
    for i in range(34):  # checkpoints
        sizes = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(2, 5))))
        sizes = sizes[:-1] + (max(sizes[-1], 2),)
        cfg = MlpConfig(sizes, activation=activations[i % 2], init_seed=int(rng.integers(0, 2**32)))
        params = init_params(cfg)
        meta = {"method": "at", "epochs": str(int(rng.integers(0, 100))), "tag": f"run-{i}"}
        path = tmp_path / f"c{i}.ckpt"
        save_checkpoint(params, meta, path)
        back = load_checkpoint(path)
        assert back.params.config == cfg and back.metadata == meta
        for a, b in zip(back.params.leaves(), params.leaves()):
            np.testing.assert_array_equal(a.data, b.data)
    for i in range(33):  # dataset CSVs
        kind = i % 3
        if kind == 0:
            ds = gen_two_moons(int(rng.integers(1, 20)) * 2, float(rng.uniform(0, 0.3)),
                               seed=int(rng.integers(0, 1000)))
        elif kind == 1:
            ds = gen_gaussian_blobs(int(rng.integers(1, 10)) * 2,
                                    [[0.2, 0.2], [0.8, 0.8]],
                                    float(rng.uniform(0, 0.2)), seed=int(rng.integers(0, 1000)))
        else:
            ds = gen_rings(int(rng.integers(1, 10)) * 2, (0.4, 0.9),
                           float(rng.uniform(0, 0.1)), seed=int(rng.integers(0, 1000)))
        path = tmp_path / f"d{i}.csv"
        save_csv(ds, path)
        back = load_csv(path)
        np.testing.assert_array_equal(back.points.data, ds.points.data)
        np.testing.assert_array_equal(back.labels, ds.labels)
        assert back.meta == ds.meta and back.domain == ds.domain
    for i in range(33):  # reports
        rows = tuple(
            ReportRow("pgd20", float(a), float(rng.uniform(0, 1)), int(rng.integers(1, 1000)))
            for a in np.logspace(-2, 2, int(rng.integers(1, 10)))
        )
        report = EvalReport(
            model_id=f"m{i}.ckpt", checkpoint_hash=f"{rng.integers(0, 2**63):x}",
            dataset_id="d.csv", dataset_seed=str(int(rng.integers(0, 99))),
            natural_accuracy=float(rng.uniform(0, 1)), rows=rows,
            worst_alpha=(("pgd20", float(min(rows, key=lambda r: r.robust_accuracy).alpha)),),
            extra=(("seed", str(i)),),
        )
        path = tmp_path / f"r{i}.csv"
        write_report(report, path)
        assert read_report(path) == report
    print("\nPASS criterion 9: 100 serialization round trips bit-exact")
