"""Evaluation protocols, the scale sweep, and report round trips."""
import numpy as np
import pytest

from robustlab.attacks import AttackConfig, pgd20_config, pgd_attack
from robustlab.datasets import Dataset, DomainBox, gen_two_moons
from robustlab.errors import ParameterError, ParseError, SchemaError
from robustlab.evaluate import (
    DEFAULT_ALPHA_GRID,
    VERDICTS,
    EvalReport,
    ReportRow,
    SweepConfig,
    alpha_sweep,
    eval_natural,
    eval_robust,
    read_report,
    write_report,
)
from robustlab.model import MlpConfig, MlpParams, predict
from robustlab.tensor import Tensor
from robustlab.training import TrainConfig, train

from conftest import linear_model, random_params


@pytest.fixture(scope="module")
def moons():
    return gen_two_moons(100, 0.1, seed=31)


@pytest.fixture(scope="module")
def trained(moons):
    cfg = TrainConfig(
        method="at", epochs=12, batch_size=25, learning_rate=0.5, seed=2,
        inner_attack=AttackConfig(epsilon=0.031, steps=5, step_size=0.031 / 4,
                                  random_start=True),
    )
    params, _ = train(MlpConfig((2, 8, 2), init_seed=2), moons, cfg)
    return params


class TestDefaultGrid:
    def test_nine_log_spaced_points(self):
        assert len(DEFAULT_ALPHA_GRID) == 9
        assert DEFAULT_ALPHA_GRID[0] == pytest.approx(1e-2)
        assert DEFAULT_ALPHA_GRID[-1] == pytest.approx(1e2)
        assert DEFAULT_ALPHA_GRID[4] == 1.0  # exact: 10**0.0

    def test_sweep_config_validation(self):
        base = pgd20_config()
        with pytest.raises(ParameterError):
            SweepConfig(base_attack=base, alpha_grid=())
        with pytest.raises(ParameterError):
            SweepConfig(base_attack=base, alpha_grid=(1.0, 0.5))
        with pytest.raises(ParameterError):
            SweepConfig(base_attack=base, alpha_grid=(0.0, 1.0))


class TestEvalNatural:
    def test_perfect_model(self, moons):
        # memorize labels through a lookup is overkill; a constant model on
        # single-class data does the job
        ds = moons.take(np.nonzero(moons.labels == 0)[0])
        params = linear_model(np.zeros((2, 2)), [1.0, 0.0])
        assert eval_natural(params, ds) == 1.0

    def test_constant_model_on_balanced_data(self, moons):
        params = linear_model(np.zeros((2, 2)), [1.0, 0.0])
        assert eval_natural(params, moons) == 0.5

    def test_matches_counting_oracle(self, rng):
        ds = gen_two_moons(1000, 0.2, seed=17)
        params = random_params(rng, (2, 6, 2))
        got = eval_natural(params, ds)
        correct = 0
        for i in range(len(ds)):
            p = predict(params, Tensor(ds.points.data[i:i + 1]))[0]
            correct += int(p == ds.labels[i])
        assert got == correct / len(ds)


class TestEvalRobust:
    def test_vanishing_epsilon_equals_natural(self, trained, moons):
        cfg = AttackConfig(epsilon=1e-12, steps=5, step_size=1e-13, random_start=True)
        assert eval_robust(trained, moons, cfg, seed=0) == eval_natural(trained, moons)

    def test_constant_model_accuracy_unmoved(self, moons):
        params = linear_model(np.zeros((2, 2)), [1.0, 0.0])
        cfg = AttackConfig(epsilon=0.1, steps=10, step_size=0.02, random_start=True)
        assert eval_robust(params, moons, cfg, seed=1) == eval_natural(params, moons)

    @pytest.mark.parametrize("case", ["vanishing-epsilon", "constant-model"])
    def test_all_iterates_reduces_to_natural(self, trained, moons, case):
        # Where no iterate can flip a prediction, every restart's trace
        # repeats the natural verdict.
        if case == "vanishing-epsilon":
            params = trained
            cfg = AttackConfig(epsilon=1e-12, steps=5, step_size=1e-13, restarts=3, random_start=True)
        else:
            params = linear_model(np.zeros((2, 2)), [1.0, 0.0])
            cfg = AttackConfig(epsilon=0.1, steps=10, step_size=0.02, restarts=3, random_start=True)
        assert eval_robust(params, moons, cfg, "all_iterates", seed=1) == eval_natural(params, moons)

    @pytest.mark.parametrize("verdict", VERDICTS)
    def test_negative_seed_rejected(self, trained, moons, verdict):
        with pytest.raises(ParameterError, match="seed must be >= 0"):
            eval_robust(trained, moons, pgd20_config(), verdict, seed=-1)

    def test_all_iterates_not_above_best_iterate(self, trained, moons):
        from robustlab.attacks import pgd_plus_config

        best = eval_robust(trained, moons, pgd20_config(0.031), "best_iterate", seed=0)
        harsher = eval_robust(trained, moons, pgd_plus_config(0.031), "all_iterates", seed=0)
        assert harsher <= best

    def test_all_iterates_bounded_by_grid_oracle(self, rng, moons):
        # The exhaustive grid refutes at least every point the aggressive
        # any-iterate verdict refutes (checked on a smooth tiny model).
        from robustlab.attacks import brute_force_attack

        params = random_params(rng, (2, 6, 2), activation="tanh", scale=1.2)
        subset = moons.take(np.arange(20))
        eps = 0.1
        cfg = AttackConfig(epsilon=eps, steps=20, step_size=eps / 10, restarts=2,
                           random_start=True)
        pgd_acc = eval_robust(params, subset, cfg, "all_iterates", seed=6)
        bf_correct = sum(
            brute_force_attack(params, subset.points.data[i], int(subset.labels[i]),
                               eps, 51, domain=subset.domain)
            for i in range(len(subset))
        )
        assert pgd_acc <= bf_correct / len(subset)

    def test_unknown_verdict(self, trained, moons):
        with pytest.raises(ParameterError):
            eval_robust(trained, moons, pgd20_config(), "last_iterate")


def one_point(x, y):
    return Dataset(points=Tensor([x]), labels=np.array([y]), domain=DomainBox.unit(2), num_classes=2)


class TestAllIteratesVerdict:
    """Robust-correct iff correct at the natural point and at every post-step
    iterate of every restart; one flip anywhere loses."""

    def test_all_correct_is_robust(self):
        params = linear_model(np.array([[2.0, -2.0], [-2.0, 2.0]]), [0.0, 0.0])
        cfg = AttackConfig(epsilon=0.02, steps=5, step_size=0.005, restarts=3, random_start=True)
        assert eval_robust(params, one_point([0.9, 0.1], 0), cfg, "all_iterates", seed=1) == 1.0

    def test_single_flip_anywhere_loses(self):
        # margin small enough that the attack flips at some iterate
        params = linear_model(np.array([[1.0, -1.0], [-1.0, 1.0]]), [0.0, 0.0])
        ds = one_point([0.51, 0.49], 0)
        cfg = AttackConfig(epsilon=0.1, steps=10, step_size=0.02, restarts=2, random_start=True)
        res = pgd_attack(params, ds.points, ds.labels, cfg, domain=ds.domain, seed=2)
        assert not res.correct_trace[:, :, 1:].all()
        assert eval_robust(params, ds, cfg, "all_iterates", seed=2) == 0.0

    def test_naturally_misclassified_loses_regardless(self):
        params = linear_model(np.array([[1.0, 0.0], [0.0, 1.0]]), [0.0, 0.0])
        cfg = AttackConfig(epsilon=0.01, steps=3, step_size=0.005, restarts=1, random_start=True)
        assert eval_robust(params, one_point([0.3, 0.7], 0), cfg, "all_iterates", seed=0) == 0.0


class TestAlphaSweep:
    def test_single_point_grid_reduces_to_eval_robust(self, trained, moons):
        base = AttackConfig(epsilon=0.031, steps=5, step_size=0.008, random_start=True)
        sweep = SweepConfig(base_attack=base, alpha_grid=(1.0,))
        report = alpha_sweep(trained, moons, sweep, seed=3)
        direct = eval_robust(trained, moons, base, seed=3)
        assert report.rows[0].robust_accuracy == direct
        assert report.worst_alpha_for("pgd") == 1.0

    def test_worst_not_above_alpha_one(self, trained, moons):
        sweep = SweepConfig(base_attack=pgd20_config(0.031))
        report = alpha_sweep(trained, moons, sweep, seed=3, attack_name="pgd20")
        at_one = report.accuracy_at("pgd20", 1.0)
        worst_acc = min(r.robust_accuracy for r in report.rows)
        assert worst_acc <= at_one
        assert report.worst_alpha_for("pgd20") in sweep.alpha_grid

    def test_rows_share_seed_and_hashes(self, trained, moons):
        sweep = SweepConfig(base_attack=pgd20_config(0.031), alpha_grid=(0.1, 1.0, 10.0))
        report = alpha_sweep(trained, moons, sweep, seed=5, attack_name="pgd20")
        extra = dict(report.extra)
        assert extra["seed"] == "5"
        assert "dataset_sha256" in extra
        # re-running one cell with the same seed reproduces its row
        again = eval_robust(trained, moons,
                            AttackConfig(**{**pgd20_config(0.031).__dict__, "alpha": 10.0}),
                            seed=5)
        assert report.accuracy_at("pgd20", 10.0) == again

    def test_downscaled_logits_shift_worst_alpha_upward(self):
        # Dividing the last layer by 10 makes the crafting loss at scale a
        # behave like the original at a/10, so the most damaging scale moves
        # up the grid. Needs >2 classes: with a single competing class the
        # sign-gradient trajectory is scale-invariant and the curve is flat.
        from robustlab.datasets import gen_gaussian_blobs, split_dataset
        from robustlab.training import TrainConfig, train

        centers = [[0.3, 0.3], [0.7, 0.3], [0.3, 0.7], [0.7, 0.7]]
        ds = gen_gaussian_blobs(600, centers, 0.13, seed=11)
        tr, te = split_dataset(ds, 400, seed=12)
        cfg = TrainConfig(
            method="gairat", epochs=25, batch_size=64, learning_rate=0.15, seed=3,
            inner_attack=AttackConfig(epsilon=0.031, steps=5, step_size=0.031 / 4,
                                      random_start=True),
            burn_in_epochs=8, omega_lambda=0.0,
        )
        params, _ = train(MlpConfig((2, 16, 16, 4), init_seed=3), tr, cfg)
        scaled = MlpParams(
            config=params.config,
            weights=params.weights[:-1] + (Tensor(0.1 * params.weights[-1].data),),
            biases=params.biases[:-1] + (Tensor(0.1 * params.biases[-1].data),),
        )
        sweep = SweepConfig(base_attack=pgd20_config(0.031))
        base_report = alpha_sweep(params, te, sweep, seed=7, attack_name="pgd20")
        scaled_report = alpha_sweep(scaled, te, sweep, seed=7, attack_name="pgd20")
        w_base = base_report.worst_alpha_for("pgd20")
        w_scaled = scaled_report.worst_alpha_for("pgd20")
        assert w_base > 1.0  # the base model's dip sits above scale 1
        assert w_scaled > w_base


class TestReportIO:
    def _report(self):
        rows = tuple(
            ReportRow(attack="pgd20", alpha=a, robust_accuracy=0.5 - 0.01 * i, n=100)
            for i, a in enumerate((0.1, 1.0, 10.0))
        )
        return EvalReport(
            model_id="m.ckpt", checkpoint_hash="ab" * 32, dataset_id="d.csv",
            dataset_seed="7", natural_accuracy=0.97, rows=rows,
            worst_alpha=(("pgd20", 10.0),),
            extra=(("seed", "0"), ("attack.pgd20", "epsilon = 0.031 steps = 20")),
        )

    def test_round_trip_identity(self, tmp_path):
        report = self._report()
        path = tmp_path / "r.csv"
        write_report(report, path)
        assert read_report(path) == report

    def test_rewrite_identical_except_timestamp(self, tmp_path):
        report = self._report()
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_report(report, a)
        write_report(read_report(a), b)
        strip = lambda p: [l for l in p.read_text().splitlines() if not l.startswith("# generated_at")]
        assert strip(a) == strip(b)

    def test_accuracy_out_of_range_is_schema_error(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._report(), path)
        text = path.read_text().replace("0.48999999999999999", "1.5")
        path.write_text(text)
        with pytest.raises(SchemaError):
            read_report(path)

    def test_missing_header_is_parse_error(self, tmp_path):
        path = tmp_path / "r.csv"
        path.write_text("# natural_accuracy = 0.5\n")
        with pytest.raises(ParseError):
            read_report(path)

    def test_malformed_row_reports_line(self, tmp_path):
        path = tmp_path / "r.csv"
        write_report(self._report(), path)
        lines = path.read_text().splitlines()
        lines.append("pgd20,not_a_number,0.5,100")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(ParseError) as exc:
            read_report(path)
        assert exc.value.line == len(lines)

    @pytest.mark.parametrize("alpha", ["nan", "inf", "-inf", "0"])
    def test_row_alpha_must_be_positive_and_finite_naming_its_line(self, tmp_path, alpha):
        path = tmp_path / "r.csv"
        write_report(self._report(), path)
        lines = path.read_text().splitlines()
        lines.append(f"pgd20,{alpha},0.5,100")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError, match=f"must be positive and finite \\(line {len(lines)}\\)"):
            read_report(path)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0", "ten"])
    def test_worst_alpha_must_be_a_positive_finite_number(self, tmp_path, value):
        path = tmp_path / "r.csv"
        write_report(self._report(), path)
        text = path.read_text()
        assert "# worst_alpha.pgd20 = 10\n" in text
        path.write_text(text.replace("# worst_alpha.pgd20 = 10\n", f"# worst_alpha.pgd20 = {value}\n"))
        with pytest.raises(ParseError, match=f"worst_alpha value '{value}' is not a positive finite number"):
            read_report(path)

    def test_report_invariants(self):
        with pytest.raises(SchemaError):
            EvalReport(model_id="", checkpoint_hash="", dataset_id="", dataset_seed="",
                       natural_accuracy=1.5)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0])
    def test_row_alpha_invariant(self, alpha):
        with pytest.raises(SchemaError, match="alpha"):
            EvalReport(model_id="", checkpoint_hash="", dataset_id="", dataset_seed="",
                       natural_accuracy=0.5, rows=(ReportRow("pgd20", alpha, 0.5, 10),))
