"""End-to-end command-line behavior: exit codes, files, determinism."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustlab.cli import _SETTINGS, build_parser, main
from robustlab.datasets import load_csv
from robustlab.evaluate import read_report
from robustlab.model import load_checkpoint


def run(*argv):
    return main(list(argv))


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "d.csv"
    assert run("gen-data", "--kind", "two-moons", "--n", "60", "--seed", "7",
               "--noise", "0.1", "--out", str(path)) == 0
    return path


@pytest.fixture(scope="module")
def ckpt(tmp_path_factory, data_csv):
    path = tmp_path_factory.mktemp("model") / "m.ckpt"
    code = run("train", "--data", str(data_csv), "--method", "gairat", "--epochs", "4",
               "--burn-in", "2", "--inner-steps", "3", "--eps", "0.031", "--lr", "0.3",
               "--batch-size", "20", "--seed", "1", "--hidden", "8",
               "--out", str(path), "--history", str(path.with_suffix(".hist.csv")))
    assert code == 0
    return path


class TestGenData:
    def test_writes_requested_rows(self, tmp_path):
        out = tmp_path / "moons.csv"
        assert run("gen-data", "--kind", "two-moons", "--n", "1000", "--seed", "7",
                   "--out", str(out)) == 0
        ds = load_csv(out)
        assert len(ds) == 1000

    def test_blobs_and_rings(self, tmp_path):
        assert run("gen-data", "--kind", "blobs", "--n", "40", "--seed", "1",
                   "--noise", "0.05", "--out", str(tmp_path / "b.csv")) == 0
        assert run("gen-data", "--kind", "rings", "--n", "40", "--seed", "1",
                   "--noise", "0.02", "--out", str(tmp_path / "r.csv")) == 0
        assert load_csv(tmp_path / "b.csv").num_classes == 2
        assert load_csv(tmp_path / "r.csv").num_classes == 2

    def test_odd_n_is_data_error(self, tmp_path):
        assert run("gen-data", "--kind", "two-moons", "--n", "7", "--seed", "0",
                   "--out", str(tmp_path / "x.csv")) == 2

    @pytest.mark.parametrize("kind", ["two-moons", "blobs", "rings"])
    def test_noise_that_overflows_exits_2_with_one_line(self, tmp_path, capsys, kind):
        out = tmp_path / "z.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy warning would escape as a traceback
            assert run("gen-data", "--kind", kind, "--noise", "1e308", "--n", "10", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: noise sigma 1e+308 is too large: the noisy points overflow float64\n")
        assert not out.exists()

    @pytest.mark.parametrize("radii, message", [
        ("1:inf", "radii must be finite with 0 < inner < outer, got (1.0, inf)"),
        ("1:1e308", "radii (1.0, 1e+308) with noise sigma 0.0 are too large: the noisy points overflow float64"),
    ])
    def test_radii_that_overflow_exit_2_with_one_line_naming_them(self, tmp_path, capsys, radii, message):
        out = tmp_path / "r.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run("gen-data", "--kind", "rings", "--radii", radii, "--noise", "0", "--n", "10",
                       "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["two-moons", "blobs", "rings"])
    def test_n_over_the_size_bound_exits_2_with_one_line(self, tmp_path, capsys, kind):
        out = tmp_path / "x.csv"
        assert run("gen-data", "--kind", kind, "--n", str(2**62), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: {2**62} points in 2 dimensions give a dataset of more than 16777216 entries\n")
        assert not out.exists()

    def test_label_beyond_int64_exits_2_naming_its_line(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("# num_classes = 2\n# domain_lower = 0 0\n# domain_upper = 1 1\n"
                        "x0,x1,label\n0.5,0.5,99999999999999999999\n")
        assert run("train", "--data", str(data), "--out", str(tmp_path / "m.ckpt")) == 2
        assert capsys.readouterr().err == (
            "error: label '99999999999999999999' does not fit in int64 (line 5)\n")


class TestUsageErrors:
    def test_unknown_flag_exits_1(self, capsys):
        assert run("gen-data", "--bogus", "1") == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_subcommand_exits_1(self):
        assert run("frobnicate") == 1

    def test_help_exits_0(self):
        assert run("--help") == 0

    def test_missing_file_exits_2(self, tmp_path):
        assert run("eval", "--model", str(tmp_path / "no.ckpt"),
                   "--data", str(tmp_path / "no.csv")) == 2

    @pytest.mark.parametrize("argv", [
        ("sweep", "--alpha-grid", "1,abc"),
        ("sweep", "--alpha-grid", "1e-2:x:9"),
        ("gen-data", "--kind", "blobs", "--centers", "0.3;x"),
        ("gen-data", "--kind", "blobs", "--centers", "0.3:0.3;0.7"),
        ("gen-data", "--kind", "rings", "--radii", "0.5:x"),
        ("train", "--hidden", "8,x"),
        ("train", "--hidden", "8,,8"),
        ("train", "--hidden", "8,"),
        ("train", "--hidden", ","),
    ], ids=["alpha-list", "alpha-range", "centers", "ragged-centers", "radii", "hidden", "hidden-inner-empty",
            "hidden-trailing-empty", "hidden-comma"])
    def test_malformed_number_exits_2_with_one_line(self, tmp_path, data_csv, ckpt, capsys, argv):
        paths = {"sweep": ("--model", str(ckpt), "--data", str(data_csv)),
                 "gen-data": ("--n", "20", "--out", str(tmp_path / "d.csv")),
                 "train": ("--data", str(data_csv), "--out", str(tmp_path / "m.ckpt"))}
        assert run(*argv, *paths[argv[0]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_hidden_means_no_hidden_layer(self, tmp_path, data_csv, source):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[train]\nhidden =\n")
        argv = ("--hidden", "") if source == "flag" else ("--config", str(cfg))
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", str(data_csv), "--method", "erm", "--epochs", "1", *argv, "--out", str(out)) == 0
        assert load_checkpoint(out).params.config.layer_sizes == (2, 2)

    @pytest.mark.parametrize("command", ["gen-data", "attack", "eval", "sweep", "oracle-check"])
    def test_negative_seed_exits_2_with_one_line(self, tmp_path, data_csv, ckpt, capsys, command):
        paths = ("--n", "20", "--out", str(tmp_path / "d.csv")) if command == "gen-data" else (
            "--model", str(ckpt), "--data", str(data_csv))
        assert run(command, *paths, "--seed", "-1") == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -1\n"

    @pytest.mark.parametrize("reader", ["report", "eval", "config"])
    def test_non_utf8_input_exits_2_with_one_line(self, tmp_path, data_csv, ckpt, capsys, reader):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe# natural_accuracy = 1\n")
        argv = {"report": ("report", "--in", str(bad)),
                "eval": ("eval", "--model", str(ckpt), "--data", str(bad)),
                "config": ("gen-data", "--config", str(bad), "--n", "20", "--out", str(tmp_path / "d.csv"))}
        assert run(*argv[reader]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "utf-8" in err.lower()
        assert not (tmp_path / "d.csv").exists()

    def test_negative_seed_in_config_file_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[data]\nkind = two-moons\nn = 20\nseed = -3\n")
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 2
        assert capsys.readouterr().err == "error: seed must be >= 0, got -3\n"
        assert not (tmp_path / "d.csv").exists()


class TestTrain:
    def test_writes_checkpoint_and_history(self, ckpt):
        loaded = load_checkpoint(ckpt)
        assert loaded.metadata["method"] == "gairat"
        hist = ckpt.with_suffix(".hist.csv").read_text().splitlines()
        header = [l for l in hist if not l.startswith("#")][0]
        assert header.startswith("epoch,loss,nat_acc,kappa_0")

    def test_erm_trains_with_default_history(self, tmp_path, data_csv):
        out = tmp_path / "erm.ckpt"
        assert run("train", "--data", str(data_csv), "--method", "erm", "--epochs", "2",
                   "--lr", "0.3", "--seed", "3", "--hidden", "4", "--out", str(out)) == 0
        assert load_checkpoint(out).metadata["method"] == "erm"
        assert (tmp_path / "erm.history.csv").exists()


    def test_declared_class_count_over_the_layer_bound_exits_2_with_one_line(self, tmp_path, capsys):
        data = tmp_path / "huge.csv"
        data.write_text("# num_classes = 1000000000000\n# domain_lower = 0 0\n# domain_upper = 1 1\n"
                        "x0,x1,label\n0.25,0.5,0\n0.75,0.5,1\n")
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", str(data), "--method", "erm", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: layer sizes (2, 32, 32, 1000000000000) give a weight matrix "
            "of more than 16777216 entries\n")
        assert list(tmp_path.iterdir()) == [data]

    def test_hidden_width_past_the_address_space_exits_2_with_one_line(self, tmp_path, data_csv, capsys):
        # 2 x 2**62 float64 weights need 2**66 bytes: even without the bound
        # this fails at allocation, never by filling memory.
        out = tmp_path / "m.ckpt"
        assert run("train", "--data", str(data_csv), "--method", "erm", "--hidden", str(2**62),
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: layer sizes (2, {2**62}, 2) give a weight matrix of more than 16777216 entries\n")
        assert not list(tmp_path.iterdir())


class TestAttackEvalSweep:
    def test_attack_writes_adversarial_csv(self, tmp_path, data_csv, ckpt):
        adv = tmp_path / "adv.csv"
        assert run("attack", "--model", str(ckpt), "--data", str(data_csv),
                   "--attack", "pgd20", "--seed", "0", "--out-adv", str(adv)) == 0
        ds, orig = load_csv(adv), load_csv(data_csv)
        assert len(ds) == len(orig)
        assert np.abs(ds.points.data - orig.points.data).max() <= 0.031 + 1e-12

    def test_eval_writes_report(self, tmp_path, data_csv, ckpt):
        out = tmp_path / "eval.csv"
        assert run("eval", "--model", str(ckpt), "--data", str(data_csv),
                   "--attack", "pgd20", "--seed", "0", "--out", str(out)) == 0
        report = read_report(out)
        assert len(report.rows) == 1
        assert report.rows[0].n == 60

    @pytest.mark.parametrize("verdict", ["best_iterate", "all_iterates"])
    def test_eval_report_is_the_one_cell_sweep_without_worst_alpha(self, tmp_path, data_csv, ckpt, verdict):
        args = ["--model", str(ckpt), "--data", str(data_csv), "--attack", "pgd20",
                "--alpha", "3", "--verdict", verdict, "--seed", "4"]
        ev, sw = tmp_path / "eval.csv", tmp_path / "sweep.csv"
        assert run("eval", *args, "--out", str(ev)) == 0
        assert run("sweep", *args, "--alpha-grid", "3", "--out", str(sw)) == 0
        eval_report, sweep_report = read_report(ev), read_report(sw)
        assert eval_report.worst_alpha == () and "worst_alpha" not in ev.read_text()
        assert eval_report == replace(sweep_report, worst_alpha=())
        assert [r.alpha for r in eval_report.rows] == [3.0]
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith(("# generated_at", "# worst_alpha"))]
        assert strip(ev) == strip(sw)

    def test_sweep_nine_rows_and_worst_alpha(self, tmp_path, data_csv, ckpt, capsys):
        out = tmp_path / "sweep.csv"
        assert run("sweep", "--model", str(ckpt), "--data", str(data_csv),
                   "--attack", "pgd20", "--alpha-grid", "1e-2:1e2:9",
                   "--seed", "0", "--out", str(out)) == 0
        stdout = capsys.readouterr().out
        assert "worst_alpha(pgd20)" in stdout
        report = read_report(out)
        assert len(report.rows) == 9
        assert report.worst_alpha_for("pgd20") is not None
        assert "# worst_alpha.pgd20" in out.read_text()

    def test_sweep_deterministic_modulo_timestamp(self, tmp_path, data_csv, ckpt):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["sweep", "--model", str(ckpt), "--data", str(data_csv),
                "--attack", "pgd20", "--alpha-grid", "0.1,1,10", "--seed", "3"]
        assert run(*args, "--out", str(a)) == 0
        assert run(*args, "--out", str(b)) == 0
        strip = lambda p: [l for l in p.read_text().splitlines()
                           if not l.startswith("# generated_at")]
        assert strip(a) == strip(b)

    def test_report_subcommand_prints(self, tmp_path, data_csv, ckpt, capsys):
        out = tmp_path / "r.csv"
        run("eval", "--model", str(ckpt), "--data", str(data_csv),
            "--attack", "pgd20", "--out", str(out))
        capsys.readouterr()
        assert run("report", "--in", str(out)) == 0
        assert "natural_accuracy" in capsys.readouterr().out


class TestRefusedBeforeWriting:
    """Requests a command cannot carry out exit 2 with one line and write no file."""

    @pytest.fixture
    def newline_data(self, tmp_path, data_csv):
        # A file name with a line break: a comment naming it would read back as two lines.
        path = tmp_path / "d\nx.csv"
        path.write_bytes(data_csv.read_bytes())
        return path

    def test_attack_refuses_an_adversarial_csv_its_reader_would_refuse(self, tmp_path, newline_data,
                                                                        ckpt, capsys):
        out = tmp_path / "adv.csv"
        assert run("attack", "--model", str(ckpt), "--data", str(newline_data), "--out-adv", str(out)) == 2
        assert capsys.readouterr().err == "error: comment 'adversarial_of' must not hold a line break\n"
        assert not out.exists()

    def test_eval_refuses_a_report_its_reader_would_refuse(self, tmp_path, newline_data, ckpt, capsys):
        out = tmp_path / "r.csv"
        assert run("eval", "--model", str(ckpt), "--data", str(newline_data), "--out", str(out)) == 2
        assert capsys.readouterr().err == "error: comment 'dataset' must not hold a line break\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, out_flag, key", [
        ("attack", "--out-adv", "adversarial_of"), ("eval", "--out", "dataset"),
    ])
    def test_refuses_a_data_path_its_reader_would_give_back_stripped(self, tmp_path, data_csv, ckpt, capsys,
                                                                     command, out_flag, key):
        # A file name ending in a space: a comment naming it would read back without it.
        padded = tmp_path / "d.csv "
        padded.write_bytes(data_csv.read_bytes())
        out = tmp_path / "out.csv"
        assert run(command, "--model", str(ckpt), "--data", str(padded), out_flag, str(out)) == 2
        assert capsys.readouterr().err == f"error: value of comment {key!r} must not have outer whitespace\n"
        assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["train", "--method", "at", "--batch-size", "20", "--inner-steps", str(2**62)],
         f"20 points x 1 restarts x {2**62 + 1} iterates give a PGD trace"),
        (["train", "--method", "gairat", "--inner-steps", str(2**62)],
         f"{2**62} inner steps give a kappa histogram"),
        (["eval", "--restarts", str(2**62)], f"60 points x {2**62} restarts x 21 iterates give a PGD trace"),
        (["sweep", "--alpha-grid", "1:2:100000000000"], "alpha grid count 100000000000 gives a grid"),
    ])
    def test_pgd_run_or_alpha_grid_over_the_size_bound(self, tmp_path, data_csv, ckpt, capsys, argv, message):
        out = tmp_path / "out"
        model = [] if argv[0] == "train" else ["--model", str(ckpt)]
        assert run(*argv, *model, "--data", str(data_csv), "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: {message} of more than 16777216 entries\n"
        assert not list(tmp_path.iterdir())


    def test_train_writes_its_checkpoint_and_history_or_neither(self, tmp_path, data_csv, capsys):
        # The history, whose comments name the data path, used to be refused after the checkpoint was written.
        padded, kept, folder = tmp_path / "d.csv ", tmp_path / "m.ckpt", tmp_path / "dir"
        padded.write_bytes(data_csv.read_bytes())
        kept.write_text("an earlier checkpoint")
        folder.mkdir()
        erm = ["train", "--method", "erm", "--epochs", "1", "--hidden", "4"]
        assert run(*erm, "--data", str(padded), "--out", str(kept)) == 2
        assert capsys.readouterr().err == "error: value of comment 'data' must not have outer whitespace\n"
        assert run(*erm, "--data", str(data_csv), "--out", str(folder)) == 2
        assert capsys.readouterr().err == f"error: checkpoint path {folder} is a directory\n"
        assert run(*erm, "--data", str(data_csv), "--out", "") == 2  # used to leave a traceback
        assert capsys.readouterr().err == "error: checkpoint path . is a directory\n"
        assert kept.read_text() == "an earlier checkpoint"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv ", "dir", "m.ckpt"] and not any(folder.iterdir())

    @pytest.mark.parametrize("out_dir, files, roles", [
        (None, ["--data", "d.csv", "--out", "./d.csv"], "data and checkpoint"),
        (None, ["--data", "m.history.csv", "--out", "m.ckpt"], "data and history"),
        (None, ["--data", "d.csv", "--out", "m.ckpt", "--history", "new/../m.ckpt"], "checkpoint and history"),
        ("out", ["--data", "d.csv", "--out", "m.ckpt", "--history", "{tmp}/out/m.ckpt"], "checkpoint and history"),
    ], ids=["data-checkpoint", "data-default-history", "checkpoint-history", "checkpoint-history-redirected"])
    def test_train_refuses_to_write_over_its_own_files(self, tmp_path, data_csv, capsys, monkeypatch,
                                                       out_dir, files, roles):
        # The paths are compared once ROBUSTLAB_OUT has redirected the outputs and they are resolved.
        monkeypatch.chdir(tmp_path)
        if out_dir is None:
            monkeypatch.delenv("ROBUSTLAB_OUT", raising=False)
        else:
            monkeypatch.setenv("ROBUSTLAB_OUT", str(tmp_path / out_dir))
        for name in ("d.csv", "m.history.csv", "m.ckpt"):
            (tmp_path / name).write_bytes(data_csv.read_bytes())
        argv = [arg.format(tmp=tmp_path) for arg in files]
        assert run("train", "--method", "erm", "--epochs", "1", "--hidden", "4", *argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {roles} paths name the same file ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.ckpt", "m.history.csv"]
        assert all((tmp_path / p).read_bytes() == data_csv.read_bytes() for p in ("d.csv", "m.ckpt", "m.history.csv"))

    @pytest.mark.parametrize("out_dir, argv, roles", [
        (None, ["sweep", "--model", "m.ckpt", "--data", "d.csv", "--out", "m.ckpt"], "model and report"),
        (None, ["sweep", "--model", "m.ckpt", "--data", "d.csv", "--out", "./d.csv"], "data and report"),
        (None, ["eval", "--model", "m.ckpt", "--data", "d.csv", "--out", "new/../m.ckpt"], "model and report"),
        (None, ["attack", "--model", "m.ckpt", "--data", "d.csv", "--out-adv", "d.csv"], "data and adversarial"),
        (None, ["attack", "--model", "m.ckpt", "--data", "d.csv", "--config", "c.ini", "--out-adv", "c.ini"],
         "config and adversarial"),
        (None, ["gen-data", "--config", "c.ini", "--n", "8", "--out", "c.ini"], "config and dataset"),
        (None, ["train", "--method", "erm", "--data", "d.csv", "--config", "c.ini", "--out", "c.ini"],
         "config and checkpoint"),
        ("{tmp}", ["sweep", "--model", "{tmp}/m.ckpt", "--data", "{tmp}/d.csv", "--out", "m.ckpt"],
         "model and report"),
    ], ids=["sweep-model", "sweep-data", "eval-model", "attack-data", "attack-config", "gen-data-config",
            "train-config", "sweep-model-redirected"])
    def test_commands_refuse_to_write_over_their_inputs(self, tmp_path, data_csv, ckpt, capsys, monkeypatch,
                                                       out_dir, argv, roles):
        # Each written path is compared with each read one once ROBUSTLAB_OUT has redirected it and
        # both are resolved. The commands run in an empty folder, so a write that is not redirected
        # would land there, apart from the inputs.
        (tmp_path / "run").mkdir()
        monkeypatch.chdir(tmp_path if out_dir is None else tmp_path / "run")
        if out_dir is None:
            monkeypatch.delenv("ROBUSTLAB_OUT", raising=False)
        else:
            monkeypatch.setenv("ROBUSTLAB_OUT", out_dir.format(tmp=tmp_path))
        inputs = {"d.csv": data_csv.read_bytes(), "m.ckpt": ckpt.read_bytes(), "c.ini": b"[data]\nn = 8\n"}
        for name, body in inputs.items():
            (tmp_path / name).write_bytes(body)
        assert run(*(arg.format(tmp=tmp_path) for arg in argv)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {roles} paths name the same file ") and err.count("\n") == 1
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini", "d.csv", "m.ckpt", "run"]
        assert not any((tmp_path / "run").iterdir())
        assert all((tmp_path / name).read_bytes() == body for name, body in inputs.items())

    @pytest.mark.parametrize("grid", ["1:inf:3", "nan:1:3", "1:nan:3"])
    def test_a_non_finite_alpha_grid_bound(self, tmp_path, data_csv, ckpt, capsys, grid):
        # 1:inf:3 used to print numpy's invalid-multiply warning and then an error naming (nan, inf, inf).
        out = tmp_path / "r.csv"
        assert run("sweep", "--model", str(ckpt), "--data", str(data_csv), "--alpha-grid", grid,
                   "--out", str(out)) == 2
        assert capsys.readouterr().err == f"error: bad alpha grid bounds {grid!r}\n"
        assert not out.exists()

    @pytest.mark.parametrize("method", ["at", "fat", "gairat"])
    def test_train_reports_a_nan_in_its_inner_attack_as_divergence(self, tmp_path, capsys, method):
        # SGD at this rate blows the model up; the next batch's PGD run makes the NaN.
        data, out = tmp_path / "m8.csv", tmp_path / "m.ckpt"
        assert run("gen-data", "--kind", "two-moons", "--n", "8", "--seed", "1", "--out", str(data)) == 0
        capsys.readouterr()
        assert run("train", "--data", str(data), "--method", method, "--batch-size", "2", "--hidden", "4",
                   "--lr", "1e308", "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            "error: training diverged: PGD made a NaN at restart 0, step 0 (alpha 1.0): the model's logits "
            "or their scaled gradients left float64 range at epoch 0, batch 1 (learning_rate 1e+308)\n")
        assert [p.name for p in tmp_path.iterdir()] == ["m8.csv"]

    @pytest.mark.parametrize("argv", [
        ["attack", "--out-adv"], ["eval", "--out"], ["sweep", "--out"], ["oracle-check"],
        *(["train", "--method", method, "--out"] for method in ("at", "fat", "gairat")),
    ], ids=lambda argv: "-".join(argv[::2]))
    def test_epsilon_whose_random_start_range_overflows(self, tmp_path, data_csv, ckpt, capsys, argv):
        # Every command's PGD runs draw their random start from [-eps, eps].
        out = [] if argv[0] == "oracle-check" else [str(tmp_path / "out")]
        model = [] if argv[0] == "train" else ["--model", str(ckpt)]
        assert run(*argv, *out, *model, "--data", str(data_csv), "--eps", "1e308") == 2
        assert capsys.readouterr().err == "error: epsilon must be > 0 with 2 * epsilon finite, got 1e+308\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["train", "--method", "erm", "--out"], ["attack", "--out-adv"], ["eval", "--out"], ["sweep", "--out"],
        ["oracle-check"],
    ], ids=lambda argv: argv[0])
    def test_a_dataset_with_no_points(self, tmp_path, data_csv, ckpt, capsys, argv):
        # A header-only file used to train to a NaN loss, or print NaN accuracies after numpy warnings.
        lines = data_csv.read_text().splitlines(keepends=True)
        empty = tmp_path / "empty.csv"
        empty.write_text("".join(lines[:lines.index("x0,x1,label\n") + 1]))
        out = [] if argv[0] == "oracle-check" else [str(tmp_path / "out")]
        model = [] if argv[0] == "train" else ["--model", str(ckpt)]
        assert run(*argv, *out, *model, "--data", str(empty)) == 2
        assert capsys.readouterr().err == "error: a dataset needs at least one point, got 0\n"
        assert [p.name for p in tmp_path.iterdir()] == ["empty.csv"]


def forbid_work(monkeypatch):
    """From here on, a command that starts its work (data generation, training, PGD) fails the test."""
    def refuse(*args, **kwargs):
        raise AssertionError("the command started its work before refusing its input")

    for name in ("cli.gen_gaussian_blobs", "cli.gen_two_moons", "cli.train", "cli.pgd_attack", "evaluate.pgd_attack"):
        monkeypatch.setattr(f"robustlab.{name}", refuse)


class TestRefusedBeforeAnyWork:
    """Each refusal rule runs before any work: exit 2, one error line, no file written."""

    @pytest.mark.parametrize("argv, message", [
        (["eval", "--alpha", "inf", "--out"], "alpha must be positive and finite, got inf"),
        (["attack", "--step-size", "nan", "--out-adv"], "step_size must be positive and finite, got nan"),
        (["train", "--method", "erm", "--lr", "inf", "--out"], "learning_rate must be positive and finite, got inf"),
        (["sweep", "--alpha-grid", "1,inf", "--out"], "alpha_grid value must be positive and finite, got inf"),
        (["sweep", "--alpha-grid", "1,nan", "--out"], "alpha_grid value must be positive and finite, got nan"),
    ], ids=["eval-alpha", "attack-step-size", "train-lr", "sweep-grid-inf", "sweep-grid-nan"])
    def test_a_scale_step_or_rate_that_is_not_positive_and_finite(self, tmp_path, data_csv, ckpt, capsys,
                                                                  monkeypatch, argv, message):
        forbid_work(monkeypatch)
        model = [] if argv[0] == "train" else ["--model", str(ckpt)]
        assert run(*argv, str(tmp_path / "out"), *model, "--data", str(data_csv)) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("centers, message", [
        ("0.2:0.2;0.8:0.2;0.2:0.8;0.8:0.8", "dataset has 4 classes but model emits 2 logits"),
        ("0.2:0.2:0.2;0.8:0.8:0.8", "dataset dim 3 does not match model input dim 2"),
    ], ids=["classes", "dim"])
    @pytest.mark.parametrize("argv", [
        ["attack", "--out-adv"], ["eval", "--out"], ["sweep", "--out"], ["oracle-check", "--limit", "2"],
    ], ids=lambda argv: argv[0])
    def test_a_dataset_the_model_does_not_fit(self, tmp_path, ckpt, capsys, monkeypatch, centers, message, argv):
        # A 2-class model on 4 classes used to fail inside PGD with "label out of range [0, 2)", after
        # setup; oracle-check exited 0 because its first points are class 0.
        data = tmp_path / "blobs.csv"
        assert run("gen-data", "--kind", "blobs", "--centers", centers, "--n", "40", "--out", str(data)) == 0
        capsys.readouterr()
        out = [str(tmp_path / "out")] if argv[0] != "oracle-check" else []
        forbid_work(monkeypatch)
        assert run(*argv, *out, "--model", str(ckpt), "--data", str(data)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and "point" not in captured.out
        assert [p.name for p in tmp_path.iterdir()] == ["blobs.csv"]

    @pytest.mark.parametrize("argv, role", [
        (["sweep", "--model", "m.ckpt", "--data", "d.csv", "--out", "dir"], "report"),
        (["eval", "--model", "m.ckpt", "--data", "d.csv", "--out", "dir"], "report"),
        (["attack", "--model", "m.ckpt", "--data", "d.csv", "--out-adv", "dir"], "adversarial"),
        (["gen-data", "--n", "8", "--out", "dir"], "dataset"),
        (["train", "--method", "erm", "--data", "d.csv", "--out", "m2.ckpt", "--history", "dir"], "history"),
    ], ids=["sweep", "eval", "attack", "gen-data", "train-history"])
    def test_an_output_path_that_is_a_directory(self, tmp_path, data_csv, ckpt, capsys, monkeypatch, argv, role):
        # Each used to do all its work, then fail on a hidden temporary file inside the directory.
        forbid_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ROBUSTLAB_OUT", raising=False)
        (tmp_path / "d.csv").write_bytes(data_csv.read_bytes())
        (tmp_path / "m.ckpt").write_bytes(ckpt.read_bytes())
        (tmp_path / "dir").mkdir()
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {role} path dir is a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "dir", "m.ckpt"]
        assert not any((tmp_path / "dir").iterdir())

    @pytest.mark.parametrize("argv, role", [
        (["sweep", "--model", "m.ckpt", "--data", "d.csv", "--out"], "report"),
        (["eval", "--model", "m.ckpt", "--data", "d.csv", "--out"], "report"),
        (["attack", "--model", "m.ckpt", "--data", "d.csv", "--out-adv"], "adversarial"),
        (["gen-data", "--n", "8", "--out"], "dataset"),
        (["train", "--method", "erm", "--data", "d.csv", "--out"], "checkpoint"),
        (["train", "--method", "erm", "--data", "d.csv", "--out", "m2.ckpt", "--history"], "history"),
    ], ids=["sweep", "eval", "attack", "gen-data", "train-out", "train-history"])
    def test_an_output_path_under_a_file(self, tmp_path, data_csv, ckpt, capsys, monkeypatch, argv, role):
        # Each used to do all its work, then fail to make the file's directory: "[Errno 17] File exists".
        forbid_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        monkeypatch.delenv("ROBUSTLAB_OUT", raising=False)
        (tmp_path / "d.csv").write_bytes(data_csv.read_bytes())
        (tmp_path / "m.ckpt").write_bytes(ckpt.read_bytes())
        assert run(*argv, "d.csv/out") == 2
        assert capsys.readouterr().err == f"error: {role} path d.csv/out: d.csv is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.ckpt"]

    @pytest.mark.parametrize("argv, role", [
        (["sweep", "--model", "m.ckpt", "--data", "d.csv", "--out", "r.csv"], "report"),
        (["train", "--method", "erm", "--data", "d.csv", "--out", "m2.ckpt"], "checkpoint"),
    ], ids=["sweep", "train"])
    def test_a_robustlab_out_that_is_a_file(self, tmp_path, data_csv, ckpt, capsys, monkeypatch, argv, role):
        forbid_work(monkeypatch)
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("ROBUSTLAB_OUT", "out")
        (tmp_path / "d.csv").write_bytes(data_csv.read_bytes())
        (tmp_path / "m.ckpt").write_bytes(ckpt.read_bytes())
        (tmp_path / "out").write_text("a file")
        assert run(*argv) == 2
        assert capsys.readouterr().err == f"error: {role} path out/{argv[-1]}: out is not a directory\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv", "m.ckpt", "out"]

    def test_an_indexing_fault_is_not_turned_into_an_error_line(self, monkeypatch):
        # No input the CLI accepts reaches an IndexError, so one is a fault and must not read as exit 2.
        def broken(args):
            raise IndexError("index 3 is out of bounds")

        monkeypatch.setattr("robustlab.cli.cmd_report", broken)
        with pytest.raises(IndexError, match="index 3"):
            run("report", "--in", "r.csv")


class TestOracleCheck:
    def test_runs_clean_on_tiny_subset(self, data_csv, ckpt, capsys):
        code = run("oracle-check", "--model", str(ckpt), "--data", str(data_csv),
                   "--eps", "0.05", "--grid", "31", "--limit", "5", "--seed", "2")
        out = capsys.readouterr().out
        assert "violations = 0 / 5" in out
        assert code == 0

    def test_negative_limit_exits_2(self, data_csv, ckpt, capsys):
        assert run("oracle-check", "--model", str(ckpt), "--data", str(data_csv), "--limit", "-1") == 2
        captured = capsys.readouterr()
        assert captured.err == "error: --limit must be >= 0, got -1\n"
        assert "violations" not in captured.out

    @pytest.mark.parametrize("limit", [0, 1])
    @pytest.mark.parametrize("grid, dim, message", [
        ("1", 2, "need at least 2 grid points per axis, got 1"),
        ("102", 2, "grid resolution capped at 101 per axis, got 102"),
        ("51", 4, "brute force supports at most 3 dimensions, got 4"),
    ], ids=["grid-1", "grid-102", "4-d-data"])
    def test_grid_and_dimension_are_checked_before_any_pgd_run(self, tmp_path, data_csv, ckpt, capsys,
                                                               monkeypatch, limit, grid, dim, message):
        # They used to be checked only at the first point's oracle, after its PGD run; --limit 0 exited 0.
        data = data_csv
        if dim == 4:
            data = tmp_path / "b4.csv"
            assert run("gen-data", "--kind", "blobs", "--centers", "0.2:0.2:0.2:0.2;0.8:0.8:0.8:0.8",
                       "--n", "10", "--out", str(data)) == 0
            capsys.readouterr()

        def no_pgd(*args, **kwargs):
            raise AssertionError("oracle-check ran PGD before checking the grid")

        monkeypatch.setattr("robustlab.cli.pgd_attack", no_pgd)
        assert run("oracle-check", "--model", str(ckpt), "--data", str(data), "--grid", grid,
                   "--limit", str(limit)) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert "point" not in captured.out


class TestConfigFile:
    def test_file_supplies_defaults_flags_override(self, tmp_path):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[data]\nkind = two-moons\nn = 40\nseed = 5\nnoise = 0.1\n")
        out = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(cfg), "--n", "20", "--out", str(out)) == 0
        assert len(load_csv(out)) == 20  # flag wins over file

    def test_train_and_attack_sections(self, tmp_path, data_csv, ckpt):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(
            "[train]\nmethod = at\nepochs = 2\nlearning_rate = 0.3\nseed = 4\n"
            "hidden = 4\ninner_steps = 2\n"
            f"data = {data_csv}\n"
            "[attack.pgd20]\nepsilon = 0.05\nsteps = 6\n"
        )
        out = tmp_path / "at.ckpt"
        assert run("train", "--config", str(cfg), "--out", str(out)) == 0
        assert load_checkpoint(out).metadata["method"] == "at"
        rep = tmp_path / "r.csv"
        assert run("eval", "--model", str(out), "--data", str(data_csv),
                   "--attack", "pgd20", "--config", str(cfg), "--out", str(rep)) == 0
        attack_kv = dict(read_report(rep).extra)["attack.pgd20"]
        assert "epsilon = 0.050000000000000003" in attack_kv
        assert "steps = 6" in attack_kv

    @pytest.mark.parametrize("body, message", [
        ("[data]\nn = 40\n[data]\nn = 50\n", "already exists"),
        ("[data]\nkind = two-moons\nseed = 5%\n", "'%'"),
    ], ids=["duplicate-section", "bad-interpolation"])
    def test_malformed_config_file_exits_2(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "bad.ini"
        cfg.write_text(body)
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("section, key, command", [
        ("data", "noize", "gen-data"),
        ("train", "learning-rate", "train"),
        ("sweep", "alpha-grid", "sweep"),
        ("attack.pgd20", "random_start", "sweep"),
    ])
    def test_misspelt_key_exits_2_naming_the_known_keys(self, tmp_path, data_csv, ckpt, capsys,
                                                        section, key, command):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(f"[{section}]\n{key} = 5\n")
        out = tmp_path / "out"
        rest = {"gen-data": ("--n", "20"), "train": ("--data", str(data_csv), "--epochs", "1"),
                "sweep": ("--model", str(ckpt), "--data", str(data_csv))}[command]
        assert run(command, "--config", str(cfg), *rest, "--out", str(out)) == 2
        err = capsys.readouterr().err
        table = section.split(".")[0]
        assert err == (f"error: unknown key {key!r} in [{section}]; "
                       f"known keys: {', '.join(_SETTINGS[table])}\n")
        assert not out.exists()

    @pytest.mark.parametrize("section", ["dta", "attack.pgd30", "attack", "Data"])
    def test_section_no_command_reads_exits_2_naming_the_known_sections(self, tmp_path, capsys, section):
        cfg, out = tmp_path / "exp.ini", tmp_path / "d.csv"
        cfg.write_text(f"[{section}]\nn = 20\nkind = blobs\n")
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        assert capsys.readouterr().err == (
            f"error: unknown section [{section}] in {cfg}; known sections: "
            "data, train, sweep, attack.pgd20, attack.pgdplus, attack.pgd200, DEFAULT\n")
        assert not out.exists()

    def test_default_key_no_table_defines_exits_2(self, tmp_path, capsys):
        cfg, out = tmp_path / "exp.ini", tmp_path / "d.csv"
        cfg.write_text("[DEFAULT]\nlearning-rate = 5\n[data]\nn = 20\n")
        assert run("gen-data", "--config", str(cfg), "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown key 'learning-rate' in [DEFAULT]; known keys: ")
        assert err.count("\n") == 1 and "learning_rate" in err
        assert not out.exists()

    def test_default_section_entries_are_not_refused(self, tmp_path, capsys):
        cfg = tmp_path / "exp.ini"
        cfg.write_text("[DEFAULT]\nseed = 5\nlearning_rate = 0.3\n[data]\nn = 20\n")
        assert run("gen-data", "--config", str(cfg), "--out", str(tmp_path / "d.csv")) == 0
        assert "# seed = 5\n" in capsys.readouterr().out

    @pytest.mark.parametrize("body, message", [
        ("[data]\nn = 2O\n", "error: bad value for [data] n: invalid literal for int() with base 10: '2O'\n"),
        ("[data]\nkind = moons\n",
         "error: bad value for [data] kind: 'moons' is not one of two-moons, blobs, rings\n"),
    ], ids=["type", "choices"])
    def test_bad_value_exits_2_even_under_its_flag(self, tmp_path, capsys, body, message):
        cfg = tmp_path / "exp.ini"
        cfg.write_text(body)
        assert run("gen-data", "--config", str(cfg), "--kind", "two-moons", "--n", "20",
                   "--out", str(tmp_path / "d.csv")) == 2
        assert capsys.readouterr().err == message

    def test_config_naming_a_directory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "d.csv"
        assert run("gen-data", "--config", str(tmp_path), "--n", "10", "--out", str(out)) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: bad config file {tmp_path}: ") and err.count("\n") == 1
        assert not out.exists()

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("gen-data", "--config", str(tmp_path / "no.ini"),
                   "--out", str(tmp_path / "d.csv")) == 2


class TestOutputDirEnv:
    def test_relative_outputs_land_in_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTLAB_OUT", str(tmp_path))
        assert run("gen-data", "--kind", "two-moons", "--n", "10", "--seed", "0",
                   "--out", "sub/d.csv") == 0
        assert (tmp_path / "sub" / "d.csv").exists()


class TestHelp:
    @pytest.mark.parametrize("command, sections", [
        ("gen-data", {"data": "data"}),
        ("train", {"train": "train"}),
        ("sweep", {"sweep": "sweep", "attack": "attack.<preset>"}),
    ])
    def test_each_table_flag_names_its_ini_key(self, capsys, command, sections):
        assert run(command, "--help") == 0
        text = " ".join(capsys.readouterr().out.split())
        for table, section in sections.items():
            for key, setting in _SETTINGS[table].items():
                assert f" {setting.flag} " in text and f"INI [{section}] {key}" in text


class TestOneParser:
    """`main` parses every call with one `build_parser()` result per process."""

    CENTERS = "0.25:0.25;0.75:0.25;0.25:0.75;0.75:0.75"
    WORKFLOW = [
        ["gen-data", "--kind", "blobs", "--n", "60", "--seed", "11", "--noise", "0.13", "--centers", CENTERS,
         "--out", "blobs.csv"],
        ["train", "--method", "gairat", "--epochs", "3", "--burn-in", "1", "--inner-steps", "3", "--batch-size", "16",
         "--hidden", "8", "--seed", "3", "--data", "blobs.csv", "--out", "gairat.ckpt"],
        ["sweep", "--model", "gairat.ckpt", "--data", "blobs.csv", "--attack", "pgd20", "--alpha-grid", "1e-1:1e1:3",
         "--out", "sweep.csv"],
        ["sweep", "--model", "gairat.ckpt", "--data", "blobs.csv", "--attack", "pgdplus", "--alpha-grid",
         "1e-1:1e1:3", "--out", "sweep_plus.csv"],
        ["report", "--in", "sweep.csv"],
        ["oracle-check", "--model", "gairat.ckpt", "--data", "blobs.csv", "--eps", "0.05", "--grid", "11",
         "--limit", "2"],
    ]

    def test_two_readme_workflows_write_the_same_files_and_stdout(self, tmp_path, monkeypatch, capsys):
        monkeypatch.delenv("ROBUSTLAB_OUT", raising=False)

        def workflow(directory):
            directory.mkdir()
            monkeypatch.chdir(directory)
            runs = [(main(list(argv)), capsys.readouterr()) for argv in self.WORKFLOW]
            files = {p.name: [line for line in p.read_text().splitlines() if not line.startswith("# generated_at")]
                     for p in sorted(directory.iterdir())}
            return runs, files

        first = workflow(tmp_path / "a")
        assert [code for code, _ in first[0][:5]] == [0] * 5
        assert set(first[1]) == {"blobs.csv", "gairat.ckpt", "gairat.history.csv", "sweep.csv", "sweep_plus.csv"}
        assert workflow(tmp_path / "b") == first

    @pytest.mark.parametrize("argv", [
        ["--help"], ["sweep", "--help"], ["oracle-check", "--help"], [], ["bogus"], ["train", "--bogus"],
        ["eval", "--model", "m.ckpt"], ["report", "--in"],
    ])
    def test_help_and_usage_errors_are_those_of_a_new_parser(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        want = capsys.readouterr()
        for _ in range(2):
            assert main(list(argv)) == (0 if exit_info.value.code == 0 else 1)
            assert capsys.readouterr() == want
