"""End-to-end command-line behavior: exit codes, files, determinism."""
import numpy as np
import pytest

from robustlab.cli import main
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
        ("gen-data", "--kind", "rings", "--radii", "0.5:x"),
        ("train", "--hidden", "8,x"),
    ], ids=["alpha-list", "alpha-range", "centers", "radii", "hidden"])
    def test_malformed_number_exits_2_with_one_line(self, tmp_path, data_csv, ckpt, capsys, argv):
        paths = {"sweep": ("--model", str(ckpt), "--data", str(data_csv)),
                 "gen-data": ("--n", "20", "--out", str(tmp_path / "d.csv")),
                 "train": ("--data", str(data_csv), "--out", str(tmp_path / "m.ckpt"))}
        assert run(*argv, *paths[argv[0]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1


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


class TestOracleCheck:
    def test_runs_clean_on_tiny_subset(self, data_csv, ckpt, capsys):
        code = run("oracle-check", "--model", str(ckpt), "--data", str(data_csv),
                   "--eps", "0.05", "--grid", "31", "--limit", "5", "--seed", "2")
        out = capsys.readouterr().out
        assert "violations = 0 / 5" in out
        assert code == 0


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

    def test_missing_config_file_exits_2(self, tmp_path):
        assert run("gen-data", "--config", str(tmp_path / "no.ini"),
                   "--out", str(tmp_path / "d.csv")) == 2


class TestOutputDirEnv:
    def test_relative_outputs_land_in_env_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROBUSTLAB_OUT", str(tmp_path))
        assert run("gen-data", "--kind", "two-moons", "--n", "10", "--seed", "0",
                   "--out", "sub/d.csv") == 0
        assert (tmp_path / "sub" / "d.csv").exists()
