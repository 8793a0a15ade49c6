"""End-to-end command-line behavior: exit codes, files, determinism."""
import warnings
from dataclasses import replace

import numpy as np
import pytest

from robustlab.cli import _SETTINGS, main
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
    ], ids=["alpha-list", "alpha-range", "centers", "ragged-centers", "radii", "hidden"])
    def test_malformed_number_exits_2_with_one_line(self, tmp_path, data_csv, ckpt, capsys, argv):
        paths = {"sweep": ("--model", str(ckpt), "--data", str(data_csv)),
                 "gen-data": ("--n", "20", "--out", str(tmp_path / "d.csv")),
                 "train": ("--data", str(data_csv), "--out", str(tmp_path / "m.ckpt"))}
        assert run(*argv, *paths[argv[0]]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

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
        assert kept.read_text() == "an earlier checkpoint"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["d.csv ", "dir", "m.ckpt"] and not any(folder.iterdir())

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
