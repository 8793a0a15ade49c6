"""Property tests for input that comes from outside the program.

Whatever an INI file or a report file holds, the CLI exits 0 or 2, writes
at most one `error:` line to stderr, and on exit 2 creates no output file.
Whatever flags a command line holds, the CLI exits 0, 1 or 2, no exception
escapes it, every file it was given to read keeps its bytes, and on exit 2
it writes one `error:` line and no file. Whatever a dataset CSV holds,
`load_csv` returns a `Dataset` of at least one point or raises a
`RobustlabError`.
"""
import argparse
import contextlib
import io
import math
import os
import re
import tempfile

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from robustlab.cli import _SETTINGS, build_parser, main
from robustlab.datasets import Dataset, gen_two_moons, load_csv, save_csv
from robustlab.errors import RobustlabError
from robustlab.evaluate import EvalReport, ReportRow, write_report
from robustlab.model import MlpConfig, init_params, save_checkpoint

SECTIONS = {"data": "data", "train": "train", "sweep": "sweep", "attack": "attack.pgd20"}
LINE = st.text(st.characters(exclude_categories=("Cs",), exclude_characters="\r\n"), max_size=24)
NUMBER = st.one_of(st.floats().map(repr), st.integers(-3, 10**6).map(str))


def run(argv) -> tuple[int, str]:
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, err.getvalue()


def assert_clean_exit(code: int, err: str) -> None:
    assert code in (0, 2)
    assert err == "" or (err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"))


def value_text(setting):
    """A value for `setting`: arbitrary text, a number, or one of its choices."""
    options = [LINE, NUMBER]
    if setting.choices:
        options.append(st.sampled_from(setting.choices))
    return st.one_of(options)


@st.composite
def ini_bodies(draw):
    """An INI body from each section's real keys, perhaps plus one unknown key.

    Returns the body and whether the unknown key went into `[data]`, the
    section gen-data reads.
    """
    entries = {}
    for table, section in SECTIONS.items():
        keys = draw(st.lists(st.sampled_from(list(_SETTINGS[table])), unique=True))
        entries[section] = [(k, draw(value_text(_SETTINGS[table][k]))) for k in keys]
    target = draw(st.sampled_from([None, *SECTIONS]))
    if target is not None:
        known = _SETTINGS[target]
        key = draw(st.from_regex(r"[a-z][a-z_-]{0,11}", fullmatch=True).filter(lambda k: k not in known))
        entries[SECTIONS[target]].insert(draw(st.integers(0, len(entries[SECTIONS[target]]))), (key, draw(LINE)))
    body = "".join(f"[{section}]\n" + "".join(f"{k} = {v}\n" for k, v in pairs)
                   for section, pairs in entries.items())
    return body, target == "data"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@given(ini_bodies())
@settings(max_examples=100, deadline=None)
def test_gen_data_config_exits_0_or_2_with_one_error_line(workdir, case):
    body, unknown_in_data = case
    cfg, out = workdir / "exp.ini", workdir / "d.csv"
    cfg.write_text(body, encoding="utf-8")
    out.unlink(missing_ok=True)
    code, err = run(["gen-data", "--config", str(cfg), "--n", "4", "--out", str(out)])
    assert_clean_exit(code, err)
    assert out.exists() == (code == 0)
    if unknown_in_data:
        assert code == 2 and err.startswith("error: unknown key ")


@pytest.fixture(scope="module")
def valid_report(workdir) -> bytes:
    path = workdir / "r.csv"
    write_report(EvalReport(model_id="m.ckpt", checkpoint_hash="0" * 64, dataset_id="d.csv",
                            dataset_seed="7", natural_accuracy=0.9,
                            rows=(ReportRow("pgd20", 0.1, 0.5, 60), ReportRow("pgd20", 10.0, 0.25, 60)),
                            worst_alpha=(("pgd20", 10.0),)), path)
    return path.read_bytes()


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_report_on_arbitrary_bytes_exits_0_or_2_with_one_error_line(workdir, valid_report, data):
    """Any bytes, or a valid report with a slice replaced by any bytes."""
    start = data.draw(st.integers(0, len(valid_report)))
    end = data.draw(st.integers(start, len(valid_report)))
    body = data.draw(st.one_of(st.binary(max_size=300), st.binary(max_size=40).map(
        lambda b: valid_report[:start] + b + valid_report[end:])))
    path = workdir / "fuzzed.csv"
    path.write_bytes(body)
    assert_clean_exit(*run(["report", "--in", str(path)]))


def rarely(draw, good, bad):
    """`good` nine times in ten, else `bad`."""
    return draw(bad if draw(st.integers(0, 9)) == 0 else good)


@st.composite
def csv_bodies(draw):
    """A dataset CSV close to what `save_csv` writes. Each part is usually
    well formed, so that most bodies reach the rows: the metadata comments
    (sometimes missing or malformed), the header, rows of in-range numbers
    and small labels, and sometimes huge labels, stray cells or a shuffled
    line order."""
    dim = draw(st.integers(1, 3))
    lines = []
    for key, good in (("num_classes", st.integers(2, 4).map(str)),
                      ("domain_lower", st.just(" ".join(["0"] * dim))),
                      ("domain_upper", st.just(" ".join(["1"] * dim)))):
        bad = st.one_of(st.just(None), LINE, NUMBER, st.lists(NUMBER, max_size=4).map(" ".join))
        value = rarely(draw, good, bad)
        if value is not None:
            lines.append(f"# {key} = {value}")
    lines += [f"# {k} = {v}" for k, v in draw(st.lists(st.tuples(LINE, LINE), max_size=2))]
    lines.append(rarely(draw, st.just(",".join([f"x{i}" for i in range(dim)] + ["label"])), LINE))
    label = st.one_of(st.integers(-1, 4), st.integers(-2**70, 2**70),
                      st.sampled_from([2**63 - 1, 2**63, -2**63 - 1, 10**20])).map(str)
    good_row = st.tuples(st.lists(st.floats(0, 1).map(repr), min_size=dim, max_size=dim), label).map(
        lambda r: ",".join([*r[0], r[1]]))
    bad_row = st.lists(st.one_of(NUMBER, label, LINE), max_size=dim + 2).map(",".join)
    lines += draw(st.lists(st.one_of(good_row, good_row, good_row, bad_row), max_size=6))
    if draw(st.integers(0, 9)) == 0:
        lines = draw(st.permutations(lines))
    return "\n".join(lines).encode("utf-8")


@given(st.one_of(csv_bodies(), st.binary(max_size=200)))
@settings(max_examples=300, deadline=None)
def test_load_csv_returns_a_dataset_or_raises_a_robustlab_error(workdir, body):
    path = workdir / "fuzzed-data.csv"
    path.write_bytes(body)
    try:
        dataset = load_csv(path)
    except RobustlabError:
        return
    assert isinstance(dataset, Dataset) and len(dataset) >= 1


# Flags that name files take one of these names in a fresh directory, never drawn text: the
# dataset and checkpoint fixtures, a missing name, a directory, a copy of the dataset whose
# name has outer whitespace, the dataset's comments and header with no rows, and a path under a file.
PATH_DESTS = {"data", "model", "config", "out", "history", "out_adv", "infile"}
READ_FLAGS = {"--data", "--model", "--config", "--in"}
PATH_NAMES = ("d.csv", "m.ckpt", "missing", "a-dir", " d.csv ", "empty.csv", "d.csv/x")
USUAL_PATHS = {"data": "d.csv", "model": "m.ckpt"}  # the other file flags name outputs or a file no fixture is
INT = st.integers(-3, 12).map(str)  # counts, epochs and widths small enough that every run is quick
FLOAT = st.one_of(st.sampled_from([math.nan, math.inf, -math.inf, 1e308, -1e308]), st.floats(0.001, 1.0)).map(repr)
SUBCOMMANDS = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)).choices
NUMBER_LISTS = st.tuples(st.lists(st.one_of(INT, FLOAT), min_size=1, max_size=3), st.sampled_from([",", ":"]))


@st.composite
def command_lines(draw):
    """A subcommand and some of its flags: (flag, value, whether the value names a file).

    The files a command reads and writes are always given. A config file is one of the
    fixtures, which it refuses, so one is given rarely; any other flag one time in two.
    """
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    flags = []
    for action in SUBCOMMANDS[name]._actions:
        if not action.option_strings or action.dest == "help":
            continue
        if action.dest == "config":
            given = rarely(draw, st.just(False), st.just(True))
        else:
            given = action.required or action.dest in {"data", "model", "out", "infile"} or draw(st.booleans())
        if not given:
            continue
        if action.dest in PATH_DESTS:
            value = rarely(draw, st.just(USUAL_PATHS.get(action.dest, "missing")), st.sampled_from(PATH_NAMES))
        elif action.choices:
            value = rarely(draw, st.sampled_from(action.choices), LINE)
        elif action.type in (int, float):
            value = rarely(draw, INT if action.type is int else FLOAT, LINE)
        else:
            value = draw(st.one_of(LINE, NUMBER_LISTS.map(lambda parts_sep: parts_sep[1].join(parts_sep[0]))))
        flags.append((action.option_strings[0], value, action.dest in PATH_DESTS))
    return name, flags


@pytest.fixture(scope="module")
def fixture_files(workdir) -> dict[str, bytes]:
    save_csv(gen_two_moons(8, 0.1, seed=3), workdir / "argv-d.csv")
    save_checkpoint(init_params(MlpConfig((2, 4, 2), init_seed=1)), {}, workdir / "argv-m.ckpt")
    data = (workdir / "argv-d.csv").read_bytes()
    header_only = data[:data.index(b"x0,x1,label\n") + len(b"x0,x1,label\n")]
    return {"d.csv": data, " d.csv ": data, "empty.csv": header_only,
            "m.ckpt": (workdir / "argv-m.ckpt").read_bytes()}


@given(command_lines())
# The random start's range overflowed past epsilon = 8.99e307 into a traceback; the search finds it
# only in some runs, so it is also given as an example.
@example(("attack", [("--model", "m.ckpt", True), ("--data", "d.csv", True), ("--eps", "1e+308", False)]))
# A dataset with no rows trained to a NaN loss after numpy's empty-mean warning.
@example(("train", [("--data", "empty.csv", True), ("--method", "erm", False), ("--out", "missing", True)]))
# sweep wrote its report over the checkpoint it had read, and exited 0.
@example(("sweep", [("--model", "m.ckpt", True), ("--data", "d.csv", True), ("--out", "m.ckpt", True)]))
# An infinite grid bound made numpy's invalid-multiply warning before the bounds were refused.
@example(("sweep", [("--model", "m.ckpt", True), ("--data", "d.csv", True), ("--out", "missing", True),
                    ("--alpha-grid", "1:inf:3", False)]))
@settings(max_examples=300, deadline=None)
def test_any_command_line_exits_0_1_or_2_and_exit_2_writes_one_error_line_and_no_file(fixture_files, case):
    name, flags = case
    with tempfile.TemporaryDirectory() as tmp:
        for file_name, body in fixture_files.items():
            with open(os.path.join(tmp, file_name), "wb") as f:
                f.write(body)
        os.mkdir(os.path.join(tmp, "a-dir"))
        before = sorted(os.listdir(tmp))
        argv = [name, *(f"{flag}={os.path.join(tmp, v) if is_path else v}" for flag, v, is_path in flags)]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        assert code in (0, 1, 2)
        for flag, v, _ in flags:
            if flag in READ_FLAGS and v in fixture_files:
                with open(os.path.join(tmp, v), "rb") as f:
                    assert f.read() == fixture_files[v], f"{name} wrote over its {flag} file"
        # oracle-check's verdict on a PGD flip the grid oracle missed is exit 2 with no error line.
        violations = re.search(r"^violations = [1-9]\d* / \d+$", out.getvalue(), re.MULTILINE)
        if code == 2 and not (name == "oracle-check" and violations):
            assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
            assert sorted(os.listdir(tmp)) == before
