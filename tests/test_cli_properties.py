"""Property tests for input that comes from outside the program.

Whatever an INI file or a report file holds, the CLI exits 0 or 2, writes
at most one `error:` line to stderr, and on exit 2 creates no output file.
Whatever a dataset CSV holds, `load_csv` returns a `Dataset` or raises a
`RobustlabError`.
"""
import contextlib
import io

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from robustlab.cli import _SETTINGS, main
from robustlab.datasets import Dataset, load_csv
from robustlab.errors import RobustlabError
from robustlab.evaluate import EvalReport, ReportRow, write_report

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
    assert isinstance(dataset, Dataset)
