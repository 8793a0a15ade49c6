"""Every file writer replaces its target atomically (model.write_text_atomic)."""
import stat
from dataclasses import replace

import pytest

from robustlab import model
from robustlab.datasets import gen_two_moons, save_csv
from robustlab.evaluate import EvalReport, write_report
from robustlab.model import MlpConfig, init_params, save_checkpoint
from robustlab.training import EpochRecord, TrainHistory, write_history

# A lone surrogate cannot be encoded as UTF-8, so a writer fails while
# writing the file, after the text was built.
BAD = "\udcff"


def _checkpoint(path, note):
    save_checkpoint(init_params(MlpConfig((2, 3, 2))), {"note": note}, path)


def _csv(path, note):
    ds = gen_two_moons(10, 0.1, seed=0)
    save_csv(replace(ds, meta={**ds.meta, "note": note}), path)


def _history(path, note):
    write_history(TrainHistory((EpochRecord(0, 0.5, 0.9),)), path, comments={"note": note})


def _report(path, note):
    write_report(EvalReport(model_id=note, checkpoint_hash="", dataset_id="", dataset_seed="",
                            natural_accuracy=1.0), path)


WRITERS = [_checkpoint, _csv, _history, _report]


@pytest.mark.parametrize("write", WRITERS, ids=lambda w: w.__name__.strip("_"))
def test_failed_write_keeps_previous_file_and_leaves_no_partial_file(tmp_path, write):
    path = tmp_path / "out.txt"
    write(path, "first")
    before = path.read_bytes()
    with pytest.raises(UnicodeEncodeError):
        write(path, BAD)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("write", WRITERS, ids=lambda w: w.__name__.strip("_"))
def test_failed_write_creates_no_file(tmp_path, write):
    with pytest.raises(UnicodeEncodeError):
        write(tmp_path / "out.txt", BAD)
    assert list(tmp_path.iterdir()) == []


def test_failed_replace_keeps_previous_file(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    model.write_text_atomic(path, "old\n")

    def fail(src, dst):
        raise OSError("disk gone")

    monkeypatch.setattr(model.os, "replace", fail)
    with pytest.raises(OSError, match="disk gone"):
        model.write_text_atomic(path, "new\n")
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_replaces_existing_content(tmp_path):
    path = tmp_path / "out.txt"
    model.write_text_atomic(path, "old\n")
    model.write_text_atomic(path, "néw\n")
    assert path.read_bytes() == "néw\n".encode("utf-8")
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_content_reaches_disk_before_the_replace(tmp_path, monkeypatch):
    path = tmp_path / "out.txt"
    events = []
    real_fsync, real_replace = model.os.fsync, model.os.replace

    def fsync(fd):
        events.append(("fsync", model.os.fstat(fd).st_size))
        real_fsync(fd)

    def replace_(src, dst):
        events.append(("replace", dst))
        real_replace(src, dst)

    monkeypatch.setattr(model.os, "fsync", fsync)
    monkeypatch.setattr(model.os, "replace", replace_)
    model.write_text_atomic(path, "abc\n")
    assert events == [("fsync", 4), ("replace", path)]


def test_writes_through_a_symlink_and_keeps_the_mode(tmp_path):
    target = tmp_path / "target.txt"
    model.write_text_atomic(target, "old\n")
    target.chmod(0o640)
    link = tmp_path / "link.txt"
    link.symlink_to(target)
    model.write_text_atomic(link, "new\n")
    assert link.is_symlink()
    assert target.read_text() == "new\n"
    assert stat.S_IMODE(target.stat().st_mode) == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link.txt", "target.txt"]
