"""The exact text each file writer produces, pinned on tiny hand-built inputs.

Every float is an exact binary fraction, so its 17-digit text is short and
the expected files can be written out literally.
"""
import numpy as np

from robustlab.datasets import Dataset, DomainBox, save_csv
from robustlab.evaluate import EvalReport, ReportRow, write_report
from robustlab.model import MlpConfig, save_checkpoint
from robustlab.tensor import Tensor
from robustlab.training import EpochRecord, TrainHistory, write_history

from conftest import make_params


def test_dataset_csv_text(tmp_path):
    ds = Dataset(points=Tensor(np.array([[0.5, 0.25], [0.75, 0.125]])), labels=np.array([0, 1]),
                 domain=DomainBox((0.0, 0.0), (1.0, 1.0)), num_classes=2,
                 meta={"seed": "3", "generator": "hand"})
    path = tmp_path / "d.csv"
    save_csv(ds, path)
    assert path.read_text() == (
        "# num_classes = 2\n"
        "# domain_lower = 0 0\n"
        "# domain_upper = 1 1\n"
        "# generator = hand\n"
        "# seed = 3\n"
        "x0,x1,label\n"
        "0.5,0.25,0\n"
        "0.75,0.125,1\n"
    )


def test_report_text_without_its_timestamp(tmp_path):
    report = EvalReport(
        model_id="m.ckpt", checkpoint_hash="ab12", dataset_id="d.csv", dataset_seed="7",
        natural_accuracy=0.75,
        rows=(ReportRow("pgd20", 0.5, 0.25, 4), ReportRow("pgd20", 2.0, 0.5, 4)),
        worst_alpha=(("pgd20", 0.5),),
        extra=(("verdict.pgd20", "best_iterate"), ("seed", "0")),
    )
    path = tmp_path / "r.csv"
    write_report(report, path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1].startswith("# generated_at = ")
    assert "".join(lines[:1] + lines[2:]) == (
        "# format = robustlab-report-v1\n"
        "# model = m.ckpt\n"
        "# checkpoint_sha256 = ab12\n"
        "# dataset = d.csv\n"
        "# dataset_seed = 7\n"
        "# natural_accuracy = 0.75\n"
        "# worst_alpha.pgd20 = 0.5\n"
        "# verdict.pgd20 = best_iterate\n"
        "# seed = 0\n"
        "attack,alpha,robust_accuracy,n\n"
        "pgd20,0.5,0.25,4\n"
        "pgd20,2,0.5,4\n"
    )


def test_history_text_without_kappa(tmp_path):
    history = TrainHistory((EpochRecord(0, 0.5, 0.75), EpochRecord(1, 0.25, 0.875)))
    path = tmp_path / "h.csv"
    write_history(history, path, comments={"method": "erm", "seed": "3"})
    assert path.read_text() == (
        "# method = erm\n"
        "# seed = 3\n"
        "epoch,loss,nat_acc\n"
        "0,0.5,0.75\n"
        "1,0.25,0.875\n"
    )


def test_history_text_with_kappa(tmp_path):
    history = TrainHistory((
        EpochRecord(0, 0.5, 0.75),
        EpochRecord(1, 0.25, 0.875, (1, 2, 3)),
        EpochRecord(2, 0.125, 1.0, (4, 5)),
    ))
    path = tmp_path / "h.csv"
    write_history(history, path)
    assert path.read_text() == (
        "epoch,loss,nat_acc,kappa_0,kappa_1,kappa_2\n"
        "0,0.5,0.75,0,0,0\n"
        "1,0.25,0.875,1,2,3\n"
        "2,0.125,1,4,5,0\n"
    )


def test_checkpoint_text(tmp_path):
    params = make_params(MlpConfig((2, 2), activation="tanh", init_seed=5),
                         [np.array([[0.5, -0.25], [1.0, 0.0]])], [np.array([0.125, -2.0])])
    path = tmp_path / "m.ckpt"
    save_checkpoint(params, {"method": "erm", "seed": 1}, path)
    assert path.read_text() == (
        "MLPCKPT v1\n"
        "config layer_sizes=2,2 activation=tanh init_seed=5\n"
        "meta method=erm\n"
        "meta seed=1\n"
        "w0 2x2 0.5 -0.25 1 0\n"
        "b0 2 0.125 -2\n"
    )
