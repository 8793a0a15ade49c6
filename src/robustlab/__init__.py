"""Desk-scale adversarial-robustness laboratory.

Small MLP classifiers with a fused float64 loss-and-gradient pass,
synthetic 2-d datasets, the PGD attack family with logit scaling and
per-example survival counts, four training regimes (ERM, AT, FAT,
GAIRAT-style reweighting), and the evaluation protocols that expose
reweighting-induced gradient masking.
"""

from .attacks import (
    ATTACK_PRESETS,
    AttackConfig,
    AttackResult,
    brute_force_attack,
    pgd20_config,
    pgd200_config,
    pgd_attack,
    pgd_plus_config,
    project_linf,
)
from .datasets import (
    Dataset,
    DomainBox,
    gen_gaussian_blobs,
    gen_rings,
    gen_two_moons,
    load_csv,
    rescale_inverse,
    save_csv,
    split_dataset,
)
from .errors import (
    CapabilityError,
    ConfigError,
    ContractError,
    NumericalError,
    ParameterError,
    ParseError,
    RobustlabError,
    SchemaError,
    ShapeError,
)
from .evaluate import (
    DEFAULT_ALPHA_GRID,
    EvalReport,
    ReportRow,
    SweepConfig,
    alpha_sweep,
    dataset_sha256,
    eval_natural,
    eval_robust,
    file_sha256,
    read_report,
    write_report,
)
from .model import (
    Checkpoint,
    MlpConfig,
    MlpParams,
    forward_logits,
    init_params,
    load_checkpoint,
    predict,
    save_checkpoint,
)
from .tensor import Tensor, scaled_softmax, scaled_softmax_cross_entropy
from .training import (
    EpochRecord,
    TrainConfig,
    TrainHistory,
    WeightAssignment,
    compute_weights,
    sgd_step,
    train,
    write_history,
)

__version__ = "0.1.0"
