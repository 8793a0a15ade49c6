"""`errors.check_positive` at every site that calls it: one wording for a value that is not positive and finite."""
import math

import numpy as np
import pytest

from robustlab.attacks import AttackConfig, brute_force_attack, pgd20_config
from robustlab.errors import ConfigError, ParameterError, SchemaError
from robustlab.evaluate import EvalReport, ReportRow, SweepConfig
from robustlab.model import MlpConfig, init_params
from robustlab.training import TrainConfig, sgd_step

PARAMS = init_params(MlpConfig((2, 3)))

# Each site that takes a scale, step, epsilon or learning rate: (build with value v, error type, name in the message).
POSITIVE_SITES = {
    "AttackConfig.step_size": (lambda v: AttackConfig(epsilon=0.1, steps=1, step_size=v), ParameterError, "step_size"),
    "AttackConfig.alpha": (lambda v: AttackConfig(epsilon=0.1, steps=1, step_size=0.1, alpha=v), ParameterError,
                           "alpha"),
    "brute_force_attack": (lambda v: brute_force_attack(PARAMS, np.zeros(2), 0, v, 2), ParameterError, "epsilon"),
    "SweepConfig": (lambda v: SweepConfig(pgd20_config(), (1.0, v)), ParameterError, "alpha_grid value"),
    "EvalReport": (lambda v: EvalReport("m", "0" * 64, "d", "0", 1.0, rows=(ReportRow("pgd20", v, 0.5, 1),)),
                   SchemaError, "alpha"),
    "TrainConfig.learning_rate": (lambda v: TrainConfig("erm", 1, 1, v), ConfigError, "learning_rate"),
    "sgd_step": (lambda v: sgd_step(PARAMS, [np.zeros((2, 3)), np.zeros(3)], v), ParameterError, "learning_rate"),
}


@pytest.mark.parametrize("value", [math.inf, math.nan, -1.0, 0.0])
@pytest.mark.parametrize("site", list(POSITIVE_SITES))
def test_a_value_that_is_not_positive_and_finite_is_refused_in_one_wording(site, value):
    build, error, what = POSITIVE_SITES[site]
    with pytest.raises(error) as info:
        build(value)
    assert str(info.value) == f"{what} must be positive and finite, got {value}"
