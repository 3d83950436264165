"""Config objects check their fields when built, so an invalid one cannot exist."""

import dataclasses
import re

import pytest

from rlab.calo import GeneratorConfig
from rlab.errors import CatalogueError, ContractError, ShapeError
from rlab.nn import SearchSpace, preset_spec
from rlab.optim import OptimizerConfig
from rlab.robustness import SelectionCriterion
from rlab.training import EarlyStopConfig

SPEC = preset_spec("model1")

# (a valid instance, a change that makes it invalid, the error type, its message)
CASES = [
    (GeneratorConfig(), {"dataset_kind": "C"}, ContractError,
     "dataset_kind must be 'A' or 'B', got 'C'"),
    (GeneratorConfig(), {"energy_range": [5.0, 5.0]}, ContractError,
     "energy_range must satisfy 0 < lo < hi, got (5.0, 5.0)"),
    (OptimizerConfig("adam"), {"learning_rate": -1.0}, ContractError,
     "learning_rate must be positive"),
    (OptimizerConfig("adamw"), {"l2": 0.1}, ContractError,
     "adamw regularizes via weight_decay, not l2"),
    (SPEC, {"batch_size": 0}, ContractError, "batch_size must be >= 1"),
    (SPEC, {"activation": "swish"}, CatalogueError, "unknown activation 'swish'"),
    (SPEC, {"seed_policy": "fixed"}, CatalogueError, "unknown seed policy 'fixed'"),
    (SPEC, {"conv_layers": ((4, 16), (4, 3))}, ShapeError,
     "conv layer 0: kernel 16 exceeds feature map 15x15"),
    (EarlyStopConfig(), {"window": 0}, ContractError, "window must be >= 1"),
    (EarlyStopConfig(), {"hard_cap": 99}, ContractError, "hard_cap must be >= min_epochs"),
    (SelectionCriterion(), {"kind": "mode"}, ContractError, "unknown statistic 'mode'"),
    (SelectionCriterion(), {"kind": "quantile"}, ContractError,
     "quantile criterion needs p strictly inside (0, 1)"),
    (SearchSpace((SPEC,), (1e-3,), (32,), (0.01,)), {"learning_rates": ()}, ContractError,
     "search space axis learning_rates is empty"),
]


@pytest.mark.parametrize("how", ["constructor", "replace"])
@pytest.mark.parametrize("valid, change, error, message", CASES,
                         ids=[f"{type(c[0]).__name__}-{next(iter(c[1]))}" for c in CASES])
def test_invalid_instance_cannot_be_built(valid, change, error, message, how):
    fields = {f.name: getattr(valid, f.name) for f in dataclasses.fields(valid)}
    with pytest.raises(error, match=f"^{re.escape(message)}$") as caught:
        if how == "constructor":
            type(valid)(**{**fields, **change})
        else:
            dataclasses.replace(valid, **change)
    assert type(caught.value) is error
