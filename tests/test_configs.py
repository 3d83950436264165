"""Config objects check their fields when built, so an invalid one cannot exist."""

import dataclasses
import re

import pytest

from rlab.calo import GeneratorConfig
from rlab.errors import CatalogueError, ContractError, ShapeError
from rlab.nn import SearchSpace, preset_spec
from rlab.optim import OptimizerConfig
from rlab.robustness import BaselineGatePolicy, HalvingPolicy, SelectionCriterion
from rlab.training import EarlyStopConfig

SPEC = preset_spec("model1")
NAN = float("nan")

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


# NaN passes any check written as `value < bound`, and a float or bool count
# would build a spec with an id of its own
NOT_A_NUMBER_OR_COUNT = [
    (OptimizerConfig("adam"), {"learning_rate": NAN}, ContractError,
     "learning_rate must be positive"),
    (OptimizerConfig("adamw"), {"weight_decay": NAN}, ContractError,
     "regularization strengths must be non-negative"),
    (EarlyStopConfig(), {"hard_cap": NAN}, ContractError, "hard_cap takes integers only, got nan"),
    (EarlyStopConfig(), {"threshold": NAN}, ContractError, "threshold must be non-negative"),
    (EarlyStopConfig(), {"window": 2.5}, ContractError, "window takes integers only, got 2.5"),
    (EarlyStopConfig(), {"min_epochs": True}, ContractError,
     "min_epochs takes integers only, got True"),
    (GeneratorConfig(), {"energy_range": (1.0, float("inf"))}, ContractError,
     "energy_range must be finite, got (1.0, inf)"),
    *((GeneratorConfig(), {key: NAN}, ContractError, message) for key, message in (
        ("core_width", "profile widths must be positive"),
        ("halo_width", "profile widths must be positive"),
        ("angle_bound", "angle_bound and shower_depth must be non-negative"),
        ("shower_depth", "angle_bound and shower_depth must be non-negative"),
        ("resolution_a", "resolution terms must be non-negative"),
        ("noise_b", "resolution terms must be non-negative"))),
    (SPEC, {"batch_size": 32.5}, ContractError, "batch_size takes integers only, got 32.5"),
    (SPEC, {"batch_size": True}, ContractError, "batch_size takes integers only, got True"),
    (SPEC, {"conv_layers": ((32, 3.5), (64, 3))}, ContractError,
     "conv_layers takes integers only, got ((32, 3.5), (64, 3))"),
    (SPEC, {"pool_layers": ((2, 2), (2.0, 1))}, ContractError,
     "pool_layers takes integers only, got ((2, 2), (2.0, 1))"),
    (SPEC, {"fc_layers": (9.0, 1)}, ContractError, "fc_layers takes integers only, got (9.0, 1)"),
    (SPEC, {"aux_injection_layer": False}, ContractError,
     "aux_injection_layer takes integers only, got False"),
    # a real-valued field takes an int or a float; nothing casts a config value
    (OptimizerConfig("adam"), {"learning_rate": True}, ContractError,
     "learning_rate takes numbers only, got True"),
    (OptimizerConfig("adam"), {"l2": "0.01"}, ContractError, "l2 takes numbers only, got '0.01'"),
    (OptimizerConfig("adamw"), {"weight_decay": None}, ContractError,
     "weight_decay takes numbers only, got None"),
    (OptimizerConfig("adam"), {"beta2": "0.999"}, ContractError,
     "beta2 takes numbers only, got '0.999'"),
    (OptimizerConfig("adam"), {"epsilon": False}, ContractError,
     "epsilon takes numbers only, got False"),
    # beta1 = 1 divides by zero in Adam's bias correction
    *((OptimizerConfig(kind), {key: value}, ContractError,
       "beta1, beta2, rms_decay and rho must be in [0, 1)") for kind, key, value in (
        ("adam", "beta1", 1.0), ("nadam", "beta2", -0.1), ("rmsprop", "rms_decay", 1.5),
        ("adadelta", "rho", NAN))),
    (OptimizerConfig("adam"), {"epsilon": 0.0}, ContractError, "epsilon must be positive"),
    (OptimizerConfig("adagrad"), {"epsilon": NAN}, ContractError, "epsilon must be positive"),
]


@pytest.mark.parametrize("how", ["constructor", "replace"])
@pytest.mark.parametrize("valid, change, error, message", NOT_A_NUMBER_OR_COUNT,
                         ids=[f"{type(c[0]).__name__}-{k}={v!r}"
                              for c in NOT_A_NUMBER_OR_COUNT for k, v in c[1].items()])
def test_nan_or_non_integer_count_cannot_be_built(valid, change, error, message, how):
    test_invalid_instance_cannot_be_built(valid, change, error, message, how)


@pytest.mark.parametrize("build, message", [
    (lambda: HalvingPolicy(start_round=2.0), "start_round takes integers only, got 2.0"),
    (lambda: HalvingPolicy(start_round=True), "start_round takes integers only, got True"),
    (lambda: BaselineGatePolicy(reference_loss="0.5"),
     "reference_loss takes numbers only, got '0.5'"),
    (lambda: BaselineGatePolicy(reference_loss=0.5, margin=True),
     "margin takes numbers only, got True"),
    (lambda: BaselineGatePolicy(reference_loss=0.5, margin=NAN), "margin must be non-negative"),
], ids=["start_round-2.0", "start_round-True", "reference_loss-str", "margin-True", "margin-nan"])
def test_invalid_policy_cannot_be_built(build, message):
    with pytest.raises(ContractError, match=f"^{re.escape(message)}$"):
        build()
