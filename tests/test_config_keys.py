"""Config keys are read one way: each command's handler takes its keys as
keyword-only parameters, and each block is unpacked into the function or
class that checks it.  A missing, unknown or misspelled key, or a value of
the wrong type, exits 2 with one line; nothing is cast or ignored."""

import contextlib
import copy
import functools
import inspect
import io
import json
import math
import os
import re
import tempfile

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

import rlab.cli
import rlab.training
from rlab.calo import GeneratorConfig, generate_dataset, save_dataset
from rlab.cli import EXIT_CONFIG, HANDLERS, POLICIES, TRAINERS, main
from rlab.errors import ContractError
from rlab.nn import (ModelSpec, SearchSpace, enumerate_search_space, preset_spec,
                     reference_search_space)
from rlab.optim import OptimizerConfig
from rlab.robustness import (SelectionCriterion, run_instances, sample_size_sweep,
                             select_models)
from rlab.training import EarlyStopConfig

README = os.path.join(os.path.dirname(os.path.dirname(__file__)), "README.md")
ONE_EPOCH = {"min_epochs": 1, "window": 1, "threshold": 1e9, "hard_cap": 1}


def tiny_spec(name):
    return {"name": name, "conv_layers": [[3, 3], [4, 2]], "pool_layers": [[2, 2], [2, 1]],
            "fc_layers": [8, 1], "activation": "relu",
            "optimizer": {"kind": "adam", "learning_rate": 0.01}, "batch_size": 16}


def readme_configs() -> list[dict]:
    text = open(README).read()
    return [yaml.safe_load(block) for block in re.findall(r"```yaml\n(.*?)```", text, re.S)]


@functools.lru_cache(maxsize=None)
def small_reference(target="energy") -> SearchSpace:
    """Four specs of the bundled grid, so a property example stays cheap."""
    space = reference_search_space(target)
    return SearchSpace(space.architectures[:2], space.learning_rates[:2],
                       space.batch_sizes[:1], space.regularizations[:1])


GRID_NAMES = [s.name for s in enumerate_search_space(small_reference())]


def valid_configs() -> dict[str, dict]:
    """Configs that run as written: those of c13, of perfbench's workloads
    (at test scale) and of the README, with data files named as the data
    fixture writes them."""
    stop = {"min_epochs": 1, "window": 1, "threshold": 0.5, "hard_cap": 2}
    data = {"train_data": "train.rlab", "test_data": "test.rlab"}
    fixed = {"min_epochs": 2, "hard_cap": 2, "window": 1, "threshold": 0.1}
    presets = [{**preset_spec(p).to_dict(), "name": f"{p}-lr{lr:g}-bs{bs}",
                "optimizer": {"kind": "adamw", "learning_rate": lr, "weight_decay": 0.1},
                "batch_size": bs}
               for p in ("model3", "model4") for lr in (1e-4, 1e-3) for bs in (16, 128)]
    configs = {
        "c13-gen-data": {"command": "gen-data", "n": 16, "seed": 5, "filename": "g.rlab"},
        "c13-train": {"command": "train", "spec": tiny_spec("det"), "init_seed": 4,
                      **data, "stop": stop},
        "c13-robustness": {"command": "robustness", "spec": tiny_spec("det"), "k": 2,
                           "mode": "both_random", "sample_size": 32, "base_seed": 3,
                           **data, "stop": stop},
        "c13-select": {"command": "select", "k": 5,
                       "specs": [tiny_spec(f"m{i}") for i in range(3)],
                       "trainer": {"kind": "mock", "losses": {"m0": 0.2, "m1": 0.5, "m2": 0.9}},
                       "policy": {"kind": "halving"}, "criterion": {"kind": "mean"}},
        "c13-sweep": {"command": "sweep", "spec": tiny_spec("det"), "k": 2, "sizes": [16, 32],
                      "base_seed": 7, **data, "stop": stop},
        "c13-report": {"command": "report", "records": "records.jsonl"},
        "perfbench-gen-data": {"command": "gen-data", "n": 16, "seed": 1,
                               "filename": "pool.rlab", "generator": {"dataset_kind": "B"}},
        "robustness-w2": {"command": "robustness", "preset": "model2", "k": 4,
                          "mode": "both_random", **data, "sample_size": 32, "base_seed": 9,
                          "stop": fixed},
        "select-w2": {"command": "select", "specs": presets, "k": 3,
                      "criterion": {"kind": "median"}, "policy": {"kind": "halving"},
                      "base_seed": 9, "trainer": {"kind": "instances", **data,
                                                  "sample_size": 32, "stop": fixed}},
        "select-grid": {"command": "select", "search_space": {"reference": "energy"}, "k": 50,
                        "criterion": {"kind": "median"}, "policy": {"kind": "halving"},
                        "base_seed": 9, "trainer": {"kind": "mock", "noise": 0.01, "losses": {
                            name: 0.05 + 0.01 * i for i, name in enumerate(GRID_NAMES)}}},
    }
    for i, config in enumerate(readme_configs()):
        configs[f"readme-{i}"] = config
    return configs


CONFIGS = valid_configs()


def key_paths(node, path=()):
    """The path of every mapping key in a config, nested blocks and list items included."""
    if isinstance(node, dict):
        for key, value in node.items():
            yield path + (key,)
            yield from key_paths(value, path + (key,))
    elif isinstance(node, list):
        for i, item in enumerate(node):
            yield from key_paths(item, path + (i,))


MUTATIONS = ("drop", "misspell", math.inf, math.nan, True, 2.5, "x", [], {})
CASES = [(name, path, mutation) for name, config in CONFIGS.items()
         for path in key_paths(config) for mutation in MUTATIONS]


def mutated(config: dict, path: tuple, mutation) -> dict:
    config = copy.deepcopy(config)
    parent = config
    for step in path[:-1]:
        parent = parent[step]
    key = path[-1]
    if mutation == "drop":
        del parent[key]
    elif mutation == "misspell":
        parent[key[:-1] + key[-1] * 2] = parent.pop(key)      # stop -> stopp, k -> kk
    else:
        parent[key] = mutation
    return config


def fake_fit(model, train_arrays, eval_arrays, stop, shuffle_rng):
    """One epoch whose loss depends on the spec only: the property is about
    reading configs, and real training is tested elsewhere."""
    return [0.1 + model.spec.optimizer.learning_rate + model.spec.batch_size / 1e4], False


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    """A directory holding the data files and records the configs name, with
    training and the bundled grid made cheap while the tests run."""
    d = tmp_path_factory.mktemp("keys")
    save_dataset(generate_dataset(GeneratorConfig(), 64, seed=5), str(d / "train.rlab"))
    save_dataset(generate_dataset(GeneratorConfig(), 48, seed=6), str(d / "test.rlab"))
    (d / "records.jsonl").write_text(json.dumps({"spec_id": "a", "losses": [0.1, 0.3]}) + "\n")
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rlab.training, "fit", fake_fit)
        mp.setattr(rlab.cli, "reference_search_space", small_reference)
        mp.chdir(d)
        yield d


def run(config: dict, command: str, *flags: str) -> tuple[int, str]:
    """(exit code, stderr) of one command, its reports written to a fresh directory."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as out:
        path = os.path.join(out, "config.yaml")
        with open(path, "w") as fh:
            yaml.safe_dump(config, fh)
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([command, "--config", path, "--out", os.path.join(out, "reports"),
                         "--workers", "1", *flags])
    return code, err.getvalue()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_valid_config_runs(workdir, name):
    code, err = run(CONFIGS[name], CONFIGS[name]["command"])
    assert (code, err) == (0, "")


@given(st.sampled_from(CASES))
@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_key_mutated_is_a_documented_exit_with_one_line(workdir, case):
    name, path, mutation = case
    code, err = run(mutated(CONFIGS[name], path, mutation), CONFIGS[name]["command"])
    assert code in (0, 2, 3, 4), (code, err)
    assert err.count("\n") <= 1 and "Traceback" not in err, err
    if mutation == "misspell":
        assert code == EXIT_CONFIG, err


SELECT = CONFIGS["c13-select"]
ROBUSTNESS = CONFIGS["c13-robustness"]
SPACE = {"architectures": [tiny_spec("a")], "learning_rates": [0.01], "batch_sizes": [16],
         "regularizations": [0.01]}
MOCK = SELECT["trainer"]


def without(config, key):
    return {k: v for k, v in config.items() if k != key}


# (id, a config with one fault, the one line it must print on stderr)
BAD_CONFIGS = [
    ("sample_sise", dict(ROBUSTNESS, sample_sise=16),
     "cmd_robustness() got an unexpected keyword argument 'sample_sise'"),
    ("stopp", dict(without(ROBUSTNESS, "stop"), stopp=ONE_EPOCH),
     "cmd_robustness() got an unexpected keyword argument 'stopp'"),
    ("criterion-knd", dict(SELECT, criterion={"knd": "max"}),
     "SelectionCriterion.__init__() got an unexpected keyword argument 'knd'"),
    ("policy-start_rnd", dict(SELECT, policy={"start_rnd": 2}),
     "HalvingPolicy.__init__() got an unexpected keyword argument 'start_rnd'"),
    ("mock-nosie", dict(SELECT, trainer=dict(MOCK, nosie=0.5)),
     "_mock_trainer() got an unexpected keyword argument 'nosie'"),
    ("command-timout", dict(SELECT, trainer={"kind": "command", "argv": ["true"], "timout": 5}),
     "_command_trainer() got an unexpected keyword argument 'timout'"),
    ("instances-sample_sise", dict(SELECT, trainer={
        "kind": "instances", "train_data": "train.rlab", "test_data": "test.rlab",
        "sample_sise": 16}),
     "_instances_trainer() got an unexpected keyword argument 'sample_sise'"),
    ("max_roundz", dict(SELECT, max_roundz=3),
     "cmd_select() got an unexpected keyword argument 'max_roundz'"),
    ("k-2.7", dict(SELECT, k=2.7), "k takes integers only, got 2.7"),
    ("max_rounds-true", dict(SELECT, max_rounds=True), "max_rounds takes integers only, got True"),
    ("max_rounds-inf", dict(SELECT, max_rounds=math.inf), "max_rounds takes integers only, got inf"),
    ("select-base_seed-inf", dict(SELECT, base_seed=math.inf),
     "base_seed takes integers only, got inf"),
    ("robustness-base_seed-inf", dict(ROBUSTNESS, base_seed=math.inf),
     "base_seed takes integers only, got inf"),
    ("sample_size-2.5", dict(ROBUSTNESS, sample_size=2.5),
     "sample_size takes integers only, got 2.5"),
    ("sizes-16.0", dict(CONFIGS["c13-sweep"], sizes=[16.0, 32]),
     "sizes takes integers only, got (16.0, 32)"),
    ("start_round-inf", dict(SELECT, policy={"start_round": math.inf}),
     "start_round takes integers only, got inf"),
    ("gen-data-n-inf", {"command": "gen-data", "n": math.inf, "seed": 1},
     "n takes integers only, got inf"),
    ("learning_rates-true", dict(without(SELECT, "specs"), search_space=dict(
        SPACE, learning_rates=[True])), "learning_rate takes numbers only, got True"),
    ("regularizations-str", dict(without(SELECT, "specs"), search_space=dict(
        SPACE, regularizations=["0.01"])), "l2 takes numbers only, got '0.01'"),
    ("beta1-1.0", dict(ROBUSTNESS, spec=dict(tiny_spec("det"), optimizer={
        "kind": "adam", "beta1": 1.0})), "beta1, beta2, rms_decay and rho must be in [0, 1)"),
    ("mock-loss-str", dict(SELECT, trainer=dict(MOCK, losses={"m0": "0.2", "m1": 0.5, "m2": 0.9})),
     "losses['m0'] takes numbers only, got '0.2'"),
    ("mock-noise-true", dict(SELECT, trainer=dict(MOCK, noise=True)),
     "noise takes numbers only, got True"),
    ("reference_loss-str", dict(SELECT, policy={"kind": "baseline_gate", "reference_loss": "0.5"}),
     "reference_loss takes numbers only, got '0.5'"),
    ("spec-and-preset", dict(ROBUSTNESS, preset="model2"),
     "need exactly one of a 'spec' block and a 'preset' name"),
    ("sizes-and-indices", dict(CONFIGS["c13-sweep"], indices=[0]),
     "need exactly one of a 'sizes' list and an 'indices' list"),
    ("train_data-true", dict(ROBUSTNESS, train_data=True),
     "train_data takes strings only, got True"),
    ("test_data-7", dict(ROBUSTNESS, test_data=7), "test_data takes strings only, got 7"),
    ("instances-test_data-7", dict(SELECT, trainer={
        "kind": "instances", "train_data": "train.rlab", "test_data": 7}),
     "test_data takes strings only, got 7"),
    ("records-7", {"command": "report", "records": 7}, "records takes strings only, got 7"),
    ("spec-name-inf", dict(ROBUSTNESS, spec=dict(tiny_spec("det"), name=math.inf)),
     "name takes strings only, got inf"),
    ("sizes-empty", dict(CONFIGS["c13-sweep"], sizes=[]), "'sizes' lists no sample size"),
    ("indices-empty", dict(without(CONFIGS["c13-sweep"], "sizes"), indices=[]),
     "'indices' lists no sample size"),
    ("threshold-true", dict(ROBUSTNESS, stop=dict(ONE_EPOCH, threshold=True)),
     "threshold takes numbers only, got True"),
    ("quantile-str", {"command": "report", "records": "records.jsonl",
                      "criteria": [{"kind": "quantile", "quantile": "0.5"}]},
     "quantile takes numbers only, got '0.5'"),
    ("energy_range-str", {"command": "gen-data", "n": 4, "seed": 1,
                          "generator": {"energy_range": [1.0, "100"]}},
     "energy_range takes numbers only, got (1.0, '100')"),
    ("energy_range-true", {"command": "gen-data", "n": 4, "seed": 1,
                           "generator": {"energy_range": [True, 5]}},
     "energy_range takes numbers only, got (True, 5)"),
    ("noise_b-true", {"command": "gen-data", "n": 4, "seed": 1, "generator": {"noise_b": True}},
     "noise_b takes numbers only, got True"),
    ("select-base_seed-negative", dict(SELECT, base_seed=-1),
     "base_seed must be a non-negative integer, got -1"),
    ("robustness-base_seed-negative", dict(ROBUSTNESS, base_seed=-1),
     "base_seed must be a non-negative integer, got -1"),
    ("sweep-base_seed-negative", dict(CONFIGS["c13-sweep"], base_seed=-4),
     "base_seed must be a non-negative integer, got -4"),
    ("gen-data-seed-negative", {"command": "gen-data", "n": 4, "seed": -3},
     "seed must be a non-negative integer, got -3"),
    ("train-init_seed-negative", dict(CONFIGS["c13-train"], init_seed=-2),
     "init_seed must be a non-negative integer, got -2"),
]


@pytest.mark.parametrize("config, message", [c[1:] for c in BAD_CONFIGS],
                         ids=[c[0] for c in BAD_CONFIGS])
def test_bad_config_is_one_config_error_line(workdir, config, message):
    assert run(config, config["command"]) == (EXIT_CONFIG, f"config error: {message}\n")


@pytest.mark.parametrize("name, key", [("c13-gen-data", "seed"), ("c13-train", "init_seed"),
                                       ("c13-robustness", "base_seed"), ("c13-select", "base_seed"),
                                       ("c13-sweep", "base_seed")])
def test_negative_seed_flag_names_the_key_it_sets(workdir, name, key):
    assert run(CONFIGS[name], CONFIGS[name]["command"], "--seed", "-5") == (
        EXIT_CONFIG, f"config error: {key} must be a non-negative integer, got -5\n")


def test_library_counts_are_checked_before_any_training(workdir, monkeypatch):
    def no_training(*args, **kwargs):
        raise AssertionError("a training started")

    monkeypatch.setattr(rlab.training, "fit", no_training)
    spec = ModelSpec.from_dict(tiny_spec("a"))
    with pytest.raises(ContractError, match="^sample_size takes integers only, got 16.0$"):
        run_instances(spec, 2, None, None, sample_size=16.0)
    with pytest.raises(ContractError, match="^k takes integers only, got 2.0$"):
        run_instances(spec, 2.0, None, None, sample_size=16)
    with pytest.raises(ContractError, match=r"^sizes takes integers only, got \(16, 2.5\)$"):
        sample_size_sweep(spec, [16, 2.5], 2, None, None)
    with pytest.raises(ContractError, match="^max_rounds takes integers only, got 2.5$"):
        select_models([spec], SelectionCriterion(), POLICIES["halving"](), None, max_rounds=2.5)


# -- the README and the key table cannot drift apart ---------------------------------------


def bind(build, block: dict, *args) -> None:
    """Bind a block to its builder as the command would, and its nested blocks in turn."""
    block = dict(block)
    if build is ModelSpec:
        bind(OptimizerConfig, block["optimizer"])
    for key, nested in (("stop", EarlyStopConfig), ("generator", GeneratorConfig),
                        ("criterion", SelectionCriterion), ("spec", ModelSpec)):
        if key in block:
            bind(nested, block[key])
    for spec in block.get("specs", []) + list(block.get("architectures", [])):
        bind(ModelSpec, spec)
    for criterion in block.get("criteria", []):
        bind(SelectionCriterion, criterion)
    if "search_space" in block:
        bind(rlab.cli._grid_specs, block["search_space"])
    for key, table, default in (("policy", POLICIES, "halving"), ("trainer", TRAINERS, None)):
        if key in block:
            kind_block = dict(block[key])
            bind(table[kind_block.pop("kind", default)], kind_block,
                 *(("workers",) if key == "trainer" else ()))
    inspect.signature(build).bind(*args, **block)


def test_readme_examples_bind_to_their_handlers():
    configs = readme_configs()
    assert len(configs) >= 2
    for config in configs:
        command = config.pop("command")
        bind(HANDLERS[command], config, "out_dir", "workers")


def test_binding_names_a_misspelled_key():
    config = readme_configs()[0]
    command = config.pop("command")
    key = next(iter(config))
    config[key + "_"] = config.pop(key)
    with pytest.raises(TypeError, match=f"'{key}_'"):
        bind(HANDLERS[command], config, "out_dir", "workers")


KEY_TABLE = [*((f"`{command}`", handler) for command, handler in HANDLERS.items()),
             *((f"`trainer`, kind `{kind}`", build) for kind, build in TRAINERS.items()),
             *((f"`policy`, kind `{kind}`", build) for kind, build in POLICIES.items()),
             ("`criterion`", SelectionCriterion), ("`search_space`", rlab.cli._grid_specs)]


def flow(value) -> str:
    return yaml.safe_dump(value, default_flow_style=True, width=1000).removesuffix("...\n").strip()


def key_table() -> str:
    rows = ["| Where | Required keys | Optional keys: default |", "| --- | --- | --- |"]
    for label, build in KEY_TABLE:
        params = [p for p in inspect.signature(build).parameters.values()
                  if p.name not in ("out_dir", "workers")]
        required = ", ".join(f"`{p.name}`" for p in params if p.default is p.empty)
        optional = ", ".join(f"`{p.name}: {flow(p.default)}`"
                             for p in params if p.default is not p.empty)
        rows.append(f"| {label} | {required or '-'} | {optional or '-'} |")
    return "\n".join(rows) + "\n"


def test_readme_key_table_is_the_signatures():
    assert key_table() in open(README).read(), "README key table differs; it should read:\n" + \
        key_table()
