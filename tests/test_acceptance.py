"""Acceptance suite: thirteen end-to-end checks, one test per criterion.

Run with -v to get one pass/fail line per criterion; each test also prints
a [c##] summary line with the measured numbers.  Heavy criteria run at desk
scale (small nets, short stop rules) with seeds fixed, so every verdict here
is reproducible bit for bit.
"""

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest
import yaml

from oracles import default_config, evaluate_on, finite_diff_check, param_count, split_fixed
from rlab.baselines import baseline_loss, fit_energy_scale, predict_energy
from rlab.calo import GeneratorConfig, generate_dataset
from rlab.cli import main
from rlab.nn import (
    ACTIVATIONS,
    Model,
    ModelSpec,
    PRESET_IDS,
    enumerate_search_space,
    preset_spec,
    reference_search_space,
)
from rlab.optim import KINDS, OptimizerConfig, make_optimizer
from rlab.robustness import (
    BaselineGatePolicy,
    HalvingPolicy,
    RobustnessRecord,
    SelectionCriterion,
    run_instances,
    select_models,
)
from rlab.tensor import Tensor
from rlab.training import (
    EarlyStopConfig,
    TrainedInstance,
    _loss_node,
    constant_predictor_loss,
    prepare_arrays,
    should_stop,
)


def report(num: int, message: str) -> None:
    print(f"[c{num:02d}] PASS {message}")


def tiny_spec(name: str, activation: str = "relu", aux: str = "none",
              target: str = "energy") -> ModelSpec:
    return ModelSpec(
        name=name,
        conv_layers=((3, 3), (4, 2)),
        pool_layers=((2, 2), (2, 1)),
        fc_layers=(5, 1),
        activation=activation,
        optimizer=OptimizerConfig("adam", learning_rate=1e-3),
        batch_size=16,
        target=target,
        aux=aux,
    )


AUX_SMALL = replace(preset_spec("model2"), conv_layers=((8, 3), (16, 3)), name="m2-small")
RAW_SMALL = replace(preset_spec("model1"), conv_layers=((8, 3), (16, 3)), name="m1-small")
AUX_TINY = replace(preset_spec("model2"), conv_layers=((4, 3), (8, 3)), name="m2-tiny")

SWEEP_STOP = EarlyStopConfig(min_epochs=10, window=5, threshold=0.10, hard_cap=12)
VAR_STOP = EarlyStopConfig(min_epochs=4, window=2, threshold=0.10, hard_cap=6)


@pytest.fixture(scope="module")
def sweep_pool():
    return generate_dataset(GeneratorConfig(), 16000, seed=101)


@pytest.fixture(scope="module")
def sweep_test():
    return generate_dataset(GeneratorConfig(), 2000, seed=202)


# -- 1: gradients ------------------------------------------------------------------


def test_c01_gradients_match_finite_differences_everywhere():
    t0 = time.perf_counter()
    batch = generate_dataset(GeneratorConfig(), 4, seed=11)
    idx = np.arange(4)
    worst_overall = 0.0

    # every layer type: conv, pool, fc, aux concat, and each activation
    for i, act in enumerate(ACTIVATIONS):
        aux = "energy_sum" if act == "gelu" else "none"
        spec = tiny_spec(f"grad-{act}", activation=act, aux=aux)
        clusters, auxcol, targets = prepare_arrays(spec, batch)
        model = Model(spec, init_seed=100 + i)
        worst = finite_diff_check(
            lambda: _loss_node(spec, model, clusters, auxcol, targets, idx),
            model.parameters(), sample_limit=32, seed=1)
        assert worst < 1e-4, f"{act}: worst relative error {worst}"
        worst_overall = max(worst_overall, worst)

    for pid in PRESET_IDS:
        spec = preset_spec(pid)
        clusters, auxcol, targets = prepare_arrays(spec, batch)
        model = Model(spec, init_seed=5)
        worst = finite_diff_check(
            lambda: _loss_node(spec, model, clusters, auxcol, targets, idx),
            model.parameters(), sample_limit=48, seed=2)
        assert worst < 1e-4, f"{pid}: worst relative error {worst}"
        worst_overall = max(worst_overall, worst)

    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0, f"gradient suite took {elapsed:.1f}s"
    report(1, f"worst relative error {worst_overall:.2e} over 7 activations "
              f"+ 4 presets in {elapsed:.1f}s")


# -- 2: preset parameter counts ----------------------------------------------------


def test_c02_preset_parameter_counts_exact():
    expected = {"model1": 23923, "model2": 23932, "model3": 23644, "model4": 23662}
    got = {pid: param_count(preset_spec(pid)) for pid in PRESET_IDS}
    assert got == expected
    report(2, f"param counts {sorted(got.values())}")


# -- 3: optimizer oracles ----------------------------------------------------------


def test_c03_optimizer_closed_forms_and_convergence():
    def one_param(value):
        return Tensor(np.array([value], dtype=np.float64), requires_grad=True)

    def run(kind, w0, grads, **kw):
        p = one_param(w0)
        opt = make_optimizer([p], OptimizerConfig(kind=kind, **kw))
        for g in grads:
            p.grad = np.array([g], dtype=np.float64)
            opt.step()
        return float(p.data[0])

    tol = 1e-12
    assert abs(run("sgd", 1.0, [2.0], learning_rate=0.1) - 0.8) <= tol

    lr, eps = 0.001, 1e-8
    assert abs(run("adam", 0.0, [1.0], learning_rate=lr) - (-lr / (1.0 + eps))) <= tol

    wd = 0.01
    adaptive = 0.5 - lr * 1.0 / (1.0 + eps)
    expected = adaptive - lr * wd * adaptive
    assert abs(run("adamw", 0.5, [1.0], learning_rate=lr, weight_decay=wd) - expected) <= tol

    assert abs(run("adagrad", 1.0, [2.0], learning_rate=0.1)
               - (1.0 - 0.1 * 2.0 / (2.0 + eps))) <= tol

    # rmsprop default decay 0.99: v = 0.01 * 4
    assert abs(run("rmsprop", 1.0, [2.0], learning_rate=0.01)
               - (1.0 - 0.01 * 2.0 / (math.sqrt(0.04) + eps))) <= tol

    w_star = np.array([0.6, -0.8])
    for kind in KINDS:
        w = Tensor(np.zeros(2), requires_grad=True)
        opt = make_optimizer([w], default_config(kind))
        for _ in range(200):
            opt.zero_grad()
            w.grad = 2.0 * (w.data - w_star)
            opt.step()
        f = float(((w.data - w_star) ** 2).sum())
        assert f <= 0.1, f"{kind}: quadratic reduced only to {f}"

    report(3, f"5 closed forms at 1e-12; all {len(KINDS)} optimizers cut the "
              f"unit quadratic by >= 90% in 200 steps")


# -- 4: early-stop rule ------------------------------------------------------------


def test_c04_early_stop_rule_examples():
    cfg = EarlyStopConfig()

    spiky_short = [1.0] * 70 + [5.0] + [1.0] * 28          # 99 epochs, big spike
    assert should_stop(spiky_short, cfg) is False

    flat = [1.0] * 150                                     # flat, past min_epochs
    assert should_stop(flat, cfg) is False

    spike_in_window = [1.0] * 99 + [1.15]                  # 15% > 10% threshold
    assert should_stop(spike_in_window, cfg) is True

    report(4, "pre-100 never fires; flat never fires; 15% window spike fires")


# -- 5: selection budget -----------------------------------------------------------


def test_c05_selection_budget_on_full_mock_grid():
    t0 = time.perf_counter()
    specs = enumerate_search_space(reference_search_space("energy"))
    assert len(specs) == 6912

    def trainer(spec, round_index, seed):
        # deterministic pseudo-loss in [0.05, 1.05), distinct per spec
        return 0.05 + int(spec.spec_id(), 16) / 16 ** 10

    winners, ledger = select_models(
        specs, SelectionCriterion("mean"),
        policy=BaselineGatePolicy(reference_loss=0.5, margin=0.2),
        trainer=trainer, max_rounds=14, base_seed=9)
    elapsed = time.perf_counter() - t0

    exhaustive = len(specs) * 50
    assert exhaustive == 345600
    assert ledger.cumulative_trainings < exhaustive
    assert len(ledger.rounds) <= 14
    assert len(winners) <= 1 and not ledger.tie
    assert elapsed < 60.0, f"campaign took {elapsed:.1f}s"
    report(5, f"{ledger.cumulative_trainings} trainings vs {exhaustive} exhaustive, "
              f"{len(ledger.rounds)} rounds, 1 winner, {elapsed:.1f}s")


# -- 6: selection correctness ------------------------------------------------------


def test_c06_selection_picks_true_best_in_monte_carlo_mock():
    means = {"good": 1.0, "mid": 1.3, "bad": 1.6}          # 3 sigma apart at 0.1
    specs = [tiny_spec(name) for name in means]
    sigma = 0.1

    def trainer(spec, round_index, seed):
        return means[spec.name] + float(np.random.default_rng(seed).normal(0.0, sigma))

    wins = 0
    for campaign in range(100):
        winners, ledger = select_models(
            specs, SelectionCriterion("mean"),
            policy=HalvingPolicy(start_round=1), trainer=trainer,
            base_seed=campaign)
        if len(winners) == 1 and winners[0].name == "good":
            wins += 1
    assert wins >= 90, f"true best won only {wins}/100 campaigns"
    report(6, f"true best model won {wins}/100 campaigns")


# -- 7: constant-model robustness --------------------------------------------------


def test_c07_constant_model_loss_spread_is_exactly_zero():
    spec = tiny_spec("constant")
    test_set = generate_dataset(GeneratorConfig(), 256, seed=909)

    record = RobustnessRecord(spec_id=spec.spec_id(), spec_name=spec.name,
                              mode="fixed_data_random_init",
                              sample_size=len(test_set), base_seed=0)
    for init_seed in range(5):
        model = Model(spec, init_seed)
        for p in model.parameters():
            p.data[...] = 0.0
        model.fc_biases[-1].data[...] = 2.5                # output 2.5 for any input
        loss = evaluate_on(model, test_set)
        record.add(TrainedInstance(
            spec_id=spec.spec_id(), spec_name=spec.name, init_seed=init_seed,
            data_seed=None, loss_trace=[loss], stop_epoch=1,
            final_test_loss=loss, diverged=False, wall_time=0.0))

    losses = record.losses
    assert all(v == losses[0] for v in losses)
    spread = record.statistic(SelectionCriterion("std"))
    assert spread == 0.0
    assert record.statistics()["std"] == 0.0
    report(7, f"5 constant instances, identical loss {losses[0]:.6f}, std == 0.0")


# -- 8: end-to-end desk run --------------------------------------------------------


def test_c08_reduced_model2_beats_constant_floor():
    t0 = time.perf_counter()
    pool = generate_dataset(GeneratorConfig(), 2000, seed=77)
    train, test = split_fixed(pool, ratio=0.5, seed=1)
    _, _, targets = prepare_arrays(AUX_SMALL, test)
    _, floor = constant_predictor_loss("energy", targets)

    record = run_instances(AUX_SMALL, 5, train, test, "both_random",
                           base_seed=21, sample_size=len(train), workers=2)
    elapsed = time.perf_counter() - t0

    assert not any(p["diverged"] for p in record.provenance)
    assert all(v < floor for v in record.losses), (record.losses, floor)
    assert elapsed < 600.0, f"desk run took {elapsed:.0f}s"
    report(8, f"5/5 instances beat the constant floor {floor:.3f} "
              f"(worst {max(record.losses):.3f}) in {elapsed:.0f}s")


# -- 9: inductive-bias effect ------------------------------------------------------


def test_c09_aux_fed_model_wins_at_small_sample_size(sweep_pool, sweep_test):
    wins = 0
    for rep in range(10):
        rec_aux = run_instances(AUX_SMALL, 5, sweep_pool, sweep_test, "both_random",
                                base_seed=rep, sample_size=500, stop=SWEEP_STOP, workers=2)
        rec_raw = run_instances(RAW_SMALL, 5, sweep_pool, sweep_test, "both_random",
                                base_seed=rep, sample_size=500, stop=SWEEP_STOP, workers=2)
        if rec_aux.statistics()["median"] <= rec_raw.statistics()["median"]:
            wins += 1
    assert wins >= 8, f"aux-fed model won only {wins}/10 sweeps"
    report(9, f"aux-fed median <= raw median in {wins}/10 sweeps at n=500")


# -- 10: learning-curve trend ------------------------------------------------------


def test_c10_bigger_samples_lower_median_and_iqr(sweep_pool, sweep_test):
    good = 0
    for rep in range(10):
        stats = {}
        for n in (500, 8000):
            rec = run_instances(AUX_TINY, 5, sweep_pool, sweep_test, "both_random",
                                base_seed=1000 + rep, sample_size=n, stop=SWEEP_STOP,
                                workers=2)
            s = rec.statistics()
            stats[n] = (s["median"], s["iqr"])
        if stats[8000][0] <= stats[500][0] and stats[8000][1] <= stats[500][1]:
            good += 1
    assert good >= 9, f"trend held in only {good}/10 repetitions"
    report(10, f"median and IQR both shrank from n=500 to n=8000 in {good}/10 reps")


# -- 11: randomization decomposition -----------------------------------------------


def test_c11_both_random_variance_dominates_single_modes():
    pool = generate_dataset(GeneratorConfig(), 4000, seed=303)
    test_set = generate_dataset(GeneratorConfig(), 512, seed=404)

    def bootstrap_se_of_variance(losses, seed):
        rng = np.random.default_rng(seed)
        arr = np.asarray(losses)
        draws = [np.var(rng.choice(arr, size=arr.size, replace=True), ddof=1)
                 for _ in range(500)]
        return float(np.std(draws))

    single_modes = ("fixed_data_random_init", "random_data_fixed_init")
    for rep in range(5):
        var, se = {}, {}
        for mode in single_modes + ("both_random",):
            rec = run_instances(AUX_TINY, 20, pool, test_set, mode,
                                base_seed=5000 + rep, sample_size=256, stop=VAR_STOP,
                                workers=2)
            var[mode] = float(np.var(rec.losses, ddof=1))
            se[mode] = bootstrap_se_of_variance(rec.losses, seed=rep)
        for mode in single_modes:
            assert var["both_random"] >= var[mode] - 2.0 * se[mode], (
                f"rep {rep}: var(both)={var['both_random']:.3e} "
                f"< var({mode})={var[mode]:.3e} - 2se({se[mode]:.1e})")
    report(11, "var(both_random) >= each single-mode variance - 2 bootstrap SE, "
               "k=20, 5 repetitions")


# -- 12: baseline resolution oracle ------------------------------------------------


def test_c12_energy_scale_baseline_matches_analytic_resolution():
    quiet = GeneratorConfig(resolution_a=0.0, noise_b=0.0)
    clean = generate_dataset(quiet, 10_000, seed=31)
    assert baseline_loss(clean, clean, "energy") < 1e-6

    noisy_cfg = GeneratorConfig()
    train = generate_dataset(noisy_cfg, 10_000, seed=33)
    test = generate_dataset(noisy_cfg, 10_000, seed=34)
    scale = fit_energy_scale(train)
    pred = predict_energy(scale, test.clusters)
    rel = pred / test.energy - 1.0

    def analytic(energies):
        return math.sqrt(float(np.mean(
            noisy_cfg.resolution_a ** 2 / energies + noisy_cfg.noise_b ** 2)))

    overall = math.sqrt(float(np.mean(rel ** 2)))
    assert abs(overall - analytic(test.energy)) <= 0.10 * analytic(test.energy)

    # the curve: four energy quartile bins, each within 10% of its analytic value
    edges = np.quantile(test.energy, [0.0, 0.25, 0.5, 0.75, 1.0])
    for lo, hi in zip(edges[:-1], edges[1:]):
        mask = (test.energy >= lo) & (test.energy <= hi)
        got = math.sqrt(float(np.mean(rel[mask] ** 2)))
        want = analytic(test.energy[mask])
        assert abs(got - want) <= 0.10 * want, (lo, hi, got, want)

    report(12, f"noiseless rel RMSE < 1e-6; noisy {overall:.4f} vs analytic "
               f"{analytic(test.energy):.4f}, all 4 bins within 10%")


# -- 13: determinism ---------------------------------------------------------------


def read_all(out_dir):
    out = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            out[name] = fh.read()
    return out


def run_cli(tmp_path, label, argv, expect=0):
    out = tmp_path / label
    out.mkdir()
    rc = main(argv + ["--out", str(out)])
    assert rc == expect, f"{label}: exit code {rc}"
    return read_all(str(out))


def test_c13_stored_configs_rerun_bitwise_identical(tmp_path):
    spec = tiny_spec("det")
    stop = {"min_epochs": 1, "window": 1, "threshold": 0.5, "hard_cap": 2}

    def write_cfg(name, body):
        path = tmp_path / name
        path.write_text(yaml.safe_dump(body))
        return str(path)

    data_dir = tmp_path / "data"
    data_dir.mkdir()
    for fname, n, seed in (("train.rlab", 64, 5), ("test.rlab", 48, 6)):
        cfg = write_cfg(f"gen-{fname}.yaml", {
            "command": "gen-data", "n": n, "seed": seed, "filename": fname})
        a = run_cli(tmp_path, f"gen-a-{fname}", ["gen-data", "--config", cfg])
        b = run_cli(tmp_path, f"gen-b-{fname}", ["gen-data", "--config", cfg])
        assert a == b
        (data_dir / fname).write_bytes(a[fname])
    train_path, test_path = str(data_dir / "train.rlab"), str(data_dir / "test.rlab")

    configs = {
        "train": {
            "command": "train", "spec": spec.to_dict(), "init_seed": 4,
            "train_data": train_path, "test_data": test_path, "stop": stop,
        },
        "robustness": {
            "command": "robustness", "spec": spec.to_dict(), "k": 2,
            "mode": "both_random", "sample_size": 32, "base_seed": 3,
            "train_data": train_path, "test_data": test_path, "stop": stop,
        },
        "select": {
            "command": "select", "k": 5,
            "specs": [tiny_spec(f"m{i}").to_dict() for i in range(3)],
            "trainer": {"kind": "mock",
                        "losses": {"m0": 0.2, "m1": 0.5, "m2": 0.9}},
            "policy": {"kind": "halving"}, "criterion": {"kind": "mean"},
        },
        "sweep": {
            "command": "sweep", "spec": spec.to_dict(), "k": 2,
            "sizes": [16, 32], "base_seed": 7,
            "train_data": train_path, "test_data": test_path, "stop": stop,
        },
    }

    produced = {}
    for command, body in configs.items():
        cfg = write_cfg(f"{command}.yaml", body)
        first = run_cli(tmp_path, f"{command}-w1a", [command, "--config", cfg, "--workers", "1"])
        again = run_cli(tmp_path, f"{command}-w1b", [command, "--config", cfg, "--workers", "1"])
        wide = run_cli(tmp_path, f"{command}-w2", [command, "--config", cfg, "--workers", "2"])
        assert first == again, f"{command}: rerun differs"
        assert first == wide, f"{command}: worker count changed the output"
        produced[command] = sorted(first)

    # the report command, fed by the robustness run above
    records = tmp_path / "robustness-w1a" / "records.jsonl"
    cfg = write_cfg("report.yaml", {"command": "report", "records": str(records)})
    first = run_cli(tmp_path, "report-a", ["report", "--config", cfg])
    again = run_cli(tmp_path, "report-b", ["report", "--config", cfg])
    assert first == again
    produced["report"] = sorted(first)

    total = sum(len(v) for v in produced.values())
    report(13, f"5 commands, {total} report files, bitwise-identical across "
               f"reruns and worker counts 1 and 2")
