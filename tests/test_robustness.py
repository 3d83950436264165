"""Ensemble statistics, randomization modes, and budgeted selection."""

import math
import multiprocessing
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

import rlab.robustness
from hypothesis import assume, given, settings, strategies as st

from rlab.calo import GeneratorConfig, generate_dataset
from rlab.cli import _per_call
from rlab.errors import ContractError
from rlab.nn import ModelSpec
from rlab.optim import OptimizerConfig
from rlab.robustness import (
    STAT_KEYS,
    BaselineGatePolicy,
    HalvingPolicy,
    InstanceRunner,
    RobustnessRecord,
    SelectionCriterion,
    criterion_study,
    ecdf,
    robustness_statistic,
    run_instances,
    sample_size_sweep,
    select_models,
    summary_statistics,
)
from rlab.training import EarlyStopConfig, TrainedInstance, openblas_thread_controls


def crit(kind, q=None):
    return SelectionCriterion(kind=kind, quantile=q)


# a loss: any real, or diverged (+inf); the sampled values make ties likely
LOSS = st.one_of(st.floats(-1e6, 1e6), st.sampled_from([0.0, 0.1, 0.25, 1.0, math.inf]))


@st.composite
def loss_rows(draw):
    """Rows of equally many losses, sometimes with one row of identical entries."""
    n = draw(st.integers(1, 14))
    rows = draw(st.lists(st.lists(LOSS, min_size=n, max_size=n), min_size=1, max_size=8))
    if draw(st.booleans()):
        rows.insert(draw(st.integers(0, len(rows))), [draw(LOSS)] * n)
    return rows


def criteria():
    p = st.one_of(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
                  st.sampled_from([1e-12, 0.25, 0.5, 0.75, 1.0 - 1e-12]))
    return st.one_of(st.sampled_from(["mean", "median", "min", "max", "std"]).map(crit),
                     p.map(lambda q: crit("quantile", q)))


class TestStatistics:
    def test_mean_of_123(self):
        assert robustness_statistic([1.0, 2.0, 3.0], crit("mean")) == 2.0

    def test_diverged_instance_dominates_max_and_mean(self):
        losses = [1.0, 2.0, math.inf]
        assert robustness_statistic(losses, crit("max")) == math.inf
        assert robustness_statistic(losses, crit("mean")) == math.inf
        assert robustness_statistic(losses, crit("median")) == 2.0
        assert robustness_statistic(losses, crit("min")) == 1.0
        assert robustness_statistic(losses, crit("std")) == math.inf

    def test_constant_losses_have_zero_std(self):
        assert robustness_statistic([0.7, 0.7, 0.7], crit("std")) == 0.0

    def test_quantile_bounds_are_open(self):
        assert robustness_statistic([1.0, 3.0], crit("quantile", 0.5)) == 2.0
        for p in (0.0, 1.0, -0.2, 1.5, None):
            with pytest.raises(ContractError):
                robustness_statistic([1.0], crit("quantile", p))

    def test_quantile_param_only_for_quantile(self):
        with pytest.raises(ContractError):
            robustness_statistic([1.0], crit("mean", 0.5))

    def test_empty_and_nan_rejected(self):
        for bad in ([], [1.0, math.nan], [1.0, -math.inf], [[1.0, 2.0]]):
            with pytest.raises(ContractError):
                summary_statistics(bad)
        # robustness_statistic also takes rows of losses, but not an empty row or a cube
        for bad in ([], [1.0, math.nan], [1.0, -math.inf], [[]], [[1.0], [math.nan]],
                    [[[1.0, 2.0]]]):
            with pytest.raises(ContractError):
                robustness_statistic(bad, crit("mean"))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ContractError):
            robustness_statistic([1.0], crit("mode"))

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=15), st.randoms())
    @settings(max_examples=60)
    def test_reordering_changes_nothing(self, losses, rnd):
        shuffled = losses[:]
        rnd.shuffle(shuffled)
        for c in (crit("mean"), crit("median"), crit("min"), crit("max"),
                  crit("std"), crit("quantile", 0.3)):
            assert robustness_statistic(losses, c) == pytest.approx(
                robustness_statistic(shuffled, c), rel=1e-12, abs=1e-12
            )

    @given(st.lists(st.floats(0.0, 1e6), min_size=1, max_size=20))
    @settings(max_examples=60)
    def test_statistic_brackets(self, losses):
        lo = robustness_statistic(losses, crit("min"))
        hi = robustness_statistic(losses, crit("max"))
        for kind in ("mean", "median"):
            mid = robustness_statistic(losses, crit(kind))
            assert lo - 1e-9 <= mid <= hi + 1e-9

    def test_one_diverged_instance(self):
        losses = [0.2, 0.3, 0.4, 0.5, math.inf]
        s = summary_statistics(losses)
        assert s["q1"] == 0.3 and s["median"] == 0.4 and s["q3"] == 0.5
        assert s["iqr"] == pytest.approx(0.2)
        assert s["whisker_lo"] == 0.2 and s["whisker_hi"] == 0.5
        assert s["outliers"] == [math.inf]
        assert robustness_statistic(losses, crit("quantile", 0.75)) == 0.5
        assert robustness_statistic([1.0, math.inf], crit("median")) == math.inf
        assert summary_statistics([1.0, math.inf])["median"] == math.inf

    def test_all_diverged_has_zero_iqr(self):
        s = summary_statistics([math.inf] * 3)
        assert s["q1"] == s["median"] == s["q3"] == math.inf
        assert s["iqr"] == 0.0 and s["outliers"] == []

    @given(st.lists(st.floats(0.0, 100.0), max_size=12), st.integers(0, 5),
           st.floats(0.01, 0.99))
    @settings(max_examples=200)
    def test_diverged_instances_give_no_nan(self, finite, n_inf, p):
        assume(finite or n_inf)
        losses = finite + [math.inf] * n_inf
        s = summary_statistics(losses)
        values = [v for k, v in s.items() if k != "outliers"] + s["outliers"]
        assert not any(math.isnan(v) for v in values), s
        assert s["whisker_lo"] <= s["whisker_hi"]
        for c in (crit("mean"), crit("median"), crit("min"), crit("max"),
                  crit("std"), crit("quantile", p)):
            assert not math.isnan(robustness_statistic(losses, c))
        for q, key in ((0.25, "q1"), (0.5, "median"), (0.75, "q3")):
            assert repr(robustness_statistic(losses, crit("quantile", q))) == repr(s[key])
            if n_inf == 0:
                assert repr(float(np.quantile(losses, q))) == repr(s[key])

    @given(loss_rows(), criteria())
    @settings(max_examples=400, deadline=None)
    def test_rows_score_as_each_row_alone(self, rows, criterion):
        scores = robustness_statistic(np.array(rows), criterion)
        assert isinstance(scores, np.ndarray) and scores.shape == (len(rows),)
        assert [repr(float(v)) for v in scores] == [
            repr(robustness_statistic(row, criterion)) for row in rows]

    def test_rows_hand_examples(self):
        rows = [[0.5, 0.5, 0.5], [1.0, 2.0, math.inf], [math.inf] * 3, [3.0, 1.0, 2.0]]
        want = {"mean": [0.5, math.inf, math.inf, 2.0],
                "median": [0.5, 2.0, math.inf, 2.0],
                "std": [0.0, math.inf, 0.0, math.sqrt(2 / 3)],
                "quantile": [0.5, 1.5, math.inf, 1.5]}
        for kind, expected in want.items():
            c = crit(kind, 0.25 if kind == "quantile" else None)
            assert robustness_statistic(np.array(rows), c).tolist() == expected, kind

    def test_summary_matches_numpy(self):
        losses = [0.4, 1.1, 0.9, 2.5, 0.7]
        s = summary_statistics(losses)
        assert s["mean"] == pytest.approx(np.mean(losses))
        assert s["median"] == pytest.approx(np.median(losses))
        assert s["std"] == pytest.approx(np.std(losses))
        assert s["q1"] == pytest.approx(np.quantile(losses, 0.25))
        assert s["q3"] == pytest.approx(np.quantile(losses, 0.75))
        assert s["iqr"] == pytest.approx(s["q3"] - s["q1"])

    def test_median_criterion_is_the_reported_median(self):
        # np.median gives 1.1462379128471094 here, the reported median ...096
        losses = [1.9698552922037085, 0.3226205334905105, 0.2916744116774755,
                  7.0529432401897525]
        reported = summary_statistics(losses)["median"]
        assert repr(reported) == "1.1462379128471096"
        assert repr(robustness_statistic(losses, crit("median"))) == repr(reported)
        assert robustness_statistic(np.array([losses]), crit("median")).tolist() == [reported]


class TestBoxplot:
    def test_hand_example_with_outlier(self):
        box = summary_statistics([1.0, 2.0, 3.0, 4.0, 100.0])
        assert box["q1"] == 2.0 and box["median"] == 3.0 and box["q3"] == 4.0
        assert box["whisker_lo"] == 1.0
        assert box["whisker_hi"] == 4.0
        assert box["outliers"] == [100.0]
        assert box["min"] == 1.0 and box["max"] == 100.0 and box["n"] == 5

    def test_single_value_degenerates_to_point(self):
        box = summary_statistics([0.42])
        assert box["min"] == box["q1"] == box["median"] == box["q3"] == box["max"] == 0.42
        assert box["whisker_lo"] == box["whisker_hi"] == 0.42
        assert box["outliers"] == []


def fake_instance(loss, init_seed=1, data_seed=None, diverged=False):
    return TrainedInstance(
        spec_id="x", spec_name="x", init_seed=init_seed, data_seed=data_seed,
        loss_trace=[loss], stop_epoch=1, final_test_loss=loss,
        diverged=diverged, wall_time=0.0,
    )


class TestRobustnessRecord:
    def test_append_only_accumulation(self):
        rec = RobustnessRecord(spec_id="s", spec_name="s", mode="both_random",
                               sample_size=10, base_seed=0)
        rec.add(fake_instance(1.0))
        rec.add(fake_instance(3.0, init_seed=2))
        assert rec.losses == (1.0, 3.0)
        assert isinstance(rec.losses, tuple)
        assert [p["index"] for p in rec.provenance] == [0, 1]
        summary = summary_statistics([1.0, 3.0])
        assert rec.statistics() == {key: summary[key] for key in STAT_KEYS}

    def test_constant_model_is_perfectly_robust(self):
        rec = RobustnessRecord(spec_id="s", spec_name="s", mode="fixed_data_random_init",
                               sample_size=10, base_seed=0)
        for seed in range(5):
            rec.add(fake_instance(0.9, init_seed=seed))
        assert rec.statistic(crit("std")) == 0.0

    def test_record_serializes(self):
        import json

        rec = RobustnessRecord(spec_id="s", spec_name="s", mode="both_random",
                               sample_size=10, base_seed=0)
        rec.add(fake_instance(1.0, diverged=False))
        json.dumps(rec.to_record())

    def test_record_keys_are_pinned(self):
        # records.jsonl is byte-compared: a field added to RobustnessRecord
        # must not reach it unnoticed
        rec = RobustnessRecord(spec_id="s", spec_name="s", mode="both_random",
                               sample_size=10, base_seed=0)
        rec.add(fake_instance(1.0, data_seed=4))
        record = rec.to_record()
        assert set(record) == {"spec_id", "spec_name", "mode", "sample_size", "base_seed",
                               "losses", "statistics", "provenance"}
        assert set(record["statistics"]) == set(STAT_KEYS)
        assert [set(p) for p in record["provenance"]] == [
            {"index", "init_seed", "data_seed", "stop_epoch", "diverged"}]


def tiny_spec(name="tiny"):
    return ModelSpec(
        name=name,
        conv_layers=((4, 3), (8, 3)),
        pool_layers=((2, 2), (2, 1)),
        fc_layers=(16, 1),
        activation="relu",
        optimizer=OptimizerConfig(kind="adam", learning_rate=1e-3),
        batch_size=32,
        target="energy",
    )


ONE_EPOCH = EarlyStopConfig(min_epochs=1, window=1, threshold=1e9, hard_cap=1)


@pytest.fixture(scope="module")
def pools():
    cfg = GeneratorConfig()
    return generate_dataset(cfg, 64, seed=900), generate_dataset(cfg, 48, seed=901)


class TestRunInstances:
    def test_deterministic(self, pools):
        pool, test = pools
        a = run_instances(tiny_spec(), 2, pool, test, base_seed=5, stop=ONE_EPOCH)
        b = run_instances(tiny_spec(), 2, pool, test, base_seed=5, stop=ONE_EPOCH)
        assert a.losses == b.losses
        assert a.to_record() == b.to_record()

    def test_fixed_data_shares_one_bootstrap_draw(self, pools):
        pool, test = pools
        rec = run_instances(tiny_spec(), 3, pool, test,
                            mode="fixed_data_random_init", base_seed=1, stop=ONE_EPOCH)
        data_seeds = {p["data_seed"] for p in rec.provenance}
        init_seeds = {p["init_seed"] for p in rec.provenance}
        assert len(data_seeds) == 1
        assert len(init_seeds) == 3

    def test_fixed_init_varies_only_data(self, pools):
        pool, test = pools
        rec = run_instances(tiny_spec(), 3, pool, test,
                            mode="random_data_fixed_init", base_seed=1, stop=ONE_EPOCH)
        assert len({p["data_seed"] for p in rec.provenance}) == 3
        assert len({p["init_seed"] for p in rec.provenance}) == 1

    def test_both_random_varies_both(self, pools):
        pool, test = pools
        rec = run_instances(tiny_spec(), 3, pool, test,
                            mode="both_random", base_seed=1, stop=ONE_EPOCH)
        assert len({p["data_seed"] for p in rec.provenance}) == 3
        assert len({p["init_seed"] for p in rec.provenance}) == 3

    def test_bad_arguments(self, pools):
        pool, test = pools
        with pytest.raises(ContractError):
            run_instances(tiny_spec(), 0, pool, test)
        with pytest.raises(ContractError):
            run_instances(tiny_spec(), 1, pool, test, mode="sideways")

    def test_runner_forks_its_workers_up_front_and_reaps_them(self, pools):
        pool, test = pools
        tasks = [(tiny_spec(), 32, seed, seed + 1, ONE_EPOCH) for seed in (3, 5, 7)]
        with InstanceRunner(pool, test) as serial:
            expected = [inst.to_record() for inst in serial.train(tasks)]
        assert multiprocessing.active_children() == []
        with InstanceRunner(pool, test, workers=2) as runner:
            # forked before any caller thread could start, not at the first task
            assert len(multiprocessing.active_children()) == 2
            got = [inst.to_record() for inst in runner.train(tasks)]
        assert multiprocessing.active_children() == []
        assert got == expected

    @pytest.mark.skipif(not (openblas_thread_controls() and os.path.isdir("/proc/self/task")),
                        reason="needs OpenBLAS's thread-count functions and /proc")
    def test_workers_train_on_the_one_thread_they_inherit(self, pools, monkeypatch):
        # OpenBLAS ends its thread pool at fork; setting the count in a worker
        # would start it again
        controls = openblas_thread_controls()
        saved = [get() for _, get, _ in controls]
        monkeypatch.setitem(_PROBE, "barrier", multiprocessing.get_context("fork").Barrier(2))
        monkeypatch.setattr(rlab.robustness, "_worker_task", _task_then_threads)
        tasks = [(tiny_spec(), 32, seed, seed + 1, ONE_EPOCH) for seed in (3, 5)]
        try:
            for _, _, set_ in controls:
                set_(2)
            with InstanceRunner(*pools, workers=2) as runner:
                probes = list(runner.train(tasks))
            assert len({pid for pid, _, _ in probes}) == 2
            assert [probe[1:] for probe in probes] == [(1, [1] * len(controls))] * 2
            assert [get() for _, get, _ in controls] == [2] * len(controls)
        finally:
            for (_, _, set_), count in zip(controls, saved):
                set_(count)

    def test_sample_size_recorded(self, pools):
        pool, test = pools
        rec = run_instances(tiny_spec(), 1, pool, test, sample_size=20,
                            base_seed=1, stop=ONE_EPOCH)
        assert rec.sample_size == 20


# state a runner's workers inherit at fork: set by a test before it forks them
_PROBE = {}


def _task_then_threads(args: tuple) -> tuple:
    """A worker's task that trains, waits until every worker has trained,
    then returns (pid, its thread count, each OpenBLAS's thread count)."""
    rlab.robustness._train_task(*rlab.robustness._worker_data, *args)
    _PROBE["barrier"].wait(timeout=60)
    return (os.getpid(), len(os.listdir("/proc/self/task")),
            [get() for _, get, _ in openblas_thread_controls()])


class FixedTrainer:
    """Deterministic mock: every instance of a spec costs one call, same loss."""

    def __init__(self, table):
        self.table = table
        self.calls = []

    def __call__(self, spec, round_index, seed):
        self.calls.append((spec.name, round_index, seed))
        return self.table[spec.name]


def threaded_round(work, workers):
    """A round function: each call's work runs on one of `workers` threads,
    and once every call has ended the losses come in call order, a failed
    call's exception at that call."""
    def round_losses(calls):
        with ThreadPoolExecutor(workers) as threads:
            return threads.map(work, *zip(*calls))
    return round_losses


def finishing_in_turn(work, turns):
    """A round function: each call's work runs on a thread of its own, the
    threads finish in the order turns(number of calls) gives, and then the
    losses are handed on in call order, a failed call's exception at that call."""
    def round_losses(calls):
        turn = turns(len(calls))
        ended = [threading.Event() for _ in calls]
        finished = []       # (call position, loss or exception), in completion order

        def run(k, i):
            if k:
                ended[turn[k - 1]].wait(timeout=30)
            try:
                finished.append((i, work(*calls[i])))
            except ContractError as e:
                finished.append((i, e))
            ended[i].set()

        threads = [threading.Thread(target=run, args=(k, i)) for k, i in enumerate(turn)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return map(loss_or_raise, sorted(finished, key=lambda f: f[0]))
    return round_losses


def loss_or_raise(finished: tuple):
    _, outcome = finished
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


@st.composite
def tournaments(draw):
    """(spec count, max_rounds, losses[spec][round - 1], {spec: round it
    fails in}, policy): failures and ties are likely."""
    n = draw(st.integers(2, 12))
    max_rounds = draw(st.integers(1, 5))
    losses = draw(st.lists(st.lists(LOSS, min_size=max_rounds, max_size=max_rounds),
                           min_size=n, max_size=n))
    fails = draw(st.dictionaries(st.integers(0, n - 1), st.integers(1, max_rounds),
                                 max_size=3))
    policy = draw(st.one_of(
        st.integers(1, 3).map(HalvingPolicy),
        st.builds(BaselineGatePolicy, st.floats(0.01, 10.0), st.floats(0.0, 1.0))))
    return n, max_rounds, losses, fails, policy


def selection_outcome(run) -> tuple:
    """(winner names, ledger record), or the message of the failure raised."""
    try:
        winners, ledger = run()
    except ContractError as e:
        return str(e)
    return [w.name for w in winners], ledger.to_record()


class TestSelection:
    def make_specs(self, names):
        return [tiny_spec(name=n) for n in names]

    def test_deterministic_ordering_wins(self):
        specs = self.make_specs(["A", "B", "C"])
        trainer = FixedTrainer({"A": 1.0, "B": 2.0, "C": 3.0})
        winners, ledger = select_models(specs, crit("mean"),
                                        policy=HalvingPolicy(), trainer=trainer)
        assert [w.name for w in winners] == ["A"]
        assert not ledger.tie
        assert ledger.cumulative_trainings == 3
        assert ledger.rounds[0].survivors_before == 3
        assert len(ledger.rounds[0].removed) == 2

    def test_one_scoring_call_per_round(self, monkeypatch):
        # looked up through the module on every round, so a wrapper sees each call
        calls = []

        def counting(losses, criterion):
            calls.append(np.shape(losses))
            return robustness_statistic(losses, criterion)

        monkeypatch.setattr(rlab.robustness, "robustness_statistic", counting)
        names = [f"s{i:02d}" for i in range(20)]
        trainer = FixedTrainer({n: float(i % 7) for i, n in enumerate(names)})
        _, ledger = select_models(self.make_specs(names), crit("median"),
                                  policy=HalvingPolicy(), trainer=trainer)
        assert calls == [(r.survivors_before, r.index) for r in ledger.rounds]

    def test_ledger_conservation(self):
        specs = self.make_specs(["A", "B", "C", "D", "E"])
        trainer = FixedTrainer({n: i + 1.0 for i, n in enumerate("ABCDE")})
        _, ledger = select_models(specs, crit("mean"),
                                  policy=HalvingPolicy(), trainer=trainer)
        assert ledger.cumulative_trainings == sum(ledger.instance_counts.values())
        counts = [r.survivors_before for r in ledger.rounds]
        assert counts == sorted(counts, reverse=True)

    def test_halving_budget_on_64_specs(self):
        names = [f"s{i:02d}" for i in range(64)]
        specs = self.make_specs(names)
        trainer = FixedTrainer({n: float(i) for i, n in enumerate(names)})
        winners, ledger = select_models(specs, crit("mean"),
                                        policy=HalvingPolicy(), trainer=trainer)
        assert [w.name for w in winners] == ["s00"]
        assert len(ledger.rounds) == 6         # 64->32->16->8->4->2->1
        assert ledger.cumulative_trainings == 64 + 32 + 16 + 8 + 4 + 2
        assert ledger.cumulative_trainings < 64 * 50

    def test_halving_tie_removes_later_specs_first(self):
        specs = self.make_specs(["A", "B", "C", "D"])
        trainer = FixedTrainer({n: 5.0 for n in "ABCD"})
        winners, ledger = select_models(specs, crit("mean"),
                                        policy=HalvingPolicy(), trainer=trainer)
        assert [w.name for w in winners] == ["A"]
        assert set(ledger.rounds[0].removed) == {s.spec_id() for s in specs[2:]}

    def test_all_removed_rolls_back_with_tie(self):
        specs = self.make_specs(["A", "B"])
        trainer = FixedTrainer({"A": 10.0, "B": 10.0})
        policy = BaselineGatePolicy(reference_loss=1.0)
        winners, ledger = select_models(specs, crit("mean"),
                                        policy=policy, trainer=trainer)
        assert ledger.tie
        assert {w.name for w in winners} == {"A", "B"}
        assert ledger.rounds[0].rolled_back
        assert ledger.rounds[0].removed == ()

    def test_max_rounds_cap_leaves_tie(self):
        specs = self.make_specs(["A", "B", "C"])
        trainer = FixedTrainer({"A": 1.0, "B": 2.0, "C": 3.0})
        winners, ledger = select_models(specs, crit("mean"),
                                        policy=HalvingPolicy(start_round=99),
                                        trainer=trainer, max_rounds=4)
        assert len(winners) == 3
        assert ledger.tie
        assert len(ledger.rounds) == 4
        assert all(c == 4 for c in ledger.instance_counts.values())

    def test_single_spec_needs_no_training(self):
        specs = self.make_specs(["A"])
        trainer = FixedTrainer({"A": 1.0})
        winners, ledger = select_models(specs, crit("mean"),
                                        policy=HalvingPolicy(), trainer=trainer)
        assert [w.name for w in winners] == ["A"]
        assert ledger.cumulative_trainings == 0
        assert not ledger.tie

    def test_duplicate_specs_rejected(self):
        spec = tiny_spec("A")
        with pytest.raises(ContractError):
            select_models([spec, spec], crit("mean"),
                          policy=HalvingPolicy(), trainer=FixedTrainer({"A": 1.0}))

    def test_noisy_selection_favors_true_best(self):
        mu = {"A": 1.0, "B": 1.3, "C": 1.6}     # 3 sigma apart at sigma=0.1
        specs = self.make_specs(["A", "B", "C"])
        wins = 0
        for rep in range(40):
            def trainer(spec, round_index, seed):
                return float(np.random.default_rng(seed).normal(mu[spec.name], 0.1))

            winners, _ = select_models(specs, crit("mean"),
                                       policy=HalvingPolicy(), trainer=trainer,
                                       base_seed=rep)
            if [w.name for w in winners] == ["A"]:
                wins += 1
        assert wins >= 36

    def test_max_criterion_rejects_rare_blowups_at_closed_form_rate(self):
        # risky spec blows up with probability p per instance; under the max
        # statistic it survives only if no blowup appears among its k draws
        p, k, reps = 0.3, 5, 200
        specs = self.make_specs(["steady", "risky"])
        rejected = 0
        for rep in range(reps):
            def trainer(spec, round_index, seed):
                if spec.name == "steady":
                    return 1.0
                rng = np.random.default_rng(seed)
                return 100.0 if rng.uniform() < p else 0.5

            winners, _ = select_models(specs, crit("max"),
                                       policy=HalvingPolicy(start_round=k),
                                       trainer=trainer, base_seed=10_000 + rep)
            if [w.name for w in winners] == ["steady"]:
                rejected += 1
        expected = 1.0 - (1.0 - p) ** k
        assert abs(rejected / reps - expected) < 0.08

    def test_workers_run_a_round_side_by_side_with_the_serial_outcome(self):
        names = [f"s{i}" for i in range(8)]
        specs = self.make_specs(names)
        table = {n: 1.0 + (i * 7 % 8) for i, n in enumerate(names)}
        serial = FixedTrainer(table)
        expected = select_models(specs, crit("mean"), policy=HalvingPolicy(), trainer=serial)
        pairs = threading.Barrier(2, timeout=30)    # each call waits for a second one

        def paired(spec, round_index, seed):
            pairs.wait()
            return table[spec.name]

        trainer, begin_round = _per_call(threaded_round(paired, workers=2))
        winners, ledger = select_models(specs, crit("mean"), policy=HalvingPolicy(),
                                        trainer=trainer, begin_round=begin_round)
        assert (winners, ledger.to_record()) == (expected[0], expected[1].to_record())
        assert ledger.cumulative_trainings == 8 + 4 + 2

    def test_first_failure_in_survivor_order_is_raised(self):
        specs = self.make_specs(["A", "B", "C", "D"])
        c_failed = threading.Event()

        def trainer(spec, round_index, seed):
            if spec.name == "B":
                if workers > 1:
                    c_failed.wait(timeout=30)
                raise ContractError("B failed")
            if spec.name == "C":
                c_failed.set()
                raise ContractError("C failed")
            return 1.0

        for workers in (1, 2):
            c_failed.clear()
            per_call, begin_round = _per_call(threaded_round(trainer, workers))
            with pytest.raises(ContractError, match="B failed"):
                select_models(specs, crit("mean"), policy=HalvingPolicy(), trainer=per_call,
                              begin_round=begin_round)

    @settings(derandomize=True, max_examples=80, deadline=None)
    @given(tournaments(), criteria(), st.randoms(use_true_random=False))
    def test_rounds_finishing_in_any_order_keep_the_serial_outcome(self, tournament,
                                                                   criterion, rnd):
        n, max_rounds, losses, fails, policy = tournament
        specs = self.make_specs([f"s{i}" for i in range(n)])

        def work(spec, round_index, seed):
            i = int(spec.name[1:])
            if fails.get(i) == round_index:
                raise ContractError(f"{spec.name} failed in round {round_index}")
            return losses[i][round_index - 1]

        serial = selection_outcome(lambda: select_models(
            specs, criterion, policy, trainer=work, max_rounds=max_rounds))
        trainer, begin_round = _per_call(finishing_in_turn(
            work, lambda calls: rnd.sample(range(calls), calls)))
        assert selection_outcome(lambda: select_models(
            specs, criterion, policy, trainer=trainer, max_rounds=max_rounds,
            begin_round=begin_round)) == serial

    def test_validation(self):
        trainer = FixedTrainer({"A": 1.0, "B": 2.0})
        with pytest.raises(ContractError):
            select_models([], crit("mean"), policy=HalvingPolicy(), trainer=trainer)
        with pytest.raises(ContractError):
            HalvingPolicy(start_round=0)
        with pytest.raises(ContractError):
            BaselineGatePolicy(reference_loss=0.0)
        with pytest.raises(ContractError):
            BaselineGatePolicy(reference_loss=1.0, margin=-0.1)


class TestBaselineGatePolicy:
    def test_first_round_gate_example(self):
        policy = BaselineGatePolicy(reference_loss=0.05)
        removed = policy.removals(1, [0.055, 0.061, 0.10])
        assert removed == [1, 2]

    def test_gate_is_strict(self):
        policy = BaselineGatePolicy(reference_loss=0.05)
        exactly_at_gate = (1.0 + policy.margin) * 0.05
        assert policy.removals(1, [exactly_at_gate]) == []

    def test_later_rounds_halve(self):
        policy = BaselineGatePolicy(reference_loss=0.05)
        assert len(policy.removals(2, [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0])) == 4
        assert policy.removals(3, [1.0]) == []


class TestCriterionStudy:
    def test_identical_models_give_single_step(self):
        curves = criterion_study([[0.5, 0.7]] * 4, [crit("mean"), crit("max")])
        for _, xs, fs in curves.values():
            assert np.all(xs == xs[0])
            assert fs[-1] == 1.0

    def test_max_curve_sits_right_of_mean_curve(self):
        rng = np.random.default_rng(8)
        loss_sets = [list(rng.uniform(0.1, 1.0, size=6)) for _ in range(12)]
        curves = criterion_study(loss_sets, [crit("mean"), crit("max")])
        _, xs_mean, _ = curves["mean"]
        _, xs_max, _ = curves["max"]
        assert np.all(xs_max >= xs_mean)

    def test_three_model_brute_force(self):
        curves = criterion_study([[1.0, 3.0], [2.0, 2.0], [5.0, 1.0]], [crit("mean")])
        values, xs, fs = curves["mean"]
        assert values == [2.0, 2.0, 3.0]
        assert list(xs) == [2.0, 2.0, 3.0]
        assert list(fs) == pytest.approx([1 / 3, 2 / 3, 1.0])

    def test_quantile_label(self):
        curves = criterion_study([[1.0]], [crit("quantile", 0.9)])
        assert "quantile(0.9)" in curves

    def test_empty_inputs_rejected(self):
        with pytest.raises(ContractError):
            criterion_study([], [crit("mean")])
        with pytest.raises(ContractError):
            ecdf([])


class TestSampleSizeSweep:
    def test_rows_and_determinism(self, pools):
        pool, test = pools
        rows = sample_size_sweep(tiny_spec(), k=2,
                                 train_pool=pool, test_pool=test,
                                 base_seed=3, stop=ONE_EPOCH, sizes=[24, 48])
        again = sample_size_sweep(tiny_spec(), k=2,
                                  train_pool=pool, test_pool=test,
                                  base_seed=3, stop=ONE_EPOCH, sizes=[24, 48])
        assert [r["n"] for r in rows] == [24, 48]
        assert all(len(r["losses"]) == 2 for r in rows)
        assert rows == again

    def test_k1_box_degenerates(self, pools):
        pool, test = pools
        rows = sample_size_sweep(tiny_spec(), k=1,
                                 train_pool=pool, test_pool=test,
                                 base_seed=3, stop=ONE_EPOCH, sizes=[16])
        box = rows[0]["box"]
        assert box["min"] == box["median"] == box["max"]
        assert box["outliers"] == []
