"""Losses, stop rule, and the single-instance trainer."""

import json
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rlab.training
from rlab.calo import GeneratorConfig, generate_dataset
from rlab.errors import ContractError
from rlab.nn import Model, ModelSpec
from rlab.optim import OptimizerConfig
from rlab.seeding import substream
from rlab.tensor import Tensor
from rlab.training import (
    EVAL_BATCH,
    EarlyStopConfig,
    constant_predictor_loss,
    evaluate,
    evaluate_on,
    fit,
    loss_value,
    openblas_thread_controls,
    prepare_arrays,
    relative_rmse,
    rmse_coordinate,
    should_stop,
    train_instance,
)


def tiny_spec(target="energy", optimizer=None, batch_size=32, aux="none"):
    # 15 -> 13 -> pool 6 -> 4 -> pool 3; flatten 8*9 = 72
    return ModelSpec(
        name="tiny",
        conv_layers=((4, 3), (8, 3)),
        pool_layers=((2, 2), (2, 1)),
        fc_layers=(16, 1),
        activation="relu",
        optimizer=optimizer or OptimizerConfig(kind="adam", learning_rate=1e-3),
        batch_size=batch_size,
        target=target,
        aux=aux,
    )


class TestMetrics:
    def test_relative_rmse_hand_value(self):
        # ratios 1.5 and 2.0 give squared relative errors 0.25 and 1.0
        got = relative_rmse(np.array([1.5, 8.0]), np.array([1.0, 4.0]))
        assert got == pytest.approx(0.7905694150420949, abs=1e-15)

    def test_rmse_hand_value(self):
        got = rmse_coordinate(np.array([3.0, -4.0]), np.array([0.0, 0.0]))
        assert got == pytest.approx(math.sqrt(12.5), abs=1e-15)

    def test_perfect_prediction_is_zero(self):
        t = np.array([2.0, 5.0, 9.0])
        assert relative_rmse(t, t) == 0.0
        assert rmse_coordinate(t, t) == 0.0

    def test_zero_truth_rejected(self):
        with pytest.raises(ContractError):
            relative_rmse(np.array([1.0]), np.array([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            relative_rmse(np.ones(3), np.ones(4))
        with pytest.raises(ContractError):
            rmse_coordinate(np.ones(3), np.ones(4))

    def test_loss_value_dispatch(self):
        pred = np.array([2.0, 4.0])
        truth = np.array([1.0, 5.0])
        assert loss_value("energy", pred, truth) == relative_rmse(pred, truth)
        assert loss_value("position_x", pred, truth) == rmse_coordinate(pred, truth)

    @given(
        st.lists(st.floats(0.5, 100.0), min_size=2, max_size=20),
        st.floats(0.01, 1000.0),
    )
    def test_relative_loss_scale_invariant(self, truth, k):
        t = np.array(truth)
        p = t * 1.3
        assert relative_rmse(k * p, k * t) == pytest.approx(relative_rmse(p, t), rel=1e-9)

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=20),
        st.floats(-100.0, 100.0),
    )
    def test_absolute_loss_shift_invariant(self, truth, c):
        t = np.array(truth)
        p = t + 2.0
        assert rmse_coordinate(p + c, t + c) == pytest.approx(rmse_coordinate(p, t), abs=1e-9)


class TestConstantPredictor:
    def test_relative_hand_case(self):
        c, loss = constant_predictor_loss("energy", np.array([1.0, 2.0]))
        assert c == pytest.approx(1.2, abs=1e-15)
        assert loss == pytest.approx(math.sqrt(0.1), abs=1e-15)

    def test_absolute_is_mean_and_std(self):
        t = np.array([0.0, 2.0, 4.0])
        c, loss = constant_predictor_loss("position_x", t)
        assert c == pytest.approx(2.0)
        assert loss == pytest.approx(t.std())

    def test_relative_against_scalar_minimizer(self):
        # independent route: let scipy search for the best constant
        from scipy.optimize import minimize_scalar

        rng = np.random.default_rng(3)
        t = rng.uniform(1.0, 100.0, size=400)
        c, loss = constant_predictor_loss("energy", t)
        res = minimize_scalar(
            lambda v: relative_rmse(np.full_like(t, v), t), bounds=(0.1, 200.0), method="bounded"
        )
        assert c == pytest.approx(res.x, rel=1e-5)
        assert loss == pytest.approx(res.fun, rel=1e-9)
        assert loss <= res.fun + 1e-12

    def test_constant_is_local_minimum(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(-5.0, 5.0, size=200)
        c, loss = constant_predictor_loss("position_x", t)
        for bump in (1e-3, -1e-3):
            assert rmse_coordinate(np.full_like(t, c + bump), t) >= loss


class TestStopRule:
    def test_spread_in_recent_window_stops(self):
        trace = [1.0] * 99 + [1.15]
        assert should_stop(trace, EarlyStopConfig()) is True

    def test_flat_trace_keeps_going(self):
        assert should_stop([1.0] * 130, EarlyStopConfig()) is False

    def test_never_stops_before_min_epochs(self):
        trace = list(np.linspace(2.0, 0.5, 99))
        assert should_stop(trace, EarlyStopConfig()) is False

    def test_hard_cap_always_stops(self):
        trace = list(np.linspace(2.0, 0.5, 400))
        assert should_stop(trace, EarlyStopConfig()) is True

    def test_spread_is_strict(self):
        cfg = EarlyStopConfig(min_epochs=5, window=3, threshold=0.5, hard_cap=100)
        assert should_stop([1.0] * 9 + [1.5], cfg) is False
        assert should_stop([1.0] * 9 + [1.5000001], cfg) is True

    def test_only_recent_window_counts(self):
        trace = [1.0] * 70 + [5.0] + [1.0] * 59
        assert should_stop(trace, EarlyStopConfig()) is False

    def test_validation(self):
        for bad in (
            dict(window=0),
            dict(min_epochs=0),
            dict(threshold=-0.1),
            dict(min_epochs=50, hard_cap=49),
        ):
            with pytest.raises(ContractError):
                EarlyStopConfig(**bad)

    def test_round_trip(self):
        cfg = EarlyStopConfig(min_epochs=7, window=4, threshold=0.2, hard_cap=60)
        assert EarlyStopConfig(**cfg.to_dict()) == cfg

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=20, max_size=60),
        st.floats(0.0, 1.0),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60)
    def test_tighter_threshold_stops_no_later(self, trace, t1, t2):
        lo, hi = sorted((t1, t2))
        base = dict(min_epochs=10, window=8, hard_cap=1000)
        if should_stop(trace, EarlyStopConfig(threshold=hi, **base)):
            assert should_stop(trace, EarlyStopConfig(threshold=lo, **base))


@pytest.fixture(scope="module")
def small_sets():
    cfg = GeneratorConfig()
    return generate_dataset(cfg, 96, seed=101), generate_dataset(cfg, 64, seed=202)


class TestDataPlumbing:
    def test_shapes_per_aux_kind(self, small_sets):
        train, _ = small_sets
        for aux, width in (("none", 0), ("energy_sum", 1), ("barycenter", 2)):
            clusters, a, targets = prepare_arrays(tiny_spec(aux=aux), train)
            assert clusters.shape == (96, 1, 15, 15)
            assert targets.shape == (96,)
            if width == 0:
                assert a is None
            else:
                assert a.shape == (96, width)

    def test_energy_sum_column(self, small_sets):
        train, _ = small_sets
        _, a, _ = prepare_arrays(tiny_spec(aux="energy_sum"), train)
        assert np.array_equal(a[:, 0], train.clusters.sum(axis=(1, 2)))

    def test_target_switch(self, small_sets):
        train, _ = small_sets
        _, _, t_e = prepare_arrays(tiny_spec(target="energy"), train)
        _, _, t_x = prepare_arrays(tiny_spec(target="position_x"), train)
        assert np.array_equal(t_e, train.energy)
        assert np.array_equal(t_x, train.x)


class TestEvaluate:
    def test_matches_whole_batch_forward(self, small_sets):
        train, _ = small_sets
        spec = tiny_spec()
        model = Model(spec, init_seed=5)
        clusters, aux, targets = prepare_arrays(spec, train)
        chunked = evaluate(model, clusters, aux, targets)

        from rlab.tensor import Tensor

        preds = model.forward(Tensor(clusters)).data
        assert chunked == pytest.approx(loss_value("energy", preds, targets), rel=1e-9)

    def test_bitwise_repeatable_across_chunk_boundary(self):
        cfg = GeneratorConfig()
        ds = generate_dataset(cfg, EVAL_BATCH + 5, seed=7)
        spec = tiny_spec()
        model = Model(spec, init_seed=1)
        a = evaluate_on(model, ds)
        b = evaluate_on(model, ds)
        assert a == b

    def test_evaluate_on_equals_evaluate(self, small_sets):
        _, test = small_sets
        spec = tiny_spec()
        model = Model(spec, init_seed=2)
        assert evaluate_on(model, test) == evaluate(model, *prepare_arrays(spec, test))


class TestGraphFreeEvaluation:
    def test_records_no_graph_and_matches_graph_forward(self):
        ds = generate_dataset(GeneratorConfig(), EVAL_BATCH + 5, seed=7)
        spec = tiny_spec(aux="energy_sum")
        model = Model(spec, init_seed=4)
        clusters, aux, targets = prepare_arrays(spec, ds)
        forward, outputs = model.forward, []
        model.forward = lambda *args: outputs.append(forward(*args)) or outputs[-1]
        got = evaluate(model, clusters, aux, targets)
        assert len(outputs) == 2
        assert all(not out.requires_grad and out._parents == () for out in outputs)
        assert all(p.grad is None for p in model.parameters())

        graphed = [forward(Tensor(clusters[s:s + EVAL_BATCH]), Tensor(aux[s:s + EVAL_BATCH]))
                   for s in (0, EVAL_BATCH)]
        assert all(out.requires_grad for out in graphed)
        preds = np.concatenate([out.data for out in graphed])
        assert got == loss_value("energy", preds, targets)

    def test_evaluate_in_another_thread_leaves_fit_unchanged(self, small_sets):
        # the no-graph switch is per thread: a process-wide one would strip
        # the graph from fit's forward passes while the other thread evaluates
        train, test = small_sets
        spec = tiny_spec()
        stop = EarlyStopConfig(min_epochs=3, window=1, threshold=1e9, hard_cap=3)
        serial = train_instance(spec, train, test, init_seed=8, stop=stop).loss_trace
        other, arrays = Model(spec, init_seed=9), prepare_arrays(spec, test)
        done, evaluations = threading.Event(), []

        def evaluate_until_done():
            while not done.is_set():
                evaluations.append(evaluate(other, *arrays))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        worker = threading.Thread(target=evaluate_until_done)
        worker.start()
        try:
            threaded = train_instance(spec, train, test, init_seed=8, stop=stop).loss_trace
        finally:
            done.set()
            worker.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not worker.is_alive()
        assert len(evaluations) > 1
        assert threaded == serial


def _freeze_all_but_last_bias(model):
    for p in model.parameters():
        p.data[...] = 0.0
        p.requires_grad = False
    bias = model.fc_biases[-1]
    bias.requires_grad = True
    return bias


class TestConstantModelOracle:
    """A model whose only trainable weight is the output bias must converge to
    the closed-form best constant; this checks the whole fit loop end to end."""

    def test_energy_bias_reaches_constant_floor(self, small_sets):
        train, _ = small_sets
        spec = tiny_spec(optimizer=OptimizerConfig(kind="adam", learning_rate=0.1), batch_size=32)
        model = Model(spec, init_seed=0)
        _freeze_all_but_last_bias(model)
        arrays = prepare_arrays(spec, train)
        stop = EarlyStopConfig(min_epochs=150, window=10, threshold=1e9, hard_cap=150)
        trace, diverged = fit(model, arrays, arrays, stop, substream(0, "shuffle"), 32)
        assert not diverged
        assert len(trace) == 150
        _, floor = constant_predictor_loss("energy", arrays[2])
        assert floor - 1e-12 <= trace[-1] <= floor + 1e-3

    def test_position_bias_reaches_constant_floor(self, small_sets):
        train, _ = small_sets
        # full-batch steps so minibatch noise cannot hold the bias off the optimum
        spec = tiny_spec(
            target="position_x",
            optimizer=OptimizerConfig(kind="sgd", learning_rate=0.2),
            batch_size=96,
        )
        model = Model(spec, init_seed=0)
        _freeze_all_but_last_bias(model)
        arrays = prepare_arrays(spec, train)
        stop = EarlyStopConfig(min_epochs=60, window=10, threshold=1e9, hard_cap=60)
        trace, diverged = fit(model, arrays, arrays, stop, substream(0, "shuffle"), 96)
        assert not diverged
        _, floor = constant_predictor_loss("position_x", arrays[2])
        assert floor - 1e-12 <= trace[-1] <= floor + 1e-3


class TestTrainInstance:
    STOP = EarlyStopConfig(min_epochs=3, window=3, threshold=0.5, hard_cap=4)

    def test_deterministic_for_same_seed(self, small_sets):
        train, test = small_sets
        spec = tiny_spec()
        a = train_instance(spec, train, test, init_seed=9, stop=self.STOP)
        b = train_instance(spec, train, test, init_seed=9, stop=self.STOP)
        assert a.loss_trace == b.loss_trace
        assert a.final_test_loss == b.final_test_loss

    def test_init_seed_changes_outcome(self, small_sets):
        train, test = small_sets
        spec = tiny_spec()
        a = train_instance(spec, train, test, init_seed=9, stop=self.STOP)
        b = train_instance(spec, train, test, init_seed=10, stop=self.STOP)
        assert a.loss_trace != b.loss_trace

    def test_reported_loss_is_last_epoch(self, small_sets):
        train, test = small_sets
        inst = train_instance(tiny_spec(), train, test, init_seed=9, stop=self.STOP)
        assert inst.final_test_loss == inst.loss_trace[-1]
        assert inst.stop_epoch == len(inst.loss_trace)
        assert not inst.diverged

    def test_record_serializes_without_wall_time(self, small_sets):
        train, test = small_sets
        inst = train_instance(
            tiny_spec(), train, test, init_seed=9, stop=self.STOP, data_seed=7
        )
        rec = inst.to_record()
        assert "wall_time" not in rec
        assert rec["data_seed"] == 7
        json.dumps(rec)

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_is_flagged_not_raised(self, small_sets):
        train, test = small_sets
        spec = tiny_spec(optimizer=OptimizerConfig(kind="sgd", learning_rate=1e150))
        stop = EarlyStopConfig(min_epochs=1, window=1, threshold=1e9, hard_cap=50)
        inst = train_instance(spec, train, test, init_seed=4, stop=stop)
        assert inst.diverged
        assert inst.final_test_loss == math.inf
        assert inst.loss_trace[-1] == math.inf
        assert inst.stop_epoch == len(inst.loss_trace)


def _numpy_blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


needs_openblas = pytest.mark.skipif("openblas" not in _numpy_blas_name(),
                                    reason="numpy's BLAS is not OpenBLAS")


# A relu training, then a sigmoid one, in a fresh process.  Wrapping fit, it
# lists every OpenBLAS mapped once the sigmoid fit has run (scipy's copy
# among them), and prints each one's thread count as read inside that fit.
SIGMOID_AFTER_RELU = """
import ctypes, dataclasses, json
import rlab.training
from rlab.calo import GeneratorConfig, generate_dataset
from rlab.nn import ModelSpec
from rlab.optim import OptimizerConfig
from rlab.training import EarlyStopConfig, train_instance

def thread_counts():
    with open("/proc/self/maps") as fh:
        paths = sorted({line.split(None, 5)[5].strip() for line in fh
                        if "openblas" in line.lower()})
    counts = {}
    for path in paths:
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                     "openblas_get_num_threads"):
            get = getattr(lib, name, None)
            if get is not None:
                get.restype = ctypes.c_int
                counts[path] = get()
                break
    return counts

fit, seen = rlab.training.fit, []

def recording_fit(*args, **kwargs):
    result = fit(*args, **kwargs)
    seen.append(thread_counts())        # still inside the training's BLAS guard
    return result

rlab.training.fit = recording_fit
relu = ModelSpec("t", ((4, 3), (8, 3)), ((2, 2), (2, 1)), (16, 1), "relu",
                 OptimizerConfig("adam"), 32)
events = generate_dataset(GeneratorConfig(), 96, seed=3)
stop = EarlyStopConfig(min_epochs=1, window=1, threshold=1e9, hard_cap=1)
for spec in (relu, dataclasses.replace(relu, activation="sigmoid")):
    train_instance(spec, events, events, init_seed=1, stop=stop)
print(json.dumps(seen[-1]))
"""


class TestBlasThreads:
    @needs_openblas
    def test_openblas_mapped_after_the_first_training_is_pinned_too(self):
        src = os.path.dirname(os.path.dirname(rlab.training.__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="2",
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", SIGMOID_AFTER_RELU], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        counts = json.loads(proc.stdout)
        if len(counts) < 2:
            pytest.skip("scipy shares numpy's OpenBLAS here")
        assert set(counts.values()) == {1}, counts

    @needs_openblas
    def test_training_runs_on_one_blas_thread(self, small_sets, monkeypatch):
        controls = openblas_thread_controls()
        assert controls, "no OpenBLAS thread-count functions found"
        wheel_libs = os.path.dirname(np.__file__) + ".libs"
        if os.path.isdir(wheel_libs):       # numpy's wheel bundles its OpenBLAS here
            assert any(os.path.dirname(path) == wheel_libs for path, _, _ in controls)
        inside = []

        def recording_fit(*args, **kwargs):
            inside.append([get() for _, get, _ in controls])
            return fit(*args, **kwargs)

        monkeypatch.setattr(rlab.training, "fit", recording_fit)
        saved = [get() for _, get, _ in controls]
        try:
            for _, _, set_ in controls:
                set_(2)
            caller = [get() for _, get, _ in controls]
            train_instance(tiny_spec(), *small_sets, init_seed=9,
                           stop=TestTrainInstance.STOP)
            assert inside == [[1] * len(controls)]
            assert [get() for _, get, _ in controls] == caller
        finally:
            for (_, _, set_), count in zip(controls, saved):
                set_(count)

    @needs_openblas
    def test_concurrent_trainings_keep_one_thread(self):
        controls = openblas_thread_controls()
        saved = [get() for _, get, _ in controls]
        switch = sys.getswitchinterval()
        seen = set()

        def training():
            for _ in range(3000):
                with rlab.training._one_blas_thread:
                    seen.update(get() for _, get, _ in controls)

        threads = [threading.Thread(target=training) for _ in range(4)]
        try:
            for _, _, set_ in controls:
                set_(2)
            caller = [get() for _, get, _ in controls]
            sys.setswitchinterval(1e-6)
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            assert seen == {1}
            assert [get() for _, get, _ in controls] == caller
        finally:
            sys.setswitchinterval(switch)
            for (_, _, set_), count in zip(controls, saved):
                set_(count)

    def test_copy_mapped_while_a_training_runs_is_pinned_then_restored(self, monkeypatch):
        counts = {"numpy": 4, "scipy": 3}

        def control(path):
            return path, lambda: counts[path], lambda n: counts.__setitem__(path, n)

        mapped = [control("numpy")]
        monkeypatch.setattr(rlab.training, "openblas_thread_controls", lambda: tuple(mapped))
        guard = rlab.training._OneBlasThread()
        with guard:
            assert counts == {"numpy": 1, "scipy": 3}
            mapped.append(control("scipy"))     # a second training imports scipy
            with guard:
                assert counts == {"numpy": 1, "scipy": 1}
            assert counts == {"numpy": 1, "scipy": 1}
        assert counts == {"numpy": 4, "scipy": 3}

    def test_no_openblas_found_trains_unchanged(self, small_sets, monkeypatch):
        expected = train_instance(tiny_spec(), *small_sets, init_seed=9,
                                  stop=TestTrainInstance.STOP)
        monkeypatch.setattr(rlab.training, "openblas_thread_controls", lambda: ())
        got = train_instance(tiny_spec(), *small_sets, init_seed=9,
                             stop=TestTrainInstance.STOP)
        assert got.loss_trace == expected.loss_trace
