"""Losses, stop rule, and the single-instance trainer."""

import hashlib
import json
import math
import os
import platform
import resource
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rlab.training
from oracles import evaluate_on
from rlab.calo import GeneratorConfig, generate_dataset
from rlab.errors import ContractError
from rlab.nn import Model, ModelSpec, preset_spec, reference_search_space
from rlab.optim import OptimizerConfig
from rlab.seeding import substream
from rlab.tensor import Tensor
from rlab.training import (
    EVAL_BATCH,
    EarlyStopConfig,
    TrainedInstance,
    constant_predictor_loss,
    evaluate,
    fit,
    loss_value,
    openblas_thread_controls,
    prepare_arrays,
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
        got = loss_value("energy", np.array([1.5, 8.0]), np.array([1.0, 4.0]))
        assert got == pytest.approx(0.7905694150420949, abs=1e-15)

    def test_rmse_hand_value(self):
        got = loss_value("position_x", np.array([3.0, -4.0]), np.array([0.0, 0.0]))
        assert got == pytest.approx(math.sqrt(12.5), abs=1e-15)

    def test_perfect_prediction_is_zero(self):
        t = np.array([2.0, 5.0, 9.0])
        assert loss_value("energy", t, t) == 0.0
        assert loss_value("position_x", t, t) == 0.0

    def test_zero_truth_rejected(self):
        with pytest.raises(ContractError):
            loss_value("energy", np.array([1.0]), np.array([0.0]))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ContractError):
            loss_value("energy", np.ones(3), np.ones(4))
        with pytest.raises(ContractError):
            loss_value("position_x", np.ones(3), np.ones(4))

    @given(
        st.lists(st.floats(0.5, 100.0), min_size=2, max_size=20),
        st.floats(0.01, 1000.0),
    )
    def test_relative_loss_scale_invariant(self, truth, k):
        t = np.array(truth)
        p = t * 1.3
        assert loss_value("energy", k * p, k * t) == pytest.approx(loss_value("energy", p, t), rel=1e-9)

    @given(
        st.lists(st.floats(-50.0, 50.0), min_size=2, max_size=20),
        st.floats(-100.0, 100.0),
    )
    def test_absolute_loss_shift_invariant(self, truth, c):
        t = np.array(truth)
        p = t + 2.0
        assert loss_value("position_x", p + c, t + c) == pytest.approx(loss_value("position_x", p, t), abs=1e-9)


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
            lambda v: loss_value("energy", np.full_like(t, v), t), bounds=(0.1, 200.0), method="bounded"
        )
        assert c == pytest.approx(res.x, rel=1e-5)
        assert loss == pytest.approx(res.fun, rel=1e-9)
        assert loss <= res.fun + 1e-12

    def test_constant_is_local_minimum(self):
        rng = np.random.default_rng(11)
        t = rng.uniform(-5.0, 5.0, size=200)
        c, loss = constant_predictor_loss("position_x", t)
        for bump in (1e-3, -1e-3):
            assert loss_value("position_x", np.full_like(t, c + bump), t) >= loss


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
        trace, diverged = fit(model, arrays, arrays, stop, substream(0, "shuffle"))
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
        trace, diverged = fit(model, arrays, arrays, stop, substream(0, "shuffle"))
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

    def test_record_keys_are_pinned(self):
        # instance.json is byte-compared: a field added to TrainedInstance
        # must not reach it unnoticed
        inst = TrainedInstance(spec_id="s", spec_name="s", init_seed=1, data_seed=2,
                               loss_trace=[0.5], stop_epoch=1, final_test_loss=0.5,
                               diverged=False, wall_time=3.0)
        assert set(inst.to_record()) == {"spec_id", "spec_name", "init_seed", "data_seed",
                                         "stop_epoch", "final_test_loss", "diverged",
                                         "loss_trace"}

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


@pytest.mark.skipif(sys.platform != "linux" or platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is set through glibc's mallopt")
def test_a_warm_training_process_faults_in_no_new_pages():
    # backward frees a step's arrays; a heap that gave them back to the
    # kernel would fault every page of them in again at the next batch
    cfg = GeneratorConfig()
    train, test = generate_dataset(cfg, 512, seed=71), generate_dataset(cfg, 256, seed=72)
    stop = EarlyStopConfig(min_epochs=1, window=1, hard_cap=1)
    model3 = preset_spec("model3")
    for spec in (preset_spec("model2"), replace(model3, batch_size=32),
                 replace(model3, batch_size=128)):
        assert spec.batch_size in (32, 128)
        train_instance(spec, train, test, init_seed=3, stop=stop)
    who = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)
    before = resource.getrusage(who).ru_minflt
    train_instance(replace(model3, batch_size=128), train, test, init_seed=4, stop=stop)
    faults = resource.getrusage(who).ru_minflt - before
    assert faults < 100, f"{faults} minor faults"


def _numpy_blas_name() -> str:
    return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]


needs_openblas = pytest.mark.skipif("openblas" not in _numpy_blas_name(),
                                    reason="numpy's BLAS is not OpenBLAS")


class TestBlasThreads:
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

    def test_no_openblas_found_trains_unchanged(self, small_sets, monkeypatch):
        expected = train_instance(tiny_spec(), *small_sets, init_seed=9,
                                  stop=TestTrainInstance.STOP)
        monkeypatch.setattr(rlab.training, "openblas_thread_controls", lambda: ())
        got = train_instance(tiny_spec(), *small_sets, init_seed=9,
                             stop=TestTrainInstance.STOP)
        assert got.loss_trace == expected.loss_trace


@pytest.fixture(scope="module")
def pin_sets():
    cfg = GeneratorConfig()
    return generate_dataset(cfg, 200, seed=303), generate_dataset(cfg, 100, seed=404)


@pytest.fixture(scope="module")
def chunk_sets():
    cfg = GeneratorConfig()
    return generate_dataset(cfg, 270, seed=505), generate_dataset(cfg, 300, seed=606)


def _trace_digest(spec, pin_sets, init_seed=7):
    train, test = pin_sets
    stop = EarlyStopConfig(min_epochs=2, window=1, hard_cap=2)
    inst = train_instance(spec, train, test, init_seed, stop)
    assert len(inst.loss_trace) == 2 and not inst.diverged
    return hashlib.sha256(np.array(inst.loss_trace).tobytes()).hexdigest()


class TestTrainingBitsPinned:
    """sha256 of real trainings' loss traces, recorded before the activation,
    pooling and gradient-buffer kernels were made branch-free: they pin the
    bits of every forward, backward and optimizer step on the way."""

    @pytest.mark.parametrize("preset, expected", [
        ("model1",
         "cb89bd7a57425b8dae73466999661aa1ea8a7de92f703d78e3f7c40ca79ed29c"),
        ("model2",
         "707d1cfca966841f06166c4e7eff6b03a91230f8aa2c1e2e5172f68e6103578d"),
        ("model3",
         "bf8c31221b0215c43f8534ed6354ca789e66e5ecea5c5c407c00ea22efe2c0c2"),
        ("model4",
         "8176e575879edcc2479834be03c704453d549756df6ec94627002aa5179ada07"),
    ])
    def test_presets(self, pin_sets, preset, expected):
        assert _trace_digest(preset_spec(preset), pin_sets) == expected

    @pytest.mark.parametrize("activation, expected", [
        ("sigmoid",
         "df8e3be50cb39b3a87e0c1587ee539a7afb488d152ba06fc3d59111a46035eec"),
        ("tanh",
         "8e49d3cf47adee6e84e62ae7fb86e8d28f49a94259755c450ca51975b975ba4f"),
        ("relu",
         "707d1cfca966841f06166c4e7eff6b03a91230f8aa2c1e2e5172f68e6103578d"),
        ("leaky_relu",
         "bb8e1a4479f917b7925ce6e2a1af1dd2e4f7b32dda5b38fe2e7bf0fbae8abc5b"),
        ("prelu",
         "a59cd7c793a19a582b36de9b0e93f730f1c85011f2112e62147c8da2705703e0"),
        ("elu",
         "4d9499fad13c7a1dcd4fb97dead2fce788669affd5fbeb981636d8ee7b5a7274"),
        ("gelu",
         "022bb07f2aa1b9f57f388ebdd517ffaacb4a19b124c3065e3b853df004607443"),
    ])
    def test_model2_activations(self, pin_sets, activation, expected):
        spec = replace(preset_spec("model2"), activation=activation)
        assert _trace_digest(spec, pin_sets) == expected

    # 270 training events end every epoch on a partial batch at batch 32 and
    # 64; 300 evaluation events are one full EVAL_BATCH chunk and a partial one
    @pytest.mark.parametrize("name, expected", [
        ("model1",
         "b30bc84e8178b19508ab74316919c7a884788fc0b73e35537f0eef874d2cedbe"),
        ("model2",
         "b2f225aca6239c44bdb22e0b72bb5db877445a664569aa63d26be70c30b263aa"),
        # pools (2,2) and (2,2): 15 -> 14 -> 7 -> 6 -> 3, no border cropped
        ("cnn-k2-f16x32-fc9x1-none",
         "cc7ee30146720d99047879facbc4ded0bbd6ba0cf35ca508fafd9a7290e87865"),
        # pools (2,2) and (1,1): 15 -> 11 -> 5, the pool crops the last row
        ("cnn-k5-f32x64-fc64x9x1-energy_sum",
         "d6f770f5f1c711646e60800ca041d7c4b08556dda777cd739ad7cdf2d601a0ba"),
    ])
    def test_partial_batches_and_eval_chunks(self, chunk_sets, name, expected):
        specs = {s.name: s for s in reference_search_space().architectures}
        spec = specs[name] if name in specs else preset_spec(name)
        train, test = chunk_sets
        assert len(train) % spec.batch_size and EVAL_BATCH < len(test) < 2 * EVAL_BATCH
        assert _trace_digest(spec, chunk_sets) == expected


def _gradient_digest(preset, batch, pin_sets, init_seed=7):
    spec = preset_spec(preset)
    model = Model(spec, init_seed)
    clusters, aux, targets = prepare_arrays(spec, pin_sets[0])
    idx = substream(init_seed, "shuffle").permutation(len(targets))[:batch]
    with rlab.training._one_blas_thread:
        rlab.training._loss_node(spec, model, clusters, aux, targets, idx).backward()
    return hashlib.sha256(b"".join(p.grad.tobytes() for p in model.parameters())).hexdigest()


class TestGradientBitsPinned:
    """sha256 of every parameter's gradient after one forward and backward
    pass.  The loss-trace pins cannot see a slope gradient's last bits, which
    the optimizer step absorbs; these can."""

    @pytest.mark.parametrize("preset, batch, expected", [
        ("model3", 16,
         "28814e630df1da7bfff4913c18eda427de1ef2ce1ef3b81901e745936ad69702"),
        ("model3", 128,
         "95f7a7e99132767774e0936f0c38202bba20017e583dcd1414a808c5857b0b0c"),
        ("model3", 37,
         "8b79056a84ab791caa4a2bd1a355669c66e861539b2b6c9d4592cde319c857ec"),
        ("model4", 16,
         "41a2966b6db9584d43a81f472c81e12d9d8e3a26c51ddb402dd43dbdbb17d1fd"),
        ("model4", 128,
         "09877027800cf24b21d5a6d95371d0b36912cb113032b4e27d7a6e3a4b61ef24"),
        ("model4", 37,
         "7d776ea8b8ab7faeb2f839eae6a1f46b284bbec5ae52c850ab53cea7501b629f"),
    ])
    def test_prelu_presets(self, pin_sets, preset, batch, expected):
        assert _gradient_digest(preset, batch, pin_sets) == expected


class _GivenPrediction:
    """A stand-in model whose forward returns one given leaf."""

    def __init__(self, pred):
        self.pred = pred

    def forward(self, x, aux):
        return self.pred


def _loss_draw(rng, n, target):
    """(pred, truth) of batch n: ordinary values, with a share of the
    elements (none, a few or many) set to zero residuals, signed zeros,
    subnormals or values up to 1e300."""
    truth = rng.normal(1.0, 0.5, n) * 10.0 ** rng.uniform(-2, 3, n)
    pred = truth * (1.0 + rng.normal(0.0, 0.3, n))
    special = rng.random(n) < rng.choice([0.0, 0.02, 0.1, 1.0])
    kind = np.where(special, rng.integers(1, 6, n), 0)
    sign = rng.choice([-1.0, 1.0], n)
    pred[kind == 1] = truth[kind == 1]
    pred[kind == 2] = (sign * 0.0)[kind == 2]
    truth[kind == 3] = (sign * 5e-324 * rng.integers(1, 2 ** 20, n))[kind == 3]
    pred[kind == 4] = (sign * 10.0 ** rng.uniform(100, 300, n))[kind == 4]
    truth[kind == 5] = (sign * 10.0 ** rng.uniform(100, 300, n))[kind == 5]
    pred[kind == 3] = (truth * (1.0 + rng.normal(0.0, 0.3, n)))[kind == 3]
    return pred, truth


def _loss_chain_replay(target, pred, truth):
    """The loss value and its gradient on pred, in the operation order of
    the 0.3.0 graph: (r * r).mean().sqrt() over r = pred / t - 1.0 (energy)
    or r = pred - t, each node's gradient entering .grad through + 0.0."""
    n = len(pred)
    r = pred / truth - 1.0 if target == "energy" else pred - truth
    loss = np.sqrt(np.mean(r * r))
    u = (1.0 * 0.5 / loss) * (1 / n) * r
    grad = (u + 0.0) + u
    if target == "energy":
        grad = grad / truth
    return loss, grad + 0.0


def _bits(a):
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64).tolist()


class TestLossNodeBits:
    """The training loss node against a numpy replay of the 0.3.0 chain: the
    value and the gradient it gives the prediction keep every bit."""

    @pytest.mark.parametrize("target", ["energy", "position_x"])
    @pytest.mark.parametrize("batch", [1, 16, 37, 256])
    def test_value_and_gradient_bits(self, target, batch):
        rng = np.random.default_rng([batch, target == "energy"])
        spec = tiny_spec(target)
        for _ in range(120):
            pred_data, truth = _loss_draw(rng, batch, target)
            pred = Tensor(pred_data.copy(), requires_grad=True)
            with np.errstate(all="ignore"):
                want_loss, want_grad = _loss_chain_replay(target, pred_data, truth)
                loss = rlab.training._loss_node(spec, _GivenPrediction(pred), np.zeros(batch),
                                                None, truth, np.arange(batch))
                loss.backward()
                assert _bits(loss.data) == _bits(want_loss)
                assert _bits(loss.item()) == _bits(loss_value(target, pred_data, truth))
            assert _bits(pred.grad) == _bits(want_grad)
