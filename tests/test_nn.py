"""Activation catalogue, initialization statistics, spec accounting, model forward."""

import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import rlab.nn
from rlab.errors import CatalogueError, ContractError, ShapeError
from rlab.nn import (
    ACTIVATIONS, Model, ModelSpec, SearchSpace, activation_value,
    elu, enumerate_search_space, feature_shapes, gelu, he_init, leaky_relu,
    param_count, prelu, preset_spec, reference_search_space, relu, sigmoid, tanh,
)
from rlab.tensor import Tensor, finite_diff_check

# Independently recomputed totals for the four reference configurations.
PRESET_COUNTS = {"model1": 23_923, "model2": 23_932, "model3": 23_644, "model4": 23_662}


class TestActivationValues:
    def test_catalogue_points(self):
        assert activation_value("sigmoid", 0.0) == 0.5
        assert activation_value("tanh", 0.0) == 0.0
        assert activation_value("relu", -1.0) == 0.0
        assert activation_value("relu", 2.0) == 2.0
        assert activation_value("leaky_relu", -1.0) == pytest.approx(-0.01)
        assert activation_value("prelu", -2.0, slope=0.25) == pytest.approx(-0.5)
        assert activation_value("elu", -1.0) == pytest.approx(math.exp(-1.0) - 1.0)
        assert activation_value("gelu", 1.0) == pytest.approx(
            0.5 * (1.0 + math.erf(1.0 / math.sqrt(2.0))), rel=1e-12)

    def test_gelu_is_exact_not_the_tanh_fit(self):
        x = 3.0
        tanh_fit = 0.5 * x * (1.0 + math.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x ** 3)))
        exact = activation_value("gelu", x)
        assert exact != pytest.approx(tanh_fit, abs=1e-9)

    def test_unknown_kind(self):
        with pytest.raises(CatalogueError):
            activation_value("swish", 1.0)

    @pytest.mark.parametrize("kind", ACTIVATIONS)
    def test_zero_maps_to_zero_or_half(self, kind):
        assert activation_value(kind, 0.0) in (0.0, 0.5)

    @settings(max_examples=25, deadline=None)
    @given(a=st.floats(-20, 20), b=st.floats(-20, 20))
    def test_monotone_non_decreasing(self, a, b):
        lo, hi = min(a, b), max(a, b)
        for kind in ACTIVATIONS:
            if kind == "gelu":
                lo_, hi_ = max(lo, 0.0), max(hi, 0.0)  # non-monotone below zero
            else:
                lo_, hi_ = lo, hi
            assert activation_value(kind, lo_) <= activation_value(kind, hi_) + 1e-15

    def test_tensor_forms_match_scalar(self):
        xs = np.linspace(-4.0, 4.0, 17)
        pairs = [(sigmoid, "sigmoid"), (tanh, "tanh"), (relu, "relu"),
                 (leaky_relu, "leaky_relu"), (elu, "elu"), (gelu, "gelu")]
        for fn, kind in pairs:
            got = fn(Tensor(xs)).data
            want = [activation_value(kind, float(x)) for x in xs]
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-15)


class TestActivationGradients:
    @pytest.mark.parametrize("fn", [sigmoid, tanh, relu, leaky_relu, elu, gelu])
    def test_against_finite_differences(self, fn):
        x = Tensor(np.linspace(-2.1, 2.3, 12), requires_grad=True)
        err = finite_diff_check(lambda: (fn(x) ** 2).mean(), [x])
        assert err < 1e-4

    def test_prelu_channel_slopes(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        slopes = Tensor(np.array([0.25, 0.1, 0.4]), requires_grad=True)
        err = finite_diff_check(lambda: (prelu(x, slopes) ** 2).mean(), [x, slopes])
        assert err < 1e-4

    def test_prelu_unit_slopes_on_vectors(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        slopes = Tensor(np.full(4, 0.25), requires_grad=True)
        err = finite_diff_check(lambda: (prelu(x, slopes) ** 2).mean(), [x, slopes])
        assert err < 1e-4

    def test_prelu_slope_count_mismatch(self):
        with pytest.raises(ShapeError):
            prelu(Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros(5)))


class TestHeInit:
    def test_moments(self):
        rng = np.random.default_rng(77)
        sample = he_init((400, 250), fan_in=250, rng=rng)
        assert abs(sample.mean()) < 0.005
        assert sample.var() == pytest.approx(2.0 / 250, rel=0.05)

    def test_variance_preserved_through_relu_stack(self):
        # fan-in 2/n undoes the second-moment halving of the rectifier, so
        # variance is preserved block by block: relu -> he-linear
        rng = np.random.default_rng(78)
        n, width = 4000, 512
        z = rng.normal(0.0, 1.0, (n, width))
        for _ in range(2):
            z = np.maximum(0.0, z) @ he_init((width, width), width, rng).T
        assert z.var() == pytest.approx(1.0, rel=0.2)

    def test_bad_fan_in(self):
        with pytest.raises(ContractError):
            he_init((3, 3), 0, np.random.default_rng(0))


class TestSpecAccounting:
    @pytest.mark.parametrize("pid, count", sorted(PRESET_COUNTS.items()))
    def test_preset_param_counts_exact(self, pid, count):
        assert param_count(preset_spec(pid)) == count

    @pytest.mark.parametrize("pid", sorted(PRESET_COUNTS))
    def test_built_model_matches_declared_count(self, pid):
        model = Model(preset_spec(pid), init_seed=1)
        assert sum(p.size for p in model.parameters()) == PRESET_COUNTS[pid]

    def test_feature_shapes_of_energy_presets(self):
        assert feature_shapes(preset_spec("model1")) == [(32, 6, 6), (64, 3, 3)]

    def test_feature_shapes_of_position_presets(self):
        assert feature_shapes(preset_spec("model3")) == [(32, 6, 6), (64, 1, 1)]

    def test_aux_widens_exactly_one_layer(self):
        raw, fed = preset_spec("model1"), preset_spec("model2")
        # one extra input column on a 9-unit layer
        assert param_count(fed) - param_count(raw) == 9

    def test_kernel_eating_grid_rejected(self):
        spec = preset_spec("model1")
        with pytest.raises(ShapeError):
            ModelSpec(**{**spec.to_dict(), "optimizer": spec.optimizer,
                         "conv_layers": ((4, 16), (4, 3))})

    def test_unknown_preset(self):
        with pytest.raises(CatalogueError):
            preset_spec("model9")

    def test_spec_round_trip(self):
        spec = preset_spec("model4")
        assert ModelSpec.from_dict(spec.to_dict()) == spec
        assert ModelSpec.from_dict(spec.to_dict()).spec_id() == spec.spec_id()


class TestSpecIds:
    @staticmethod
    def fresh_id(spec):
        blob = json.dumps(spec.to_dict(), sort_keys=True).encode()
        return hashlib.sha1(blob).hexdigest()[:10]

    def test_optimizer_dict_is_asdict(self):
        for pid in PRESET_COUNTS:
            opt = preset_spec(pid).optimizer
            assert list(opt.to_dict().items()) == list(dataclasses.asdict(opt).items())

    @pytest.mark.parametrize("change", [{"batch_size": 17}, {"name": "renamed"},
                                        {"activation": "tanh"}])
    def test_replaced_spec_gets_its_own_id(self, change):
        spec = preset_spec("model2")
        source_id = spec.spec_id()          # computed, and kept, before the copy
        copy = dataclasses.replace(spec, **change)
        assert copy.spec_id() == self.fresh_id(copy) != source_id
        assert spec.spec_id() == source_id == self.fresh_id(spec)

    def test_replaced_optimizer_gets_its_own_id(self):
        spec = preset_spec("model1")
        spec.spec_id()
        opt = dataclasses.replace(spec.optimizer, learning_rate=0.5)
        copy = dataclasses.replace(spec, optimizer=opt)
        assert copy.spec_id() == self.fresh_id(copy) != spec.spec_id()

    @pytest.mark.parametrize("computed_first", [False, True])
    def test_pickle_round_trip_keeps_the_id(self, computed_first):
        spec = preset_spec("model3")
        if computed_first:
            spec.spec_id()
        back = pickle.loads(pickle.dumps(spec))
        assert back == spec
        assert back.spec_id() == spec.spec_id() == self.fresh_id(spec)

    def test_id_is_not_a_field(self):
        spec = preset_spec("model4")
        spec.spec_id()
        assert spec == preset_spec("model4") and hash(spec) == hash(preset_spec("model4"))
        assert "_spec_id" not in spec.to_dict() and "_spec_id" not in repr(spec)


class TestModelForward:
    def batch(self, n=3, seed=5):
        rng = np.random.default_rng(seed)
        return Tensor(rng.uniform(0.0, 5.0, (n, 1, 15, 15)))

    def test_prediction_shape(self):
        model = Model(preset_spec("model1"), 3)
        out = model.forward(self.batch(4))
        assert out.shape == (4,)

    def test_init_seed_pins_weights(self):
        a = Model(preset_spec("model1"), 11)
        b = Model(preset_spec("model1"), 11)
        for wa, wb in zip(a.parameters(), b.parameters()):
            assert np.array_equal(wa.data, wb.data)
        c = Model(preset_spec("model1"), 12)
        assert any(not np.array_equal(wa.data, wc.data)
                   for wa, wc in zip(a.parameters(), c.parameters()))

    def test_biases_start_at_zero(self):
        model = Model(preset_spec("model1"), 7)
        for b in model.fc_biases:
            assert np.all(b.data == 0.0)

    def test_prelu_slopes_start_at_quarter(self):
        model = Model(preset_spec("model3"), 7)
        for s in model.conv_slopes + model.fc_slopes[:-1]:
            assert np.all(s.data == 0.25)

    def test_aux_required_and_shaped(self):
        model = Model(preset_spec("model2"), 3)
        with pytest.raises(ContractError):
            model.forward(self.batch(2))
        with pytest.raises(ShapeError):
            model.forward(self.batch(2), Tensor(np.zeros((2, 2))))

    def test_raw_model_rejects_aux(self):
        model = Model(preset_spec("model1"), 3)
        with pytest.raises(ContractError):
            model.forward(self.batch(2), Tensor(np.zeros((2, 1))))

    def test_zeroed_aux_column_reproduces_raw_forward(self):
        fed = Model(preset_spec("model2"), 21)
        raw = Model(preset_spec("model1"), 21)
        # same trunk weights; raw fc1 loses the aux column, which is zeroed in fed
        for k_raw, k_fed in zip(raw.conv_kernels, fed.conv_kernels):
            k_fed.data = k_raw.data.copy()
        fed.fc_weights[0].data[:, :-1] = raw.fc_weights[0].data
        fed.fc_weights[0].data[:, -1] = 0.0
        fed.fc_weights[1].data = raw.fc_weights[1].data.copy()
        x = self.batch(5)
        aux = Tensor(np.random.default_rng(1).uniform(1.0, 9.0, (5, 1)))
        np.testing.assert_array_equal(fed.forward(x, aux).data, raw.forward(x).data)

    def test_gradient_reaches_aux_columns(self):
        model = Model(preset_spec("model2"), 4)
        x = self.batch(6)
        aux = Tensor(np.random.default_rng(2).uniform(10.0, 90.0, (6, 1)))
        (model.forward(x, aux) ** 2).mean().backward()
        aux_col_grad = model.fc_weights[0].grad[:, -1]
        assert np.any(aux_col_grad != 0.0)

    def test_forward_deterministic(self):
        model = Model(preset_spec("model3"), 9)
        x = self.batch(2, seed=8)
        a = model.forward(x).data.copy()
        b = model.forward(self.batch(2, seed=8)).data
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("pid, used, unused", [("model1", "relu", "prelu"),
                                                   ("model3", "prelu", "relu")])
    def test_activations_looked_up_by_module_name(self, monkeypatch, pid, used, unused):
        # tracing tools rebind rlab.nn.relu / rlab.nn.prelu; forward must see it
        calls = {"relu": 0, "prelu": 0}

        def counting(name, fn):
            def wrapper(*args):
                calls[name] += 1
                return fn(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(rlab.nn, name, counting(name, getattr(rlab.nn, name)))
        spec = preset_spec(pid)
        Model(spec, 1).forward(self.batch(2))
        assert calls[used] == len(spec.conv_layers) + len(spec.fc_layers) - 1
        assert calls[unused] == 0


class TestSearchSpace:
    def two_arch_space(self):
        a1 = preset_spec("model1")
        a2 = preset_spec("model2")
        return SearchSpace(
            architectures=(a1, a2),
            learning_rates=(1e-4, 1e-3, 1e-2, 1e-1),
            batch_sizes=(16, 32, 64, 128, 256),
            regularizations=(1e-3, 1e-2, 1e-1))

    def test_small_grid_cardinality(self):
        assert len(enumerate_search_space(self.two_arch_space())) == 2 * 4 * 5 * 3

    def test_single_point(self):
        space = SearchSpace((preset_spec("model1"),), (1e-3,), (32,), (0.01,))
        assert len(enumerate_search_space(space)) == 1

    def test_reference_grid_cardinality(self):
        assert len(enumerate_search_space(reference_search_space())) == 6_912

    def test_duplicate_architectures_collapse(self):
        a = preset_spec("model1")
        space = SearchSpace((a, a), (1e-3,), (32,), (0.01,))
        assert len(enumerate_search_space(space)) == 1

    def test_order_is_deterministic_and_axis_major(self):
        specs = enumerate_search_space(self.two_arch_space())
        again = enumerate_search_space(self.two_arch_space())
        assert [s.spec_id() for s in specs] == [s.spec_id() for s in again]
        assert specs[0].optimizer.learning_rate == 1e-4
        assert specs[0].batch_size == 16
        assert specs[1].optimizer.l2 == 0.01  # innermost axis moves first

    def test_regularization_lands_on_kind_slot(self):
        specs = enumerate_search_space(self.two_arch_space())
        for s in specs:
            if s.optimizer.kind == "adamw":
                assert s.optimizer.l2 == 0.0 and s.optimizer.weight_decay > 0.0
            else:
                assert s.optimizer.weight_decay == 0.0 and s.optimizer.l2 > 0.0

    def test_empty_axis_rejected(self):
        with pytest.raises(ContractError):
            enumerate_search_space(SearchSpace((), (1e-3,), (32,), (0.01,)))

    def test_every_reference_spec_is_buildable(self):
        specs = enumerate_search_space(reference_search_space())
        seen = set()
        for s in specs:          # one build per distinct architecture
            arch_key = (s.conv_layers, s.pool_layers, s.fc_layers, s.aux)
            if arch_key in seen:
                continue
            seen.add(arch_key)
            assert param_count(s) > 0
        assert len(seen) == 144
