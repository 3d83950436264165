"""Activation catalogue, initialization statistics, spec accounting, model forward."""

import dataclasses
import hashlib
import json
import math
import pickle

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import rlab.nn
from oracles import activation_value, finite_diff_check, param_count, sq_mean, weighted_sum
from rlab.errors import CatalogueError, ContractError, ShapeError
from rlab.nn import (
    ACTIVATIONS, Model, ModelSpec, SearchSpace, elu, enumerate_search_space,
    feature_shapes, gelu, he_init, leaky_relu, prelu, preset_spec, reference_search_space,
    relu, sigmoid, tanh,
)
from rlab.optim import OptimizerConfig
from rlab.tensor import Tensor, concat, conv2d, linear, maxpool2d

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
        err = finite_diff_check(lambda: sq_mean(fn(x)), [x])
        assert err < 1e-4

    def test_prelu_channel_slopes(self):
        rng = np.random.default_rng(31)
        x = Tensor(rng.normal(size=(2, 3, 4, 4)), requires_grad=True)
        slopes = Tensor(np.array([0.25, 0.1, 0.4]), requires_grad=True)
        err = finite_diff_check(lambda: sq_mean(prelu(x, slopes)), [x, slopes])
        assert err < 1e-4

    def test_prelu_unit_slopes_on_vectors(self):
        rng = np.random.default_rng(32)
        x = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
        slopes = Tensor(np.full(4, 0.25), requires_grad=True)
        err = finite_diff_check(lambda: sq_mean(prelu(x, slopes)), [x, slopes])
        assert err < 1e-4

    def test_prelu_slope_count_mismatch(self):
        with pytest.raises(ShapeError):
            prelu(Tensor(np.zeros((2, 3, 4, 4))), Tensor(np.zeros(5)))


def bits(a):
    """The raw bytes of a: equal bits, not just equal values (-0.0, NaN)."""
    return np.ascontiguousarray(a).view(np.uint64).tolist()


def rectifier_reference(x, a, g):
    """(value, input gradient, slope gradient) of the np.where forms that the
    branch-free rectifiers replaced; a first gradient is zeros + g."""
    pos = x > 0.0
    value = np.where(pos, x, a * x)
    dx = 0.0 + g * np.where(pos, 1.0, a)
    axes = (0,) + tuple(range(2, x.ndim))
    ds = 0.0 + (g * np.where(pos, 0.0, x)).sum(axis=axes)
    return value, dx, ds


# signed zeros, subnormals, non-finite values and ties with the slope factor's 1.0
_EDGE = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                                   np.inf, -np.inf, np.nan, -np.nan]),
                  st.floats(-4.0, 4.0))
_SLOPES = st.one_of(st.sampled_from([0.25, 0.01, 1.0, 0.0, -0.0, -0.5, 1.5, 5e-324,
                                     1.0 + 2.0 ** -52, np.inf, np.nan]),
                    st.floats(-2.0, 2.0))
_GRADS = st.sampled_from([1.0, -0.5, 0.0, -0.0, 3.0, 1e-300, -5e-324, np.inf, np.nan])


@st.composite
def rectifier_cases(draw):
    """(x, slopes, g): [N,C] vectors or [N,C,H,W] maps, the maps in either layout."""
    n, c = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shape = (n, c) + draw(st.sampled_from([(), (1, 1), (3, 2), (5, 5)]))
    x = draw(arrays(np.float64, shape, elements=_EDGE))
    g = draw(arrays(np.float64, shape, elements=_GRADS))
    if len(shape) == 4 and draw(st.booleans()):     # channels-last, as conv2d writes maps
        x, g = (np.ascontiguousarray(v.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
                for v in (x, g))
    return x, draw(arrays(np.float64, (c,), elements=_SLOPES)), g


def run_vjp(fn, x, g, *params):
    """(value, input gradient, parameter gradients) of fn at x for output gradient g;
    g reaches the op unchanged, signed zeros included."""
    t = Tensor(x, requires_grad=True)
    ps = [Tensor(p, requires_grad=True) for p in params]
    out = fn(t, *ps)
    out._vjp(g)
    return (out.data, t.grad, *(p.grad for p in ps))


class TestRectifierOracle:
    """relu, leaky_relu and prelu take no data-dependent branch; each gives
    the bits of the np.where forms it replaced, wherever its exact path or
    its fallback runs."""

    @settings(max_examples=300, deadline=None)
    @given(case=rectifier_cases())
    def test_prelu(self, case):
        x, a, g = case
        with np.errstate(all="ignore"):
            want = rectifier_reference(x, a.reshape((1, -1) + (1,) * (x.ndim - 2)), g)
            got = run_vjp(prelu, x, g, a)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @settings(max_examples=200, deadline=None)
    @given(case=rectifier_cases())
    def test_leaky_relu(self, case):
        x, _, g = case
        with np.errstate(all="ignore"):
            value, dx, _ = rectifier_reference(x, rlab.nn.LEAKY_SLOPE, g)
            got = run_vjp(leaky_relu, x, g)
        assert [bits(v) for v in got] == [bits(value), bits(dx)]

    @settings(max_examples=200, deadline=None)
    @given(case=rectifier_cases())
    def test_relu(self, case):
        x, _, g = case
        with np.errstate(all="ignore"):
            want = (np.where(x > 0.0, x, 0.0), 0.0 + g * (x > 0.0))
            got = run_vjp(relu, x, g)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    @pytest.mark.parametrize("n", [1, 2, 3, 7, 8, 9, 16, 17, 1000])
    def test_relu_of_negative_zero_is_zero_at_every_length(self, n):
        # fmax keeps -0.0 against 0.0 on some lengths and drops it on others
        assert bits(relu(Tensor(np.full(n, -0.0))).data) == bits(np.zeros(n))

    def test_prelu_slope_gradient_at_positive_infinity(self):
        # x = +inf is on the slope's zero side: its term is g * 0.0, not g * inf * 0
        x = np.array([[np.inf, -2.0], [3.0, -np.inf]])
        _, _, ds = run_vjp(prelu, x, np.ones((2, 2)), np.array([0.25, 0.5]))
        assert bits(ds) == bits(np.array([0.0, -np.inf]))


# tied positives, signed zeros, subnormals, infinities and NaNs of both signs
_STAGE_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, 2.0, -1.0, 5e-324, -5e-324, 2.2e-308, -1e-310,
                     np.inf, -np.inf, np.nan, -np.nan]),
    st.floats(-4.0, 4.0))


@st.composite
def relu_pool_cases(draw):
    """(x, window, stride, g): stride < window overlaps windows, stride >=
    window keeps them disjoint, and a remainder crops the border."""
    window, stride = draw(st.integers(1, 3)), draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(window, window + 5)), draw(st.integers(window, window + 5)))
    x = draw(arrays(np.float64, shape, elements=_STAGE_VALUES))
    if draw(st.booleans()):        # channels-last in memory, as conv2d writes it
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    g_shape = shape[:2] + ((shape[2] - window) // stride + 1, (shape[3] - window) // stride + 1)
    g = draw(arrays(np.float64, g_shape,
                    elements=st.sampled_from([1.0, -0.5, 3.0, 0.0, -0.0, 1e-300, -5e-324])))
    return x, window, stride, g


def stage_vjp(stage, x, g):
    """(value, input gradient after _accum) of stage at x for output gradient g."""
    t = Tensor(x, requires_grad=True)
    out = stage(t)
    with np.errstate(invalid="ignore"):     # inf * 0 in the loss; g is what counts
        weighted_sum(out, g).backward()
    return out.data, t.grad


class TestReluPoolOracle:
    """A relu conv stage pools before the activation: the value and input
    gradient bits of the old order, pooling after relu."""

    @settings(max_examples=400, deadline=None)
    @given(case=relu_pool_cases())
    def test_bitwise_equal_to_pooling_after_relu(self, case):
        x, window, stride, g = case
        got = stage_vjp(lambda t: rlab.nn._rectifier_pool(t, window, stride), x, g)
        want = stage_vjp(lambda t: maxpool2d(relu(t), window, stride), x, g)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_nan_beside_a_positive_takes_the_old_order(self, monkeypatch):
        x = np.array([[[[np.nan, 3.0], [1.0, -2.0]]]])
        g = np.array([[[[2.0]]]])
        assert relu(maxpool2d(Tensor(x), 2, 2)).data.item() == 0.0    # the new order alone
        calls = []

        def counting(*args):
            calls.append(args[1:])
            return maxpool2d(*args)

        monkeypatch.setattr(rlab.nn, "maxpool2d", counting)
        got = stage_vjp(lambda t: rlab.nn._rectifier_pool(t, 2, 2), x, g)
        assert calls == [(2, 2), (2, 2)]        # pooled, found the NaN, pooled again
        want = stage_vjp(lambda t: maxpool2d(relu(t), 2, 2), x, g)
        assert [bits(v) for v in got] == [bits(v) for v in want]
        assert got[0].item() == 3.0


@st.composite
def prelu_pool_cases(draw):
    """(x, slopes, window, stride, g): relu_pool_cases' maps and windows,
    slopes inside and outside (0, 1], and non-finite output gradients."""
    x, window, stride, _ = draw(relu_pool_cases())
    g_shape = x.shape[:2] + ((x.shape[2] - window) // stride + 1,
                             (x.shape[3] - window) // stride + 1)
    g = draw(arrays(np.float64, g_shape, elements=_GRADS))
    return x, draw(arrays(np.float64, (x.shape[1],), elements=_SLOPES)), window, stride, g


def product_tie(x, a, window, stride):
    """Whether some window's largest prelu values come from different values
    of x: the products with the slope round to the same double."""
    with np.errstate(all="ignore"):
        y = np.where(x > 0.0, x, a.reshape(1, -1, 1, 1) * x)
    for i in range(0, x.shape[2] - window + 1, stride):
        for j in range(0, x.shape[3] - window + 1, stride):
            xs = x[:, :, i:i + window, j:j + window].reshape(-1, window * window)
            ys = y[:, :, i:i + window, j:j + window].reshape(-1, window * window)
            for xw, yw in zip(xs, ys):
                top = xw[yw == yw.max()]     # empty when yw holds a NaN
                if top.size and top.min() < top.max():
                    return True
    return False


def prelu_stage_vjp(stage, x, a, g):
    """(value, input gradient, slope gradient) of stage at x for output gradient g."""
    t, s = Tensor(x, requires_grad=True), Tensor(a, requires_grad=True)
    with np.errstate(all="ignore"):
        out = stage(t, s)
        weighted_sum(out, g).backward()
    return out.data, t.grad, s.grad


class TestPreluPoolOracle:
    """A prelu conv stage pools before the activation when its slopes lie in
    (0, 1]: the value, input gradient and slope gradient bits of the defined
    order, pooling after prelu, with windows disjoint or overlapping."""

    @settings(max_examples=500, deadline=None)
    @given(case=prelu_pool_cases())
    def test_bitwise_equal_to_pooling_after_prelu(self, case):
        x, a, window, stride, g = case
        assume(not product_tie(x, a, window, stride))
        got = prelu_stage_vjp(lambda t, s: rlab.nn._rectifier_pool(t, window, stride, s),
                              x, a, g)
        want = prelu_stage_vjp(lambda t, s: maxpool2d(prelu(t, s), window, stride), x, a, g)
        assert [bits(v) for v in got] == [bits(v) for v in want]

    def test_product_tie_takes_the_larger_value(self):
        # 0.25 times either subnormal rounds to -0.0, which ties with -0.0 and
        # with 0.0: after prelu each window ties, and the defined order takes
        # the first cell, the pooled order the larger value
        x = np.array([[[[-1e-323, -5e-324, -5e-324, 0.0], [-1.0, -2.0, -1.0, -2.0]]]])
        a, g = np.array([0.25]), np.array([[[[3.0, 3.0]]]])
        assert product_tie(x, a, 2, 2)
        value, dx, da = prelu_stage_vjp(
            lambda t, s: rlab.nn._rectifier_pool(t, 2, 2, s), x, a, g)
        want = prelu_stage_vjp(lambda t, s: maxpool2d(prelu(t, s), 2, 2), x, a, g)
        assert bits(value) == bits(np.array([[[[-0.0, 0.0]]]]))
        assert bits(want[0]) == bits(np.array([[[[-0.0, -0.0]]]]))
        assert bits(dx) == bits(np.array([[[[0.0, 0.75, 0.0, 0.75], [0.0, 0.0, 0.0, 0.0]]]]))
        assert bits(want[1]) == bits(np.array([[[[0.75, 0.0, 0.75, 0.0], [0.0] * 4]]]))
        assert bits(da) == bits(np.array([3.0 * -5e-324 + 3.0 * 0.0]))
        assert bits(want[2]) == bits(np.array([3.0 * -1e-323 + 3.0 * -5e-324]))

    @pytest.mark.parametrize("slope, records", [(1.5, True), (0.0, True), (np.nan, True),
                                                 (-0.25, False), (0.5, False)])
    def test_other_stages_take_the_defined_order(self, monkeypatch, slope, records):
        calls = []

        def counting(*args):
            calls.append(args[0].data.shape)
            return prelu(*args)

        monkeypatch.setattr(rlab.nn, "prelu", counting)
        x = np.arange(-12.0, 13.0).reshape(1, 1, 5, 5)
        # unrecorded, x keeps no pool winners, which recorded slopes would need
        rlab.nn._rectifier_pool(Tensor(x, records), 2, 1, Tensor(np.array([slope]), True))
        rlab.nn._rectifier_pool(Tensor(x, True), 2, 1, Tensor(np.array([0.25]), True))
        assert calls == [(1, 1, 5, 5), (1, 1, 4, 4)]


def old_order_forward(model, x, aux):
    """Model.forward of a relu spec with each conv stage in the old order:
    conv2d, relu, maxpool2d."""
    n = x.data.shape[0]
    for kern, (window, stride) in zip(model.conv_kernels, model.spec.pool_layers):
        x = maxpool2d(relu(conv2d(x, kern)), window, stride)
    x = x.reshape(n, -1)
    last = len(model.fc_weights) - 1
    for j, (w, b) in enumerate(zip(model.fc_weights, model.fc_biases)):
        if j == model.spec.aux_injection_layer and aux is not None:
            x = concat([x, aux], axis=1)
        x = linear(x, w, b)
        if j < last:
            x = relu(x)
    return x.reshape(n)


class TestReluStageOrderInModel:
    @pytest.mark.parametrize("name", ["model2", "cnn-k5-f32x64-fc64x9x1-energy_sum"])
    def test_forward_and_backward_bits_of_the_old_order(self, name):
        specs = {s.name: s for s in reference_search_space().architectures}
        model = Model(specs.get(name) or preset_spec(name), 4)
        rng = np.random.default_rng(6)
        # calorimeter-like: most cells empty, so many windows pool zeros and ties
        data = rng.exponential(2.0, (9, 1, 15, 15)) * (rng.random((9, 1, 15, 15)) < 0.3)
        aux = Tensor(data.sum(axis=(1, 2, 3)).reshape(9, 1))
        g = rng.normal(size=9)
        runs = []
        for forward in (model.forward, lambda x, aux: old_order_forward(model, x, aux)):
            x = Tensor(data, requires_grad=True)
            out = forward(x, aux)
            weighted_sum(out, g).backward()
            runs.append([bits(out.data), bits(x.grad)]
                        + [bits(p.grad) for p in model.parameters()])
            for p in model.parameters():
                p.grad = None
        assert runs[0] == runs[1]


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
        assert sum(p.data.size for p in model.parameters()) == PRESET_COUNTS[pid]

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

    def test_id_is_the_sha1_of_the_sorted_json(self):
        """The id is assembled from cached JSON fragments; it must be the hash
        of the whole JSON for every spec of both grids and the presets, and
        for an adamw config holding l2=-0.0, which equals one with 0.0."""
        specs = [s for target in ("energy", "position_x")
                 for s in enumerate_search_space(reference_search_space(target))]
        specs += [preset_spec(pid) for pid in PRESET_COUNTS]
        negative = OptimizerConfig("adamw", learning_rate=1e-3, l2=-0.0, weight_decay=0.1)
        plain = dataclasses.replace(negative, l2=0.0)
        assert negative == plain
        for opt in (negative, plain):
            specs.append(dataclasses.replace(preset_spec("model2"), optimizer=opt,
                                             name='quote " and \u00e9'))
        assert len(specs) == 2 * 6912 + 4 + 2
        assert [s.spec_id() for s in specs] == [self.fresh_id(s) for s in specs]
        assert specs[-1].spec_id() != specs[-2].spec_id()

    def test_architecture_checked_once_still_checks_counts(self):
        spec = preset_spec("model1")
        for bad in ({"conv_layers": ((32.0, 3), (64, 3))}, {"fc_layers": (9, True)},
                    {"aux_injection_layer": 0.0}):
            with pytest.raises(ContractError, match="takes integers only"):
                dataclasses.replace(spec, **bad)

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
        assert out.data.shape == (4,)

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
        sq_mean(model.forward(x, aux)).backward()
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

    def user_space(self):
        # architectures whose ids were taken first, and an optimizer kind of each slot
        archs = (preset_spec("model1"), preset_spec("model3"),
                 dataclasses.replace(preset_spec("model2"), name="m2-nadam",
                                     optimizer=OptimizerConfig("nadam", learning_rate=0.01)))
        for arch in archs:
            arch.spec_id()
        return SearchSpace(archs, (1e-4, 0.03), (1, 16, 512), (0.0, 1e-2))

    @pytest.mark.parametrize("space", ["energy", "position_x", "user"])
    def test_grid_specs_equal_dataclasses_replace(self, space):
        space = self.user_space() if space == "user" else reference_search_space(space)
        specs = enumerate_search_space(space)
        per_arch = len(specs) // len(space.architectures)
        assert per_arch * len(space.architectures) == len(specs)
        for i, spec in enumerate(specs):
            want = dataclasses.replace(space.architectures[i // per_arch], name=spec.name,
                                       optimizer=spec.optimizer, batch_size=spec.batch_size)
            assert spec == want and hash(spec) == hash(want)
            assert spec.to_dict() == want.to_dict()
            assert spec.spec_id() == want.spec_id()

    @pytest.mark.parametrize("change, message", [
        (dict(batch_size=0), "batch_size must be >= 1"),
        (dict(batch_size=32.5), "batch_size takes integers only, got 32.5"),
        (dict(batch_size=True), "batch_size takes integers only, got True"),
        (dict(name=7), "name takes strings only, got 7"),
    ])
    def test_varied_checks_its_fields_as_replace_does(self, change, message):
        arch = preset_spec("model2")
        fields = {"name": "n", "optimizer": arch.optimizer, "batch_size": 8, **change}
        for build in (lambda: dataclasses.replace(arch, **fields), lambda: arch.varied(**fields)):
            with pytest.raises(ContractError, match=f"^{message}$"):
                build()

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
