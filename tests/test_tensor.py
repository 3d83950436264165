"""Autograd core: forward values, shapes, and gradients against finite differences."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays
from numpy.lib.stride_tricks import sliding_window_view

import rlab.tensor
import rlab.training
from oracles import finite_diff_check, sq_mean, weighted_sum, zero_grads
from rlab.calo import GeneratorConfig, generate_dataset
from rlab.errors import ContractError, ShapeError
from rlab.nn import Model, preset_spec
from rlab.optim import make_optimizer
from rlab.tensor import Tensor, concat, conv2d, linear, maxpool2d, trace


def rnd(shape, seed, scale=1.0):
    return Tensor(np.random.default_rng(seed).normal(0.0, scale, shape), requires_grad=True)


class TestConvForward:
    def test_all_ones_kernel_sums_windows(self):
        x = Tensor(np.ones((1, 1, 3, 3)))
        k = Tensor(np.ones((1, 1, 2, 2)))
        out = conv2d(x, k)
        np.testing.assert_array_equal(out.data, np.full((1, 1, 2, 2), 4.0))

    def test_valid_output_shape(self):
        out = conv2d(Tensor(np.zeros((1, 1, 15, 15))), Tensor(np.zeros((32, 1, 3, 3))))
        assert out.data.shape == (1, 32, 13, 13)

    def test_batched_matches_per_sample(self):
        rng = np.random.default_rng(7)
        xb = rng.normal(size=(4, 3, 8, 8))
        k = Tensor(rng.normal(size=(5, 3, 3, 3)))
        batched = conv2d(Tensor(xb), k)
        for i in range(4):
            single = conv2d(Tensor(xb[i:i + 1]), k)
            np.testing.assert_array_equal(batched.data[i:i + 1], single.data)

    def test_channel_mismatch_names_axis(self):
        with pytest.raises(ShapeError, match="channel"):
            conv2d(Tensor(np.zeros((1, 2, 5, 5))), Tensor(np.zeros((4, 3, 2, 2))))

    def test_kernel_larger_than_input(self):
        with pytest.raises(ShapeError):
            conv2d(Tensor(np.zeros((1, 1, 2, 2))), Tensor(np.zeros((1, 1, 3, 3))))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), a=st.floats(-3, 3), b=st.floats(-3, 3))
    def test_linearity_in_input(self, seed, a, b):
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(1, 2, 6, 6))
        y = rng.normal(size=(1, 2, 6, 6))
        k = Tensor(rng.normal(size=(3, 2, 3, 3)))
        lhs = conv2d(Tensor(a * x + b * y), k).data
        rhs = a * conv2d(Tensor(x), k).data + b * conv2d(Tensor(y), k).data
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_forward_deterministic(self):
        rng = np.random.default_rng(3)
        x, k = rng.normal(size=(1, 2, 9, 9)), rng.normal(size=(4, 2, 3, 3))
        a = conv2d(Tensor(x), Tensor(k)).data
        b = conv2d(Tensor(x.copy()), Tensor(k.copy())).data
        assert np.array_equal(a, b)


class TestMaxPool:
    def test_tie_routes_to_first_row_major(self):
        x = Tensor(np.array([[[[1.0, 3.0], [2.0, 3.0]]]]), requires_grad=True)
        out = maxpool2d(x, 2, 2)
        assert out.data.reshape(()) == 3.0
        weighted_sum(out, 1.0).backward()
        np.testing.assert_array_equal(x.grad, [[[[0.0, 1.0], [0.0, 0.0]]]])

    @pytest.mark.parametrize("h, window, stride, expected", [
        (13, 2, 2, 6),   # floor mode
        (4, 2, 1, 3),
        (4, 4, 4, 1),
        (6, 2, 2, 3),
    ])
    def test_floor_output_size(self, h, window, stride, expected):
        out = maxpool2d(Tensor(np.zeros((1, 1, h, h))), window, stride)
        assert out.data.shape == (1, 1, expected, expected)

    def test_window_one_is_identity(self):
        x = np.random.default_rng(0).normal(size=(1, 2, 5, 5))
        out = maxpool2d(Tensor(x), 1, 1)
        np.testing.assert_array_equal(out.data, x)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), stride=st.integers(1, 2))
    def test_routed_gradient_mass_is_conserved(self, seed, stride):
        x = rnd((1, 2, 6, 6), seed)
        out = maxpool2d(x, 2, stride)
        g = np.random.default_rng(seed + 1).normal(size=out.data.shape)
        weighted_sum(out, g).backward()
        np.testing.assert_allclose(x.grad.sum(), g.sum(), rtol=1e-12)

    def test_gradient_zero_off_argmax(self):
        x = Tensor(np.array([[[[5.0, 1.0], [2.0, 3.0]]]]), requires_grad=True)
        weighted_sum(maxpool2d(x, 2, 2), 1.0).backward()
        np.testing.assert_array_equal(x.grad, [[[[1.0, 0.0], [0.0, 0.0]]]])

    def test_invalid_window(self):
        with pytest.raises(ContractError):
            maxpool2d(Tensor(np.zeros((1, 1, 4, 4))), 0, 1)


def maxpool_reference(xd, window, stride, g):
    """(values, input gradient for output gradient g) of the argmax /
    np.add.at pooling that maxpool2d's strided running max replaced."""
    n, c, h, w = xd.shape
    win = sliding_window_view(xd, (window, window), axis=(2, 3))[:, :, ::stride, ::stride]
    ho, wo = win.shape[2], win.shape[3]
    flat = win.reshape(n, c, ho, wo, window * window)
    idx = flat.argmax(axis=-1)
    out = np.take_along_axis(flat, idx[..., None], axis=-1)[..., 0]
    ni, ci, oi, oj = np.indices(idx.shape)
    dx = np.zeros(xd.shape)
    np.add.at(dx, (ni, ci, oi * stride + idx // window, oj * stride + idx % window), g)
    return out, dx


def bits(a):
    """The raw bytes of a: equal bits, not just equal values (-0.0, NaN)."""
    return np.ascontiguousarray(a).view(np.uint64).tolist()


# tie-heavy values: small integers and signed zeros, plus the non-finite ones
_POOL_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, np.inf, -np.inf, np.nan]),
    st.floats(-4.0, 4.0))


@st.composite
def pool_cases(draw):
    window, stride = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (draw(st.integers(1, 2)), draw(st.integers(1, 3)),
             draw(st.integers(window, window + 6)), draw(st.integers(window, window + 6)))
    x = draw(st.one_of(arrays(np.float64, shape, elements=_POOL_VALUES),
                       st.just(np.zeros(shape))))
    if draw(st.booleans()):        # channels-last in memory, as conv2d writes it
        x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
    g_shape = (shape[0], shape[1], (shape[2] - window) // stride + 1,
               (shape[3] - window) // stride + 1)
    g = draw(arrays(np.float64, g_shape,
                    elements=st.sampled_from([1.0, -0.5, 3.0, -0.0, 1e-3, np.inf, np.nan])))
    return x, window, stride, g


class TestMaxPoolOracle:
    @settings(max_examples=400, deadline=None)
    @given(case=pool_cases())
    def test_bitwise_equal_to_argmax_reference(self, case):
        x, window, stride, g = case
        want_out, want_dx = maxpool_reference(x, window, stride, g)
        t = Tensor(x, requires_grad=True)
        out = maxpool2d(t, window, stride)
        assert bits(out.data) == bits(want_out)
        with np.errstate(invalid="ignore"):     # inf * 0 in the loss; g is what counts
            weighted_sum(out, g).backward()
        assert bits(t.grad) == bits(want_dx)

    def test_nan_wins_its_window(self):
        x = Tensor(np.array([[[[1.0, 5.0], [np.nan, 7.0]]]]), requires_grad=True)
        out = maxpool2d(x, 2, 2)
        assert np.isnan(out.data).all()
        weighted_sum(out, 1.0).backward()
        np.testing.assert_array_equal(x.grad, [[[[0.0, 0.0], [1.0, 0.0]]]])

    # NaNs of distinct payloads: a window yields the bits of its first NaN
    _NAN_A = np.array([0x7FF8000000000001], np.uint64).view(np.float64)[0]
    _NAN_B = np.array([0xFFF8000000000002], np.uint64).view(np.float64)[0]

    @pytest.mark.parametrize("cells, window, stride", [
        ({(1, 1): _NAN_A}, 2, 2),                       # last offset of its window
        ({(0, 1): _NAN_A, (1, 1): _NAN_B}, 2, 2),       # two NaNs in one window
        ({(2, 3): _NAN_B, (3, 2): _NAN_A}, 3, 1),       # overlapping windows
        ({(4, 0): _NAN_A, (1, 4): _NAN_B}, 2, 2),       # only in the cropped border
        ({(2, 1): np.nan}, 2, 3),                       # in the gap between windows
    ])
    @pytest.mark.parametrize("grad", [False, True])
    def test_nan_placed_late_or_unread(self, cells, window, stride, grad):
        x = np.arange(25.0).reshape(1, 1, 5, 5) % 7
        for (i, j), v in cells.items():
            x[0, 0, i, j] = v
        g = np.linspace(1.0, 2.0, ((5 - window) // stride + 1) ** 2).reshape(
            1, 1, (5 - window) // stride + 1, -1)
        want_out, want_dx = maxpool_reference(x, window, stride, g)
        t = Tensor(x, requires_grad=grad)
        out = maxpool2d(t, window, stride)
        assert bits(out.data) == bits(want_out)
        if grad:
            out._vjp(g)
            assert bits(t.grad) == bits(want_dx)

    def test_output_keeps_channels_last_layout(self):
        x = np.zeros((2, 13, 13, 8)).transpose(0, 3, 1, 2)
        t = Tensor(x, requires_grad=True)
        out = maxpool2d(t, 2, 2)
        assert np.argsort(out.data.strides).tolist() == np.argsort(x.strides).tolist()
        weighted_sum(out, 1.0).backward()
        assert np.argsort(t.grad.strides).tolist() == np.argsort(x.strides).tolist()


class TestDisjointPoolGradient:
    """Where stride >= window no cell takes two terms, and the backward
    writes each window's term once, in place of the zero fill plus one
    masked sum per window offset: the same bits for any g, signed zeros and
    non-finite values included, and when x already holds a gradient."""

    @settings(max_examples=300, deadline=None)
    @given(case=pool_cases().filter(lambda case: case[2] >= case[1]))
    def test_bitwise_equal_to_argmax_reference(self, case):
        x, window, stride, g = case
        t = Tensor(x, requires_grad=True)
        out = maxpool2d(t, window, stride)
        with np.errstate(invalid="ignore"):
            _, want = maxpool_reference(x, window, stride, g)
            out._vjp(g)         # g reaches the op as drawn, -0.0 included
            first = t.grad.copy()
            out._vjp(g)
        assert bits(first) == bits(want)
        assert bits(t.grad) == bits(want + want)


def im2col_reference(x, kh, kw):
    """The sliding_window_view copy that conv2d's gather im2col replaced."""
    win = sliding_window_view(x, (kh, kw), axis=(2, 3))
    n, c, ho, wo = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, c * kh * kw)
    return cols, ho, wo


class TestIm2colOracle:
    @pytest.mark.parametrize("c", [1, 3, 32])
    @pytest.mark.parametrize("channels_last", [False, True])
    def test_gather_equals_window_copy(self, c, channels_last, monkeypatch):
        monkeypatch.setattr(rlab.tensor, "_IM2COL_INDEX", {})
        rng = np.random.default_rng(c)
        keys = set()
        for n, h, w in [(1, 5, 5), (2, 6, 9), (3, 8, 5)]:
            x = rng.normal(size=(n, c, h, w))
            if channels_last:      # as conv2d and maxpool2d write feature maps
                x = np.ascontiguousarray(x.transpose(0, 2, 3, 1)).transpose(0, 3, 1, 2)
            for kh in range(1, 6):
                for kw in range(1, 6):
                    if kh > h or kw > w:
                        continue
                    cols, ho, wo = rlab.tensor._im2col(x, kh, kw)
                    want, want_ho, want_wo = im2col_reference(x, kh, kw)
                    assert (ho, wo) == (want_ho, want_wo)
                    assert cols.flags.c_contiguous and bits(cols) == bits(want)
                    keys.add((c, h, w, kh, kw))
        assert sorted(rlab.tensor._IM2COL_INDEX) == sorted(keys)

    def test_batch_size_is_not_part_of_the_key(self, monkeypatch):
        monkeypatch.setattr(rlab.tensor, "_IM2COL_INDEX", {})
        kern = Tensor(np.ones((4, 2, 3, 3)))
        for n in (1, 5, 1):
            conv2d(Tensor(np.ones((n, 2, 7, 6))), kern)
        index = rlab.tensor._IM2COL_INDEX
        assert list(index) == [(2, 7, 6, 3, 3)] and index[(2, 7, 6, 3, 3)].shape == (5 * 4, 18)


def conv_input_grad_reference(g, kern):
    """The full correlation of the zero-padded output gradient with the
    flipped kernels that conv2d's col2im input gradient replaced."""
    o, c, kh, kw = kern.shape
    gp = np.pad(g, ((0, 0), (0, 0), (kh - 1, kh - 1), (kw - 1, kw - 1)))
    kt = np.ascontiguousarray(kern[:, :, ::-1, ::-1].transpose(1, 0, 2, 3))
    win = sliding_window_view(gp, (kh, kw), axis=(2, 3))
    n, _, ho, wo = win.shape[:4]
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(n * ho * wo, o * kh * kw)
    out = cols @ kt.reshape(c, o * kh * kw).T
    return out.reshape(n, ho, wo, c).transpose(0, 3, 1, 2)


class TestConvInputGradOracle:
    @settings(max_examples=60, deadline=None)
    @given(k=st.integers(1, 5), cin=st.integers(1, 8), cout=st.integers(1, 8),
           n=st.integers(1, 4), extra=st.integers(0, 4), seed=st.integers(0, 10_000))
    def test_col2im_matches_full_correlation(self, k, cin, cout, n, extra, seed):
        rng = np.random.default_rng(seed)
        x = Tensor(rng.normal(size=(n, cin, k + extra, k + extra + 1)), requires_grad=True)
        kern = rng.normal(size=(cout, cin, k, k))
        out = conv2d(x, Tensor(kern))
        g = rng.normal(size=out.data.shape)
        weighted_sum(out, g).backward()
        want = conv_input_grad_reference(g, kern)
        # rtol 1e-12 of the summed magnitudes, so cancellation cannot fail it
        scale = conv_input_grad_reference(np.abs(g), np.abs(kern))
        assert np.all(np.abs(x.grad - want) <= 1e-12 * scale)


class TestLinear:
    def test_single_vector(self):
        w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([0.5, -0.5]))
        out = linear(Tensor(np.array([[1.0, 1.0]])), w, b)
        np.testing.assert_array_equal(out.data, [[3.5, 6.5]])

    def test_batch_broadcasts_bias(self):
        w = Tensor(np.eye(3))
        b = Tensor(np.array([1.0, 2.0, 3.0]))
        out = linear(Tensor(np.zeros((4, 3))), w, b)
        np.testing.assert_array_equal(out.data, np.tile([1.0, 2.0, 3.0], (4, 1)))

    def test_width_mismatch(self):
        with pytest.raises(ShapeError, match="width"):
            linear(Tensor(np.zeros((1, 3))), Tensor(np.zeros((2, 4))), Tensor(np.zeros(2)))


class TestBackward:
    def test_non_scalar_root_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ShapeError):
            x.reshape(1, 3).backward()

    def test_each_node_visited_once(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x.reshape(1, 4)
        z = linear(concat([y, y], axis=1), Tensor(np.full((1, 8), 2.0)), Tensor(np.zeros(1)))
        ids = [id(n) for n in trace(z)]   # diamond: y feeds twice
        assert len(ids) == len(set(ids))
        z.backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 4.0))

    def test_parents_precede_children(self):
        x = Tensor(np.ones(2), requires_grad=True)
        y = x.reshape(1, 2)
        z = linear(y, Tensor(np.full((1, 2), 3.0)), Tensor(np.zeros(1)))
        order = trace(z)
        assert order.index(x) < order.index(y) < order.index(z)

    @pytest.mark.parametrize("owned", [False, True])
    @pytest.mark.parametrize("g_layout", [(0, 1, 2, 3), (0, 2, 3, 1)])
    def test_first_gradient_is_zeros_plus_g_in_the_data_layout(self, owned, g_layout):
        data = np.zeros((2, 4, 3, 2)).transpose(0, 3, 1, 2)      # channels-last [2,2,4,3]
        g = np.random.default_rng(3).normal(size=data.shape)
        g[0, 0] = -0.0
        g = np.ascontiguousarray(g.transpose(g_layout)).transpose(np.argsort(g_layout))
        t = Tensor(data, requires_grad=True)
        t._accum(g.copy(), owned=owned)
        assert bits(t.grad) == bits(np.zeros_like(data) + g)
        assert t.grad.strides == data.strides

    def test_grad_accumulates_across_paths(self):
        x = Tensor(np.array([2.0]), requires_grad=True)
        xm = x.reshape(1, 1)
        out = linear(xm, xm, Tensor(np.zeros(1)))   # d/dx x^2 = 2x, half through each path
        out.backward()
        np.testing.assert_allclose(x.grad, [4.0])

    def test_second_backward_through_a_released_graph_is_rejected(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x.reshape(1, 4)
        z = linear(y, Tensor(np.full((1, 4), 2.0)), Tensor(np.zeros(1)))
        z.backward()
        with pytest.raises(ContractError):
            z.backward()
        with pytest.raises(ContractError):      # a new root over a released node
            linear(y, Tensor(np.ones((1, 4))), Tensor(np.zeros(1))).backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))

    def test_backward_keeps_leaf_grads_and_drops_the_rest(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x.reshape(1, 4)
        z = linear(y, Tensor(np.full((1, 4), 2.0)), Tensor(np.zeros(1)))
        z.backward()
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))
        assert y.grad is None and z.grad is None
        assert y._parents == z._parents == () and y._vjp is z._vjp is None


class TestStepMemory:
    def test_training_steps_hold_one_graph(self):
        # fit's loop: a step's loss stays bound while the next step builds
        # its graph, so backward must leave that loss holding no arrays
        spec = replace(preset_spec("model3"), batch_size=128)
        events = generate_dataset(GeneratorConfig(), 3 * 128, seed=31)
        model = Model(spec, 5)
        opt = make_optimizer(model.parameters(), spec.optimizer)
        clusters, aux, targets = rlab.training.prepare_arrays(spec, events)
        batches = np.arange(len(targets)).reshape(3, 128)
        tracemalloc.start()
        try:
            with rlab.training._one_blas_thread:
                for idx in batches:
                    opt.zero_grad()
                    loss = rlab.training._loss_node(spec, model, clusters, aux, targets, idx)
                    loss.backward()
                    opt.step()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 30e6, f"three steps peaked at {peak / 1e6:.1f} MB"


class TestFiniteDiffOracle:
    """Every layer type in isolation against central differences."""

    def check(self, loss_fn, params, tol=1e-4):
        err = finite_diff_check(loss_fn, params)
        assert err < tol, f"max relative gradient error {err}"

    def test_conv_kernels_and_input(self):
        x = rnd((1, 2, 7, 7), 10)
        k = rnd((3, 2, 3, 3), 11, scale=0.5)
        self.check(lambda: sq_mean(conv2d(x, k)), [x, k])

    def test_maxpool_input(self):
        x = rnd((1, 2, 6, 6), 12)
        self.check(lambda: sq_mean(maxpool2d(x, 2, 2)), [x])

    def test_linear_all_parts(self):
        x = rnd((4, 5), 13)
        w = rnd((3, 5), 14, scale=0.5)
        b = rnd((3,), 15)
        self.check(lambda: sq_mean(linear(x, w, b)), [x, w, b])

    def test_concat_and_arithmetic(self):
        a = rnd((3, 2), 16)
        b = rnd((3, 4), 17)
        self.check(lambda: sq_mean(concat([a, b], axis=1)), [a, b])

    def test_composite_conv_pool_linear(self):
        x = rnd((1, 1, 8, 8), 19)
        k = rnd((4, 1, 3, 3), 20, scale=0.5)
        w = rnd((2, 36), 21, scale=0.3)
        b = rnd((2,), 22)

        def loss():
            h = maxpool2d(conv2d(x, k), 2, 2)
            return sq_mean(linear(h.reshape(1, 36), w, b))
        self.check(loss, [x, k, w, b])

    def test_sampled_subset_agrees_with_full(self):
        w = rnd((6, 6), 23)

        def loss():
            return sq_mean(linear(w, w, Tensor(np.zeros(6))))
        full = finite_diff_check(loss, [w])
        sampled = finite_diff_check(loss, [w], sample_limit=10, seed=1)
        assert sampled <= full + 1e-12

    def test_zero_step_rejected(self):
        w = rnd((2,), 24)
        with pytest.raises(ContractError):
            finite_diff_check(lambda: sq_mean(w), [w], h=0.0)


class TestArithmetic:
    def test_zero_grads(self):
        x = Tensor(np.ones(2), requires_grad=True)
        sq_mean(x).backward()
        assert x.grad is not None
        zero_grads([x])
        assert x.grad is None
