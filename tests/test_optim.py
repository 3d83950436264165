"""Update rules against hand-derived closed forms and convergence properties.

Expected values are computed inline with plain python arithmetic so the
package's numpy path is checked against an independent route.
"""

import numpy as np
import pytest

from rlab.errors import CatalogueError, ContractError, DivergenceError
from oracles import default_config
from rlab.optim import KINDS, OptimizerConfig, make_optimizer
from rlab.tensor import Tensor


def param(value):
    return Tensor(np.atleast_1d(np.asarray(value, dtype=float)), requires_grad=True)


def do_step(kind, w0, grads, **cfg_kw):
    """Run len(grads) steps with the given constant-per-step gradients."""
    p = param(w0)
    opt = make_optimizer([p], OptimizerConfig(kind=kind, **cfg_kw))
    for g in grads:
        p.grad = np.atleast_1d(np.asarray(g, dtype=float))
        opt.step()
    return float(p.data[0])


class TestSingleStepClosedForms:
    def test_sgd(self):
        assert do_step("sgd", 1.0, [2.0], learning_rate=0.1) == pytest.approx(0.8, abs=1e-15)

    def test_sgd_coupled_l2(self):
        # effective gradient 2 + 0.5*1 = 2.5
        got = do_step("sgd", 1.0, [2.0], learning_rate=0.1, l2=0.5)
        assert got == pytest.approx(1.0 - 0.1 * 2.5, abs=1e-15)

    def test_adam_first_step(self):
        # m=0.1, v=0.001; bias correction makes m_hat=1, v_hat=1 exactly at t=1
        got = do_step("adam", 0.0, [1.0], learning_rate=0.001)
        expected = -0.001 * 1.0 / (1.0 + 1e-8)
        assert got == pytest.approx(expected, abs=1e-18)

    def test_adam_second_step(self):
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.001
        g1, g2 = 1.0, 0.5
        m = (1 - b1) * g1
        v = (1 - b2) * g1 * g1
        w = -lr * (m / (1 - b1)) / ((v / (1 - b2)) ** 0.5 + eps)
        m = b1 * m + (1 - b1) * g2
        v = b2 * v + (1 - b2) * g2 * g2
        w = w - lr * (m / (1 - b1 ** 2)) / ((v / (1 - b2 ** 2)) ** 0.5 + eps)
        got = do_step("adam", 0.0, [g1, g2], learning_rate=lr)
        assert got == pytest.approx(w, abs=1e-16)

    def test_adamw_decay_after_adaptive_step(self):
        lr, wd = 0.001, 0.01
        adaptive = 0.5 - lr * 1.0 / (1.0 + 1e-8)
        expected = adaptive - lr * wd * adaptive
        got = do_step("adamw", 0.5, [1.0], learning_rate=lr, weight_decay=wd)
        assert got == pytest.approx(expected, abs=1e-16)

    def test_adagrad(self):
        got = do_step("adagrad", 1.0, [2.0], learning_rate=0.1)
        assert got == pytest.approx(1.0 - 0.1 * 2.0 / (2.0 + 1e-8), abs=1e-16)

    def test_adagrad_accumulates(self):
        lr, eps = 0.1, 1e-8
        gsq = 2.0 * 2.0
        w = 1.0 - lr * 2.0 / (gsq ** 0.5 + eps)
        gsq += 1.0
        w = w - lr * 1.0 / (gsq ** 0.5 + eps)
        got = do_step("adagrad", 1.0, [2.0, 1.0], learning_rate=lr)
        assert got == pytest.approx(w, abs=1e-16)

    def test_rmsprop(self):
        # v = 0.01*4 = 0.04 with decay 0.99
        got = do_step("rmsprop", 1.0, [2.0], learning_rate=0.01)
        assert got == pytest.approx(1.0 - 0.01 * 2.0 / (0.04 ** 0.5 + 1e-8), abs=1e-16)

    def test_adadelta(self):
        rho, eps = 0.9, 1e-6
        eg = (1 - rho) * 4.0
        delta = -((0.0 + eps) ** 0.5) / ((eg + eps) ** 0.5) * 2.0
        got = do_step("adadelta", 1.0, [2.0], learning_rate=1.0, epsilon=eps)
        assert got == pytest.approx(1.0 + delta, abs=1e-18)

    def test_nadam_first_step(self):
        b1, b2, eps, lr, g = 0.9, 0.999, 1e-8, 0.002, 0.5
        m = (1 - b1) * g
        v = (1 - b2) * g * g
        m_bar = b1 * m / (1 - b1 ** 2) + (1 - b1) * g / (1 - b1)
        v_hat = v / (1 - b2)
        expected = 0.3 - lr * m_bar / (v_hat ** 0.5 + eps)
        got = do_step("nadam", 0.3, [g], learning_rate=lr)
        assert got == pytest.approx(expected, abs=1e-16)

    def test_nadam_differs_from_adam(self):
        a = do_step("adam", 0.3, [0.5, 0.2], learning_rate=0.002)
        n = do_step("nadam", 0.3, [0.5, 0.2], learning_rate=0.002)
        assert a != n


class TestRegularizationRouting:
    def test_adam_equals_adamw_when_unregularized(self):
        rng = np.random.default_rng(5)
        w0 = rng.normal(size=8)
        pa, pw = param(w0), param(w0)
        oa = make_optimizer([pa], OptimizerConfig("adam", learning_rate=0.01))
        ow = make_optimizer([pw], OptimizerConfig("adamw", learning_rate=0.01))
        for _ in range(50):
            g = rng.normal(size=8)
            pa.grad, pw.grad = g.copy(), g.copy()
            oa.step()
            ow.step()
            np.testing.assert_allclose(pa.data, pw.data, rtol=0, atol=1e-12)

    def test_adamw_zero_gradient_pure_shrink(self):
        lr, wd = 0.01, 0.1
        got = do_step("adamw", 2.0, [0.0], learning_rate=lr, weight_decay=wd)
        assert got == pytest.approx(2.0 * (1.0 - lr * wd), abs=1e-15)

    def test_coupled_l2_differs_from_decoupled(self):
        # same strength, zero gradient: L2 routes through the adaptive scaler,
        # decay shrinks directly; trajectories must not coincide
        a = do_step("adam", 2.0, [0.0, 0.0], learning_rate=0.01, l2=0.1)
        w = do_step("adamw", 2.0, [0.0, 0.0], learning_rate=0.01, weight_decay=0.1)
        assert abs(a - w) > 1e-6

    def test_adamw_rejects_l2(self):
        with pytest.raises(ContractError):
            OptimizerConfig("adamw", learning_rate=0.01, l2=0.1)

    def test_others_reject_weight_decay(self):
        for kind in ("sgd", "adam", "adagrad", "rmsprop", "adadelta", "nadam"):
            with pytest.raises(ContractError):
                OptimizerConfig(kind, learning_rate=0.01, weight_decay=0.1)

    def test_unknown_kind(self):
        with pytest.raises(CatalogueError):
            OptimizerConfig("momentum", learning_rate=0.01)


class TestAdadeltaIgnoresLearningRate:
    def test_two_rates_same_trajectory(self):
        grads = list(np.random.default_rng(9).normal(size=20))
        a = do_step("adadelta", 1.0, grads, learning_rate=0.001)
        b = do_step("adadelta", 1.0, grads, learning_rate=10.0)
        assert a == b


class TestQuadraticConvergence:
    """f(w) = ||w - w*||^2 from unit distance must drop >= 90% in 200 steps."""

    W_STAR = np.array([0.6, -0.8])

    @pytest.mark.parametrize("kind", KINDS)
    def test_reduces_ninety_percent(self, kind):
        w = Tensor(np.zeros(2), requires_grad=True)
        opt = make_optimizer([w], default_config(kind))
        for _ in range(200):
            opt.zero_grad()
            w.grad = 2.0 * (w.data - self.W_STAR)
            opt.step()
        f = float(((w.data - self.W_STAR) ** 2).sum())
        assert f <= 0.1, f"{kind}: f after 200 steps = {f}"


class TestStateAndErrors:
    def test_nan_gradient_raises_with_index(self):
        p0, p1 = param(1.0), param(1.0)
        opt = make_optimizer([p0, p1], OptimizerConfig("sgd", learning_rate=0.1))
        p0.grad = np.array([0.0])
        p1.grad = np.array([np.nan])
        with pytest.raises(DivergenceError, match=r"^non-finite gradient at parameter 1$"):
            opt.step()

    def test_inf_gradient_raises(self):
        p = param(1.0)
        opt = make_optimizer([p], OptimizerConfig("adam", learning_rate=0.1))
        p.grad = np.array([np.inf])
        with pytest.raises(DivergenceError):
            opt.step()

    def test_missing_gradient_treated_as_zero(self):
        p = param(3.0)
        opt = make_optimizer([p], OptimizerConfig("sgd", learning_rate=0.1))
        opt.step()
        assert p.data[0] == 3.0

    def test_step_deterministic(self):
        def run():
            p = param(np.arange(4.0))
            opt = make_optimizer([p], OptimizerConfig("rmsprop", learning_rate=0.01))
            for t in range(10):
                p.grad = np.sin(np.arange(4.0) + t)
                opt.step()
            return p.data.copy()
        assert np.array_equal(run(), run())

    def test_zero_grad_clears(self):
        p = param(1.0)
        opt = make_optimizer([p], OptimizerConfig("sgd", learning_rate=0.1))
        p.grad = np.array([1.0])
        opt.zero_grad()
        assert p.grad is None

    def test_config_round_trip(self):
        cfg = OptimizerConfig("adamw", learning_rate=0.001, weight_decay=0.1)
        assert OptimizerConfig(**cfg.to_dict()) == cfg


class TestAdaptiveBitsUnchanged:
    """Adam, AdamW and NAdam update their moments in place; each step must
    give the bits of the plain expressions below, operation for operation."""

    @staticmethod
    def reference(kind, cfg, w, grads):
        """The weights after each step."""
        m, v = np.zeros_like(w), np.zeros_like(w)
        for t, g in enumerate(grads, 1):
            if cfg.l2 != 0.0:
                g = g + cfg.l2 * w
            m = cfg.beta1 * m + (1.0 - cfg.beta1) * g
            v = cfg.beta2 * v + (1.0 - cfg.beta2) * g * g
            v_hat = v / (1.0 - cfg.beta2 ** t)
            if kind == "nadam":
                m_bar = (cfg.beta1 * m / (1.0 - cfg.beta1 ** (t + 1))
                         + (1.0 - cfg.beta1) * g / (1.0 - cfg.beta1 ** t))
                w = w - cfg.learning_rate * m_bar / (np.sqrt(v_hat) + cfg.epsilon)
            else:
                m_hat = m / (1.0 - cfg.beta1 ** t)
                w = w + -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + cfg.epsilon)
                if kind == "adamw":
                    w = w - cfg.learning_rate * cfg.weight_decay * w
            yield w

    @pytest.mark.parametrize("kind, reg", [("adam", {}), ("adam", {"l2": 0.03}),
                                           ("adamw", {"weight_decay": 0.1}),
                                           ("nadam", {}), ("nadam", {"l2": 0.01})])
    def test_steps_match_the_plain_expressions(self, kind, reg):
        rng = np.random.default_rng(3)
        cfg = OptimizerConfig(kind, learning_rate=0.01, beta1=0.85, beta2=0.99, **reg)
        w0 = rng.normal(size=(40, 25))
        grads = [rng.normal(size=w0.shape) * 10.0 ** rng.integers(-6, 3) for _ in range(5)]
        grads[2][0, 0] = 0.0
        p = Tensor(w0.copy(), requires_grad=True)
        opt = make_optimizer([p], cfg)
        for g, want in zip(grads, self.reference(kind, cfg, w0, grads)):
            p.grad = g
            opt.step()
            assert p.data.view(np.uint64).tolist() == want.view(np.uint64).tolist()
