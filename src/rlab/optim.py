"""Gradient-descent update rules.

All state lives in per-parameter float64 buffers.  Regularization enters one
of two ways and never both: `l2` couples into the gradient before the update
rule, `weight_decay` shrinks the parameter after the adaptive step and is
only meaningful for AdamW.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import CatalogueError, ContractError, DivergenceError
from .tensor import Tensor

KINDS = ("sgd", "adam", "adamw", "adagrad", "rmsprop", "adadelta", "nadam")


@dataclass(frozen=True)
class OptimizerConfig:
    """Self-describing update-rule settings; serialized into every report."""

    kind: str
    learning_rate: float = 0.001
    l2: float = 0.0
    weight_decay: float = 0.0
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    rms_decay: float = 0.99
    rho: float = 0.9

    def __post_init__(self):
        if self.kind not in KINDS:
            raise CatalogueError(f"unknown optimizer kind {self.kind!r}, expected one of {KINDS}")
        if self.learning_rate <= 0.0:
            raise ContractError("learning_rate must be positive")
        if self.l2 < 0.0 or self.weight_decay < 0.0:
            raise ContractError("regularization strengths must be non-negative")
        if self.kind == "adamw":
            if self.l2 != 0.0:
                raise ContractError("adamw regularizes via weight_decay, not l2")
        elif self.weight_decay != 0.0:
            raise ContractError(f"{self.kind} regularizes via l2; weight_decay is adamw-only")

    def to_dict(self) -> dict:
        # the fields in declaration order, as dataclasses.asdict gives them,
        # without its recursive deep copy of values that are all scalars
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}


_CONFIG_FIELDS = tuple(f.name for f in fields(OptimizerConfig))


class Optimizer:
    """Base: gradient fetch, finiteness check, coupled L2."""

    def __init__(self, params: Sequence[Tensor], cfg: OptimizerConfig):
        self.params = list(params)
        self.cfg = cfg
        self.t = 0

    def zero_grad(self) -> None:
        for p in self.params:
            p.grad = None

    def _gradient(self, i: int) -> np.ndarray:
        p = self.params[i]
        g = p.grad if p.grad is not None else np.zeros_like(p.data)
        if not np.all(np.isfinite(g)):
            raise DivergenceError(i, "gradient")
        if self.cfg.l2 != 0.0:
            g = g + self.cfg.l2 * p.data
        return g

    def step(self) -> None:
        self.t += 1
        for i, p in enumerate(self.params):
            self._update(i, p, self._gradient(i))

    def _update(self, i: int, p: Tensor, g: np.ndarray) -> None:
        raise NotImplementedError


class SGD(Optimizer):
    def _update(self, i, p, g):
        p.data -= self.cfg.learning_rate * g


class Adam(Optimizer):
    def __init__(self, params, cfg):
        super().__init__(params, cfg)
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]

    def _adaptive_delta(self, i, g):
        c = self.cfg
        self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g
        self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g
        m_hat = self.m[i] / (1.0 - c.beta1 ** self.t)
        v_hat = self.v[i] / (1.0 - c.beta2 ** self.t)
        return -c.learning_rate * m_hat / (np.sqrt(v_hat) + c.epsilon)

    def _update(self, i, p, g):
        p.data += self._adaptive_delta(i, g)


class AdamW(Adam):
    """Adam with the decay applied to the weights, outside the moments."""

    def _update(self, i, p, g):
        delta = self._adaptive_delta(i, g)
        p.data += delta
        p.data -= self.cfg.learning_rate * self.cfg.weight_decay * p.data


class AdaGrad(Optimizer):
    def __init__(self, params, cfg):
        super().__init__(params, cfg)
        self.gsq = [np.zeros_like(p.data) for p in self.params]

    def _update(self, i, p, g):
        self.gsq[i] += g * g
        p.data -= self.cfg.learning_rate * g / (np.sqrt(self.gsq[i]) + self.cfg.epsilon)


class RMSprop(Optimizer):
    def __init__(self, params, cfg):
        super().__init__(params, cfg)
        self.v = [np.zeros_like(p.data) for p in self.params]

    def _update(self, i, p, g):
        c = self.cfg
        self.v[i] = c.rms_decay * self.v[i] + (1.0 - c.rms_decay) * g * g
        p.data -= c.learning_rate * g / (np.sqrt(self.v[i]) + c.epsilon)


class Adadelta(Optimizer):
    """Learning rate is ignored; step scale adapts from the update history."""

    def __init__(self, params, cfg):
        super().__init__(params, cfg)
        self.eg = [np.zeros_like(p.data) for p in self.params]
        self.ed = [np.zeros_like(p.data) for p in self.params]

    def _update(self, i, p, g):
        c = self.cfg
        self.eg[i] = c.rho * self.eg[i] + (1.0 - c.rho) * g * g
        delta = -np.sqrt(self.ed[i] + c.epsilon) / np.sqrt(self.eg[i] + c.epsilon) * g
        self.ed[i] = c.rho * self.ed[i] + (1.0 - c.rho) * delta * delta
        p.data += delta


class NAdam(Adam):
    """Adam with a Nesterov-corrected first moment, constant momentum schedule."""

    def _update(self, i, p, g):
        c = self.cfg
        self.m[i] = c.beta1 * self.m[i] + (1.0 - c.beta1) * g
        self.v[i] = c.beta2 * self.v[i] + (1.0 - c.beta2) * g * g
        m_bar = (c.beta1 * self.m[i] / (1.0 - c.beta1 ** (self.t + 1))
                 + (1.0 - c.beta1) * g / (1.0 - c.beta1 ** self.t))
        v_hat = self.v[i] / (1.0 - c.beta2 ** self.t)
        p.data -= c.learning_rate * m_bar / (np.sqrt(v_hat) + c.epsilon)


_REGISTRY = {
    "sgd": SGD,
    "adam": Adam,
    "adamw": AdamW,
    "adagrad": AdaGrad,
    "rmsprop": RMSprop,
    "adadelta": Adadelta,
    "nadam": NAdam,
}

# Learning rates here are tuned for unit-scale objectives, used by the
# convergence checks and as starting points for hand-rolled experiments.
_DEFAULT_LR = {
    "sgd": 0.1,
    "adam": 0.05,
    "adamw": 0.05,
    "adagrad": 0.5,
    "rmsprop": 0.02,
    "adadelta": 1.0,
    "nadam": 0.05,
}


def default_config(kind: str) -> OptimizerConfig:
    """Per-kind defaults that behave on unit-scale problems."""
    if kind not in KINDS:
        raise CatalogueError(f"unknown optimizer kind {kind!r}")
    epsilon = 1e-6 if kind == "adadelta" else 1e-8
    return OptimizerConfig(kind=kind, learning_rate=_DEFAULT_LR[kind], epsilon=epsilon)


def make_optimizer(params: Sequence[Tensor], cfg: OptimizerConfig) -> Optimizer:
    return _REGISTRY[cfg.kind](params, cfg)
