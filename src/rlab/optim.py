"""Gradient-descent update rules.

All state lives in per-parameter float64 buffers.  Regularization enters one
of two ways and never both: `l2` couples into the gradient before the update
rule, `weight_decay` shrinks the parameter after the adaptive step and is
only meaningful for AdamW.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .errors import CatalogueError, ContractError, DivergenceError, require_reals
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
        require_reals(**{name: getattr(self, name) for name in _CONFIG_FIELDS[1:]})
        # positive forms throughout, so that NaN fails each check
        if not self.learning_rate > 0.0:
            raise ContractError("learning_rate must be positive")
        if not (self.l2 >= 0.0 and self.weight_decay >= 0.0):
            raise ContractError("regularization strengths must be non-negative")
        if not all(0.0 <= b < 1.0 for b in (self.beta1, self.beta2, self.rms_decay, self.rho)):
            raise ContractError("beta1, beta2, rms_decay and rho must be in [0, 1)")
        if not self.epsilon > 0.0:
            raise ContractError("epsilon must be positive")
        if self.kind == "adamw":
            if self.l2 != 0.0:
                raise ContractError("adamw regularizes via weight_decay, not l2")
        elif self.weight_decay != 0.0:
            raise ContractError(f"{self.kind} regularizes via l2; weight_decay is adamw-only")

    def to_dict(self) -> dict:
        # the fields in declaration order, as dataclasses.asdict gives them,
        # without its recursive deep copy of values that are all scalars
        return {name: getattr(self, name) for name in _CONFIG_FIELDS}

    def to_json(self) -> str:
        """json.dumps(to_dict(), sort_keys=True), computed once per instance.
        Not per equal config: 0.0 == -0.0, but their JSON differs."""
        text = self.__dict__.get("_json")
        if text is None:
            text = json.dumps(self.to_dict(), sort_keys=True)
            object.__setattr__(self, "_json", text)
        return text


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
            raise DivergenceError(f"non-finite gradient at parameter {i}")
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

    # The moments are updated in place, and each expression's operations run
    # in the order of its plain form (noted beside it), so the bits are its bits.

    def _moments(self, i, g):
        """The updated moments m, v of parameter i."""
        c, m, v = self.cfg, self.m[i], self.v[i]
        m *= c.beta1                # m = beta1 * m + (1 - beta1) * g
        m += (1.0 - c.beta1) * g
        v *= c.beta2                # v = beta2 * v + (1 - beta2) * g * g
        gg = (1.0 - c.beta2) * g
        gg *= g
        v += gg
        return m, v

    def _denominator(self, v):
        """np.sqrt(v_hat) + epsilon, v_hat = v / (1 - beta2 ** t), in a new array."""
        c = self.cfg
        d = v / (1.0 - c.beta2 ** self.t)
        np.sqrt(d, out=d)
        d += c.epsilon
        return d

    def _adaptive_delta(self, i, g):
        m, v = self._moments(i, g)
        # -lr * m_hat / (np.sqrt(v_hat) + epsilon), m_hat = m / (1 - beta1 ** t)
        delta = m / (1.0 - self.cfg.beta1 ** self.t)
        delta *= -self.cfg.learning_rate
        delta /= self._denominator(v)
        return delta

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
        m, v = self._moments(i, g)
        # m_bar = beta1 * m / (1 - beta1 ** (t + 1)) + (1 - beta1) * g / (1 - beta1 ** t)
        m_bar = c.beta1 * m
        m_bar /= 1.0 - c.beta1 ** (self.t + 1)
        fresh = (1.0 - c.beta1) * g
        fresh /= 1.0 - c.beta1 ** self.t
        m_bar += fresh
        m_bar *= c.learning_rate    # lr * m_bar / (np.sqrt(v_hat) + epsilon)
        m_bar /= self._denominator(v)
        p.data -= m_bar


_REGISTRY = {
    "sgd": SGD,
    "adam": Adam,
    "adamw": AdamW,
    "adagrad": AdaGrad,
    "rmsprop": RMSprop,
    "adadelta": Adadelta,
    "nadam": NAdam,
}


def make_optimizer(params: Sequence[Tensor], cfg: OptimizerConfig) -> Optimizer:
    return _REGISTRY[cfg.kind](params, cfg)
