"""Reference implementations the tests check rlab against.

Nothing in `src/rlab` or perfbench reads these: two scalar graph nodes that
drive a backward pass, the gradient oracle, the scalar activation catalogue,
parameter counts, unit-scale optimizer settings, whole-dataset evaluation, a
fixed train/test split and the one-event shower model.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from rlab.calo import _COORDS, KIND_B_RATE, Dataset, GeneratorConfig
from rlab.errors import CatalogueError, ContractError
from rlab.nn import _INV_SQRT2, ACTIVATIONS, LEAKY_SLOPE, PRELU_INIT, Model, ModelSpec
from rlab.optim import KINDS, OptimizerConfig
from rlab.seeding import substream
from rlab.tensor import Tensor
from rlab.training import evaluate, prepare_arrays


def sq_mean(t: Tensor) -> Tensor:
    """mean(t * t) as one node: a smooth scalar loss over any tensor."""
    def vjp(g, t=t):
        t._accum(g * (2.0 / t.data.size) * t.data)
    return Tensor._result(np.mean(t.data * t.data), (t,), "sq_mean", vjp)


def weighted_sum(t: Tensor, g) -> Tensor:
    """sum(t * g) as one node, g a constant of t's shape (or a number):
    backward hands t the output gradient 1.0 * g, which has g's bits."""
    g = np.broadcast_to(np.asarray(g, dtype=np.float64), t.data.shape)

    def vjp(root, t=t):
        t._accum(root * g)
    return Tensor._result(np.sum(t.data * g), (t,), "weighted_sum", vjp)


# -- gradient oracle ---------------------------------------------------------------


def zero_grads(params: Sequence[Tensor]) -> None:
    for p in params:
        p.grad = None


def finite_diff_check(loss_fn: Callable[[], Tensor], params: Sequence[Tensor],
                      h: float = 1e-5, sample_limit: int | None = None,
                      seed: int = 0) -> float:
    """Compare autograd against central finite differences.

    loss_fn rebuilds the scalar loss from the current parameter values on
    every call.  Returns max over checked entries of
    |g_auto - g_fd| / max(|g_fd|, 1e-8).

    sample_limit caps the entries checked per parameter tensor (deterministic
    choice per seed); None checks every entry.
    """
    if h <= 0.0:
        raise ContractError("step h must be positive")
    zero_grads(params)
    loss = loss_fn()
    loss.backward()
    autos = []
    for i, p in enumerate(params):
        if not p.requires_grad:
            raise ContractError(f"parameter {i} does not require grad")
        autos.append(np.zeros_like(p.data) if p.grad is None else p.grad.copy())

    rng = np.random.default_rng(seed)
    worst = 0.0
    for p, ga in zip(params, autos):
        flat = p.data.reshape(-1)
        n = flat.size
        if sample_limit is not None and n > sample_limit:
            coords = np.sort(rng.choice(n, size=sample_limit, replace=False))
        else:
            coords = np.arange(n)
        ga_flat = ga.reshape(-1)
        for j in coords:
            orig = flat[j]
            flat[j] = orig + h
            f_plus = loss_fn().item()
            flat[j] = orig - h
            f_minus = loss_fn().item()
            flat[j] = orig
            g_fd = (f_plus - f_minus) / (2.0 * h)
            rel = abs(ga_flat[j] - g_fd) / max(abs(g_fd), 1e-8)
            if rel > worst:
                worst = rel
    zero_grads(params)
    return worst


# -- models ------------------------------------------------------------------------


def activation_value(kind: str, x: float, slope: float = PRELU_INIT) -> float:
    """Scalar reference evaluation of one catalogue entry."""
    if kind == "sigmoid":
        return 1.0 / (1.0 + math.exp(-x))
    if kind == "tanh":
        return math.tanh(x)
    if kind == "relu":
        return max(0.0, x)
    if kind == "leaky_relu":
        return x if x > 0.0 else LEAKY_SLOPE * x
    if kind == "prelu":
        return x if x > 0.0 else slope * x
    if kind == "elu":
        return x if x > 0.0 else math.exp(x) - 1.0
    if kind == "gelu":
        return x * 0.5 * (1.0 + math.erf(x * _INV_SQRT2))
    raise CatalogueError(f"unknown activation {kind!r}, expected one of {ACTIVATIONS}")


def param_count(spec: ModelSpec) -> int:
    """Trainable scalars: conv kernels, fc weights+biases, learnable slopes."""
    return sum(p.data.size for p in Model(spec, 0).parameters())


# -- optimizers --------------------------------------------------------------------

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


# -- data --------------------------------------------------------------------------


def evaluate_on(model: Model, ds: Dataset) -> float:
    clusters, aux, targets = prepare_arrays(model.spec, ds)
    return evaluate(model, clusters, aux, targets)


def split_fixed(dataset: Dataset, ratio: float = 0.5, seed: int = 0) -> tuple[Dataset, Dataset]:
    """Disjoint, exhaustive shuffle-split; half rounds up to the first part."""
    if not 0.0 < ratio < 1.0:
        raise ContractError("ratio must be strictly between 0 and 1")
    n = len(dataset)
    perm = substream(seed, "split").permutation(n)
    n_first = int(np.floor(n * ratio + 0.5))
    if n_first == 0 or n_first == n:
        raise ContractError(f"split of {n} events at ratio {ratio} leaves one side empty")
    return dataset.take(perm[:n_first]), dataset.take(perm[n_first:])


# -- one event at a time ------------------------------------------------------------


def profile_weights(sx: float, sy: float, cfg: GeneratorConfig) -> np.ndarray:
    # midpoint evaluation of the lateral density on cell centers, normalized
    dx = _COORDS[None, :] - sx
    dy = _COORDS[:, None] - sy
    r = np.sqrt(dx * dx + dy * dy)
    w = (cfg.core_fraction * np.exp(-r / cfg.core_width)
         + (1.0 - cfg.core_fraction) * np.exp(-r / cfg.halo_width))
    return w / w.sum()


def generate_event(cfg: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    """One event row from the given stream, drawn and computed one value at
    a time: the reference the blocked generate_dataset is checked against."""
    lo, hi = cfg.energy_range
    x = rng.uniform(-0.5, 0.5)
    y = rng.uniform(-0.5, 0.5)
    if cfg.dataset_kind == "A":
        energy = rng.uniform(lo, hi)
        theta_x = theta_y = 0.0
    else:
        u = rng.uniform(0.0, 1.0)
        span = hi - lo
        energy = lo - np.log(1.0 - u * (1.0 - np.exp(-KIND_B_RATE * span))) / KIND_B_RATE
        amplitude = cfg.angle_bound * (1.0 - energy / hi)
        theta_x = amplitude * rng.uniform(-1.0, 1.0)
        theta_y = amplitude * rng.uniform(-1.0, 1.0)
    xi = rng.normal()

    sx = x + cfg.shower_depth * np.tan(theta_x)
    sy = y + cfg.shower_depth * np.tan(theta_y)
    weights = profile_weights(sx, sy, cfg)

    sigma_rel = np.hypot(cfg.resolution_a / np.sqrt(energy), cfg.noise_b)
    factor = 1.0 + sigma_rel * xi
    cluster = np.maximum(0.0, cfg.containment_fraction * energy * factor * weights)
    return np.concatenate([cluster.ravel(), [energy, x, y, theta_x, theta_y]])


def generate_events(cfg: GeneratorConfig, n: int, seed: int) -> np.ndarray:
    """generate_dataset's event rows [n, 230], one event at a time."""
    return np.array([generate_event(cfg, substream(seed, "event", i)) for i in range(n)])
