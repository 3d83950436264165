"""Losses, the stop rule, and single-instance training.

An "instance" is one model trained once: spec + init seed + training sample.
The trainer never cherry-picks weights from earlier epochs; the reported loss
is the evaluation-set loss at the epoch training actually stopped, so the
stop rule's behavior is part of what gets measured.
"""

from __future__ import annotations

import ctypes
import functools
import math
import threading
import time
from dataclasses import dataclass, asdict
from typing import Sequence

import numpy as np

from .calo import Dataset, cluster_barycenter, cluster_energy_sum
from .errors import ContractError, DivergenceError, require_counts, require_reals
from .nn import Model, ModelSpec
from .optim import make_optimizer
from .seeding import substream
from .tensor import Tensor, no_grad

EVAL_BATCH = 256


# -- metrics -----------------------------------------------------------------------


def _residual(target: str, pred: np.ndarray, truth: np.ndarray) -> np.ndarray:
    # relative for energy, where truth must avoid zero; absolute for a coordinate
    if pred.shape != truth.shape:
        raise ContractError(f"shape mismatch: {pred.shape} vs {truth.shape}")
    if target != "energy":
        return pred - truth
    if np.any(truth == 0.0):
        raise ContractError("relative error undefined at zero truth")
    return pred / truth - 1.0


def loss_value(target: str, pred: np.ndarray, truth: np.ndarray) -> float:
    """RMS of the error: relative, sqrt(mean(((pred - truth) / truth)^2)), for
    energy, where truth must avoid zero; absolute for a coordinate."""
    r = _residual(target, np.asarray(pred, dtype=np.float64), np.asarray(truth, dtype=np.float64))
    return float(np.sqrt(np.mean(r * r)))


def constant_predictor_loss(target: str, truth: np.ndarray) -> tuple[float, float]:
    """Best constant output and its loss; the floor any useful model must beat.

    Relative loss minimizes mean((c/t - 1)^2), giving c = E[1/t] / E[1/t^2];
    absolute loss minimizes at the plain mean.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if target == "energy":
        inv = 1.0 / truth
        c = inv.mean() / (inv * inv).mean()
    else:
        c = truth.mean()
    return float(c), loss_value(target, np.full_like(truth, c), truth)


# -- stop rule ----------------------------------------------------------------------


@dataclass(frozen=True)
class EarlyStopConfig:
    min_epochs: int = 100
    window: int = 30
    threshold: float = 0.10
    hard_cap: int = 400

    def __post_init__(self):
        require_counts(min_epochs=self.min_epochs, window=self.window, hard_cap=self.hard_cap)
        require_reals(threshold=self.threshold)
        if not self.window >= 1:
            raise ContractError("window must be >= 1")
        if not self.min_epochs >= 1:
            raise ContractError("min_epochs must be >= 1")
        if not self.threshold >= 0.0:      # NaN fails it
            raise ContractError("threshold must be non-negative")
        if not self.hard_cap >= self.min_epochs:
            raise ContractError("hard_cap must be >= min_epochs")

    def to_dict(self) -> dict:
        return asdict(self)


def should_stop(trace: Sequence[float], cfg: EarlyStopConfig) -> bool:
    """True once the last `window` losses spread more than `threshold`, but
    never before min_epochs; always true at hard_cap."""
    n = len(trace)
    if n >= cfg.hard_cap:
        return True
    if n < cfg.min_epochs:
        return False
    tail = trace[-cfg.window:]
    return max(tail) > (1.0 + cfg.threshold) * min(tail)


# -- data plumbing -------------------------------------------------------------------


def prepare_arrays(spec: ModelSpec, ds: Dataset) -> tuple[np.ndarray, np.ndarray | None, np.ndarray]:
    """(clusters [N,1,15,15], aux [N,k] or None, targets [N]) for one spec."""
    n = len(ds)
    clusters = ds.clusters.reshape(n, 1, *ds.clusters.shape[1:])
    if spec.aux == "energy_sum":
        aux = cluster_energy_sum(ds.clusters).reshape(n, 1)
    elif spec.aux == "barycenter":
        aux = cluster_barycenter(ds.clusters)
    else:
        aux = None
    targets = ds.energy if spec.target == "energy" else ds.x
    return clusters, aux, np.asarray(targets, dtype=np.float64)


def evaluate(model: Model, clusters: np.ndarray, aux: np.ndarray | None,
             targets: np.ndarray) -> float:
    """Whole-set loss in fixed-size chunks; chunking keeps the FP order stable.

    The forward passes record no graph, and only in the calling thread.
    """
    n = len(targets)
    preds = np.empty(n)
    with no_grad():
        for start in range(0, n, EVAL_BATCH):
            chunk = slice(start, start + EVAL_BATCH)
            a = Tensor(aux[chunk]) if aux is not None else None
            preds[chunk] = model.forward(Tensor(clusters[chunk]), a).data
    return loss_value(model.spec.target, preds, targets)


# -- BLAS threads -------------------------------------------------------------------

# (get, set) thread-count symbols: numpy's and scipy's wheels rename them
_OPENBLAS_SYMBOLS = (
    ("scipy_openblas_get_num_threads64_", "scipy_openblas_set_num_threads64_"),
    ("scipy_openblas_get_num_threads", "scipy_openblas_set_num_threads"),
    ("openblas_get_num_threads", "openblas_set_num_threads"),
)


@functools.cache
def openblas_thread_controls() -> tuple:
    """(path, get, set) of each OpenBLAS mapped into this process, get and
    set being its thread-count functions; empty under another BLAS or where
    /proc/self/maps is missing.  The maps are read once: every product rlab
    runs is numpy's, and numpy maps its OpenBLAS when it is imported.  A copy
    mapped later (scipy's, at the first sigmoid or gelu) runs none of them."""
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split(None, 5)[5].strip() for line in fh
                            if "openblas" in line.lower()})
    except OSError:
        return ()
    controls = []
    for path in paths:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            get, set_ = getattr(lib, get_name, None), getattr(lib, set_name, None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                controls.append((path, get, set_))
                break
    return tuple(controls)


class _OneBlasThread:
    """Holds every OpenBLAS at one thread while any training runs.

    The thread count decides how OpenBLAS splits a matrix product, which can
    move loss bits, and more threads are slower on the small products here.  The
    count is process-wide: the first training to enter pins every copy, and
    the last to leave restores the caller's counts.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._active = 0
        self._saved: list[tuple] = []       # (set, the caller's count) per copy

    def __enter__(self):
        with self._lock:
            if self._active == 0:
                self._saved = [(set_, get()) for _, get, set_ in openblas_thread_controls()]
                for set_, _ in self._saved:
                    set_(1)
            self._active += 1

    def __exit__(self, *exc):
        with self._lock:
            self._active -= 1
            if self._active == 0:
                for set_, count in self._saved:
                    set_(count)


_one_blas_thread = _OneBlasThread()


@functools.cache
def _keep_freed_heap() -> None:
    """Keep what backward frees in this process's heap: glibc would unmap large
    blocks and trim the heap top at once, and the next batch would fault every
    page in again.  Set by the first training only; a no-op without mallopt."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes, mallopt.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
        mallopt(-3, 32 << 20)       # M_MMAP_THRESHOLD
        mallopt(-1, 1 << 30)        # M_TRIM_THRESHOLD


# -- the trainer ----------------------------------------------------------------------


@dataclass
class TrainedInstance:
    """One training run's full story, loss trace included."""

    spec_id: str
    spec_name: str
    init_seed: int
    data_seed: int | None
    loss_trace: list[float]
    stop_epoch: int
    final_test_loss: float
    diverged: bool
    wall_time: float

    def to_record(self) -> dict:
        # an allow-list, not asdict: a field reaches instance.json only when
        # named here, so wall_time (and any later timing) keeps reports bit-reproducible
        return {
            "spec_id": self.spec_id,
            "spec_name": self.spec_name,
            "init_seed": self.init_seed,
            "data_seed": self.data_seed,
            "stop_epoch": self.stop_epoch,
            "final_test_loss": self.final_test_loss,
            "diverged": self.diverged,
            "loss_trace": list(self.loss_trace),
        }


def _loss_node(spec: ModelSpec, model: Model, clusters: np.ndarray,
               aux: np.ndarray | None, targets: np.ndarray, idx: np.ndarray) -> Tensor:
    """loss_value of one minibatch as one graph node.  Its vjp keeps the bits
    of the chain (r * r).mean().sqrt() that 0.3.0 taped, in that chain's order:
    sqrt, mean, the square's two equal terms, then energy's division by t."""
    a = Tensor(aux[idx]) if aux is not None else None
    pred = model.forward(Tensor(clusters[idx]), a)
    t = targets[idx]
    r = _residual(spec.target, pred.data, t)
    loss = np.sqrt(np.mean(r * r))

    def vjp(g, pred=pred):
        u = g * 0.5 / loss * (1.0 / r.size) * r
        u += u
        if spec.target == "energy":
            u /= t
        pred._accum(u, owned=True)
    return Tensor._result(loss, (pred,), "loss", vjp)


def fit(model: Model, train_arrays, eval_arrays, stop: EarlyStopConfig,
        shuffle_rng: np.random.Generator) -> tuple[list[float], bool]:
    """Epoch loop shared by the trainer and the bias-only oracle tests.

    Returns (eval-loss trace, diverged flag).  Minibatches hold the spec's
    batch_size events; the final partial batch of an epoch is kept.
    """
    clusters, aux, targets = train_arrays
    e_clusters, e_aux, e_targets = eval_arrays
    opt = make_optimizer(model.parameters(), model.spec.optimizer)
    n, batch_size = len(targets), model.spec.batch_size
    trace: list[float] = []
    # blown-up runs are reported through the diverged flag, not as FP warnings
    with np.errstate(over="ignore", invalid="ignore"):
        while True:
            perm = shuffle_rng.permutation(n)
            for start in range(0, n, batch_size):
                idx = perm[start:start + batch_size]
                opt.zero_grad()
                loss = _loss_node(model.spec, model, clusters, aux, targets, idx)
                if not math.isfinite(loss.item()):
                    trace.append(math.inf)
                    return trace, True
                loss.backward()
                try:
                    opt.step()
                except DivergenceError:
                    trace.append(math.inf)
                    return trace, True
            epoch_loss = evaluate(model, e_clusters, e_aux, e_targets)
            if not math.isfinite(epoch_loss):
                trace.append(math.inf)
                return trace, True
            trace.append(epoch_loss)
            if should_stop(trace, stop):
                return trace, False


def train_instance(spec: ModelSpec, train_set: Dataset, eval_set: Dataset,
                   init_seed: int, stop: EarlyStopConfig | None = None,
                   data_seed: int | None = None) -> TrainedInstance:
    """Train one instance to the stop rule and score it on eval_set.

    The minibatch order draws from the init substream, so it counts as
    initialization-side stochasticity.
    """
    stop = stop or EarlyStopConfig()
    _keep_freed_heap()
    t0 = time.perf_counter()
    model = Model(spec, init_seed)
    with _one_blas_thread:
        trace, diverged = fit(
            model,
            prepare_arrays(spec, train_set),
            prepare_arrays(spec, eval_set),
            stop,
            substream(init_seed, "shuffle"),
        )
    wall = time.perf_counter() - t0
    return TrainedInstance(
        spec_id=spec.spec_id(),
        spec_name=spec.name,
        init_seed=int(init_seed),
        data_seed=None if data_seed is None else int(data_seed),
        loss_trace=trace,
        stop_epoch=len(trace),
        final_test_loss=math.inf if diverged else trace[-1],
        diverged=diverged,
        wall_time=wall,
    )
