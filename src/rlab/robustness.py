"""Robustness over instance ensembles and budgeted model selection.

A model spec is never judged by one training run.  It gets k instances, each
retrained under controlled randomness (weight init, training sample, or both),
and a summary statistic of the instance losses stands in for the model's
quality.  Selection repeatedly grows every survivor's ensemble by one instance
and lets a removal policy cut the field, so weak specs never receive the full
training budget.
"""

from __future__ import annotations

import contextlib
import math
import multiprocessing
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from itertools import zip_longest
from typing import Callable, Iterator, Sequence

import numpy as np

from .calo import Dataset, bootstrap_sample, subsample
from .errors import ContractError, WorkerLostError, require_counts, require_reals, require_seeds
from .nn import ModelSpec
from .seeding import substream_seed
from .training import EarlyStopConfig, TrainedInstance, _one_blas_thread, train_instance

RANDOMIZATION_MODES = ("fixed_data_random_init", "random_data_fixed_init", "both_random")

# the statistics a robustness record carries, in report column order
STAT_KEYS = ("mean", "median", "min", "max", "std", "q1", "q3", "iqr")


def _checked(losses: Sequence[float] | np.ndarray, rows: bool = False) -> np.ndarray:
    """The losses as a C-ordered float64 array, flat or, with rows, one loss
    multiset per row; each must be real or +inf."""
    arr = np.asarray(losses, dtype=np.float64, order="C")
    if arr.ndim not in ((1, 2) if rows else (1,)) or arr.size == 0:
        raise ContractError(f"need a non-empty flat list of losses"
                            f"{' or rows of them' if rows else ''}, got shape {arr.shape}")
    if not (arr > -math.inf).all():
        raise ContractError("losses must be real or +inf, got NaN or -inf")
    return arr


def _quantiles(arr: np.ndarray, ps: Sequence[float]) -> np.ndarray:
    """np.quantile (linear) of checked losses along the last axis at each p,
    bit for bit on finite input; shape arr.shape[:-1] + (len(ps),).

    Next to a diverged (+inf) entry numpy's interpolation computes inf * 0 or
    inf - inf and returns NaN.  There the result is the entry itself when the
    position lands exactly on an order statistic, and +inf when an +inf
    neighbour has nonzero weight.
    """
    ps = np.asarray(ps, dtype=np.float64)
    with np.errstate(invalid="ignore"):
        q = np.moveaxis(np.quantile(arr, ps, axis=-1), 0, -1)
    bad = np.isnan(q)
    if bad.any():
        pos = (arr.shape[-1] - 1) * ps     # numpy's position for the linear method
        below = np.floor(pos)
        at = np.take(np.sort(arr, axis=-1), below.astype(np.intp), axis=-1)
        q[bad] = np.where(pos == below, at, math.inf)[bad]
    return q


def _exact_std(arr: np.ndarray) -> np.ndarray:
    """Population std along the last axis; identical entries give 0.0 exactly,
    not rounding dust, and any diverged member makes the spread infinite."""
    with np.errstate(invalid="ignore"):     # inf - inf inside numpy's std
        std = arr.std(axis=-1)
    return np.where((arr == arr[..., :1]).all(axis=-1), 0.0,
                    np.where(np.isinf(arr).any(axis=-1), math.inf, std))


# criterion kind -> reducer(losses, quantile p) along the last axis, so one
# call scores a loss multiset or every row of a 2-D array
_REDUCERS: dict[str, Callable[[np.ndarray, float | None], np.ndarray]] = {
    "mean": lambda arr, _: arr.mean(axis=-1),
    "median": lambda arr, _: _quantiles(arr, (0.5,))[..., 0],
    "min": lambda arr, _: arr.min(axis=-1),
    "max": lambda arr, _: arr.max(axis=-1),
    "std": lambda arr, _: _exact_std(arr),
    "quantile": lambda arr, p: _quantiles(arr, (p,))[..., 0],
}


@dataclass(frozen=True)
class SelectionCriterion:
    """Which statistic of the instance losses ranks a model; lower is better."""

    kind: str = "mean"
    quantile: float | None = None

    def __post_init__(self):
        if self.kind not in _REDUCERS:
            raise ContractError(f"unknown statistic {self.kind!r}")
        if self.quantile is not None:
            require_reals(quantile=self.quantile)
        if self.kind == "quantile":
            if self.quantile is None or not 0.0 < self.quantile < 1.0:
                raise ContractError("quantile criterion needs p strictly inside (0, 1)")
        elif self.quantile is not None:
            raise ContractError(f"{self.kind} takes no quantile parameter")

    def label(self) -> str:
        return f"quantile({self.quantile})" if self.kind == "quantile" else self.kind


def robustness_statistic(losses: Sequence[float] | np.ndarray,
                         criterion: SelectionCriterion) -> float | np.ndarray:
    """One summary number for a loss multiset; +inf entries propagate.

    Given a 2-D array, the number of each row: each row's value is the one
    its losses would get on their own, bit for bit.
    """
    arr = _checked(losses, rows=True)
    value = _REDUCERS[criterion.kind](arr, criterion.quantile)
    return float(value) if arr.ndim == 1 else value


def summary_statistics(losses: Sequence[float]) -> dict:
    """n, moments, quartiles and IQR, plus box-plot whiskers at the most extreme
    points within 1.5 IQR of the quartiles and the outliers beyond them."""
    arr = _checked(losses)
    q1, median, q3 = (float(v) for v in _quantiles(arr, (0.25, 0.5, 0.75)))
    iqr = q3 - q1 if q3 != q1 else 0.0      # q1 == q3 == inf: zero spread, not NaN
    reach = 1.5 * iqr
    inside = arr[(arr >= q1 - reach) & (arr <= q3 + reach)]
    lo, hi = float(inside.min()), float(inside.max())
    summary = {key: float(_REDUCERS[key](arr, None)) for key in ("mean", "min", "max", "std")}
    summary.update(n=int(arr.size), median=median, q1=q1, q3=q3, iqr=iqr,
                   whisker_lo=lo, whisker_hi=hi,
                   outliers=[float(v) for v in arr[(arr < lo) | (arr > hi)]])
    return summary


@dataclass
class RobustnessRecord:
    """Append-only loss ensemble for one spec, with per-instance provenance."""

    spec_id: str
    spec_name: str
    mode: str
    sample_size: int
    base_seed: int
    losses: tuple[float, ...] = ()
    provenance: list[dict] = field(default_factory=list)

    def add(self, instance: TrainedInstance) -> None:
        self.provenance.append(
            {
                "index": len(self.losses),
                "init_seed": instance.init_seed,
                "data_seed": instance.data_seed,
                "stop_epoch": instance.stop_epoch,
                "diverged": instance.diverged,
            }
        )
        self.losses += (instance.final_test_loss,)

    def statistics(self) -> dict:
        summary = summary_statistics(self.losses)
        return {key: summary[key] for key in STAT_KEYS}

    def statistic(self, criterion: SelectionCriterion) -> float:
        return robustness_statistic(self.losses, criterion)

    def to_record(self) -> dict:
        return {**asdict(self), "statistics": self.statistics()}


def _train_task(pool: Dataset, test_set: Dataset, spec: ModelSpec, size: int,
                data_seed: int, init_seed: int,
                stop: EarlyStopConfig | None) -> TrainedInstance:
    train_set = bootstrap_sample(pool, size, seed=data_seed)
    return train_instance(spec, train_set, test_set, init_seed,
                          stop=stop, data_seed=data_seed)


# a pool worker's (pool, test_set), set once by the executor's initializer so
# that tasks carry only seeds and the data is not pickled again for every task
_worker_data: tuple[Dataset, Dataset] | None = None


def _set_worker_data(pool: Dataset, test_set: Dataset) -> None:
    global _worker_data
    _worker_data = (pool, test_set)
    # a terminal's Ctrl-C reaches the workers too: they end quietly, rlab reports it
    signal.signal(signal.SIGINT, signal.SIG_DFL)


def _worker_task(args: tuple) -> TrainedInstance:
    return _train_task(*_worker_data, *args)


class InstanceRunner:
    """Trains instances on bootstrap draws of one pool, each scored on one test set.

    A task is (spec, sample size, data seed, init seed, stop rule).  With one
    worker the trainings run in this process.  With more they run on a
    fork-started process pool whose workers receive the data once, through
    the initializer.  The workers are forked in the constructor, before any
    thread of the caller's starts, and under the held BLAS guard: they
    inherit one BLAS thread and never set the count, which would restart
    the thread pool that OpenBLAS shuts down at fork.  Leaving the `with`
    block joins and reaps them, after ending them when it leaves on an
    exception (Ctrl-C, a lost worker), and restores the caller's BLAS
    threads.
    """

    def __init__(self, pool: Dataset, test_set: Dataset, workers: int = 1):
        self.pool, self.test_set = pool, test_set
        self._executor = None
        if workers > 1:
            self._executor = ProcessPoolExecutor(
                workers, mp_context=multiprocessing.get_context("fork"),
                initializer=_set_worker_data, initargs=(pool, test_set))
            _one_blas_thread.__enter__()
            try:
                self._executor.submit(int).result()     # the first submit forks every worker
            except BaseException:
                self.__exit__(*sys.exc_info())
                raise

    def __enter__(self) -> "InstanceRunner":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor is not None:
            try:
                if exc[0] is not None:      # no result is awaited: end the trainings now
                    for worker in list(self._executor._processes.values()):
                        worker.terminate()
                self._executor.shutdown(wait=True, cancel_futures=True)
            finally:
                _one_blas_thread.__exit__()

    def train(self, tasks: Sequence[tuple]) -> Iterator[TrainedInstance]:
        """The trained instances, in task order; with workers this call hands
        every task out.  A worker that dies (killed, out of memory) ends the
        iteration with WorkerLostError at the first task whose result is
        missing; nothing is retried."""
        if self._executor is None:
            return (_train_task(self.pool, self.test_set, *t) for t in tasks)
        futures = []
        with contextlib.suppress(BrokenProcessPool):    # the results name the lost task
            futures.extend(self._executor.submit(_worker_task, t) for t in tasks)
        return _results(tasks, futures)


def _results(tasks: Sequence[tuple], futures: list) -> Iterator[TrainedInstance]:
    # a task without a future was not handed out: the pool broke first
    for task, future in zip_longest(tasks, futures):
        if future is None or isinstance(future.exception(), BrokenProcessPool):
            raise WorkerLostError(f"a worker process died; the training of spec "
                                  f"{task[0].name!r} was lost")
        yield future.result()


def run_instances(spec: ModelSpec, k: int, pool: Dataset, test_set: Dataset,
                  mode: str = "both_random", base_seed: int = 0,
                  sample_size: int | None = None,
                  stop: EarlyStopConfig | None = None,
                  workers: int = 1) -> RobustnessRecord:
    """Train k instances of one spec under the chosen randomization mode.

    Seeds come from per-instance substreams of base_seed; the fixed side of a
    mode reuses instance 0's substream, so a fixed-data run shares one
    bootstrap draw and a fixed-init run shares one starting point.  Instances
    are independent; worker count changes wall time only, never the record.
    """
    size = len(pool) if sample_size is None else sample_size
    require_counts(k=k, sample_size=size)
    require_seeds(base_seed=base_seed)
    if k < 1:
        raise ContractError(f"need at least one instance, got k={k}")
    if mode not in RANDOMIZATION_MODES:
        raise ContractError(f"unknown randomization mode {mode!r}")
    record = RobustnessRecord(
        spec_id=spec.spec_id(), spec_name=spec.name, mode=mode,
        sample_size=size, base_seed=base_seed,
    )
    tasks = []
    for i in range(k):
        data_index = i if mode != "fixed_data_random_init" else 0
        init_index = i if mode != "random_data_fixed_init" else 0
        tasks.append((
            spec, size,
            substream_seed(base_seed, "data", data_index),
            substream_seed(base_seed, "init", init_index),
            stop,
        ))
    with InstanceRunner(pool, test_set, min(workers, k)) as runner:
        for inst in runner.train(tasks):
            record.add(inst)
    return record


# -- selection -----------------------------------------------------------------------


TrainerFn = Callable[[ModelSpec, int, int], float]
"""(spec, round_index, seed) -> final test loss.  Real training or a mock."""

class HalvingPolicy:
    """Each round from start_round on, remove the worst half (rounded up).

    Ties go to the earlier-enumerated spec: among equal scores the later one
    is removed first.
    """

    def __init__(self, start_round: int = 1):
        require_counts(start_round=start_round)
        if start_round < 1:
            raise ContractError("start_round must be >= 1")
        self.start_round = start_round

    def removals(self, round_index: int, scores: Sequence[float]) -> list[int]:
        n = len(scores)
        if n <= 1 or round_index < self.start_round:
            return []
        return _worst(scores, math.ceil(n / 2))


class BaselineGatePolicy:
    """Round one removes every spec scoring above the reference loss plus a
    margin; afterwards the worst half goes each round."""

    def __init__(self, reference_loss: float, margin: float = 0.2):
        require_reals(reference_loss=reference_loss, margin=margin)
        if not math.isfinite(reference_loss) or reference_loss <= 0:
            raise ContractError("reference loss must be finite and positive")
        if not margin >= 0:     # NaN fails it
            raise ContractError("margin must be non-negative")
        self.reference_loss = reference_loss
        self.margin = margin
        self._halving = HalvingPolicy(start_round=2)

    def removals(self, round_index: int, scores: Sequence[float]) -> list[int]:
        if round_index == 1:
            gate = (1.0 + self.margin) * self.reference_loss
            return [i for i, s in enumerate(scores) if s > gate]
        return self._halving.removals(round_index, scores)


def _worst(scores: Sequence[float], count: int) -> list[int]:
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], -i))
    return sorted(order[:count])


@dataclass
class RoundEntry:
    index: int
    survivors_before: int
    trained: int
    removed: tuple[str, ...]
    rolled_back: bool = False


@dataclass
class SelectionLedger:
    """Everything the selection run did: rounds, counts, removals, budget."""

    rounds: list[RoundEntry] = field(default_factory=list)
    instance_counts: dict[str, int] = field(default_factory=dict)
    cumulative_trainings: int = 0
    survivor_ids: list[str] = field(default_factory=list)
    tie: bool = False

    def to_record(self) -> dict:
        # built directly: asdict deep-copies a large grid's counts key by key
        return {**vars(self), "rounds": [dict(vars(entry)) for entry in self.rounds],
                "instance_counts": dict(self.instance_counts),
                "survivor_ids": list(self.survivor_ids)}


def select_models(specs: Sequence[ModelSpec], criterion: SelectionCriterion,
                  policy, trainer: TrainerFn,
                  max_rounds: int = 50, base_seed: int = 0,
                  begin_round: Callable[[list[tuple]], None] = lambda calls: None,
                  ) -> tuple[list[ModelSpec], SelectionLedger]:
    """Tournament over specs: one new instance per survivor per round, then the
    policy removes by criterion value.

    Stops at a single survivor or after max_rounds.  If the policy tries to
    remove every survivor at once, nobody is removed, the tie flag is set, and
    the run ends with the full tied set.

    Each round calls begin_round with its (spec, round_index, seed) calls in
    survivor order, then trainer once per call, in that order; a begin_round
    that starts the round's trainings for trainer to collect keeps the serial
    outcome, the first failure in survivor order included.
    """
    require_counts(max_rounds=max_rounds)
    require_seeds(base_seed=base_seed)
    specs = list(specs)
    if not specs:
        raise ContractError("nothing to select from")
    ids = [s.spec_id() for s in specs]
    if len(set(ids)) != len(ids):
        raise ContractError("spec ids must be unique")

    words = np.array(ids)       # path words of the round seeds, one per spec
    ledger = SelectionLedger(instance_counts={sid: 0 for sid in ids})
    losses: list[list[float]] = [[] for _ in specs]
    survivors = list(range(len(specs)))

    for round_index in range(1, max_rounds + 1):
        if len(survivors) <= 1:
            break
        # one seed per survivor, all derived in one call
        seeds = substream_seed(base_seed, words[survivors], "round", round_index).tolist()
        calls = [(specs[pos], round_index, seed) for pos, seed in zip(survivors, seeds)]
        begin_round(calls)
        for pos, call in zip(survivors, calls):
            losses[pos].append(float(trainer(*call)))
            ledger.instance_counts[ids[pos]] += 1
            ledger.cumulative_trainings += 1
        # every survivor holds round_index losses: the round is one call
        scores = robustness_statistic(np.array([losses[pos] for pos in survivors]),
                                      criterion).tolist()
        removal_positions = set(policy.removals(round_index, scores))
        rolled_back = len(removal_positions) >= len(survivors)
        if rolled_back:
            ledger.tie = True
            removal_positions = set()
        removed_ids = tuple(ids[survivors[p]] for p in sorted(removal_positions))
        ledger.rounds.append(RoundEntry(
            index=round_index,
            survivors_before=len(survivors),
            trained=len(survivors),
            removed=removed_ids,
            rolled_back=rolled_back,
        ))
        survivors = [s for p, s in enumerate(survivors) if p not in removal_positions]
        if rolled_back:
            break

    if len(survivors) > 1:
        ledger.tie = True
    ledger.survivor_ids = [ids[s] for s in survivors]
    return [specs[s] for s in survivors], ledger


# -- experiment drivers ----------------------------------------------------------------


def ecdf(values: Sequence[float]) -> tuple[np.ndarray, np.ndarray]:
    """(sorted values, cumulative fraction at or below each)."""
    v = np.sort(np.asarray(values, dtype=np.float64))
    if v.size == 0:
        raise ContractError("cannot build an ECDF from nothing")
    return v, np.arange(1, v.size + 1) / v.size


def criterion_study(loss_sets: Sequence[Sequence[float]],
                    criteria: Sequence[SelectionCriterion],
                    ) -> dict[str, tuple[list[float], np.ndarray, np.ndarray]]:
    """Per criterion label: each model's statistic value, in input order, and
    the ECDF of those values, showing how stringent each ranking statistic is
    over the same model population."""
    if not loss_sets:
        raise ContractError("no records to study")
    out = {}
    for crit in criteria:
        values = [robustness_statistic(losses, crit) for losses in loss_sets]
        out[crit.label()] = (values, *ecdf(values))
    return out


def sample_size_sweep(spec: ModelSpec, sizes: Sequence[int], k: int,
                      train_pool: Dataset, test_pool: Dataset,
                      base_seed: int = 0, stop: EarlyStopConfig | None = None,
                      workers: int = 1) -> list[dict]:
    """Loss spread versus training-set size, test sets matched in size.

    Rows carry the raw losses and their summary statistics, ready for tabulation.
    """
    require_counts(sizes=tuple(sizes))
    require_seeds(base_seed=base_seed)
    rows = []
    for n in sizes:
        seed = substream_seed(base_seed, "sweep", n)
        test_set = subsample(test_pool, n, seed=substream_seed(seed, "test"))
        record = run_instances(
            spec, k, train_pool, test_set, mode="both_random",
            base_seed=seed, sample_size=n, stop=stop, workers=workers,
        )
        rows.append({
            "n": n,
            "losses": list(record.losses),
            "box": summary_statistics(record.losses),
        })
    return rows
