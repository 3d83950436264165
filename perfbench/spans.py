"""Outside-in tracing of one rlab command, and the per-layer metrics derived from it.

Spans are recorded by wrapping rlab's public functions under the name each
caller looks up: `rlab.nn` imports `conv2d` by name, so the wrap goes on
`rlab.nn.conv2d`; wrapping `rlab.tensor.conv2d` alone would record nothing.
A span is (id, parent id, name, start, end, value).  Ids carry the process
id, so spans from forked pool workers link to the parent's span that was open
when the pool forked.  Spans stay in memory; the main process writes its
file when the command ends, and each worker appends its spans whenever its
outermost span closes, before the task's result goes back to the parent.
"""

from __future__ import annotations

import functools
import glob
import inspect
import json
import os
import statistics
import time


class Recorder:
    """Span buffer of one process, inherited and reset across fork."""

    def __init__(self, trace_dir: str):
        self.trace_dir = trace_dir
        self.pid = os.getpid()
        self.spans: list[tuple] = []
        self.stack: list[int] = []
        self.base_depth = 0
        self._count = 0
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # The child keeps the open stack so its spans name the parent's span.
        self.pid = os.getpid()
        self.spans.clear()
        self._count = 0
        self.base_depth = len(self.stack)

    def wrap(self, name: str, fn, value=None):
        """`fn` recording one span per call; value(result) is stored with it."""
        stack, clock = self.stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._count += 1
            sid = (self.pid << 32) | self._count
            parent = stack[-1] if stack else 0
            stack.append(sid)
            t0 = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                stack.pop()
                v = value(result) if value is not None and result is not None else None
                self.spans.append((sid, parent, name, t0, t1, v))
                if len(stack) == self.base_depth and self.base_depth > 0:
                    self.flush()    # outermost span of a forked worker's task
        return traced

    def flush(self) -> None:
        if not self.spans:
            return
        path = os.path.join(self.trace_dir, f"spans-{self.pid}.jsonl")
        with open(path, "a") as fh:
            for s in self.spans:
                fh.write(json.dumps(s))
                fh.write("\n")
        self.spans.clear()


def _patch(rec: Recorder, owner, attr: str, name: str, value=None) -> None:
    wrapped = rec.wrap(name, getattr(owner, attr), value)
    if isinstance(inspect.getattr_static(owner, attr), staticmethod):
        wrapped = staticmethod(wrapped)
    setattr(owner, attr, wrapped)


def install(rec: Recorder) -> None:
    """Wrap every traced rlab entry point under the name its callers use."""
    import rlab.calo
    import rlab.cli
    import rlab.nn
    import rlab.optim
    import rlab.robustness
    import rlab.tensor
    import rlab.training

    diverged = lambda instance: int(instance.diverged)

    for op in ("conv2d", "maxpool2d", "linear", "concat"):
        _patch(rec, rlab.nn, op, f"tensor.{op}")
    _patch(rec, rlab.tensor.Tensor, "backward", "tensor.backward")
    for act in ("relu", "prelu"):
        _patch(rec, rlab.nn, act, f"nn.{act}")
    _patch(rec, rlab.nn.Model, "forward", "nn.forward")
    _patch(rec, rlab.nn.ModelSpec, "spec_id", "nn.spec_id")
    _patch(rec, rlab.cli, "enumerate_search_space", "nn.enumerate")
    _patch(rec, rlab.optim.Optimizer, "step", "optim.step")
    _patch(rec, rlab.training, "fit", "training.fit")
    _patch(rec, rlab.training, "evaluate", "training.evaluate")
    for mod in (rlab.cli, rlab.robustness):
        _patch(rec, mod, "train_instance", "training.instance", diverged)
        _patch(rec, mod, "bootstrap_sample", "calo.bootstrap")
        _patch(rec, mod, "substream_seed", "seeding.substream_seed")
    _patch(rec, rlab.cli, "generate_dataset", "calo.generate", len)
    _patch(rec, rlab.cli, "load_dataset", "calo.load")
    for mod in (rlab.calo, rlab.nn, rlab.training):
        _patch(rec, mod, "substream", "seeding.substream")
    _patch(rec, rlab.cli, "run_instances", "robustness.run_instances")
    _patch(rec, rlab.robustness, "robustness_statistic", "robustness.statistic")
    _patch(rec, rlab.cli.ExperimentConfig, "parse", "cli.parse")
    _patch(rec, rlab.cli, "main", "cli.main")

    wrap_select_trainer(rlab.cli, lambda trainer: rec.wrap("robustness.trainer", trainer))
    _patch(rec, rlab.cli, "select_models", "robustness.select")


def wrap_select_trainer(cli, wrap) -> None:
    """Make `cli.select_models` pass the trainer it is given through wrap(trainer).

    The trainer reaches select_models as an argument, not by a name to patch.
    """
    select = cli.select_models
    signature = inspect.signature(select)

    @functools.wraps(select)
    def select_models(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        bound.arguments["trainer"] = wrap(bound.arguments["trainer"])
        return select(*bound.args, **bound.kwargs)

    cli.select_models = select_models


# -- reading a trace back -------------------------------------------------------------


def read_spans(trace_dir: str) -> list[tuple]:
    spans = []
    for path in sorted(glob.glob(os.path.join(trace_dir, "spans-*.jsonl"))):
        with open(path) as fh:
            spans.extend(tuple(json.loads(line)) for line in fh if line.strip())
    return spans


# name -> unit, in the order BENCHMARK.json lists them
LAYER_METRICS = {
    "tensor.backward.s": "s",
    "tensor.backward.calls": "count",
    "tensor.conv2d.s": "s",
    "tensor.conv2d.calls": "count",
    "tensor.maxpool2d.s": "s",
    "tensor.maxpool2d.calls": "count",
    "tensor.linear.s": "s",
    "tensor.concat.s": "s",
    "nn.relu.s": "s",
    "nn.prelu.s": "s",
    "nn.forward.self_s": "s",
    "nn.enumerate.s": "s",
    "nn.spec_id.calls": "count",
    "nn.spec_id.s": "s",
    "optim.step.s": "s",
    "optim.step.calls": "count",
    "training.fit.self_s": "s",
    "training.evaluate.s": "s",
    "training.eval_share": "share",
    "training.epochs": "count",
    "training.diverged": "count",
    "training.instance_s.p50": "s",
    "training.instance_s.count": "count",
    "calo.generate.s": "s",
    "calo.events_per_s": "1/s",
    "calo.load.s": "s",
    "calo.bootstrap.s": "s",
    "seeding.substream.calls": "count",
    "seeding.substream.s": "s",
    "seeding.substream_seed.calls": "count",
    "seeding.substream_seed.s": "s",
    "robustness.fanout.self_s": "s",
    "robustness.worker_busy_share": "share",
    "robustness.select.self_s": "s",
    "robustness.statistic.calls": "count",
    "robustness.statistic.s": "s",
    "robustness.budget_ratio": "ratio",
    "cli.parse.s": "s",
    "cli.main.self_s": "s",
    "cli.report_bytes": "bytes",
    "trace.overhead": "ratio",
}

# metric prefixes that differ from the span they read
_SPAN_OF = {"robustness.fanout": "robustness.run_instances"}

# spans that each carry one training, as children of a selection or fan-out phase
_TRAINING_SPANS = ("training.instance", "calo.bootstrap", "robustness.trainer")
_PHASE_SPANS = ("robustness.run_instances", "robustness.select")


def _covered(intervals: list[tuple[float, float]]) -> float:
    total, reach = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b > reach:
            total += b - max(a, reach)
            reach = b
    return total


class SpanIndex:
    def __init__(self, spans: list[tuple]):
        self.by_name: dict[str, list[tuple]] = {}
        self.children: dict[int, list[tuple]] = {}
        for s in spans:
            self.by_name.setdefault(s[2], []).append(s)
            self.children.setdefault(s[1], []).append(s)

    def calls(self, name: str) -> int:
        return len(self.by_name.get(name, ()))

    def seconds(self, name: str) -> float:
        return sum(s[4] - s[3] for s in self.by_name.get(name, ()))

    def self_seconds(self, name: str) -> float:
        """Duration minus the part of it that child spans, in any process, cover."""
        total = 0.0
        for s in self.by_name.get(name, ()):
            kids = [(max(c[3], s[3]), min(c[4], s[4])) for c in self.children.get(s[0], ())]
            total += (s[4] - s[3]) - _covered([k for k in kids if k[1] > k[0]])
        return total

    def values(self, name: str) -> list:
        return [s[5] for s in self.by_name.get(name, ()) if s[5] is not None]


def layer_metrics(setup_spans: list[tuple], command_spans: list[tuple], workers: int,
                  budget_ratio: float, report_bytes: int) -> dict[str, float]:
    """Per-layer values for one traced command plus its traced set-up.

    A metric named <span>.s, <span>.calls or <span>.self_s is that span's
    total seconds, count or self seconds.  The cli metrics cover the measured
    command only; every other layer also counts the set-up commands, where
    dataset generation happens.
    """
    every = SpanIndex(setup_spans + command_spans)
    cmd = SpanIndex(command_spans)
    m: dict[str, float] = {}
    for metric in LAYER_METRICS:
        base, _, kind = metric.rpartition(".")
        span = _SPAN_OF.get(base, base)
        index = cmd if base.startswith("cli.") else every
        if kind == "s":
            m[metric] = index.seconds(span)
        elif kind == "calls":
            m[metric] = index.calls(span)
        elif kind == "self_s":
            m[metric] = index.self_seconds(span)
    fit_s = every.seconds("training.fit")
    m["training.eval_share"] = m["training.evaluate.s"] / fit_s if fit_s else 0.0
    m["training.epochs"] = every.calls("training.evaluate")
    m["training.diverged"] = sum(every.values("training.instance"))
    durations = [s[4] - s[3] for s in every.by_name.get("training.instance", ())]
    m["training.instance_s.p50"] = statistics.median(durations) if durations else 0.0
    m["training.instance_s.count"] = len(durations)
    gen_s = m["calo.generate.s"]
    m["calo.events_per_s"] = sum(every.values("calo.generate")) / gen_s if gen_s else 0.0
    phases = [s for name in _PHASE_SPANS for s in every.by_name.get(name, ())]
    phase_wall = sum(s[4] - s[3] for s in phases)
    busy = sum(c[4] - c[3] for s in phases for c in every.children.get(s[0], ())
               if c[2] in _TRAINING_SPANS)
    m["robustness.worker_busy_share"] = busy / (workers * phase_wall) if phase_wall else 0.0
    m["robustness.budget_ratio"] = budget_ratio
    m["cli.report_bytes"] = report_bytes
    return m
