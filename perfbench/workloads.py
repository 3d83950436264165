"""The three benchmark workloads: their inputs, their commands and their output checks.

Every input is generated from the workload seed; rlab only ever sees the
generated files.  Each workload runs with two workers, the machine's two
cores.  Why each one exists:

- robustness-w2: the north-star unit (k instances of one preset) at campaign
  scale; the only workload where the process-pool fan-out, per-task pickling
  of the data pool and BLAS threads x processes act.
- select-w2: a real tournament with another op mix (prelu, a 3-layer head,
  window == stride pools, a barycenter concat at fc layer 1, a position
  target) and batch 16 beside batch 128.  select ignores --workers today, so
  the second core idles; parallel selection would show here.
- select-grid: the 6,912-spec reference grid with a mock trainer.  No tensor
  work at all: the tournament engine's own cost per training, and the
  workload on which any training-layer change should change nothing.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os
import random
import sys

import yaml

WORKERS = 2

# Trainings run a fixed number of epochs (min_epochs == hard_cap), so the work
# per training does not depend on the stop rule.
SIZES = {"epochs": 1,
         "robustness": {"pool": 4000, "sample": 2000, "test": 1000, "k": 4},
         "select": {"pool": 2000, "sample": 1000, "test": 500}}

# Now and then a model2 instance never leaves the constant-predictor regime;
# that is instance spread, the thing rlab studies, so robustness-w2 tolerates
# this many such instances per command (it counts them all).
STUCK_ALLOWED = 1

# what check() reports for a command that wrote no reports
NO_REPORT = {"trainings": 0, "nonfinite": 0, "budget_ratio": 0.0}


def derive_seed(seed: int, label: str) -> int:
    """A 63-bit seed for one input, fixed by the workload seed and a label."""
    digest = hashlib.sha256(f"{seed}/{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def halving_schedule(n_specs: int) -> tuple[int, int]:
    """(rounds, trainings) of a halving tournament: every survivor trains once
    per round, then the worst half, rounded up, goes."""
    rounds = trainings = 0
    while n_specs > 1:
        rounds += 1
        trainings += n_specs
        n_specs -= math.ceil(n_specs / 2)
    return rounds, trainings


def file_digests(directory: str) -> dict[str, str]:
    out = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def _write_yaml(path: str, mapping: dict) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(mapping, fh, sort_keys=False)


def _fixed_stop(epochs: int) -> dict:
    return {"min_epochs": epochs, "hard_cap": epochs, "window": 1, "threshold": 0.1}


def _gen_data(run, directory: str, seed: int, kind: str, size: dict) -> list[str]:
    """Write the training pool and the test set through rlab gen-data; returns the problems met."""
    problems = []
    for name in ("pool", "test"):
        config = f"gen_{name}.yaml"
        _write_yaml(os.path.join(directory, config),
                    {"command": "gen-data", "n": size[name], "seed": derive_seed(seed, name),
                     "filename": f"{name}.rlab", "generator": {"dataset_kind": kind}})
        cmd = run(["gen-data", "--config", config, "--out", "."], directory, f"gen-{name}")
        if not cmd.ok:
            problems.append(f"gen-data {name}: {cmd.describe()}")
    return problems


class Workload:
    name: str
    command: str
    report_files: tuple[str, ...]
    # per-layer metrics the traced run requires non-zero, and those it requires zero
    busy_layers: tuple[str, ...]
    idle_layers: tuple[str, ...] = ()

    def __init__(self):
        self.epochs = SIZES["epochs"]

    def setup(self, directory: str, seed: int, run) -> list[str]:
        """Write every input into `directory`; returns the problems met."""
        raise NotImplementedError

    def facts(self, directory: str, root: str) -> dict:
        """Values the output checks compare against, taken from the inputs."""
        return {}

    def trainings(self) -> int:
        """Trainings one command runs when it works."""
        raise NotImplementedError

    def argv(self, out_dir: str) -> list[str]:
        return [self.command, "--config", f"{self.command}.yaml",
                "--workers", str(WORKERS), "--out", out_dir]

    def check(self, out_dir: str, facts: dict, outcomes: dict) -> tuple[list[str], dict]:
        """(problems, {'trainings', 'nonfinite', 'budget_ratio'}) for one command's reports."""
        raise NotImplementedError

    def _missing(self, out_dir: str) -> list[str]:
        return [f"missing report {f}" for f in self.report_files
                if not os.path.isfile(os.path.join(out_dir, f))]


class RobustnessW2(Workload):
    name = "robustness-w2"
    command = "robustness"
    report_files = ("records.jsonl", "losses.csv", "box.csv", "summary.txt")

    def __init__(self):
        super().__init__()
        self.size = SIZES["robustness"]

    def setup(self, directory, seed, run):
        problems = _gen_data(run, directory, seed, "A", self.size)
        _write_yaml(os.path.join(directory, "robustness.yaml"), {
            "command": "robustness", "preset": "model2", "k": self.size["k"],
            "mode": "both_random", "train_data": "pool.rlab", "test_data": "test.rlab",
            "sample_size": self.size["sample"], "base_seed": derive_seed(seed, "base"),
            "stop": _fixed_stop(self.epochs),
        })
        return problems

    def facts(self, directory, root):
        src = os.path.join(root, "src")
        if src not in sys.path:
            sys.path.insert(0, src)
        from rlab.calo import load_dataset
        from rlab.training import constant_predictor_loss

        test = load_dataset(os.path.join(directory, "test.rlab"))
        return {"floor": constant_predictor_loss("energy", test.energy)[1]}

    def trainings(self):
        return self.size["k"]

    def check(self, out_dir, facts, outcomes):
        problems = self._missing(out_dir)
        if problems:
            return problems, dict(NO_REPORT)
        with open(os.path.join(out_dir, "losses.csv"), newline="") as fh:
            rows = list(csv.DictReader(fh))
        k = self.size["k"]
        if len(rows) != k:
            problems.append(f"losses.csv has {len(rows)} rows, expected k={k}")
        losses = []
        for i, row in enumerate(rows):
            try:
                losses.append(float(row["loss"]))
            except (KeyError, TypeError, ValueError):
                problems.append(f"losses.csv row {i}: unreadable loss {row.get('loss')!r}")
            if row.get("stop_epoch") != str(self.epochs):
                problems.append(f"instance {i} stopped at epoch {row.get('stop_epoch')}, "
                                f"expected {self.epochs}")
        nonfinite = sum(not math.isfinite(v) for v in losses)
        if nonfinite:
            problems.append(f"{nonfinite} instances diverged")
        floor = facts["floor"]
        above = sum(not v < floor for v in losses)
        if above > STUCK_ALLOWED:
            problems.append(f"{above} of {len(losses)} losses do not beat the "
                            f"constant-predictor floor {floor!r}; at most {STUCK_ALLOWED} may")
        return problems, {"trainings": len(rows), "nonfinite": nonfinite,
                          "budget_ratio": len(rows) / k,
                          "above_floor": above}


class _Selection(Workload):
    """A halving tournament whose ledger must match the schedule for its spec count."""

    command = "select"
    report_files = ("ledger.json", "winners.json", "summary.txt")
    n_specs: int
    k: int

    def trainings(self):
        return halving_schedule(self.n_specs)[1]

    def check(self, out_dir, facts, outcomes):
        problems = self._missing(out_dir)
        if problems:
            return problems, dict(NO_REPORT)
        with open(os.path.join(out_dir, "ledger.json")) as fh:
            ledger = json.load(fh)
        with open(os.path.join(out_dir, "winners.json")) as fh:
            winners = json.load(fh)
        rounds, trainings = halving_schedule(self.n_specs)
        got_rounds = len(ledger.get("rounds", []))
        got_trainings = ledger.get("cumulative_trainings")
        if got_rounds != rounds or got_trainings != trainings:
            problems.append(f"ledger shows {got_trainings} trainings in {got_rounds} rounds; "
                            f"halving {self.n_specs} specs gives {trainings} in {rounds}")
        counts = ledger.get("instance_counts", {})
        if len(counts) != self.n_specs or sum(counts.values()) != got_trainings:
            problems.append(f"ledger counts {len(counts)} specs with {sum(counts.values())} "
                            f"instances, expected {self.n_specs} specs")
        survivors = ledger.get("survivor_ids", [])
        if ledger.get("tie") or len(survivors) != 1 or len(winners) != 1:
            problems.append(f"expected one winner, got {len(winners)} "
                            f"(survivors {survivors}, tie {ledger.get('tie')})")
        elif winners[0].get("spec_id") != survivors[0]:
            problems.append("winners.json and the ledger name different winners")
        if outcomes.get("trainings") != got_trainings:
            problems.append(f"trainer ran {outcomes.get('trainings')} times, "
                            f"ledger counts {got_trainings}")
        if outcomes.get("nonfinite"):
            problems.append(f"{outcomes['nonfinite']} trainings returned a non-finite loss")
        n = got_trainings if isinstance(got_trainings, int) else 0
        return problems, {"trainings": n, "nonfinite": outcomes.get("nonfinite", 0),
                          "budget_ratio": n / (self.n_specs * self.k)}


def _preset_dict(preset: str, lr: float, batch: int) -> dict:
    """model3 / model4 as rlab's presets define them, with lr and batch replaced."""
    aux = {"model3": ("none", 0), "model4": ("barycenter", 1)}[preset]
    return {
        "name": f"{preset}-lr{lr:g}-bs{batch}",
        "conv_layers": [[32, 3], [64, 3]], "pool_layers": [[2, 2], [4, 4]],
        "fc_layers": [64, 9, 1], "activation": "prelu",
        "optimizer": {"kind": "adamw", "learning_rate": lr, "weight_decay": 0.1},
        "batch_size": batch, "target": "position_x",
        "aux": aux[0], "aux_injection_layer": aux[1],
    }


class SelectW2(_Selection):
    name = "select-w2"
    SPECS = [(p, lr, bs) for p in ("model3", "model4") for lr in (1e-4, 1e-3) for bs in (16, 128)]
    n_specs = len(SPECS)
    k = 3

    def __init__(self):
        super().__init__()
        self.size = SIZES["select"]

    def setup(self, directory, seed, run):
        problems = _gen_data(run, directory, seed, "B", self.size)
        _write_yaml(os.path.join(directory, "select.yaml"), {
            "command": "select",
            "specs": [_preset_dict(*s) for s in self.SPECS],
            "k": self.k,
            "criterion": {"kind": "median"},
            "policy": {"kind": "halving"},
            "base_seed": derive_seed(seed, "base"),
            "trainer": {"kind": "instances", "train_data": "pool.rlab", "test_data": "test.rlab",
                        "sample_size": self.size["sample"], "stop": _fixed_stop(self.epochs)},
        })
        return problems


def grid_spec_names() -> list[str]:
    """Names of the reference energy grid in enumeration order, rebuilt from its
    documented axes rather than asked of rlab."""
    names = []
    for aux in ("none", "energy_sum"):
        for depth in (2, 3, 4):
            for kernel in (2, 3, 5):
                for f1 in (16, 32):
                    for f2 in (32, 64):
                        for head in (9, 64):
                            fc = "x".join(map(str, (head,) + (9,) * (depth - 2) + (1,)))
                            arch = f"cnn-k{kernel}-f{f1}x{f2}-fc{fc}-{aux}"
                            for lr in (1e-4, 1e-3, 1e-2, 1e-1):
                                for bs in (16, 32, 64, 128):
                                    for reg in (1e-3, 1e-2, 1e-1):
                                        names.append(f"{arch}-lr{lr:g}-bs{bs}-reg{reg:g}")
    return names


class SelectGrid(_Selection):
    name = "select-grid"
    # the reference grid's axes as rlab documents them: 144 architectures x 48 points
    n_specs = (2 * 3 * 3 * 2 * 2 * 2) * (4 * 4 * 3)
    k = 50

    def setup(self, directory, seed, run):
        rng = random.Random(derive_seed(seed, "losses"))
        table = {name: rng.uniform(0.05, 0.5) for name in grid_spec_names()}
        _write_yaml(os.path.join(directory, "select.yaml"), {
            "command": "select",
            "search_space": {"reference": "energy"},
            "k": self.k,
            "criterion": {"kind": "median"},
            "policy": {"kind": "halving"},
            "base_seed": derive_seed(seed, "base"),
            "trainer": {"kind": "mock", "noise": 0.01, "losses": table},
        })
        return []


# -- what the traced run expects of each layer ------------------------------------------

_TENSOR = ("tensor.backward.s", "tensor.backward.calls", "tensor.conv2d.s",
           "tensor.conv2d.calls", "tensor.maxpool2d.s", "tensor.maxpool2d.calls",
           "tensor.linear.s", "tensor.concat.s")
_TRAINING = ("nn.forward.self_s", "optim.step.s", "optim.step.calls", "training.fit.self_s",
             "training.evaluate.s", "training.eval_share", "training.epochs",
             "training.instance_s.p50", "training.instance_s.count", "calo.generate.s",
             "calo.events_per_s", "calo.load.s", "calo.bootstrap.s",
             "seeding.substream.calls", "seeding.substream.s")
_EVERY = ("nn.spec_id.calls", "nn.spec_id.s", "seeding.substream_seed.calls",
          "seeding.substream_seed.s", "robustness.worker_busy_share",
          "robustness.budget_ratio", "cli.parse.s", "cli.main.self_s", "cli.report_bytes")
_SELECTION = ("robustness.select.self_s", "robustness.statistic.calls", "robustness.statistic.s")

RobustnessW2.busy_layers = _TENSOR + _TRAINING + _EVERY + ("nn.relu.s", "robustness.fanout.self_s")
SelectW2.busy_layers = _TENSOR + _TRAINING + _EVERY + _SELECTION + ("nn.prelu.s",)
SelectGrid.busy_layers = _EVERY + _SELECTION + ("nn.enumerate.s",)
SelectGrid.idle_layers = _TENSOR

WORKLOADS = {w.name: w for w in (RobustnessW2, SelectW2, SelectGrid)}


def layer_problems(workload: Workload, metrics: dict) -> list[str]:
    """A wrap on the wrong name records nothing; fail on that instead of reporting zero."""
    problems = [f"{name} is 0 on {workload.name}, which exercises it"
                for name in workload.busy_layers if not metrics.get(name)]
    problems += [f"{name} is {metrics.get(name)} on {workload.name}, which does no such work"
                 for name in workload.idle_layers if metrics.get(name)]
    return problems
