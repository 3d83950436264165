"""Config-driven command line for datasets, trainings, robustness campaigns,
selection runs, sample-size sweeps, and report emission.

One YAML file drives one command, and the file plus its seeds pins every
output byte: reports carry no wall-clock times, floats are written with repr,
JSON keys are sorted.  Worker count changes elapsed time, nothing else.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import hashlib
import json
import math
import os
import subprocess
import sys
from dataclasses import dataclass

import yaml

# bootstrap_sample is not called here; perfbench traces rlab.cli.bootstrap_sample
from .calo import bootstrap_sample  # noqa: F401
from .calo import (Dataset, GeneratorConfig, generate_dataset, load_dataset,
                   sample_size_schedule, save_dataset)
from .errors import ConfigError, ContractError, DatasetFormatError, WorkerLostError
from .nn import (ModelSpec, SearchSpace, TARGETS, enumerate_search_space,
                 preset_spec, reference_search_space)
from .robustness import (
    STAT_KEYS,
    BaselineGatePolicy,
    HalvingPolicy,
    InstanceRunner,
    SelectionCriterion,
    criterion_study,
    run_instances,
    sample_size_sweep,
    select_models,
    summary_statistics,
)
from .seeding import substream_seed
from .training import EarlyStopConfig, train_instance

EXIT_OK = 0
EXIT_CONFIG = 2          # malformed or contradictory configuration
EXIT_DATA = 3            # missing or corrupt input files, failed trainer, lost worker
EXIT_DIVERGED = 4        # the run finished but produced only diverged losses

COMMANDS = ("gen-data", "train", "robustness", "select", "sweep", "report")

# the body key each command's seed lives under; --seed overrides it
SEED_KEYS = {"gen-data": "seed", "train": "init_seed", "robustness": "base_seed",
             "select": "base_seed", "sweep": "base_seed"}

# libyaml's scanner and parser, about 8x faster on a large loss table; its
# constructor and resolver are SafeLoader's, so both build the same objects
_YAML_LOADER = getattr(yaml, "CSafeLoader", yaml.SafeLoader)


@dataclass(frozen=True)
class ExperimentConfig:
    """One command's full description; self-contained including seeds."""

    command: str
    body: dict

    @staticmethod
    def parse(text: str) -> "ExperimentConfig":
        try:
            raw = yaml.load(text, Loader=_YAML_LOADER)
        except yaml.YAMLError as e:     # one line; YAML's own message spans several
            raise ConfigError("not valid YAML: " + " ".join(str(e).split())) from None
        if not isinstance(raw, dict) or "command" not in raw:
            raise ConfigError("config must be a mapping with a 'command' key")
        command = raw.pop("command")
        if command not in COMMANDS:
            raise ConfigError(f"unknown command {command!r}")
        return ExperimentConfig(command=command, body=raw)


# -- small shared pieces ---------------------------------------------------------------


def _require(body: dict, key: str):
    if key not in body:
        raise ConfigError(f"missing config key {key!r}")
    return body[key]


def _spec_from(body: dict) -> ModelSpec:
    if "preset" in body:
        return preset_spec(body["preset"])
    if "spec" in body:
        return ModelSpec.from_dict(body["spec"])
    raise ConfigError("need a 'spec' block or a 'preset' name")


def _stop_from(body: dict) -> EarlyStopConfig:
    return EarlyStopConfig(**body["stop"]) if "stop" in body else EarlyStopConfig()


def _datasets_from(body: dict) -> tuple[Dataset, Dataset]:
    """The (train_data, test_data) pair the body names."""
    return load_dataset(_require(body, "train_data")), load_dataset(_require(body, "test_data"))


def _criterion_from(d: dict) -> SelectionCriterion:
    if not isinstance(d, dict):
        raise ConfigError(f"a criterion must be a mapping, got {d!r}")
    return SelectionCriterion(kind=d.get("kind", "mean"), quantile=d.get("quantile"))


def _policy_from(body: dict):
    d = body.get("policy", {})
    kind = d.get("kind", "halving")
    if kind == "halving":
        return HalvingPolicy(start_round=int(d.get("start_round", 1)))
    if kind == "baseline_gate":
        return BaselineGatePolicy(
            reference_loss=float(_require(d, "reference_loss")),
            margin=float(d.get("margin", 0.2)),
        )
    raise ConfigError(f"unknown policy {kind!r}")


def _cell(v) -> str:
    return repr(v) if isinstance(v, float) else str(v)


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([_cell(v) for v in row])


def _write_json(path: str, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _write_jsonl(path: str, records: list[dict]) -> None:
    with open(path, "w") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


BOX_COLUMNS = ["min", "q1", "median", "q3", "max", "whisker_lo", "whisker_hi", "outliers"]


def _box_row(box: dict) -> list:
    return [box[c] for c in BOX_COLUMNS[:-1]] + [";".join(repr(v) for v in box["outliers"])]


# -- command handlers --------------------------------------------------------------------


def cmd_gen_data(body: dict, out_dir: str, workers: int) -> int:
    gen = GeneratorConfig(**body.get("generator", {}))
    n = int(_require(body, "n"))
    if n < 1:
        raise ConfigError(f"n must be >= 1, got {n}")
    seed = int(_require(body, "seed"))
    dataset = generate_dataset(gen, n, seed)
    path = os.path.join(out_dir, body.get("filename", "events.rlab"))
    save_dataset(dataset, path)
    with open(path, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    print(f"wrote {path}: {n} kind-{gen.dataset_kind} events, sha256 {digest}")
    return EXIT_OK


def cmd_train(body: dict, out_dir: str, workers: int) -> int:
    spec = _spec_from(body)
    train_set, test_set = _datasets_from(body)
    init_seed = int(_require(body, "init_seed"))
    inst = train_instance(spec, train_set, test_set, init_seed, stop=_stop_from(body))
    _write_json(os.path.join(out_dir, "instance.json"), inst.to_record())
    _write_csv(
        os.path.join(out_dir, "trace.csv"),
        ["epoch", "loss"],
        [[i + 1, v] for i, v in enumerate(inst.loss_trace)],
    )
    print(f"{spec.name}: stopped after {inst.stop_epoch} epochs, "
          f"test loss {inst.final_test_loss!r}, diverged={inst.diverged}")
    return EXIT_DIVERGED if inst.diverged else EXIT_OK


def cmd_robustness(body: dict, out_dir: str, workers: int) -> int:
    spec = _spec_from(body)
    pool, test_set = _datasets_from(body)
    record = run_instances(
        spec,
        k=int(_require(body, "k")),
        pool=pool,
        test_set=test_set,
        mode=body.get("mode", "both_random"),
        base_seed=int(body.get("base_seed", 0)),
        sample_size=body.get("sample_size"),
        stop=_stop_from(body),
        workers=workers,
    )
    _write_jsonl(os.path.join(out_dir, "records.jsonl"), [record.to_record()])
    _write_csv(
        os.path.join(out_dir, "losses.csv"),
        ["instance", "init_seed", "data_seed", "stop_epoch", "diverged", "loss"],
        [
            [p["index"], p["init_seed"], p["data_seed"], p["stop_epoch"], p["diverged"], loss]
            for p, loss in zip(record.provenance, record.losses)
        ],
    )
    stats = summary_statistics(record.losses)
    _write_csv(
        os.path.join(out_dir, "box.csv"),
        ["count"] + BOX_COLUMNS,
        [[stats["n"]] + _box_row(stats)],
    )
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"spec {record.spec_name} ({record.spec_id}), mode {record.mode}, "
                 f"k={len(record.losses)}, sample_size={record.sample_size}\n")
        for key in STAT_KEYS:
            fh.write(f"{key}: {stats[key]!r}\n")
    print(f"{record.spec_name}: {len(record.losses)} instances, "
          f"median loss {stats['median']!r}")
    return EXIT_DIVERGED if all(math.isinf(v) for v in record.losses) else EXIT_OK


def _specs_from(body: dict) -> list[ModelSpec]:
    if "specs" in body:
        return [ModelSpec.from_dict(d) for d in body["specs"]]
    if "search_space" in body:
        s = body["search_space"]
        if "reference" in s:    # the bundled 6,912-spec grid, keyed by target
            target = str(s["reference"])
            if target not in TARGETS:
                raise ConfigError(f"unknown reference target {target!r}")
            return enumerate_search_space(reference_search_space(target))
        space = SearchSpace(
            architectures=tuple(ModelSpec.from_dict(d) for d in _require(s, "architectures")),
            learning_rates=tuple(float(v) for v in _require(s, "learning_rates")),
            batch_sizes=tuple(int(v) for v in _require(s, "batch_sizes")),
            regularizations=tuple(float(v) for v in _require(s, "regularizations")),
        )
        return enumerate_search_space(space)
    raise ConfigError("need a 'specs' list or a 'search_space' block")


@contextlib.contextmanager
def _trainer_from(body: dict, workers: int):
    """Yields (trainer, how many of its calls may run at once).

    The mock trainer does no real work and stays serial; the external
    commands run side by side; the instances trainer hands each training to
    a worker process, so its calls run in parallel on threads that wait.
    """
    d = _require(body, "trainer")
    kind = d.get("kind")
    if kind == "mock":
        table = {str(k): float(v) for k, v in _require(d, "losses").items()}
        noise = float(d.get("noise", 0.0))

        def mock_trainer(spec, round_index, seed):
            if spec.name not in table:
                raise ConfigError(f"mock trainer has no loss for spec {spec.name!r}")
            base = table[spec.name]
            if noise == 0.0:
                return base
            import numpy as np

            return base + float(np.random.default_rng(seed).normal(0.0, noise))

        yield mock_trainer, 1
    elif kind == "command":
        argv = [str(a) for a in _require(d, "argv")]
        timeout = d.get("timeout")      # seconds per call; absent: no limit
        if timeout is not None and not (type(timeout) in (int, float) and 0 < timeout < math.inf):
            raise ConfigError(f"trainer timeout must be a positive number of seconds, "
                              f"got {timeout!r}")

        def command_trainer(spec, round_index, seed):
            env = dict(os.environ,
                       RLAB_SPEC_ID=spec.spec_id(),
                       RLAB_SPEC_NAME=spec.name,
                       RLAB_ROUND=str(round_index),
                       RLAB_SEED=str(seed))
            try:
                proc = subprocess.run(argv, input=json.dumps(spec.to_dict()),
                                      capture_output=True, text=True, env=env, timeout=timeout)
            except subprocess.TimeoutExpired:
                raise DatasetFormatError(f"external trainer for spec {spec.name!r} ran past "
                                         f"its {timeout!r} s timeout and was killed") from None
            if proc.returncode != 0:
                raise DatasetFormatError(f"external trainer exited {proc.returncode} for spec "
                                         f"{spec.name!r}; stderr: {proc.stderr[-500:]!r}")
            try:
                loss = float(proc.stdout.strip().splitlines()[-1])
            except (ValueError, IndexError):
                loss = math.nan
            if math.isnan(loss) or loss == -math.inf:     # +inf is a diverged instance
                raise DatasetFormatError(f"external trainer printed no loss for spec "
                                         f"{spec.name!r}: {proc.stdout!r}")
            return loss

        yield command_trainer, workers
    elif kind == "instances":
        pool, test_set = _datasets_from(d)
        stop = _stop_from(d)
        size = len(pool) if d.get("sample_size") is None else int(d["sample_size"])

        with InstanceRunner(pool, test_set, workers) as runner:
            def instance_trainer(spec, round_index, seed):
                task = (spec, size, substream_seed(seed, "data"), substream_seed(seed, "init"),
                        stop)
                return runner.train([task])[0].final_test_loss

            yield instance_trainer, workers
    else:
        raise ConfigError(f"unknown trainer kind {kind!r}")


def cmd_select(body: dict, out_dir: str, workers: int) -> int:
    specs = _specs_from(body)
    k = int(_require(body, "k"))     # read only for the "vs exhaustive" line
    if k < 1:
        raise ConfigError("k must be >= 1")
    criterion, policy = _criterion_from(body.get("criterion", {})), _policy_from(body)
    with _trainer_from(body, workers) as (trainer, concurrency):
        winners, ledger = select_models(
            specs,
            criterion=criterion,
            policy=policy,
            trainer=trainer,
            max_rounds=int(body.get("max_rounds", 50)),
            base_seed=int(body.get("base_seed", 0)),
            workers=concurrency,
        )
    _write_json(os.path.join(out_dir, "ledger.json"), ledger.to_record())
    _write_json(
        os.path.join(out_dir, "winners.json"),
        [{"spec_id": w.spec_id(), "spec": w.to_dict()} for w in winners],
    )
    exhaustive = len(specs) * k
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write(f"winners: {', '.join(w.name for w in winners)}"
                 f"{' (tie)' if ledger.tie else ''}\n")
        fh.write(f"rounds: {len(ledger.rounds)}\n")
        fh.write(f"trainings: {ledger.cumulative_trainings} "
                 f"vs exhaustive {len(specs)} x {k} = {exhaustive}\n")
    print(f"winner{'s' if len(winners) > 1 else ''}: "
          f"{', '.join(w.name for w in winners)} after {len(ledger.rounds)} rounds, "
          f"{ledger.cumulative_trainings}/{exhaustive} trainings")
    return EXIT_OK


def cmd_sweep(body: dict, out_dir: str, workers: int) -> int:
    spec = _spec_from(body)
    train_pool, test_pool = _datasets_from(body)
    if "sizes" in body:     # explicit sizes win over schedule indices
        sizes = [int(n) for n in body["sizes"]]
    else:
        sizes = [sample_size_schedule(int(i)) for i in body.get("indices", [])]
    rows = sample_size_sweep(
        spec,
        sizes=sizes,
        k=int(_require(body, "k")),
        train_pool=train_pool,
        test_pool=test_pool,
        base_seed=int(body.get("base_seed", 0)),
        stop=_stop_from(body),
        workers=workers,
    )
    _write_csv(
        os.path.join(out_dir, "sweep.csv"),
        ["n"] + BOX_COLUMNS,
        [[row["n"]] + _box_row(row["box"]) for row in rows],
    )
    _write_jsonl(
        os.path.join(out_dir, "sweep_records.jsonl"),
        [{"n": row["n"], "losses": row["losses"]} for row in rows],
    )
    print(f"{spec.name}: swept {len(rows)} sample sizes")
    return EXIT_DIVERGED if rows and all(math.isinf(r["box"]["min"]) for r in rows) else EXIT_OK


def cmd_report(body: dict, out_dir: str, workers: int) -> int:
    path = _require(body, "records")
    rows = []       # (spec_id, losses, summary statistics); all are checked before any output
    with open(path) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rows.append((str(rec["spec_id"]), rec["losses"],
                             summary_statistics(rec["losses"])))
            except (ValueError, KeyError, TypeError) as e:     # JSON, keys or losses
                raise DatasetFormatError(f"{path} line {number}: bad record: {e!r}") from None
    if not rows:
        raise DatasetFormatError(f"{path}: no records")
    criteria = [_criterion_from(d) for d in body.get(
        "criteria", [{"kind": k} for k in ("mean", "median", "min", "max", "std")])]
    _write_csv(
        os.path.join(out_dir, "stats.csv"),
        ["spec_id", "n", *STAT_KEYS],
        [[spec_id, s["n"], *(s[key] for key in STAT_KEYS)] for spec_id, _, s in rows],
    )
    ids = [spec_id for spec_id, _, _ in rows]
    lines = []
    for label, (values, xs, fs) in criterion_study([losses for _, losses, _ in rows],
                                                   criteria).items():
        name = label.replace("(", "_").replace(")", "").replace(".", "p")
        _write_csv(
            os.path.join(out_dir, f"ecdf_{name}.csv"),
            ["value", "fraction"],
            [[float(x), float(f)] for x, f in zip(xs, fs)],
        )
        best = min(zip(values, ids))
        lines.append(f"{label}: best spec {best[1]} at {best[0]!r}")
    with open(os.path.join(out_dir, "summary.txt"), "w") as fh:
        fh.write("\n".join(lines) + "\n")
    print(f"reported {len(rows)} records across {len(criteria)} criteria")
    return EXIT_OK


HANDLERS = {
    "gen-data": cmd_gen_data,
    "train": cmd_train,
    "robustness": cmd_robustness,
    "select": cmd_select,
    "sweep": cmd_sweep,
    "report": cmd_report,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rlab",
        description="Robustness-first model training, selection, and reporting.",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="YAML experiment config")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes for robustness and sweep, and trainings "
                             "run at once in a select round; the mock trainer stays serial "
                             "(default: RLAB_WORKERS or 1)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the config's seed")
    parser.add_argument("--out", default=None,
                        help="output directory (default: config out_dir or '.')")
    return parser


def _resolve_workers(flag: int | None) -> int:
    if flag is not None:
        return max(1, flag)
    env = os.environ.get("RLAB_WORKERS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"RLAB_WORKERS must be an integer, got {env!r}") from None
    return 1


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            with open(args.config) as fh:
                text = fh.read()
        except OSError as e:
            raise ConfigError(f"cannot read config: {e}") from None
        config = ExperimentConfig.parse(text)
        if config.command != args.command:
            raise ConfigError(
                f"config is for {config.command!r}, invoked as {args.command!r}")
        workers = _resolve_workers(args.workers)
        out_dir = args.out or config.body.get("out_dir", ".")
        os.makedirs(out_dir, exist_ok=True)
        body = dict(config.body)
        if args.seed is not None and config.command in SEED_KEYS:
            body[SEED_KEYS[config.command]] = args.seed
        return HANDLERS[config.command](body, out_dir, workers)
    except DatasetFormatError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except WorkerLostError as e:
        print(f"worker error: {e}", file=sys.stderr)
        return EXIT_DATA
    except (ConfigError, ContractError, ValueError, KeyError, TypeError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
