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
import signal
import subprocess
import sys
from dataclasses import dataclass
from functools import partial

import numpy as np
import yaml

# bootstrap_sample is not called here; perfbench traces rlab.cli.bootstrap_sample
from .calo import bootstrap_sample  # noqa: F401
from .calo import (GeneratorConfig, cluster_energy_sum, generate_dataset, load_dataset,
                   sample_size_schedule, save_dataset)
from .errors import (ConfigError, ContractError, DatasetFormatError, DegenerateFitError,
                     WorkerLostError, require_counts, require_reals, require_seeds,
                     require_strings)
from .nn import (ModelSpec, SearchSpace, TARGETS, enumerate_search_space,
                 preset_spec, reference_search_space)
from .robustness import (
    STAT_KEYS,
    BaselineGatePolicy,
    HalvingPolicy,
    InstanceRunner,
    SelectionCriterion,
    _round_losses,
    criterion_study,
    run_instances,
    sample_size_sweep,
    select_models,
    summary_statistics,
)
from .seeding import substream_seed, substreams
from .training import EarlyStopConfig, train_instance

EXIT_OK = 0
EXIT_CONFIG = 2          # malformed or contradictory configuration
EXIT_DATA = 3            # missing, corrupt or degenerate data, failed trainer, lost worker
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


def _block(build, d, name: str, *args):
    """build(*args, **d) for the config block d: the one place a block is
    unpacked, so a missing, unknown or misspelled key is a TypeError naming it."""
    if not isinstance(d, dict):
        raise ConfigError(f"{name!r} must be a mapping, got {d!r}")
    return build(*args, **d)


def _kind_block(table: dict, d, name: str, *args, default: str | None = None):
    """_block with the builder table[kind], kind being the block's own 'kind' key."""
    d = _block(dict, d, name)
    kind = d.pop("kind", default)
    if kind not in table:
        raise ConfigError(f"unknown {name} kind {kind!r}")
    return _block(table[kind], d, name, *args)


def _datasets(train_data: str, test_data: str, spec: ModelSpec | None = None):
    require_strings(train_data=train_data, test_data=test_data)
    sets = load_dataset(train_data), load_dataset(test_data)
    _check_barycenters(spec, zip((train_data, test_data), sets))
    return sets


def _check_barycenters(spec: ModelSpec | None, paths_and_sets) -> None:
    for path, ds in paths_and_sets if spec is not None and spec.aux == "barycenter" else ():
        empty = np.flatnonzero(cluster_energy_sum(ds.clusters) == 0.0)
        if empty.size:
            raise DatasetFormatError(f"{path}: event {empty[0]} is all zero and has no barycenter")


def _spec_from(preset: str | None, spec: dict | None) -> ModelSpec:
    if (preset is None) == (spec is None):
        raise ConfigError("need exactly one of a 'spec' block and a 'preset' name")
    if spec is not None:
        return ModelSpec.from_dict(spec)
    if not isinstance(preset, str):
        raise ConfigError(f"preset must be a name, got {preset!r}")
    return preset_spec(preset)


POLICIES = {"halving": HalvingPolicy, "baseline_gate": BaselineGatePolicy}


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


# A handler's keyword-only parameters are its command's config keys: the signatures
# are the key table.  A block's {} default is only ever unpacked, never changed.
def cmd_gen_data(out_dir: str, workers: int, *, n: int, seed: int, generator: dict = {},
                 filename: str = "events.rlab") -> int:
    require_counts(n=n)
    require_seeds(seed=seed)
    gen = _block(GeneratorConfig, generator, "generator")
    dataset = generate_dataset(gen, n, seed)
    path = os.path.join(out_dir, filename)
    save_dataset(dataset, path)
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    empty = np.count_nonzero(cluster_energy_sum(dataset.clusters) == 0.0)
    note = f", {empty} with no visible energy" if empty else ""
    print(f"wrote {path}: {n} kind-{gen.dataset_kind} events, sha256 {digest.hexdigest()}{note}")
    return EXIT_OK


def cmd_train(out_dir: str, workers: int, *, train_data: str, test_data: str, init_seed: int,
              preset: str | None = None, spec: dict | None = None, stop: dict = {}) -> int:
    require_seeds(init_seed=init_seed)
    spec = _spec_from(preset, spec)
    stop = _block(EarlyStopConfig, stop, "stop")
    train_set, test_set = _datasets(train_data, test_data, spec)
    inst = train_instance(spec, train_set, test_set, init_seed, stop=stop)
    _write_json(os.path.join(out_dir, "instance.json"), inst.to_record())
    _write_csv(
        os.path.join(out_dir, "trace.csv"),
        ["epoch", "loss"],
        [[i + 1, v] for i, v in enumerate(inst.loss_trace)],
    )
    print(f"{spec.name}: stopped after {inst.stop_epoch} epochs, "
          f"test loss {inst.final_test_loss!r}, diverged={inst.diverged}")
    return EXIT_DIVERGED if inst.diverged else EXIT_OK


def cmd_robustness(out_dir: str, workers: int, *, train_data: str, test_data: str, k: int,
                   preset: str | None = None, spec: dict | None = None,
                   mode: str = "both_random", base_seed: int = 0,
                   sample_size: int | None = None, stop: dict = {}) -> int:
    spec = _spec_from(preset, spec)
    stop = _block(EarlyStopConfig, stop, "stop")
    pool, test_set = _datasets(train_data, test_data, spec)
    record = run_instances(spec, k=k, pool=pool, test_set=test_set, mode=mode,
                           base_seed=base_seed, sample_size=sample_size, stop=stop,
                           workers=workers)
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


def _grid_specs(reference: str | None = None, architectures=(), learning_rates=(),
                batch_sizes=(), regularizations=()) -> list[ModelSpec]:
    """The specs a search_space block expands to; each spec checks its own values."""
    if reference is not None:     # the bundled 6,912-spec grid, keyed by target
        if reference not in TARGETS:
            raise ConfigError(f"unknown reference target {reference!r}")
        return enumerate_search_space(reference_search_space(reference))
    return enumerate_search_space(SearchSpace(
        tuple(ModelSpec.from_dict(d) for d in architectures),
        learning_rates, batch_sizes, regularizations))


def _specs_from(specs: list | None = None, search_space: dict | None = None) -> list[ModelSpec]:
    if (specs is None) == (search_space is None):
        raise ConfigError("need exactly one of a 'specs' list and a 'search_space' block")
    if specs is not None:
        return [ModelSpec.from_dict(d) for d in specs]
    return _block(_grid_specs, search_space, "search_space")


@contextlib.contextmanager
def _mock_trainer(workers: int, *, losses: dict, noise: float = 0.0):
    """Looks each spec's loss up by name and adds a normal draw of scale
    noise from the call's seed; does no real work, so stays serial.  Its
    round draws every call's noise in one pass over the seeds, first."""
    table = _block(dict, losses, "losses")
    require_reals(noise=noise, **{f"losses[{name!r}]": v for name, v in table.items()})
    if not 0.0 <= noise < math.inf:
        raise ConfigError(f"mock trainer noise must be finite and >= 0, got {noise!r}")
    for name, loss in table.items():
        if not loss > -math.inf:        # +inf is a diverged spec
            raise ConfigError(f"mock trainer loss for spec {name!r} must be real or +inf, "
                              f"got {loss!r}")
    drawn: dict[int, float] = {}        # this round's noise, by call seed

    def mock_trainer(spec, round_index, seed):
        if spec.name not in table:
            raise ConfigError(f"mock trainer has no loss for spec {spec.name!r}")
        return table[spec.name] + drawn[seed] if noise else table[spec.name]

    def mock_round(trainer, calls):
        if noise:
            seeds = [seed for _, _, seed in calls]
            drawn.clear()
            drawn.update(zip(seeds, (rng.normal(0.0, noise)
                                     for rng in substreams(np.array(seeds, np.uint64)))))
        return [trainer(*call) for call in calls]

    yield mock_trainer, mock_round


@contextlib.contextmanager
def _command_trainer(workers: int, *, argv: list, timeout: float | None = None):
    """Runs an external command per training, side by side; timeout: seconds per call."""
    argv = [str(a) for a in argv]
    running: set[int] = set()       # each trainer's session, killed whole if its call fails
    if timeout is not None:
        require_reals(timeout=timeout)
        if not 0 < timeout < math.inf:
            raise ConfigError(f"trainer timeout must be a positive number of seconds, "
                              f"got {timeout!r}")

    def command_trainer(spec, round_index, seed):
        env = dict(os.environ,
                   RLAB_SPEC_ID=spec.spec_id(),
                   RLAB_SPEC_NAME=spec.name,
                   RLAB_ROUND=str(round_index),
                   RLAB_SEED=str(seed))
        with subprocess.Popen(argv, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True, env=env,
                              start_new_session=True) as proc:
            running.add(proc.pid)
            try:
                stdout, stderr = proc.communicate(json.dumps(spec.to_dict()), timeout)
            except subprocess.TimeoutExpired:
                raise DatasetFormatError(f"external trainer for spec {spec.name!r} ran past "
                                         f"its {timeout!r} s timeout and was killed") from None
            finally:    # the timeout, Ctrl-C or any other error: stop the whole session
                running.discard(proc.pid)
                if proc.returncode is None:
                    os.killpg(proc.pid, signal.SIGKILL)
        if proc.returncode != 0:
            raise DatasetFormatError(f"external trainer exited {proc.returncode} for spec "
                                     f"{spec.name!r}; stderr: {stderr[-500:]!r}")
        try:
            loss = float(stdout.strip().splitlines()[-1])
        except (ValueError, IndexError):
            loss = math.nan
        if math.isnan(loss) or loss == -math.inf:     # +inf is a diverged instance
            raise DatasetFormatError(f"external trainer printed no loss for spec "
                                     f"{spec.name!r}: {stdout!r}")
        return loss

    def interrupt(signum, frame):   # a terminal's Ctrl-C reaches rlab's group alone
        for session in tuple(running):
            with contextlib.suppress(ProcessLookupError):
                os.killpg(session, signum)
        signal.default_int_handler(signum, frame)

    with contextlib.ExitStack() as restore:     # the handler in place before, at the end
        with contextlib.suppress(ValueError):   # only the main thread may set a handler
            restore.callback(signal.signal, signal.SIGINT, signal.signal(signal.SIGINT, interrupt))
        yield command_trainer, partial(_round_losses, workers=workers)


@contextlib.contextmanager
def _instances_trainer(workers: int, *, train_data: str, test_data: str,
                       sample_size: int | None = None, stop: dict = {}):
    """Hands each training to a worker process; its calls are threads that wait."""
    stop = _block(EarlyStopConfig, stop, "stop")
    pool, test_set = _datasets(train_data, test_data)
    size = len(pool) if sample_size is None else sample_size
    require_counts(sample_size=size)

    with InstanceRunner(pool, test_set, workers) as runner:
        def instance_trainer(spec, round_index, seed):
            _check_barycenters(spec, ((train_data, pool), (test_data, test_set)))
            task = (spec, size, substream_seed(seed, "data"), substream_seed(seed, "init"),
                    stop)
            return runner.train([task])[0].final_test_loss

        yield instance_trainer, partial(_round_losses, workers=workers)


# trainer kind -> context manager yielding (trainer, run_round): run_round
# makes a round's trainer calls, on up to `workers` threads where they wait
TRAINERS = {"mock": _mock_trainer, "command": _command_trainer,
            "instances": _instances_trainer}


def cmd_select(out_dir: str, workers: int, *, k: int, trainer: dict,
               specs: list | None = None, search_space: dict | None = None,
               criterion: dict = {}, policy: dict = {}, max_rounds: int = 50,
               base_seed: int = 0) -> int:
    require_counts(k=k)     # read only for the "vs exhaustive" line
    if k < 1:
        raise ConfigError("k must be >= 1")
    specs = _specs_from(specs, search_space)
    criterion = _block(SelectionCriterion, criterion, "criterion")
    policy = _kind_block(POLICIES, policy, "policy", default="halving")
    # a fork pool starts all its workers at once; a round makes at most one call per spec
    with _kind_block(TRAINERS, trainer, "trainer", min(workers, len(specs))) as (
            trainer, run_round):
        winners, ledger = select_models(specs, criterion=criterion, policy=policy,
                                        trainer=trainer, max_rounds=max_rounds,
                                        base_seed=base_seed, run_round=run_round)
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


def cmd_sweep(out_dir: str, workers: int, *, train_data: str, test_data: str, k: int,
              preset: str | None = None, spec: dict | None = None, sizes: list | None = None,
              indices: list | None = None, base_seed: int = 0, stop: dict = {}) -> int:
    spec = _spec_from(preset, spec)
    stop = _block(EarlyStopConfig, stop, "stop")
    if (sizes is None) == (indices is None):
        raise ConfigError("need exactly one of a 'sizes' list and an 'indices' list")
    if indices is not None:
        require_counts(indices=tuple(indices))
        sizes = [sample_size_schedule(i) for i in indices]
    if not sizes:
        raise ConfigError(f"'{'indices' if indices is not None else 'sizes'}' lists no sample size")
    train_pool, test_pool = _datasets(train_data, test_data, spec)
    rows = sample_size_sweep(spec, sizes=sizes, k=k, train_pool=train_pool,
                             test_pool=test_pool, base_seed=base_seed, stop=stop,
                             workers=workers)
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
    return EXIT_DIVERGED if all(math.isinf(r["box"]["min"]) for r in rows) else EXIT_OK


def cmd_report(out_dir: str, workers: int, *, records: str,
               criteria: list = [{"kind": k} for k in ("mean", "median", "min", "max", "std")],
               ) -> int:
    require_strings(records=records)
    criteria = [_block(SelectionCriterion, d, "criterion") for d in criteria]
    rows = []       # (spec_id, losses, summary statistics); all are checked before any output
    with open(records) as fh:
        for number, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                rows.append((str(rec["spec_id"]), rec["losses"],
                             summary_statistics(rec["losses"])))
            except (ValueError, KeyError, TypeError) as e:     # JSON, keys or losses
                raise DatasetFormatError(f"{records} line {number}: bad record: {e!r}") from None
    if not rows:
        raise DatasetFormatError(f"{records}: no records")
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
        body = dict(config.body)
        out_dir = body.pop("out_dir", ".")
        out_dir = args.out or out_dir
        os.makedirs(out_dir, exist_ok=True)
        if args.seed is not None and config.command in SEED_KEYS:
            body[SEED_KEYS[config.command]] = args.seed
        return HANDLERS[config.command](out_dir, workers, **body)
    except (DatasetFormatError, DegenerateFitError) as e:
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
    except KeyboardInterrupt:   # one line, then the death by SIGINT that stops a shell loop
        print("interrupted", file=sys.stderr, flush=True)
        signal.signal(signal.SIGINT, signal.SIG_DFL)
        signal.raise_signal(signal.SIGINT)


if __name__ == "__main__":
    sys.exit(main())
