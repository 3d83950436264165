"""Command line: configs, file outputs, exit codes, rerun determinism."""

import hashlib
import json
import math
import os
import random
import signal
import struct
import subprocess
import sys
import threading
import time
import zlib

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

import rlab
import rlab.cli
import rlab.training
from rlab.calo import GeneratorConfig, generate_dataset, load_dataset, save_dataset
from rlab.cli import (
    EXIT_CONFIG,
    EXIT_DATA,
    EXIT_DIVERGED,
    EXIT_OK,
    ExperimentConfig,
    main,
)
from rlab.errors import ConfigError
from rlab.nn import PRESET_IDS, enumerate_search_space, preset_spec, reference_search_space
from rlab.robustness import InstanceRunner

ONE_EPOCH = {"min_epochs": 1, "window": 1, "threshold": 1e9, "hard_cap": 1}


def tiny_spec_dict(name="tiny", lr=0.001, kind="adam"):
    return {
        "name": name,
        "conv_layers": [[4, 3], [8, 3]],
        "pool_layers": [[2, 2], [2, 1]],
        "fc_layers": [16, 1],
        "activation": "relu",
        "optimizer": {"kind": kind, "learning_rate": lr},
        "batch_size": 32,
        "target": "energy",
    }


def write_config(path, mapping):
    path.write_text(yaml.safe_dump(mapping))
    return str(path)


def rlab_env():
    """This environment, with the rlab under test importable in a subprocess."""
    src = os.path.dirname(os.path.dirname(rlab.__file__))
    return dict(os.environ,
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def sleeping(seconds: str) -> set[int]:
    """Pids of the running `sleep <seconds>` processes."""
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/cmdline", "rb") as fh:
                if fh.read().split(b"\0")[:2] == [b"sleep", seconds.encode()]:
                    pids.add(int(entry))
        except (OSError, ValueError):     # not a pid, or gone meanwhile
            pass
    return pids


def session_members(session: int) -> set[int]:
    """Pids of the running processes of a session."""
    pids = set()
    for entry in os.listdir("/proc"):
        try:
            with open(f"/proc/{entry}/stat") as fh:
                fields = fh.read().rpartition(")")[2].split()
        except (OSError, ValueError):     # not a pid, or gone meanwhile
            continue
        if fields[3] == str(session) and fields[0] != "Z":
            pids.add(int(entry))
    return pids


@pytest.fixture(scope="module")
def data_files(tmp_path_factory):
    d = tmp_path_factory.mktemp("data")
    cfg = GeneratorConfig()
    save_dataset(generate_dataset(cfg, 64, seed=11), str(d / "train.rlab"))
    save_dataset(generate_dataset(cfg, 140, seed=12), str(d / "test.rlab"))
    return str(d / "train.rlab"), str(d / "test.rlab")


class TestExperimentConfig:
    def test_parse_rejects_garbage(self):
        for text in ("- a\n- b\n", "n: 3\n", "command: conquer\n", ":\n -"):
            with pytest.raises(ConfigError):
                ExperimentConfig.parse(text)


# config values as safe_dump writes them: floats such as 1.0e-05, .inf and
# .nan, ints, bools, None, and strings a resolver could take for numbers
SCALARS = st.one_of(
    st.floats(), st.sampled_from([1e-05, 1e300, -0.0, math.inf, -math.inf, math.nan]),
    st.integers(-2**70, 2**70), st.booleans(), st.none(), st.text(max_size=8),
    st.sampled_from(["1e3", "1.0e-05", ".inf", "-.inf", ".nan", "0x1F", "0o17", "1_000",
                     "+12", "yes", "off", "~", "null", "2001-12-14", "1:20", "007"]))
CONFIG_VALUES = st.recursive(
    SCALARS,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.dictionaries(st.text(max_size=6), inner, max_size=4)),
    max_leaves=20)


class TestYamlLoaders:
    @pytest.mark.skipif(not hasattr(yaml, "CSafeLoader"), reason="PyYAML built without libyaml")
    @given(st.dictionaries(st.text(max_size=8), CONFIG_VALUES, max_size=6))
    @settings(max_examples=300, deadline=None)
    def test_libyaml_and_python_loaders_agree(self, mapping):
        text = yaml.safe_dump(mapping, sort_keys=True)
        fast = yaml.load(text, Loader=yaml.CSafeLoader)
        slow = yaml.load(text, Loader=yaml.SafeLoader)
        # repr is stricter than ==: nan matches nan, but 1, 1.0 and True differ
        assert repr(fast) == repr(slow)

    def test_parse_uses_libyaml_where_built(self):
        assert rlab.cli._YAML_LOADER is getattr(yaml, "CSafeLoader", yaml.SafeLoader)

    def test_grid_config_parses_as_the_python_loader_does(self):
        names = [s.name for s in TestSelectBytesPinned.GRID]
        body = {"command": "select", "search_space": {"reference": "energy"}, "k": 50,
                "trainer": {"kind": "mock", "noise": 0.01,
                            "losses": TestSelectBytesPinned.loss_table(names, 3, 0.1)}}
        text = yaml.safe_dump(body)
        cfg = ExperimentConfig.parse(text)
        assert {"command": cfg.command, **cfg.body} == yaml.load(text, Loader=yaml.SafeLoader)

    @pytest.mark.parametrize("text", [
        "command: [unclosed\n", "command: select\nk: b: c\n", "command: select\n\tk: 3\n",
        "command: 'unterminated\n", "{command: select", "command: select\nk: *nowhere\n",
        "command: select\nk: \x07\n", "%YAML 9.9\n---\ncommand: select\n",
    ])
    def test_malformed_yaml_is_one_config_error_line(self, tmp_path, capsys, text):
        p = tmp_path / "bad.yaml"
        p.write_text(text)
        assert main(["select", "--config", str(p), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: not valid YAML") and err.count("\n") == 1, err
        assert not (tmp_path / "out").exists()


class TestGenData:
    def test_reproducible_file_with_checksum(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "g.yaml",
                           {"command": "gen-data", "n": 50, "seed": 7})
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--config", cfg, "--out", str(out_a)]) == EXIT_OK
        out = capsys.readouterr().out
        assert "sha256" in out and "visible energy" not in out
        assert main(["gen-data", "--config", cfg, "--out", str(out_b)]) == EXIT_OK
        assert (out_a / "events.rlab").read_bytes() == (out_b / "events.rlab").read_bytes()

    def test_zero_events_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "g.yaml",
                           {"command": "gen-data", "n": 0, "seed": 7})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_kind_b_recorded_in_file(self, tmp_path):
        cfg = write_config(
            tmp_path / "g.yaml",
            {"command": "gen-data", "generator": {"dataset_kind": "B"},
             "n": 20, "seed": 3, "filename": "b.rlab"},
        )
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert load_dataset(str(tmp_path / "b.rlab")).config.dataset_kind == "B"

    def test_reports_clusters_with_no_visible_energy(self, tmp_path, capsys):
        # at this resolution the stochastic term zeroes events 15, 18, 51 and 59
        cfg = write_config(tmp_path / "g.yaml",
                           {"command": "gen-data", "n": 60, "seed": 3,
                            "generator": {"resolution_a": 5.0}})
        assert main(["gen-data", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("wrote ") and out.count("\n") == 1, out
        assert out.endswith(", 4 with no visible energy\n"), out

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = write_config(tmp_path / "g.yaml",
                           {"command": "gen-data", "n": 30, "seed": 7})
        a, b = tmp_path / "a", tmp_path / "b"
        main(["gen-data", "--config", cfg, "--out", str(a)])
        main(["gen-data", "--config", cfg, "--out", str(b), "--seed", "8"])
        assert (a / "events.rlab").read_bytes() != (b / "events.rlab").read_bytes()


class TestTrain:
    def test_writes_instance_and_trace(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(
            tmp_path / "t.yaml",
            {"command": "train", "spec": tiny_spec_dict(), "train_data": train,
             "test_data": test, "init_seed": 5, "stop": dict(ONE_EPOCH)},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rec = json.loads((tmp_path / "instance.json").read_text())
        assert rec["stop_epoch"] == 1
        assert "wall_time" not in rec
        trace = (tmp_path / "trace.csv").read_text().splitlines()
        assert trace[0] == "epoch,loss"
        assert len(trace) == 2

    def test_divergence_exit_code(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(
            tmp_path / "t.yaml",
            {"command": "train",
             "spec": tiny_spec_dict(lr=1e150, kind="sgd"),
             "train_data": train, "test_data": test,
             "init_seed": 5, "stop": dict(ONE_EPOCH)},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DIVERGED

    def test_reports_independent_of_blas_thread_count(self, tmp_path):
        # model2 on 1,000 events is the smallest training found whose loss
        # bits moved with the OpenBLAS thread count when nothing pinned it
        save_dataset(generate_dataset(GeneratorConfig(), 1000, seed=113),
                     str(tmp_path / "train.rlab"))
        save_dataset(generate_dataset(GeneratorConfig(), 200, seed=213),
                     str(tmp_path / "test.rlab"))
        cfg = write_config(
            tmp_path / "t.yaml",
            {"command": "train", "preset": "model2",
             "train_data": str(tmp_path / "train.rlab"),
             "test_data": str(tmp_path / "test.rlab"),
             "init_seed": 13, "stop": dict(ONE_EPOCH)},
        )
        reports = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(rlab_env(), OPENBLAS_NUM_THREADS=threads)
            proc = subprocess.run(
                [sys.executable, "-m", "rlab.cli", "train", "--config", cfg, "--out", str(out)],
                env=env, capture_output=True, text=True, timeout=300)
            assert proc.returncode == EXIT_OK, proc.stderr
            reports.append({name: (out / name).read_bytes()
                            for name in ("instance.json", "trace.csv")})
        assert reports[0] == reports[1]

    def test_missing_dataset_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "t.yaml",
            {"command": "train", "spec": tiny_spec_dict(),
             "train_data": str(tmp_path / "nope.rlab"),
             "test_data": str(tmp_path / "nope.rlab"), "init_seed": 5},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA

    def test_corrupt_dataset_is_data_error(self, tmp_path, data_files):
        train, test = data_files
        bad = tmp_path / "bad.rlab"
        bad.write_bytes(open(train, "rb").read()[:40])
        cfg = write_config(
            tmp_path / "t.yaml",
            {"command": "train", "spec": tiny_spec_dict(), "train_data": str(bad),
             "test_data": test, "init_seed": 5},
        )
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA


class TestDatasetValues:
    """Files written by save_dataset, so with a valid CRC, but holding values
    that no generator writes: each is a data error naming the file and event."""

    @staticmethod
    def train(tmp_path, train, test):
        cfg = write_config(
            tmp_path / "t.yaml",
            {"command": "train", "spec": tiny_spec_dict(), "train_data": train,
             "test_data": test, "init_seed": 5, "stop": dict(ONE_EPOCH)},
        )
        return main(["train", "--config", cfg, "--out", str(tmp_path)])

    @staticmethod
    def edited(tmp_path, source, edit, generator=None):
        ds = load_dataset(source)
        edit(ds)
        path = str(tmp_path / "edited.rlab")
        save_dataset(ds, path)
        if generator is not None:      # rewrite the provenance block and its CRC
            raw = open(path, "rb").read()
            payload = raw[6:-4]
            (blob_len,) = struct.unpack_from("<I", payload, 0)
            blob = json.dumps({"generator": generator, "seed": ds.seed}).encode()
            payload = struct.pack("<I", len(blob)) + blob + payload[4 + blob_len:]
            open(path, "wb").write(raw[:6] + payload + struct.pack("<I", zlib.crc32(payload)))
        return path

    def test_nan_cell_in_test_set(self, tmp_path, data_files, capsys):
        train, test = data_files
        bad = self.edited(tmp_path, test, lambda ds: ds.clusters.__setitem__((7, 3, 4), np.nan))
        assert self.train(tmp_path, train, bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert bad in err and "event 7 " in err and "non-finite" in err

    def test_infinite_energy_in_training_set(self, tmp_path, data_files, capsys):
        train, test = data_files
        bad = self.edited(tmp_path, train, lambda ds: ds.energy.__setitem__(5, np.inf))
        assert self.train(tmp_path, bad, test) == EXIT_DATA
        err = capsys.readouterr().err
        assert bad in err and "event 5 " in err and "non-finite" in err

    def test_zero_energy_in_test_set(self, tmp_path, data_files, capsys):
        train, test = data_files
        bad = self.edited(tmp_path, test, lambda ds: ds.energy.__setitem__(9, 0.0))
        assert self.train(tmp_path, train, bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert bad in err and "event 9 " in err and "not above 0" in err

    @pytest.mark.parametrize("change", [{"energy_range": [5, 1]}, {"colour": "red"}])
    def test_invalid_generator_block(self, tmp_path, data_files, capsys, change):
        train, test = data_files
        generator = dict(GeneratorConfig().to_dict(), **change)
        bad = self.edited(tmp_path, test, lambda ds: None, generator)
        assert self.train(tmp_path, train, bad) == EXIT_DATA
        err = capsys.readouterr().err
        assert bad in err and "generator" in err


class TestAllZeroCluster:
    @pytest.fixture
    def events(self, tmp_path):
        # at this resolution the stochastic term zeroes 4 of the 60 clusters, 15 first
        gen = write_config(tmp_path / "gen.yaml",
                           {"command": "gen-data", "n": 60, "seed": 3,
                            "generator": {"resolution_a": 5.0}})
        assert main(["gen-data", "--config", gen, "--out", str(tmp_path)]) == EXIT_OK
        return str(tmp_path / "events.rlab")

    def test_barycenter_spec_on_an_all_zero_cluster_is_a_data_error(self, tmp_path, capsys,
                                                                      events):
        cfg = write_config(tmp_path / "t.yaml",
                           {"command": "train", "preset": "model4", "train_data": events,
                            "test_data": events, "init_seed": 1, "stop": dict(ONE_EPOCH)})
        capsys.readouterr()
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {events}: event 15 is all zero and has no barycenter\n"

    @pytest.mark.parametrize("command", ["train", "robustness", "sweep", "select"])
    def test_every_command_names_the_file_and_event(self, tmp_path, capsys, data_files,
                                                    events, command):
        # the index counts within the file, not within a bootstrap draw
        files = {"train_data": data_files[0], "test_data": events}
        model4 = preset_spec("model4").to_dict()
        body = {
            "train": dict(preset="model4", init_seed=1, **files),
            "robustness": dict(preset="model4", k=2, sample_size=40, **files),
            "sweep": dict(preset="model4", k=2, sizes=[40], **files),
            "select": dict(k=2, specs=[dict(model4, name="a"), dict(model4, name="b")],
                           trainer=dict(kind="instances", sample_size=40,
                                        stop=dict(ONE_EPOCH), **files)),
        }[command]
        if command != "select":
            body["stop"] = dict(ONE_EPOCH)
        cfg = write_config(tmp_path / "c.yaml", dict(command=command, **body))
        capsys.readouterr()
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err == f"data error: {events}: event 15 is all zero and has no barycenter\n"


# a stop rule no training reaches in a test's lifetime
ENDLESS = {"min_epochs": 10 ** 6, "window": 1, "hard_cap": 10 ** 6}


def interrupted(args: list[str], send, timeout: float) -> None:
    """Run rlab with args in a session of its own, send(its pid, SIGINT) once
    its trainings run, and require within timeout seconds one 'interrupted'
    line, death by SIGINT and no session member left behind."""
    argv = [sys.executable, "-m", "rlab.cli", *args]
    proc = subprocess.Popen(argv, env=rlab_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    err = None
    try:
        time.sleep(4)               # the trainings are running
        send(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
    finally:
        time.sleep(0.5)
        left = session_members(proc.pid)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
    assert proc.returncode == -signal.SIGINT
    assert err == "interrupted\n"
    assert not left, "a worker is still running"


def robustness_config(train, test, **extra):
    body = {
        "command": "robustness",
        "spec": tiny_spec_dict(),
        "train_data": train,
        "test_data": test,
        "k": 2,
        "base_seed": 4,
        "stop": dict(ONE_EPOCH),
    }
    body.update(extra)
    return body


REPORT_FILES = ("records.jsonl", "losses.csv", "box.csv")


class TestRobustness:
    def test_outputs_and_rerun_determinism(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(tmp_path / "r.yaml", robustness_config(train, test))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["robustness", "--config", cfg, "--out", str(a)]) == EXIT_OK
        assert main(["robustness", "--config", cfg, "--out", str(b)]) == EXIT_OK
        for name in REPORT_FILES + ("summary.txt",):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_worker_count_does_not_change_reports(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(tmp_path / "r.yaml",
                           robustness_config(train, test, k=3))
        a, b = tmp_path / "w1", tmp_path / "w2"
        assert main(["robustness", "--config", cfg, "--out", str(a),
                     "--workers", "1"]) == EXIT_OK
        assert main(["robustness", "--config", cfg, "--out", str(b),
                     "--workers", "2"]) == EXIT_OK
        for name in REPORT_FILES:
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_single_instance_degenerate_stats(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(tmp_path / "r.yaml",
                           robustness_config(train, test, k=1))
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rec = json.loads((tmp_path / "records.jsonl").read_text())
        assert rec["statistics"]["std"] == 0.0
        assert len(rec["losses"]) == 1

    def test_fixed_data_mode_shares_data_seed(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(
            tmp_path / "r.yaml",
            robustness_config(train, test, k=3, mode="fixed_data_random_init"),
        )
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        rows = (tmp_path / "losses.csv").read_text().splitlines()[1:]
        data_seeds = {r.split(",")[2] for r in rows}
        init_seeds = {r.split(",")[1] for r in rows}
        assert len(rows) == 3 and len(data_seeds) == 1 and len(init_seeds) == 3

    def test_all_diverged_exit_code(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(
            tmp_path / "r.yaml",
            robustness_config(train, test,
                              spec=tiny_spec_dict(lr=1e150, kind="sgd")),
        )
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DIVERGED

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_ctrl_c_is_one_line_and_death_by_sigint(self, tmp_path, data_files, workers):
        # a terminal sends Ctrl-C to the whole group: rlab and its pool workers
        cfg = write_config(tmp_path / "r.yaml",
                           robustness_config(*data_files, k=4, stop=ENDLESS))
        interrupted(["robustness", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", workers], os.killpg, timeout=30)

    @pytest.mark.parametrize("command", ["robustness", "sweep", "select"])
    def test_sigint_to_rlab_alone_ends_its_workers(self, tmp_path, data_files, command):
        # kill -INT <pid> reaches rlab but not the pool workers that train
        train, test = data_files
        body = {"robustness": robustness_config(train, test, k=4, stop=ENDLESS),
                "sweep": TestSweep.sweep_body(train, test, stop=ENDLESS),
                "select": {"command": "select", "k": 2,
                           "specs": [tiny_spec_dict(f"s{i}", lr=lr)
                                     for i, lr in enumerate([1e-3, 3e-3, 1e-2, 3e-2])],
                           "trainer": {"kind": "instances", "train_data": train,
                                       "test_data": test, "stop": ENDLESS}}}[command]
        cfg = write_config(tmp_path / "c.yaml", body)
        interrupted([command, "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", "2"], os.kill, timeout=5)

    def test_nan_hard_cap_is_one_config_error_line_before_training(
            self, tmp_path, data_files, capsys, monkeypatch):
        # a NaN cap never compares true, so a training under it would not end
        def no_training(*args, **kwargs):
            raise AssertionError("a training started")

        monkeypatch.setattr(rlab.training, "fit", no_training)
        train, test = data_files
        cfg = write_config(tmp_path / "r.yaml", robustness_config(
            train, test, stop=dict(ONE_EPOCH, hard_cap=math.nan)))
        assert ".nan" in open(cfg).read()
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == "config error: hard_cap takes integers only, got nan\n"
        assert not (tmp_path / "records.jsonl").exists()


class TestSelect:
    def mock_select_body(self, n_specs=8, k=5):
        names = [f"m{i}" for i in range(n_specs)]
        return {
            "command": "select",
            "specs": [tiny_spec_dict(name) for name in names],
            "trainer": {"kind": "mock",
                        "losses": {n: 0.1 * (i + 1) for i, n in enumerate(names)}},
            "criterion": {"kind": "mean"},
            "policy": {"kind": "halving"},
            "k": k,
        }

    def test_mock_halving_ledger(self, tmp_path):
        cfg = write_config(tmp_path / "s.yaml", self.mock_select_body())
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        ledger = json.loads((tmp_path / "ledger.json").read_text())
        assert [r["survivors_before"] for r in ledger["rounds"]] == [8, 4, 2]
        assert ledger["cumulative_trainings"] == 14
        assert ledger["cumulative_trainings"] < 8 * 5
        assert not ledger["tie"]
        winners = json.loads((tmp_path / "winners.json").read_text())
        assert [w["spec"]["name"] for w in winners] == ["m0"]
        summary = (tmp_path / "summary.txt").read_text()
        assert "14" in summary and "40" in summary

    @pytest.mark.parametrize("trainer, message", [
        ({"noise": -0.01}, "mock trainer noise must be finite and >= 0, got -0.01"),
        ({"noise": math.nan}, "mock trainer noise must be finite and >= 0, got nan"),
        ({"noise": math.inf}, "mock trainer noise must be finite and >= 0, got inf"),
        ({"losses": {"m0": 0.1, "m1": math.nan}},
         "mock trainer loss for spec 'm1' must be real or +inf, got nan"),
        ({"losses": {"m0": -math.inf, "m1": 0.2}},
         "mock trainer loss for spec 'm0' must be real or +inf, got -inf"),
    ], ids=["noise-negative", "noise-nan", "noise-inf", "loss-nan", "loss-minus-inf"])
    def test_mock_inputs_are_checked_when_it_is_built(self, tmp_path, capsys, trainer, message):
        body = self.mock_select_body(n_specs=2)
        body["trainer"].update(trainer)
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "ledger.json").exists()

    def test_mock_diverged_spec_loses(self, tmp_path):
        body = self.mock_select_body(n_specs=2)
        body["trainer"].update(noise=0.01, losses={"m0": math.inf, "m1": 0.2})
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        winners = json.loads((tmp_path / "winners.json").read_text())
        assert [w["spec"]["name"] for w in winners] == ["m1"]

    def test_single_spec_immediate_winner(self, tmp_path):
        body = self.mock_select_body(n_specs=1)
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        ledger = json.loads((tmp_path / "ledger.json").read_text())
        assert ledger["rounds"] == []
        assert ledger["cumulative_trainings"] == 0

    def test_external_command_trainer(self, tmp_path):
        script = tmp_path / "trainer.py"
        script.write_text(
            "import json, sys\n"
            "spec = json.load(sys.stdin)\n"
            "print({'A': 1.0, 'B': 2.0}[spec['name']])\n"
        )
        body = {
            "command": "select",
            "specs": [tiny_spec_dict("A"), tiny_spec_dict("B")],
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)]},
            "k": 2,
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        winners = json.loads((tmp_path / "winners.json").read_text())
        assert [w["spec"]["name"] for w in winners] == ["A"]

    @pytest.mark.parametrize("printed", ["nan", "-inf", "ten", ""])
    def test_command_trainer_bad_loss_is_data_error(self, tmp_path, capsys, printed):
        script = tmp_path / "trainer.py"
        script.write_text(
            "import json, sys\n"
            "spec = json.load(sys.stdin)\n"
            f"print({{'A': '1.0', 'B': {printed!r}}}[spec['name']])\n"
        )
        body = {
            "command": "select",
            "specs": [tiny_spec_dict("A"), tiny_spec_dict("B")],
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)]},
            "k": 2,
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and "'B'" in err
        assert not (tmp_path / "ledger.json").exists()

    @pytest.mark.parametrize("stderr", ["", "out of memory\nkilled\n"])
    def test_command_trainer_crash_is_data_error(self, tmp_path, capsys, stderr):
        script = tmp_path / "trainer.py"
        script.write_text(
            "import json, sys\n"
            "spec = json.load(sys.stdin)\n"
            "if spec['name'] == 'B':\n"
            f"    sys.stderr.write({stderr!r})\n"
            "    sys.exit(7)\n"
            "print(1.0)\n"
        )
        body = {
            "command": "select",
            "specs": [tiny_spec_dict("A"), tiny_spec_dict("B")],
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)]},
            "k": 2,
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA
        err = capsys.readouterr().err
        assert err.startswith("data error:") and err.count("\n") == 1
        assert "'B'" in err and "exited 7" in err and repr(stderr) in err
        assert not (tmp_path / "ledger.json").exists()

    def select_reports(self, tmp_path, body, workers):
        cfg = write_config(tmp_path / "s.yaml", body)
        out = tmp_path / f"w{workers}"
        assert main(["select", "--config", cfg, "--out", str(out),
                     "--workers", str(workers)]) == EXIT_OK
        return {name: (out / name).read_bytes()
                for name in ("ledger.json", "winners.json", "summary.txt")}

    def test_instances_trainer_reports_independent_of_workers(self, tmp_path, data_files):
        train, test = data_files
        body = {
            "command": "select", "k": 3, "base_seed": 17,
            "specs": [tiny_spec_dict(f"s{i}", lr=lr, kind=kind)
                      for i, (lr, kind) in enumerate([(1e-3, "adam"), (1e-2, "adam"),
                                                      (1e-2, "sgd"), (1e-3, "sgd")])],
            "criterion": {"kind": "median"},
            "trainer": {"kind": "instances", "train_data": train, "test_data": test,
                        "sample_size": 48, "stop": dict(ONE_EPOCH)},
        }
        serial = self.select_reports(tmp_path, body, 1)
        assert json.loads(serial["ledger.json"])["cumulative_trainings"] == 6
        assert self.select_reports(tmp_path, body, 2) == serial

    def test_instances_trainer_pool_bounded_by_spec_count(self, tmp_path, data_files,
                                                          monkeypatch):
        # a fork pool starts every worker it is given; trained here, in-process
        asked = []

        class RecordingRunner(InstanceRunner):
            def __init__(self, pool, test_set, workers=1):
                asked.append(workers)
                super().__init__(pool, test_set, 1)

        monkeypatch.setattr(rlab.cli, "InstanceRunner", RecordingRunner)
        train, test = data_files
        body = {"command": "select", "k": 2,
                "specs": [tiny_spec_dict(f"s{i}", lr=lr)
                          for i, lr in enumerate([1e-3, 1e-2, 3e-2])],
                "trainer": {"kind": "instances", "train_data": train, "test_data": test,
                            "sample_size": 32, "stop": dict(ONE_EPOCH)}}
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", "500"]) == EXIT_OK
        assert asked == [3]

    def test_command_trainer_reports_independent_of_workers(self, tmp_path):
        # the loss depends on the seed, so a call given another spec's seed shows
        script = tmp_path / "trainer.py"
        script.write_text(
            "import json, os, sys\n"
            "spec = json.load(sys.stdin)\n"
            "print(int(spec['name'][1:]) + int(os.environ['RLAB_SEED']) % 1000 / 1e4)\n"
        )
        body = {
            "command": "select", "k": 4,
            "specs": [tiny_spec_dict(f"c{i}") for i in range(6)],
            "criterion": {"kind": "mean"},
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)]},
        }
        serial = self.select_reports(tmp_path, body, 1)
        assert json.loads(serial["ledger.json"])["cumulative_trainings"] == 6 + 3
        assert self.select_reports(tmp_path, body, 2) == serial

    def test_command_trainer_can_recompute_its_seed(self, tmp_path):
        # the README's formula for RLAB_SEED, run by the external trainer itself
        script = tmp_path / "trainer.py"
        script.write_text(
            "import os, sys, zlib\n"
            "import numpy as np\n"
            "words = (zlib.crc32(os.environ['RLAB_SPEC_ID'].encode()), zlib.crc32(b'round'),\n"
            "         int(os.environ['RLAB_ROUND']))\n"
            "state = np.random.SeedSequence(31, spawn_key=words).generate_state(1, np.uint64)\n"
            "if int(state[0] >> np.uint64(1)) != int(os.environ['RLAB_SEED']):\n"
            "    sys.exit(9)\n"
            "print(0.5)\n"
        )
        body = {
            "command": "select", "k": 2, "base_seed": 31,
            "specs": [tiny_spec_dict(f"c{i}") for i in range(4)],
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)]},
        }
        assert json.loads(self.select_reports(tmp_path, body, 1)["ledger.json"])[
            "cumulative_trainings"] == 4 + 2

    def test_first_failing_spec_reported_at_any_worker_count(self, tmp_path, capsys):
        # B fails late and C at once: run side by side, C fails first in time,
        # but B comes first in enumeration order, so B is the one reported
        script = tmp_path / "trainer.py"
        script.write_text(
            "import json, sys, time\n"
            "name = json.load(sys.stdin)['name']\n"
            "if name == 'B':\n"
            "    time.sleep(1.0)\n"
            "    sys.exit(5)\n"
            "if name == 'C':\n"
            "    sys.exit(7)\n"
            "print(1.0)\n"
        )
        body = {
            "command": "select", "k": 2,
            "specs": [tiny_spec_dict(n) for n in "ABCD"],
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)]},
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        errors = []
        for workers in ("1", "2"):
            out = tmp_path / f"w{workers}"
            assert main(["select", "--config", cfg, "--out", str(out),
                         "--workers", workers]) == EXIT_DATA
            errors.append(capsys.readouterr().err)
            assert not (out / "ledger.json").exists()
        assert errors[0] == errors[1]
        assert "'B'" in errors[0] and "exited 5" in errors[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_command_trainer_timeout_is_data_error(self, tmp_path, workers):
        script = tmp_path / "trainer.py"
        script.write_text(
            "import json, sys, time\n"
            "if json.load(sys.stdin)['name'] == 'B':\n"
            "    time.sleep(60)\n"
            "print(1.0)\n"
        )
        body = {
            "command": "select", "k": 2,
            "specs": [tiny_spec_dict(n) for n in "ABC"],
            "trainer": {"kind": "command", "argv": [sys.executable, str(script)],
                        "timeout": 1.5},
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        argv = [sys.executable, "-m", "rlab.cli", "select", "--config", cfg,
                "--out", str(tmp_path / "out"), "--workers", workers]
        # a session of its own, so that on timeout the sleeping trainer is stopped too
        proc = subprocess.Popen(argv, env=rlab_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("select still running 30 s into a 1.5 s trainer timeout")
        assert proc.returncode == EXIT_DATA, err
        assert err.startswith("data error:") and err.count("\n") == 1, err
        assert "'B'" in err and "timeout" in err
        assert not (tmp_path / "out" / "ledger.json").exists()

    def test_command_trainer_timeout_stops_the_trainers_children(self, tmp_path, capsys):
        # sh runs sleep as its child: stopping sh alone would leave sleep running.
        # At one worker the first spec's timeout ends the run: one trainer starts.
        body = {
            "command": "select", "k": 2,
            "specs": [tiny_spec_dict(n) for n in "AB"],
            "trainer": {"kind": "command", "argv": ["sh", "-c", "sleep 23.456; echo 1.0"],
                        "timeout": 1.0},
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        before = sleeping("23.456")
        assert main(["select", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--workers", "1"]) == EXIT_DATA
        assert "'A'" in capsys.readouterr().err
        for _ in range(50):     # a killed process leaves /proc within moments
            left = sleeping("23.456") - before
            if not left:
                break
            time.sleep(0.1)
        for pid in left:
            os.kill(pid, signal.SIGKILL)
        assert not left, "the timed-out trainer's sleep is still running"

    def test_command_trainer_runs_outside_the_main_thread(self, tmp_path, capsys):
        # only the main thread may set the handler that passes a Ctrl-C on
        body = {"command": "select", "k": 2, "specs": [tiny_spec_dict(n) for n in "AB"],
                "trainer": {"kind": "command", "argv": ["sh", "-c", "echo 1.0"]}}
        cfg = write_config(tmp_path / "s.yaml", body)
        codes = []
        thread = threading.Thread(target=lambda: codes.append(main(
            ["select", "--config", cfg, "--out", str(tmp_path / "out")])))
        thread.start()
        thread.join()
        assert codes == [EXIT_OK], capsys.readouterr().err

    def test_ctrl_c_still_reaches_the_command_trainers(self, tmp_path):
        # a terminal sends Ctrl-C to rlab's process group, which no longer holds
        # the trainers: each runs in a session of its own
        body = {
            "command": "select", "k": 2,
            "specs": [tiny_spec_dict(n) for n in "AB"],
            "trainer": {"kind": "command", "argv": ["sh", "-c", "sleep 23.457; echo 1.0"]},
        }
        cfg = write_config(tmp_path / "s.yaml", body)
        before = sleeping("23.457")
        argv = [sys.executable, "-m", "rlab.cli", "select", "--config", cfg,
                "--out", str(tmp_path / "out"), "--workers", "2"]
        proc = subprocess.Popen(argv, env=rlab_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        err = None
        try:
            for _ in range(300):        # until both trainers sleep
                if len(sleeping("23.457") - before) == 2:
                    break
                time.sleep(0.1)
            os.killpg(proc.pid, signal.SIGINT)
            _, err = proc.communicate(timeout=10)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
        finally:
            time.sleep(0.5)
            left = sleeping("23.457") - before
            for pid in left:
                os.kill(pid, signal.SIGKILL)
        assert proc.returncode == -signal.SIGINT
        assert err == "interrupted\n"
        assert not left, "a trainer's sleep is still running"

    @pytest.mark.parametrize("timeout", [0, -1.0, math.inf, "soon", True])
    def test_bad_command_trainer_timeout_is_config_error(self, tmp_path, capsys, timeout):
        body = {"command": "select", "k": 2, "specs": [tiny_spec_dict(n) for n in "AB"],
                "trainer": {"kind": "command", "argv": ["true"], "timeout": timeout}}
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert "timeout" in capsys.readouterr().err

    def test_nonpositive_k_is_config_error(self, tmp_path):
        cfg = write_config(tmp_path / "s.yaml", self.mock_select_body(k=0))
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_empty_space_is_config_error(self, tmp_path):
        body = self.mock_select_body()
        body["specs"] = []
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    @pytest.mark.parametrize("block, message", [
        ({"search_space": {"architectures": [tiny_spec_dict("a")],
                           "learning_rates": [-1.0, 0.001], "batch_sizes": [0, 32],
                           "regularizations": [-0.5]}},
         "learning_rate must be positive"),
        ({"specs": [tiny_spec_dict("a"), dict(tiny_spec_dict("b"), seed_policy="fixed")]},
         "unknown seed policy 'fixed'"),
        ({"search_space": {"architectures": [tiny_spec_dict("a")], "learning_rates": [0.001],
                           "batch_sizes": [32.5], "regularizations": [0.01]}},
         "batch_size takes integers only, got 32.5"),
    ])
    def test_invalid_spec_is_one_config_error_line(self, tmp_path, capsys, block, message):
        # the mock knows every name the grid would carry, so only a check of
        # the specs themselves can stop the run
        names = [f"a-lr{lr}-bs{bs}-reg-0.5" for lr in ("-1", "0.001") for bs in (0, 32)]
        body = {"command": "select", "k": 2, **block,
                "trainer": {"kind": "mock", "losses": {n: 0.5 for n in names + ["a", "b"]}}}
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["select", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert not (tmp_path / "winners.json").exists()

    def test_reference_search_space_shortcut(self):
        from rlab.cli import _specs_from

        specs = _specs_from(search_space={"reference": "energy"})
        assert len(specs) == 6912
        assert len({s.spec_id() for s in specs}) == 6912
        with pytest.raises(ConfigError):
            _specs_from(search_space={"reference": "bogus"})


SWEEP_HEADER = "n,min,q1,median,q3,max,whisker_lo,whisker_hi,outliers"


REPORT_NAMES = ("ledger.json", "winners.json", "summary.txt")


def report_digests(out) -> dict:
    return {name: hashlib.sha256((out / name).read_bytes()).hexdigest()
            for name in REPORT_NAMES}


class TestSelectBytesPinned:
    """The select reports' sha256 digests, recorded before the engine's scoring,
    spec ids and config loading were made faster: they pin every byte."""

    GRID = enumerate_search_space(reference_search_space("energy"))

    @staticmethod
    def loss_table(names, seed, diverged_share=0.0):
        rng = random.Random(seed)
        return {n: math.inf if rng.random() < diverged_share else rng.uniform(0.05, 0.5)
                for n in names}

    def run_select(self, tmp_path, **body):
        cfg = write_config(tmp_path / "s.yaml", {"command": "select", "k": 50, **body})
        out = tmp_path / "out"
        assert main(["select", "--config", cfg, "--out", str(out)]) == EXIT_OK
        return report_digests(out)

    @pytest.mark.parametrize("criterion, policy, expected", [
        ("median", {"kind": "halving"}, {
            "ledger.json":
                "d132fe779f30dc42079805f13c7cd9095a33d2f84d31ebc8e7e0eef1f80da014",
            "winners.json":
                "fa50b103c956e616c1216e8ee8625f489ff73462a8c6479c4b9fc157afd860c8",
            "summary.txt":
                "05814c8180045d0740d50e495847d27f2a96b813b6e90298081769c3e8ce3c12"}),
        ("mean", {"kind": "baseline_gate", "reference_loss": 0.2, "margin": 0.2}, {
            "ledger.json":
                "3a103b9e15abd836efd21ed6e28abca72cc036aad7ea545b83b6593f1b147993",
            "winners.json":
                "fa50b103c956e616c1216e8ee8625f489ff73462a8c6479c4b9fc157afd860c8",
            "summary.txt":
                "cf3ee1d691b2edebd032e442901d3642c1a4bf4e5f7746b43210fb2aacdd1967"}),
    ])
    def test_reference_grid(self, tmp_path, criterion, policy, expected):
        table = self.loss_table((s.name for s in self.GRID), seed=5)
        got = self.run_select(tmp_path, search_space={"reference": "energy"},
                              criterion={"kind": criterion}, policy=policy, base_seed=2024,
                              trainer={"kind": "mock", "noise": 0.01, "losses": table})
        assert got == expected

    @pytest.mark.parametrize("criterion, expected", [
        ({"kind": "min"}, {
            "ledger.json":
                "46945c7d253b6c28ce6d538a8c856c142a409b217cec453d207565b03c8f130c",
            "winners.json":
                "5748129f0fabbb2869020d34703c307e49ff93f49fa55bb7c22fc6aac98a7f9d",
            "summary.txt":
                "ee08ed0f10aea49a3720861571746c5b74232a846e5042c455926b56d26aa2e8"}),
        ({"kind": "max"}, {
            "ledger.json":
                "a70bd44149368454d99aaed52033ec8937d383414b95f78fd98695c77ab1cd05",
            "winners.json":
                "c493ced619252fd19deae6cfd4275ac7fec943b5a24d78b1a11f9fa2f51d0f42",
            "summary.txt":
                "4f8bd106ce7231515aef2c1e60d94706f26a520f0d104da18d5387b3437f3995"}),
        ({"kind": "std"}, {
            "ledger.json":
                "7a5787cf2b82d8a811ff1d423c0ac7a8e8e62222e0ad193737bb8b5d5d90acbb",
            "winners.json":
                "7eac2b4866fb23e64dfa0acb5450a8321dba5dd2d94feb801dfccb8bbbb74351",
            "summary.txt":
                "f7b627daa43c0127b3aa7a70371f465e4a19ce4646a4a1537515f76db1199e6a"}),
        ({"kind": "quantile", "quantile": 0.25}, {
            "ledger.json":
                "24cd81db29dc906b23f9727dd656b86e8c69f0f94806fc40e3c06457db6c1855",
            "winners.json":
                "c493ced619252fd19deae6cfd4275ac7fec943b5a24d78b1a11f9fa2f51d0f42",
            "summary.txt":
                "4f8bd106ce7231515aef2c1e60d94706f26a520f0d104da18d5387b3437f3995"}),
    ])
    def test_grid_slice_with_diverged_specs(self, tmp_path, criterion, expected):
        # 301 specs, about 60% of them diverged (+inf), so that rounds score
        # rows of +inf entries as well as finite ones
        specs = self.GRID[::23]
        table = self.loss_table((s.name for s in specs), seed=6, diverged_share=0.6)
        got = self.run_select(tmp_path, specs=[s.to_dict() for s in specs],
                              criterion=criterion, base_seed=77,
                              trainer={"kind": "mock", "noise": 0.01, "losses": table})
        assert got == expected

    def test_spec_ids(self):
        ids = [preset_spec(p).spec_id() for p in PRESET_IDS]
        ids += [self.GRID[0].spec_id(), self.GRID[-1].spec_id()]
        assert ids == ["3373e6ebfd", "0c1d124b21", "5ef9b119b1", "03542ead35",
                       "70d294da01", "c915c0955c"]


class TestSweep:
    @staticmethod
    def sweep_body(train, test, **extra):
        body = {
            "command": "sweep",
            "spec": tiny_spec_dict(),
            "train_data": train,
            "test_data": test,
            "k": 2,
            "sizes": [16, 24],
            "base_seed": 9,
            "stop": dict(ONE_EPOCH),
        }
        body.update(extra)
        return body

    def test_csv_shape_and_rerun(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(tmp_path / "s.yaml", self.sweep_body(train, test))
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["sweep", "--config", cfg, "--out", str(a)]) == EXIT_OK
        lines = (a / "sweep.csv").read_text().splitlines()
        assert lines[0] == SWEEP_HEADER
        assert len(lines) == 3
        assert lines[1].startswith("16,") and lines[2].startswith("24,")
        assert main(["sweep", "--config", cfg, "--out", str(b)]) == EXIT_OK
        assert (a / "sweep.csv").read_bytes() == (b / "sweep.csv").read_bytes()
        assert (a / "sweep_records.jsonl").read_bytes() == (b / "sweep_records.jsonl").read_bytes()

    def test_single_instance_collapses_quantiles(self, tmp_path, data_files):
        train, test = data_files
        cfg = write_config(tmp_path / "s.yaml",
                           self.sweep_body(train, test, k=1, sizes=[16]))
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        row = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
        assert row[1] == row[2] == row[3] == row[4] == row[5]

    def test_schedule_indices(self, tmp_path, data_files):
        train, test = data_files
        body = self.sweep_body(train, test, k=1)
        del body["sizes"]
        body["indices"] = [0]
        cfg = write_config(tmp_path / "s.yaml", body)
        assert main(["sweep", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1].startswith("132,")


class TestReport:
    def test_stats_and_ecdf_from_records(self, tmp_path, data_files):
        train, test = data_files
        rcfg = write_config(tmp_path / "r.yaml", robustness_config(train, test))
        run_dir = tmp_path / "run"
        assert main(["robustness", "--config", rcfg, "--out", str(run_dir)]) == EXIT_OK
        cfg = write_config(
            tmp_path / "rep.yaml",
            {"command": "report", "records": str(run_dir / "records.jsonl"),
             "criteria": [{"kind": "mean"}, {"kind": "max"}]},
        )
        out = tmp_path / "rep"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        stats = (out / "stats.csv").read_text().splitlines()
        assert stats[0].startswith("spec_id,n,mean,median")
        assert len(stats) == 2
        assert (out / "ecdf_mean.csv").exists()
        assert (out / "ecdf_max.csv").exists()
        assert "best spec" in (out / "summary.txt").read_text()

    def test_report_bytes_pinned(self, tmp_path):
        # rows of the finite specs a and b are the output of the earlier
        # statistics code; spec c has one diverged (+inf) instance
        records = tmp_path / "records.jsonl"
        records.write_text(
            '{"spec_id": "a", "losses": [0.61, 0.47, 0.83, 0.52, 2.9, 0.58]}\n'
            '{"spec_id": "b", "losses": [0.44, 0.71, 0.39]}\n'
            '{"spec_id": "c", "losses": [0.2, 0.3, 0.4, 0.5, Infinity]}\n'
        )
        cfg = write_config(
            tmp_path / "rep.yaml",
            {"command": "report", "records": str(records),
             "criteria": [{"kind": "mean"}, {"kind": "median"}, {"kind": "max"},
                          {"kind": "std"}, {"kind": "quantile", "quantile": 0.75}]},
        )
        out = tmp_path / "rep"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_OK
        thirds = ("0.3333333333333333", "0.6666666666666666", "1.0")
        expected = {
            "stats.csv":
                "spec_id,n,mean,median,min,max,std,q1,q3,iqr\r\n"
                "a,6,0.985,0.595,0.47,2.9,0.8638431570603543,0.535,0.7749999999999999,"
                "0.23999999999999988\r\n"
                "b,3,0.5133333333333333,0.44,0.39,0.71,0.14055445761538676,"
                "0.41500000000000004,0.575,0.15999999999999992\r\n"
                "c,5,inf,0.4,0.2,inf,inf,0.3,0.5,0.2\r\n",
            "ecdf_mean.csv": ("0.5133333333333333", "0.985", "inf"),
            "ecdf_median.csv": ("0.4", "0.44", "0.595"),
            "ecdf_max.csv": ("0.71", "2.9", "inf"),
            "ecdf_std.csv": ("0.14055445761538676", "0.8638431570603543", "inf"),
            "ecdf_quantile_0p75.csv": ("0.5", "0.575", "0.7749999999999999"),
            "summary.txt":
                "mean: best spec b at 0.5133333333333333\n"
                "median: best spec c at 0.4\n"
                "max: best spec b at 0.71\n"
                "std: best spec b at 0.14055445761538676\n"
                "quantile(0.75): best spec c at 0.5\n",
        }
        for name, want in expected.items():
            if isinstance(want, tuple):
                want = "value,fraction\r\n" + "".join(
                    f"{v},{f}\r\n" for v, f in zip(want, thirds))
            assert (out / name).read_bytes() == want.encode(), name
        assert sorted(os.listdir(out)) == sorted(expected)

    @pytest.mark.parametrize("line", [
        "{not json",
        '{"losses": [0.5]}',
        '{"spec_id": "x"}',
        '{"spec_id": "x", "losses": []}',
        '{"spec_id": "x", "losses": [0.5, NaN]}',
    ])
    def test_bad_record_line_is_data_error(self, tmp_path, capsys, line):
        records = tmp_path / "records.jsonl"
        records.write_text('{"spec_id": "ok", "losses": [0.5, 0.6]}\n' + line + "\n")
        cfg = write_config(tmp_path / "rep.yaml",
                           {"command": "report", "records": str(records)})
        out = tmp_path / "rep"
        assert main(["report", "--config", cfg, "--out", str(out)]) == EXIT_DATA
        assert "line 2" in capsys.readouterr().err
        assert os.listdir(out) == []

    def test_missing_records_is_data_error(self, tmp_path):
        cfg = write_config(
            tmp_path / "rep.yaml",
            {"command": "report", "records": str(tmp_path / "none.jsonl")},
        )
        assert main(["report", "--config", cfg, "--out", str(tmp_path)]) == EXIT_DATA


# runs rlab.cli.main on the arguments after the first; the first pool worker to start a training
# of spec 'doomed' is SIGKILLed, as the out-of-memory killer would, and
# creates the file named by the first argument before it dies
KILL_ONE_WORKER = """
import os, signal, sys
import rlab.robustness
from rlab.cli import main

flag, train_task, parent = sys.argv.pop(1), rlab.robustness._train_task, os.getpid()

def dying_task(pool, test_set, spec, *args):
    if os.getpid() != parent and spec.name == "doomed":
        try:
            os.close(os.open(flag, os.O_CREAT | os.O_EXCL))
        except FileExistsError:
            pass
        else:
            os.kill(os.getpid(), signal.SIGKILL)
    return train_task(pool, test_set, spec, *args)

rlab.robustness._train_task = dying_task
sys.exit(main(sys.argv[1:]))
"""


class TestKilledWorker:
    @pytest.mark.parametrize("command", ["robustness", "sweep", "select"])
    def test_killed_worker_exits_3_naming_the_spec(self, tmp_path, data_files, command):
        train, test = data_files
        spec = tiny_spec_dict("doomed")
        body = {
            "robustness": robustness_config(train, test, spec=spec, k=4),
            "sweep": {"command": "sweep", "spec": spec, "k": 2, "sizes": [16, 32],
                      "train_data": train, "test_data": test, "stop": dict(ONE_EPOCH)},
            "select": {"command": "select", "k": 2,
                       "specs": [spec, tiny_spec_dict("spared", lr=0.01)],
                       "trainer": {"kind": "instances", "train_data": train,
                                   "test_data": test, "stop": dict(ONE_EPOCH)}},
        }[command]
        cfg = write_config(tmp_path / "c.yaml", body)
        argv = [sys.executable, "-c", KILL_ONE_WORKER, str(tmp_path / "killed"),
                command, "--config", cfg, "--out", str(tmp_path / "out"), "--workers", "2"]
        # a session of its own, so that on timeout the workers are stopped too
        proc = subprocess.Popen(argv, env=rlab_env(), stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail(f"{command} still running 60 s after a worker was killed")
        assert (tmp_path / "killed").exists()
        assert proc.returncode == EXIT_DATA, err
        assert err.startswith("worker error:") and err.count("\n") == 1, err
        assert "'doomed'" in err


class TestTopLevel:
    def test_import_leaves_scipy_unloaded(self):
        # numpy.random too: rlab.seeding loads it on a substream's first use
        code = ("import sys, rlab.cli; print(sorted(m for m in sys.modules "
                "if m.startswith(('scipy', 'numpy.random'))))")
        proc = subprocess.run([sys.executable, "-c", code], env=rlab_env(),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    @pytest.mark.parametrize("command, block, message", [
        ("train", {"preset": 5}, "preset must be a name, got 5"),
        ("select", {"trainer": 7}, "'trainer' must be a mapping, got 7"),
        ("select", {"policy": 5}, "'policy' must be a mapping, got 5"),
        ("select", {"trainer": {"kind": "mock", "losses": 5}}, "'losses' must be a mapping, got 5"),
    ], ids=["preset", "trainer", "policy", "mock-losses"])
    def test_malformed_block_is_one_config_error_line(self, tmp_path, capsys, data_files,
                                                      command, block, message):
        train, test = data_files
        valid = {"train": {"train_data": train, "test_data": test, "init_seed": 5},
                 "select": {"k": 2, "specs": [tiny_spec_dict(n) for n in "AB"],
                            "trainer": {"kind": "mock", "losses": {"A": 0.1, "B": 0.2}}}}
        body = {"command": command, **valid[command], **block}
        cfg = write_config(tmp_path / "c.yaml", body)
        assert main([command, "--config", cfg, "--out", str(tmp_path / "out")]) == EXIT_CONFIG
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_command_mismatch(self, tmp_path):
        cfg = write_config(tmp_path / "g.yaml",
                           {"command": "gen-data", "n": 5, "seed": 1})
        assert main(["train", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG

    def test_missing_config_file(self, tmp_path):
        assert main(["train", "--config", str(tmp_path / "none.yaml")]) == EXIT_CONFIG

    def test_invalid_yaml(self, tmp_path):
        p = tmp_path / "bad.yaml"
        p.write_text("command: [unclosed\n")
        assert main(["train", "--config", str(p)]) == EXIT_CONFIG

    def test_workers_env_fallback(self, tmp_path, data_files, monkeypatch):
        train, test = data_files
        cfg = write_config(tmp_path / "r.yaml",
                           robustness_config(train, test, k=2))
        monkeypatch.setenv("RLAB_WORKERS", "2")
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path)]) == EXIT_OK

    def test_bad_workers_env(self, tmp_path, data_files, monkeypatch):
        train, test = data_files
        cfg = write_config(tmp_path / "r.yaml", robustness_config(train, test))
        monkeypatch.setenv("RLAB_WORKERS", "plenty")
        assert main(["robustness", "--config", cfg, "--out", str(tmp_path)]) == EXIT_CONFIG
