"""The benchmark's own tests: a tiny-size smoke run of every workload, and proof
that each output check rejects a deliberately corrupted report.

    python3 -m pytest perfbench/tests

The tests shrink the inputs by replacing workloads.SIZES; the commands and
checks are those of the real workloads.
"""

import csv
import json
import os
import shutil
import subprocess
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


# seconds instead of minutes; k=4 as in the real workload, so that the
# tolerance for one stuck instance is tested at the k it applies to
TINY = {"epochs": 3,
        "robustness": {"pool": 400, "sample": 200, "test": 100, "k": 4},
        "select": {"pool": 200, "sample": 100, "test": 100}}


@pytest.fixture
def tiny(monkeypatch):
    monkeypatch.setattr(workloads, "SIZES", TINY)


def _declared(kind):
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def test_benchmark_json_names_what_the_benchmark_emits():
    assert _declared("end_to_end") == run.END_TO_END
    assert _declared("per_layer") == spans.LAYER_METRICS
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_tiny_run_emits_every_metric_with_its_unit(tiny, capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    out = capsys.readouterr().out
    assert code == 0, out
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = _declared("per_layer" if trace else "end_to_end")
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)), name
    record = next(json.loads(line[len("record "):]) for line in out.splitlines()
                  if line.startswith("record "))
    env = record["environment"]
    for key in ("nproc", "cpu_model", "seed", "workers", "python", "numpy", "scipy",
                "blas", "thread_env", "source_sha256"):
        assert key in env
    assert record["report_sha256"]


def test_run_without_rlab_source_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the output checks reject corrupted reports --------------------------------------------


@pytest.fixture(scope="module")
def good_runs(tmp_path_factory):
    """One checked command per workload at tiny size: (workload, out_dir, facts, outcomes)."""
    base = tmp_path_factory.mktemp("runs")
    runner = run.Runner(str(base), time.monotonic() + 170)
    out = {}
    for name, cls in workloads.WORKLOADS.items():
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(workloads, "SIZES", TINY)
            workload = cls()
        inputs = base / name
        inputs.mkdir()
        assert workload.setup(str(inputs), 5, runner) == []
        facts = workload.facts(str(inputs), ROOT)
        out_dir = str(base / f"{name}-out")
        cmd = runner(workload.argv(out_dir), str(inputs), name)
        assert cmd.ok, cmd.describe()
        problems, info = workload.check(out_dir, facts, cmd.result)
        assert problems == [] and info["trainings"] == workload.trainings()
        out[name] = (workload, out_dir, facts, cmd.result)
    return out


def _corrupted_copy(good_runs, name, tmp_path):
    workload, out_dir, facts, outcomes = good_runs[name]
    copy = tmp_path / "out"
    shutil.copytree(out_dir, copy)
    return workload, str(copy), facts, dict(outcomes)


def _edit_losses(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    rows = edit(rows)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)


def _set_losses(rows, n, value):
    """The header, then the first n instances' losses replaced by value."""
    return rows[:1] + [r[:-1] + [value] for r in rows[1:n + 1]] + rows[n + 1:]


@pytest.mark.parametrize("edit", [
    lambda rows: _set_losses(rows, 1, "inf"),
    lambda rows: _set_losses(rows, 2, "1000.0"),
    lambda rows: _set_losses(rows, len(rows) - 1, "1000.0"),
    lambda rows: rows[:-1],
    lambda rows: rows[:1] + [r[:3] + ["7"] + r[4:] for r in rows[1:2]] + rows[2:],
], ids=["diverged", "two-above-floor", "all-above-floor", "missing-row", "wrong-epochs"])
def test_robustness_check_rejects(good_runs, tmp_path, edit):
    workload, out_dir, facts, outcomes = _corrupted_copy(good_runs, "robustness-w2", tmp_path)
    _edit_losses(os.path.join(out_dir, "losses.csv"), edit)
    problems, _ = workload.check(out_dir, facts, outcomes)
    assert problems


def test_robustness_check_tolerates_one_stuck_instance(good_runs, tmp_path):
    workload, out_dir, facts, outcomes = _corrupted_copy(good_runs, "robustness-w2", tmp_path)
    _edit_losses(os.path.join(out_dir, "losses.csv"), lambda rows: _set_losses(rows, 1, "1000.0"))
    problems, info = workload.check(out_dir, facts, outcomes)
    assert problems == [] and info["above_floor"] == 1


def _edit_ledger(out_dir, edit):
    path = os.path.join(out_dir, "ledger.json")
    with open(path) as fh:
        ledger = json.load(fh)
    edit(ledger)
    with open(path, "w") as fh:
        json.dump(ledger, fh)


@pytest.mark.parametrize("name", ["select-w2", "select-grid"])
@pytest.mark.parametrize("corrupt", [
    lambda d: _edit_ledger(d, lambda l: l.update(cumulative_trainings=l["cumulative_trainings"]
                                                 - 1)),
    lambda d: _edit_ledger(d, lambda l: l["rounds"].pop()),
    lambda d: _edit_ledger(d, lambda l: l.update(tie=True)),
    lambda d: _edit_ledger(d, lambda l: l["survivor_ids"].append("0123456789")),
    lambda d: os.remove(os.path.join(d, "winners.json")),
], ids=["trainings", "rounds", "tie", "two-survivors", "no-winners"])
def test_select_check_rejects(good_runs, tmp_path, name, corrupt):
    workload, out_dir, facts, outcomes = _corrupted_copy(good_runs, name, tmp_path)
    corrupt(out_dir)
    problems, _ = workload.check(out_dir, facts, outcomes)
    assert problems


@pytest.mark.parametrize("name", ["select-w2", "select-grid"])
def test_select_check_rejects_nonfinite_trainings(good_runs, tmp_path, name):
    workload, out_dir, facts, outcomes = _corrupted_copy(good_runs, name, tmp_path)
    outcomes["nonfinite"] = 1
    problems, info = workload.check(out_dir, facts, outcomes)
    assert problems and info["nonfinite"] == 1


def test_differing_report_bytes_are_rejected(good_runs, tmp_path):
    workload, out_dir, facts, outcomes = _corrupted_copy(good_runs, "robustness-w2", tmp_path)
    good = workloads.file_digests(good_runs["robustness-w2"][1])
    with open(os.path.join(out_dir, "summary.txt"), "a") as fh:
        fh.write(" ")
    assert run.digest_problems([good, good]) == []
    assert run.digest_problems([good, workloads.file_digests(out_dir)])


def test_failed_command_is_not_ok(tmp_path):
    (tmp_path / "robustness.yaml").write_text("command: robustness\npreset: model2\nk: 2\n"
                                              "train_data: absent.rlab\ntest_data: absent.rlab\n")
    runner = run.Runner(str(tmp_path), time.monotonic() + 60)
    cmd = runner(["robustness", "--config", "robustness.yaml", "--out", "out"],
                 str(tmp_path), "bad")
    assert not cmd.ok and cmd.exit != 0


def test_a_failed_check_fails_every_training_of_its_command(tiny, tmp_path):
    workload = workloads.WORKLOADS["robustness-w2"]()
    workload.check = lambda out_dir, facts, outcomes: (["corrupted"], dict(workloads.NO_REPORT))
    metrics, record, problems, attempted, failed = run.measure(
        workload, 4, 0, False, str(tmp_path), time.monotonic() + 170)
    assert problems and attempted == failed == 2 * workload.trainings()
    assert metrics["completed_share"] == 0.0 and record["failed_share"] == 1.0


def test_layer_expectations_fail_loudly():
    busy = {name: 1.0 for name in spans.LAYER_METRICS}
    grid = workloads.WORKLOADS["select-grid"]()
    idle = dict(busy, **{name: 0 for name in grid.idle_layers})
    assert workloads.layer_problems(grid, idle) == []
    assert workloads.layer_problems(grid, busy)             # tensor work on the grid
    rob = workloads.WORKLOADS["robustness-w2"]()
    assert workloads.layer_problems(rob, busy) == []
    assert workloads.layer_problems(rob, dict(busy, **{"tensor.conv2d.calls": 0}))


def test_halving_schedule_of_the_reference_grid():
    assert workloads.halving_schedule(6912) == (12, 13819)
    assert workloads.halving_schedule(8) == (3, 14)
    assert len(set(workloads.grid_spec_names())) == 6912
