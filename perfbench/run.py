"""rlab's benchmark: one workload, closed loop, one rlab command at a time.

    python3 perfbench/run.py --workload robustness-w2 --seed 1 --seconds 30 --trace 0

Run from a checkout of the repository; rlab is imported from its `src`.
Inputs are generated from --seed.  Each measured command is a fresh process
that hands a YAML config to `rlab.cli.main`; commands repeat until --seconds
have passed.  Every command's reports are checked, and must be byte-identical
across the run.  The environment is passed through unchanged: BLAS thread
settings are part of what is measured, and the environment record printed
with the result says what they were.

--trace 0 prints the end-to-end metrics; --trace 1 alternates untraced and
traced commands and prints the per-layer metrics.  The last line of standard
output is one JSON object: correct, attempted, failed, metrics.  The exit
code is 0 when every check passed, 1 when one failed, 2 when the checkout
has no rlab source.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

import envinfo
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
ENTRY = os.path.join(HERE, "entry.py")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 3            # setup_s is the median of these
MIN_COMMANDS = 2             # byte identity needs two reports to compare
HARD_LIMIT_S = 170.0         # a run ends within 180 s, whatever --seconds says

END_TO_END = {
    "setup_s": "s",
    "trainings_per_h": "1/h",
    "peak_rss_mb": "MB",
    "completed_share": "share",
}


class Command:
    """One finished rlab process: exit code, wall time and what entry.py wrote."""

    def __init__(self, argv, exit_code, wall, result, stderr):
        self.argv, self.exit, self.wall = argv, exit_code, wall
        self.result, self.stderr = result, stderr

    @property
    def ok(self) -> bool:
        return self.exit == 0 and self.result is not None and self.result["exit"] == 0

    def describe(self) -> str:
        tail = self.stderr.strip().splitlines()[-1:] or [""]
        return f"exit {self.exit}: {tail[0]}"


class Runner:
    """Starts rlab commands through entry.py, one at a time, within a deadline."""

    def __init__(self, work_dir: str, deadline: float):
        self.work_dir, self.deadline = work_dir, deadline
        self._n = 0

    def __call__(self, argv: list[str], cwd: str, tag: str,
                 trace_dir: str | None = None) -> Command:
        self._n += 1
        result_path = os.path.join(self.work_dir, f"result-{self._n}-{tag}.json")
        cmd = [sys.executable, ENTRY, "--result", result_path]
        if trace_dir:
            cmd += ["--trace-dir", trace_dir]
        cmd += ["--", *argv]
        timeout = max(1.0, self.deadline - time.monotonic())
        t0 = time.perf_counter()
        # own session, so a timeout can stop the command's workers as well
        proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                text=True, start_new_session=True)
        try:
            _, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            _, err = proc.communicate()
            err += f"\nkilled after {timeout:.0f} s"
        except BaseException:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        wall = time.perf_counter() - t0
        result = None
        if os.path.exists(result_path):
            with open(result_path) as fh:
                result = json.load(fh)
        return Command(argv, proc.returncode, wall, result, err)


def _median(values):
    return statistics.median(values) if values else 0.0


def digest_problems(digests: list[dict], what: str = "report") -> list[str]:
    """Runs from the same inputs must write the same bytes."""
    if any(d != digests[0] for d in digests[1:]):
        return [f"{what} bytes differ between runs from the same seed"]
    return []


def _report_bytes(out_dir: str) -> int:
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def measure(workload, seed: int, seconds: float, trace: bool, work_dir: str,
            deadline: float) -> tuple[dict, dict, list[str], int, int]:
    """Set up, run commands for `seconds`, check them.

    Returns (metrics, record, problems, attempted, failed).
    """
    run = Runner(work_dir, deadline)
    problems: list[str] = []

    setup_times, setup_digests = [], []
    setup_trace = os.path.join(work_dir, "trace-setup") if trace else None
    if setup_trace:
        os.makedirs(setup_trace)
    setup_run = functools.partial(run, trace_dir=setup_trace)
    for i in range(1 if trace else SETUP_REPEATS):
        directory = os.path.join(work_dir, f"setup-{i}")
        os.makedirs(directory)
        t0 = time.perf_counter()
        problems += workload.setup(directory, seed, setup_run)
        setup_times.append(time.perf_counter() - t0)
        setup_digests.append(workloads.file_digests(directory))
    problems += digest_problems(setup_digests, "input")
    inputs = os.path.join(work_dir, "setup-0")
    facts = workload.facts(inputs, ROOT) if not problems else {}

    commands = []      # (Command, out_dir, trace_dir or None)
    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(commands) < MIN_COMMANDS:
        n = len(commands)
        out_dir = os.path.join(work_dir, f"out-{n}")
        trace_dir = os.path.join(work_dir, f"trace-{n}") if trace and n % 2 else None
        if trace_dir:
            os.makedirs(trace_dir)
        commands.append((run(workload.argv(out_dir), inputs, f"cmd{n}", trace_dir),
                         out_dir, trace_dir))
        if problems or time.monotonic() > deadline:
            break       # a broken set-up or a hung command: one failed command is enough

    expected = workload.trainings()
    attempted = failed = 0
    digests = []
    per_cmd = []
    for cmd, out_dir, trace_dir in commands:
        attempted += expected
        cmd_problems = [] if cmd.ok else [f"command {' '.join(cmd.argv[:1])} {cmd.describe()}"]
        info = dict(workloads.NO_REPORT)
        if cmd.ok:
            found, info = workload.check(out_dir, facts, cmd.result)
            cmd_problems += found
        ok_trainings = 0 if cmd_problems else info["trainings"] - info["nonfinite"]
        failed += expected - ok_trainings
        problems += cmd_problems
        if cmd.ok:
            digests.append(workloads.file_digests(out_dir))
        per_cmd.append({"wall_s": cmd.wall, "traced": trace_dir is not None, "info": info,
                        "ok_trainings": ok_trainings, "result": cmd.result})
    problems += digest_problems(digests)

    untraced = [c for c in per_cmd if not c["traced"]]
    record = {
        "setup_s_samples": setup_times,
        "command_walls_s": [c["wall_s"] for c in per_cmd],
        "report_sha256": digests[0] if digests else {},
        "failed_share": failed / attempted,
        "instances_above_floor": [c["info"].get("above_floor") for c in per_cmd],
    }
    if not trace:
        metrics = {
            "setup_s": _median(setup_times),
            # aggregate, not a median of per-command rates: command times here
            # are bimodal (BLAS threads of the two workers collide or not)
            "trainings_per_h": (sum(c["ok_trainings"] for c in untraced)
                                / sum(c["wall_s"] for c in untraced) * 3600),
            "peak_rss_mb": _median([c["result"]["peak_rss_self_mb"]
                                    + c["result"]["peak_rss_child_mb"]
                                    for c in untraced if c["result"]]),
            "completed_share": (attempted - failed) / attempted,
        }
        return metrics, record, problems, attempted, failed

    setup_spans = spans.read_spans(setup_trace)
    layer_samples = [
        spans.layer_metrics(setup_spans, spans.read_spans(trace_dir), workloads.WORKERS,
                            c["info"]["budget_ratio"], _report_bytes(out_dir))
        for (cmd, out_dir, trace_dir), c in zip(commands, per_cmd) if trace_dir and cmd.ok
    ]
    metrics = {name: _median([s[name] for s in layer_samples])
               for name in spans.LAYER_METRICS if name != "trace.overhead"}
    traced_wall = _median([c["wall_s"] for c in per_cmd if c["traced"]])
    untraced_wall = _median([c["wall_s"] for c in untraced])
    metrics["trace.overhead"] = traced_wall / untraced_wall - 1.0 if untraced_wall else 0.0
    if layer_samples:
        problems += workloads.layer_problems(workload, metrics)
    return metrics, record, problems, attempted, failed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "rlab", "cli.py")):
        print(f"no rlab source under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + HARD_LIMIT_S
    workload = workloads.WORKLOADS[args.workload]()
    work_dir = os.path.join(WORK_ROOT, f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}")
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    try:
        metrics, record, problems, attempted, failed = measure(
            workload, args.seed, args.seconds, bool(args.trace), work_dir, deadline)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)

    units = spans.LAYER_METRICS if args.trace else END_TO_END
    record["environment"] = envinfo.environment_record(ROOT, args.workload, args.seed,
                                                       workloads.WORKERS)
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    print(f"{args.workload}: attempted {attempted} trainings, failed {failed} "
          f"(failed_share {record['failed_share']!r})")
    for name, value in metrics.items():
        print(f"{name} {value!r} {units[name]}")
    print("record " + json.dumps(record, sort_keys=True))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
