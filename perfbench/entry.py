"""Run one rlab command in this process, the way the `rlab` script does.

    python3 perfbench/entry.py --result R.json [--trace-dir D] -- <rlab arguments>

Imports rlab from the checkout's `src`, calls `rlab.cli.main` with the
arguments after `--`, and writes R.json: the exit code, peak resident memory
of this process and of its largest reaped child (a pool worker), and how many
trainings a selection ran and how many of them returned a non-finite loss.
With --trace-dir, spans of this process and of its forked workers go there.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys

import spans

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def count_outcomes(trainer, outcomes: dict):
    """The trainer, counting the losses it returns; selection reports keep none."""
    def counting_trainer(*args):
        loss = trainer(*args)
        outcomes["trainings"] += 1
        outcomes["nonfinite"] += not math.isfinite(float(loss))
        return loss
    return counting_trainer


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace-dir", default=None)
    parser.add_argument("rlab_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    rlab_args = args.rlab_args[1:] if args.rlab_args[:1] == ["--"] else args.rlab_args

    sys.path.insert(0, SRC)
    import rlab.cli

    if not os.path.abspath(rlab.cli.__file__).startswith(SRC + os.sep):
        print(f"rlab imported from {rlab.cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    outcomes = {"trainings": 0, "nonfinite": 0}
    spans.wrap_select_trainer(rlab.cli, lambda trainer: count_outcomes(trainer, outcomes))
    recorder = None
    if args.trace_dir:
        recorder = spans.Recorder(args.trace_dir)
        spans.install(recorder)
    try:
        code = rlab.cli.main(rlab_args)
    finally:
        if recorder is not None:
            recorder.flush()
    kib_to_mb = 1024 / 1e6     # ru_maxrss is in KiB on Linux
    result = {
        "exit": code,
        "peak_rss_self_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * kib_to_mb,
        "peak_rss_child_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss * kib_to_mb,
        **outcomes,
    }
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
