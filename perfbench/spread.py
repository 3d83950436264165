"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 perfbench/spread.py --workload select-grid --seeds 1-10 --seconds 30 [--out F.json]

Spread is the distance between the first and third quartile of the per-run
values, as a share of their median, with quartiles as
statistics.quantiles(values, n=4) gives them.  Runs go one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
# what each run's record line contributes to the summary: the reports' digests,
# so that a change in their bytes shows, and the raw samples behind the metrics
RECORDED = ("report_sha256", "instances_above_floor", "command_walls_s", "setup_s_samples")


def _seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = (int(v) for v in text.split("-"))
        return list(range(lo, hi + 1))
    return [int(v) for v in text.split(",")]


def run_once(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """(final JSON object, record) of one benchmark run."""
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        capture_output=True, text=True, cwd=os.path.dirname(HERE))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    record = next(json.loads(l[len("record "):]) for l in lines if l.startswith("record "))
    return json.loads(lines[-1]), record


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="'1-10' or '3,5,8'")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", default=None, help="write the summary here as JSON")
    args = parser.parse_args()

    runs = []
    for seed in _seeds(args.seeds):
        result, record = run_once(args.workload, seed, args.seconds)
        runs.append((seed, result, record))
        values = " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: {values}", flush=True)
    names = list(runs[0][1]["metrics"])
    summary = {
        "workload": args.workload,
        "seconds": args.seconds,
        "seeds": [seed for seed, _, _ in runs],
        "attempted": sum(r["attempted"] for _, r, _ in runs),
        "failed": sum(r["failed"] for _, r, _ in runs),
        "metrics": {name: {"unit": runs[0][1]["metrics"][name]["unit"],
                           **summarize([r["metrics"][name]["value"] for _, r, _ in runs])}
                    for name in names},
        "environment": runs[0][2]["environment"],
        "runs": [{"seed": seed, "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                  "attempted": r["attempted"], "failed": r["failed"],
                  **{key: rec[key] for key in RECORDED}} for seed, r, rec in runs],
    }
    for name, m in summary["metrics"].items():
        print(f"{name}: median {m['median']:.6g} {m['unit']}, "
              f"quartiles {m['q1']:.6g}..{m['q3']:.6g}, spread {m['spread']:.3f}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
