"""Run workloads over several seeds, each run in its own process, and print
every metric's median, quartiles and quartile spread with its unit, plus the
failed and undecided ratios.

    python3 perfbench/sweep.py                              # every workload, seed 0
    python3 perfbench/sweep.py --seeds 0-9 --workloads chi-k5 hereditary-k5
    python3 perfbench/sweep.py --seeds 0-9 --trace 1 --json perfbench/out/traced.json

The spread is (Q3 - Q1) / median, with quartiles from
``statistics.quantiles(values, n=4)``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    argv = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(argv, capture_output=True, text=True, cwd=RUN.parent.parent, timeout=600)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(lines[-2]), json.loads(lines[-1])


def summarize(runs: list[tuple[dict, dict]]) -> list[str]:
    attempted = sum(r["attempted"] for _, r in runs)
    failed = sum(r["failed"] for _, r in runs)
    undecided = sum(d["undecided_ratio"] * r["attempted"] for d, r in runs)
    rows = [f"  runs {len(runs)}  attempted {attempted}  failed_ratio {failed / attempted:.4g}  undecided_ratio {undecided / attempted:.4g}  correct {all(r['correct'] for _, r in runs)}"]
    for name, first in runs[0][1]["metrics"].items():
        values = [r["metrics"][name]["value"] for _, r in runs]
        med = statistics.median(values)
        if len(values) > 1:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        spread = (q3 - q1) / med if med else 0.0
        rows.append(f"  {name:50s} {med:14.6g} {first['unit']:6s} Q1 {q1:<12.6g} Q3 {q3:<12.6g} spread {spread:.3f}")
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+", default=list(WORKLOADS), choices=list(WORKLOADS))
    ap.add_argument("--seeds", type=seeds, default=[0], help="a seed or a range, such as 0-9")
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--json", help="also write every run's detail and result lines here")
    args = ap.parse_args(argv)
    everything = {}
    for workload in args.workloads:
        runs = [run_once(workload, seed, args.seconds, args.trace) for seed in args.seeds]
        everything[workload] = [{"detail": d, "result": r} for d, r in runs]
        print(f"{workload}  seeds {args.seeds[0]}-{args.seeds[-1]}  trace {args.trace}")
        print("\n".join(summarize(runs)), flush=True)
    if args.json:
        Path(args.json).write_text(json.dumps(everything, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
