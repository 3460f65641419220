"""Run one workload over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workload d9-single --seeds 1-10 [--trace 0]

Runs ``run.py`` once per seed, one process after another, with the
``run_seconds`` of ``BENCHMARK.json``, and prints per metric the median of
the runs and the distance between their first and third quartiles as a
share of that median (``statistics.quantiles(values, n=4)``), next to the
metric's bound. The per-run results are appended as JSON lines to
``perfbench/out/spread-<workload>-trace<k>.jsonl``.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import DEFAULT_SEEDS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, default=list(DEFAULT_SEEDS))
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["per_layer" if args.trace else "end_to_end"]
    log = HERE / "out" / f"spread-{args.workload}-trace{args.trace}.jsonl"
    log.parent.mkdir(exist_ok=True)
    runs = []
    for seed in args.seeds:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=900)
        if proc.returncode != 0:
            print(proc.stdout + proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        with log.open("a") as fh:
            fh.write(json.dumps({"seed": seed, **result}) + "\n")
        shown = {k: round(v["value"], 5) for k, v in result["metrics"].items()}
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']} "
              f"{shown}", flush=True)
    print(f"{'metric':<34} {'median':>12} {'spread':>8} {'bound':>6}")
    for m in metrics:
        values = [r["metrics"][m["name"]]["value"] for r in runs]
        mid = statistics.median(values)
        share = float("nan")
        if len(values) > 1 and mid:
            q1, _, q3 = statistics.quantiles(values, n=4)
            share = (q3 - q1) / mid
        print(f"{m['name']:<34} {mid:>12.6g} {share:>8.4f} {m.get('bound', ''):>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
