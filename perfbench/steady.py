"""Repeat one workload over several seeds and summarize each metric.

    python3 perfbench/steady.py --workload NAME [--runs 10] [--first-seed 1]

Runs perfbench/run.py untraced once per seed, one run at a time, from the
current directory (the root of a checkout), each for BENCHMARK.json's
run_seconds.  Prints for every end-to-end metric the median, the quartiles
and the quartile spread as a share of the median, the failed share of the
operations, and the calibration-loop times that show how much the machine
itself drifted meanwhile.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, check=False)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"steady: run with seed {seed} exited with {proc.returncode}")
    info = next(json.loads(line.split(" ", 1)[1]) for line in proc.stderr.splitlines()
                if line.startswith("perfbench-info "))
    return {"seed": seed, "result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "info": info}


def spread(values):
    """(median, first quartile, third quartile, (q3 - q1) / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, q1, q3, (q3 - q1) / med if med else float("nan")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.runs < 2:
        p.error("--runs must be at least 2 to have quartiles")
    seconds = json.loads(BENCHMARK.read_text(encoding="utf-8"))["run_seconds"]

    runs = []
    for seed in range(args.first_seed, args.first_seed + args.runs):
        runs.append(run_once(args.workload, seed, seconds))
        r = runs[-1]["result"]
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in r["metrics"].items())
        print(f"seed {seed}: correct={r['correct']} attempted={r['attempted']} "
              f"failed={r['failed']} {shown}", flush=True)

    print(f"\n{args.workload}: {len(runs)} runs, seeds {args.first_seed}.."
          f"{args.first_seed + args.runs - 1}, --seconds {seconds}")
    print(f"{'metric':28s} {'unit':6s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'iqr/med':>8s}")
    for name, first in runs[0]["result"]["metrics"].items():
        med, q1, q3, rel = spread([r["result"]["metrics"][name]["value"] for r in runs])
        print(f"{name:28s} {first['unit']:6s} {med:12.6g} {q1:12.6g} {q3:12.6g} {rel:8.2%}")
    shares = {(r["result"]["failed"], r["result"]["attempted"]) for r in runs}
    print("correct:", all(r["result"]["correct"] for r in runs),
          " failed/attempted:", sorted(shares))
    for k, label in ((0, "start"), (1, "end")):
        cal = [r["info"]["calibration_s"][k] for r in runs]
        print(f"calibration loop ({label}): median {statistics.median(cal):.4f} s,"
              f" range {min(cal):.4f}-{max(cal):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
