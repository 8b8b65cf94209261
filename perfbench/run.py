"""shadowdof benchmark: one workload, one seed, one process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; the program is imported from ./src.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are
the end_to_end list of BENCHMARK.json, with --trace 1 its per_layer list,
in that order and with those units.  A line starting with "perfbench-info"
on standard error carries the per-round times, the set-up samples and the
calibration loop.  Scratch files go to .perfbench_out/ and are removed at the end,
except the span file of a traced run.
"""

import os

# One BLAS/OpenMP thread: pools that spin beside the Python thread on a
# small machine made timings wander (see README.md).  Set before numpy loads.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

SETUP_PROBES = 5
OUT_ROOT = Path(".perfbench_out")
BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def _parse(argv=None):
    p = argparse.ArgumentParser(description="shadowdof benchmark (one workload, one seed)")
    p.add_argument("--workload", required=True,
                   choices=("squares_sketch", "farfield_dense", "shadow_sweep"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0,
                   help="keep starting whole rounds until this much time has been measured")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _declared_units(trace: int) -> dict:
    """Metric name -> unit, in BENCHMARK.json's order, for an untraced or a traced run."""
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def _source_dir() -> Path:
    src = Path("src").resolve()
    if not (src / "shadowdof" / "__init__.py").is_file():
        sys.exit("perfbench: no src/shadowdof here; run from the root of a shadowdof checkout")
    return src


def _import_program():
    sys.path.insert(0, str(_source_dir()))
    from shadowdof import cli

    return cli


def _run_op(cli, op, config: Path, out: Path):
    """One command-line call; returns its exit code, or None if it raised."""
    argv = [op.command, "--config", str(config), "--out", str(out), "--threads", "1"]
    try:
        return cli.main(argv)
    except Exception:  # a crashing operation is a failed one; keep measuring the rest
        traceback.print_exc()
        return None


def set_up(workload_name: str, seed: int, workdir: Path):
    """Imports, inputs from the seed, and an untimed warm-up on a smaller input."""
    cli = _import_program()
    import yaml

    from workloads import WORKLOADS

    workload = WORKLOADS[workload_name](seed)
    inputs = workdir / "inputs"
    inputs.mkdir(parents=True, exist_ok=True)
    ops, warmup = workload.ops(), workload.warmup()
    for op in ops + warmup:
        with open(inputs / f"{op.name}.yaml", "w", encoding="utf-8") as fh:
            yaml.safe_dump(op.scenario, fh, sort_keys=False)
    for op in warmup:
        code = _run_op(cli, op, inputs / f"{op.name}.yaml", workdir / "warmup" / op.name)
        if code != 0:
            sys.exit(f"perfbench: warm-up operation {op.name} failed")
    return cli, ops, inputs


def _probe_setup(args) -> float:
    """Seconds from starting a fresh process to the end of its set-up."""
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
           "--seed", str(args.seed)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait()
    if line.strip() != "ready" or code != 0:
        sys.exit("perfbench: set-up probe failed")
    return elapsed


def calibrate() -> float:
    """A fixed mix of interpreter, numpy and BLAS work; its time shows machine drift."""
    import numpy as np

    start = time.perf_counter()
    x = np.linspace(0.0, 1.0, 200_000)
    for _ in range(40):
        x = np.sin(x) + 0.5
    m = np.full((200, 200), 0.5 + 0.5j) + np.eye(200)
    for _ in range(10):
        m = m @ m
        m /= np.abs(m).max()
    acc = 0
    for i in range(300_000):
        acc += i * i
    return time.perf_counter() - start


def _check_rounds(ops, codes, workdir: Path):
    """Check every round's outputs; returns (failed, problems, failures, energy_missed)."""
    failed, problems, failures, missed = 0, [], [], []
    for k, round_codes in enumerate(codes):
        for op, code in zip(ops, round_codes):
            out = workdir / "out" / f"r{k}" / op.name
            if code != 0:
                failed += 1
                failures.append(f"{op.name}: exit code {code}")
                continue
            try:
                res = op.check(out)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                problems.append(f"{op.name} round {k}: unreadable output ({exc})")
                continue
            problems += [f"{op.name} round {k}: {p}" for p in res.problems]
            if res.failed:
                failed += 1
                failures.append(res.failed)
            if res.energy_missed is not None:
                missed.append(res.energy_missed)
    return failed, problems, failures, missed


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seed < 0:
        sys.exit("perfbench: --seed must be nonnegative")
    _source_dir()
    units = _declared_units(args.trace)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    workdir = (OUT_ROOT / f"{args.workload}-s{args.seed}-p{os.getpid()}").resolve()
    try:
        if args.setup_probe:
            set_up(args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        setup_samples = [] if args.trace else [_probe_setup(args) for _ in range(SETUP_PROBES)]
        cli, ops, inputs = set_up(args.workload, args.seed, workdir)
        from bench_trace import Tracer

        tracer = Tracer() if args.trace else None
        calibration = [calibrate()]
        times = {False: [], True: []}
        codes = []  # exit codes, one list per round
        begin = time.perf_counter()
        rounds = 0
        while True:
            traced = bool(args.trace) and rounds % 2 == 1
            out = workdir / "out" / f"r{rounds}"
            if traced:
                tracer.install(cli)
            start = time.perf_counter()
            with tracer.span("bench.round") if traced else nullcontext():
                codes.append([_run_op(cli, op, inputs / f"{op.name}.yaml", out / op.name)
                              for op in ops])
            times[traced].append(time.perf_counter() - start)
            if traced:
                tracer.uninstall()
            rounds += 1
            if time.perf_counter() - begin >= args.seconds and (not args.trace or rounds >= 2):
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        calibration.append(calibrate())
        failed, problems, failures, missed = _check_rounds(ops, codes, workdir)
        if args.trace:
            traced_rounds = len(times[True])
            metrics = tracer.layer_metrics(traced_rounds)
            metrics["spectra.energy_missed"] = max(missed, key=abs) if missed else 0.0
            # the mean, as the self times are per-round means and must add up to it
            metrics["trace.wall_s"] = statistics.fmean(times[True])
            metrics["trace.overhead_pct"] = 100.0 * (
                statistics.median(times[True]) / statistics.median(times[False]) - 1.0)
            tracer.write(OUT_ROOT / f"trace-{args.workload}-s{args.seed}.jsonl",
                         {"workload": args.workload, "seed": args.seed,
                          "traced_rounds": traced_rounds, "round_s": times[True]})
        else:
            metrics = {
                "wall_s": statistics.median(times[False]),
                "setup_s": statistics.median(setup_samples),
                "peak_rss_mb": peak_rss_mb,
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"workload": args.workload, "seed": args.seed, "rounds": rounds,
            "ops_per_round": len(ops), "round_s": times[False], "traced_round_s": times[True],
            "setup_samples_s": setup_samples, "calibration_s": calibration,
            "failures": sorted(set(failures)), "problems": problems[:20]}
    print("perfbench-info " + json.dumps(info), file=sys.stderr)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured {sorted(metrics)} but BENCHMARK.json names {sorted(units)}")
    result = {"correct": not problems, "attempted": rounds * len(ops), "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
