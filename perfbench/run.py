"""Benchmark of the susyjc command line, end to end and layer by layer.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --smoke              # each workload once, both modes
    python3 perfbench/run.py --record-reference   # rewrite reference/ from seed 0

Run from anywhere; it works on the checkout that holds this file.  The last
stdout line is one JSON object with the keys correct, attempted, failed and
metrics: the end-to-end metrics with --trace 0, the per-layer metrics of a
traced run with --trace 1.  The line before it ("detail") carries the
samples, quartiles, failures and the environment.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

from tracer import PER_LAYER  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"run_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MiB"}
DEADLINE_S = 170.0


def checkout_problem() -> str | None:
    needed = ["src/susyjc/cli.py", *(w.config for w in WORKLOADS.values())]
    missing = [p for p in needed if not (ROOT / p).is_file()]
    return f"not a susyjc checkout: {ROOT} lacks {', '.join(missing)}" if missing else None


def run_worker(args, timeout: float, extra=()) -> dict:
    argv = [sys.executable, str(BENCH_DIR / "worker.py"), "--root", str(ROOT)]
    argv += ["--workload", args.workload, *extra]
    proc = subprocess.run(argv, capture_output=True, text=True, timeout=timeout, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-600:]}")
    return json.loads(lines[-1])


def quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def tail(values: list[float]) -> dict:
    """The highest listed percentile with at least ten samples beyond it."""
    n = len(values)
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10.0:
            cut = statistics.quantiles(values, n=1000)[int(p * 10) - 1]
            return {"percentile": p, "value": cut, "samples": n}
    return {"percentile": None, "value": None, "samples": n}


def measure(args) -> int:
    extra = ["--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        result = run_worker(args, DEADLINE_S, extra)
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failures = result["attempted"], result["failures"]
    walls, cpus, slowness = result["walls"], result["cpus"], result["slowness"]

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "config": result["config"],
        "env": result["env"],
        "failed_frac": len(failures) / attempted,
        "failures": failures[:10],
        "run_s": {"samples": walls, "quartiles": quartiles(walls), "tail": tail(walls)},
        "cpu_s": {"samples": cpus, "quartiles": quartiles(cpus)},
        "slowness": slowness,
    }
    if args.trace:
        layers = result["layers"]
        metrics = {}
        for name, (unit, _) in PER_LAYER.items():
            values = [run[name] for run in layers if name in run]
            if values:
                metrics[name] = {"value": statistics.median(values), "unit": unit}
        untraced = statistics.median(walls)
        metrics["setup.import_s"] = {"value": result["import_s"], "unit": "s"}
        metrics["trace.untraced_run_s"] = {"value": untraced, "unit": "s"}
        overhead = metrics["trace.run_s"]["value"] - untraced
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
        detail["missing"] = sorted(set(PER_LAYER) - set(metrics))
        detail["traced_runs"] = len(layers)
        detail["trace_file"] = result["trace_file"]
    else:
        setups = result["setups"]
        if not setups:
            print("error: no setup probe succeeded: " + "; ".join(failures), file=sys.stderr)
            return 1
        detail["setup_s"] = {"samples": setups, "slowness": result["setup_slowness"]}

        def corrected(samples, slowness):
            # seconds on the reference machine; see calibration.py
            return statistics.median(v / s for v, s in zip(samples, slowness))

        metrics = {
            "run_s": {"value": corrected(walls, slowness), "unit": "s"},
            "cpu_s": {"value": corrected(cpus, slowness), "unit": "s"},
            "setup_s": {"value": corrected(setups, result["setup_slowness"]), "unit": "s"},
            "peak_rss_mb": {"value": result["peak_rss_mb"], "unit": "MiB"},
        }
        detail["raw_medians"] = {
            "run_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
        }

    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def smoke() -> int:
    """Run each workload once per mode and check the emitted metric names and units."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    if wanted[0] != END_TO_END:
        problems.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if wanted[1] != {k: u for k, (u, _) in PER_LAYER.items()}:
        problems.append("BENCHMARK.json per_layer differs from tracer.PER_LAYER")
    for problem in problems:
        print(f"FAIL  {problem}")
    for name in WORKLOADS:
        for trace in (0, 1):
            argv = [sys.executable, __file__, "--workload", name, "--seed", "0"]
            argv += ["--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=DEADLINE_S + 10)
            label = f"{name} --trace {trace}"
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                print(f"FAIL  {label}: no result (exit {proc.returncode}) {proc.stderr[-300:]}")
                problems.append(label)
                continue
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            numeric = all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
            checks = {
                "exit code 0": proc.returncode == 0,
                "keys": set(result) == {"correct", "attempted", "failed", "metrics"},
                "correct": result["correct"] is True and result["failed"] == 0,
                "metric names and units": got == wanted[trace],
                "numeric values": numeric,
            }
            bad = [k for k, ok in checks.items() if not ok]
            print(f"{'FAIL' if bad else 'PASS'}  {label}" + (f": {', '.join(bad)}" if bad else ""))
            if trace == 0:
                shown = [f"{k} {v['value']:.4g} {v['unit']}" for k, v in result["metrics"].items()]
                shown.append(f"failed_frac {result['failed']}/{result['attempted']}")
                print("      " + ", ".join(shown))
            if bad:
                problems.append(label)
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args()

    problem = checkout_problem()
    if problem:
        print(f"error: {problem}", file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.record_reference:
        for name in WORKLOADS:
            args.workload = name
            print(run_worker(args, 600, ["--record"]))
        return 0
    if args.workload is None:
        ap.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
