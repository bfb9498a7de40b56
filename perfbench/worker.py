"""One measuring process: import the CLI, warm up, then run the scenario in a
closed loop (one client; the next run starts when the previous one ends),
then time fresh interpreters reaching a CLI that can run the command.  Each
sample is bracketed by machine-speed calibrations (calibration.py).

Started by run.py in a fresh interpreter; prints one JSON object on its last
stdout line.  Usage:

    python3 perfbench/worker.py --root <checkout> --workload <name> --seed <n>
        --seconds <s> --trace <0|1>
    python3 perfbench/worker.py --root <checkout> --workload <name> --record
"""

from __future__ import annotations

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gzip  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from calibration import calibrate  # noqa: E402

SETUP_PROBES = 3

# A fresh interpreter reaches a CLI that can run the command: import the
# package's CLI and load the workload's config, then say so on stdout.
_PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import susyjc.cli as cli; "
    "cli.load_config(sys.argv[2], need_profiles=cli.COMMANDS[sys.argv[3]][1]); "
    "print('ready', flush=True)"
)


def run_once(cli, argv):
    """(exit code, stdout, wall seconds, process CPU seconds) of one CLI run.

    Process CPU time counts every thread of the process, BLAS helpers too.
    """
    out, err = io.StringIO(), io.StringIO()
    wall0, cpu0 = time.perf_counter(), time.process_time()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = "uncaught " + traceback.format_exc(limit=3)
    wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
    if code != 0:
        code = f"{code}: {err.getvalue().strip()[-300:]}"
    return code, out.getvalue(), wall, cpu


def setup_probe(root: Path, prepared) -> float:
    """Seconds from starting a fresh interpreter to its 'ready' line."""
    argv = [sys.executable, "-c", _PROBE, str(root / "src"), str(prepared.config)]
    argv.append(prepared.workload.command)
    start = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        try:
            _, err = proc.communicate(timeout=20)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"setup probe failed ({proc.returncode}): {err.strip()[-300:]}")
    return elapsed


def environment() -> dict:
    """What the numbers depend on; BLAS thread variables are left as found."""
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True, type=Path)
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="write the seed-0 reference CSVs")
    args = ap.parse_args()

    sys.path.insert(0, str(args.root / "src"))
    import susyjc.cli as cli

    import_s = time.perf_counter() - _T0
    prepared = workloads.prepare(args.root, args.workload, 0 if args.record else args.seed)
    runs_dir = prepared.work_dir / "runs"
    shutil.rmtree(runs_dir, ignore_errors=True)

    if args.record:
        return record(cli, prepared, runs_dir)

    reference = checks.reference_files(args.workload) if args.seed == 0 else None
    failures: list[str] = []
    first: dict | None = None

    def measured(n: int) -> tuple[float, float]:
        nonlocal first
        out_dir = runs_dir / f"run{n}"
        code, stdout, wall, cpu = run_once(cli, prepared.argv(prepared.config, out_dir))
        try:
            problems = checks.check_run(prepared, code, stdout, out_dir, reference, first)
        except (OSError, ValueError, KeyError, UnicodeDecodeError) as exc:
            problems = [f"unreadable output: {exc!r}"]
        if problems:
            failures.append(f"run {n}: " + "; ".join(problems))
        elif first is None:
            first = {p.name: p.read_bytes() for p in out_dir.glob("*.csv")}
        shutil.rmtree(out_dir, ignore_errors=True)
        return wall, cpu

    code, _, _, _ = run_once(cli, prepared.argv(prepared.warmup_config, runs_dir / "warmup"))
    if code != 0:
        failures.append(f"warm-up: exit code {code}")

    # every sample is divided by the mean of the calibrations before and after it
    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    start = time.perf_counter()
    walls, cpus, slowness = [], [], []
    before = calibrate()
    while True:
        wall, cpu = measured(len(walls))
        after = calibrate()
        walls.append(wall)
        cpus.append(cpu)
        slowness.append((before + after) / 2)
        before = after
        if time.perf_counter() - start >= untraced_budget:
            break

    setups, setup_slowness = [], []
    if not args.trace:
        # probe 0 is not kept: it fills the file cache
        before = calibrate()
        for n in range(SETUP_PROBES + 1):
            try:
                seconds = setup_probe(args.root, prepared)
            except (RuntimeError, subprocess.TimeoutExpired) as exc:
                failures.append(f"setup probe {n}: {exc}")
                continue
            after = calibrate()
            if n:
                setups.append(seconds)
                setup_slowness.append((before + after) / 2)
            before = after

    result = {
        "config": str(prepared.config.relative_to(args.root)),
        "import_s": import_s,
        "walls": walls,
        "cpus": cpus,
        "slowness": slowness,
        "setups": setups,
        "setup_slowness": setup_slowness,
        "attempted": 1 + len(walls) + (0 if args.trace else SETUP_PROBES + 1),
        "failures": failures,
        "env": environment(),
    }
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        layers = []
        start = time.perf_counter()
        while True:
            tracer.start_run()
            wall, _ = measured(len(walls) + len(layers))
            layers.append(tracer.end_run(wall))
            if time.perf_counter() - start >= args.seconds - untraced_budget:
                break
        result["attempted"] += len(layers)
        result["layers"] = layers
        result["missing"] = sorted(tracer.missing)
        trace_file = prepared.work_dir / "trace.json"
        trace_file.write_text(json.dumps({"spans": tracer.span_records()}))
        result["trace_file"] = str(trace_file.relative_to(args.root))

    shutil.rmtree(runs_dir, ignore_errors=True)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


def record(cli, prepared, runs_dir: Path) -> int:
    """Run seed 0 once and store its CSVs as the reference set."""
    out_dir = runs_dir / "record"
    code, stdout, _, _ = run_once(cli, prepared.argv(prepared.config, out_dir))
    problems = checks.check_run(prepared, code, stdout, out_dir, None, None)
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    target = checks.REFERENCE_DIR / prepared.workload.name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)
    for path in sorted(out_dir.glob("*.csv")):
        # mtime 0 keeps the archive bytes a function of the CSV alone
        (target / f"{path.name}.gz").write_bytes(gzip.compress(path.read_bytes(), mtime=0))
    shutil.rmtree(runs_dir, ignore_errors=True)
    print(json.dumps({"recorded": sorted(p.name for p in target.glob("*.gz"))}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
