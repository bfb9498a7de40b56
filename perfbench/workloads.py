"""The benchmark's workloads and the seeded scenario configs they run.

Seed 0 runs the committed configs byte for byte.  Any other seed draws the
initial polar angle, the coupling values and the table knot values from the
ranges below (all well away from the polar poles theta = 0, pi), so a claim
can be re-checked on inputs it was not tuned on.  The ranges are narrow on
purpose: medians are compared across seeds, so the work per run must not
swing with the seed.  Wider ranges flip blocks of the coherent family between
one and two certification passes: theta0 = pi/3 +- 0.1 spread its run time
(at t_final 20) from 6 s to 13 s, and even +-0.01 with couplings +-1 % moved
its profile call count by +-7 %.
"""

from __future__ import annotations

import configparser
import io
import math
import random
import shutil
from dataclasses import dataclass
from pathlib import Path

THETA0_RANGE = (math.pi / 3 - 0.002, math.pi / 3 + 0.002)
G_MOD_SCALE = (0.998, 1.002)
BERRY_THETA_JITTER = 0.002
# The warm-up run stops here: far enough to cross the first table knot of
# the driven scenario and to finish the package's lazy set-up, short enough
# to cost a fraction of a measured run.
WARMUP_T_FINAL = 3.0


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: str  # relative to the checkout root
    bound_label: str  # the scenario's own bound line: "max <label>: x (bound b)"
    bound: float


# Why each workload exists is stated in BENCHMARK.json and README.md.
WORKLOADS = {
    w.name: w
    for w in (
        Workload("resonant", "propagate", "configs/resonant.ini", "oracle infidelity", 1e-6),
        Workload(
            "coherent-xi1",
            "coherent",
            "perfbench/configs/coherent-xi1.ini",
            "|sigma_z exact - oracle|",
            1e-6,
        ),
        Workload("berry-sweep", "berry", "configs/berry.ini", "|numeric - formula|", 1e-3),
        Workload("driven", "propagate", "perfbench/configs/driven.ini", "oracle infidelity", 1e-6),
    )
}


def _fmt(x: float) -> str:
    return repr(float(x))


def _vary(workload: Workload, cp: configparser.ConfigParser, seed: int) -> None:
    rng = random.Random(f"{workload.name}:{seed}")
    if workload.command == "berry":
        thetas = [float(v) for v in cp.get("berry", "thetas").split(",")]
        jittered = [t + rng.uniform(-BERRY_THETA_JITTER, BERRY_THETA_JITTER) for t in thetas]
        cp.set("berry", "thetas", ", ".join(_fmt(t) for t in jittered))
        cp.set("berry", "g_mod", _fmt(cp.getfloat("berry", "g_mod") * rng.uniform(*G_MOD_SCALE)))
        return
    cp.set("aux", "theta0", _fmt(rng.uniform(*THETA0_RANGE)))
    if cp.get("profiles", "g_mod.kind").strip() == "table":
        values = [float(v) for v in cp.get("profiles", "g_mod.values").split(",")]
        scaled = [v * rng.uniform(*G_MOD_SCALE) for v in values]
        cp.set("profiles", "g_mod.values", ", ".join(_fmt(v) for v in scaled))
    else:
        value = cp.getfloat("profiles", "g_mod.value")
        cp.set("profiles", "g_mod.value", _fmt(value * rng.uniform(*G_MOD_SCALE)))


def _warmup(workload: Workload, cp: configparser.ConfigParser) -> None:
    if workload.command == "berry":
        first = cp.get("berry", "thetas").split(",")[0].strip()
        cp.set("berry", "thetas", first)
        return
    t_final = min(cp.getfloat("run", "t_final", fallback=20.0), WARMUP_T_FINAL)
    cp.set("run", "t_final", _fmt(t_final))
    cp.set("run", "samples", "31")


def _read(path: Path) -> configparser.ConfigParser:
    cp = configparser.ConfigParser()
    with open(path) as fh:
        cp.read_file(fh)
    return cp


def _write(cp: configparser.ConfigParser, path: Path) -> None:
    buf = io.StringIO()
    cp.write(buf)
    path.write_text(buf.getvalue())


@dataclass(frozen=True)
class Prepared:
    workload: Workload
    seed: int
    work_dir: Path
    config: Path
    warmup_config: Path

    def argv(self, config: Path, out_dir: Path) -> list[str]:
        return [self.workload.command, "--config", str(config), "--out", str(out_dir)]

    def expected_files(self) -> dict[str, int]:
        """CSV file name -> expected number of data rows."""
        cp = _read(self.config)
        if self.workload.command == "berry":
            thetas = cp.get("berry", "thetas").split(",")
            sigmas = cp.get("berry", "sigma", fallback="1, -1").split(",")
            return {"berry_sweep.csv": len(thetas) * len(sigmas)}
        rows = cp.getint("run", "samples")
        if self.workload.command == "coherent":
            return {"inversion.csv": rows}
        files = {}
        for m in (int(v) for v in cp.get("space", "m").split(",")):
            files[f"trajectory_m{m}.csv"] = rows
            files[f"phases_m{m}.csv"] = rows
            for sigma in (int(v) for v in cp.get("run", "sigma").split(",")):
                tag = "plus" if sigma > 0 else "minus"
                files[f"fidelity_m{m}_sigma_{tag}.csv"] = rows
        return files


def prepare(root: Path, name: str, seed: int) -> Prepared:
    """Write the seed's config and its warm-up config under the work dir."""
    workload = WORKLOADS[name]
    source = root / workload.config
    work_dir = root / ".bench_out" / name / f"seed{seed}"
    work_dir.mkdir(parents=True, exist_ok=True)
    config = work_dir / "scenario.ini"
    if seed == 0:
        shutil.copyfile(source, config)
    else:
        cp = _read(source)
        _vary(workload, cp, seed)
        _write(cp, config)
    cp = _read(config)
    _warmup(workload, cp)
    warmup_config = work_dir / "warmup.ini"
    _write(cp, warmup_config)
    return Prepared(workload, seed, work_dir, config, warmup_config)
