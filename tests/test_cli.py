import ast
import configparser
import contextlib
import io
import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from susyjc.cli import COMMANDS, ConfigurationError, ScenarioConfig, load_config, main

ROOT = Path(__file__).resolve().parents[1]

BASE = """\
[space]
k = 3
cutoff = 32
guard = 3
m = 0

[profiles]
omega.kind = constant
omega.value = 1.0
omega0.kind = constant
omega0.value = 3.0
g_mod.kind = constant
g_mod.value = 0.05
g_phase.kind = constant
g_phase.value = 0.0

[aux]
theta0 = 1.0471975511965976

[run]
t_final = 8.0
samples = 41

[oracle]
enabled = true
max_infidelity = 1e-6
"""

# BASE with omega0 = 3 + 0.1 sin(0.3 t): H depends on time, so the oracle
# integrates it with DOP853 (constant profiles it propagates exactly)
SWINGING = BASE.replace(
    "omega0.kind = constant\nomega0.value = 3.0\n",
    "omega0.kind = sinusoid\nomega0.offset = 3.0\nomega0.amplitude = 0.1\nomega0.frequency = 0.3\n",
)

BERRY = """\
[space]
k = 3
cutoff = 16

[berry]
thetas = 1.0471975511965976, 1.5707963267948966
sigma = 1, -1
m = 0
g_mod = 0.05
omega = 1.0
tol = 1e-3
"""


THETA0 = "theta0 = 1.0471975511965976"
ORACLE = "enabled = true"
G_MOD = "g_mod.kind = constant\ng_mod.value = 0.05"


def section(name, line):
    """(old, new) replacements that add ``[name]`` with one ``line`` to BASE."""
    return "[oracle]", f"[{name}]\n{line}\n\n[oracle]"


def write(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def read_column(path, column):
    lines = Path(path).read_text().strip().splitlines()
    header = lines[0].split(",")
    idx = header.index(column)
    return np.array([float(line.split(",")[idx]) for line in lines[1:]])


def test_verify_algebra_pass(tmp_path, capsys):
    code = main(["verify-algebra", "--config", write(tmp_path, BASE), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.count("PASS") == 11  # ten identities + one block
    assert "FAIL" not in out


def test_verify_algebra_tolerance_floor(tmp_path, capsys):
    cfg = BASE + "\n[verify]\ntol = 1e-20\n"
    code = main(["verify-algebra", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "FAIL" in capsys.readouterr().out


def test_config_error_exit_2(tmp_path, capsys):
    cfg = BASE.replace("cutoff = 32", "cutoff = 4")
    code = main(["verify-algebra", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "config error" in capsys.readouterr().err


def test_malformed_profile_kind_names_key(tmp_path, capsys):
    cfg = BASE.replace("omega0.kind = constant", "omega0.kind = wiggle")
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "profiles.omega0.kind" in capsys.readouterr().err


def test_missing_config_file(tmp_path, capsys):
    code = main(["propagate", "--config", str(tmp_path / "nope.ini"), "--out", str(tmp_path / "o")])
    assert code == 2


def test_propagate_artifacts(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["propagate", "--config", write(tmp_path, BASE), "--out", str(out)])
    assert code == 0
    for name in (
        "trajectory_m0.csv",
        "phases_m0.csv",
        "fidelity_m0_sigma_plus.csv",
        "fidelity_m0_sigma_minus.csv",
    ):
        assert (out / name).exists(), name

    infid = read_column(out / "fidelity_m0_sigma_plus.csv", "oracle_infidelity")
    assert infid.max() < 1e-6
    resid = read_column(out / "trajectory_m0.csv", "residual")
    assert resid.max() < 1e-8
    theta = read_column(out / "trajectory_m0.csv", "theta")
    assert abs(theta[0] - 1.0471975511965976) < 1e-11  # 12 significant digits


def test_propagate_decoupled_low_infidelity(tmp_path):
    cfg = BASE.replace("g_mod.value = 0.05", "g_mod.value = 0.0")
    out = tmp_path / "run"
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(out)])
    assert code == 0
    infid = read_column(out / "fidelity_m0_sigma_plus.csv", "oracle_infidelity")
    assert infid.max() < 1e-10


def test_propagate_deterministic(tmp_path):
    cfg = write(tmp_path, BASE.replace("m = 0", "m = 0, 1"))
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert main(["propagate", "--config", cfg, "--out", str(out1)]) == 0
    assert main(["propagate", "--config", cfg, "--out", str(out2)]) == 0
    for name in sorted(p.name for p in out1.iterdir()):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_oracle_drift_line_follows_bound_line(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    cfg_xi0 = write(tmp_path, BASE + "\n[coherent]\nxi = 0.0\n", "c.ini")
    assert main(["coherent", "--config", cfg_xi0, "--out", str(tmp_path / "c")]) == 0
    lines = capsys.readouterr().out.splitlines()
    drift = re.compile(r"^oracle drift: norm (\S+) \(bound 1e-09\), N' (\S+)$")
    for bound_label in ("max oracle infidelity: ", "max |sigma_z exact - oracle|: "):
        at = next(i for i, line in enumerate(lines) if line.startswith(bound_label))
        match = drift.match(lines[at + 1])
        assert match, lines[at + 1]
        assert 0.0 <= float(match[1]) < 1e-9
        assert 0.0 <= float(match[2]) < 1e-6
    # the bound lines only: the drift line is not one
    labels = [line.split(":")[0] for line in lines if line.startswith("max ")]
    assert labels == [
        "max oracle infidelity",
        "max oracle amplitude error",
        "max |sigma_z exact - oracle|",
        "max oracle amplitude error",
    ]


def test_propagate_builds_one_phase_integrals_for_all_its_blocks(tmp_path, monkeypatch):
    # one per run, on its one angle solve: propagate's holds all of its
    # blocks, shared by both branches and the phases CSVs; coherent's holds
    # the whole block family
    from susyjc.coherent import CoherentSpec
    from susyjc.evolution import PhaseIntegrals

    built = []
    original = PhaseIntegrals.__init__

    def counting(self, trajectories, blocks):
        built.append([block.m for block in blocks])
        original(self, trajectories, blocks)

    monkeypatch.setattr(PhaseIntegrals, "__init__", counting)
    cfg = BASE.replace("m = 0", "m = 0, 1").replace("enabled = true", "enabled = false")
    assert main(["propagate", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    assert built == [[0, 1]]

    built.clear()
    cfg = write(tmp_path, BASE + "\n[coherent]\nxi = 0.5\n", "c.ini")
    assert main(["coherent", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    m_max = CoherentSpec.for_xi(0.5).m_max
    assert m_max > 0 and built == [list(range(m_max + 1))]

    # berry reads each cycle's phase off its angle solve and builds none
    built.clear()
    assert main(["berry", "--config", write(tmp_path, BERRY, "b.ini"), "--out", str(tmp_path / "b")]) == 0
    assert built == []


def test_solution_layer_is_sampled_once_per_run_not_per_time(tmp_path, monkeypatch, sample_calls):
    # the exact states are sampled on the whole time grid in one call:
    # propagate samples the angles and phase integrals of all of its blocks
    # once for all of its CSVs; coherent builds one superposition, which reads
    # the block family once and no member on its own
    from susyjc import cli
    from susyjc.coherent import CoherentSpec
    from susyjc.evolution import ExactSolution

    calls = {"state_at": [], "coherent": 0, "family_widths": []}
    state_at = ExactSolution.state_at
    build = cli.build_coherent_state

    def counting_state_at(self, t):
        calls["state_at"].append((self.block.m, self.sigma))
        return state_at(self, t)

    def counting_build(*args):
        calls["coherent"] += 1
        start = len(sample_calls)
        try:
            return build(*args)
        finally:
            calls["family_widths"] = [(kind, n) for kind, _, n in sample_calls[start:]]

    monkeypatch.setattr(ExactSolution, "state_at", counting_state_at)
    monkeypatch.setattr(cli, "build_coherent_state", counting_build)
    cfg = write(tmp_path, BASE.replace("m = 0", "m = 0, 1").replace(ORACLE, "enabled = false"))
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    # the (5M,) dense output of the blocks' one solve once, int w once, on
    # the output grid (not the solves' own samples)
    grid_widths = [(kind, n) for kind, size, n in sample_calls if size == 41]
    assert grid_widths == [("dense", 10), ("int w", 1)]
    assert calls["state_at"] == []

    cfg = write(tmp_path, BASE + "\n[coherent]\nxi = 0.5\n", "c.ini")
    assert main(["coherent", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert calls["coherent"] == 1
    members = CoherentSpec.for_xi(0.5).m_max + 1
    # the family's (5M,) dense output once, its int w once
    assert calls["family_widths"] == [("dense", 5 * members), ("int w", 1)]
    assert calls["state_at"] == []


def test_jobs_flag_is_gone(tmp_path, capsys):
    cfg = write(tmp_path, BASE)
    with pytest.raises(SystemExit) as exc:
        main(["propagate", "--config", cfg, "--out", str(tmp_path / "o"), "--jobs", "2"])
    assert exc.value.code == 2
    assert "--jobs" in capsys.readouterr().err


def test_berry_sweep(tmp_path, capsys):
    out = tmp_path / "b"
    code = main(["berry", "--config", write(tmp_path, BERRY), "--out", str(out)])
    assert code == 0
    err = read_column(out / "berry_sweep.csv", "abs_error")
    assert err.max() < 1e-3
    numeric = read_column(out / "berry_sweep.csv", "phase_numeric")
    assert abs(numeric[2] - (-math.pi)) < 1e-6  # theta = pi/2, sigma = +1
    # berry reads only k of [space]: without the cutoff its sweep is the same, byte for byte
    bare = tmp_path / "bare"
    cfg = write(tmp_path, BERRY.replace("cutoff = 16\n", ""), "bare.ini")
    assert main(["berry", "--config", cfg, "--out", str(bare)]) == 0
    assert (bare / "berry_sweep.csv").read_bytes() == (out / "berry_sweep.csv").read_bytes()


def test_berry_pole_row_is_zero(tmp_path):
    cfg = BERRY.replace(
        "thetas = 1.0471975511965976, 1.5707963267948966",
        "thetas = 0.0, 1.0471975511965976",
    )
    out = tmp_path / "b0"
    assert main(["berry", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    numeric = read_column(out / "berry_sweep.csv", "phase_numeric")
    assert numeric[0] == 0.0 and numeric[1] == 0.0  # theta = 0, both sigma


@pytest.mark.parametrize("theta", ["1e-10", "3.14159265358"])
def test_berry_theta_within_theta_min_of_a_pole_takes_the_formula(tmp_path, theta):
    # the solve stops at |sin theta| < THETA_MIN, so the sweep treats such a
    # theta as a pole, as it treats 0 and pi, instead of exiting 1 at t = 0
    cfg = BERRY.replace("thetas = 1.0471975511965976, 1.5707963267948966", f"thetas = {theta}")
    out = tmp_path / "b"
    assert main(["berry", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    numeric = read_column(out / "berry_sweep.csv", "phase_numeric")
    formula = read_column(out / "berry_sweep.csv", "phase_formula")
    assert numeric.size == 2 and np.array_equal(numeric, formula)  # sigma = +1, -1


def test_bound_check_passes_strictly_below_its_bound():
    from susyjc.cli import Check

    check = Check.bound("oracle infidelity", 2.220446049250313e-16, 1e-6)
    assert check.line == "max oracle infidelity: 2.220e-16 (bound 1e-06)" and check.passed
    assert not Check.bound("oracle amplitude error", 1e-8, 1e-8).passed
    nan = Check.bound("|numeric - formula|", math.nan, 1e-3)
    assert nan.line == "max |numeric - formula|: nan (bound 0.001)" and not nan.passed


def test_berry_sweep_is_one_integration(tmp_path, monkeypatch):
    # every theta of the sweep is a member of one angle solve: one Magnus
    # integration for the four thetas of configs/berry.ini
    from susyjc import auxiliary

    runs = []
    magnus = auxiliary.magnus

    def counting(*args, **kwargs):
        runs.append(args[1])
        return magnus(*args, **kwargs)

    monkeypatch.setattr(auxiliary, "magnus", counting)
    config = str(ROOT / "configs" / "berry.ini")
    assert main(["berry", "--config", config, "--out", str(tmp_path / "o")]) == 0
    assert len(runs) == 1


def test_berry_cycle_closure_failure(tmp_path, capsys):
    # a window other than the period used to fail the closure check after the
    # solve; the cycle is now the scenario's period, so the key is refused at load
    cfg = BERRY + "t_final = 5.0\n"
    out = tmp_path / "o"
    code = main(["berry", "--config", write(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert "berry.t_final" in capsys.readouterr().err
    assert not out.exists()


def test_berry_solves_with_the_aux_tolerances(tmp_path, monkeypatch):
    from susyjc import adiabatic

    seen = []
    solve = adiabatic._solve_family

    def spying(*args, **kwargs):
        seen.append((kwargs["rtol"], kwargs["atol"]))
        return solve(*args, **kwargs)

    monkeypatch.setattr(adiabatic, "_solve_family", spying)
    cfg = write(tmp_path, BERRY + "\n[aux]\nrtol = 2e-10\natol = 1e-9\n")
    assert main(["berry", "--config", cfg, "--out", str(tmp_path / "o")]) == 0
    assert seen == [(2e-10, 1e-9)]  # one solve for every theta


def test_coherent_run_and_xi_zero_reduction(tmp_path):
    cfg_xi0 = BASE + "\n[coherent]\nxi = 0.0\n"
    out = tmp_path / "c0"
    assert main(["coherent", "--config", write(tmp_path, cfg_xi0, "c0.ini"), "--out", str(out)]) == 0
    inv = read_column(out / "inversion.csv", "abs_diff")
    assert inv.max() < 1e-6

    # xi = 0 reduces to the m = 0 block: inversion equals cos(theta(t))
    out_p = tmp_path / "p"
    assert main(["propagate", "--config", write(tmp_path, BASE, "p.ini"), "--out", str(out_p)]) == 0
    theta = read_column(out_p / "trajectory_m0.csv", "theta")
    sz = read_column(out / "inversion.csv", "sigma_z_exact")
    assert np.max(np.abs(sz - np.cos(theta))) < 1e-9


def test_the_scale_scenario_passes(tmp_path, capsys):
    # configs/coherent-xi2.ini: 23 blocks in one angle solve to t = 20, the
    # family that the angle route's cost grows with (1.031e-12 measured)
    config = str(ROOT / "configs" / "coherent-xi2.ini")
    assert main(["coherent", "--config", config, "--out", str(tmp_path / "o")]) == 0
    out = capsys.readouterr().out
    inversion = re.search(r"^max \|sigma_z exact - oracle\|: (\S+) \(bound 1e-06\)$", out, re.M)
    assert float(inversion[1]) < 1e-9


def test_coherent_truncation_exit_2(tmp_path, capsys):
    cfg = (BASE + "\n[coherent]\nxi = 2.0\n").replace("cutoff = 32", "cutoff = 16")
    code = main(["coherent", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "too small" in capsys.readouterr().err


# values at the ends of floating point, each one change to a committed
# config; tier-1's warnings-as-errors turns an untyped overflow into a failure
EDGES = {
    "t_final-1e-300": ("propagate", "resonant.ini", "t_final = 20.0", "t_final = 1e-300"),
    "t_final-5e-324": ("propagate", "resonant.ini", "t_final = 20.0", "t_final = 5e-324"),
    "berry-omega-1e-300": ("berry", "berry.ini", "omega = 1.0", "omega = 1e-300"),
    "omega-1e300": ("propagate", "resonant.ini", "omega.value = 1.0", "omega.value = 1e300"),
    "omega-1e150": ("propagate", "resonant.ini", "omega.value = 1.0", "omega.value = 1e150"),
    "omega-1e307": ("propagate", "resonant.ini", "omega.value = 1.0", "omega.value = 1e307"),
    # integers whose arrays, or lambda, no machine holds
    "samples-1e12": ("propagate", "resonant.ini", "samples = 201", "samples = 1000000000000"),
    "cutoff-1e8": ("propagate", "resonant.ini", "cutoff = 32", "cutoff = 100000000"),
    "berry-m-1e160": ("berry", "berry.ini", "m = 0", f"m = {10**160}"),
}


@contextlib.contextmanager
def _address_space(extra: int):
    """Let this process map at most ``extra`` more bytes while the block
    runs, as ``ulimit -v`` bounds CI's fresh processes: an input that asks
    for more memory than the machine has then fails at once on any machine,
    before it takes the machine's memory."""
    soft, hard = resource.getrlimit(resource.RLIMIT_AS)
    mapped = int(Path("/proc/self/statm").read_text().split()[0]) * os.sysconf("SC_PAGE_SIZE")
    limits = [mapped + extra] + [x for x in (soft, hard) if x != resource.RLIM_INFINITY]
    resource.setrlimit(resource.RLIMIT_AS, (min(limits), hard))
    try:
        yield
    finally:
        resource.setrlimit(resource.RLIMIT_AS, (soft, hard))


@pytest.mark.parametrize("command,base,old,new", list(EDGES.values()), ids=list(EDGES))
def test_values_at_the_ends_of_floating_point_end_typed(tmp_path, capsys, command, base, old, new):
    text = (ROOT / "configs" / base).read_text()
    assert text.count(old) == 1
    config = write(tmp_path, text.replace(old, new))
    with _address_space(2 << 30):
        code = main([command, "--config", config, "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code in (1, 2)
    assert len(err.splitlines()) == 1
    assert err.startswith("config error: " if code == 2 else "verification failure")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "old,new,key",
    [
        pytest.param("theta0 = 1.0471975511965976", "theta0 = 4.0", "aux.theta0", id="theta0-4.0"),
        pytest.param("samples = 41", "samples = 0", "run.samples", id="samples-0"),
        pytest.param("samples = 41", "samples = -3", "run.samples", id="samples-minus-3"),
        # one sample would compare exact and oracle at t = 0 only
        pytest.param("samples = 41", "samples = 1", "run.samples", id="samples-1"),
        pytest.param(
            "[oracle]", "[output]\nprecision = -1\n\n[oracle]", "output.precision",
            id="precision-minus-1",
        ),
        # a key that no reader looks up is rejected, not silently defaulted
        pytest.param(
            "theta0 = 1.0471975511965976",
            "theta0 = 1.0471975511965976\nrtoll = 1e-6",
            "aux.rtoll",
            id="unread-aux-rtoll",
        ),
        pytest.param(
            "theta0 = 1.0471975511965976",
            "theta0 = 1.0471975511965976\nsamples = 5",
            "aux.samples",
            id="unread-aux-samples",
        ),
        pytest.param(
            "[oracle]", "[coherent]\ntail = 0.1\n\n[oracle]", "coherent.tail", id="unread-coherent-tail"
        ),
        # the Berry cycle is its scenario's period 2 pi / omega: no command reads [berry] t_final
        pytest.param(
            *section("berry", "t_final = 6.283185307179586"), "berry.t_final", id="unread-berry-t-final"
        ),
        pytest.param(*section("berry", "t_final = inf"), "berry.t_final", id="berry-t-final-inf"),
        pytest.param("[oracle]", "[bogus]\nx = 1\n\n[oracle]", "bogus.x", id="unread-section"),
        pytest.param(
            "omega.value = 1.0",
            "omega.value = 1.0\nomega.slope = 0.1",
            "profiles.omega.slope",
            id="unread-profile-key",
        ),
        # a nan tolerance never lets the solver finish a step; a negative one
        # would surface as a failed certificate against a negative bound
        pytest.param(THETA0, THETA0 + "\nrtol = nan", "aux.rtol", id="aux-rtol-nan"),
        pytest.param(THETA0, THETA0 + "\natol = nan", "aux.atol", id="aux-atol-nan"),
        pytest.param(THETA0, THETA0 + "\nrtol = -1e-10", "aux.rtol", id="aux-rtol-negative"),
        pytest.param(ORACLE, ORACLE + "\nrtol = nan", "oracle.rtol", id="oracle-rtol-nan"),
        pytest.param(ORACLE, ORACLE + "\natol = -1", "oracle.atol", id="oracle-atol-minus-1"),
        pytest.param(
            "[oracle]", "[coherent]\nxi = nan\n\n[oracle]", "coherent.xi", id="coherent-xi-nan"
        ),
        # block m = 26 reaches the oracle's guard band: ground level 29 >= 32 - 3
        pytest.param("m = 0", "m = 26", "space.m", id="m-in-oracle-guard-band"),
        # an infinite window hangs the solve; nan, 0 and negative ones mean nothing
        pytest.param("t_final = 8.0", "t_final = inf", "run.t_final", id="run-t-final-inf"),
        pytest.param("t_final = 8.0", "t_final = nan", "run.t_final", id="run-t-final-nan"),
        pytest.param("t_final = 8.0", "t_final = 0", "run.t_final", id="run-t-final-0"),
        pytest.param("t_final = 8.0", "t_final = -8.0", "run.t_final", id="run-t-final-negative"),
        # a nan bound used to run the whole propagation and then fail every comparison
        pytest.param(
            "max_infidelity = 1e-6",
            "max_infidelity = nan",
            "oracle.max_infidelity",
            id="oracle-max-infidelity-nan",
        ),
        pytest.param(
            "max_infidelity = 1e-6",
            "max_infidelity = -1e-6",
            "oracle.max_infidelity",
            id="oracle-max-infidelity-negative",
        ),
        pytest.param(*section("verify", "tol = nan"), "verify.tol", id="verify-tol-nan"),
        pytest.param(*section("berry", "tol = inf"), "berry.tol", id="berry-tol-inf"),
        pytest.param(
            *section("coherent", "max_diff = nan"), "coherent.max_diff", id="coherent-max-diff-nan"
        ),
        pytest.param(THETA0, THETA0 + "\nphi0 = inf", "aux.phi0", id="aux-phi0-inf"),
        pytest.param(*section("berry", "g_mod = nan"), "berry.g_mod", id="berry-g-mod-nan"),
        pytest.param(*section("berry", "omega = inf"), "berry.omega", id="berry-omega-inf"),
        # a bad branch used to surface only after the first Berry cycle was solved
        pytest.param(*section("berry", "sigma = 1, 2"), "berry.sigma", id="berry-sigma-2"),
        pytest.param(*section("coherent", "sigma = 0"), "coherent.sigma", id="coherent-sigma-0"),
        # an empty list would run no block, branch or angle and pass vacuously
        pytest.param("samples = 41", "samples = 41\nsigma =", "run.sigma", id="run-sigma-empty"),
        pytest.param("m = 0", "m =", "space.m", id="space-m-empty"),
        pytest.param(*section("berry", "thetas ="), "berry.thetas", id="berry-thetas-empty"),
        pytest.param(*section("berry", "sigma = ,"), "berry.sigma", id="berry-sigma-empty"),
        # a repeated block or branch would be solved, checked and written twice
        pytest.param("m = 0", "m = 0, 0", "space.m", id="space-m-repeated"),
        pytest.param("samples = 41", "samples = 41\nsigma = 1, -1, 1", "run.sigma", id="run-sigma-repeated"),
        pytest.param(*section("berry", "sigma = -1, -1"), "berry.sigma", id="berry-sigma-repeated"),
    ],
)
def test_theta0_range_validated_before_computation(tmp_path, capsys, old, new, key):
    cfg = BASE.replace(old, new)
    out = tmp_path / "o"
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # rejected at load time, before any output


@pytest.mark.parametrize(
    "text,located",
    [
        pytest.param(
            BASE.replace("samples = 41", "samples = 41\nsamples = 5"), "[line 23]", id="key-twice"
        ),
        pytest.param(BASE + "\n[run]\nsamples = 5\n", "[line 28]", id="section-twice"),
        pytest.param("k = 3\n" + BASE, "line: 1", id="no-section-header"),
    ],
)
def test_unparsable_config_is_exit_2_naming_file_and_line(tmp_path, capsys, text, located):
    out = tmp_path / "o"
    code = main(["propagate", "--config", write(tmp_path, text), "--out", str(out)])
    assert code == 2
    err = capsys.readouterr().err
    assert "scenario.ini" in err and located in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,text,key",
    [
        pytest.param(
            "berry", BERRY.replace("omega = 1.0", "omega = -1.0"), "berry.omega", id="omega-negative"
        ),
        pytest.param(
            "berry", BERRY.replace("omega = 1.0", "omega = 0.0"), "berry.omega", id="omega-zero"
        ),
        pytest.param(
            "berry", BERRY.replace("g_mod = 0.05", "g_mod = -0.05"), "berry.g_mod", id="g-mod-negative"
        ),
        pytest.param(
            "berry", BERRY.replace("1.5707963267948966", "4.0"), "berry.thetas", id="theta-above-pi"
        ),
        # sin(2 pi) rounds below the pole test, so 2 pi used to pass as a pole
        pytest.param(
            "berry",
            BERRY.replace("1.5707963267948966", "6.283185307179586"),
            "berry.thetas",
            id="theta-two-pi",
        ),
        pytest.param("coherent", BASE, "coherent.xi", id="coherent-xi-missing"),
        # berry alone may leave it out: every other command builds the Fock space
        pytest.param(
            "propagate", BASE.replace("cutoff = 32\n", ""), "space.cutoff", id="cutoff-missing"
        ),
        # every check of coherent compares with the oracle: without it nothing is checked
        pytest.param(
            "coherent",
            BASE.replace(ORACLE, "enabled = false") + "\n[coherent]\nxi = 0.5\n",
            "oracle.enabled",
            id="coherent-oracle-disabled",
        ),
        # a given theta0 beside a matched start used to be dropped without a word
        pytest.param(
            "propagate",
            BASE.replace(THETA0, THETA0 + "\nadiabatic_matched = true"),
            "aux.theta0 and aux.adiabatic_matched = true both set the start angle",
            id="theta0-and-adiabatic-matched",
        ),
        pytest.param(
            "propagate",
            BASE.replace(THETA0 + "\n", ""),
            "missing required key aux.theta0 (or set aux.adiabatic_matched)",
            id="theta0-missing",
        ),
        pytest.param(
            "propagate",
            BASE.replace(ORACLE, "enabled = maybe"),
            "oracle.enabled: 'maybe' (expected a boolean, got 'maybe')",
            id="oracle-enabled-maybe",
        ),
        pytest.param(
            "propagate",
            BASE.replace(G_MOD, "g_mod.kind = table\ng_mod.times = 0.0\ng_mod.values = 0.05"),
            "profiles.g_mod: table profile needs",
            id="g-mod-table-one-value",
        ),
        pytest.param(
            "propagate",
            BASE.replace(G_MOD, "g_mod.kind = table\ng_mod.times = 0, 10\ng_mod.values = 0.05, 0.06").replace(
                "t_final = 8.0", "t_final = 20"
            ),
            "profiles not evaluable on [0, 20.0]",
            id="g-mod-table-short-of-t-final",
        ),
    ],
)
def test_config_error_leaves_no_output_directory(tmp_path, capsys, command, text, key):
    out = tmp_path / "o"
    code = main([command, "--config", write(tmp_path, text), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()


def test_the_module_entry_point_exits_with_the_command_code(tmp_path):
    # python -m susyjc.cli runs main() in a process of its own and exits with its code
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(ROOT / "src"), os.environ.get("PYTHONPATH", "")])}

    def run(command, config, out):
        argv = [sys.executable, "-m", "susyjc.cli", command, "--config", config, "--out", str(out)]
        return subprocess.run(argv, capture_output=True, text=True, env=env, timeout=120)

    berry = run("berry", str(ROOT / "configs" / "berry.ini"), tmp_path / "b")
    assert berry.returncode == 0, berry.stderr
    assert re.fullmatch(r"max \|numeric - formula\|: \S+ \(bound 0\.001\)\n", berry.stdout)
    assert (tmp_path / "b" / "berry_sweep.csv").exists()
    rejected = run("propagate", write(tmp_path, BASE.replace(ORACLE, "enabled = maybe")), tmp_path / "p")
    assert rejected.returncode == 2 and rejected.stdout == ""
    assert rejected.stderr.startswith("config error: bad value for oracle.enabled: 'maybe'")
    assert not (tmp_path / "p").exists()


def test_config_values_are_read_literally(tmp_path, monkeypatch):
    # a % in a value is a character, not the start of an interpolation
    cfg = write(tmp_path, BERRY + "\n[output]\ndirectory = out%x\n")
    assert load_config(cfg, need_profiles=False).out_dir == "out%x"
    monkeypatch.chdir(tmp_path)
    assert main(["berry", "--config", cfg]) == 0
    assert (tmp_path / "out%x" / "berry_sweep.csv").exists()


def test_guard_band_check_needs_the_oracle(tmp_path):
    # without the oracle nothing populates the guard band: block m = 26 runs
    cfg = BASE.replace("m = 0", "m = 26").replace("enabled = true", "enabled = false")
    out = tmp_path / "o"
    assert main(["propagate", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    assert (out / "trajectory_m26.csv").exists()


def test_berry_rejects_profile_keys(tmp_path, capsys):
    # berry builds its own scenarios and does not read [profiles]
    cfg = BERRY + "\n[profiles]\nomega.kind = constant\nomega.value = 1.0\n"
    out = tmp_path / "o"
    code = main(["berry", "--config", write(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert "profiles.omega.kind" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "command,config",
    [
        ("verify-algebra", "configs/resonant.ini"),
        ("propagate", "configs/resonant.ini"),
        ("berry", "configs/berry.ini"),
    ],
)
def test_readme_configs_load_under_their_commands(command, config):
    need_profiles = COMMANDS[command][1]
    load_config(str(ROOT / config), need_profiles=need_profiles)


def test_singularity_surfaces_with_time_stamp(tmp_path, capsys):
    # a strongly imaginary coupling drives theta into the pole mid-run
    cfg = BASE.replace("g_mod.value = 0.05", "g_mod.value = 0.3")
    cfg = cfg.replace("g_phase.value = 0.0", "g_phase.value = 1.5707963267948966")
    cfg = cfg.replace("theta0 = 1.0471975511965976", "theta0 = 0.35")
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert "t=" in err


def test_env_var_output_dir(tmp_path, monkeypatch):
    monkeypatch.setenv("SUSYJC_OUT", str(tmp_path / "envout"))
    monkeypatch.chdir(tmp_path)
    code = main(["berry", "--config", write(tmp_path, BERRY)])
    assert code == 0
    assert (tmp_path / "envout" / "berry_sweep.csv").exists()


def test_adiabatic_matched_initial_condition(tmp_path):
    cfg = BASE.replace("theta0 = 1.0471975511965976", "adiabatic_matched = true")
    cfg = cfg.replace("omega0.value = 3.0", "omega0.value = 1.8585786437626906")
    cfg = cfg.replace(
        "g_phase.kind = constant\ng_phase.value = 0.0",
        "g_phase.kind = linear\ng_phase.intercept = 0.0\ng_phase.slope = -1.0",
    )
    out = tmp_path / "am"
    assert main(["propagate", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    theta = read_column(out / "trajectory_m0.csv", "theta")
    # matched angle solves the steady constraint and stays put
    assert np.max(np.abs(theta - theta[0])) < 1e-7
    assert abs(theta[0] - math.pi / 3) < 1e-10


def test_propagate_blocks_match_their_solo_solves(tmp_path, capsys):
    # the blocks' one family solve gives every block the angles and phases
    # of its own solo solve, and the oracle's amplitude bound still holds
    from susyjc import AuxState, solve_aux
    from susyjc.blocks import SubspaceBlock
    from susyjc.evolution import PhaseIntegrals

    path = write(tmp_path, BASE.replace("m = 0", "m = 0, 1, 2") + "\n[output]\nprecision = 17\n")
    cfg = load_config(path)
    out = tmp_path / "o"
    assert main(["propagate", "--config", path, "--out", str(out)]) == 0
    stdout = capsys.readouterr().out
    amplitude = re.search(r"^max oracle amplitude error: (\S+) \(bound 1e-08\)$", stdout, re.M)
    assert amplitude and float(amplitude[1]) <= 1e-8
    ts = np.linspace(0.0, cfg.t_final, cfg.samples)
    for m in (0, 1, 2):
        block = SubspaceBlock.for_space(cfg.spec, m)
        solo = solve_aux(AuxState(cfg.theta0, cfg.phi0), (0.0, cfg.t_final), cfg.params, block.lam)
        angles, phi_d, phi_g = PhaseIntegrals([solo], [block]).sample(ts)
        expected = {
            f"trajectory_m{m}.csv": {"theta": angles.theta[:, 0], "phi": angles.phi[:, 0]},
            f"phases_m{m}.csv": {
                "phi_d_plus": phi_d[:, 0, 0],
                "phi_g_plus": phi_g[:, 0, 0],
                "phi_d_minus": phi_d[:, 0, 1],
                "phi_g_minus": phi_g[:, 0, 1],
            },
        }
        for name, columns in expected.items():
            for column, values in columns.items():
                assert np.max(np.abs(read_column(out / name, column) - values)) <= 1e-9, (m, column)


def test_adiabatic_matched_blocks_start_at_their_own_theta(tmp_path):
    # matched theta0 depends on lambda: each block of the one solve starts at
    # its own, and stays there
    from susyjc import adiabatic_matched_theta
    from susyjc.blocks import SubspaceBlock

    text = BASE.replace("theta0 = 1.0471975511965976", "adiabatic_matched = true")
    text = text.replace("m = 0", "m = 0, 1")
    text = text.replace("omega0.value = 3.0", "omega0.value = 1.8585786437626906")
    text = text.replace(
        "g_phase.kind = constant\ng_phase.value = 0.0",
        "g_phase.kind = linear\ng_phase.intercept = 0.0\ng_phase.slope = -1.0",
    )
    path = write(tmp_path, text)
    cfg = load_config(path)
    out = tmp_path / "am"
    assert main(["propagate", "--config", path, "--out", str(out)]) == 0
    starts = []
    for m in (0, 1):
        theta = read_column(out / f"trajectory_m{m}.csv", "theta")
        lam = SubspaceBlock.for_space(cfg.spec, m).lam
        assert abs(theta[0] - adiabatic_matched_theta(cfg.params, lam)) < 1e-10
        assert np.max(np.abs(theta - theta[0])) < 1e-7
        starts.append(theta[0])
    assert abs(starts[0] - math.pi / 3) < 1e-10 and abs(starts[1] - starts[0]) > 0.1


def test_a_block_at_a_pole_is_named_by_its_lambda(tmp_path, capsys):
    # in a multi-block run the larger lambda (m = 1) reaches the pole first;
    # the error names it, and the exit code is the solo run's
    cfg = BASE.replace("m = 0", "m = 0, 1").replace("g_mod.value = 0.05", "g_mod.value = 0.3")
    cfg = cfg.replace("g_phase.value = 0.0", "g_phase.value = 1.5707963267948966")
    cfg = cfg.replace("theta0 = 1.0471975511965976", "theta0 = 0.35")
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    assert err.startswith("verification failure at t=")
    assert err.rstrip().endswith("(lambda=24.0, theta0=0.35)")


def test_propagate_makes_one_oracle_call_for_every_block_and_sigma(tmp_path, monkeypatch):
    # 3 m x 2 sigma runs are the six columns of one integration, stacked in
    # the order m, then sigma
    from susyjc import cli

    shapes = []
    original = cli.propagate

    def counting(initial, *args, **kwargs):
        shapes.append(np.shape(initial))
        return original(initial, *args, **kwargs)

    monkeypatch.setattr(cli, "propagate", counting)
    cfg = write(tmp_path, BASE.replace("m = 0", "m = 0, 1, 2"))
    out = tmp_path / "o"
    assert main(["propagate", "--config", cfg, "--out", str(out)]) == 0
    assert shapes == [(6, 64)]
    assert len(list(out.glob("fidelity_*.csv"))) == 6


def test_a_drifting_oracle_column_is_named_by_block_and_sigma(tmp_path, capsys):
    # at a loose oracle rtol the worst column's drift rejects the whole run,
    # and the message turns the column into its (m, sigma)
    cfg = SWINGING.replace("m = 0", "m = 0, 1") + "rtol = 1e-4\n"
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    err = capsys.readouterr().err
    assert code == 1
    found = re.search(r"norm drift \S+ in column (\d) exceeds 1e-09 \(m = (\d), sigma = ([+-]1)\)", err)
    assert found, err
    column, m, sigma = int(found[1]), int(found[2]), int(found[3])
    assert (m, sigma) == [(0, 1), (0, -1), (1, 1), (1, -1)][column]


def _stop_at_midpoint(monkeypatch):
    """Make each DOP853 run (the oracle's) end at its span's midpoint with a
    message, as a solver that gives up there does."""
    from susyjc import quadrature

    dop853 = quadrature.dop853

    def stopping(rhs, span, y0, rtol, atol):
        run = dop853(rhs, (span[0], 0.5 * (span[0] + span[1])), y0, rtol, atol)
        run.message = "forced stop"
        return run

    monkeypatch.setattr(quadrature, "dop853", stopping)


def _stop_angles_at_midpoint(monkeypatch):
    """Make the angle route's Magnus integration give up at its window's
    midpoint, as a step that falls under the float spacing there does."""
    from susyjc import auxiliary

    def stopping(field, window, vectors, kinks, tol, failure, shift):
        raise failure("forced stop", 0.5 * (window[0] + window[1]))

    monkeypatch.setattr(auxiliary, "magnus", stopping)


def test_a_stopped_angle_integration_is_a_singularity_at_the_time_reached(
    tmp_path, capsys, monkeypatch
):
    # the solver gives up at t = 4 of [0, 8]: the error carries that time
    from susyjc import AuxState, SingularityError, constant_params, solve_aux

    _stop_angles_at_midpoint(monkeypatch)
    with pytest.raises(SingularityError, match="^angle integration failed: forced stop$") as info:
        solve_aux(AuxState(math.pi / 3, 0.0), (0.0, 8.0), constant_params(1.0, 3.0, 0.05), 6.0)
    assert info.value.time == 4.0
    code = main(["propagate", "--config", write(tmp_path, BASE), "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "verification failure at t=4: angle integration failed: forced stop" in err


def test_a_stopped_oracle_integration_names_no_column(tmp_path, capsys, monkeypatch):
    # the oracle's stop belongs to no one column, so propagate passes it on
    # as it is, with the time it stopped at; the angle solve runs unstopped
    from susyjc import FockSpaceSpec, PropagationError, propagate

    _stop_at_midpoint(monkeypatch)
    spec = FockSpaceSpec(cutoff=32, k=3)
    cfg = write(tmp_path, SWINGING)
    params = load_config(cfg).params
    with pytest.raises(PropagationError, match="^integration failed: forced stop$") as info:
        propagate(spec.basis_state(0, 0), (0.0, 8.0), params, spec)
    assert info.value.column is None and info.value.time == 4.0
    code = main(["propagate", "--config", cfg, "--out", str(tmp_path / "o")])
    assert code == 1
    err = capsys.readouterr().err
    assert "verification failure at t=4: integration failed: forced stop\n" in err
    assert "(m = " not in err


def test_a_growing_phase_error_fails_propagate(tmp_path, capsys, monkeypatch):
    # phi_d off by one part in 1e7 leaves the infidelity at ~delta^2 / 2,
    # far under its bound, but the amplitude error sees the phase
    import susyjc.evolution as evolution

    sample = evolution.PhaseIntegrals.sample

    def skewed(self, t):
        angles, phi_d, phi_g = sample(self, t)
        return angles, phi_d * (1.0 + 1e-7), phi_g

    monkeypatch.setattr(evolution.PhaseIntegrals, "sample", skewed)
    code = main(["propagate", "--config", write(tmp_path, BASE), "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    assert code == 1
    infidelity = re.search(r"^max oracle infidelity: (\S+) \(bound 1e-06\)$", out, re.M)
    amplitude = re.search(r"^max oracle amplitude error: (\S+) \(bound 1e-08\)$", out, re.M)
    assert float(infidelity[1]) < 1e-6
    assert float(amplitude[1]) > 1e-8


def test_a_block_phase_error_fails_coherent(tmp_path, capsys, monkeypatch):
    # every block's phi_d off by one part in 1e7: <sigma_z> cannot see block
    # phases, so its line stays under its bound, but the whole state's
    # amplitude error does see them
    import susyjc.evolution as evolution

    sample = evolution.PhaseIntegrals.sample

    def skewed(self, t):
        angles, phi_d, phi_g = sample(self, t)
        return angles, phi_d * (1.0 + 1e-7), phi_g

    monkeypatch.setattr(evolution.PhaseIntegrals, "sample", skewed)
    cfg = write(tmp_path, BASE + "\n[coherent]\nxi = 0.5\n", "c.ini")
    code = main(["coherent", "--config", cfg, "--out", str(tmp_path / "c")])
    out = capsys.readouterr().out
    assert code == 1
    inversion = re.search(r"^max \|sigma_z exact - oracle\|: (\S+) \(bound 1e-06\)$", out, re.M)
    amplitude = re.search(r"^max oracle amplitude error: (\S+) \(bound 1e-08\)$", out, re.M)
    assert float(inversion[1]) < 1e-6
    assert float(amplitude[1]) > 1e-8


def test_coherent_amplitude_error_is_small_on_working_code(tmp_path, capsys):
    cfg = write(tmp_path, BASE + "\n[coherent]\nxi = 1.0\n", "c.ini")
    assert main(["coherent", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    out = capsys.readouterr().out
    amplitude = re.search(r"^max oracle amplitude error: (\S+) \(bound 1e-08\)$", out, re.M)
    assert float(amplitude[1]) <= 1e-9


NEAR_SOUTH_POLE = """\
[space]
k = 3
cutoff = 16
m = 0

[profiles]
omega.kind = linear
omega.intercept = 1.0
omega.slope = -0.0424
omega0.kind = linear
omega0.intercept = 4.8516
omega0.slope = -0.1416
g_mod.kind = chirp
g_mod.offset = 0.1457
g_mod.amplitude = 0.01526
g_mod.frequency = 0.7239
g_mod.sweep = 0.07232
g_phase.kind = table
g_phase.times = 0.0, 0.9352, 1.8705, 2.8057, 3.741
g_phase.values = 1.2209, -0.9151, 0.5067, 1.2115, 1.5529

[aux]
theta0 = 2.8295

[run]
t_final = 3.741
"""


# ROADMAP item 6's constant-drive reproduction: the worst of 300 random
# constant drives checked against the closed form, rounded to 4 digits
NEAR_SOUTH_POLE_CONSTANT = """\
[space]
k = 3
cutoff = 16
m = 5

[profiles]
omega.kind = constant
omega.value = 1.1546
omega0.kind = constant
omega0.value = 4.6986
g_mod.kind = constant
g_mod.value = 0.294
g_phase.kind = constant
g_phase.value = -2.1004

[aux]
theta0 = 1.1677
phi0 = 0.7157

[run]
t_final = 4.6761
"""


@pytest.mark.parametrize(
    "config",
    [
        pytest.param(NEAR_SOUTH_POLE, id="driven"),
        pytest.param(NEAR_SOUTH_POLE_CONSTANT, id="constant"),
    ],
)
def test_a_trajectory_near_the_south_pole_agrees_with_the_oracle(tmp_path, capsys, config):
    # each passes near the paper gauge's pole of G' at theta = pi (within
    # 0.0056, and within 1 + cos theta <= 6.2e-4): G comes from each step's
    # rotation, not from integrating G' through the pole, and agrees with the
    # oracle (amplitude errors 1.8e-10 and 2.3e-10)
    from susyjc.schrodinger import MAX_AMPLITUDE_ERROR

    path = write(tmp_path, config)
    code = main(["propagate", "--config", path, "--out", str(tmp_path / "o")])
    out = capsys.readouterr().out
    amplitude = re.search(r"^max oracle amplitude error: (\S+) \(bound 1e-08\)$", out, re.M)
    assert float(amplitude[1]) < MAX_AMPLITUDE_ERROR
    assert code == 0


def test_csv_writer_formats_every_value_as_before(tmp_path):
    # one printf-style row template over .tolist() columns writes the bytes
    # that str.format wrote for each value on its own: ints (berry's sigma),
    # signed zeros, nan, the infinities and the extremes of the floats included
    from susyjc.cli import CsvWriter

    values = [0.0, -0.0, 1, -1, 1e-300, 123456789.123456789, -2.5e17, math.pi, 1 / 3]
    values += [math.nan, math.inf, -math.inf, 5e-324, 1.8e308, -1.8e308]
    columns = [np.array(values), np.array(values[::-1]) * 1e-7, values]
    path = tmp_path / "x.csv"
    CsvWriter(path, ["a", "b", "c"], 12).write(columns)
    want = "a,b,c\n" + "".join(
        ",".join("{:.12g}".format(float(v)) for v in row) + "\n" for row in zip(*columns)
    )
    assert path.read_bytes() == want.encode()


# a non-default value for every setting read from its own key, each unlike the others
SETTINGS = {
    ("aux", "adiabatic_matched"): ("true", True),
    ("aux", "theta0"): ("0.5", 0.5),
    ("aux", "phi0"): ("0.25", 0.25),
    ("aux", "rtol"): ("2e-9", 2e-9),
    ("aux", "atol"): ("2e-11", 2e-11),
    ("run", "t_final"): ("4.0", 4.0),
    ("run", "samples"): ("11", 11),
    ("run", "sigma"): ("-1, 1", [-1, 1]),
    ("oracle", "enabled"): ("false", False),
    ("oracle", "rtol"): ("3e-9", 3e-9),
    ("oracle", "atol"): ("3e-11", 3e-11),
    ("oracle", "max_infidelity"): ("1e-5", 1e-5),
    ("output", "directory"): ("elsewhere", "elsewhere"),
    ("output", "precision"): ("9", 9),
    ("verify", "tol"): ("1e-10", 1e-10),
    ("berry", "thetas"): ("0.75, 1.25", [0.75, 1.25]),
    ("berry", "sigma"): ("-1", [-1]),
    ("berry", "m"): ("2", 2),
    ("berry", "g_mod"): ("0.1", 0.1),
    ("berry", "omega"): ("2.0", 2.0),
    ("berry", "tol"): ("1e-4", 1e-4),
    ("coherent", "xi"): ("0.5", 0.5),
    ("coherent", "sigma"): ("-1", -1),
    ("coherent", "max_diff"): ("1e-5", 1e-5),
}


def with_key(tmp_path, section, key, raw, text=BASE):
    cp = configparser.ConfigParser(interpolation=None)
    cp.read_string(text)
    if not cp.has_section(section):
        cp.add_section(section)
    cp.set(section, key, raw)
    text = io.StringIO()
    cp.write(text)
    return write(tmp_path, text.getvalue())


def test_every_keyed_setting_loads_from_its_key(tmp_path):
    keyed = {f.metadata["key"][:2]: f for f in fields(ScenarioConfig) if f.metadata}
    assert set(keyed) == set(SETTINGS)
    for (section, key), (raw, value) in SETTINGS.items():
        # a matched start replaces theta0: the two together are exit 2
        text = BASE.replace(THETA0 + "\n", "") if key == "adiabatic_matched" else BASE
        base = load_config(write(tmp_path, text))
        name = keyed[section, key].name
        assert value != keyed[section, key].metadata["key"][3], name
        cfg = load_config(with_key(tmp_path, section, key, raw, text))
        assert getattr(cfg, name) == value, name
        # and no other setting moves, nor is a list default shared between configs
        others = [f.name for f in keyed.values() if f.name != name]
        assert [getattr(cfg, n) for n in others] == [getattr(base, n) for n in others], name
        assert not any(getattr(cfg, n) is getattr(base, n) for n in others if type(getattr(base, n)) is list)
        # a key no field reads is still rejected, in every section
        with pytest.raises(ConfigurationError, match=re.escape(f"{section}.{key}x")):
            load_config(with_key(tmp_path, section, f"{key}x", raw, text))


@pytest.mark.parametrize(
    "command,text,old,new",
    [
        pytest.param("verify-algebra", BASE, "[oracle]", "[verify]\ntol = 1e-20\n\n[oracle]", id="verify"),
        pytest.param("propagate", BASE, "max_infidelity = 1e-6", "max_infidelity = 1e-20", id="propagate"),
        pytest.param("berry", BERRY, "tol = 1e-3", "tol = 1e-20", id="berry"),
        pytest.param(
            "coherent", BASE + "\n[coherent]\nxi = 0.5\n", "[coherent]", "[coherent]\nmax_diff = 1e-20",
            id="coherent",
        ),
    ],
)
def test_stdout_is_the_checks_and_a_failed_check_is_exit_1(
    tmp_path, capsys, monkeypatch, command, text, old, new
):
    # the checks print once the command returns, every line also when one
    # fails: here a bound below the measured value, the tolerance floor for
    # verify-algebra
    from susyjc import cli

    run, need_profiles, help_text = COMMANDS[command]
    returned = []

    def recording(cfg, out_dir):
        returned.append(run(cfg, out_dir))
        return returned[-1]

    monkeypatch.setitem(cli.COMMANDS, command, (recording, need_profiles, help_text))
    codes, lines = [], []
    for name, config in (("pass", text), ("fail", text.replace(old, new))):
        path = write(tmp_path, config, f"{name}.ini")
        codes.append(main([command, "--config", path, "--out", str(tmp_path / name)]))
        checks = returned[-1]
        assert all(isinstance(check, cli.Check) for check in checks)
        assert capsys.readouterr().out == "".join(check.line + "\n" for check in checks)
        assert codes[-1] == (0 if all(check.passed for check in checks) else 1)
        lines.append([check.line.split(":")[0] for check in checks])
    assert codes == [0, 1]
    if command != "verify-algebra":  # whose first failing identity ends the list
        assert lines[0] == lines[1]


def test_only_main_prints_to_stdout():
    # the commands return their checks; only main prints them
    from susyjc import cli

    tree = ast.parse(Path(cli.__file__).read_text())
    prints = [
        (getattr(top, "name", None), call.lineno)
        for top in tree.body
        for call in ast.walk(top)
        if isinstance(call, ast.Call)
        and isinstance(call.func, ast.Name)
        and call.func.id == "print"
        and not any(keyword.arg == "file" for keyword in call.keywords)
    ]
    assert prints and all(name == "main" for name, _ in prints), prints
