import math
import re
from pathlib import Path

import numpy as np
import pytest

from susyjc.cli import main

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
    assert sum(line.startswith("max ") for line in lines) == 2  # the two bound lines only


def test_propagate_builds_one_phase_integrals_per_block(tmp_path, monkeypatch):
    from susyjc.evolution import PhaseIntegrals

    built = []
    original = PhaseIntegrals.__init__

    def counting(self, trajectory, block):
        built.append(block.m)
        original(self, trajectory, block)

    monkeypatch.setattr(PhaseIntegrals, "__init__", counting)
    cfg = BASE.replace("m = 0", "m = 0, 1").replace("enabled = true", "enabled = false")
    assert main(["propagate", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")]) == 0
    assert built == [0, 1]


def test_solution_layer_is_sampled_once_per_run_not_per_time(tmp_path, monkeypatch):
    # the exact states are sampled on the whole time grid in one call:
    # one state_at per (m, sigma) in propagate, one superposition per coherent run
    from susyjc import cli
    from susyjc.coherent import CoherentSpec
    from susyjc.evolution import ExactSolution

    calls = {"state_at": [], "coherent": 0}
    state_at = ExactSolution.state_at
    build = cli.build_coherent_state

    def counting_state_at(self, t):
        calls["state_at"].append((self.block.m, self.sigma))
        return state_at(self, t)

    def counting_build(*args):
        calls["coherent"] += 1
        return build(*args)

    monkeypatch.setattr(ExactSolution, "state_at", counting_state_at)
    monkeypatch.setattr(cli, "build_coherent_state", counting_build)
    cfg = write(tmp_path, BASE.replace("m = 0", "m = 0, 1"))
    assert main(["propagate", "--config", cfg, "--out", str(tmp_path / "p")]) == 0
    assert calls["state_at"] == [(0, 1), (0, -1), (1, 1), (1, -1)]

    calls["state_at"].clear()
    cfg = write(tmp_path, BASE + "\n[coherent]\nxi = 0.5\n", "c.ini")
    assert main(["coherent", "--config", cfg, "--out", str(tmp_path / "c")]) == 0
    assert calls["coherent"] == 1
    m_max = CoherentSpec.for_xi(0.5).m_max
    assert sorted(calls["state_at"]) == [(m, 1) for m in range(m_max + 1)]


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


def test_berry_pole_row_is_zero(tmp_path):
    cfg = BERRY.replace(
        "thetas = 1.0471975511965976, 1.5707963267948966",
        "thetas = 0.0, 1.0471975511965976",
    )
    out = tmp_path / "b0"
    assert main(["berry", "--config", write(tmp_path, cfg), "--out", str(out)]) == 0
    numeric = read_column(out / "berry_sweep.csv", "phase_numeric")
    assert numeric[0] == 0.0 and numeric[1] == 0.0  # theta = 0, both sigma


def test_berry_cycle_closure_failure(tmp_path, capsys):
    cfg = BERRY + "t_final = 5.0\n"
    code = main(["berry", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 1
    assert "cycle" in capsys.readouterr().err


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


def test_coherent_truncation_exit_2(tmp_path, capsys):
    cfg = (BASE + "\n[coherent]\nxi = 2.0\n").replace("cutoff = 32", "cutoff = 16")
    code = main(["coherent", "--config", write(tmp_path, cfg), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "too small" in capsys.readouterr().err


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
    ],
)
def test_theta0_range_validated_before_computation(tmp_path, capsys, old, new, key):
    cfg = BASE.replace(old, new)
    out = tmp_path / "o"
    code = main(["propagate", "--config", write(tmp_path, cfg), "--out", str(out)])
    assert code == 2
    assert key in capsys.readouterr().err
    assert not out.exists()  # rejected at load time, before any output


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