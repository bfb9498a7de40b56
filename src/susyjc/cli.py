"""Batch front end: INI scenario configs in, CSV artifacts and reports out.

Exit codes: 0 all checks passed, 1 verification failure, 2 usage/config
error.  Output is deterministic: fixed significant-digit formatting, no
timestamps, identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .adiabatic import berry_phase_cycle, berry_phase_numeric, build_adiabatic_scenario
from .auxiliary import AuxState, adiabatic_matched_theta, residual_series, solve_aux
from .blocks import SubspaceBlock, block_components, verify_block_closure
from .coherent import CoherentSpec, atomic_inversion, build_coherent_state, solve_block_family
from .errors import (
    ConfigurationError,
    CycleError,
    EvaluationError,
    SingularityError,
    SusyJCError,
    TruncationError,
    VerificationError,
)
from .evolution import ExactSolution, PhaseIntegrals
from .fock import FockSpaceSpec, build_generators, build_hamiltonian, verify_algebra
from .profiles import ModelParams, TimeProfile
from .schrodinger import MAX_NORM_DRIFT, propagate

ENV_OUTPUT_DIR = "SUSYJC_OUT"

_REQUIRED = object()


def _get(cp, section: str, key: str, cast, default=_REQUIRED):
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigurationError(f"missing required key {section}.{key}")
        return default
    raw = cp.get(section, key)
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(f"bad value for {section}.{key}: {raw!r} ({exc})") from exc


def _bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _float_list(raw: str) -> list[float]:
    return [float(tok) for tok in raw.split(",") if tok.strip()]


def _int_list(raw: str) -> list[int]:
    return [int(tok) for tok in raw.split(",") if tok.strip()]


def _profile(cp, name: str) -> TimeProfile:
    section = "profiles"
    kind = _get(cp, section, f"{name}.kind", str).strip()
    key = f"{section}.{name}"
    if kind == "constant":
        return TimeProfile.constant(_get(cp, section, f"{name}.value", float))
    if kind == "linear":
        return TimeProfile.linear(
            _get(cp, section, f"{name}.intercept", float),
            _get(cp, section, f"{name}.slope", float),
        )
    if kind == "sinusoid":
        return TimeProfile.sinusoid(
            _get(cp, section, f"{name}.offset", float),
            _get(cp, section, f"{name}.amplitude", float),
            _get(cp, section, f"{name}.frequency", float),
            _get(cp, section, f"{name}.phase", float, 0.0),
        )
    if kind == "chirp":
        return TimeProfile.chirp(
            _get(cp, section, f"{name}.offset", float),
            _get(cp, section, f"{name}.amplitude", float),
            _get(cp, section, f"{name}.frequency", float),
            _get(cp, section, f"{name}.sweep", float),
            _get(cp, section, f"{name}.phase", float, 0.0),
        )
    if kind == "table":
        try:
            return TimeProfile.table(
                _get(cp, section, f"{name}.times", _float_list),
                _get(cp, section, f"{name}.values", _float_list),
            )
        except ConfigurationError as exc:
            raise ConfigurationError(f"{key}: {exc}") from exc
    raise ConfigurationError(f"{key}.kind: unknown profile kind {kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    spec: FockSpaceSpec
    m_list: list[int]
    params: ModelParams
    theta0: float | None
    phi0: float
    adiabatic_matched: bool
    aux_rtol: float
    aux_atol: float
    t_final: float
    samples: int
    sigmas: list[int]
    oracle_enabled: bool
    oracle_rtol: float
    oracle_atol: float
    max_infidelity: float
    out_dir: str | None
    precision: int


def load_config(path: str, need_profiles: bool = True) -> tuple[configparser.ConfigParser, ScenarioConfig]:
    cp = configparser.ConfigParser()
    read = cp.read(path)
    if not read:
        raise ConfigurationError(f"config file not found: {path}")

    k = _get(cp, "space", "k", int, 3)
    cutoff = _get(cp, "space", "cutoff", int)
    guard = _get(cp, "space", "guard", int, k)
    spec = FockSpaceSpec(cutoff=cutoff, k=k, guard=guard)
    m_list = _get(cp, "space", "m", _int_list, [0])
    for m in m_list:
        SubspaceBlock.for_space(spec, m)  # validated before any computation

    params = None
    if need_profiles:
        params = ModelParams(
            omega=_profile(cp, "omega"),
            omega0=_profile(cp, "omega0"),
            g_mod=_profile(cp, "g_mod"),
            g_phase=_profile(cp, "g_phase"),
            k=k,
        )

    adiabatic_matched = _get(cp, "aux", "adiabatic_matched", _bool, False)
    theta0 = _get(cp, "aux", "theta0", float, None)

    cfg = ScenarioConfig(
        spec=spec,
        m_list=m_list,
        params=params,
        theta0=theta0,
        phi0=_get(cp, "aux", "phi0", float, 0.0),
        adiabatic_matched=adiabatic_matched,
        aux_rtol=_get(cp, "aux", "rtol", float, 1e-10),
        aux_atol=_get(cp, "aux", "atol", float, 1e-12),
        t_final=_get(cp, "run", "t_final", float, 20.0),
        samples=_get(cp, "run", "samples", int, 201),
        sigmas=_get(cp, "run", "sigma", _int_list, [1, -1]),
        oracle_enabled=_get(cp, "oracle", "enabled", _bool, True),
        oracle_rtol=_get(cp, "oracle", "rtol", float, 1e-10),
        oracle_atol=_get(cp, "oracle", "atol", float, 1e-12),
        max_infidelity=_get(cp, "oracle", "max_infidelity", float, 1e-6),
        out_dir=_get(cp, "output", "directory", str, None),
        precision=_get(cp, "output", "precision", int, 12),
    )
    for sigma in cfg.sigmas:
        if sigma not in (1, -1):
            raise ConfigurationError(f"run.sigma entries must be +1 or -1, got {sigma}")
    # one sample is t = 0 alone, where exact and oracle agree by construction
    if cfg.samples < 2:
        raise ConfigurationError(f"run.samples must be at least 2, got {cfg.samples}")
    if cfg.precision < 1:
        raise ConfigurationError(f"output.precision must be at least 1, got {cfg.precision}")
    if theta0 is not None and not 0.0 <= theta0 <= math.pi:
        raise ConfigurationError(f"aux.theta0 must lie in [0, pi], got {theta0}")
    if need_profiles:
        # profiles must be evaluable on the run window before any computation
        probe = np.linspace(0.0, cfg.t_final, 7)
        try:
            cfg.params.evaluate(probe)
        except (EvaluationError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"profiles not evaluable on [0, {cfg.t_final}]: {exc}"
            ) from exc
    return cp, cfg


def resolve_out_dir(flag_value: str | None, cfg_value: str | None) -> Path:
    chosen = flag_value or cfg_value or os.environ.get(ENV_OUTPUT_DIR) or "out"
    path = Path(chosen)
    path.mkdir(parents=True, exist_ok=True)
    return path


class CsvWriter:
    def __init__(self, path: Path, header: list[str], precision: int):
        self.path = path
        self.header = header
        self.fmt = f"{{:.{precision}g}}"
        self.rows: list[str] = []

    def add(self, *values):
        self.rows.append(",".join(self.fmt.format(float(v)) for v in values))

    def write(self):
        with open(self.path, "w") as fh:
            fh.write(",".join(self.header) + "\n")
            fh.write("\n".join(self.rows))
            if self.rows:
                fh.write("\n")


def _initial_state(cfg: ScenarioConfig, lam: int) -> AuxState:
    if cfg.adiabatic_matched:
        theta0 = adiabatic_matched_theta(cfg.params, lam)
    else:
        if cfg.theta0 is None:
            raise ConfigurationError(
                "missing required key aux.theta0 (or set aux.adiabatic_matched)"
            )
        theta0 = cfg.theta0
    return AuxState(theta0, cfg.phi0)


def cmd_verify_algebra(cfg: ScenarioConfig, cp, out_dir: Path) -> int:
    tol = _get(cp, "verify", "tol", float, 1e-12)
    failures = []
    try:
        report = verify_algebra(cfg.spec, tol=tol)
        for name, residual in report.items():
            print(f"PASS  {name}: {residual:.3e}")
    except VerificationError as exc:
        print(f"FAIL  {exc}")
        failures.append("superalgebra")

    hams = [build_hamiltonian(cfg.spec, cfg.params, t) for t in np.linspace(0, cfg.t_final, 5)]
    gen = build_generators(cfg.spec)
    for m in cfg.m_list:
        block = SubspaceBlock.for_space(cfg.spec, m)
        try:
            residual = verify_block_closure(block, hams, tol=tol, generators=gen)
            print(f"PASS  block m={m} closure/quasialgebra: {residual:.3e}")
        except VerificationError as exc:
            print(f"FAIL  {exc}")
            failures.append(f"block m={m}")
    return 1 if failures else 0


def _print_oracle_drift(drifts) -> None:
    """The largest (norm, N') drifts over the oracle runs; not a bound line."""
    norm = max(d[0] for d in drifts)
    nprime = max(d[1] for d in drifts)
    print(f"oracle drift: norm {norm:.3g} (bound {MAX_NORM_DRIFT:g}), N' {nprime:.3g}")


def cmd_propagate(cfg: ScenarioConfig, cp, out_dir: Path) -> int:
    ts = np.linspace(0.0, cfg.t_final, cfg.samples)
    worst_infidelity = 0.0
    oracle_drifts = []

    blocks = [SubspaceBlock.for_space(cfg.spec, m) for m in cfg.m_list]
    trajs = [
        solve_aux(
            _initial_state(cfg, block.lam),
            (0.0, cfg.t_final),
            cfg.params,
            block.lam,
            rtol=cfg.aux_rtol,
            atol=cfg.aux_atol,
        )
        for block in blocks
    ]

    for block, traj, m in zip(blocks, trajs, cfg.m_list):
        dense_residuals = residual_series(traj, cfg.params, block.lam)
        residuals = np.interp(ts, traj.times, dense_residuals)
        angles = traj.state_at(ts)

        w = CsvWriter(out_dir / f"trajectory_m{m}.csv", ["t", "theta", "phi", "residual"], cfg.precision)
        for row in zip(ts, angles.theta, angles.phi, residuals):
            w.add(*row)
        w.write()

        phases = PhaseIntegrals(traj, block)
        w = CsvWriter(
            out_dir / f"phases_m{m}.csv",
            ["t", "phi_d_plus", "phi_g_plus", "phi_d_minus", "phi_g_minus"],
            cfg.precision,
        )
        plus, minus = phases.ledger(+1, ts), phases.ledger(-1, ts)
        for row in zip(ts, plus.phi_d, plus.phi_g, minus.phi_d, minus.phi_g):
            w.add(*row)
        w.write()

        for sigma in cfg.sigmas:
            psis = ExactSolution(block, sigma, traj, phases).state_at(ts)
            comps = block_components(block, psis)
            columns = [ts, comps[:, 0].real, comps[:, 0].imag, comps[:, 1].real, comps[:, 1].imag]
            columns.append(np.abs(np.linalg.norm(psis, axis=1) - 1.0))
            tag = "plus" if sigma > 0 else "minus"
            header = ["t", "re_upper", "im_upper", "re_lower", "im_lower", "norm_error"]
            if cfg.oracle_enabled:
                header += ["oracle_infidelity", "oracle_norm_error", "block_population"]
                oracle = propagate(
                    psis[0],
                    (0.0, cfg.t_final),
                    cfg.params,
                    cfg.spec,
                    rtol=cfg.oracle_rtol,
                    atol=cfg.oracle_atol,
                    t_eval=ts,
                )
                oracle_drifts.append((oracle.norm_drift, oracle.nprime_drift))
                ref_norms = np.linalg.norm(oracle.states, axis=1)
                infid = 1.0 - np.abs(np.sum(psis.conj() * oracle.states, axis=1)) / ref_norms
                worst_infidelity = max(worst_infidelity, float(np.max(infid)))
                pops = np.sum(np.abs(block_components(block, oracle.states)) ** 2, axis=1)
                columns += [infid, np.abs(ref_norms - 1.0), pops]
            w = CsvWriter(out_dir / f"fidelity_m{m}_sigma_{tag}.csv", header, cfg.precision)
            for row in zip(*columns):
                w.add(*row)
            w.write()

    if cfg.oracle_enabled:
        print(f"max oracle infidelity: {worst_infidelity:.3e} (bound {cfg.max_infidelity:g})")
        if oracle_drifts:
            _print_oracle_drift(oracle_drifts)
        return 0 if worst_infidelity < cfg.max_infidelity else 1
    print("oracle disabled; trajectory certification only")
    return 0


def cmd_berry(cfg: ScenarioConfig, cp, out_dir: Path) -> int:
    thetas = _get(
        cp,
        "berry",
        "thetas",
        _float_list,
        [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3],
    )
    sigmas = _get(cp, "berry", "sigma", _int_list, [1, -1])
    m = _get(cp, "berry", "m", int, 0)
    g_mod = _get(cp, "berry", "g_mod", float, 0.05)
    omega = _get(cp, "berry", "omega", float, 1.0)
    t_final = _get(cp, "berry", "t_final", float, None)
    tol = _get(cp, "berry", "tol", float, 1e-3)

    def sweep_point(theta):
        rows = []
        # at the poles the solid angle is degenerate and no azimuth dynamics
        # exists; the cycle phase is the formula value exactly
        degenerate = abs(math.sin(theta)) < 1e-12
        scenario = None
        if not degenerate:
            scenario = build_adiabatic_scenario(
                theta, TimeProfile.constant(omega), m=m, k=cfg.spec.k, g_mod=g_mod
            )
        for sigma in sigmas:
            formula = berry_phase_cycle(theta, sigma)
            if degenerate:
                numeric = formula
            else:
                numeric = berry_phase_numeric(scenario, sigma, t_final=t_final, rtol=cfg.aux_rtol)
            rows.append((theta, sigma, numeric, formula, abs(numeric - formula)))
        return rows

    w = CsvWriter(
        out_dir / "berry_sweep.csv",
        ["theta", "sigma", "phase_numeric", "phase_formula", "abs_error"],
        cfg.precision,
    )
    worst = 0.0
    for theta in thetas:
        for row in sweep_point(theta):
            w.add(*row)
            worst = max(worst, row[-1])
    w.write()
    print(f"max |numeric - formula|: {worst:.3e} (bound {tol:g})")
    return 0 if worst < tol else 1


def cmd_coherent(cfg: ScenarioConfig, cp, out_dir: Path) -> int:
    xi = _get(cp, "coherent", "xi", float)
    sigma = _get(cp, "coherent", "sigma", int, 1)
    max_diff = _get(cp, "coherent", "max_diff", float, 1e-6)

    cspec = CoherentSpec.for_xi(xi, sigma=sigma)
    lam0 = SubspaceBlock.for_space(cfg.spec, 0).lam
    initial = _initial_state(cfg, lam0)
    solutions = solve_block_family(
        cspec,
        cfg.spec,
        cfg.params,
        (0.0, cfg.t_final),
        initial,
        rtol=cfg.aux_rtol,
        atol=cfg.aux_atol,
    )
    ts = np.linspace(0.0, cfg.t_final, cfg.samples)
    exact_vecs = build_coherent_state(cspec, ts, solutions)
    oracle = propagate(
        exact_vecs[0] / np.linalg.norm(exact_vecs[0]),
        (0.0, cfg.t_final),
        cfg.params,
        cfg.spec,
        rtol=cfg.oracle_rtol,
        atol=cfg.oracle_atol,
        t_eval=ts,
    )

    w = CsvWriter(
        out_dir / "inversion.csv",
        ["t", "sigma_z_exact", "sigma_z_oracle", "abs_diff"],
        cfg.precision,
    )
    exact = atomic_inversion(exact_vecs / np.linalg.norm(exact_vecs, axis=1, keepdims=True))
    ref = atomic_inversion(oracle.states / np.linalg.norm(oracle.states, axis=1, keepdims=True))
    diff = np.abs(exact - ref)
    worst = float(np.max(diff))
    for row in zip(ts, exact, ref, diff):
        w.add(*row)
    w.write()
    print(f"max |sigma_z exact - oracle|: {worst:.3e} (bound {max_diff:g})")
    _print_oracle_drift([(oracle.norm_drift, oracle.nprime_drift)])
    return 0 if worst < max_diff else 1


COMMANDS = {
    "verify-algebra": (cmd_verify_algebra, True),
    "propagate": (cmd_propagate, True),
    "berry": (cmd_berry, False),
    "coherent": (cmd_coherent, True),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="susyjc",
        description="k-photon supersymmetric Jaynes-Cummings laboratory: "
        "verify the operator algebra, propagate exact solutions against a "
        "brute-force integrator, sweep Berry phases, build coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("verify-algebra", "check the generator identities and block closure"),
        ("propagate", "solve the angle ODEs and cross-validate exact solutions"),
        ("berry", "sweep closed-cycle geometric phases against the solid-angle law"),
        ("coherent", "compare coherent-state atomic inversion with the integrator"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI scenario file")
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUTPUT_DIR} or ./out)")

    args = parser.parse_args(argv)
    command, need_profiles = COMMANDS[args.command]
    try:
        cp, cfg = load_config(args.config, need_profiles=need_profiles)
        out_dir = resolve_out_dir(args.out, cfg.out_dir)
        return command(cfg, cp, out_dir)
    except (ConfigurationError, TruncationError, EvaluationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        when = "" if exc.time is None else f" at t={exc.time:.6g}"
        print(f"verification failure{when}: {exc}", file=sys.stderr)
        return 1
    except (VerificationError, CycleError, SusyJCError) as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
