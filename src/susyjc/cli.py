"""Batch front end: INI scenario configs in, CSV artifacts and reports out.

Each setting is a :class:`ScenarioConfig` field that names its key, cast and
default; :func:`load_config` reads them all and rejects any key left unread.
Each ``cmd_*`` writes its CSVs and returns its checks, and :func:`main`
prints their lines once the command has returned.  Exit codes: 0 all checks
passed, 1 a check failed or a verification error was raised, 2 usage/config
error.  Output is deterministic: fixed significant-digit formatting, no
timestamps, identical configs produce byte-identical files.
"""

from __future__ import annotations

import argparse
import configparser
import copy
import inspect
import math
import os
import sys
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .adiabatic import berry_phase_cycle, berry_phase_numeric, build_adiabatic_scenario
from .auxiliary import THETA_MIN, AuxState, _solve_family, adiabatic_matched_theta
from .blocks import SubspaceBlock, block_components, embed_state, verify_block_closure
from .coherent import CoherentSpec, atomic_inversion, build_coherent_state, solve_block_family
from .errors import (
    ConfigurationError,
    EvaluationError,
    PropagationError,
    SingularityError,
    SusyJCError,
    TruncationError,
    VerificationError,
)
from .evolution import PhaseIntegrals, _amplitudes, _branch
from .fock import FockSpaceSpec, build_generators, build_hamiltonian, verify_algebra
from .profiles import PROFILE_KINDS, ModelParams, TimeProfile
from .schrodinger import MAX_AMPLITUDE_ERROR, MAX_NORM_DRIFT, propagate

ENV_OUTPUT_DIR = "SUSYJC_OUT"

_REQUIRED = inspect.Parameter.empty  # a key without a default must be set


class _Scenario(configparser.ConfigParser):
    """An INI scenario that records every (section, key) looked up, set or not.

    Values are read literally: no scenario uses ``%`` interpolation.
    """

    def __init__(self):
        super().__init__(interpolation=None)
        self.seen: set[tuple[str, str]] = set()


def _get(cp: _Scenario, section: str, key: str, cast, default=_REQUIRED):
    cp.seen.add((section, key))
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


def _finite(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("expected a finite number")
    return value


def _positive(raw: str) -> float:
    value = _finite(raw)
    if not value > 0:
        raise ValueError("expected a number > 0")
    return value


def _nonnegative(raw: str) -> float:
    value = _finite(raw)
    if not value >= 0:
        raise ValueError("expected a number >= 0")
    return value


def _list(cast, raw: str) -> list:
    values = [cast(tok) for tok in raw.split(",") if tok.strip()]
    if not values:
        raise ValueError("expected at least one entry")
    return values


def _float_list(raw: str) -> list[float]:
    return _list(float, raw)


def _int_list(raw: str) -> list[int]:
    values = _list(int, raw)
    if len(set(values)) < len(values):
        raise ValueError("an entry is repeated")
    return values


def _profile(cp: _Scenario, name: str) -> TimeProfile:
    """The profile's keys, their order and defaults are its constructor's parameters."""
    key = f"profiles.{name}"
    kind = _get(cp, "profiles", f"{name}.kind", str).strip()
    if kind not in PROFILE_KINDS:
        raise ConfigurationError(f"{key}.kind: unknown profile kind {kind!r}")
    constructor = getattr(TimeProfile, kind)
    cast = _float_list if kind == "table" else float
    args = [
        _get(cp, "profiles", f"{name}.{p.name}", cast, p.default)
        for p in inspect.signature(constructor).parameters.values()
    ]
    try:
        return constructor(*args)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{key}: {exc}") from exc


def _key(section: str, key: str, cast, default=_REQUIRED):
    """A :class:`ScenarioConfig` field that :func:`load_config` reads from ``[section] key``."""
    return field(metadata={"key": (section, key, cast, default)})


@dataclass(frozen=True)
class ScenarioConfig:
    """A scenario's settings; :func:`load_config` reads the keyed ones in this order."""

    spec: FockSpaceSpec
    m_list: list[int]
    params: ModelParams
    adiabatic_matched: bool = _key("aux", "adiabatic_matched", _bool, False)
    theta0: float | None = _key("aux", "theta0", float, None)
    phi0: float = _key("aux", "phi0", _finite, 0.0)
    aux_rtol: float = _key("aux", "rtol", _positive, 1e-10)
    aux_atol: float = _key("aux", "atol", _positive, 1e-12)
    t_final: float = _key("run", "t_final", _positive, 20.0)
    samples: int = _key("run", "samples", int, 201)
    sigmas: list[int] = _key("run", "sigma", _int_list, [1, -1])
    oracle_enabled: bool = _key("oracle", "enabled", _bool, True)
    oracle_rtol: float = _key("oracle", "rtol", _positive, 1e-10)
    oracle_atol: float = _key("oracle", "atol", _positive, 1e-12)
    max_infidelity: float = _key("oracle", "max_infidelity", _positive, 1e-6)
    out_dir: str | None = _key("output", "directory", str, None)
    precision: int = _key("output", "precision", int, 12)
    verify_tol: float = _key("verify", "tol", _positive, 1e-12)
    berry_thetas: list[float] = _key(
        "berry", "thetas", _float_list, [math.pi / 6, math.pi / 3, math.pi / 2, 2 * math.pi / 3]
    )
    berry_sigmas: list[int] = _key("berry", "sigma", _int_list, [1, -1])
    berry_m: int = _key("berry", "m", int, 0)
    berry_g_mod: float = _key("berry", "g_mod", _nonnegative, 0.05)
    berry_omega: float = _key("berry", "omega", _positive, 1.0)
    berry_tol: float = _key("berry", "tol", _positive, 1e-3)
    coherent_xi: float | None = _key("coherent", "xi", _finite, None)
    coherent_sigma: int = _key("coherent", "sigma", int, 1)
    coherent_max_diff: float = _key("coherent", "max_diff", _positive, 1e-6)


def load_config(path: str, need_profiles: bool = True) -> ScenarioConfig:
    """Every key any command reads is read here; a key left unread is exit 2."""
    cp = _Scenario()
    try:
        if not cp.read(path):
            raise ConfigurationError(f"config file not found: {path}")
    except configparser.Error as exc:  # its message names the file and the line
        raise ConfigurationError(f"unreadable config: {exc}") from exc

    k = _get(cp, "space", "k", int, 3)
    # a command that reads no profiles (berry) reads only k of [space]: its
    # blocks carry their own cutoff, so without one its spec takes the smallest
    cutoff = _get(cp, "space", "cutoff", int, _REQUIRED if need_profiles else None)
    guard = _get(cp, "space", "guard", int, k)
    if cutoff is None:
        cutoff = 2 * k + guard + 1
    spec = FockSpaceSpec(cutoff=cutoff, k=k, guard=guard)
    m_list = _get(cp, "space", "m", _int_list, [0])
    for m in m_list:
        SubspaceBlock.for_space(spec, m)  # validated before any computation

    names = ("omega", "omega0", "g_mod", "g_phase")
    params = ModelParams(*(_profile(cp, n) for n in names), k=k) if need_profiles else None

    # each setting from its field's key, copied so that no two configs share a list default
    keyed = (f for f in fields(ScenarioConfig) if f.metadata)
    settings = {f.name: copy.copy(_get(cp, *f.metadata["key"])) for f in keyed}
    cfg = ScenarioConfig(spec, m_list, params, **settings)
    for section in cp.sections():
        for key in cp.options(section):
            if (section, key) not in cp.seen:
                raise ConfigurationError(f"{section}.{key}: this command does not read this key")
    sigmas = [("run.sigma", s) for s in cfg.sigmas] + [("berry.sigma", s) for s in cfg.berry_sigmas]
    for key, sigma in sigmas + [("coherent.sigma", cfg.coherent_sigma)]:
        if sigma not in (1, -1):
            raise ConfigurationError(f"{key} must be +1 or -1, got {sigma}")
    # the oracle rejects a state that reaches the guard band; say so before any solve
    top = spec.cutoff - spec.guard
    for m in m_list:
        if cfg.oracle_enabled and m + k >= top:
            raise ConfigurationError(
                f"space.m = {m} puts the block's ground level m + k = {m + k} in the oracle's "
                f"guard band (photon levels {top} and up); lower m or raise space.cutoff"
            )
    # one sample is t = 0 alone, where exact and oracle agree by construction
    if cfg.samples < 2:
        raise ConfigurationError(f"run.samples must be at least 2, got {cfg.samples}")
    if cfg.precision < 1:
        raise ConfigurationError(f"output.precision must be at least 1, got {cfg.precision}")
    if cfg.theta0 is not None and cfg.adiabatic_matched:
        raise ConfigurationError("aux.theta0 and aux.adiabatic_matched = true both set the start angle")
    if cfg.theta0 is not None and not 0.0 <= cfg.theta0 <= math.pi:
        raise ConfigurationError(f"aux.theta0 must lie in [0, pi], got {cfg.theta0}")
    for theta in cfg.berry_thetas:
        if not 0.0 <= theta <= math.pi:
            raise ConfigurationError(f"berry.thetas entries must lie in [0, pi], got {theta}")
    if need_profiles:
        # profiles must be evaluable on the run window before any computation
        probe = np.linspace(0.0, cfg.t_final, 7)
        try:
            cfg.params.evaluate(probe)
        except (EvaluationError, ConfigurationError) as exc:
            raise ConfigurationError(
                f"profiles not evaluable on [0, {cfg.t_final}]: {exc}"
            ) from exc
    return cfg


def resolve_out_dir(flag_value: str | None, cfg_value: str | None) -> Path:
    """The output directory; the first CSV written creates it, so a run
    rejected before any output leaves none behind."""
    return Path(flag_value or cfg_value or os.environ.get(ENV_OUTPUT_DIR) or "out")


class CsvWriter:
    def __init__(self, path: Path, header: list[str], precision: int):
        self.path = path
        self.header = header
        self.fmt = f"%.{precision}g"

    def write(self, columns):
        """One line per row of the equal-length ``columns``, after the header."""
        columns = [np.asarray(column, dtype=float).tolist() for column in columns]
        line = ",".join([self.fmt] * len(columns)) + "\n"
        rows = "".join([line % row for row in zip(*columns)])
        self.path.parent.mkdir(parents=True, exist_ok=True)
        with open(self.path, "w") as fh:
            fh.write(",".join(self.header) + "\n" + rows)


def _theta0(cfg: ScenarioConfig, lam: int) -> float:
    if cfg.adiabatic_matched:
        return adiabatic_matched_theta(cfg.params, lam)
    if cfg.theta0 is None:
        raise ConfigurationError("missing required key aux.theta0 (or set aux.adiabatic_matched)")
    return cfg.theta0


@dataclass(frozen=True)
class Check:
    """A line of a command's report and whether it passed; a line that only informs passes."""

    line: str
    passed: bool = True

    @classmethod
    def bound(cls, label: str, value: float, bound: float) -> Check:
        """The report's bound line, which passes while ``value < bound`` (not on NaN)."""
        return cls(f"max {label}: {value:.3e} (bound {bound:g})", value < bound)


def cmd_verify_algebra(cfg: ScenarioConfig, out_dir: Path) -> list[Check]:
    checks = []
    try:
        report = verify_algebra(cfg.spec, tol=cfg.verify_tol)
        checks += [Check(f"PASS  {name}: {residual:.3e}") for name, residual in report.items()]
    except VerificationError as exc:
        checks.append(Check(f"FAIL  {exc}", False))

    hams = [build_hamiltonian(cfg.spec, cfg.params, t) for t in np.linspace(0, cfg.t_final, 5)]
    gen = build_generators(cfg.spec)
    for m in cfg.m_list:
        block = SubspaceBlock.for_space(cfg.spec, m)
        try:
            residual = verify_block_closure(block, hams, tol=cfg.verify_tol, generators=gen)
            checks.append(Check(f"PASS  block m={m} closure/quasialgebra: {residual:.3e}"))
        except VerificationError as exc:
            checks.append(Check(f"FAIL  {exc}", False))
    return checks


def _oracle_checks(oracle, amplitude: float) -> list[Check]:
    """The oracle's worst (norm, N') drifts over its runs, which only inform,
    then the largest amplitude error of the exact states against it."""
    drift = f"norm {oracle.norm_drift:.3g} (bound {MAX_NORM_DRIFT:g}), N' {oracle.nprime_drift:.3g}"
    return [
        Check(f"oracle drift: {drift}"),
        Check.bound("oracle amplitude error", amplitude, MAX_AMPLITUDE_ERROR),
    ]


def _oracle(cfg: ScenarioConfig, initial: np.ndarray, ts: np.ndarray):
    """The brute-force integration of ``initial``, one state or a stack of
    them, over the run window at the ``[oracle]`` tolerances, sampled at ``ts``."""
    return propagate(
        initial, (0.0, cfg.t_final), cfg.params, cfg.spec,
        rtol=cfg.oracle_rtol, atol=cfg.oracle_atol, t_eval=ts
    )


def cmd_propagate(cfg: ScenarioConfig, out_dir: Path) -> list[Check]:
    ts = np.linspace(0.0, cfg.t_final, cfg.samples)

    blocks = [SubspaceBlock.for_space(cfg.spec, m) for m in cfg.m_list]
    lams = [block.lam for block in blocks]
    initial = AuxState(np.array([_theta0(cfg, lam) for lam in lams]), cfg.phi0)
    # one angle solve for every block, sampled once for every CSV below
    params = [cfg.params] * len(lams)
    trajs = _solve_family(
        initial, (0.0, cfg.t_final), params, lams, rtol=cfg.aux_rtol, atol=cfg.aux_atol
    )
    sample = PhaseIntegrals(trajs, blocks).sample(ts)
    angles, phi_d, phi_g = sample
    amplitudes = _amplitudes(sample)  # (n_t, M, 2, 2)

    runs = []  # (block, sigma, the block's exact amplitudes on ts), one per oracle column
    for j, (block, traj, m) in enumerate(zip(blocks, trajs, cfg.m_list)):
        residuals = np.interp(ts, traj.times, traj.residuals)
        w = CsvWriter(out_dir / f"trajectory_m{m}.csv", ["t", "theta", "phi", "residual"], cfg.precision)
        w.write([ts, angles.theta[:, j], angles.phi[:, j], residuals])
        w = CsvWriter(
            out_dir / f"phases_m{m}.csv",
            ["t", "phi_d_plus", "phi_g_plus", "phi_d_minus", "phi_g_minus"],
            cfg.precision,
        )
        w.write([ts, phi_d[:, j, 0], phi_g[:, j, 0], phi_d[:, j, 1], phi_g[:, j, 1]])
        runs += [(block, sigma, amplitudes[:, j, :, _branch(sigma)]) for sigma in cfg.sigmas]

    if cfg.oracle_enabled:
        # every (block, sigma) run is one column of one oracle integration
        initial = np.array([embed_state(block, amps[0]) for block, _, amps in runs])
        try:
            oracle = _oracle(cfg, initial, ts)
        except PropagationError as exc:
            if exc.column is None:
                raise
            block, sigma, _ = runs[exc.column]
            raise PropagationError(f"{exc} (m = {block.m}, sigma = {sigma:+d})", exc.column) from exc
    worst_infidelity = worst_amplitude = 0.0

    for i, (block, sigma, amps) in enumerate(runs):
        psis = embed_state(block, amps)
        columns = [ts, amps[:, 0].real, amps[:, 0].imag, amps[:, 1].real, amps[:, 1].imag]
        columns.append(np.abs(np.linalg.norm(psis, axis=1) - 1.0))
        tag = "plus" if sigma > 0 else "minus"
        header = ["t", "re_upper", "im_upper", "re_lower", "im_lower", "norm_error"]
        if cfg.oracle_enabled:
            header += ["oracle_infidelity", "oracle_norm_error", "block_population"]
            states = oracle.states[i]
            ref_norms = np.linalg.norm(states, axis=1)
            infid = 1.0 - np.abs(np.sum(psis.conj() * states, axis=1)) / ref_norms
            worst_infidelity = max(worst_infidelity, float(np.max(infid)))
            # phase-sensitive, unlike the infidelity
            error = float(np.max(np.linalg.norm(psis - states, axis=1)))
            worst_amplitude = max(worst_amplitude, error)
            pops = np.sum(np.abs(block_components(block, states)) ** 2, axis=1)
            columns += [infid, np.abs(ref_norms - 1.0), pops]
        CsvWriter(out_dir / f"fidelity_m{block.m}_sigma_{tag}.csv", header, cfg.precision).write(columns)

    if not cfg.oracle_enabled:
        return [Check("oracle disabled; trajectory certification only")]
    infidelity = Check.bound("oracle infidelity", worst_infidelity, cfg.max_infidelity)
    return [infidelity, *_oracle_checks(oracle, worst_amplitude)]


def cmd_berry(cfg: ScenarioConfig, out_dir: Path) -> list[Check]:
    # at a pole (|sin theta| < THETA_MIN, where every solve stops) no azimuth
    # dynamics exists; the cycle phase is the formula value exactly
    live = [theta for theta in cfg.berry_thetas if abs(math.sin(theta)) >= THETA_MIN]
    omega = TimeProfile.constant(cfg.berry_omega)
    scenarios = [
        build_adiabatic_scenario(theta, omega, m=cfg.berry_m, k=cfg.spec.k, g_mod=cfg.berry_g_mod)
        for theta in live
    ]
    # one solve for every theta, over one period 2 pi / omega: the trajectory
    # does not depend on sigma and the phase is odd in it, so sigma * (the +1
    # phase) is bit-exact
    phases = berry_phase_numeric(scenarios, +1, rtol=cfg.aux_rtol, atol=cfg.aux_atol)
    plus = dict(zip(live, phases))
    rows = []
    for theta in cfg.berry_thetas:
        for sigma in cfg.berry_sigmas:
            formula = berry_phase_cycle(theta, sigma)
            numeric = sigma * plus[theta] if theta in plus else formula
            rows.append((theta, sigma, numeric, formula, abs(numeric - formula)))
    CsvWriter(
        out_dir / "berry_sweep.csv",
        ["theta", "sigma", "phase_numeric", "phase_formula", "abs_error"],
        cfg.precision,
    ).write(zip(*rows))
    worst = max((row[-1] for row in rows), default=0.0)
    return [Check.bound("|numeric - formula|", worst, cfg.berry_tol)]


def cmd_coherent(cfg: ScenarioConfig, out_dir: Path) -> list[Check]:
    if cfg.coherent_xi is None:
        raise ConfigurationError("missing required key coherent.xi")
    if not cfg.oracle_enabled:
        raise ConfigurationError("oracle.enabled = false: coherent checks its state against the oracle")
    cspec = CoherentSpec.for_xi(cfg.coherent_xi, sigma=cfg.coherent_sigma)
    lam0 = SubspaceBlock.for_space(cfg.spec, 0).lam
    initial = AuxState(_theta0(cfg, lam0), cfg.phi0)
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
    oracle = _oracle(cfg, exact_vecs[0] / np.linalg.norm(exact_vecs[0]), ts)

    normalized = exact_vecs / np.linalg.norm(exact_vecs, axis=1, keepdims=True)
    exact = atomic_inversion(normalized)
    ref = atomic_inversion(oracle.states / np.linalg.norm(oracle.states, axis=1, keepdims=True))
    diff = np.abs(exact - ref)
    worst = float(np.max(diff))
    CsvWriter(
        out_dir / "inversion.csv",
        ["t", "sigma_z_exact", "sigma_z_oracle", "abs_diff"],
        cfg.precision,
    ).write([ts, exact, ref, diff])
    inversion = Check.bound("|sigma_z exact - oracle|", worst, cfg.coherent_max_diff)
    # the whole state, phase-sensitive: <sigma_z> cannot see the blocks' phases
    amplitude = float(np.max(np.linalg.norm(normalized - oracle.states, axis=1)))
    return [inversion, *_oracle_checks(oracle, amplitude)]


# name -> (command, need_profiles, help text); a command that needs the
# profiles evaluates them on the Fock space of [space], whose cutoff it requires
COMMANDS = {
    "verify-algebra": (cmd_verify_algebra, True, "check the generator identities and block closure"),
    "propagate": (cmd_propagate, True, "solve the angle ODEs and cross-validate exact solutions"),
    "berry": (cmd_berry, False, "sweep closed-cycle geometric phases against the solid-angle law"),
    "coherent": (cmd_coherent, True, "compare coherent-state atomic inversion with the integrator"),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="susyjc",
        description="k-photon supersymmetric Jaynes-Cummings laboratory: "
        "verify the operator algebra, propagate exact solutions against a "
        "brute-force integrator, sweep Berry phases, build coherent states.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="INI scenario file")
        p.add_argument("--out", default=None, help=f"output directory (default ${ENV_OUTPUT_DIR} or ./out)")

    args = parser.parse_args(argv)
    command, need_profiles, _ = COMMANDS[args.command]
    try:
        cfg = load_config(args.config, need_profiles=need_profiles)
        checks = command(cfg, resolve_out_dir(args.out, cfg.out_dir))
    except (ConfigurationError, TruncationError, EvaluationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SingularityError as exc:
        when = "" if exc.time is None else f" at t={exc.time:.6g}"
        print(f"verification failure{when}: {exc}", file=sys.stderr)
        return 1
    except SusyJCError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 1
    for check in checks:
        print(check.line)
    return 0 if all(check.passed for check in checks) else 1


if __name__ == "__main__":
    sys.exit(main())
