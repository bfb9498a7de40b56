"""The names and options the benchmark in perfbench/ reaches into the package by,
and the benchmark's own correctness gate.

perfbench/ is read, never changed, here: a rename in the package that its
tracer or its setup probe no longer finds fails this test instead of
silently emptying a per-layer metric or failing a benchmark run, and a
workload whose output the benchmark would reject fails it too.
"""

import importlib
from pathlib import Path

import numpy as np
import pytest

from susyjc import TimeProfile, cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


@pytest.fixture
def checks(perfbench):
    return importlib.import_module("checks")


def test_tracer_targets_resolve_in_the_package(perfbench):
    tracer, _ = perfbench
    for name, (_, module, path, _) in tracer.TARGETS.items():
        found = tracer._resolve(importlib.import_module(f"{tracer.PACKAGE}.{module}"), path)
        assert found is not None, f"{name}: {module}.{path} not found"


def test_workload_configs_load_as_the_setup_probe_loads_them(perfbench):
    _, workloads = perfbench
    for workload in workloads.WORKLOADS.values():
        need_profiles = cli.COMMANDS[workload.command][1]
        cli.load_config(str(ROOT / workload.config), need_profiles=need_profiles)


def test_seed_0_workloads_pass_the_benchmark_gate(perfbench, checks, tmp_path, capsys):
    # each workload's committed config, run as the benchmark runs it at seed 0
    # and checked against the recorded reference; nothing is written under
    # the checkout
    _, workloads = perfbench
    for name, workload in workloads.WORKLOADS.items():
        prepared = workloads.Prepared(workload, 0, tmp_path, ROOT / workload.config, None)
        out_dir = tmp_path / name
        capsys.readouterr()
        code = cli.main(prepared.argv(prepared.config, out_dir))
        stdout = capsys.readouterr().out
        reference = checks.reference_files(name)
        assert reference, name
        assert checks.check_run(prepared, code, stdout, out_dir, reference, None) == [], name


# the oracle propagates constant profiles exactly, with no right-hand side:
# resonant.ini's omega0 swings here, 3 + 0.1 sin(0.3 t), so that it integrates
SWINGS = {
    "configs/resonant.ini": {"omega0": TimeProfile.sinusoid(3.0, 0.1, 0.3)},
    "perfbench/configs/driven.ini": {},
}


@pytest.mark.parametrize("config", list(SWINGS))
def test_each_right_hand_side_call_evaluates_the_profiles_once(config, monkeypatch):
    # the tracer wraps ModelParams.evaluate on the class: it counts
    # profiles.evaluate.calls there and infers schrodinger.rhs_evals from the
    # calls made inside propagate, so a right-hand side that bypassed
    # evaluate would empty both metrics.  The oracle makes one scalar call per
    # right-hand-side call, plus its frame's at t0.  The angle route's
    # generator makes one call per distinct params object of its members for
    # all of its node times (a steady one's at t0), and the node times of the
    # integration are its n_rhs_evaluations.
    import dataclasses

    from susyjc import EXCITED, AuxState, ModelParams, SubspaceBlock, auxiliary, propagate

    cfg = cli.load_config(str(ROOT / config))
    cfg = dataclasses.replace(cfg, params=dataclasses.replace(cfg.params, **SWINGS[config]))
    window = (0.0, cfg.t_final)
    m = cfg.m_list[0]
    scalar_calls, evaluations = [], []
    evaluate = ModelParams.evaluate

    def counted(self, t):
        if np.ndim(t) == 0:
            scalar_calls.append(t)
        evaluations.append(self)
        return evaluate(self, t)

    monkeypatch.setattr(ModelParams, "evaluate", counted)
    psi0 = cfg.spec.basis_state(EXCITED, m)
    # the count, not the drift, is under test: a lone basis state drifts more
    # than the workloads' block states
    oracle = propagate(
        psi0, window, cfg.params, cfg.spec, cfg.oracle_rtol, cfg.oracle_atol, max_norm_drift=1e-8
    )
    assert oracle.n_rhs_evaluations > 0
    assert len(scalar_calls) == oracle.n_rhs_evaluations + 1

    fields, stepping = [], []  # (evaluate calls, node times) per generator call
    generator, magnus = auxiliary._generator, auxiliary.magnus

    def counting_generator(runs, lams, t0):
        field = generator(runs, lams, t0)

        def counted_field(t):
            before = len(evaluations)
            out = field(t)
            fields.append((len(evaluations) - before, np.size(t)))
            return out

        return counted_field

    def counting_magnus(*args):
        start = len(fields)
        try:
            return magnus(*args)
        finally:
            stepping.append(sum(times for _, times in fields[start:]))

    monkeypatch.setattr(auxiliary, "_generator", counting_generator)
    monkeypatch.setattr(auxiliary, "magnus", counting_magnus)
    lam = SubspaceBlock.for_space(cfg.spec, m).lam
    initial = AuxState(cfg.theta0, cfg.phi0)
    # G members: G distinct copies of the profiles cost G evaluate calls per
    # generator call, one shared object one call
    members = 3
    for params, calls in [
        ([cfg.params], 1),
        ([dataclasses.replace(cfg.params) for _ in range(members)], members),
        ([cfg.params] * members, 1),
    ]:
        fields.clear()
        stepping.clear()
        lams = [lam] * len(params)
        family = auxiliary._solve_family(initial, window, params, lams, cfg.aux_rtol, cfg.aux_atol)
        assert fields and {count for count, _ in fields} == {calls}
        assert sum(stepping) == family[0].stats.n_rhs_evaluations


# Upper bounds on the profile evaluations of each workload's angle solve at
# seed 0, summed over its integrations: the steady workloads are solved in
# closed form, with none, and driven's measured 2619 has a little slack, so
# that a change of the step control shows here and not only in timings.
# DOP853 took 1100, 1814, 152 and 3638 right-hand-side calls.
ANGLE_WORK = {"resonant": 0, "coherent-xi1": 0, "berry-sweep": 0, "driven": 2850}


def test_seed_0_angle_solves_stay_within_their_work_counts(
    perfbench, tmp_path, monkeypatch, capsys
):
    # the benchmark times these runs, and its timings are noisy; the
    # evaluations behind them are deterministic
    from susyjc import auxiliary

    _, workloads = perfbench
    counts = {}
    magnus = auxiliary.magnus

    def counting(*args):
        solution = magnus(*args)
        counts[name] = counts.get(name, 0) + solution.nfev
        return solution

    monkeypatch.setattr(auxiliary, "magnus", counting)
    for name, workload in workloads.WORKLOADS.items():
        prepared = workloads.Prepared(workload, 0, tmp_path, ROOT / workload.config, None)
        assert cli.main(prepared.argv(prepared.config, tmp_path / name)) == 0, name
    assert counts.keys() == ANGLE_WORK.keys()
    assert all(counts[name] <= bound for name, bound in ANGLE_WORK.items()), counts
    assert counts["driven"] <= 3638  # DOP853's right-hand-side calls there


# Upper bounds on each workload's oracle integration at seed 0, as (accepted
# steps, right-hand-side calls) summed over its DOP853 solves: driven's
# measured counts, which integrating only the live levels left unchanged.
# The oracle propagates the other workloads' constant profiles exactly (or,
# for berry-sweep, does not run), with no step.
ORACLE_WORK = {
    "resonant": (0, 0),
    "coherent-xi1": (0, 0),
    "berry-sweep": (0, 0),
    "driven": (108, 1640),
}


def test_seed_0_oracle_integrations_stay_within_their_work_counts(
    perfbench, tmp_path, monkeypatch, capsys
):
    from susyjc import schrodinger

    _, workloads = perfbench
    counts = {}
    integrate = schrodinger.integrate_segments

    def counting(*args):
        solution = integrate(*args)
        steps, calls = counts[name]
        counts[name] = (steps + solution.times.size - 1, calls + solution.nfev)
        return solution

    monkeypatch.setattr(schrodinger, "integrate_segments", counting)
    for name, workload in workloads.WORKLOADS.items():
        counts[name] = (0, 0)
        prepared = workloads.Prepared(workload, 0, tmp_path, ROOT / workload.config, None)
        assert cli.main(prepared.argv(prepared.config, tmp_path / name)) == 0, name
    assert counts.keys() == ORACLE_WORK.keys()
    for name, (steps, calls) in ORACLE_WORK.items():
        assert counts[name][0] <= steps and counts[name][1] <= calls, (name, counts[name])
    assert counts["driven"][0] > 0
