"""The names and options the benchmark in perfbench/ reaches into the package by.

perfbench/ is read, never changed, here: a rename in the package that its
tracer or its setup probe no longer finds fails this test instead of
silently emptying a per-layer metric or failing a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from susyjc import cli

ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def perfbench(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    return importlib.import_module("tracer"), importlib.import_module("workloads")


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
