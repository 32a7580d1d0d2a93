"""The package's public surface: what `spinwitness` exports is what its commands and demos run."""

from pathlib import Path

import pytest

import spinwitness
import spinwitness.protocol

WORKFLOW = Path(__file__).resolve().parents[1] / ".github" / "workflows" / "tests.yml"

# Dense references the tests compare against and a sampler identical to `run_protocol`: not exported.
NOT_EXPORTED = (
    "collective_operator",
    "CollectiveOperator",
    "direction_operator",
    "rotate_about_z",
    "pos_operator",
    "ZERO_EIGENVALUE_TOL",
    "run_protocol_subensembles",
)


def test_every_exported_name_resolves():
    assert all(hasattr(spinwitness, name) for name in spinwitness.__all__)


def test_test_only_references_are_not_exported():
    assert [name for name in NOT_EXPORTED if hasattr(spinwitness, name)] == []
    assert set(NOT_EXPORTED).isdisjoint(spinwitness.__all__)


def test_protocol_runs_take_their_values_directly():
    # run_protocol(state, rounds, seed, theta_offset): no bundle of the four values, under any name
    assert [name for name in dir(spinwitness) if name.endswith("Config")] == []
    assert [name for name in dir(spinwitness.protocol) if name.endswith("Config")] == []


def test_the_ci_workflow_parses_and_every_step_does_something():
    # a plain `run:` scalar holding ': ' once made the whole workflow invalid YAML
    yaml = pytest.importorskip("yaml")
    workflow = yaml.safe_load(WORKFLOW.read_text())
    steps = [step for job in workflow["jobs"].values() for step in job["steps"]]
    assert steps
    assert [step for step in steps if ("run" in step) == ("uses" in step)] == []
