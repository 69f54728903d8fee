"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.circuits import get_circuit
from repro.circuits.two_tia import TwoStageTIA
from repro.env import SizingEnvironment, default_fom_config
from repro.technology import get_node


@pytest.fixture(scope="session")
def tech_180():
    """The 180nm technology node (the paper's design node)."""
    return get_node("180nm")


@pytest.fixture(scope="session")
def two_tia(tech_180):
    """A Two-TIA circuit instance shared across tests (read-only usage)."""
    return get_circuit("two_tia", tech_180)


class PlanlessTIA(TwoStageTIA):
    """A Two-TIA that publishes neither an analysis plan nor a stacked path."""

    name = "planless_tia"

    def analysis_plan(self):
        return None

    def evaluate(self, sizing):
        return TwoStageTIA(self.technology).evaluate(sizing)


@pytest.fixture(scope="session")
def planless_tia(tech_180):
    """A circuit the vectorized engine can only evaluate serially."""
    return PlanlessTIA(tech_180)


@pytest.fixture(scope="session")
def two_tia_env(two_tia):
    """A sizing environment for the Two-TIA (shared FoM calibration)."""
    return SizingEnvironment(two_tia, default_fom_config(two_tia))


@pytest.fixture()
def rng():
    """A fresh deterministic random generator per test."""
    return np.random.default_rng(12345)
