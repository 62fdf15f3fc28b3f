"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure from the paper's
evaluation (S10-S11) and prints a paper-vs-measured report.  Trial counts
default to a size that keeps the whole suite under a few minutes; set
``REPRO_BENCH_TRIALS`` to 100 to match the paper's per-location count
exactly.
"""

from __future__ import annotations

import os

import pytest

from repro.campaigns.runner import CampaignRunner
from repro.campaigns.spec import Scenario


def trials_per_location(default: int = 40) -> int:
    """How many attack trials to run per location (paper: 100)."""
    return int(os.environ.get("REPRO_BENCH_TRIALS", default))


@pytest.fixture
def n_trials() -> int:
    return trials_per_location()


def attack_sweep(name: str, workers: int | None = None, **fields) -> dict:
    """Run an in-memory ``attack`` campaign; its points keyed by location."""
    scenario = Scenario(name=name, kind="attack", **fields)
    result = CampaignRunner(scenario, workers=workers, persist=False).run()
    return {point["axis"]: point for point in result.points}
