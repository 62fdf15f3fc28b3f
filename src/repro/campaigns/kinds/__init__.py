"""Scenario kinds: one module per experiment family, one table.

:data:`KINDS` maps each ``Scenario.kind`` to the
:class:`~repro.campaigns.kinds.base.ScenarioKind` that owns its rules:
its metrics (estimator family and stopping precision), its built-in
scenarios and their golden-figure expectations, planning, evaluation
and reduction.  Nothing outside this package branches on a kind's name,
and :mod:`repro.stats` names none of its metrics: a new kind is one
module plus one line below (docs/campaigns.md, "Adding a scenario
kind").
"""

from repro.campaigns.kinds import attack, fleet, mimo, passive_ber, physio
from repro.campaigns.kinds.base import (
    BUDGETS,
    CampaignUnit,
    ScenarioKind,
    fixed_budget_only,
)

__all__ = [
    "BUDGETS",
    "KINDS",
    "CampaignUnit",
    "ScenarioKind",
    "fixed_budget_only",
]

KINDS: dict[str, ScenarioKind] = {
    "attack": attack.KIND,
    "passive_ber": passive_ber.KIND,
    "mimo": mimo.KIND,
    "physio": physio.KIND,
    "fleet": fleet.KIND,
}
