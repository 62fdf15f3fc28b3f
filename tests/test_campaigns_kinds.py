"""Scenario kinds: pinned outputs, no kind branches, and a one-file kind.

The pins are the contract the kind table must keep: for every
registered scenario at the ``smoke`` validation budget, the unit keys
and unit specs of its fixed, chunked and adaptive round-0 plans, its
reduced points, its rendered result table and its one-line summary.
A moved unit key orphans every cached result of that scenario; a moved
point or spec changes the numbers.  Digests are the first 16 hex digits
of a sha256, like the repo's scenario hashes.  Each pin also records
its kind's ``schema``: a change to a result digest must come with a
schema bump, or a resumed campaign would mix cached results of the old
code with fresh ones of the new.

The branch guard keeps every per-kind rule inside
``repro.campaigns.kinds``; the toy kind shows that a new kind is one
class plus one ``KINDS`` entry.
"""

import ast
import hashlib
import json
from dataclasses import dataclass, fields
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import registry
from repro.campaigns.cli import _budget_scenario, _result_report
from repro.campaigns.kinds import KINDS, ScenarioKind
from repro.campaigns.runner import CampaignRunner, plan_scenario_units
from repro.campaigns.spec import Scenario
from repro.stats.adaptive import AdaptivePolicy, AdaptiveScheduler
from repro.stats.validation import cells_from_result

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"

SMOKE_PINS = {
    "attack-success-shielded": {
        "schema": 3,
        "plan": "6314f8d9f9f4a7fd",
        "specs": "f4248eb517356950",
        "chunked": "3c9f360b582d2664",
        "round0": "c8f68b342ab0e994",
        "points": "5069246b10980d8b",
        "report": "da6801da8eb5cef9",
        "summary": (
            "fcc attacker, therapy command, shield on, 3 locations x 4 "
            "trials"
        ),
    },
    "attack-success-unshielded": {
        "schema": 3,
        "plan": "6314f8d9f9f4a7fd",
        "specs": "ba7c3c0336ef163c",
        "chunked": "9b439e52e4c6de69",
        "round0": "d3098a35b0c8902a",
        "points": "2ad199f2a05e87e3",
        "report": "bc7dc795c6cd7e8b",
        "summary": (
            "fcc attacker, therapy command, shield off, 3 locations x 4 "
            "trials"
        ),
    },
    "battery-drain-shielded": {
        "schema": 3,
        "plan": "6314f8d9f9f4a7fd",
        "specs": "b2b228db9bfa0304",
        "chunked": "a3a16e1677ecda3f",
        "round0": "5050594612ed2720",
        "points": "5069246b10980d8b",
        "report": "b961d89995f0f150",
        "summary": (
            "fcc attacker, interrogate command, shield on, 3 locations x "
            "4 trials"
        ),
    },
    "battery-drain-unshielded": {
        "schema": 3,
        "plan": "6314f8d9f9f4a7fd",
        "specs": "d32751185a0b029f",
        "chunked": "a08fda76f7bfbae2",
        "round0": "241d96dbac4cefc3",
        "points": "2ad199f2a05e87e3",
        "report": "86f659d32611c5d9",
        "summary": (
            "fcc attacker, interrogate command, shield off, 3 locations x "
            "4 trials"
        ),
    },
    "crypto-only-baseline": {
        "schema": 3,
        "plan": "6314f8d9f9f4a7fd",
        "specs": "03e8d5d2d7c55718",
        "chunked": "13bee5ee15f157ac",
        "round0": "d0b94c5bf6dc15d6",
        "points": "2ad199f2a05e87e3",
        "report": "b3310c78a3f2d0ef",
        "summary": (
            "fcc attacker, interrogate command, shield off, 3 locations x "
            "4 trials"
        ),
    },
    "fleet-alarm-burden": {
        "schema": 4,
        "plan": "f660656873aebc03",
        "specs": "b05c892ff51821cd",
        "chunked": "d589a2d4e12b4c4c",
        "points": "d1e27e44ea687af4",
        "report": "c830d687a9e1dcf8",
        "summary": (
            "30-patient cohort (100% shield-worn) x 2 attack encounters"
        ),
    },
    "fleet-attack-prevalence": {
        "schema": 4,
        "plan": "f660656873aebc03",
        "specs": "c97134add7b32112",
        "chunked": "3edaddcffb387f1c",
        "points": "327340c5f6463399",
        "report": "dce1116b51bcd15d",
        "summary": "30-patient cohort (90% shield-worn) x 2 attack encounters",
    },
    "fleet-privacy-leakage": {
        "schema": 4,
        "plan": "a7eac08032d270dc",
        "specs": "3ef47460b62f70ce",
        "chunked": "fe40942439d71fc5",
        "points": "d810d889b6695add",
        "report": "b38540a2f2894668",
        "summary": "30-patient cohort (80% shield-worn) x 1 telemetry records",
    },
    "highpower-shielded": {
        "schema": 3,
        "plan": "3ec3b071cb70b394",
        "specs": "681bb202e5e8ce07",
        "chunked": "f5860ff534f60622",
        "round0": "e304661ce64317f5",
        "points": "674a57ca148b35ce",
        "report": "0b6a0d5eb095ae85",
        "summary": (
            "highpower attacker, therapy command, shield on, 3 locations "
            "x 4 trials"
        ),
    },
    "highpower-unshielded": {
        "schema": 3,
        "plan": "3ec3b071cb70b394",
        "specs": "f1665ba7feb91495",
        "chunked": "806b8bc4751b693b",
        "round0": "9531a4ea32e41c77",
        "points": "1daf7515661bf210",
        "report": "0612b12be2c63de8",
        "summary": (
            "highpower attacker, therapy command, shield off, 3 locations "
            "x 4 trials"
        ),
    },
    "mimo-eavesdropper": {
        "schema": 3,
        "plan": "6a1948206307d4b3",
        "specs": "e27c470956a7a506",
        "chunked": "5403b09585a7ecd6",
        "round0": "89aec29496e0c1a0",
        "points": "039d05a040921a48",
        "report": "fcac6e9c531245e6",
        "summary": "2-antenna eavesdropper, 3 separations x 4 attempts",
    },
    "passive-ber-by-location": {
        "schema": 3,
        "plan": "939fbebd685f8c22",
        "specs": "efbd11672f63f46c",
        "chunked": "e89dd12b2bca1714",
        "round0": "c7f04722326f92d3",
        "points": "9f92d693797f245e",
        "report": "2cc89a723789489e",
        "summary": (
            "passive eavesdropper at +20 dB jamming, 3 locations x 4 "
            "packets"
        ),
    },
    "physio-leakage-by-location": {
        "schema": 3,
        "plan": "118a2a3fbf2b7495",
        "specs": "c302b07c88acd66a",
        "chunked": "4d07583dd28a7a7d",
        "round0": "65e8c17a381bb1cd",
        "points": "41e1557a4708b965",
        "report": "8c0fea1d3b401e6e",
        "summary": (
            "normal cardiac telemetry, no shield, 3 locations x 4 records"
        ),
    },
    "physio-leakage-shielded": {
        "schema": 3,
        "plan": "97827f7dc5dc4dd7",
        "specs": "62866a8adda727f0",
        "chunked": "14f252f24c08beaa",
        "round0": "ef09ad45cb00a4c7",
        "points": "e9e71f35969c280e",
        "report": "e9c0e39d5f523918",
        "summary": (
            "mixed cardiac telemetry, shield at +20 dB, 3 locations x 4 "
            "records"
        ),
    },
    "physio-rhythm-privacy": {
        "schema": 3,
        "plan": "741393419c046049",
        "specs": "4a71d288b0ced3b6",
        "chunked": "27d29191371e0dd8",
        "round0": "899f8d7ae608b21e",
        "points": "611040a72a2370ea",
        "report": "f97d58ef1af39b76",
        "summary": (
            "mixed cardiac telemetry, no shield, 3 locations x 4 records"
        ),
    },
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _keys(units) -> str:
    return _digest("\n".join(unit.key for unit in units))


def _specs(units) -> str:
    """Keys, coordinates and every spec field (seeds included)."""
    return _digest(
        "\n".join(
            f"{unit.key} {unit.coords!r} "
            + repr(
                [(f.name, repr(getattr(unit.spec, f.name)))
                 for f in fields(unit.spec)]
            )
            for unit in units
        )
    )


def _points(points) -> str:
    """The canonical JSON the perfbench digests use."""
    return _digest(
        json.dumps(points, sort_keys=True, separators=(",", ":"), default=repr)
    )


#: Pinned fields that carry results (unit keys, seeds, reduced numbers);
#: ``report`` and ``summary`` are display only.
_RESULT_PINS = ("plan", "specs", "chunked", "round0", "points")


class TestSmokeOutputPins:
    def test_every_registered_scenario_is_pinned(self):
        assert sorted(SMOKE_PINS) == registry.names()

    @pytest.mark.parametrize("name", sorted(SMOKE_PINS))
    def test_plans_points_report_and_summary(self, name):
        scenario = _budget_scenario(registry.get(name), "smoke")
        units = plan_scenario_units(scenario)
        result = CampaignRunner(scenario, persist=False).run()
        report = _result_report(result).render()
        got = {
            "plan": _keys(units),
            "specs": _specs(units),
            "chunked": _specs(
                plan_scenario_units(scenario.override(chunk_size=2))
            ),
            "points": _points(result.points),
            "report": _digest(report),
            "summary": scenario.summary(),
        }
        if "round0" in SMOKE_PINS[name]:
            got["round0"] = _specs(
                plan_scenario_units(scenario, positions=[0], round_index=0)
            )
        pinned = SMOKE_PINS[name]
        schema = KINDS[scenario.kind].schema
        moved = [
            key for key in _RESULT_PINS
            if key in pinned and got[key] != pinned[key]
        ]
        if moved and schema == pinned["schema"]:
            pytest.fail(
                f"bump {scenario.kind}.schema: {name}'s {moved} changed "
                f"at schema {schema}, so cached results of the old code "
                f"would be reused"
            )
        assert {**got, "schema": schema} == pinned, report

    def test_a_result_change_without_a_schema_bump_fails(self, monkeypatch):
        name = "attack-success-shielded"
        moved = {**SMOKE_PINS[name], "points": "0" * 16}
        monkeypatch.setitem(SMOKE_PINS, name, moved)
        with pytest.raises(pytest.fail.Exception, match="bump attack.schema"):
            self.test_plans_points_report_and_summary(name)


class TestNoKindBranches:
    """Per-kind rules live in the kind modules, nowhere else."""

    @staticmethod
    def _is_kind(node) -> bool:
        return (isinstance(node, ast.Name) and node.id == "kind") or (
            isinstance(node, ast.Attribute) and node.attr == "kind"
        )

    @staticmethod
    def _is_kind_literal(node) -> bool:
        if isinstance(node, ast.Constant):
            return node.value in KINDS
        if isinstance(node, (ast.Tuple, ast.List, ast.Set)):
            return bool(node.elts) and all(
                isinstance(e, ast.Constant) and e.value in KINDS
                for e in node.elts
            )
        return False

    @staticmethod
    def _is_spec_type(node) -> bool:
        if isinstance(node, ast.Tuple):
            return any(
                TestNoKindBranches._is_spec_type(e) for e in node.elts
            )
        name = getattr(node, "id", None) or getattr(node, "attr", "")
        return name.endswith("ChunkSpec")

    def _branches(self) -> list[str]:
        found = []
        for package in ("campaigns", "stats"):
            root = _SRC / package
            for path in sorted(root.rglob("*.py")):
                if "kinds" in path.relative_to(root).parts:
                    continue
                for node in ast.walk(ast.parse(path.read_text())):
                    where = f"{path.relative_to(_SRC)}:{getattr(node, 'lineno', 0)}"
                    if isinstance(node, ast.Compare):
                        sides = [node.left, *node.comparators]
                        if any(map(self._is_kind, sides)) and any(
                            map(self._is_kind_literal, sides)
                        ):
                            found.append(where)
                    if (
                        isinstance(node, ast.Call)
                        and isinstance(node.func, ast.Name)
                        and node.func.id == "isinstance"
                        and len(node.args) == 2
                        and self._is_spec_type(node.args[1])
                    ):
                        found.append(where)
        return found

    def test_no_scenario_kind_branches_outside_the_kinds(self):
        assert self._branches() == []

    def test_the_guard_sees_a_kind_branch(self):
        tree = ast.parse(
            'if scenario.kind in ("attack", "fleet"): pass\n'
            'if isinstance(spec, FleetChunkSpec): pass\n'
        )
        compare = tree.body[0].test
        assert self._is_kind(compare.left)
        assert self._is_kind_literal(compare.comparators[0])
        assert self._is_spec_type(tree.body[1].test.args[1])


@dataclass(frozen=True)
class _CoinSpec:
    location_index: int
    n_flips: int
    seed: object


class _CoinKind(ScenarioKind):
    """Coin flips per testbed location: a kind in one class."""

    schema = 1
    payload_fields = ("seed", "n_trials", "chunk_size", "location_indices")
    spec_type = _CoinSpec
    metrics = ("success_probability",)
    report_headers = ("location", "heads", "flips", "note")

    def summary(self, scenario):
        return f"coin flips at {len(scenario.location_indices)} locations"

    def make_spec(self, scenario, cell, chunk_index, size, seed):
        return _CoinSpec(cell, size, seed)

    def evaluate(self, spec):
        flips = np.random.default_rng(spec.seed).integers(0, 2, spec.n_flips)
        return {"heads": int(flips.sum())}

    def point(self, scenario, sums):
        return {
            "success_probability": sums["heads"] / scenario.n_trials,
            "heads": sums["heads"],
        }

    def absorb(self, estimators, n, data):
        estimators["success_probability"].update(data["heads"], n)

    def report_rows(self, scenario, points):
        return [
            (p["label"], f"{p['success_probability']:.2f}",
             str(scenario.n_trials), "")
            for p in points
        ]


class TestOneFileKind:
    @pytest.fixture(autouse=True)
    def _coin_kind(self, monkeypatch):
        monkeypatch.setitem(KINDS, "coin", _CoinKind())

    def _scenario(self, **changes):
        fields_ = dict(
            name="coin-flips", kind="coin", seed=3, n_trials=6,
            location_indices=(1, 5),
        )
        fields_.update(changes)
        return Scenario(**fields_)

    def test_validates_and_hashes(self):
        scenario = self._scenario()
        assert scenario.payload() == {
            "schema": 1,
            "kind": "coin",
            "seed": 3,
            "n_trials": 6,
            "chunk_size": None,
            "location_indices": [1, 5],
        }
        assert scenario.scenario_hash() != self._scenario(seed=4).scenario_hash()
        assert scenario.summary() == "coin flips at 2 locations"
        with pytest.raises(ValueError, match="unknown testbed location"):
            self._scenario(location_indices=(99,))
        with pytest.raises(ValueError, match="do not apply"):
            scenario.override(jam_margin_db=3.0)

    def test_plans_runs_and_resumes(self, tmp_path):
        scenario = self._scenario(chunk_size=4)
        units = plan_scenario_units(scenario)
        assert [(u.coords["location"], u.coords["n_trials"]) for u in units] == [
            (1, 4), (1, 2), (5, 4), (5, 2)
        ]
        fresh = CampaignRunner(scenario, cache_dir=tmp_path).run()
        again = CampaignRunner(scenario, cache_dir=tmp_path).run()
        assert again.computed_units == 0
        assert again.points == fresh.points
        assert [p["axis"] for p in fresh.points] == [1, 5]
        assert fresh.value_key == "success_probability"
        assert sum(p["heads"] for p in fresh.points) <= 12

    def test_yields_cells_and_a_report(self):
        result = CampaignRunner(self._scenario(), persist=False).run()
        cells = cells_from_result(result)
        assert [c.axis for c in cells] == [1, 5]
        estimator = cells[0].estimators["success_probability"]
        assert estimator.trials == 6
        assert estimator.successes == result.points[0]["heads"]
        report = _result_report(result).render()
        assert "location 5" in report and "heads" in report

    def test_runs_adaptively(self):
        policy = AdaptivePolicy(round_size=2, min_trials=2, max_trials=4)
        run = AdaptiveScheduler(
            self._scenario(), policy=policy, persist=False
        ).run()
        assert [c.axis for c in run.cells] == [1, 5]
        assert all(2 <= c.trials <= 4 for c in run.cells)
        assert run.fixed_trials == 12
