"""The shared testbed template leaves every unit a pure function of its spec.

``AttackTestbed`` takes its link budget, codec, identifying sequence,
detection window and placement-keyed link memo from a template
memoised per geometry, and builds only its simulator, air, radios,
link model and seeded generators.  These tests pin that the sharing
changes no result: an
attack chunk and a fleet shard give the same numbers whether they run
first in a fresh interpreter, after unrelated units, or after another
testbed has re-placed one of its devices.
"""

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.campaigns import registry
from repro.campaigns.kinds.attack import AttackChunkSpec, run_attack_chunk
from repro.campaigns.runner import plan_scenario_units
from repro.channel.geometry import TestbedGeometry
from repro.channel.link_budget import LinkBudget
from repro.core.config import ShieldConfig
from repro.experiments import testbed as testbed_module
from repro.experiments.testbed import (
    AttackTestbed,
    ExperimentLinkModel,
    Placement,
    worn_shield_config,
)
from repro.fleet.runner import FleetChunkSpec, run_fleet_chunk
from repro.protocol.packets import PacketCodec

_TESTS = Path(__file__).resolve().parent


def _loss(links: ExperimentLinkModel, source: str, destination: str) -> float:
    """A link's mean total loss, as the air model applies it."""
    return -links.mean_rx_power_dbm(source, destination, 0.0)


def probe_results() -> list:
    """A SeedSequence-seeded attack chunk and a 24-patient fleet shard."""
    attack = run_attack_chunk(
        AttackChunkSpec(
            location_index=4,
            n_trials=15,
            command="therapy",
            attacker="fcc",
            shield_present=True,
            antenna_gain_dbi=None,
            seed=np.random.SeedSequence(11, spawn_key=(4, 0)),
        )
    )
    scenario = registry.get("fleet-attack-prevalence").override(
        seed=5, n_patients=24
    )
    fleet = [run_fleet_chunk(unit.spec) for unit in plan_scenario_units(scenario)]
    return json.loads(json.dumps([list(attack), fleet]))


@pytest.fixture(scope="module")
def fresh_results() -> list:
    """``probe_results()`` as the first thing a new interpreter runs."""
    env = dict(os.environ)
    src = str(_TESTS.parent / "src")
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    code = (
        f"import json, sys; sys.path.insert(0, {str(_TESTS)!r}); "
        "import test_testbed_template as t; print(json.dumps(t.probe_results()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


class TestTemplatePurity:
    def test_fresh_interpreter_matches_this_process(self, fresh_results):
        assert probe_results() == fresh_results

    def test_other_units_first(self, fresh_results):
        """Units at other locations, with the other attacker kind and
        with the shield both on and off, leave nothing behind."""
        for location, attacker, shield in [
            (1, "fcc", False),
            (9, "highpower", True),
            (14, "fcc", True),
            (2, "highpower", False),
        ]:
            run_attack_chunk(
                AttackChunkSpec(
                    location_index=location,
                    n_trials=4,
                    command="interrogate",
                    attacker=attacker,
                    shield_present=shield,
                    antenna_gain_dbi=None,
                    seed=location,
                )
            )
        assert probe_results() == fresh_results

    def test_a_device_moved_in_another_testbed(self, fresh_results):
        """Re-placing a device in one testbed cannot leak into another
        through the shared template, even when the moved testbed is the
        first one built on it."""
        testbed_module._template.cache_clear()
        bed = AttackTestbed(location_index=4, seed=2)
        geometry = bed.budget.geometry
        bed.links.place(Placement("adversary", location=geometry.location(17)))
        bed.links.place(Placement("imd", on_body=True))
        bed.links.place(Placement("shield", location=geometry.location(1)))
        bed.run_trials(3, command="therapy")
        assert probe_results() == fresh_results

    def test_moved_device_gets_the_moved_loss(self):
        bed = AttackTestbed(location_index=2, seed=0)
        near = _loss(bed.links, "adversary", "imd")
        far_location = bed.budget.geometry.location(18)
        bed.links.place(Placement("adversary", location=far_location))
        assert _loss(bed.links, "adversary", "imd") > near
        assert _loss(
            AttackTestbed(location_index=2).links, "adversary", "imd"
        ) == near


class TestTemplateSharing:
    def test_testbeds_on_one_geometry_share_the_fixed_parts(self):
        a = AttackTestbed(location_index=1, seed=0)
        b = AttackTestbed(location_index=9, attacker="highpower", seed=1)
        assert a.budget is b.budget
        assert a.codec is b.codec
        assert a.shield.detector.sequence is b.shield.detector.sequence
        # Everything holding an RNG or state is the testbed's own.
        assert a.simulator is not b.simulator
        assert a.air is not b.air
        assert a.rng is not b.rng

    def test_link_memo_is_keyed_on_placements(self):
        """Testbeds share one link memo, keyed on the two placements
        rather than device names: after a device moves, every link of
        both testbeds reads what an unshared link model computes."""
        a = AttackTestbed(location_index=2, seed=0)
        b = AttackTestbed(location_index=2, seed=1)
        assert a.links._link_memo is b.links._link_memo
        names = ("imd", "observer", "shield", "adversary")
        for src in names:
            for dst in names:
                if src != dst:
                    _loss(b.links, src, dst)
                    b.links.fading_db(src, dst, np.random.default_rng(0))
        geometry = a.budget.geometry
        a.links.place(Placement("adversary", location=geometry.location(17)))
        a.links.place(Placement("shield", location=geometry.location(3)))
        for bed in (a, b):
            fresh = ExperimentLinkModel(bed.budget)
            for name in names:
                fresh.place(bed.links.placement(name))
            for src in names:
                for dst in names:
                    if src == dst:
                        continue
                    assert bed.links._link(src, dst) == fresh._link(src, dst)

    def test_custom_geometry_gets_its_own_template(self):
        default = AttackTestbed(location_index=2, seed=1)
        geometry = TestbedGeometry(shield_to_imd_m=0.3)
        custom = AttackTestbed(location_index=2, seed=1, geometry=geometry)
        assert custom.budget is not default.budget
        assert custom.budget.geometry == geometry
        assert AttackTestbed(location_index=5, geometry=geometry).budget is (
            custom.budget
        )
        # Its losses are the custom geometry's, computed from scratch.
        links = ExperimentLinkModel(LinkBudget(geometry=geometry))
        links.place(Placement("imd", in_phantom=True))
        links.place(Placement("shield", on_body=True))
        shield_hop = _loss(links, "shield", "imd")
        assert _loss(custom.links, "shield", "imd") == shield_hop
        assert _loss(default.links, "shield", "imd") != shield_hop

    def test_a_shard_derives_one_identifying_sequence(self, monkeypatch):
        calls = []
        original = PacketCodec.identifying_sequence

        def counted(codec, serial):
            calls.append(serial)
            return original(codec, serial)

        testbed_module._template.cache_clear()
        monkeypatch.setattr(PacketCodec, "identifying_sequence", counted)
        cohort = plan_scenario_units(
            registry.get("fleet-attack-prevalence").override(
                seed=0, n_patients=50
            )
        )[0].spec.cohort
        payload = run_fleet_chunk(
            FleetChunkSpec(
                cohort=cohort,
                start=0,
                count=50,
                trials_per_patient=1,
                task="attack",
            )
        )
        assert payload["attack_patients"] == 50
        assert payload["shield_worn"] > 1
        assert len(calls) == 1


class TestShieldConfig:
    def test_a_worn_config_is_taken_as_is(self):
        config = worn_shield_config(
            p_thresh_dbm=-15.0, passive_jam_margin_db=12.0
        )
        bed = AttackTestbed(location_index=3, shield_config=config)
        assert bed.shield.config is config
        assert config == dataclasses.replace(
            ShieldConfig(p_thresh_dbm=-15.0, passive_jam_margin_db=12.0),
            passive_jam_tx_dbm=bed.budget.passive_jam_tx_dbm(12.0),
            detection_window_bits=bed.codec.header_bit_count(),
        )

    def test_any_other_config_is_completed_in_a_copy(self):
        base = ShieldConfig(passive_jam_margin_db=12.0)
        bed = AttackTestbed(location_index=3, shield_config=base)
        assert bed.shield.config is not base
        assert base == ShieldConfig(passive_jam_margin_db=12.0)
        assert bed.shield.config == worn_shield_config(
            passive_jam_margin_db=12.0
        )
        assert AttackTestbed(location_index=3).shield.config == (
            worn_shield_config()
        )
