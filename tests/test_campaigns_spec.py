"""Tests for the scenario spec, content hashing, and the registry."""

import pytest

from repro.campaigns import registry
from repro.campaigns.spec import Scenario


def _attack(**changes) -> Scenario:
    base = dict(
        name="test-attack",
        kind="attack",
        attacker="fcc",
        command="therapy",
        shield_present=True,
        location_indices=(1, 2),
        n_trials=4,
    )
    base.update(changes)
    return Scenario(**base)


class TestValidation:
    def test_minimal_attack_scenario(self):
        assert _attack().kind == "attack"

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            Scenario(name="x-y", kind="quantum")

    def test_rejects_bad_name(self):
        with pytest.raises(ValueError, match="name"):
            _attack(name="spaces are bad")
        with pytest.raises(ValueError, match="name"):
            _attack(name="")

    def test_rejects_unknown_attacker(self):
        with pytest.raises(ValueError, match="attacker"):
            _attack(attacker="ninja")

    def test_rejects_unknown_command(self):
        with pytest.raises(ValueError, match="command"):
            _attack(command="explode")

    def test_rejects_unknown_metric(self):
        with pytest.raises(ValueError, match="metric"):
            _attack(metric="vibes")

    def test_rejects_empty_locations(self):
        with pytest.raises(ValueError, match="location"):
            _attack(location_indices=())

    def test_rejects_duplicate_locations(self):
        with pytest.raises(ValueError, match="unique"):
            _attack(location_indices=(1, 1))

    def test_rejects_nonpositive_trials(self):
        with pytest.raises(ValueError, match="n_trials"):
            _attack(n_trials=0)

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            _attack(chunk_size=0)

    def test_mimo_needs_separations(self):
        with pytest.raises(ValueError, match="separations"):
            Scenario(name="m-m", kind="mimo", separations_m=())

    def test_mimo_needs_two_antennas(self):
        with pytest.raises(ValueError, match="antennas"):
            Scenario(name="m-m", kind="mimo", separations_m=(0.1,), n_antennas=1)

    def test_rejects_locations_outside_the_testbed(self):
        with pytest.raises(ValueError, match="unknown testbed location"):
            _attack(location_indices=(1, 99))

    def test_normalises_sequence_types(self):
        scenario = _attack(location_indices=[3, 4])
        assert scenario.location_indices == (3, 4)


class TestContentHash:
    def test_stable_across_equal_instances(self):
        assert _attack().scenario_hash() == _attack().scenario_hash()

    def test_changes_with_execution_fields(self):
        base = _attack().scenario_hash()
        assert _attack(seed=1).scenario_hash() != base
        assert _attack(n_trials=5).scenario_hash() != base
        assert _attack(shield_present=False).scenario_hash() != base
        assert _attack(chunk_size=2).scenario_hash() != base

    def test_display_fields_are_not_identity(self):
        """Renaming or re-describing a scenario must keep its cache."""
        base = _attack().scenario_hash()
        assert _attack(name="other-name").scenario_hash() == base
        assert _attack(title="T", description="D").scenario_hash() == base
        assert _attack(tags=("x",)).scenario_hash() == base

    def test_kinds_never_collide(self):
        passive = Scenario(
            name="p-p", kind="passive_ber", location_indices=(1, 2), n_trials=4
        )
        assert passive.scenario_hash() != _attack().scenario_hash()


class TestOverride:
    def test_override_revalidates(self):
        with pytest.raises(ValueError, match="attacker"):
            _attack().override(attacker="ninja")

    def test_override_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown scenario fields"):
            _attack().override(locations=(1,))

    def test_override_changes_hash(self):
        scenario = _attack()
        assert (
            scenario.override(n_trials=99).scenario_hash()
            != scenario.scenario_hash()
        )

    def test_override_rejects_inapplicable_fields(self):
        """Overriding a field the kind ignores must fail loudly, not
        silently run the unnarrowed grid."""
        mimo = Scenario(name="m-m", kind="mimo", separations_m=(0.1,))
        with pytest.raises(ValueError, match="do not apply"):
            mimo.override(location_indices=(1,))
        with pytest.raises(ValueError, match="do not apply"):
            _attack().override(separations_m=(0.1,))

    def test_override_display_fields_always_allowed(self):
        renamed = _attack().override(name="new-name", title="T", tags=("x",))
        assert renamed.scenario_hash() == _attack().scenario_hash()


class TestRegistry:
    EXPECTED = (
        "passive-ber-by-location",
        "attack-success-unshielded",
        "attack-success-shielded",
        "highpower-unshielded",
        "highpower-shielded",
        "battery-drain-unshielded",
        "battery-drain-shielded",
        "crypto-only-baseline",
        "mimo-eavesdropper",
    )

    def test_builtins_registered(self):
        names = registry.names()
        for name in self.EXPECTED:
            assert name in names

    def test_builtin_hashes_distinct(self):
        hashes = [s.scenario_hash() for s in registry.all_scenarios()]
        assert len(set(hashes)) == len(hashes)

    def test_get_unknown_names_the_known(self):
        with pytest.raises(KeyError, match="attack-success-shielded"):
            registry.get("no-such-scenario")

    def test_register_rejects_duplicates(self):
        scenario = registry.get("attack-success-shielded")
        with pytest.raises(ValueError, match="already registered"):
            registry.register(scenario)

    def test_builtins_all_carry_expectations(self):
        for name in self.EXPECTED:
            assert registry.expectations_for(name), name

    def test_expectation_registration_validates_axes_and_metrics(self):
        from repro.stats import Expectation

        scenario = registry.get("attack-success-shielded")
        with pytest.raises(ValueError, match="does not sweep"):
            registry.register(
                scenario,
                Expectation(
                    metric="success_probability", kind="upper_bound",
                    value=0.05, axes=(99,),
                ),
                allow_replace=True,
            )
        with pytest.raises(ValueError, match="not measured"):
            registry.register(
                scenario,
                Expectation(metric="ber", kind="upper_bound", value=0.05),
                allow_replace=True,
            )
        # A rejected table leaves the registered one in place.
        assert len(registry.expectations_for(scenario.name)) == 1

    def test_replacing_a_scenario_drops_its_expectations(self):
        """A scenario and its table are registered together: replacing
        the scenario replaces the table, so a stale table whose axes
        may no longer exist is never carried over."""
        from repro.stats import Expectation

        name = "test-replace-drops"
        far = Expectation(
            metric="success_probability", kind="upper_bound",
            value=0.5, axes=(10, 14),
        )
        try:
            registry.register(
                Scenario(
                    name=name, kind="attack",
                    location_indices=tuple(range(1, 15)),
                ),
                far,
            )
            assert registry.expectations_for(name) == (far,)
            assert name in registry.names_with_expectations()
            near = Expectation(
                metric="success_probability", kind="upper_bound",
                value=0.5, axes=(2,),
            )
            registry.register(
                Scenario(name=name, kind="attack", location_indices=(1, 2)),
                near,
                allow_replace=True,
            )
            assert registry.expectations_for(name) == (near,)
            registry.register(
                Scenario(name=name, kind="attack", location_indices=(1, 2)),
                allow_replace=True,
            )
            assert registry.expectations_for(name) == ()
            assert name not in registry.names_with_expectations()
        finally:
            registry._REGISTRY.pop(name, None)

    def test_shielded_unshielded_share_the_axis(self):
        """The headline compare: same grid, one flag apart."""
        on = registry.get("attack-success-shielded")
        off = registry.get("attack-success-unshielded")
        assert on.location_indices == off.location_indices
        assert on.n_trials == off.n_trials
        assert on.seed == off.seed
