"""Tests for noise floors and the Fig. 6 testbed geometry."""

import pytest

from repro.channel.geometry import (
    AdversaryLocation,
    Position,
    TestbedGeometry,
    default_testbed,
)
from repro.channel.noise import (
    IMD_NOISE_FIGURE_DB,
    MICS_CHANNEL_BANDWIDTH_HZ,
    thermal_noise_dbm,
)


class TestNoise:
    def test_ktb_over_300khz(self):
        # kTB at 290 K over 300 kHz: -174 dBm/Hz + 10 log10(3e5) ~ -119.2 dBm.
        assert thermal_noise_dbm() == pytest.approx(-119.2, abs=0.2)

    def test_noise_figure_adds(self):
        base = thermal_noise_dbm()
        assert thermal_noise_dbm(noise_figure_db=7.0) == pytest.approx(base + 7.0)

    def test_bandwidth_scaling(self):
        narrow = thermal_noise_dbm(bandwidth_hz=MICS_CHANNEL_BANDWIDTH_HZ / 10)
        assert thermal_noise_dbm() - narrow == pytest.approx(10.0, abs=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(bandwidth_hz=0)
        with pytest.raises(ValueError):
            thermal_noise_dbm(noise_figure_db=-1)
        with pytest.raises(ValueError):
            thermal_noise_dbm(temperature_k=0)

    def test_imd_receiver_noisier_than_sdr(self):
        assert IMD_NOISE_FIGURE_DB > 7.0


class TestPosition:
    def test_distance(self):
        assert Position(0, 0).distance_to(Position(3, 4)) == pytest.approx(5.0)


class TestAdversaryLocation:
    def test_validation(self):
        with pytest.raises(ValueError):
            AdversaryLocation(0, 1.0, True)
        with pytest.raises(ValueError):
            AdversaryLocation(1, -1.0, True)
        with pytest.raises(ValueError):
            AdversaryLocation(1, 1.0, False, -2.0)

    def test_los_cannot_carry_obstruction(self):
        with pytest.raises(ValueError):
            AdversaryLocation(1, 1.0, True, 10.0)

    def test_position_distance_consistent(self):
        loc = AdversaryLocation(3, 7.5, True)
        origin = Position(0.0, 0.0)
        assert loc.position().distance_to(origin) == pytest.approx(7.5)


class TestTestbedGeometry:
    def test_eighteen_locations(self):
        assert len(default_testbed().locations) == 18

    def test_rssi_ordering_matches_numbering(self):
        """Fig. 6: locations are 'numbered in descending order of
        received signal strength at the shield'."""
        testbed = default_testbed()
        losses = [testbed.air_loss_to_shield_db(loc) for loc in testbed.locations]
        assert all(a < b for a, b in zip(losses, losses[1:]))

    def test_location_1_at_20cm(self):
        """The paper's closest adversary is 20 cm away."""
        assert default_testbed().location(1).distance_m == pytest.approx(0.2)

    def test_location_8_near_14m(self):
        """Fig. 11: FCC-power attacks succeed 'up to 14 meters away
        (location 8)'."""
        assert default_testbed().location(8).distance_m == pytest.approx(14.0)

    def test_location_13_near_27m(self):
        """Fig. 13: high-power attacks reach 'as far as 27 meters
        (location 13)'."""
        assert default_testbed().location(13).distance_m == pytest.approx(27.0)

    def test_span_20cm_to_30m(self):
        """S9: 'We varied the adversary's location between 20 cm and 30 m'."""
        distances = [loc.distance_m for loc in default_testbed().locations]
        assert min(distances) == pytest.approx(0.2)
        assert max(distances) == pytest.approx(30.0)

    def test_mixes_los_and_nlos(self):
        flags = {loc.line_of_sight for loc in default_testbed().locations}
        assert flags == {True, False}

    def test_lookup_unknown_location(self):
        with pytest.raises(KeyError):
            default_testbed().location(99)

    def test_shield_closer_than_any_adversary(self):
        """Threat model (S3.2): every adversary is farther from the IMD
        than the shield."""
        g = default_testbed()
        assert all(
            loc.distance_m > g.shield_to_imd_m for loc in g.locations
        )

    def test_antenna_separation_well_under_half_wavelength(self):
        """The design claim: antennas sit next to each other, far below
        the 37.5 cm half-wavelength prior work required."""
        g = default_testbed()
        assert g.antenna_separation_m < 0.375 / 2

    def test_duplicate_indices_rejected(self):
        loc = AdversaryLocation(1, 1.0, True)
        with pytest.raises(ValueError):
            TestbedGeometry(locations=(loc, loc))

    def test_validation(self):
        with pytest.raises(ValueError):
            TestbedGeometry(shield_to_imd_m=0.0)
        with pytest.raises(ValueError):
            TestbedGeometry(antenna_separation_m=-1.0)
