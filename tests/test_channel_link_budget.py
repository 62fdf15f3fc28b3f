"""Tests for the paper's SINR equations (6)-(9) as implemented."""

import pytest

from repro.channel.link_budget import FCC_MICS_EIRP_DBM, LinkBudget


@pytest.fixture
def budget() -> LinkBudget:
    return LinkBudget()


class TestLocationIndependence:
    def test_eavesdropper_sinr_spread_under_1db_where_jam_dominates(self, budget):
        """The operational form of eq. 7: wherever the jamming dominates
        the eavesdropper's thermal noise (every location out to ~20 m),
        the SINR is the same to within 1 dB regardless of distance."""
        jam_tx = budget.passive_jam_tx_dbm()
        jam_limited = [
            loc
            for loc in budget.geometry.locations
            if jam_tx - budget.geometry.air_loss_to_shield_db(loc)
            > budget.receiver_noise_dbm + 10.0
        ]
        assert len(jam_limited) >= 10  # covers the bulk of the testbed
        sinrs = [budget.eavesdropper_sinr_db(loc, jam_tx) for loc in jam_limited]
        assert max(sinrs) - min(sinrs) < 1.0

    def test_eavesdropper_sinr_deeply_negative_everywhere(self, budget):
        """At the +20 dB operating point every eavesdropper sits at or
        below ~-14 dB SINR -- far inside the coin-flip regime.  Beyond
        the jam-limited region its own noise floor pushes SINR even
        lower, so confidentiality only improves with distance."""
        jam_tx = budget.passive_jam_tx_dbm()
        for loc in budget.geometry.locations:
            assert budget.eavesdropper_sinr_db(loc, jam_tx) < -13.0


class TestReceivedPowers:
    def test_imd_rx_monotone_with_location(self, budget):
        powers = [
            budget.imd_rx_at_location_dbm(loc) for loc in budget.geometry.locations
        ]
        assert all(a > b for a, b in zip(powers, powers[1:]))

    def test_shield_hears_imd_better_than_any_adversary(self, budget):
        at_shield = budget.imd_rx_at_shield_dbm()
        for loc in budget.geometry.locations:
            assert at_shield > budget.imd_rx_at_location_dbm(loc)

    def test_attacker_rssi_at_shield_excludes_body_loss(self, budget):
        loc = budget.geometry.location(1)
        at_shield = budget.attacker_rx_at_shield_dbm(loc, -16.0)
        at_imd = budget.attacker_rx_at_imd_dbm(loc, -16.0)
        assert at_shield - at_imd == pytest.approx(budget.body.loss_db)

    def test_unprotected_range_boundary_near_14m(self, budget):
        """Calibration check: an FCC adversary's SNR at the IMD crosses
        the decode threshold (~10 dB effective) around location 8 (14 m),
        matching Fig. 11."""
        snr_8 = budget.imd_snr_from_attacker_db(
            budget.geometry.location(8), FCC_MICS_EIRP_DBM
        )
        snr_9 = budget.imd_snr_from_attacker_db(
            budget.geometry.location(9), FCC_MICS_EIRP_DBM
        )
        assert 8.0 < snr_8 < 14.0
        assert snr_9 < snr_8 - 4

    def test_fcc_attacker_cannot_beat_jamming_anywhere(self, budget):
        """Fig. 11/12 'shield present' row: at every location the
        FCC-power adversary's SIR at the IMD is below any plausible
        decode threshold."""
        for loc in budget.geometry.locations:
            sir = budget.imd_sir_attacker_vs_jam_db(loc, FCC_MICS_EIRP_DBM)
            assert sir < 0.0

    def test_highpower_attacker_beats_jamming_only_nearby(self, budget):
        """Fig. 13 'shield present' row: a +30 dB EIRP advantage wins the
        capture race only at the closest locations."""
        eirp = FCC_MICS_EIRP_DBM + 30.0
        sir_1 = budget.imd_sir_attacker_vs_jam_db(budget.geometry.location(1), eirp)
        sir_8 = budget.imd_sir_attacker_vs_jam_db(budget.geometry.location(8), eirp)
        assert sir_1 > 10.0
        assert sir_8 < 0.0

    def test_passive_jam_tx_below_fcc_limit(self, budget):
        """S10.1(b): the +20 dB jamming margin still complies with FCC
        rules because the IMD's received power is so low."""
        assert budget.passive_jam_tx_dbm() < FCC_MICS_EIRP_DBM

    def test_shield_decode_sinr_comfortable(self, budget):
        """Eq. 8 at the operating point: ~20 dB SINR at the shield."""
        jam_rx = budget.imd_rx_at_shield_dbm() + 20.0
        sinr = budget.shield_decode_sinr_db(jam_rx, cancellation_db=40.0)
        assert sinr == pytest.approx(20.0, abs=1.0)
