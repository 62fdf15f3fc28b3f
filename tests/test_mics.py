"""Tests for the MICS band plan, FCC rules, and channel occupancy."""

import pytest

from repro.mics.band import MICSBand, MICSChannel
from repro.mics.channel_plan import ChannelPlan
from repro.mics.regulations import FCCRules


class TestBand:
    def test_ten_channels(self):
        """S2: the 402-405 MHz band divides into 300 kHz channels."""
        assert MICSBand().n_channels == 10

    def test_channel_centres_inside_band(self):
        band = MICSBand()
        for ch in band.channels():
            assert band.low_hz < ch.center_hz < band.high_hz

    def test_channels_tile_without_overlap(self):
        band = MICSBand()
        chans = band.channels()
        for a, b in zip(chans, chans[1:]):
            assert a.high_hz == pytest.approx(b.low_hz)

    def test_frequency_lookup(self):
        band = MICSBand()
        ch = band.channel_for_frequency(402.95e6)
        assert ch.contains(402.95e6)

    def test_frequency_lookup_out_of_band(self):
        with pytest.raises(ValueError):
            MICSBand().channel_for_frequency(406e6)

    def test_channel_index_bounds(self):
        with pytest.raises(IndexError):
            MICSBand().channel(10)

    def test_non_integer_channel_count_rejected(self):
        with pytest.raises(ValueError):
            MICSBand(low_hz=402e6, high_hz=402.5e6, channel_bandwidth_hz=300e3)

    def test_channel_validation(self):
        with pytest.raises(ValueError):
            MICSChannel(-1, 402e6)


class TestRules:
    def test_external_cap_is_25_microwatts(self):
        assert FCCRules().external_eirp_dbm == pytest.approx(-16.0)

    def test_implant_20db_lower(self):
        """S10.1(b): implanted devices transmit 20 dB below external."""
        rules = FCCRules()
        assert rules.max_tx_power_dbm(implanted=True) == pytest.approx(-36.0)

    def test_lbt_is_10ms(self):
        assert FCCRules().listen_before_talk_s == pytest.approx(0.010)

    def test_imd_never_initiates(self):
        assert FCCRules().imd_initiates is False

    def test_compliance_check(self):
        rules = FCCRules()
        assert rules.is_compliant_power(-16.0)
        assert not rules.is_compliant_power(-15.0)
        assert rules.is_compliant_power(-36.0, implanted=True)
        assert not rules.is_compliant_power(-30.0, implanted=True)


class TestChannelPlan:
    def test_pick_first_idle(self):
        plan = ChannelPlan()
        assert plan.pick_channel(at_time_s=0.0) == 0

    def test_occupied_channels_skipped(self):
        plan = ChannelPlan()
        plan.occupy(0, until_time_s=5.0)
        plan.occupy(1, until_time_s=5.0)
        assert plan.pick_channel(at_time_s=1.0) == 2

    def test_occupancy_expires(self):
        plan = ChannelPlan()
        plan.occupy(0, until_time_s=2.0)
        assert not plan.is_idle(0, at_time_s=1.0)
        assert plan.is_idle(0, at_time_s=2.0)

    def test_release(self):
        plan = ChannelPlan()
        plan.occupy(3, until_time_s=100.0)
        plan.release(3)
        assert plan.is_idle(3, at_time_s=0.0)

    def test_occupy_extends_not_shrinks(self):
        plan = ChannelPlan()
        plan.occupy(0, until_time_s=10.0)
        plan.occupy(0, until_time_s=5.0)
        assert not plan.is_idle(0, at_time_s=7.0)

    def test_all_busy_raises(self):
        plan = ChannelPlan()
        for i in range(plan.band.n_channels):
            plan.occupy(i, until_time_s=10.0)
        with pytest.raises(RuntimeError):
            plan.pick_channel(at_time_s=0.0)

    def test_invalid_channel_rejected(self):
        with pytest.raises(IndexError):
            ChannelPlan().occupy(42, until_time_s=1.0)
