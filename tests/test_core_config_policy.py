"""Tests for ShieldConfig and the jam-window / alarm policies."""

import pytest

from repro.core.config import ShieldConfig
from repro.core.policy import AlarmPolicy, JamWindow, JamWindowPolicy
from repro.experiments.testbed import AttackTestbed


def _covers(window: JamWindow, t0: float, t1: float) -> bool:
    """Whether the window jams all of [t0, t1]."""
    return window.start_time <= t0 and t1 <= window.end_time


def _covers_reply(policy, command_end, reply_delay, reply_duration) -> bool:
    """Whether a reply with this timing falls inside the jam window."""
    start = command_end + reply_delay
    return _covers(
        policy.window_after(command_end), start, start + reply_duration
    )


class TestShieldConfig:
    def test_paper_timing_defaults(self):
        """S6: T1 = 2.8 ms, T2 = 3.7 ms, P = 21 ms for the tested IMDs."""
        cfg = ShieldConfig()
        assert cfg.t1_s == pytest.approx(2.8e-3)
        assert cfg.t2_s == pytest.approx(3.7e-3)
        assert cfg.max_packet_s == pytest.approx(21e-3)

    def test_jam_window_duration(self):
        """S6: the shield jams for (T2 - T1) + P."""
        window = JamWindowPolicy.from_config(ShieldConfig()).window_after(0.0)
        assert window.duration == pytest.approx(0.9e-3 + 21e-3)

    def test_b_thresh_default(self):
        """S10.1(c): b_thresh = 4."""
        assert ShieldConfig().b_thresh == 4

    def test_turnaround_default(self):
        """Table 2: 270 +/- 23 us."""
        cfg = ShieldConfig()
        assert cfg.turnaround_s == pytest.approx(270e-6)
        assert cfg.turnaround_std_s == pytest.approx(23e-6)

    def test_antenna_cancellation_default(self):
        """Fig. 7: ~32 dB mean cancellation."""
        assert ShieldConfig().antenna_cancellation_db == pytest.approx(32.0)

    def test_active_jam_at_fcc_limit(self):
        """S7(d): the shield obeys the FCC cap even while jamming."""
        assert ShieldConfig().active_jam_tx_dbm == pytest.approx(-16.0)

    def test_monitors_whole_band(self):
        """S7(c): the shield watches all ten MICS channels."""
        assert set(ShieldConfig().monitored_channels) == set(range(10))

    def test_total_cancellation(self):
        # The shield's full-duplex rejection is antenna plus digital.
        cfg = ShieldConfig(
            antenna_cancellation_db=32.0,
            digital_cancellation_db=8.0,
            antenna_cancellation_std_db=0.0,
        )
        bed = AttackTestbed(location_index=1, shield_config=cfg)
        assert bed.shield.full_duplex_rejection_db == pytest.approx(40.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            ShieldConfig(t1_s=5e-3, t2_s=3e-3)
        with pytest.raises(ValueError):
            ShieldConfig(b_thresh=-1)
        with pytest.raises(ValueError):
            ShieldConfig(turnaround_s=0)
        with pytest.raises(ValueError):
            ShieldConfig(monitored_channels=())
        with pytest.raises(ValueError):
            ShieldConfig(detection_window_bits=2)


class TestJamWindowPolicy:
    def test_window_geometry(self):
        policy = JamWindowPolicy()
        window = policy.window_after(command_end_time=1.0)
        assert window.start_time == pytest.approx(1.0 + 2.8e-3)
        assert window.duration == pytest.approx(0.9e-3 + 21e-3)

    def test_covers_every_legal_reply(self):
        """Any reply delayed within [T1, T2] and up to P long must fall
        fully inside the jam window -- the S6 guarantee."""
        policy = JamWindowPolicy()
        for delay in (2.8e-3, 3.0e-3, 3.5e-3, 3.7e-3):
            for duration in (1e-3, 10e-3, 21e-3):
                assert _covers_reply(policy, 0.0, delay, duration), (
                    delay, duration,
                )

    def test_does_not_cover_early_reply(self):
        policy = JamWindowPolicy()
        assert not _covers_reply(policy, 0.0, 1.0e-3, 5e-3)

    def test_does_not_cover_oversized_reply(self):
        policy = JamWindowPolicy()
        assert not _covers_reply(policy, 0.0, 3.7e-3, 25e-3)

    def test_from_config(self):
        cfg = ShieldConfig()
        policy = JamWindowPolicy.from_config(cfg)
        assert policy.t1_s == cfg.t1_s

    def test_validation(self):
        with pytest.raises(ValueError):
            JamWindowPolicy(t1_s=2e-3, t2_s=1e-3)
        with pytest.raises(ValueError):
            JamWindowPolicy(max_packet_s=0)


class TestJamWindow:
    def test_covers(self):
        w = JamWindow(1.0, 0.5)
        assert _covers(w, 1.1, 1.4)
        assert not _covers(w, 0.9, 1.2)
        assert not _covers(w, 1.2, 1.6)


class TestAlarmPolicy:
    def test_records_events(self):
        alarms = AlarmPolicy()
        alarms.raise_alarm(1.0, -10.0, "above-p-thresh")
        alarms.raise_alarm(2.0, -5.0, "power-anomaly")
        assert alarms.alarm_count == 2
        assert alarms.events[0].reason == "above-p-thresh"
