"""All calibrated shield parameters in one place.

Every number here is either taken directly from the paper or calibrated
by the procedures of S10.1 (reproduced in
:mod:`repro.experiments.calibration`); the docstrings say which.
"""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["ShieldConfig"]


@dataclass
class ShieldConfig:
    """Operating parameters of a shield protecting one IMD."""

    # -- reply-window jamming (S6; values for the tested IMDs) ----------
    #: Lower bound on the IMD's command-to-reply latency.
    t1_s: float = 2.8e-3
    #: Upper bound on the IMD's command-to-reply latency.
    t2_s: float = 3.7e-3
    #: Maximum IMD packet duration P.
    max_packet_s: float = 21e-3

    # -- active detection (S7, calibrated in S10.1(c)) ------------------
    #: Bit-flip tolerance when matching the identifying sequence.
    b_thresh: int = 4
    #: Adversary RSSI (dBm at the shield) above which a jammed command
    #: might still reach the IMD; detections above it raise the alarm.
    #: Calibrated per Table 1 ("3 dB below the minimum RSSI").
    p_thresh_dbm: float = -17.4
    #: RSSI no FCC-compliant device beyond ~35 cm can produce; any
    #: detection above it is flagged as a power anomaly.  Secondary alarm
    #: trigger, an extension beyond the paper's single P_thresh rule
    #: (see EXPERIMENTS.md on the Fig. 13 alarm column).
    anomaly_rssi_dbm: float = -30.0

    # -- radio front end -------------------------------------------------
    #: Shield transmit power for *active* (reactive) jamming: the FCC
    #: MICS limit (S7(d): "the shield must adhere to the FCC power limit
    #: even when jamming an adversary").
    active_jam_tx_dbm: float = -16.0
    #: Transmit power for *passive* jamming of IMD telemetry.  Set by the
    #: S10.1(b) calibration: +20 dB over the IMD power received at the
    #: shield.  Filled in by the testbed builder from the link budget.
    passive_jam_tx_dbm: float = -29.9
    #: Margin of the passive jam over the received IMD power.
    passive_jam_margin_db: float = 20.0
    #: Mean antenna (antidote) cancellation, dB.  Measured at 32 dB on
    #: the paper's prototype (Fig. 7); re-drawn per jam episode.
    antenna_cancellation_db: float = 32.0
    #: Spread of the per-episode antenna cancellation, dB.
    antenna_cancellation_std_db: float = 2.5
    #: Extra digital cancellation of the jamming residue (the shield
    #: knows its own jam exactly).  The paper cites analog/digital
    #: cancellers as a drop-in enhancement (S5); this reproduction needs
    #: ~8 dB here to sit at the paper's Fig. 8(b) operating point.
    digital_cancellation_db: float = 8.0
    #: Relative channel-estimation error of the antidote's probe-based
    #: channel estimates; yields the Fig. 7 cancellation distribution.
    estimation_error_std: float = 0.0237
    #: |H_jam->rec / H_self|: how much weaker the over-the-air jamming
    #: path is than the wired self-loop (S5: about -27 dB on USRP2).
    jam_to_self_ratio_db: float = -27.0

    # -- timing ----------------------------------------------------------
    #: Software turn-around: how long after a trigger the shield starts
    #: or stops jamming (Table 2: 270 +/- 23 us).
    turnaround_s: float = 270e-6
    turnaround_std_s: float = 23e-6

    # -- identifying sequence --------------------------------------------
    #: Bit budget of the streaming S_id window (m); set from the codec by
    #: the testbed builder (preamble + sync + 10-byte serial = 104 bits).
    detection_window_bits: int = 104

    # -- misc --------------------------------------------------------------
    #: Channels the shield monitors; the wideband front end watches the
    #: whole 3 MHz MICS band at once (S7(c)).
    monitored_channels: tuple[int, ...] = tuple(range(10))

    def __post_init__(self) -> None:
        if not 0 < self.t1_s < self.t2_s:
            raise ValueError("need 0 < T1 < T2")
        if self.max_packet_s <= 0:
            raise ValueError("max packet duration must be positive")
        if self.b_thresh < 0:
            raise ValueError("b_thresh cannot be negative")
        if self.turnaround_s <= 0:
            raise ValueError("turnaround must be positive")
        if self.detection_window_bits < 8:
            raise ValueError("detection window is implausibly small")
        if not self.monitored_channels:
            raise ValueError("the shield must monitor at least one channel")
