"""The paper's SINR equations (6)-(9) as an executable link budget.

S6(b)-(c) derives the central security argument in four equations:

* eq. (6)  ``SINR_A = (P_i - L_i) - (P_j - L_j) - N_A`` -- the
  eavesdropper's SINR as received powers in dB.
* eq. (7)  ``SINR_A = (P_i - L_body) - P_j - N_A`` -- because the shield
  and IMD are co-located, the air losses cancel and the eavesdropper's
  SINR is *independent of its location*.
* eq. (8)  ``SINR_S = (P_i - L_body) - (P_j - G) - N_G`` -- the shield's
  own SINR benefits from the antidote's cancellation ``G``.
* eq. (9)  ``SINR_S = SINR_A + G`` -- the SINR gap between the shield and
  any adversary is exactly the cancellation depth.

:class:`LinkBudget` wraps the whole power bookkeeping for the simulated
testbed: transmit powers, pathloss, body loss, noise floors, and received
powers per link.  Both the event-level simulator and the analytic tests
consume it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.channel.geometry import AdversaryLocation, TestbedGeometry, default_testbed
from repro.channel.models import BodyLoss
from repro.channel.noise import (
    IMD_NOISE_FIGURE_DB,
    RECEIVER_NOISE_FIGURE_DB,
    thermal_noise_dbm,
)

__all__ = [
    "LinkBudget",
    "FCC_MICS_EIRP_DBM",
]

# FCC EIRP limit for MICS devices outside the body: 25 microwatts.
FCC_MICS_EIRP_DBM = -16.0


def _power_sum_dbm(a_dbm: float, b_dbm: float) -> float:
    """Sum two powers expressed in dBm (linear-domain addition)."""
    a = 10.0 ** (a_dbm / 10.0)
    b = 10.0 ** (b_dbm / 10.0)
    return 10.0 * math.log10(a + b)


@dataclass(frozen=True)
class LinkBudget:
    """Full power bookkeeping for the simulated testbed.

    Transmit powers default to the FCC MICS limit for external devices;
    the IMD transmits at the same conducted power but its signal crosses
    the body phantom on the way out.  The shield jams *reactively* at the
    FCC limit (active protection) and jams IMD telemetry at a power
    calibrated +20 dB over its received IMD power (passive protection,
    S10.1(b)).
    """

    geometry: TestbedGeometry = field(default_factory=default_testbed)
    body: BodyLoss = field(default_factory=BodyLoss)
    imd_tx_dbm: float = FCC_MICS_EIRP_DBM
    shield_tx_dbm: float = FCC_MICS_EIRP_DBM
    imd_noise_dbm: float = thermal_noise_dbm(noise_figure_db=IMD_NOISE_FIGURE_DB)
    receiver_noise_dbm: float = thermal_noise_dbm(
        noise_figure_db=RECEIVER_NOISE_FIGURE_DB
    )

    # ------------------------------------------------------------------
    # Received powers, one method per link in the testbed.
    # ------------------------------------------------------------------

    def imd_rx_at_shield_dbm(self) -> float:
        """IMD telemetry as received by the shield (body + short air hop)."""
        return (
            self.imd_tx_dbm
            - self.body.loss_db
            - self.geometry.shield_to_imd_loss_db()
        )

    def imd_rx_at_location_dbm(self, location: AdversaryLocation) -> float:
        """IMD telemetry as received at an adversary location."""
        return (
            self.imd_tx_dbm
            - self.body.loss_db
            - self.geometry.air_loss_to_imd_db(location)
        )

    def shield_jam_at_imd_dbm(self) -> float:
        """The shield's reactive jamming as received by the IMD."""
        return (
            self.shield_tx_dbm
            - self.geometry.shield_to_imd_loss_db()
            - self.body.loss_db
        )

    def attacker_rx_at_imd_dbm(
        self, location: AdversaryLocation, tx_dbm: float
    ) -> float:
        """An attacker's command signal as received by the IMD."""
        return (
            tx_dbm - self.geometry.air_loss_to_imd_db(location) - self.body.loss_db
        )

    def attacker_rx_at_shield_dbm(
        self, location: AdversaryLocation, tx_dbm: float
    ) -> float:
        """An attacker's signal as received by the shield (no body loss).

        This is the RSSI the shield's P_thresh alarm rule looks at
        (S7(d), Table 1).
        """
        return tx_dbm - self.geometry.air_loss_to_shield_db(location)

    # ------------------------------------------------------------------
    # SINRs for the paper's equations.
    # ------------------------------------------------------------------

    def imd_snr_from_attacker_db(
        self, location: AdversaryLocation, tx_dbm: float
    ) -> float:
        """SNR of an attacker's command at the IMD, jamming absent."""
        return self.attacker_rx_at_imd_dbm(location, tx_dbm) - self.imd_noise_dbm

    def imd_sir_attacker_vs_jam_db(
        self, location: AdversaryLocation, tx_dbm: float
    ) -> float:
        """SIR of an attacker's command at the IMD while the shield jams."""
        return self.attacker_rx_at_imd_dbm(location, tx_dbm) - _power_sum_dbm(
            self.shield_jam_at_imd_dbm(), self.imd_noise_dbm
        )

    def eavesdropper_sinr_db(
        self, location: AdversaryLocation, passive_jam_tx_dbm: float
    ) -> float:
        """Eq. (6) evaluated for a concrete location.

        The result barely varies with location (eq. 7's point); the unit
        tests assert the spread across all 18 locations is under 1 dB.
        """
        signal = self.imd_rx_at_location_dbm(location)
        jam = passive_jam_tx_dbm - self.geometry.air_loss_to_shield_db(location)
        return signal - _power_sum_dbm(jam, self.receiver_noise_dbm)

    def shield_decode_sinr_db(
        self, passive_jam_rx_dbm: float, cancellation_db: float
    ) -> float:
        """Eq. (8) at the shield: IMD signal against the jamming residue.

        ``passive_jam_rx_dbm`` is the jamming power as seen at the
        shield's receive antenna *before* the antidote acts.
        """
        signal = self.imd_rx_at_shield_dbm()
        residual = passive_jam_rx_dbm - cancellation_db
        return signal - _power_sum_dbm(residual, self.receiver_noise_dbm)

    def passive_jam_tx_dbm(self, margin_db: float = 20.0) -> float:
        """TX power that puts the jam ``margin_db`` over the IMD's signal.

        S10.1(b): "setting the shield's jamming power 20 dB higher than
        the IMD's received power" reduces any eavesdropper to guessing.
        Referenced at the shield's location, so at any eavesdropper the
        jam-to-signal ratio is the same margin (eq. 7).  The result stays
        well under the FCC limit because the IMD's received power is tiny.
        """
        return self.imd_rx_at_shield_dbm() + margin_db
