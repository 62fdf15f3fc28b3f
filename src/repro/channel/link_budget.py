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

:class:`LinkBudget` wraps the power bookkeeping for the simulated
testbed: transmit powers, pathloss, body loss, noise floors, the IMD's
received powers, and the passive jamming power.  The event-level
simulator consumes it; ``tests/test_channel_link_budget.py`` evaluates
the equations above from these powers.
"""

from __future__ import annotations

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

    def passive_jam_tx_dbm(self, margin_db: float = 20.0) -> float:
        """TX power that puts the jam ``margin_db`` over the IMD's signal.

        S10.1(b): "setting the shield's jamming power 20 dB higher than
        the IMD's received power" reduces any eavesdropper to guessing.
        Referenced at the shield's location, so at any eavesdropper the
        jam-to-signal ratio is the same margin (eq. 7).  The result stays
        well under the FCC limit because the IMD's received power is tiny.
        """
        return self.imd_rx_at_shield_dbm() + margin_db
