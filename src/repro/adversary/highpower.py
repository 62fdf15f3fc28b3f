"""The high-powered adversary of S10.3(b) / Fig. 13.

"A more sophisticated adversary ... can customize the hardware to
transmit at a higher power than the FCC allows" and "may use MIMO or
directional antennas" (S3.2).  This attacker transmits at 100x the
shield's power (+20 dB) through a directional antenna, which is what lets
it occasionally beat the shield's jamming from nearby line-of-sight
locations -- the intrinsic limitation the paper quantifies.
"""

from __future__ import annotations

from repro.adversary.active import CommandInjector
from repro.protocol.packets import PacketCodec
from repro.sim.engine import Simulator

__all__ = ["HighPowerAttacker", "HIGH_POWER_FACTOR_DB", "DEFAULT_ANTENNA_GAIN_DBI"]

#: "an adversary with 100 times the shield's power" (S1, S10.3(b)).
HIGH_POWER_FACTOR_DB = 20.0

#: Directional antenna gain of the custom hardware; a modest Yagi.
DEFAULT_ANTENNA_GAIN_DBI = 10.0


class HighPowerAttacker(CommandInjector):
    """Command injector with a power amplifier and a directional antenna."""

    def __init__(
        self,
        simulator: Simulator,
        channel: int,
        shield_tx_power_dbm: float = -16.0,
        antenna_gain_dbi: float = DEFAULT_ANTENNA_GAIN_DBI,
        codec: PacketCodec | None = None,
        name: str = "adversary",
    ):
        if antenna_gain_dbi < 0:
            raise ValueError("antenna gain cannot be negative")
        eirp = shield_tx_power_dbm + HIGH_POWER_FACTOR_DB + antenna_gain_dbi
        super().__init__(
            simulator, channel, tx_power_dbm=eirp, codec=codec, name=name
        )
        self.antenna_gain_dbi = antenna_gain_dbi
