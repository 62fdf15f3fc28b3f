"""Shield battery accounting (S7(e)).

"In the absence of attacks, the shield jams only the IMD's transmissions,
and hence transmits approximately as often as the IMD ... When the IMD is
under an active attack, the shield will have to transmit as often as the
adversary.  However, since the shield transmits at the FCC power limit
for the MICS band, it can last for a day or longer even if transmitting
continuously."

This meter tallies transmit energy and predicts battery life, so the
battery-life claims become checkable numbers in tests and examples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["EnergyBudget", "ShieldEnergyMeter"]


@dataclass(frozen=True)
class EnergyBudget:
    """Power draw per activity plus battery capacity.

    Defaults model a wearable with a small lithium cell (comparable to
    the continuously transmitting heart-rate monitors the paper cites
    [57], which last 24-48 hours).
    """

    battery_j: float = 14_000.0  # ~ a 1300 mAh cell at 3 V
    tx_power_w: float = 0.10  # radio chain while transmitting/jamming
    rx_power_w: float = 0.05  # receive/monitor chain (always on)
    idle_power_w: float = 0.005  # housekeeping

    def __post_init__(self) -> None:
        if min(self.battery_j, self.tx_power_w, self.rx_power_w) <= 0:
            raise ValueError("energy parameters must be positive")


@dataclass
class ShieldEnergyMeter:
    """Tally energy by activity and predict battery life."""

    budget: EnergyBudget = field(default_factory=EnergyBudget)
    tx_seconds: float = 0.0

    def record_transmission(self, duration_s: float) -> None:
        if duration_s < 0:
            raise ValueError("duration cannot be negative")
        self.tx_seconds += duration_s

    @property
    def energy_spent_j(self) -> float:
        """Energy of the transmissions so far, receive chain included."""
        return self.tx_seconds * (self.budget.tx_power_w + self.budget.rx_power_w)

    def battery_life_hours(self, duty_cycle_tx: float) -> float:
        """Predicted battery life at a given transmit duty cycle.

        ``duty_cycle_tx = 1.0`` is the worst case of S7(e): continuous
        jamming.  The returned figure should comfortably exceed 24 h.
        """
        if not 0.0 <= duty_cycle_tx <= 1.0:
            raise ValueError("duty cycle must be in [0, 1]")
        draw_w = (
            duty_cycle_tx * self.budget.tx_power_w
            + self.budget.rx_power_w
            + self.budget.idle_power_w
        )
        return self.budget.battery_j / draw_w / 3600.0
