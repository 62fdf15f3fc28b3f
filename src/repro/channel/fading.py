"""Small-scale fading and shadowing models.

Per-packet channel variation is what turns the sharp SINR thresholds of
the link budget into the graded success probabilities the paper measures
(e.g. the 0.94 / 0.77 / 0.59 tail of Fig. 11).  Line-of-sight links fade
Rician (strong direct path plus scatter); obstructed links fade Rayleigh.
Slow lognormal shadowing is drawn per packet as well, standing in for the
cart-position and orientation variation of a physical testbed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = ["rayleigh_gain", "rician_gain", "FadingModel"]


def rayleigh_gain(rng: np.random.Generator) -> complex:
    """Unit-mean-power Rayleigh (NLOS) complex channel gain."""
    return complex(
        rng.standard_normal() + 1j * rng.standard_normal()
    ) / math.sqrt(2.0)


def rician_gain(k_factor_db: float, rng: np.random.Generator) -> complex:
    """Unit-mean-power Rician complex gain with the given K factor.

    ``K`` is the power ratio of the direct path to the scattered paths;
    large K approaches a deterministic channel, K -> -inf dB approaches
    Rayleigh.
    """
    if math.isinf(k_factor_db) and k_factor_db > 0:
        return 1.0 + 0.0j
    k = 10.0 ** (k_factor_db / 10.0)
    direct = math.sqrt(k / (k + 1.0))
    scatter_scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
    scatter = scatter_scale * (rng.standard_normal() + 1j * rng.standard_normal())
    return complex(direct + scatter)


@dataclass(frozen=True)
class FadingModel:
    """Per-packet channel variation: fast fading plus lognormal shadowing.

    Parameters
    ----------
    los_k_factor_db:
        Rician K factor for line-of-sight links.
    shadowing_sigma_db:
        Standard deviation of the lognormal shadowing term.
    enabled:
        When False the model is a deterministic 0 dB / unity channel;
        used by tests and calibration sweeps that need repeatability.
    """

    los_k_factor_db: float = 10.0
    shadowing_sigma_db: float = 3.0
    enabled: bool = True

    def __post_init__(self) -> None:
        if self.shadowing_sigma_db < 0:
            raise ValueError("shadowing sigma cannot be negative")

    def gain_db_batch(
        self, line_of_sight: bool, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """``count`` combined fading + shadowing gains in dB (mean ~ 0 dB).

        The event simulator draws a fading term per (transmission,
        receiver); drawing the normals in one vector pass keeps that off
        the scalar-RNG hot path.
        """
        if count <= 0:
            raise ValueError("count must be positive")
        if not self.enabled:
            return np.zeros(count)
        z = rng.standard_normal((count, 3))
        if line_of_sight:
            if math.isinf(self.los_k_factor_db) and self.los_k_factor_db > 0:
                fast_power = np.ones(count)
            else:
                k = 10.0 ** (self.los_k_factor_db / 10.0)
                direct = math.sqrt(k / (k + 1.0))
                scatter_scale = math.sqrt(1.0 / (2.0 * (k + 1.0)))
                fast_power = (direct + scatter_scale * z[:, 0]) ** 2 + (
                    scatter_scale * z[:, 1]
                ) ** 2
        else:
            fast_power = (z[:, 0] ** 2 + z[:, 1] ** 2) / 2.0
        fast_power = np.maximum(fast_power, 1e-12)
        return 10.0 * np.log10(fast_power) + self.shadowing_sigma_db * z[:, 2]


#: A fading model that always returns 0 dB -- useful for deterministic tests.
NO_FADING = FadingModel(enabled=False)
