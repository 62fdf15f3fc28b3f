"""RF channel substrate: propagation, fading, noise, geometry, link budget.

This package supplies what the paper's bacon-and-beef testbed supplied:
the gains and losses between every transmitter and receiver.  Pathloss
follows a dual-slope log-distance model with per-location wall losses for
non-line-of-sight placements; the signal additionally crosses the body
phantom (S9: 1 cm bacon + 4 cm ground beef) on any path into or out of
the IMD.  :mod:`repro.channel.link_budget` evaluates the paper's SINR
equations (6)-(9).
"""

from repro.channel.fading import FadingModel
from repro.channel.geometry import (
    AdversaryLocation,
    Position,
    TestbedGeometry,
    default_testbed,
)
from repro.channel.link_budget import LinkBudget
from repro.channel.models import (
    BodyLoss,
    DualSlopePathLoss,
    free_space_path_loss_db,
)
from repro.channel.noise import thermal_noise_dbm

__all__ = [
    "AdversaryLocation",
    "BodyLoss",
    "DualSlopePathLoss",
    "FadingModel",
    "LinkBudget",
    "Position",
    "TestbedGeometry",
    "default_testbed",
    "free_space_path_loss_db",
    "thermal_noise_dbm",
]
