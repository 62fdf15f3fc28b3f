"""Waveform-level jammer-cum-receiver front end (S5, Fig. 2).

Two antennas: the jamming antenna transmits the shaped noise, the receive
antenna is wired to *both* a transmit chain (sending the antidote) and a
receive chain.  This module simulates that front end sample-by-sample:

* the self-loop channel ``H_self`` (a wire: strong, stable) and the
  air path ``H_jam->rec`` (weaker by ``jam_to_self_ratio_db``, -27 dB on
  the paper's USRP2 prototype);
* channel estimates carrying the error a finite-SNR probe leaves;
* antidote synthesis and the resulting cancellation (Fig. 7 measures its
  distribution);
* optionally a digital second stage: the shield knows ``j(t)`` exactly,
  so it can subtract a least-squares fit of the residual from the
  digitised samples (the paper points at Choi et al.'s analog/digital
  cancellers for the same role).

The micro-benchmarks drive this class directly; the event-level
:class:`~repro.core.shield.ShieldRadio` summarises it as a per-episode
cancellation draw.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.antidote import residual_gain
from repro.core.config import ShieldConfig
from repro.phy.signal import Waveform, db_to_linear, linear_to_db

__all__ = ["FrontEndChannels", "JammerCumReceiver", "batch_effective_jam_gains"]


def batch_effective_jam_gains(
    config: ShieldConfig,
    rng: np.random.Generator,
    count: int,
    use_digital: bool = False,
    relative_std: float | None = None,
) -> np.ndarray:
    """Per-trial effective jam gains for a whole batch of front ends.

    Each entry is what one fresh :class:`JammerCumReceiver` -- random
    channels, probe-quality estimates, antidote engaged -- would multiply
    the jam by at its receive antenna: the residual gain of eq. 2-4,
    optionally deepened by the digital second stage.  Drawing ``count``
    front ends at once is the batched equivalent of the per-packet
    ``FrontEndChannels.draw`` + ``set_estimation_error`` + ``received``
    chain the waveform lab used to run in a Python loop.
    """
    if count <= 0:
        raise ValueError("need at least one front end in a batch")
    std = config.estimation_error_std if relative_std is None else relative_std
    if std < 0:
        raise ValueError("relative error std cannot be negative")
    self_phase = rng.uniform(0.0, 2.0 * math.pi, size=count)
    air_phase = rng.uniform(0.0, 2.0 * math.pi, size=count)
    air_magnitude = math.sqrt(db_to_linear(config.jam_to_self_ratio_db))
    h_self = np.exp(1j * self_phase)
    h_air = air_magnitude * np.exp(1j * air_phase)
    error_scale = std / math.sqrt(2.0)
    err_self = error_scale * (
        rng.standard_normal(count) + 1j * rng.standard_normal(count)
    )
    err_air = error_scale * (
        rng.standard_normal(count) + 1j * rng.standard_normal(count)
    )
    est_self = h_self * (1.0 + err_self)
    est_air = h_air * (1.0 + err_air)
    if np.any(est_self == 0):
        raise ValueError("estimated H_self cannot be zero")
    effective = h_air - h_self * (est_air / est_self)
    if use_digital:
        effective = effective * math.sqrt(
            db_to_linear(-config.digital_cancellation_db)
        )
    return effective


@dataclass(frozen=True)
class FrontEndChannels:
    """The two channels of eq. 1: the self loop and the antenna-to-antenna
    air path."""

    h_self: complex
    h_jam_to_rec: complex

    def ratio_db(self) -> float:
        """``|H_jam->rec / H_self|`` in dB -- must be well below 0 dB for
        the off-antenna cancellation impossibility argument (eq. 5)."""
        return linear_to_db(abs(self.h_jam_to_rec / self.h_self) ** 2)

    @staticmethod
    def draw(
        config: ShieldConfig, rng: np.random.Generator
    ) -> "FrontEndChannels":
        """Random-phase channels with the configured magnitude ratio."""
        self_phase = rng.uniform(0, 2 * math.pi)
        air_phase = rng.uniform(0, 2 * math.pi)
        air_magnitude = math.sqrt(db_to_linear(config.jam_to_self_ratio_db))
        return FrontEndChannels(
            h_self=complex(math.cos(self_phase), math.sin(self_phase)),
            h_jam_to_rec=air_magnitude
            * complex(math.cos(air_phase), math.sin(air_phase)),
        )


class JammerCumReceiver:
    """Simulated two-antenna full-duplex front end."""

    def __init__(
        self,
        config: ShieldConfig | None = None,
        rng: np.random.Generator | None = None,
        channels: FrontEndChannels | None = None,
    ):
        self.config = config or ShieldConfig()
        self.rng = rng or np.random.default_rng(0)
        self.channels = channels or FrontEndChannels.draw(self.config, self.rng)
        self._estimates: tuple[complex, complex] | None = None

    # ------------------------------------------------------------------
    # Channel estimation
    # ------------------------------------------------------------------

    def set_estimation_error(self, relative_std: float | None = None) -> None:
        """Draw channel estimates with a given relative error.

        Estimates are the true channels perturbed by complex Gaussian
        relative error -- what probing at finite SNR leaves (default:
        the configured ``estimation_error_std``, calibrated to reproduce
        the ~32 dB mean cancellation of Fig. 7).
        """
        std = self.config.estimation_error_std if relative_std is None else relative_std
        if std < 0:
            raise ValueError("relative error std cannot be negative")

        def perturb(h: complex) -> complex:
            error = std / math.sqrt(2) * complex(
                self.rng.standard_normal(), self.rng.standard_normal()
            )
            return h * (1 + error)

        self._estimates = (
            perturb(self.channels.h_self),
            perturb(self.channels.h_jam_to_rec),
        )

    # ------------------------------------------------------------------
    # Receive while jamming
    # ------------------------------------------------------------------

    def received(
        self,
        jam: Waveform,
        external: Waveform | None = None,
        noise_power: float = 0.0,
        use_antidote: bool = True,
        use_digital: bool = False,
    ) -> Waveform:
        """What the receive chain digitises while the shield jams.

        ``external`` is the already-channel-scaled signal arriving from
        the world (e.g. the IMD's packet at the shield); the jam arrives
        through ``H_jam->rec``; the antidote through ``H_self``.
        """
        est_self, est_air = self._require_estimates()
        if use_antidote:
            effective = residual_gain(
                self.channels.h_jam_to_rec, self.channels.h_self, est_air, est_self
            )
        else:
            effective = self.channels.h_jam_to_rec
        if use_digital:
            effective *= math.sqrt(
                db_to_linear(-self.config.digital_cancellation_db)
            )
        parts = jam.scaled(effective)
        if external is not None:
            if len(external) < len(jam):
                external = external.padded_to(len(jam))
            parts = Waveform(
                parts.samples + external.samples[: len(parts)], parts.sample_rate
            )
        if noise_power > 0:
            parts = parts.with_noise(noise_power, self.rng)
        return parts

    def cancellation_db(self, jam: Waveform) -> float:
        """Measure the antidote's cancellation as Fig. 7 does.

        Received jamming power without the antidote versus with it; the
        dB difference is the nulling amount whose CDF Fig. 7 plots.
        """
        without = self.received(jam, use_antidote=False).power()
        with_antidote = self.received(jam, use_antidote=True).power()
        if with_antidote <= 0:
            raise ValueError("perfect cancellation is unphysical; check estimates")
        return linear_to_db(without / with_antidote)

    def _require_estimates(self) -> tuple[complex, complex]:
        if self._estimates is None:
            # Default: estimates at the configured calibration quality.
            self.set_estimation_error()
        assert self._estimates is not None
        return self._estimates
