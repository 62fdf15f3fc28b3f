"""Wideband channelizer: the shield's whole-band front end (S7(c)).

"The shield can listen to the entire 3 MHz MICS band ... It is fairly
simple to build such a device by making the radio front end as wide as
3 MHz and equipping the device with per-channel filters.  This enables
the shield to process the signals from all channels in the MICS band
simultaneously."

This module is that front end at the waveform level: given one wideband
capture sampled across the whole band, it mixes each 300 kHz channel to
baseband, low-pass filters it, and decimates to the per-channel rate the
narrowband demodulators expect.  The inverse direction (placing a
narrowband signal into a wideband composite) is provided for building
test scenarios with simultaneous multi-channel adversaries.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.mics.band import MICSBand
from repro.phy.signal import Waveform

__all__ = ["WidebandChannelizer"]


@dataclass(frozen=True)
class WidebandChannelizer:
    """Split a whole-band capture into per-channel baseband streams.

    Parameters
    ----------
    band:
        The MICS band plan (ten 300 kHz channels by default).
    channel_rate:
        Output sample rate per channel; the wideband rate must be an
        integer multiple of it.  Default 600 kHz, matching the
        narrowband modems.
    wideband_rate:
        Input sample rate of the wideband capture.  Default 6 MHz
        (2x the 3 MHz band, leaving filter headroom).
    """

    band: MICSBand = MICSBand()
    channel_rate: float = 600e3
    wideband_rate: float = 6e6
    filter_taps: int = 127

    def __post_init__(self) -> None:
        if self.wideband_rate < self.band.total_bandwidth_hz:
            raise ValueError("wideband rate cannot undersample the band")
        if self.wideband_rate % self.channel_rate != 0:
            raise ValueError(
                "wideband rate must be an integer multiple of the channel rate"
            )

    @property
    def decimation(self) -> int:
        return int(self.wideband_rate / self.channel_rate)

    def _channel_offset_hz(self, channel_index: int) -> float:
        """Baseband offset of a channel centre within the wideband capture.

        The wideband capture is centred on the middle of the band.
        """
        band_centre = (self.band.low_hz + self.band.high_hz) / 2.0
        return self.band.channel(channel_index).center_hz - band_centre

    def extract(self, wideband: Waveform, channel_index: int) -> Waveform:
        """One channel's complex baseband stream from the wideband capture."""
        from scipy import signal as sp_signal

        if wideband.sample_rate != self.wideband_rate:
            raise ValueError(
                f"expected a {self.wideband_rate} Hz capture, "
                f"got {wideband.sample_rate}"
            )
        offset = self._channel_offset_hz(channel_index)
        centred = wideband.frequency_shifted(-offset)
        taps = sp_signal.firwin(
            self.filter_taps,
            self.band.channel_bandwidth_hz / 2.0,
            fs=self.wideband_rate,
        )
        filtered = sp_signal.fftconvolve(centred.samples, taps, mode="full")
        delay = (self.filter_taps - 1) // 2
        filtered = filtered[delay : delay + len(centred.samples)]
        decimated = filtered[:: self.decimation]
        return Waveform(decimated, self.channel_rate)

    def extract_all(self, wideband: Waveform) -> dict[int, Waveform]:
        """All channels at once -- the S7(c) simultaneous monitor."""
        return {
            i: self.extract(wideband, i) for i in range(self.band.n_channels)
        }

    def compose(self, channel_signals: dict[int, Waveform]) -> Waveform:
        """Place narrowband signals on their channels in one wideband
        waveform (test-scenario builder: e.g. an adversary transmitting
        on several channels simultaneously).
        """
        from scipy import signal as sp_signal

        if not channel_signals:
            raise ValueError("need at least one channel signal")
        factor = self.decimation
        n = max(len(w) for w in channel_signals.values()) * factor
        total = np.zeros(n, dtype=np.complex128)
        for index, narrow in channel_signals.items():
            if narrow.sample_rate != self.channel_rate:
                raise ValueError(
                    f"channel {index} signal at {narrow.sample_rate} Hz; "
                    f"expected {self.channel_rate}"
                )
            upsampled = np.zeros(len(narrow) * factor, dtype=np.complex128)
            upsampled[::factor] = narrow.samples * factor
            taps = sp_signal.firwin(
                self.filter_taps,
                self.band.channel_bandwidth_hz / 2.0,
                fs=self.wideband_rate,
            )
            shaped = sp_signal.fftconvolve(upsampled, taps, mode="full")
            delay = (self.filter_taps - 1) // 2
            shaped = shaped[delay : delay + len(upsampled)]
            offset = self._channel_offset_hz(index)
            t = np.arange(len(shaped)) / self.wideband_rate
            total[: len(shaped)] += shaped * np.exp(2j * np.pi * offset * t)
        return Waveform(total, self.wideband_rate)
