"""The 402-405 MHz MICS band plan: ten 300 kHz channels."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["MICSChannel", "MICSBand"]


@dataclass(frozen=True)
class MICSChannel:
    """One 300 kHz MICS channel."""

    index: int
    center_hz: float
    bandwidth_hz: float = 300e3

    def __post_init__(self) -> None:
        if self.index < 0:
            raise ValueError("channel index cannot be negative")
        if self.bandwidth_hz <= 0:
            raise ValueError("bandwidth must be positive")

    @property
    def low_hz(self) -> float:
        return self.center_hz - self.bandwidth_hz / 2.0

    @property
    def high_hz(self) -> float:
        return self.center_hz + self.bandwidth_hz / 2.0

    def contains(self, frequency_hz: float) -> bool:
        return self.low_hz <= frequency_hz < self.high_hz


@dataclass(frozen=True)
class MICSBand:
    """The full 402-405 MHz band as ten non-overlapping channels.

    The shield monitors this *entire* band at once (S7(c)): an adversary
    may hop channels or transmit on several simultaneously, and the shield
    must still spot packets addressed to its IMD on any of them.
    """

    low_hz: float = 402e6
    high_hz: float = 405e6
    channel_bandwidth_hz: float = 300e3

    def __post_init__(self) -> None:
        if self.high_hz <= self.low_hz:
            raise ValueError("band must have positive width")
        width = self.high_hz - self.low_hz
        if width % self.channel_bandwidth_hz != 0:
            raise ValueError("band width must be a whole number of channels")

    @property
    def n_channels(self) -> int:
        return int((self.high_hz - self.low_hz) / self.channel_bandwidth_hz)

    def channels(self) -> list[MICSChannel]:
        """All channels, indexed 0..n-1 from the bottom of the band."""
        return [self.channel(i) for i in range(self.n_channels)]

    def channel(self, index: int) -> MICSChannel:
        if not 0 <= index < self.n_channels:
            raise IndexError(
                f"channel index {index} outside [0, {self.n_channels})"
            )
        center = self.low_hz + (index + 0.5) * self.channel_bandwidth_hz
        return MICSChannel(index, center, self.channel_bandwidth_hz)

    def channel_for_frequency(self, frequency_hz: float) -> MICSChannel:
        """The channel containing ``frequency_hz``."""
        if not self.low_hz <= frequency_hz < self.high_hz:
            raise ValueError(
                f"{frequency_hz} Hz lies outside the {self.low_hz}-{self.high_hz} band"
            )
        index = int((frequency_hz - self.low_hz) / self.channel_bandwidth_hz)
        return self.channel(index)
