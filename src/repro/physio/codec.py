"""Telemetry codec: cardiac waveform windows as wire-format packet payloads.

The modelled IMD streams its intracardiac electrogram in fixed-size
windows.  Each payload is::

    +------------------+----------------------+
    | samples (W x u8) | beat mask (ceil(W/8))|
    +------------------+----------------------+

``W`` quantized amplitude samples (uniform 8-bit quantization over a
fixed physiological range) followed by the R-peak annotation bits of the
window, MSB-first packed.  The payload rides the existing
:class:`repro.protocol.packets.PacketCodec` frame, so the round trip is
CRC-protected end to end: encode -> packetize -> decode recovers the
window within half a quantization step or the checksum rejects it.

:class:`PhysioPayloadSource` adapts a pre-encoded payload block to the
``PayloadSource`` protocol of
:class:`repro.experiments.waveform_lab.PassiveLab`, replacing the
default random-bit payloads with actual medical content -- the thing the
paper's eavesdropper is really after.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["PhysioPayloadSource", "WaveformCodec"]


@dataclass(frozen=True)
class WaveformCodec:
    """Uniform 8-bit quantizer for fixed-size waveform windows."""

    window_samples: int = 48
    amplitude_range: tuple[float, float] = (-0.5, 1.5)

    def __post_init__(self) -> None:
        if self.window_samples < 1:
            raise ValueError("window_samples must be positive")
        lo, hi = self.amplitude_range
        if not hi > lo:
            raise ValueError(
                f"amplitude_range must be increasing, got ({lo}, {hi})"
            )

    # -- geometry -------------------------------------------------------

    @property
    def mask_bytes(self) -> int:
        return (self.window_samples + 7) // 8

    @property
    def payload_size(self) -> int:
        """On-air payload bytes per window."""
        return self.window_samples + self.mask_bytes

    @property
    def quantization_step(self) -> float:
        lo, hi = self.amplitude_range
        return (hi - lo) / 255.0

    def n_windows(self, n_samples: int) -> int:
        """How many whole windows a record of ``n_samples`` yields."""
        if n_samples % self.window_samples:
            raise ValueError(
                f"record length {n_samples} is not a multiple of the "
                f"window size {self.window_samples}"
            )
        return n_samples // self.window_samples

    # -- batch encode / decode -----------------------------------------

    def encode_batch(
        self, samples: np.ndarray, beat_mask: np.ndarray
    ) -> np.ndarray:
        """``(n_windows, payload_size)`` uint8 payloads of a window block.

        ``samples`` and ``beat_mask`` are ``(n_windows, window_samples)``.
        Out-of-range amplitudes clip to the codec range (the fixed-point
        front end a real implant telemetry pipeline has anyway).
        """
        samples = np.asarray(samples, dtype=np.float64)
        beat_mask = np.asarray(beat_mask, dtype=bool)
        if samples.ndim != 2 or samples.shape[1] != self.window_samples:
            raise ValueError(
                f"samples must be (n, {self.window_samples}), got {samples.shape}"
            )
        if beat_mask.shape != samples.shape:
            raise ValueError("beat_mask shape must match samples")
        lo, _ = self.amplitude_range
        q = np.clip(
            np.round((samples - lo) / self.quantization_step), 0, 255
        ).astype(np.uint8)
        packed = np.packbits(beat_mask, axis=1)
        return np.concatenate([q, packed], axis=1)

    def decode_batch(
        self, payloads: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Inverse of :meth:`encode_batch` (bit flips degrade gracefully)."""
        payloads = np.asarray(payloads, dtype=np.uint8)
        if payloads.ndim != 2 or payloads.shape[1] != self.payload_size:
            raise ValueError(
                f"payloads must be (n, {self.payload_size}), got {payloads.shape}"
            )
        lo, _ = self.amplitude_range
        samples = lo + payloads[:, : self.window_samples].astype(
            np.float64
        ) * self.quantization_step
        mask = np.unpackbits(
            payloads[:, self.window_samples:], axis=1
        )[:, : self.window_samples].astype(bool)
        return samples, mask

    # -- scalar convenience (one window <-> one payload) ----------------

    def encode_window(self, samples: np.ndarray, beat_mask: np.ndarray) -> bytes:
        return self.encode_batch(
            np.asarray(samples)[None, :], np.asarray(beat_mask)[None, :]
        )[0].tobytes()

    def decode_window(self, payload: bytes) -> tuple[np.ndarray, np.ndarray]:
        if len(payload) != self.payload_size:
            raise ValueError(
                f"payload must be {self.payload_size} bytes, got {len(payload)}"
            )
        samples, mask = self.decode_batch(
            np.frombuffer(payload, dtype=np.uint8)[None, :]
        )
        return samples[0], mask[0]

    # -- records --------------------------------------------------------

    def encode_record(
        self, samples: np.ndarray, beat_mask: np.ndarray
    ) -> np.ndarray:
        """One record's windows as consecutive payload rows."""
        samples = np.asarray(samples, dtype=np.float64)
        n_windows = self.n_windows(samples.shape[-1])
        return self.encode_batch(
            samples.reshape(n_windows, self.window_samples),
            np.asarray(beat_mask, dtype=bool).reshape(
                n_windows, self.window_samples
            ),
        )


class PhysioPayloadSource:
    """Serves pre-encoded telemetry payloads to the waveform lab, in order.

    Implements the ``PayloadSource`` protocol of
    :class:`~repro.experiments.waveform_lab.PassiveLab`: a fixed
    ``payload_size`` plus a ``next_payload_batch`` hook.  Unlike the default
    random source it consumes no lab randomness -- the content *is* the
    experiment input -- and it refuses to wrap around: a lab asking for
    more packets than the encoded stream holds is a planning bug, not a
    reason to replay a patient's waveform.
    """

    def __init__(self, payloads: np.ndarray):
        payloads = np.asarray(payloads, dtype=np.uint8)
        if payloads.ndim != 2 or payloads.shape[0] == 0:
            raise ValueError(
                f"payloads must be a non-empty (n, size) matrix, "
                f"got shape {payloads.shape}"
            )
        self._payloads = payloads
        self._served = 0

    @property
    def payload_size(self) -> int:
        return int(self._payloads.shape[1])

    @property
    def remaining(self) -> int:
        return int(self._payloads.shape[0]) - self._served

    def next_payload_batch(
        self, rng: np.random.Generator, count: int
    ) -> np.ndarray:
        """The next ``count`` payloads as ``(count, size)`` ``uint8`` rows,
        in stream order (``rng`` unused: content, not noise).

        A block that would run past the stream serves nothing and raises.
        """
        total = self._payloads.shape[0]
        end = self._served + count
        if end > total:
            raise ValueError(f"payload stream exhausted after {total} packets")
        block = self._payloads[self._served:end]
        self._served = end
        return block
