"""Waveform-level passive eavesdropper (S3.2(a), Figs. 8-9).

Receives the linear mix of the IMD's FSK signal and the shield's jamming,
applies a decoding strategy, and runs the optimal noncoherent FSK
detector [38].  The headline result it reproduces: with shaped jamming
20 dB above the IMD's power, its BER is ~50% at *every* location -- the
one-time-pad regime of S6.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.adversary.strategies import DecodingStrategy, TreatJammingAsNoise
from repro.phy.fsk import FSKConfig, NoncoherentFSKDemodulator
from repro.phy.signal import Waveform

__all__ = ["BatchEavesdropResult", "EavesdropResult", "Eavesdropper"]


@dataclass(frozen=True)
class EavesdropResult:
    """What the eavesdropper got out of one packet."""

    bits: np.ndarray
    bit_error_rate: float
    strategy: str


@dataclass(frozen=True)
class BatchEavesdropResult:
    """What the eavesdropper got out of one block of packets.

    ``bits`` is the decoded ``(n_packets, n_bits)`` hard-decision
    matrix; ``bit_error_rates`` scores each row against the ground
    truth.  Downstream consumers (the physiological-inference pipeline,
    :class:`~repro.experiments.physio_lab.PhysioLab`) read the decoded
    matrix directly instead of looping packet by packet.
    """

    bits: np.ndarray
    bit_error_rates: np.ndarray
    strategy: str

    @property
    def n_packets(self) -> int:
        return self.bits.shape[0]

    def results(self) -> list[EavesdropResult]:
        """The batch unpacked into per-packet :class:`EavesdropResult` rows."""
        return [
            EavesdropResult(
                self.bits[i], float(self.bit_error_rates[i]), self.strategy
            )
            for i in range(self.n_packets)
        ]


class Eavesdropper:
    """Optimal-noncoherent-FSK eavesdropper with pluggable preprocessing."""

    def __init__(
        self,
        config: FSKConfig | None = None,
        strategy: DecodingStrategy | None = None,
    ):
        self.config = config or FSKConfig()
        self.strategy = strategy or TreatJammingAsNoise()
        self._demodulator = NoncoherentFSKDemodulator(self.config)

    def decode(self, waveform: Waveform, n_bits: int | None = None) -> np.ndarray:
        """Hard-decision bits after the strategy's preprocessing."""
        processed = self.strategy.preprocess(waveform, self.config)
        return self._demodulator.demodulate(processed, n_bits)

    def attack(
        self, waveform: Waveform, true_bits: np.ndarray
    ) -> EavesdropResult:
        """Decode a packet and score it against the ground truth.

        A BER near 0.5 means the eavesdropper learned nothing: its output
        is statistically indistinguishable from coin flips.
        """
        true_bits = np.asarray(true_bits, dtype=np.int64)
        decoded = self.decode(waveform, n_bits=len(true_bits))
        ber = float(np.mean(decoded != true_bits))
        return EavesdropResult(decoded, ber, self.strategy.name)

    def decode_batch(
        self, waveforms: np.ndarray, n_bits: int | None = None
    ) -> np.ndarray:
        """Hard-decision bits for a ``(n_packets, n_samples)`` block.

        The baseline treat-as-noise strategy has a no-op preprocess, so
        the whole block goes straight to the batched envelope detector;
        any other strategy -- including subclasses overriding
        ``preprocess`` -- keeps its per-waveform contract and runs row
        by row before the one batched demodulation.  Bit for bit
        identical to :meth:`decode` applied per row.
        """
        waveforms = np.asarray(waveforms)
        if waveforms.ndim != 2:
            raise ValueError(
                f"waveforms must be (n_packets, n_samples), got shape "
                f"{waveforms.shape}"
            )
        if type(self.strategy) is not TreatJammingAsNoise:
            waveforms = np.stack([
                self.strategy.preprocess(
                    Waveform(row, self.config.sample_rate), self.config
                ).samples
                for row in waveforms
            ])
        return self._demodulator.demodulate_batch(waveforms, n_bits=n_bits)

    def attack_batch(
        self, waveforms: np.ndarray, true_bits: np.ndarray
    ) -> BatchEavesdropResult:
        """Decode a whole block and score every packet at once.

        ``true_bits`` is the transmitted ``(n_packets, n_bits)`` matrix;
        the result carries the per-packet BER vector *and* the decoded
        bit matrix, so content-inference consumers need no per-packet
        loop.  Parity with the scalar path is pinned by the test suite.
        """
        true_bits = np.asarray(true_bits, dtype=np.int64)
        if true_bits.ndim != 2:
            raise ValueError(
                f"true_bits must be (n_packets, n_bits), got shape "
                f"{true_bits.shape}"
            )
        waveforms = np.asarray(waveforms)
        if waveforms.shape[0] != true_bits.shape[0]:
            raise ValueError(
                f"{waveforms.shape[0]} waveforms for {true_bits.shape[0]} "
                f"packets of ground truth"
            )
        decoded = self.decode_batch(waveforms, n_bits=true_bits.shape[1])
        bers = np.mean(decoded != true_bits, axis=1)
        return BatchEavesdropResult(decoded, bers, self.strategy.name)
