"""Tests for the payload-source refactor, batch eavesdropping, and PhysioLab.

Two regression families matter here:

* **Bit-for-bit payload seeds** -- extracting the random payload behind
  the :class:`PayloadSource` protocol must not move a single bit of the
  seeded figure sweeps; the digests below were captured on the
  pre-refactor implementation.
* **Batch-vs-scalar parity** -- ``Eavesdropper.attack_batch`` must
  reproduce the scalar ``attack`` path row for row.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.adversary.eavesdropper import Eavesdropper
from repro.adversary.strategies import FilterBankStrategy
from repro.experiments.physio_lab import NO_JAMMING_MARGIN_DB, PhysioLab
from repro.experiments.waveform_lab import (
    PassiveLab,
    PayloadSource,
    RandomPayloadSource,
)
from repro.phy.fsk import FSKModulator
from repro.phy.signal import Waveform
from repro.physio.codec import PhysioPayloadSource
from repro.physio.inference import AttackerInference
from repro.protocol.commands import CommandType
from repro.protocol.packets import Packet


class TestPayloadSeedRegression:
    """Pinned to the pre-PayloadSource implementation's exact bits."""

    def test_single_packet_bits_unchanged(self):
        bits = PassiveLab(seed=7).telemetry_packet_bits_batch(1)[0]
        assert bits.shape == (1680,)
        assert (
            hashlib.sha256(bits.tobytes()).hexdigest()[:16]
            == "6bcec0e57b20897a"
        )

    def test_packet_batch_bits_unchanged(self):
        bits = PassiveLab(seed=0).telemetry_packet_bits_batch(3)
        assert bits.shape == (3, 1680)
        assert (
            hashlib.sha256(bits.tobytes()).hexdigest()[:16]
            == "2b7a48471dafb95d"
        )

    def test_run_batch_numbers_unchanged(self):
        batch = PassiveLab(seed=42).run_batch(20.0, 4, location_index=2)
        assert [float(b) for b in batch.eavesdropper_ber] == [
            0.49047619047619045,
            0.4857142857142857,
            0.48273809523809524,
            0.48095238095238096,
        ]
        assert [int(e) for e in batch.shield_bit_errors] == [0, 0, 0, 0]


class TestPayloadSourceProtocol:
    def test_default_source_is_random_24_bytes(self):
        lab = PassiveLab(seed=1)
        assert isinstance(lab.payload_source, RandomPayloadSource)
        assert lab.payload_source.payload_size == 24

    def test_random_source_validates_size(self):
        with pytest.raises(ValueError):
            RandomPayloadSource(size=300)

    def test_physio_source_satisfies_protocol(self):
        source = PhysioPayloadSource(np.zeros((2, 54), dtype=np.uint8))
        assert isinstance(source, PayloadSource)

    def test_custom_source_changes_frame_length(self):
        source = PhysioPayloadSource(
            np.arange(2 * 54, dtype=np.uint8).reshape(2, 54)
        )
        lab = PassiveLab(seed=1, payload_source=source)
        bits = lab.telemetry_packet_bits_batch(2)
        # 16 preamble + 8 * (sync + serial(10) + opcode/seq/len(3) + 54 + crc(2))
        assert bits.shape == (2, 16 + 8 * (1 + 10 + 3 + 54 + 2))


_PHYSIO_PAYLOADS = np.random.default_rng(5).integers(
    0, 256, size=(400, 54), dtype=np.uint8
)


def _framed(lab, payloads):
    """The per-packet framing reference: each payload row's bytes
    framed through ``PacketCodec.encode`` with the lab's next sequence
    number."""
    rows = []
    for payload in payloads:
        lab._sequence = (lab._sequence + 1) % 256
        rows.append(lab.codec.encode(Packet(
            lab._serial, CommandType.TELEMETRY, lab._sequence, bytes(payload)
        )))
    return np.stack(rows)


class TestBatchFraming:
    """``telemetry_packet_bits_batch`` frames a block in one pass, bit
    for bit the stacked per-packet ``PacketCodec.encode`` frames."""

    @staticmethod
    def _lab(source_kind):
        source = (
            RandomPayloadSource() if source_kind == "random"
            else PhysioPayloadSource(_PHYSIO_PAYLOADS)
        )
        lab = PassiveLab(seed=11, payload_source=source)
        lab._sequence = 250  # the second block wraps past 255
        return lab

    @pytest.mark.parametrize("source_kind", ["random", "physio"])
    def test_blocks_equal_per_packet_frames(self, source_kind):
        lab, reference = self._lab(source_kind), self._lab(source_kind)
        served = 0
        for n_packets in (1, 3, 300, 1):
            if source_kind == "random":
                # One ``integers`` draw per block; each int64 row goes
                # out as its raw bytes, as ``bytes(row)`` gives them.
                payloads = reference.rng.integers(0, 256, size=(n_packets, 24))
            else:
                payloads = _PHYSIO_PAYLOADS[served : served + n_packets]
            served += n_packets
            np.testing.assert_array_equal(
                lab.telemetry_packet_bits_batch(n_packets),
                _framed(reference, payloads),
            )
            assert lab._sequence == reference._sequence
        assert (
            lab.rng.bit_generator.state == reference.rng.bit_generator.state
        )

    def test_one_packet_blocks_equal_one_block(self):
        lab, reference = self._lab("physio"), self._lab("physio")
        bits = lab.telemetry_packet_bits_batch(260)
        expected = np.stack(
            [reference.telemetry_packet_bits_batch(1)[0] for _ in range(260)]
        )
        np.testing.assert_array_equal(bits, expected)
        assert lab._sequence == reference._sequence == (250 + 260) % 256

    def test_exhausted_physio_block_frames_nothing(self):
        source = PhysioPayloadSource(np.zeros((2, 54), dtype=np.uint8))
        lab = PassiveLab(seed=1, payload_source=source)
        with pytest.raises(ValueError, match="exhausted"):
            lab.telemetry_packet_bits_batch(3)
        assert lab._sequence == 0 and source.remaining == 2


class TestRunBatchBitsOverride:
    def test_bits_override_transmits_exactly_those_packets(self):
        lab = PassiveLab(seed=2)
        fixed = lab.telemetry_packet_bits_batch(3)
        result = lab.run_batch(
            NO_JAMMING_MARGIN_DB,
            bits=fixed,
            location_index=1,
            score_shield=False,
            return_eavesdropper_bits=True,
        )
        # No jamming at location 1: the eavesdropper decodes perfectly.
        np.testing.assert_array_equal(result.eavesdropper_bits, fixed)
        assert result.mean_eavesdropper_ber() == 0.0

    def test_bits_override_validates_shape(self):
        lab = PassiveLab(seed=2)
        with pytest.raises(ValueError, match="n_packets"):
            lab.run_batch(20.0, 5, bits=np.zeros((3, 100), dtype=np.int64))
        with pytest.raises(ValueError):
            lab.run_batch(20.0, bits=np.zeros(100, dtype=np.int64))

    def test_needs_packets_or_bits(self):
        with pytest.raises(ValueError, match="n_packets"):
            PassiveLab(seed=2).run_batch(20.0)

    def test_return_bits_requires_scoring_the_eavesdropper(self):
        with pytest.raises(ValueError, match="score_eavesdropper"):
            PassiveLab(seed=2).run_batch(
                20.0, 2, score_eavesdropper=False,
                return_eavesdropper_bits=True,
            )

    def test_sample_path_returns_bits_too(self):
        lab = PassiveLab(seed=3)
        fixed = lab.telemetry_packet_bits_batch(2)
        result = lab.run_batch(
            20.0,
            bits=fixed,
            strategy=FilterBankStrategy(),
            score_shield=False,
            return_eavesdropper_bits=True,
        )
        assert result.eavesdropper_bits.shape == fixed.shape

    def test_bits_not_returned_unless_requested(self):
        result = PassiveLab(seed=3).run_batch(20.0, 2, score_shield=False)
        assert result.eavesdropper_bits is None


class TestAttackBatchParity:
    def _noisy_block(self, rng, n_packets=6, n_bits=64, noise=0.5):
        bits = rng.integers(0, 2, size=(n_packets, n_bits))
        clean = FSKModulator().modulate_batch(bits)
        noisy = clean + noise * (
            rng.standard_normal(clean.shape)
            + 1j * rng.standard_normal(clean.shape)
        )
        return bits, noisy

    def test_batch_matches_scalar_attack(self, rng):
        bits, noisy = self._noisy_block(rng)
        eavesdropper = Eavesdropper()
        batch = eavesdropper.attack_batch(noisy, bits)
        for i in range(len(bits)):
            scalar = eavesdropper.attack(Waveform(noisy[i], 600e3), bits[i])
            np.testing.assert_array_equal(scalar.bits, batch.bits[i])
            assert scalar.bit_error_rate == batch.bit_error_rates[i]
        assert batch.strategy == "TreatJammingAsNoise"

    def test_batch_matches_scalar_with_preprocessing_strategy(self, rng):
        bits, noisy = self._noisy_block(rng, n_packets=3)
        eavesdropper = Eavesdropper(strategy=FilterBankStrategy())
        batch = eavesdropper.attack_batch(noisy, bits)
        for i in range(len(bits)):
            scalar = eavesdropper.attack(Waveform(noisy[i], 600e3), bits[i])
            np.testing.assert_array_equal(scalar.bits, batch.bits[i])
            assert scalar.bit_error_rate == batch.bit_error_rates[i]

    def test_results_unpack_per_packet(self, rng):
        bits, noisy = self._noisy_block(rng, n_packets=2)
        batch = Eavesdropper().attack_batch(noisy, bits)
        rows = batch.results()
        assert len(rows) == batch.n_packets == 2
        assert rows[0].bit_error_rate == batch.bit_error_rates[0]

    def test_shape_validation(self, rng):
        bits, noisy = self._noisy_block(rng, n_packets=2)
        eavesdropper = Eavesdropper()
        with pytest.raises(ValueError):
            eavesdropper.attack_batch(noisy, bits[0])
        with pytest.raises(ValueError):
            eavesdropper.attack_batch(noisy[:1], bits)


class TestPhysioLab:
    def test_deterministic_across_instances(self):
        a = PhysioLab(seed=5).run_records(4, location_index=2)
        b = PhysioLab(seed=5).run_records(4, location_index=2)
        assert a.moments() == b.moments()

    def test_accepts_seed_sequence(self):
        seq = np.random.SeedSequence(5)
        a = PhysioLab(seed=seq).run_records(3, location_index=1)
        b = PhysioLab(seed=np.random.SeedSequence(5)).run_records(
            3, location_index=1
        )
        assert a.moments() == b.moments()

    def test_repeated_calls_draw_fresh_records(self):
        lab = PhysioLab(seed=5)
        first = lab.run_records(3, location_index=1)
        second = lab.run_records(3, location_index=1)
        assert not np.array_equal(
            first.heart_rate_true, second.heart_rate_true
        )

    def test_shield_off_leaks_clean_content(self):
        result = PhysioLab(seed=6).run_records(
            6, location_index=1, shield_present=False
        )
        assert float(result.hr_abs_error.mean()) < 1.0
        assert float(result.beat_f1.mean()) > 0.95
        assert result.rhythm_correct == result.n_records
        assert float(result.ber_attacker.mean()) == 0.0
        # Shield-off: attacker and clear conditions coincide.
        np.testing.assert_array_equal(
            result.heart_rate_attacker, result.heart_rate_clear
        )

    def test_shield_on_destroys_content_but_clear_reference_leaks(self):
        result = PhysioLab(seed=7).run_records(
            8, jam_margin_db=20.0, location_index=1, shield_present=True
        )
        assert float(result.ber_attacker.mean()) > 0.4
        assert float(result.hr_abs_error.mean()) > 10.0
        assert float(result.hr_abs_error_clear.mean()) < 1.0

    def test_mixed_rhythm_draws_multiple_classes(self):
        result = PhysioLab(seed=8).run_records(
            12, location_index=1, shield_present=False, rhythm="mixed"
        )
        assert len(set(result.rhythms_true)) >= 2

    def test_rejects_unknown_rhythm(self):
        with pytest.raises(ValueError, match="unknown rhythm"):
            PhysioLab(seed=8).run_records(2, rhythm="sinus")

    def test_moments_reconstruct_means(self):
        result = PhysioLab(seed=9).run_records(5, location_index=2)
        moments = result.moments()
        assert moments["n_records"] == 5
        assert moments["hr_err_sum"] == pytest.approx(
            float(result.hr_abs_error.sum())
        )
        assert moments["rhythm_correct"] == result.rhythm_correct

    def test_validates_arguments(self):
        with pytest.raises(ValueError):
            PhysioLab(packets_per_record=0)
        with pytest.raises(ValueError):
            PhysioLab(chance_repeats=0)
        with pytest.raises(ValueError):
            PhysioLab(seed=1).run_records(0)


class TestRecordBlockPins:
    """``run_records`` infers every condition of a batch in one block.

    The digests pin ``moments()`` of two consecutive batches per lab as
    computed when each condition (attacked, clear, every chance repeat)
    was inferred by a separate ``infer_batch`` call: stacking them must
    not move a bit.
    """

    PINS = {
        (True, 1): "f0f64f242aa7b205",
        (True, 3): "2a85906036d936d5",
        (False, 1): "13201fdacc3a0043",
        (False, 3): "4eb75b4db665754f",
    }

    @pytest.mark.parametrize("shield_present, chance_repeats", sorted(PINS))
    def test_moments_unchanged(
        self, monkeypatch, shield_present, chance_repeats
    ):
        calls = []
        infer_batch = AttackerInference.infer_batch

        def spy(self, record_bits):
            calls.append(len(record_bits))
            return infer_batch(self, record_bits)

        monkeypatch.setattr(AttackerInference, "infer_batch", spy)
        lab = PhysioLab(
            seed=40 + 2 * shield_present + chance_repeats,
            packets_per_record=8,
            chance_repeats=chance_repeats,
        )
        batches = [
            lab.run_records(
                3, location_index=2, shield_present=shield_present,
                rhythm="mixed",
            ),
            lab.run_records(
                2, location_index=1, shield_present=shield_present,
                rhythm="mixed",
            ),
        ]
        digest = hashlib.sha256(
            json.dumps([b.moments() for b in batches], sort_keys=True).encode()
        ).hexdigest()[:16]
        assert digest == self.PINS[shield_present, chance_repeats]
        # One inference pass per batch, over every condition's records.
        conditions = (2 if shield_present else 1) + chance_repeats
        assert calls == [3 * conditions, 2 * conditions]
