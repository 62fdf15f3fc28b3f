"""``mimo``: the S3.2 multi-antenna eavesdropper versus separation.

The grid sweeps ``separations_m``; a unit names its cell by index.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaigns.kinds.base import ScenarioKind, mean
from repro.stats.expectations import Expectation


@dataclass(frozen=True)
class MimoChunkSpec:
    """One block of multi-antenna eavesdropping attempts at one separation."""

    separation_m: float
    n_packets: int
    packet_bits: int
    n_antennas: int
    sir_db: float
    snr_db: float
    seed: np.random.SeedSequence


class MimoKind(ScenarioKind):
    schema = 3
    payload_fields = (
        "seed", "n_trials", "chunk_size", "separations_m",
        "n_antennas", "sir_db", "snr_db", "packet_bits",
    )
    spec_type = MimoChunkSpec
    metrics = (mean("ber", bounds=(0.0, 1.0), precision=0.02),)
    builtins = (
        (
            dict(
                name="mimo-eavesdropper",
                title="S3.2: multi-antenna eavesdropper vs. source separation",
                description=(
                    "A 2-antenna eavesdropper at stand-off SNR (~6 dB, the "
                    "testbed's far locations) runs blind jam-subspace "
                    "projection against correlated shield/IMD channels: "
                    "worn centimetres from the implant the shield leaves "
                    "near coin flips; at half a wavelength projection "
                    "recovers the telemetry."
                ),
                tags=("extension", "mimo", "passive"),
                separations_m=(0.02, 0.06, 0.12, 0.25, 0.37),
                n_antennas=2,
                snr_db=6.0,
                n_trials=10,
            ),
            (
                Expectation(
                    metric="ber", kind="lower_bound", value=0.3,
                    axes=(0.02,),
                    note="S3.2: worn centimetres from the implant, "
                         "jam-subspace projection still leaves near coin "
                         "flips",
                ),
                Expectation(
                    metric="ber", kind="upper_bound", value=0.15,
                    axes=(0.25, 0.37),
                    note="S3.2: at half a wavelength of separation, "
                         "projection recovers the telemetry",
                ),
            ),
        ),
    )
    axis_field = "separations_m"
    coord = "separation_index"
    report_headers = ("separation", "BER", "jam rejection", "attempts")

    def validate(self, scenario) -> None:
        if not scenario.separations_m:
            raise ValueError("a MIMO scenario needs separations_m")
        if any(s < 0 for s in scenario.separations_m):
            raise ValueError("separations cannot be negative")
        if scenario.n_antennas < 2:
            raise ValueError("spatial nulling needs at least two antennas")
        if scenario.packet_bits < 8:
            raise ValueError("packet_bits must be at least 8")

    def cells(self, scenario):
        return range(len(scenario.separations_m))

    def cell_label(self, scenario, axis) -> str:
        return f"separation {axis:.2f} m"

    def summary(self, scenario) -> str:
        return (
            f"{scenario.n_antennas}-antenna eavesdropper, "
            f"{len(scenario.separations_m)} separations x "
            f"{scenario.n_trials} attempts"
        )

    def make_spec(self, scenario, cell, chunk_index, size, seed):
        return MimoChunkSpec(
            separation_m=scenario.separations_m[cell],
            n_packets=size,
            packet_bits=scenario.packet_bits,
            n_antennas=scenario.n_antennas,
            sir_db=scenario.sir_db,
            snr_db=scenario.snr_db,
            seed=seed,
        )

    def evaluate(self, spec) -> dict:
        """Blind-projection attacks at one separation."""
        from repro.adversary.mimo import MIMOEavesdropper
        from repro.core.jamming import ShapedJammer
        from repro.phy.fsk import FSKConfig

        rng = np.random.default_rng(spec.seed)
        fsk = FSKConfig()
        eavesdropper = MIMOEavesdropper(spec.n_antennas, config=fsk, rng=rng)
        jammer = ShapedJammer.matched_to_fsk(
            fsk.deviation_hz, fsk.bit_rate, fsk.sample_rate, rng=rng
        )
        ber_sum = 0.0
        ber_sqsum = 0.0
        rejection_sum = 0.0
        for _ in range(spec.n_packets):
            bits = rng.integers(0, 2, size=spec.packet_bits)
            jam = jammer.generate(fsk.n_samples(spec.packet_bits))
            result = eavesdropper.attack(
                bits,
                jam,
                source_separation_m=spec.separation_m,
                sir_db=spec.sir_db,
                snr_db=spec.snr_db,
            )
            ber_sum += result.bit_error_rate
            ber_sqsum += result.bit_error_rate**2
            rejection_sum += result.jam_rejection_db
        return {
            "ber_sum": ber_sum,
            "ber_sqsum": ber_sqsum,
            "rejection_sum": rejection_sum,
            "n_packets": spec.n_packets,
        }

    def point(self, scenario, sums):
        return {
            "ber": sums["ber_sum"] / sums["n_packets"],
            "ber_sum": sums["ber_sum"],
            "ber_sqsum": sums["ber_sqsum"],
            "jam_rejection_db": sums["rejection_sum"] / sums["n_packets"],
            "n_packets": sums["n_packets"],
        }

    def absorb(self, estimators, n, data):
        estimators["ber"].update(
            data["n_packets"], data["ber_sum"], data["ber_sqsum"]
        )

    def report_rows(self, scenario, points):
        return [
            (
                point["label"],
                f"{point['ber']:.3f}",
                f"{point['jam_rejection_db']:.1f} dB",
                str(point["n_packets"]),
            )
            for point in points
        ]


KIND = MimoKind()
