"""``passive_ber``: the Fig. 9 eavesdropper BER under shaped jamming."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.campaigns.kinds.base import ScenarioKind, mean
from repro.stats.expectations import Expectation


@dataclass(frozen=True)
class PassiveChunkSpec:
    """One block of jammed telemetry packets at one location."""

    location_index: int
    n_packets: int
    jam_margin_db: float
    seed: int | np.random.SeedSequence


class PassiveBerKind(ScenarioKind):
    schema = 3
    payload_fields = ScenarioKind.payload_fields + ("jam_margin_db",)
    spec_type = PassiveChunkSpec
    metrics = (
        mean(
            "ber", bounds=(0.0, 1.0), precision=0.02,
            moments=("ber_sum", "ber_sqsum"),
        ),
    )
    builtins = (
        (
            dict(
                name="passive-ber-by-location",
                title=(
                    "Fig. 9: eavesdropper BER under shaped jamming, by "
                    "location"
                ),
                description=(
                    "The IMD transmits telemetry while the shield jams "
                    "+20 dB over the received IMD power; a passive "
                    "eavesdropper at every numbered testbed location "
                    "decodes ~coin flips."
                ),
                tags=("paper", "fig9", "passive"),
                location_indices=tuple(range(1, 19)),
                jam_margin_db=20.0,
                n_trials=25,
            ),
            (
                Expectation(
                    metric="ber", kind="ci_overlap", value=0.5,
                    tolerance=0.05,
                    note="Fig. 9: under shaped jamming the eavesdropper "
                         "decodes ~coin flips at every location",
                ),
            ),
        ),
    )
    # Mirror the attack plan's seeding convention: a whole-location
    # block keeps the seed+location scheme, sharded blocks get
    # per-chunk streams.
    int_seed = True
    report_headers = ("location", "eavesdropper BER", "packets", "note")

    def summary(self, scenario) -> str:
        return (
            f"passive eavesdropper at +{scenario.jam_margin_db:g} dB "
            f"jamming, {len(scenario.location_indices)} locations x "
            f"{scenario.n_trials} packets"
        )

    def make_spec(self, scenario, cell, chunk_index, size, seed):
        return PassiveChunkSpec(cell, size, scenario.jam_margin_db, seed)

    def evaluate(self, spec) -> dict:
        """Eavesdropper BER sum and sum of squares over the packets.

        The sum of squares lets cached chunks rebuild the sample
        variance (intervals, adaptive stopping) without per-packet
        values.
        """
        from repro.experiments.waveform_lab import PassiveLab

        lab = PassiveLab(seed=spec.seed)
        batch = lab.run_batch(
            spec.jam_margin_db,
            n_packets=spec.n_packets,
            location_index=spec.location_index,
            score_shield=False,
        )
        return {
            "ber_sum": float(np.sum(batch.eavesdropper_ber)),
            "ber_sqsum": float(np.sum(np.square(batch.eavesdropper_ber))),
            "n_packets": spec.n_packets,
        }

    def point(self, scenario, sums):
        # Raw moments ride along for intervals and validation.
        return {
            "ber": sums["ber_sum"] / sums["n_packets"],
            "ber_sum": sums["ber_sum"],
            "ber_sqsum": sums["ber_sqsum"],
            "n_packets": sums["n_packets"],
        }

    def absorb(self, estimators, n, data):
        self.absorb_means(estimators, data["n_packets"], data)

    def report_rows(self, scenario, points):
        return [
            (
                point["label"],
                f"{point['ber']:.3f}",
                str(point["n_packets"]),
                "~coin flips" if point["ber"] > 0.4 else "",
            )
            for point in points
        ]


KIND = PassiveBerKind()
