"""Throughput benchmarks of the fleet hot paths.

A population campaign's wall time decomposes into cohort synthesis
(profile sampling per patient), encounter simulation (covered by the
attack/physio benches), shard reduction (accumulator merges + payload
round trips), and cache I/O (the SQLite backend's upsert/read loop at
fleet unit counts).  Each stage gets a regression guard here; the
``benchmarks/compare.py`` gate runs this file alongside the DSP and
physio suites.
"""

import numpy as np

from repro.campaigns.spec import Scenario
from repro.campaigns.store import SQLiteStore
from repro.fleet.cohort import CohortSpec
from repro.fleet.metrics import FleetAccumulator, QuantileSketch
from repro.fleet.runner import FleetChunkSpec, run_fleet_chunk

_COHORT = CohortSpec(n_patients=100_000, seed=17)

_RNG = np.random.default_rng(29)


def _shard_payloads(n_shards: int, patients_per_shard: int) -> list[dict]:
    payloads = []
    for shard in range(n_shards):
        acc = FleetAccumulator()
        rng = np.random.default_rng(shard)
        for _ in range(patients_per_shard):
            acc.add_attack_patient(
                worn=bool(rng.random() < 0.9),
                wins=int(rng.integers(0, 2)),
                alarms=int(rng.integers(0, 2)),
                trials=2,
                observation_days=1.0,
            )
            acc.add_physio_patient(
                worn=True,
                hr_abs_error=float(rng.uniform(0, 100)),
                mean_ber=float(rng.uniform(0, 0.5)),
            )
        payloads.append(acc.to_payload())
    return payloads


_PAYLOADS = _shard_payloads(50, 200)


def test_perf_cohort_synthesis(benchmark):
    """Profile sampling: 500 patients out of a 100k cohort."""

    def run():
        return list(_COHORT.profiles(40_000, 500))

    profiles = benchmark(run)
    assert len(profiles) == 500


def test_perf_shard_reduction(benchmark):
    """Merging 50 shard payloads (10k patients) into one population."""

    def run():
        merged = FleetAccumulator()
        for payload in _PAYLOADS:
            merged.merge(FleetAccumulator.from_payload(payload))
        return merged

    merged = benchmark(run)
    assert merged.patients == 50 * 200 * 2


def test_perf_quantile_sketch_fill(benchmark):
    """Tallying 100k leakage values into the fixed-bin sketch."""
    values = _RNG.uniform(0.0, 150.0, size=100_000)

    def run():
        return QuantileSketch(0.0, 200.0, 800).add_many(values).quantile(0.9)

    q90 = benchmark(run)
    assert 100.0 <= q90 <= 150.0


def test_perf_sqlite_put_get(benchmark, tmp_path):
    """The cache store loop: 200 unit upserts + 200 indexed reads."""
    payload = _PAYLOADS[0]
    scenario_hash = Scenario(
        name="bench-fleet", kind="fleet", n_patients=10
    ).scenario_hash()

    counter = {"n": 0}

    def run():
        counter["n"] += 1
        store = SQLiteStore(tmp_path / f"round-{counter['n']}")
        for i in range(200):
            store.put(scenario_hash, f"unit-{i:04d}", {"shard": i}, payload)
        hits = sum(
            store.get(scenario_hash, f"unit-{i:04d}") is not None
            for i in range(200)
        )
        store.close()
        return hits

    assert benchmark(run) == 200


def test_perf_fleet_attack_shard(benchmark):
    """One 20-patient attack shard end to end (testbeds included)."""
    spec = FleetChunkSpec(
        cohort=CohortSpec(n_patients=20, seed=5),
        start=0,
        count=20,
        trials_per_patient=1,
        task="attack",
        attacker="fcc",
        command="therapy",
    )
    result = benchmark(run_fleet_chunk, spec)
    assert result["patients"] == 20
