"""Fig. 11: battery-depletion attack (trigger IMD transmissions).

Paper rows (probability the IMD replies, locations 1..14):
  shield absent : 1 1 1 1 1 0.94 0.77 0.59 0.01 0 0 0 0 0
  shield present: 0 0 0 0 0 0    0    0    0    0 0 0 0 0

With the shield off, an off-the-shelf-power adversary reaches ~14 m
(location 8); with the shield on, it fails even at 20 cm.
"""

from benchmarks.conftest import attack_sweep, trials_per_location
from repro.experiments.report import ExperimentReport

LOCATIONS = tuple(range(1, 15))


def _success_curve(shield_present: bool, n_trials: int, command: str, seed: int):
    points = attack_sweep(
        f"fig11-{command}",
        shield_present=shield_present,
        n_trials=n_trials,
        command=command,
        location_indices=LOCATIONS,
        seed=seed,
    )
    return {loc: p["success_probability"] for loc, p in points.items()}


PAPER_ABSENT = {
    1: 1.0, 2: 1.0, 3: 1.0, 4: 1.0, 5: 1.0, 6: 0.94, 7: 0.77, 8: 0.59,
    9: 0.01, 10: 0.0, 11: 0.0, 12: 0.0, 13: 0.0, 14: 0.0,
}


def test_fig11_battery_depletion_attack(benchmark):
    n = trials_per_location()

    def run():
        absent = _success_curve(False, n, "interrogate", seed=1100)
        present = _success_curve(True, n, "interrogate", seed=2100)
        return absent, present

    absent, present = benchmark.pedantic(run, rounds=1, iterations=1)

    report = ExperimentReport(
        f"Fig. 11 -- P(IMD replies) per location, {n} trials each"
    )
    for loc in LOCATIONS:
        report.add(
            f"location {loc:2d}",
            f"absent {PAPER_ABSENT[loc]:.2f} / present 0.00",
            f"absent {absent[loc]:.2f} / present {present[loc]:.2f}",
        )
    report.print()

    # Shape assertions.
    assert all(absent[loc] >= 0.9 for loc in range(1, 6))  # near field: sure thing
    assert absent[8] > 0.25  # the 14 m edge still works sometimes
    assert all(absent[loc] <= 0.2 for loc in range(9, 15))  # beyond the edge
    # The shield blocks everything, everywhere (paper: all zeros).
    assert all(present[loc] <= 0.05 for loc in LOCATIONS)
