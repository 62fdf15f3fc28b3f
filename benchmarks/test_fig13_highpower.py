"""Fig. 13: the 100x-power adversary, with and without the shield.

Paper findings (locations 1..18):
* shield absent: responses elicited out to 27 m (location 13, p ~ 0.1),
  including non-line-of-sight locations;
* shield present: success only from nearby line-of-sight locations
  (< 5 m; probabilities ~0.89/0.87/0.74/0.72 then ~0.1/0.3), zero beyond;
* the shield raises an alarm for the high-powered transmissions it
  detects above P_thresh, covering every location where the attack could
  succeed.
"""

from benchmarks.conftest import attack_sweep, trials_per_location
from repro.experiments.report import ExperimentReport
from repro.experiments.testbed import AttackTestbed

LOCATIONS = tuple(range(1, 19))


def _highpower_curves(shield_present: bool, n_trials: int, seed: int):
    points = attack_sweep(
        "fig13",
        shield_present=shield_present,
        n_trials=n_trials,
        command="therapy",
        attacker="highpower",
        location_indices=LOCATIONS,
        seed=seed,
    )
    success = {loc: p["success_probability"] for loc, p in points.items()}
    alarm = {loc: p["alarm_probability"] for loc, p in points.items()}
    return success, alarm


def test_fig13_highpower_adversary(benchmark):
    n = trials_per_location()

    def run():
        absent, _ = _highpower_curves(False, n, seed=1300)
        present, alarms = _highpower_curves(True, n, seed=2300)
        return absent, present, alarms

    absent, present, alarms = benchmark.pedantic(run, rounds=1, iterations=1)

    report = ExperimentReport(
        f"Fig. 13 -- 100x-power adversary, {n} trials per location"
    )
    for loc in LOCATIONS:
        report.add(
            f"location {loc:2d}",
            "absent: far reach / present: <5 m LOS / alarm on strong",
            f"absent {absent[loc]:.2f}  present {present[loc]:.2f}  "
            f"alarm {alarms[loc]:.2f}",
        )
    report.print()

    geometry = AttackTestbed(location_index=1, seed=0).budget.geometry

    # Shield absent: success deep into the room, including NLOS.
    assert all(absent[loc] >= 0.85 for loc in range(1, 12))
    assert absent[13] > 0.02  # the 27 m NLOS edge (paper: 0.1)
    assert all(absent[loc] <= 0.2 for loc in (14, 15, 16, 17, 18))

    # Shield present: only nearby line-of-sight wins, nothing far.
    assert present[1] > 0.7
    successful = [loc for loc in LOCATIONS if present[loc] > 0.05]
    for loc in successful:
        location = geometry.location(loc)
        assert location.line_of_sight
        assert location.distance_m < 5.0
    assert all(present[loc] <= 0.05 for loc in range(7, 19))

    # Every location where the attack ever succeeded also alarmed.
    for loc in LOCATIONS:
        if present[loc] > 0.05:
            assert alarms[loc] >= present[loc] * 0.9
    # Nearby unsuccessful high-power attempts still alarm (paper: e.g.
    # location 6).
    assert alarms[5] > 0.5 or alarms[6] > 0.3
