"""Population-scale fleet simulation: cohorts, metrics, sharded runs.

The paper evaluates one shield protecting one IMD; this package asks
the deployment question -- what do the security claims look like across
a *patient population*, where rhythm class, attacker geometry, shield
adherence, and per-device calibration all vary patient to patient?

Three modules:

* :mod:`repro.fleet.cohort` -- declarative
  :class:`~repro.fleet.cohort.CohortSpec` whose patient *i* is a pure
  function of (cohort seed, *i*), so any shard layout or worker count
  synthesizes bit-identical patients;
* :mod:`repro.fleet.metrics` -- mergeable streaming population
  estimators (attack prevalence, alarm burden per patient-day,
  quantile sketches of per-patient HR leakage, BER strata) so cohort
  size is bounded by CPU, never by memory;
* :mod:`repro.fleet.runner` -- patient-shard work units and the
  per-shard reduction the campaign runner streams through
  ``SweepExecutor.imap``.

Fleet runs are campaign scenarios (``kind="fleet"``): registered,
cached (the SQLite backend is built for their unit counts), resumable,
and validated like every other scenario.  See docs/fleet.md.
"""

from repro.fleet.cohort import CohortSpec, PatientProfile, cohort_from_scenario
from repro.fleet.metrics import FleetAccumulator, QuantileSketch

__all__ = [
    "CohortSpec",
    "FleetAccumulator",
    "PatientProfile",
    "QuantileSketch",
    "cohort_from_scenario",
]
