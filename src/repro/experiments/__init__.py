"""Experiment harness: testbeds, calibration, metrics, reporting.

Everything the benchmarks share lives here: the Fig. 6 testbed builders
(:mod:`~repro.experiments.testbed`), the S10.1 calibration procedures
(:mod:`~repro.experiments.calibration`), the waveform-level laboratory
for the micro-benchmarks (:mod:`~repro.experiments.waveform_lab`), and
small statistics/reporting helpers.
"""

from repro.experiments.calibration import calibrate_b_thresh, calibrate_p_thresh
from repro.experiments.metrics import (
    empirical_cdf,
    success_probability,
    summarize,
)
from repro.experiments.physio_lab import PhysioBatchResult, PhysioLab
from repro.experiments.report import ExperimentReport, ascii_cdf
from repro.experiments.testbed import AttackOutcome, AttackTestbed
from repro.experiments.waveform_lab import PassiveLab

__all__ = [
    "AttackOutcome",
    "AttackTestbed",
    "ExperimentReport",
    "PassiveLab",
    "PhysioBatchResult",
    "PhysioLab",
    "ascii_cdf",
    "calibrate_b_thresh",
    "calibrate_p_thresh",
    "empirical_cdf",
    "success_probability",
    "summarize",
]
