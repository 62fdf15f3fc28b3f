"""Campaign subsystem: named, cached, resumable experiment grids.

The paper's evaluation -- and every extension grid the ROADMAP asks for
-- is a set of *scenarios*: an attacker model crossed with a defense
configuration, swept along a channel/geometry axis with a Monte-Carlo
budget.  This package makes that space declarative and operable:

* :mod:`repro.campaigns.spec` -- the validated, content-addressed
  :class:`Scenario` record;
* :mod:`repro.campaigns.kinds` -- one module per scenario kind, each
  declaring its metrics, its built-in scenarios (the paper's figures and
  extension grids: battery DoS, crypto-only baseline, MIMO
  eavesdropper, physio leakage, fleet cohorts) and their golden claims;
* :mod:`repro.campaigns.registry` -- the named lookup those built-ins
  fill;
* :mod:`repro.campaigns.cache` -- the per-unit result cache keyed by
  (scenario hash, unit coordinates): re-runs are incremental and
  interrupted campaigns resume instead of restarting;
* :mod:`repro.campaigns.store` -- the storage behind the cache: one
  ``results.sqlite`` per cache root (WAL, one atomic upsert per unit),
  which also hosts the work queue and live progress;
* :mod:`repro.campaigns.runner` -- :class:`CampaignRunner`, which
  compiles a scenario into :class:`~repro.runtime.SweepExecutor` work
  units and reduces cached + fresh results to bit-identical numbers in
  any execution order;
* :mod:`repro.campaigns.queue` / :mod:`repro.campaigns.worker` -- the
  lease-based distributed work queue living inside the SQLite store:
  ``run --distributed`` plans units into it, any number of ``python -m
  repro worker`` processes sharing the cache root drain it crash-safely
  (see ``docs/distributed.md``);
* :mod:`repro.campaigns.cli` -- the ``python -m repro`` command
  (``list`` / ``run`` / ``worker`` / ``status`` / ``compare`` /
  ``validate`` / ``cache`` / ``report``).

The registry also carries each scenario's *golden-figure expectation
table* (:func:`registry.expectations_for`): declarative
:class:`~repro.stats.expectations.Expectation` records stating what the
paper's figures demand of every scenario's numbers.  ``python -m repro
validate`` judges runs against it -- a fixed-budget
:meth:`CampaignRunner.run` or an adaptive-precision
:meth:`CampaignRunner.run_adaptive` -- see ``docs/validation.md``.

Future scaling work (sharding campaigns across machines, a networked
queue) should extend this package: everything above it -- CLI,
examples, reports -- already consumes scenarios by name.
"""

from repro.campaigns import registry
from repro.campaigns.cache import ResultCache, default_cache_dir
from repro.campaigns.store import SQLiteStore
from repro.campaigns.queue import WorkQueue
from repro.campaigns.runner import (
    CampaignResult,
    CampaignRunner,
    CampaignStatus,
    CampaignUnit,
    evaluate_unit,
    plan_scenario_units,
)
from repro.campaigns.spec import Scenario
from repro.campaigns.worker import WorkerStats, run_worker

__all__ = [
    "CampaignResult",
    "CampaignRunner",
    "CampaignStatus",
    "CampaignUnit",
    "ResultCache",
    "SQLiteStore",
    "Scenario",
    "WorkQueue",
    "WorkerStats",
    "default_cache_dir",
    "evaluate_unit",
    "plan_scenario_units",
    "registry",
    "run_worker",
]
