"""Declarative scenario specs: one frozen record per reproducible run.

A :class:`Scenario` names everything a campaign needs to reproduce one
grid of results -- the attacker model, the defense configuration, the
channel geometry axis it sweeps, and the Monte-Carlo budget -- so runs
can be listed, cached, resumed, and compared by name instead of by
hand-edited script.

Five scenario kinds cover the repo's experiment layers, each owned by
one module under :mod:`repro.campaigns.kinds`:

* ``"attack"`` -- the Fig. 11/12/13 event-level sweeps: an active
  adversary (``fcc`` or ``highpower``) walks the numbered testbed
  locations and fires unauthorized commands at the (optionally
  shielded) IMD.
* ``"passive_ber"`` -- the Fig. 9 waveform-level sweep: a passive
  eavesdropper's bit error rate under shaped jamming, by location.
* ``"mimo"`` -- the S3.2 multi-antenna eavesdropper: blind jam-subspace
  projection versus shield-to-IMD source separation.
* ``"physio"`` -- cardiac-content privacy leakage: the vitals an
  eavesdropper decodes from jammed telemetry, by location.
* ``"fleet"`` -- population cohorts: attack prevalence, leakage
  quantiles and alarm burden across patients.

Identity is *content-addressed*: :meth:`Scenario.scenario_hash` digests
the canonical execution payload (kind, axes, seeds, trial counts -- not
the display name or prose), so two specs that would compute the same
numbers share one cache namespace and any parameter change invalidates
it automatically.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, fields, replace

from repro.campaigns.kinds import KINDS

__all__ = ["Scenario", "SCHEMA_VERSION"]

#: Bumped whenever the meaning of a payload field changes -- or the
#: shape of stored unit results -- and part of the content hash, so old
#: cache entries can never be misread as new ones.  v2: passive/MIMO
#: unit results carry second moments (``ber_sqsum``) for confidence
#: intervals and adaptive stopping.  v3: the ``physio`` scenario kind
#: (cardiac telemetry content + privacy-leakage moments).  v4: the
#: ``fleet`` scenario kind (population cohorts + sharded streaming
#: reduction).  Each kind stamps its own version into its payload
#: (:attr:`ScenarioKind.schema`), so adding a kind never changes the
#: content hash of another kind's scenarios.
SCHEMA_VERSION = 4


@dataclass(frozen=True)
class Scenario:
    """One named, validated, hashable experiment grid.

    Only the fields relevant to ``kind`` participate in validation and
    in the content hash; the rest keep their defaults and are ignored.
    """

    name: str
    kind: str
    title: str = ""
    description: str = ""
    tags: tuple[str, ...] = ()

    # Monte-Carlo budget (all kinds).  ``n_trials`` is trials per grid
    # point: attack trials, jammed packets, or MIMO attack attempts.
    seed: int = 0
    n_trials: int = 25
    chunk_size: int | None = None

    # Location axis (attack, passive_ber).
    location_indices: tuple[int, ...] = tuple(range(1, 15))

    # Attack axes.
    attacker: str = "fcc"
    command: str = "interrogate"
    shield_present: bool = True
    metric: str = "auto"
    antenna_gain_dbi: float | None = None

    # Passive axes.
    jam_margin_db: float = 20.0

    # MIMO axes.
    separations_m: tuple[float, ...] = ()
    n_antennas: int = 2
    sir_db: float = -20.0
    snr_db: float = 40.0
    packet_bits: int = 256

    # Physio axes.  ``n_trials`` counts cardiac records per location;
    # ``jam_margin_db`` and ``shield_present`` are shared with the
    # attack/passive kinds above.
    rhythm: str = "normal"
    packets_per_record: int = 16

    # Fleet axes (population cohorts; see repro.fleet).  ``n_trials``
    # counts encounters per patient (attack attempts or telemetry
    # records), ``chunk_size`` patients per work-unit shard, and
    # ``location_indices`` the candidate encounter geometries each
    # patient's adversary is drawn from.  ``attacker``, ``command`` and
    # ``packets_per_record`` are shared with the kinds above.
    n_patients: int = 200
    fleet_task: str = "attack"
    rhythm_prevalence: tuple[float, ...] = (0.70, 0.10, 0.10, 0.10)
    location_weights: tuple[float, ...] | None = None
    shield_worn_fraction: float = 0.9
    jam_margin_mean_db: float = 20.0
    jam_margin_std_db: float = 1.5
    p_thresh_std_db: float = 1.0
    cancellation_std_db: float = 2.0
    observation_days: float = 1.0

    def __post_init__(self) -> None:
        # Normalise list-valued axes so equality and hashing are stable
        # whatever sequence type the caller passed.
        object.__setattr__(self, "tags", tuple(self.tags))
        object.__setattr__(
            self, "location_indices", tuple(self.location_indices)
        )
        object.__setattr__(
            self, "separations_m", tuple(float(s) for s in self.separations_m)
        )
        object.__setattr__(
            self,
            "rhythm_prevalence",
            tuple(float(p) for p in self.rhythm_prevalence),
        )
        if self.location_weights is not None:
            object.__setattr__(
                self,
                "location_weights",
                tuple(float(w) for w in self.location_weights),
            )
        self._validate()

    def _validate(self) -> None:
        if not self.name or not self.name.replace("-", "").isalnum():
            raise ValueError(
                f"scenario name must be a non-empty kebab-case slug, "
                f"got {self.name!r}"
            )
        if self.kind not in KINDS:
            raise ValueError(
                f"unknown scenario kind {self.kind!r}; "
                f"expected one of {tuple(KINDS)}"
            )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise ValueError(f"seed must be an integer, got {self.seed!r}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be positive, got {self.n_trials}")
        if self.chunk_size is not None and self.chunk_size < 1:
            raise ValueError(
                f"chunk_size must be positive or None, got {self.chunk_size}"
            )
        KINDS[self.kind].validate(self)

    # -- identity -------------------------------------------------------

    def payload(self) -> dict:
        """The canonical execution payload: what the content hash covers.

        The schema field is *per kind* (the version at which this
        kind's semantics last changed), so introducing a new kind never
        orphans the cached results of the existing ones.
        """
        kind = KINDS[self.kind]
        out: dict = {"schema": kind.schema, "kind": self.kind}
        for name in kind.payload_fields:
            value = getattr(self, name)
            out[name] = list(value) if isinstance(value, tuple) else value
        return out

    def scenario_hash(self) -> str:
        """Content address of this scenario's result namespace."""
        canonical = json.dumps(self.payload(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode()).hexdigest()[:16]

    # -- derived views --------------------------------------------------

    def axis_values(self) -> tuple:
        """The grid axis this scenario sweeps, one value per cell."""
        return KINDS[self.kind].axis_values(self)

    def grid_size(self) -> int:
        return len(self.axis_values())

    def override(self, **changes) -> "Scenario":
        """A copy with fields replaced (re-validated, re-hashed).

        The canonical way for examples and the CLI to narrow a
        registered scenario (fewer locations, a different seed) while
        keeping every other axis -- the new spec gets its own cache
        namespace automatically.

        Fields that do not participate in the target kind's execution
        payload are rejected rather than silently ignored: overriding
        ``location_indices`` on a MIMO scenario would otherwise change
        nothing (and no cache namespace) while looking like it narrowed
        the grid.
        """
        known = {f.name for f in fields(self)}
        unknown = set(changes) - known
        if unknown:
            raise ValueError(f"unknown scenario fields: {sorted(unknown)}")
        kind = changes.get("kind", self.kind)
        if kind in KINDS:
            display = {"name", "kind", "title", "description", "tags"}
            inapplicable = (
                set(changes) - display - set(KINDS[kind].payload_fields)
            )
            if inapplicable:
                raise ValueError(
                    f"field(s) {sorted(inapplicable)} do not apply to a "
                    f"{kind!r} scenario and would be silently ignored"
                )
        return replace(self, **changes)

    def summary(self) -> str:
        """One human line: what this scenario actually runs."""
        return KINDS[self.kind].summary(self)
