"""The Fig. 6 testbed wired onto the event simulator.

:class:`ExperimentLinkModel` translates device placements into the
per-link received powers and noise floors the air needs:

* the IMD and the observer USRP sit together inside the body phantom
  (S10.3: "we sandwiched a USRP observer along with the IMD between the
  two slabs of meat");
* the shield is worn 12 cm over the implant;
* adversaries/programmers stand at numbered Fig. 6 locations;
* any path into or out of the phantom pays the body loss.

:class:`AttackTestbed` assembles a complete attack experiment -- IMD,
observer, optional shield, one attacker -- and runs trials, which is what
the Fig. 11/12/13 and Table 1/2 benchmarks iterate.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field

import numpy as np

from repro.adversary.active import CommandInjector
from repro.adversary.highpower import HighPowerAttacker
from repro.channel.fading import FadingModel
from repro.channel.geometry import AdversaryLocation, TestbedGeometry
from repro.channel.link_budget import FCC_MICS_EIRP_DBM, LinkBudget
from repro.core.config import ShieldConfig
from repro.core.detector import ActiveDetector
from repro.core.shield import ShieldRadio
from repro.phy.preamble import IdentifyingSequence
from repro.protocol.commands import CommandType, TherapySettings, encode_therapy_payload
from repro.protocol.imd import IMDevice, IMDParameters, VIRTUOSO
from repro.protocol.packets import Packet, PacketCodec
from repro.sim.air import Air, LinkModel
from repro.sim.engine import Simulator
from repro.sim.radio import IMDRadio, ObserverRadio
from repro.sim.trace import TimelineTrace

__all__ = [
    "Placement",
    "ExperimentLinkModel",
    "AttackTestbed",
    "AttackOutcome",
    "worn_shield_config",
]

# Link loss between two devices sharing the phantom (IMD <-> observer).
_IN_PHANTOM_LOSS_DB = 10.0

# Per-packet variation across the room (cart position, people).
_ROOM_FADING = FadingModel(los_k_factor_db=10.0, shadowing_sigma_db=3.0)
# The worn shield and the implant move together: tight channel.
_BODY_FADING = FadingModel(los_k_factor_db=14.0, shadowing_sigma_db=1.0)


@dataclass(frozen=True)
class Placement:
    """Where one device sits and whether it is inside the phantom."""

    name: str
    in_phantom: bool = False
    on_body: bool = False
    location: AdversaryLocation | None = None

    def __post_init__(self) -> None:
        roles = sum([self.in_phantom, self.on_body, self.location is not None])
        if roles != 1:
            raise ValueError(
                f"device {self.name!r} needs exactly one placement kind"
            )


class ExperimentLinkModel(LinkModel):
    """Link budget + fading for an arbitrary set of placed devices."""

    def __init__(
        self,
        budget: LinkBudget,
        room_fading: FadingModel | None = None,
        body_fading: FadingModel | None = None,
        link_memo: dict | None = None,
    ):
        self.budget = budget
        self.room_fading = room_fading or _ROOM_FADING
        self.body_fading = body_fading or _BODY_FADING
        self._placements: dict[str, Placement] = {}
        # A link's mean loss and fading kind are pure functions of its
        # two placements (and the budget), so each is worked out once:
        # ``link_memo`` keys them on the placements, and may be shared
        # by every link model on one budget (the testbed template's);
        # ``_links`` keys this model's current links on device names
        # for the per-reception lookup, and is cleared by :meth:`place`.
        self._link_memo: dict[
            tuple[Placement, Placement], tuple[float, bool, bool]
        ] = {} if link_memo is None else link_memo
        self._links: dict[
            tuple[str, str], tuple[float, FadingModel, bool]
        ] = {}
        self._fading_pools: dict[tuple[int, bool], list[float]] = {}

    def place(self, placement: Placement) -> None:
        self._placements[placement.name] = placement
        self._links.clear()

    def placement(self, name: str) -> Placement:
        try:
            return self._placements[name]
        except KeyError:
            raise KeyError(f"device {name!r} has no placement") from None

    # -- LinkModel interface -------------------------------------------

    def mean_rx_power_dbm(
        self, source: str, destination: str, tx_power_dbm: float
    ) -> float:
        return tx_power_dbm - self._link(source, destination)[0]

    #: Fading draws fetched per vectorized refill of one (model, LOS) pool.
    _FADING_POOL = 32

    def fading_db(
        self, source: str, destination: str, rng: np.random.Generator
    ) -> float:
        _, model, los = self._link(source, destination)
        # Refill a small per-(model, LOS) pool with one vectorized draw;
        # popping from it replaces three scalar generator calls per
        # transmission on the sweep hot path.
        key = (id(model), los)
        pool = self._fading_pools.get(key)
        if not pool:
            pool = model.gain_db_batch(los, rng, self._FADING_POOL).tolist()
            self._fading_pools[key] = pool
        return pool.pop()

    def _link(
        self, source: str, destination: str
    ) -> tuple[float, FadingModel, bool]:
        """A link's mean loss, fading model and LOS flag (memoised)."""
        link = self._links.get((source, destination))
        if link is None:
            pair = (self.placement(source), self.placement(destination))
            fixed = self._link_memo.get(pair)
            if fixed is None:
                fixed = self._link_memo[pair] = _fixed_link(
                    self.budget, *pair
                )
            loss, body, los = fixed
            link = self._links[(source, destination)] = (
                loss, self.body_fading if body else self.room_fading, los
            )
        return link

    def noise_power_dbm(self, destination: str) -> float:
        if self.placement(destination).in_phantom:
            return self.budget.imd_noise_dbm
        return self.budget.receiver_noise_dbm

    # -- loss bookkeeping ----------------------------------------------

    def link_loss_db(self, source: str, destination: str) -> float:
        """Mean total loss: air path plus any phantom crossings."""
        return self._link(source, destination)[0]


def _fixed_link(
    budget: LinkBudget, src: Placement, dst: Placement
) -> tuple[float, bool, bool]:
    """What two placements fix about their link: the mean loss, whether
    both ends sit on or in the body (the body fading model, else the
    room's), and the line-of-sight flag the fading draws use."""
    if (src.in_phantom or src.on_body) and (dst.in_phantom or dst.on_body):
        body, los = True, True
    else:
        located = src if src.location is not None else dst
        body = False
        los = located.location.line_of_sight if located.location else True
    if src.in_phantom and dst.in_phantom:
        return _IN_PHANTOM_LOSS_DB, body, los
    loss = _air_loss_db(budget.geometry, src, dst)
    if src.in_phantom:
        loss += budget.body.loss_db
    if dst.in_phantom:
        loss += budget.body.loss_db
    return loss, body, los


def _air_loss_db(
    geometry: TestbedGeometry, src: Placement, dst: Placement
) -> float:
    pathloss = geometry.pathloss
    if src.location is not None and dst.location is not None:
        # Two devices out in the room (e.g. replay attacker hearing a
        # programmer): distance between their floor-plan positions,
        # obstructed by the worse of the two placements.
        d = max(
            src.location.position().distance_to(dst.location.position()),
            pathloss.reference_m,
        )
        extra = max(
            src.location.obstruction_loss_db, dst.location.obstruction_loss_db
        )
        return pathloss.loss_db(d, extra)
    located = src if src.location is not None else dst
    if located.location is not None:
        return located.location.air_loss_db(pathloss)
    # Phantom cluster <-> worn shield: the 12 cm necklace hop.
    return geometry.shield_to_imd_loss_db()


@dataclass(frozen=True)
class AttackOutcome:
    """What one unauthorized command achieved."""

    imd_accepted: bool
    imd_responded: bool
    therapy_changed: bool
    alarm_raised: bool
    shield_jammed: bool


#: The serial number of every testbed's IMD.
_IMD_SERIAL = bytes(range(10))
#: The two therapy settings ``therapy_packet`` alternates between.
_FAST_THERAPY_PAYLOAD = encode_therapy_payload(
    TherapySettings(pacing_rate_bpm=120, shock_energy_j=1)
)
_SLOW_THERAPY_PAYLOAD = encode_therapy_payload(
    TherapySettings(pacing_rate_bpm=60, shock_energy_j=30)
)


@dataclass(frozen=True, eq=False)
class _TestbedTemplate:
    """The parts of a testbed that depend only on its geometry.

    None of them draws random numbers or keeps per-trial state, so every
    testbed on one geometry shares them: the link budget, one codec
    (with its encode memo), the detector's identifying sequence and
    detection window, the IMD power received at the worn shield, and
    the placement-keyed link memo of :class:`ExperimentLinkModel`.  A
    testbed builds only its simulator, air, radios, link model and
    seeded generators.  The memos take no lock: testbeds are built and
    run on one thread per process (parallel sweeps use worker
    processes).
    """

    budget: LinkBudget
    codec: PacketCodec
    sequence: IdentifyingSequence
    detection_window_bits: int
    imd_rx_at_shield_dbm: float
    link_memo: dict = field(default_factory=dict)

    def new_shield_config(self, **fields) -> ShieldConfig:
        """A :class:`ShieldConfig` with ``fields``, completed with the
        passive jam power and detection window a testbed on this
        geometry sets, in one construction."""
        margin = fields.get(
            "passive_jam_margin_db", ShieldConfig.passive_jam_margin_db
        )
        return ShieldConfig(
            **fields,
            passive_jam_tx_dbm=self.imd_rx_at_shield_dbm + margin,
            detection_window_bits=self.detection_window_bits,
        )

    def shield_config(self, base: ShieldConfig | None) -> ShieldConfig:
        """``base`` with the fields the testbed owns set: ``base`` itself
        when it already carries them, else a copy."""
        if base is None:
            return self.new_shield_config()
        jam = self.imd_rx_at_shield_dbm + base.passive_jam_margin_db
        if (
            base.passive_jam_tx_dbm == jam
            and base.detection_window_bits == self.detection_window_bits
        ):
            return base
        return dataclasses.replace(
            base,
            passive_jam_tx_dbm=jam,
            detection_window_bits=self.detection_window_bits,
        )


@functools.lru_cache(maxsize=16)
def _template(geometry: TestbedGeometry | None) -> _TestbedTemplate:
    """The shared template of one geometry (``None``: the default)."""
    budget = LinkBudget(geometry=geometry or TestbedGeometry())
    codec = PacketCodec()
    return _TestbedTemplate(
        budget=budget,
        codec=codec,
        sequence=codec.identifying_sequence(_IMD_SERIAL),
        detection_window_bits=codec.header_bit_count(),
        imd_rx_at_shield_dbm=budget.imd_rx_at_shield_dbm(),
    )


def worn_shield_config(
    geometry: TestbedGeometry | None = None, **fields
) -> ShieldConfig:
    """The :class:`ShieldConfig` with ``fields`` that an
    :class:`AttackTestbed` on ``geometry`` runs as is.

    The testbed sets the passive jam power (the config's margin over
    the IMD power received at the shield) and the detection window
    itself; a config built here already carries both, so the testbed
    takes it without a copy.
    """
    return _template(geometry).new_shield_config(**fields)


class AttackTestbed:
    """A ready-to-run attack experiment at one Fig. 6 location.

    Parameters mirror the paper's experimental axes: the adversary's
    location and hardware class, and whether the shield is present.
    ``jam_imd_replies`` defaults to False because the paper's observer
    methodology needs the IMD's replies observable (S10.3); the passive-
    protection experiments (Figs. 8-10) run at the waveform level
    instead.
    """

    #: Gap between repeated attack trials; long enough for every jam
    #: window of the previous trial to expire.
    TRIAL_SPACING_S = 0.08

    def __init__(
        self,
        location_index: int,
        shield_present: bool = True,
        attacker: str = "fcc",
        jam_imd_replies: bool = False,
        shield_jamming_enabled: bool = True,
        imd_parameters: IMDParameters | None = None,
        geometry: TestbedGeometry | None = None,
        seed: int | np.random.SeedSequence = 0,
        antenna_gain_dbi: float | None = None,
        observer_enabled: bool = True,
        shield_config: ShieldConfig | None = None,
    ):
        template = _template(geometry)
        self.budget = template.budget
        self.location = self.budget.geometry.location(location_index)
        # Integer seeds keep the historical (seed, seed+1, seed+2) RNG
        # layout; a SeedSequence (what chunked/parallel sweeps pass)
        # spawns three independent streams from the work unit's own
        # entropy.
        if isinstance(seed, np.random.SeedSequence):
            air_seed, imd_seed, shield_seed = seed.spawn(3)
        else:
            air_seed, imd_seed, shield_seed = seed, seed + 1, seed + 2
        self.rng = np.random.default_rng(air_seed)
        self.simulator = Simulator()
        # The timeline is the observer methodology's view (the examples
        # print it); observer-less trial loops never read it.
        self.trace: TimelineTrace | None = (
            TimelineTrace() if observer_enabled else None
        )
        self.codec = template.codec

        self.links = ExperimentLinkModel(
            self.budget, link_memo=template.link_memo
        )
        self.air = Air(self.simulator, self.links, rng=self.rng)

        self.imd = IMDevice(
            _IMD_SERIAL,
            parameters=imd_parameters or VIRTUOSO,
            codec=self.codec,
            rng=np.random.default_rng(imd_seed),
        )
        self.imd_radio = IMDRadio(
            self.simulator, self.imd, channel=0, trace=self.trace
        )
        self.links.place(Placement("imd", in_phantom=True))
        self.air.register(self.imd_radio)

        # The in-phantom observer USRP of S10.3.  It only *watches*; trial
        # loops that score outcomes from the IMD's and shield's own
        # counters can drop it and skip its per-packet receptions.
        self.observer: ObserverRadio | None = None
        if observer_enabled:
            self.observer = ObserverRadio(
                self.simulator, channels={0}, codec=self.codec
            )
            self.links.place(Placement("observer", in_phantom=True))
            self.air.register(self.observer)

        self.shield: ShieldRadio | None = None
        if shield_present:
            # ``shield_config`` lets callers vary the per-device
            # calibration (P_thresh spread, cancellation spread, the
            # passive jam margin -- the fleet cohorts); the absolute
            # jam power and the codec-derived detection window always
            # come from the testbed itself, because they are properties
            # of this geometry and frame layout -- only the config's
            # *margin* over the received IMD power is the device's own.
            config = template.shield_config(shield_config)
            detector = ActiveDetector(
                template.sequence,
                b_thresh=config.b_thresh,
                p_thresh_dbm=config.p_thresh_dbm,
                anomaly_rssi_dbm=config.anomaly_rssi_dbm,
            )
            self.shield = ShieldRadio(
                self.simulator,
                config,
                detector,
                session_channel=0,
                codec=self.codec,
                trace=self.trace,
                rng=np.random.default_rng(shield_seed),
                jam_imd_replies=jam_imd_replies,
                jamming_enabled=shield_jamming_enabled,
            )
            self.links.place(Placement("shield", on_body=True))
            self.air.register(self.shield)

        if attacker == "fcc":
            self.attacker = CommandInjector(
                self.simulator,
                channel=0,
                tx_power_dbm=FCC_MICS_EIRP_DBM,
                codec=self.codec,
            )
        elif attacker == "highpower":
            kwargs = {}
            if antenna_gain_dbi is not None:
                kwargs["antenna_gain_dbi"] = antenna_gain_dbi
            self.attacker = HighPowerAttacker(
                self.simulator,
                channel=0,
                shield_tx_power_dbm=FCC_MICS_EIRP_DBM,
                codec=self.codec,
                **kwargs,
            )
        else:
            raise ValueError(f"unknown attacker kind {attacker!r}")
        self.links.place(Placement("adversary", location=self.location))
        self.air.register(self.attacker)

        self._sequence = 0

    # ------------------------------------------------------------------
    # Attack packets
    # ------------------------------------------------------------------

    def interrogate_packet(self) -> Packet:
        """The battery-depletion command (Fig. 11): trigger telemetry.

        Carries a 4-byte record selector, as real interrogation commands
        address a stored-data region.
        """
        self._sequence = (self._sequence + 1) % 256
        return Packet(
            self.imd.serial,
            CommandType.INTERROGATE,
            self._sequence,
            payload=b"\x00\x00\x00\x01",
        )

    def therapy_packet(self) -> Packet:
        """The treatment-tampering command (Fig. 12)."""
        self._sequence = (self._sequence + 1) % 256
        # Alternate between two settings so every accepted command is an
        # observable state change.
        if self.imd.therapy.pacing_rate_bpm == 60:
            payload = _FAST_THERAPY_PAYLOAD
        else:
            payload = _SLOW_THERAPY_PAYLOAD
        return Packet(
            self.imd.serial, CommandType.SET_THERAPY, self._sequence, payload
        )

    # ------------------------------------------------------------------
    # Trials
    # ------------------------------------------------------------------

    def attack_once(self, packet: Packet) -> AttackOutcome:
        """Send one unauthorized command and report what happened."""
        accepted_before = self.imd.accepted_packets
        responded_before = self.imd.transmissions
        therapy_before = self.imd.therapy
        alarms_before = self.shield.alarms.alarm_count if self.shield else 0
        jams_before = (
            self.air.transmission_count("shield", kind="jam")
            if self.shield
            else 0
        )

        self.attacker.send_packet(packet)
        self.simulator.run(until=self.simulator.now + self.TRIAL_SPACING_S)

        alarm_raised = (
            self.shield is not None
            and self.shield.alarms.alarm_count > alarms_before
        )
        shield_jammed = (
            self.shield is not None
            and self.air.transmission_count("shield", kind="jam") > jams_before
        )
        return AttackOutcome(
            imd_accepted=self.imd.accepted_packets > accepted_before,
            imd_responded=self.imd.transmissions > responded_before,
            therapy_changed=self.imd.therapy != therapy_before,
            alarm_raised=alarm_raised,
            shield_jammed=shield_jammed,
        )

    def run_trials(
        self, n_trials: int, command: str = "interrogate"
    ) -> list[AttackOutcome]:
        """Repeat an attack ``n_trials`` times (the paper uses 100)."""
        outcomes = []
        for _ in range(n_trials):
            if command == "interrogate":
                packet = self.interrogate_packet()
            elif command == "therapy":
                packet = self.therapy_packet()
            else:
                raise ValueError(f"unknown command {command!r}")
            outcomes.append(self.attack_once(packet))
        return outcomes
