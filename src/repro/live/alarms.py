"""Rule evaluation and rate-limited notifier fan-out for the monitor.

Safety split (the non-negotiable, after SNIPPETS Snippet 3's
alarm-vs-interlock architecture): **interlocks live in the simulated
device path** -- the shield's reactive jamming and its audible alarm
run inside :class:`~repro.experiments.testbed.AttackTestbed`, fire
within the detection window, and work whether or not any monitor is
attached.  This module is the *controller* side: it watches the event
stream, evaluates notification rules, and fans alerts out to
notifiers.  It CAN generate operator notifications, display and mirror
device interlock state, and evaluate conditions the device cannot
(rate-over-window trends across encounters); it CANNOT feed anything
back into the device simulation, suppress a device alarm, or alter an
outcome.  Nothing here holds a reference to a testbed or a session --
the pipeline consumes read-only :class:`~repro.live.events.LiveEvent`
records, structurally enforcing notification-only.

Three rule shapes cover the monitoring claims the batch sweeps cannot
express:

* :class:`ThresholdRule` -- a vitals field outside ``[low, high]``
  (tachycardia/bradycardia on the streamed heart rate);
* :class:`RateRule` -- more than ``threshold`` matching events inside
  a sliding ``window_s`` of *simulated* time per patient.  Battery-DoS
  is only observable as a rate phenomenon (arXiv:1904.06893): one
  interrogation is routine, dozens per minute is an attack;
* :class:`ShieldStateRule` -- shield/device state transitions carried
  by encounter events: the device interlock tripping (mirrored as a
  notification), and the worst case -- an unshielded patient's IMD
  accepting an unauthorized command.

Rate limiting runs on simulated time too, so a replayed schedule
rate-limits identically and the alarm log stays byte-stable.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import ClassVar

from repro.live.events import Alarm, LiveEvent
from repro.obs.log import get_logger

__all__ = [
    "AlarmPipeline",
    "CollectingNotifier",
    "LogNotifier",
    "RateLimiter",
    "RateRule",
    "ShieldStateRule",
    "ThresholdRule",
    "default_rules",
]

_log = get_logger("live.alarms")


@dataclass(frozen=True)
class ThresholdRule:
    """A vitals field strayed outside ``[low, high]``."""

    name: str
    event_field: str
    low: float | None = None
    high: float | None = None
    kind: str = "vitals"
    severity: str = "warning"

    def __post_init__(self) -> None:
        if self.low is None and self.high is None:
            raise ValueError(f"rule {self.name!r} needs a low or high bound")

    def evaluate(self, event: LiveEvent) -> Alarm | None:
        if event.kind != self.kind:
            return None
        value = event.data.get(self.event_field)
        if value is None:
            return None
        if self.high is not None and value > self.high:
            bound, edge = self.high, "above"
        elif self.low is not None and value < self.low:
            bound, edge = self.low, "below"
        else:
            return None
        return Alarm(
            time_s=event.time_s,
            patient=event.patient,
            rule=self.name,
            severity=self.severity,
            message=(
                f"{self.event_field} {value:g} {edge} {bound:g}"
            ),
            data={self.event_field: value, "bound": bound},
        )


class RateRule:
    """More than ``threshold`` matching events in ``window_s`` sim seconds.

    Stateful per patient (a bounded deque of recent match times), which
    is why it is a class, not a frozen dataclass.  State advances only
    on matching events, in dispatch order, on simulated time -- so it
    replays deterministically.
    """

    def __init__(
        self,
        name: str,
        kind: str = "attack",
        window_s: float = 10.0,
        threshold: int = 5,
        severity: str = "critical",
    ):
        if window_s <= 0:
            raise ValueError(f"window_s must be positive, got {window_s}")
        if threshold < 2:
            raise ValueError(
                f"a rate rule below 2 events is a threshold rule; "
                f"got threshold={threshold}"
            )
        self.name = name
        self.kind = kind
        self.window_s = float(window_s)
        self.threshold = int(threshold)
        self.severity = severity
        self._recent: dict[int, deque] = {}

    def evaluate(self, event: LiveEvent) -> Alarm | None:
        if event.kind != self.kind:
            return None
        times = self._recent.setdefault(
            event.patient, deque(maxlen=self.threshold)
        )
        times.append(event.time_s)
        if len(times) < self.threshold:
            return None
        span = event.time_s - times[0]
        if span > self.window_s:
            return None
        return Alarm(
            time_s=event.time_s,
            patient=event.patient,
            rule=self.name,
            severity=self.severity,
            message=(
                f"{self.threshold} {self.kind} events in {span:.1f}s "
                f"(window {self.window_s:g}s)"
            ),
            data={"count": self.threshold, "span_s": span},
        )


@dataclass(frozen=True)
class ShieldStateRule:
    """Shield/device state transitions carried by encounter events.

    Mirrors the device-side interlock as a notification (the operator
    should *see* that the shield jammed and alarmed -- the device
    already acted), and flags the unmitigated case: a shield-off
    patient whose IMD accepted an unauthorized command.
    """

    name: str = "shield-state"
    kind: ClassVar[str] = "attack"

    def evaluate(self, event: LiveEvent) -> Alarm | None:
        if event.kind != self.kind:
            return None
        data = event.data
        if data.get("imd_accepted") and not data.get("shield_worn"):
            return Alarm(
                time_s=event.time_s,
                patient=event.patient,
                rule=self.name,
                severity="critical",
                message="unshielded IMD accepted an unauthorized command",
                data={"shield_worn": False},
            )
        if data.get("alarm_raised"):
            # Notification-only mirror: the interlock already fired on
            # the device; the monitor cannot (and must not) add to it.
            return Alarm(
                time_s=event.time_s,
                patient=event.patient,
                rule=self.name,
                severity="warning",
                message="shield interlock tripped (device-side alarm)",
                data={"shield_jammed": bool(data.get("shield_jammed"))},
            )
        return None


def default_rules() -> list:
    """The monitor's stock rule set (heart-rate bands, DoS rate, shield)."""
    return [
        ThresholdRule(
            "tachycardia", event_field="hr_bpm", high=140.0,
        ),
        ThresholdRule(
            "bradycardia", event_field="hr_bpm", low=40.0,
        ),
        RateRule(
            "battery-dos", kind="attack", window_s=10.0, threshold=5,
        ),
        ShieldStateRule(),
    ]


class RateLimiter:
    """At most one notification per (rule, patient) per ``min_interval_s``.

    Runs on simulated time, so limiting decisions replay exactly.
    Suppressed alarms are *counted*, never silently lost -- the gauge
    is part of the live metrics surface.
    """

    def __init__(self, min_interval_s: float = 30.0):
        if min_interval_s < 0:
            raise ValueError(
                f"min_interval_s cannot be negative, got {min_interval_s}"
            )
        self.min_interval_s = float(min_interval_s)
        self.suppressed = 0
        self._last: dict[tuple[str, int], float] = {}

    def allow(self, alarm: Alarm) -> bool:
        key = (alarm.rule, alarm.patient)
        last = self._last.get(key)
        if last is not None and alarm.time_s - last < self.min_interval_s:
            self.suppressed += 1
            return False
        self._last[key] = alarm.time_s
        return True


class LogNotifier:
    """Fan-out target writing through the ``repro.live`` logger."""

    def notify(self, alarm: Alarm) -> None:
        _log.warning(
            "ALARM [%s] patient %d %s: %s",
            alarm.severity, alarm.patient, alarm.rule, alarm.message,
        )


class CollectingNotifier:
    """Fan-out target collecting alarms in memory (tests, examples)."""

    def __init__(self):
        self.alarms: list[Alarm] = []

    def notify(self, alarm: Alarm) -> None:
        self.alarms.append(alarm)


@dataclass
class AlarmPipeline:
    """events in -> rules -> rate limiter -> notifier fan-out.

    :meth:`process` returns the alarms that *fired* (survived rate
    limiting) so the engine can stream them; per-rule fired counts and
    the suppressed count feed the live gauges.  A notifier that raises
    is disarmed after its error is logged -- a broken pager must never
    stall the engine (the device interlocks never depended on it).

    An event is offered only to the rules whose ``kind`` matches it, in
    their original order; a rule without a ``kind`` attribute sees
    every event.  The per-kind lists are built on first use, so
    ``rules`` is fixed once events flow.
    """

    rules: list = field(default_factory=default_rules)
    notifiers: list = field(default_factory=list)
    limiter: RateLimiter = field(default_factory=RateLimiter)
    fired_by_rule: dict[str, int] = field(default_factory=dict)
    _rules_by_kind: dict[str, list] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def _rules_for(self, kind: str) -> list:
        rules = self._rules_by_kind.get(kind)
        if rules is None:
            rules = self._rules_by_kind[kind] = [
                rule for rule in self.rules
                if getattr(rule, "kind", kind) == kind
            ]
        return rules

    def process(self, event: LiveEvent) -> list[Alarm]:
        fired: list[Alarm] = []
        rules = self._rules_by_kind.get(event.kind)
        if rules is None:
            rules = self._rules_for(event.kind)
        for rule in rules:
            alarm = rule.evaluate(event)
            if alarm is None:
                continue
            if not self.limiter.allow(alarm):
                continue
            self.fired_by_rule[alarm.rule] = (
                self.fired_by_rule.get(alarm.rule, 0) + 1
            )
            fired.append(alarm)
            self._fan_out(alarm)
        return fired

    def _fan_out(self, alarm: Alarm) -> None:
        dead = []
        for notifier in self.notifiers:
            try:
                notifier.notify(alarm)
            except Exception:
                _log.exception(
                    "notifier %r failed; disarming it",
                    type(notifier).__name__,
                )
                dead.append(notifier)
        for notifier in dead:
            self.notifiers.remove(notifier)

    @property
    def fired_total(self) -> int:
        return sum(self.fired_by_rule.values())

    @property
    def suppressed_total(self) -> int:
        return self.limiter.suppressed
