"""Layer tracing shim: timing spans around public ``repro`` functions.

:class:`LayerTrace` replaces a fixed set of methods and module functions
with wrappers that record, per layer, the number of calls, the *self*
time (span duration minus the durations of wrapped calls made inside
it) and a few work counters.  Spans nest through a per-thread stack, so
the self times of all spans plus the time outside every top-level span
add up to the traced wall time exactly.

Wrappers never touch arguments or results, so a traced run computes
the same numbers as an untraced one.  Methods are patched on their
class; module functions are patched in every module that looks them up
(``evaluate_unit`` and ``plan_scenario_units`` are imported by name
into ``repro.campaigns.worker``).  :meth:`LayerTrace.uninstall` restores
every original.
"""

from __future__ import annotations

import functools
import inspect
import statistics
import threading
from collections import defaultdict
from time import perf_counter

#: Span name -> (self-time metric, call-count metric or None).  Every
#: span's self time is reported, which is what makes the per-layer
#: self times plus ``trace.unattributed_s`` sum to the traced wall.
SPANS = {
    "runner.plan": ("runner.plan_s", None),
    "runner.unit": ("runner.unit_self_s", "runner.units"),
    "runner.run": ("runner.self_s", None),
    "queue.claim": ("queue.claim_s", None),
    "queue.complete": ("queue.complete_s", None),
    "store.put": ("store.put_s", "store.puts"),
    "store.get": ("store.get_s", "store.gets"),
    "cohort.profile": ("cohort.profile_s", "cohort.patients"),
    "ecg.sample_batch": ("ecg.sample_batch_s", None),
    "ecg.walk_step": ("ecg.walk_step_s", "ecg.walk_steps"),
    "codec.encode": ("codec.encode_s", None),
    "framing.bits": ("framing.bits_s", None),
    "jam.build": ("jam.build_s", "jam.jammers"),
    "jam.correlation": ("jam.correlation_s", "jam.correlation_calls"),
    "jam.generate": ("jam.generate_s", None),
    "waveform.batch": ("waveform.self_s", "waveform.batches"),
    "fsk.modulate": ("fsk.modulate_s", None),
    "mimo.attack": ("mimo.attack_s", None),
    "inference.batch": ("inference.self_s", None),
    "inference.detect_beats": ("inference.detect_beats_s", None),
    "inference.estimate_hr": ("inference.estimate_hr_s", None),
    "testbed.build": ("testbed.build_s", "testbed.builds"),
    "testbed.trial": ("testbed.trial_self_s", "testbed.trials"),
    "sim.run": ("sim.run_self_s", None),
    "air.receive": ("air.receive_s", "air.receptions"),
    "shield.detect": ("shield.detect_s", None),
    "live.run": ("live.dispatch_self_s", None),
    "alarms.process": ("alarms.process_s", None),
    "eventlog.event": ("eventlog.event_s", None),
    "hub.on_event": ("hub.on_event_s", None),
    "hub.flush": ("hub.flush_s", None),
}

#: Work counters filled by count hooks (not spans).
COUNTERS = (
    "queue.claims",
    "store.hits",
    "ecg.records",
    "framing.packets",
    "inference.records",
    "sim.events",
    "alarms.fired",
)


def _count(name, amount):
    """A count hook adding ``amount(result)`` to counter ``name``."""

    def hook(counts, result):
        counts[name] += amount(result)

    return hook


class LayerTrace:
    """Installable set of layer spans over the ``repro`` package."""

    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self.unit_durations: list[float] = []
        self.top_level_s = 0.0
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ------------------------------------------------------

    def _stack(self) -> list[float]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _close(self, name: str, start: float, stack: list[float]) -> None:
        elapsed = perf_counter() - start
        children = stack.pop()
        self.calls[name] += 1
        self.self_s[name] += elapsed - children
        if stack:
            stack[-1] += elapsed
        else:
            self.top_level_s += elapsed
        if name == "runner.unit":
            self.unit_durations.append(elapsed)

    def span(self, name: str, fn, count=None):
        """``fn`` wrapped in a span named ``name`` (sync or coroutine)."""
        trace = self
        if inspect.iscoroutinefunction(fn):

            async def traced(*args, **kwargs):
                stack = trace._stack()
                stack.append(0.0)
                start = perf_counter()
                try:
                    return await fn(*args, **kwargs)
                finally:
                    trace._close(name, start, stack)

        else:

            def traced(*args, **kwargs):
                stack = trace._stack()
                stack.append(0.0)
                start = perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    trace._close(name, start, stack)
                if count is not None:
                    count(trace.counts, result)
                return result

        return functools.wraps(fn)(traced)

    # -- patching -------------------------------------------------------

    def _replace(self, owner, attr: str, original, wrapped) -> None:
        if getattr(owner, attr) is not original:
            raise RuntimeError(f"{owner!r}.{attr} is already patched")
        setattr(owner, attr, wrapped)
        self._patches.append((owner, attr, original))

    def patch_method(self, cls, attr: str, name: str, count=None):
        original = cls.__dict__[attr]
        self._replace(cls, attr, original, self.span(name, original, count))

    def patch_function(self, modules, attr: str, name: str, count=None):
        original = getattr(modules[0], attr)
        wrapped = self.span(name, original, count)
        for module in modules:
            self._replace(module, attr, original, wrapped)

    def install(self) -> "LayerTrace":
        """Wrap every layer boundary the per-layer metrics name."""
        from repro.adversary.mimo import MIMOEavesdropper
        from repro.campaigns import runner, worker
        from repro.campaigns.queue import WorkQueue
        from repro.campaigns.runner import CampaignRunner
        from repro.campaigns.store import SQLiteStore
        from repro.core.jamming import ShapedJammer
        from repro.core.shield import ShieldRadio
        from repro.experiments.testbed import AttackTestbed
        from repro.experiments.waveform_lab import PassiveLab
        from repro.fleet.cohort import CohortSpec
        from repro.live.alarms import AlarmPipeline
        from repro.live.engine import LiveEngine
        from repro.live.events import EventLog
        from repro.live.serve import BroadcastHub
        from repro.phy.fsk import FSKModulator
        from repro.physio import inference
        from repro.physio.codec import WaveformCodec
        from repro.physio.ecg import ECGGenerator, HeartRateWalk
        from repro.sim.air import Air
        from repro.sim.engine import Simulator

        try:
            self.patch_function(
                [runner, worker], "plan_scenario_units", "runner.plan"
            )
            self.patch_function([runner, worker], "evaluate_unit", "runner.unit")
            self.patch_method(CampaignRunner, "run", "runner.run")
            self.patch_method(
                WorkQueue, "claim", "queue.claim",
                _count("queue.claims", lambda claim: claim is not None),
            )
            self.patch_method(WorkQueue, "complete", "queue.complete")
            self.patch_method(SQLiteStore, "put", "store.put")
            self.patch_method(
                SQLiteStore, "get", "store.get",
                _count("store.hits", lambda result: result is not None),
            )
            self.patch_method(CohortSpec, "patient_profile", "cohort.profile")
            self.patch_method(
                ECGGenerator, "sample_batch", "ecg.sample_batch",
                _count("ecg.records", lambda batch: len(batch.heart_rate_bpm)),
            )
            self.patch_method(HeartRateWalk, "step", "ecg.walk_step")
            self.patch_method(WaveformCodec, "encode_batch", "codec.encode")
            self.patch_method(
                PassiveLab, "telemetry_packet_bits_batch", "framing.bits",
                _count("framing.packets", len),
            )
            self.patch_method(ShapedJammer, "__init__", "jam.build")
            self.patch_method(
                ShapedJammer, "tone_correlation_batch", "jam.correlation"
            )
            self.patch_method(ShapedJammer, "generate", "jam.generate")
            self.patch_method(PassiveLab, "run_batch", "waveform.batch")
            self.patch_method(FSKModulator, "modulate", "fsk.modulate")
            self.patch_method(MIMOEavesdropper, "attack", "mimo.attack")
            self.patch_method(
                inference.AttackerInference, "infer_batch", "inference.batch",
                _count("inference.records", len),
            )
            self.patch_function(
                [inference], "detect_beats", "inference.detect_beats"
            )
            self.patch_function(
                [inference], "estimate_heart_rate", "inference.estimate_hr"
            )
            self.patch_method(AttackTestbed, "__init__", "testbed.build")
            self.patch_method(AttackTestbed, "attack_once", "testbed.trial")
            self._patch_simulator(Simulator)
            self.patch_method(Air, "receive", "air.receive")
            self.patch_method(
                ShieldRadio, "on_transmission_start", "shield.detect"
            )
            self.patch_method(LiveEngine, "run", "live.run")
            self.patch_method(
                AlarmPipeline, "process", "alarms.process",
                _count("alarms.fired", len),
            )
            self.patch_method(EventLog, "event", "eventlog.event")
            self.patch_method(BroadcastHub, "on_event", "hub.on_event")
            self.patch_method(BroadcastHub, "flush", "hub.flush")
        except BaseException:
            self.uninstall()
            raise
        return self

    def _patch_simulator(self, simulator_cls) -> None:
        """``Simulator.run`` in a span that also counts processed events."""
        original = simulator_cls.__dict__["run"]
        counts = self.counts

        @functools.wraps(original)
        def run(sim, *args, **kwargs):
            before = sim.events_processed
            try:
                return original(sim, *args, **kwargs)
            finally:
                counts["sim.events"] += sim.events_processed - before

        self._replace(
            simulator_cls, "run", original, self.span("sim.run", run)
        )

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "LayerTrace":
        return self.install()

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reporting ------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer metric values of everything recorded so far."""
        out: dict[str, float] = {}
        for name, (self_metric, calls_metric) in SPANS.items():
            out[self_metric] = self.self_s.get(name, 0.0)
            if calls_metric is not None:
                out[calls_metric] = self.calls.get(name, 0)
        for name in COUNTERS:
            out[name] = self.counts.get(name, 0)
        durations = self.unit_durations
        out["runner.unit_p50_s"] = (
            statistics.median(durations) if durations else 0.0
        )
        out["runner.unit_max_s"] = max(durations) if durations else 0.0
        hits, gets = out.pop("store.hits"), out["store.gets"]
        out["store.hit_ratio"] = hits / gets if gets else 0.0
        return out

    @staticmethod
    def self_time_metrics() -> list[str]:
        """The metrics whose sum is the attributed part of the wall."""
        return [self_metric for self_metric, _ in SPANS.values()]
