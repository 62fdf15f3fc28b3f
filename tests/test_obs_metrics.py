"""Tests for the mergeable observability accumulators.

The load-bearing property: :class:`ObsAccumulator.merge` is associative,
commutative, and exact, so worker deltas shipped back in any order
reduce to the totals one serial pass would have recorded -- the same
contract :class:`repro.fleet.metrics.FleetAccumulator` pins for the
simulation numbers, applied to the observability numbers.
"""

import ast
import itertools
import math
import os
import re
from pathlib import Path

import pytest

from repro.obs.metrics import (
    ObsAccumulator,
    Timing,
    counter_inc,
    observed_call,
    take_global,
    timing_observe,
)


class TestTiming:
    def test_observe_folds_count_total_min_max(self):
        timing = Timing()
        for seconds in (0.5, 0.1, 0.9):
            timing.observe(seconds)
        assert timing.count == 3
        assert timing.total == pytest.approx(1.5)
        assert timing.min == 0.1
        assert timing.max == 0.9

    def test_merge_matches_single_stream(self):
        first, second, reference = Timing(), Timing(), Timing()
        for index, seconds in enumerate((0.2, 0.7, 0.05, 0.4)):
            (first if index % 2 else second).observe(seconds)
            reference.observe(seconds)
        merged = first.merge(second)
        assert merged.count == reference.count
        assert merged.total == pytest.approx(reference.total)
        assert merged.min == reference.min
        assert merged.max == reference.max

    def test_payload_round_trip(self):
        timing = Timing()
        timing.observe(0.25)
        timing.observe(0.75)
        restored = Timing.from_payload(timing.to_payload())
        assert restored == timing

    def test_empty_timing_round_trips_through_json_null_min(self):
        payload = Timing().to_payload()
        assert payload["min"] is None  # JSON has no Infinity
        restored = Timing.from_payload(payload)
        assert math.isinf(restored.min)
        assert restored.count == 0


def _shards() -> list[ObsAccumulator]:
    """Three shard accumulators with overlapping and disjoint names."""
    a = ObsAccumulator()
    a.count("units", 3)
    a.count("bytes", 120)
    a.observe("put", 0.2)
    a.observe("put", 0.6)
    b = ObsAccumulator()
    b.count("units", 2)
    b.count("hits", 1)
    b.observe("put", 0.05)
    b.observe("get", 0.3)
    c = ObsAccumulator()
    c.count("bytes", 7)
    c.observe("get", 0.9)
    return [a, b, c]


class TestObsAccumulator:
    def test_merge_is_order_invariant(self):
        """Every permutation of shard merges produces identical totals."""
        payloads = [s.to_payload() for s in _shards()]
        merges = []
        for order in itertools.permutations(range(3)):
            acc = ObsAccumulator()
            for index in order:
                acc.merge_payload(payloads[index])
            merges.append(acc.to_payload())
        assert all(m == merges[0] for m in merges)

    def test_merge_matches_single_serial_pass(self):
        serial = ObsAccumulator()
        serial.count("units", 5)
        serial.count("bytes", 127)
        serial.count("hits", 1)
        for seconds in (0.2, 0.6, 0.05):
            serial.observe("put", seconds)
        for seconds in (0.3, 0.9):
            serial.observe("get", seconds)
        merged = ObsAccumulator()
        for shard in _shards():
            merged.merge(shard)
        assert merged.to_payload() == serial.to_payload()

    def test_payload_round_trip_and_sorted_keys(self):
        acc = ObsAccumulator()
        acc.count("zeta")
        acc.count("alpha", 2)
        acc.observe("query", 0.1)
        payload = acc.to_payload()
        assert list(payload["counters"]) == ["alpha", "zeta"]
        assert ObsAccumulator.from_payload(payload).to_payload() == payload

    def test_empty_property(self):
        acc = ObsAccumulator()
        assert acc.empty
        acc.count("anything")
        assert not acc.empty

    def test_merging_empty_is_identity(self):
        acc = _shards()[0]
        before = acc.to_payload()
        acc.merge(ObsAccumulator())
        assert acc.to_payload() == before


class TestGlobalAccumulator:
    def test_take_global_returns_delta_and_resets(self):
        take_global()  # isolate from whatever the session recorded
        counter_inc("test.events", 4)
        timing_observe("test.span", 0.5)
        delta = take_global()
        assert delta["counters"] == {"test.events": 4}
        assert delta["timings"]["test.span"]["count"] == 1
        # The next take sees only what happened after the previous one.
        empty = take_global()
        assert empty == {"counters": {}, "timings": {}}


class TestObservedCall:
    def test_envelope_carries_result_and_observation(self):
        take_global()

        def unit_fn(unit):
            counter_inc("test.inside", unit)
            return {"value": unit * 2}

        envelope = observed_call(unit_fn, 21)
        assert envelope["result"] == {"value": 42}
        obs = envelope["obs"]
        assert obs["pid"] == os.getpid()
        assert obs["exec_s"] >= 0.0
        assert obs["start_mono"] > 0.0
        assert obs["metrics"]["counters"]["test.inside"] == 21

    def test_consecutive_calls_ship_disjoint_deltas(self):
        take_global()

        def unit_fn(unit):
            counter_inc("test.unit", 1)
            return unit

        first = observed_call(unit_fn, "a")["obs"]["metrics"]
        second = observed_call(unit_fn, "b")["obs"]["metrics"]
        assert first["counters"] == {"test.unit": 1}
        assert second["counters"] == {"test.unit": 1}
        merged = ObsAccumulator()
        merged.merge_payload(first)
        merged.merge_payload(second)
        assert merged.counters == {"test.unit": 2}


_REPO = Path(__file__).resolve().parents[1]
_RECORDERS = {"counter_inc", "timing_observe"}


def _recorded_names() -> set[str]:
    """Every string literal passed as the name to a recorder under src/."""
    names = set()
    for path in sorted((_REPO / "src" / "repro").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not (isinstance(node, ast.Call) and node.args):
                continue
            func = node.func
            called = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            if called not in _RECORDERS:
                continue
            for sub in ast.walk(node.args[0]):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names.add(sub.value)
    return names


class TestDocumentedNames:
    """docs/observability.md lists exactly the names the package records."""

    doc = (_REPO / "docs" / "observability.md").read_text()

    def test_every_recorded_name_is_documented(self):
        recorded = _recorded_names()
        assert "progress.published" in recorded  # the walk finds call sites
        missing = sorted(n for n in recorded if f"`{n}`" not in self.doc)
        assert missing == []

    def test_every_documented_name_is_recorded(self):
        documented = set(
            re.findall(r"^\| `([^`]+)` \| (?:counter|timing)", self.doc, re.M)
        )
        stale = documented - _recorded_names() - {"live.events.<kind>"}
        assert sorted(stale) == []

    def test_live_event_counters_follow_the_documented_pattern(self):
        from repro.live.engine import _EVENT_COUNTERS

        assert "`live.events.<kind>`" in self.doc
        for kind, name in _EVENT_COUNTERS.items():
            assert name == f"live.events.{kind}"
