"""Tests for span tracing and its hard invariant.

The invariant this file exists to pin: **tracing never changes the
numbers**.  A traced run's results and cache bytes are bit-identical to
an untraced run's, on the classic attack path and the fleet path alike
-- the trace is write-only observability, never an input.
"""

import json
from pathlib import Path

import pytest

from repro.campaigns import registry
from repro.campaigns import worker as worker_module
from repro.campaigns.cli import _budget_scenario, main
from repro.campaigns.runner import CampaignRunner, plan_scenario_units
from repro.campaigns.worker import run_worker
from repro.obs.report import load_trace, summarize_run
from repro.obs.trace import (
    TRACE_ENV,
    TRACE_FILENAME,
    TRACE_SCHEMA_VERSION,
    Tracer,
    resolve_tracing,
    runs_root,
)


class TestResolveTracing:
    def test_defaults_off(self, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert resolve_tracing() is False

    @pytest.mark.parametrize("raw,expected", [
        ("1", True), ("true", True), ("YES", True), ("on", True),
        ("0", False), ("false", False), ("No", False), ("off", False),
    ])
    def test_environment_opt_in(self, monkeypatch, raw, expected):
        monkeypatch.setenv(TRACE_ENV, raw)
        assert resolve_tracing() is expected

    def test_flag_beats_environment(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        assert resolve_tracing(False) is False
        monkeypatch.setenv(TRACE_ENV, "0")
        assert resolve_tracing(True) is True

    def test_junk_environment_raises(self, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "maybe")
        with pytest.raises(ValueError, match=TRACE_ENV):
            resolve_tracing()


def _read_events(path: Path) -> list[dict]:
    with open(path, "r", encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


class TestTracerLifecycle:
    def test_manifest_is_the_first_line_and_flushed(self, tmp_path):
        tracer = Tracer(tmp_path, "demo")
        tracer.start_run({"scenario": "demo", "seed": 7})
        # Durable before finish: an in-flight run is identifiable.
        events = _read_events(tracer.path)
        assert events[0]["type"] == "manifest"
        assert events[0]["t"] == 0.0
        assert events[0]["seed"] == 7
        assert events[0]["trace_schema"] == TRACE_SCHEMA_VERSION
        assert events[0]["run_id"] == tracer.run_id
        tracer.finish()

    def test_events_carry_type_and_monotonic_offset(self, tmp_path):
        tracer = Tracer(tmp_path, "demo")
        tracer.start_run({})
        tracer.emit("unit", key="abc", status="computed")
        tracer.finish(total_units=1)
        events = _read_events(tracer.path)
        assert [e["type"] for e in events] == ["manifest", "unit", "summary"]
        assert events[1]["key"] == "abc"
        offsets = [e["t"] for e in events]
        assert offsets == sorted(offsets)
        assert events[-1]["wall_s"] >= 0.0
        assert events[-1]["total_units"] == 1

    def test_finish_is_idempotent_and_emit_after_is_noop(self, tmp_path):
        tracer = Tracer(tmp_path, "demo")
        tracer.start_run({})
        tracer.finish()
        assert tracer.finished
        tracer.finish()  # no error, no second summary
        tracer.emit("unit", key="late")
        events = _read_events(tracer.path)
        assert sum(1 for e in events if e["type"] == "summary") == 1
        assert not any(e.get("key") == "late" for e in events)

    def test_emit_before_start_is_noop(self, tmp_path):
        tracer = Tracer(tmp_path, "demo")
        tracer.emit("unit", key="early")
        assert not tracer.path.exists()

    def test_run_ids_never_collide(self, tmp_path):
        first = Tracer(tmp_path, "demo", run_id="fixed")
        first.start_run({})
        first.finish()
        second = Tracer(tmp_path, "demo", run_id="fixed")
        assert second.run_id != first.run_id
        assert second.run_dir != first.run_dir

    def test_context_manager_marks_interruption(self, tmp_path):
        with pytest.raises(RuntimeError):
            with Tracer(tmp_path, "demo") as tracer:
                tracer.start_run({})
                raise RuntimeError("boom")
        events = _read_events(tracer.path)
        assert events[-1]["type"] == "summary"
        assert events[-1]["interrupted"] is True


def _attack_scenario():
    return registry.get("attack-success-shielded").override(
        n_trials=2, location_indices=(1, 8)
    )


def _fleet_scenario():
    return registry.get("fleet-privacy-leakage").override(
        n_patients=20, n_trials=2, chunk_size=10
    )


def _run(scenario, cache_dir, tracer=None, workers=None):
    runner = CampaignRunner(
        scenario, cache_dir=cache_dir, workers=workers, tracer=tracer
    )
    return runner.run()


class TestTracedCampaign:
    def test_manifest_records_the_run_configuration(self, tmp_path):
        scenario = _attack_scenario()
        tracer = Tracer(tmp_path, scenario.name)
        _run(scenario, tmp_path, tracer=tracer)
        events = _read_events(tracer.path)
        manifest = events[0]
        assert manifest["scenario"] == scenario.name
        assert manifest["scenario_hash"] == scenario.scenario_hash()
        assert manifest["kind"] == "attack"
        assert manifest["seed"] == scenario.seed
        assert manifest["total_units"] == 2
        assert manifest["workers"] == 1
        assert manifest["forced_serial"] is False
        assert "transport" not in manifest
        assert "accel_backend" not in manifest
        assert manifest["cache_backend"] == "sqlite"
        for key in ("schema_version", "package_version", "python_version",
                    "numpy_version", "started_at"):
            assert key in manifest

    def test_one_span_per_unit_with_stage_timings(self, tmp_path):
        scenario = _attack_scenario()
        tracer = Tracer(tmp_path, scenario.name)
        _run(scenario, tmp_path, tracer=tracer)
        events = _read_events(tracer.path)
        units = [e for e in events if e["type"] == "unit"]
        assert len(units) == 2
        for unit in units:
            assert unit["status"] == "computed"
            assert unit["queue_s"] >= 0.0
            assert unit["exec_s"] > 0.0
            assert unit["flush_s"] >= 0.0
            assert unit["result_bytes"] > 0
            assert isinstance(unit["pid"], int)
            assert unit["coords"]["kind"] == "attack"
        phases = {e["name"] for e in events if e["type"] == "phase"}
        assert {"plan", "execute", "reduce"} <= phases
        metrics = [e for e in events if e["type"] == "metrics"]
        assert len(metrics) == 1
        assert events[-1]["type"] == "summary"
        assert events[-1]["computed_units"] == 2

    def test_second_run_traces_cache_hits(self, tmp_path):
        scenario = _attack_scenario()
        _run(scenario, tmp_path)
        tracer = Tracer(tmp_path, scenario.name)
        result = _run(scenario, tmp_path, tracer=tracer)
        assert result.computed_units == 0
        events = _read_events(tracer.path)
        units = [e for e in events if e["type"] == "unit"]
        assert len(units) == 2
        assert all(u["status"] == "hit" for u in units)
        assert all(u["load_s"] >= 0.0 for u in units)
        assert events[-1]["cached_units"] == 2

    @pytest.mark.parametrize(
        "make_scenario", [_attack_scenario, _fleet_scenario],
        ids=["attack", "fleet"],
    )
    def test_traced_run_is_bit_identical_to_untraced(
        self, tmp_path, make_scenario, results_digest
    ):
        """The hard invariant: tracing never enters results or cache."""
        scenario = make_scenario()
        plain_dir = tmp_path / "plain"
        traced_dir = tmp_path / "traced"
        plain = _run(scenario, plain_dir)
        traced = _run(
            scenario, traced_dir, tracer=Tracer(traced_dir, scenario.name)
        )
        dump = lambda r: json.dumps(r.to_payload(), sort_keys=True)
        assert dump(traced) == dump(plain)
        assert results_digest(traced_dir) == results_digest(plain_dir)
        # The only difference on disk is the trace itself (default-on
        # progress may leave runs/.progress snapshots on both sides).
        assert list(runs_root(traced_dir).glob("*/trace.jsonl"))
        assert not list(runs_root(plain_dir).glob("*/trace.jsonl"))

    def test_parallel_traced_run_matches_serial(
        self, tmp_path, results_digest
    ):
        scenario = _attack_scenario()
        serial_dir = tmp_path / "serial"
        pool_dir = tmp_path / "pool"
        serial_tracer = Tracer(serial_dir, scenario.name)
        pool_tracer = Tracer(pool_dir, scenario.name)
        serial = _run(scenario, serial_dir, tracer=serial_tracer, workers=1)
        pooled = _run(scenario, pool_dir, tracer=pool_tracer, workers=2)
        assert json.dumps(pooled.to_payload(), sort_keys=True) == json.dumps(
            serial.to_payload(), sort_keys=True
        )
        assert results_digest(pool_dir) == results_digest(serial_dir)
        # Same observability shape either way: one span per unit, with
        # the same stage fields.
        for path in (serial_tracer.path, pool_tracer.path):
            units = [
                e for e in _read_events(path) if e["type"] == "unit"
            ]
            assert len(units) == 2
            assert all(
                {"queue_s", "exec_s", "flush_s", "pid"} <= set(u)
                for u in units
            )

    def test_pool_workers_do_not_reship_parent_counters(self, tmp_path):
        # The parent counts its cache misses before the pool forks; a
        # worker that kept its inherited copy would ship them back again.
        scenario = registry.get("fleet-attack-prevalence").override(
            n_patients=40, chunk_size=10
        )
        misses = []
        for workers in (1, 2):
            cache_dir = tmp_path / f"w{workers}"
            tracer = Tracer(cache_dir, scenario.name)
            _run(scenario, cache_dir, tracer=tracer, workers=workers)
            (metrics,) = [
                e["metrics"] for e in _read_events(tracer.path)
                if e["type"] == "metrics"
            ]
            misses.append(metrics["counters"]["store.sqlite.get_miss"])
        assert misses == [4, 4]

    def test_materialize_finishes_the_trace(self, tmp_path):
        scenario = _attack_scenario()
        tracer = Tracer(tmp_path, scenario.name)
        runner = CampaignRunner(scenario, cache_dir=tmp_path, tracer=tracer)
        computed = runner.materialize(limit=1)
        assert computed == 1
        assert tracer.finished
        events = _read_events(tracer.path)
        assert events[-1]["computed_units"] == 1


class TestCounterParity:
    @staticmethod
    def _run_metrics(scenario, cache_dir, workers) -> dict:
        tracer = Tracer(cache_dir, scenario.name)
        CampaignRunner(
            scenario, cache_dir=cache_dir, workers=workers,
            tracer=tracer, progress=False,
        ).run()
        (metrics,) = [
            e["metrics"] for e in _read_events(tracer.path)
            if e["type"] == "metrics"
        ]
        return metrics["counters"]

    @pytest.mark.parametrize("name", registry.names())
    def test_serial_and_two_worker_runs_count_the_same(self, tmp_path, name):
        """Only ``executor.*`` counters describe how a run executed;
        every other counter is the same serially and in a pool."""
        scenario = _budget_scenario(registry.get(name), "smoke")
        if scenario.kind == "fleet":
            # Smoke fleets fit one shard, which never reaches the pool.
            scenario = scenario.override(
                chunk_size=max(1, scenario.n_patients // 2)
            )
        serial, pooled = (
            self._run_metrics(scenario, tmp_path / f"w{workers}", workers)
            for workers in (1, 2)
        )
        assert pooled["executor.pool_units"] > 0

        def outside_executor(counters):
            return {
                key: value for key, value in counters.items()
                if not key.startswith("executor.")
            }

        assert outside_executor(pooled) == outside_executor(serial)


class TestCliTracing:
    _ARGS = (
        "run", "attack-success-shielded",
        "--trials", "2", "--locations", "1",
        "--format", "json",
    )

    def _trace_files(self, cache_dir: Path) -> list[Path]:
        root = runs_root(cache_dir)
        return sorted(root.glob(f"*/{TRACE_FILENAME}")) if root.is_dir() else []

    def test_untraced_by_default(self, capsys, tmp_path, monkeypatch):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        assert main([*self._ARGS, "--cache-dir", str(tmp_path)]) == 0
        assert self._trace_files(tmp_path) == []

    def test_trace_flag_writes_a_trace(self, capsys, tmp_path):
        assert main(
            [*self._ARGS, "--cache-dir", str(tmp_path), "--trace"]
        ) == 0
        traces = self._trace_files(tmp_path)
        assert len(traces) == 1
        manifest = json.loads(traces[0].read_text().splitlines()[0])
        assert manifest["scenario"] == "attack-success-shielded"

    def test_environment_enables_tracing(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "1")
        assert main([*self._ARGS, "--cache-dir", str(tmp_path)]) == 0
        assert len(self._trace_files(tmp_path)) == 1

    def test_no_trace_flag_beats_environment(
        self, capsys, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TRACE_ENV, "1")
        assert main(
            [*self._ARGS, "--cache-dir", str(tmp_path), "--no-trace"]
        ) == 0
        assert self._trace_files(tmp_path) == []

    def test_junk_environment_exits_with_error(self, tmp_path, monkeypatch):
        monkeypatch.setenv(TRACE_ENV, "maybe")
        with pytest.raises(SystemExit, match=TRACE_ENV):
            main([*self._ARGS, "--cache-dir", str(tmp_path)])

    def test_text_footer_names_the_trace(self, capsys, tmp_path):
        assert main([
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path), "--trace",
        ]) == 0
        out = capsys.readouterr().out
        assert "trace: " in out
        assert TRACE_FILENAME in out

    def test_profile_override_is_logged_and_recorded(self, capsys, tmp_path):
        assert main([
            "run", "attack-success-shielded",
            "--trials", "2", "--locations", "1",
            "--cache-dir", str(tmp_path),
            "--trace", "--profile", "--workers", "2",
        ]) == 0
        err = capsys.readouterr().err
        assert "--profile forces serial" in err
        assert "workers=2" in err
        manifest = json.loads(
            self._trace_files(tmp_path)[0].read_text().splitlines()[0]
        )
        assert manifest["forced_serial"] is True
        assert manifest["workers"] == 2
        assert manifest["effective_workers"] == 1

    _WORKER_ARGS = (
        "worker", "fleet-attack-prevalence",
        "--patients", "10", "--trials", "1", "--chunk-size", "5",
        "--worker-id", "w1",
        "--poll", "0.01", "--idle-timeout", "30",
    )

    @pytest.mark.parametrize("env,flags,traced", [
        (None, ("--trace",), True),
        ("1", (), True),
        ("1", ("--no-trace",), False),
        (None, (), False),
    ])
    def test_worker_tracing_follows_flag_then_environment(
        self, capsys, tmp_path, monkeypatch, env, flags, traced
    ):
        monkeypatch.delenv(TRACE_ENV, raising=False)
        if env is not None:
            monkeypatch.setenv(TRACE_ENV, env)
        assert main(
            [*self._WORKER_ARGS, "--cache-dir", str(tmp_path), *flags]
        ) == 0
        traces = self._trace_files(tmp_path)
        assert len(traces) == int(traced)
        if traced:
            manifest = json.loads(traces[0].read_text().splitlines()[0])
            assert manifest["role"] == "worker"
            assert manifest["worker_id"] == "w1"
            assert f"trace: {traces[0]}" in capsys.readouterr().out

    def test_worker_junk_environment_exits_with_error(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv(TRACE_ENV, "maybe")
        with pytest.raises(SystemExit, match=TRACE_ENV):
            main([*self._WORKER_ARGS, "--cache-dir", str(tmp_path)])

    def test_validate_runs_untraced(self, monkeypatch, tmp_path):
        # validate takes no --trace (it exits 2, see test_campaigns_cli)
        # and writes no trace even when the environment asks for one.
        monkeypatch.setenv(TRACE_ENV, "1")
        assert main([
            "validate", "crypto-only-baseline",
            "--budget", "smoke",
            "--cache-dir", str(tmp_path),
        ]) in (0, 1)
        assert not runs_root(tmp_path).exists()


def _smoke_physio():
    return _budget_scenario(
        registry.get("physio-leakage-by-location"), "smoke"
    )


def _trace_metrics(events: list[dict]) -> dict:
    (metrics,) = [e["metrics"] for e in events if e["type"] == "metrics"]
    return metrics["counters"]


class TestWorkerTrace:
    """A drained worker's trace tells the same story as a serial run's."""

    @pytest.fixture(scope="class")
    def traces(self, tmp_path_factory):
        scenario = _smoke_physio()
        root = tmp_path_factory.mktemp("worker-trace")
        runner_tracer = Tracer(root / "runner", scenario.name)
        CampaignRunner(
            scenario, cache_dir=root / "runner",
            tracer=runner_tracer, progress=False,
        ).run()
        worker_tracer = Tracer(root / "worker", f"{scenario.name}-worker-w1")
        run_worker(
            scenario, cache_dir=root / "worker",
            worker_id="w1", idle_timeout_s=30.0, tracer=worker_tracer,
            progress=False,
        )
        return (
            scenario,
            load_trace(runner_tracer.path),
            load_trace(worker_tracer.path),
        )

    def test_worker_metrics_count_every_unit(self, traces):
        scenario, (_, runner_events), (_, worker_events) = traces
        runner = _trace_metrics(runner_events)
        worker = _trace_metrics(worker_events)
        for name in ("store.sqlite.put", "store.sqlite.write_bytes"):
            assert worker[name] == runner[name], name
        assert worker["queue.completed"] == len(
            plan_scenario_units(scenario)
        )

    def test_computed_spans_share_one_shape(self, traces):
        _, runner_trace, worker_trace = traces
        runner = summarize_run(*runner_trace)
        worker = summarize_run(*worker_trace)
        assert worker["bytes"]["results"] == runner["bytes"]["results"] > 0
        assert {"execute", "flush"} <= set(worker["stages"])
        units = [e for e in worker_trace[1] if e["type"] == "unit"]
        assert units and all(u["status"] == "computed" for u in units)
        for unit in units:
            assert unit["worker"] == "w1"
            assert unit["attempt"] >= 1
            assert unit["lease_lost"] is False
            assert unit["flush_s"] >= 0.0

    def test_interrupted_worker_still_writes_its_metrics(
        self, tmp_path, monkeypatch
    ):
        scenario = _smoke_physio()
        real_evaluate = worker_module.evaluate_unit
        calls = {"n": 0}

        def dying_evaluate(spec):
            calls["n"] += 1
            if calls["n"] == 2:
                raise KeyboardInterrupt
            return real_evaluate(spec)

        monkeypatch.setattr(worker_module, "evaluate_unit", dying_evaluate)
        tracer = Tracer(tmp_path, f"{scenario.name}-worker-w1")
        with pytest.raises(KeyboardInterrupt):
            run_worker(
                scenario, cache_dir=tmp_path,
                worker_id="w1", idle_timeout_s=30.0, tracer=tracer,
                progress=False,
            )
        events = _read_events(tracer.path)
        assert [e["type"] for e in events[-2:]] == ["metrics", "summary"]
        assert events[-1]["interrupted"] is True
        assert _trace_metrics(events)["store.sqlite.put"] == 1


#: Direct observability calls the campaign layer must leave to
#: :class:`~repro.obs.observer.RunObserver`, besides any method call on
#: a tracer or a progress publisher.
_OBSERVER_ONLY = {"emit", "start_run", "take_global", "ProgressPublisher"}


def _direct_observability_calls() -> list[str]:
    """``path:line`` of every trace/progress/metrics call in campaigns/."""
    import ast

    root = Path(__file__).resolve().parents[1] / "src" / "repro" / "campaigns"
    found = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(
                func, "id", None
            )
            receiver = getattr(func, "value", None)
            receiver = getattr(receiver, "attr", getattr(receiver, "id", ""))
            if name in _OBSERVER_ONLY or str(receiver).endswith(
                ("tracer", "publisher")
            ):
                found.add(f"{path.relative_to(root)}:{node.lineno}")
    return sorted(found)


def test_campaigns_observe_only_through_the_run_observer():
    assert _direct_observability_calls() == []
