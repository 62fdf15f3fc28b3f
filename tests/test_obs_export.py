"""Prometheus exposition: collection, rendering, validation, serving.

The exporter is read-only plumbing between the campaign state the
store already holds and the text format scrapers expect, so the tests
check three seams: the gauges reflect cache/queue/progress/history
state, the rendered text survives the strict validator (and malformed
text does not), and the stdlib HTTP endpoint serves a fresh scrape.
"""

import json
import urllib.request

import pytest

from repro.campaigns import registry
from repro.campaigns.cache import ResultCache
from repro.campaigns.cli import main
from repro.obs.export import (
    METRIC_PREFIX,
    Metric,
    collect_metrics,
    render_exposition,
    serve_metrics,
    validate_exposition,
)


def _scenario():
    return registry.get("fleet-attack-prevalence").override(
        n_patients=20, n_trials=1, chunk_size=5
    )


def _run(tmp_path, traced=False):
    scenario = _scenario()
    from repro.campaigns.runner import CampaignRunner

    tracer = None
    if traced:
        from repro.obs.trace import Tracer

        tracer = Tracer(tmp_path, scenario.name)
    CampaignRunner(scenario, cache_dir=tmp_path, tracer=tracer).run()
    return scenario


def _render(tmp_path, scenario):
    cache = ResultCache(tmp_path)
    return render_exposition(collect_metrics(cache, scenario))


class TestCollectAndRender:
    def test_completed_campaign_exposes_core_gauges(self, tmp_path):
        scenario = _run(tmp_path)
        text = _render(tmp_path, scenario)
        names = validate_exposition(text)
        assert f"{METRIC_PREFIX}campaign_units" in names
        assert f"{METRIC_PREFIX}campaign_complete" in names
        assert f"{METRIC_PREFIX}queue_entries" in names
        assert all(name.startswith(METRIC_PREFIX) for name in names)
        assert 'state="planned"' in text
        assert f'scenario="{scenario.name}"' in text
        assert f"{METRIC_PREFIX}campaign_complete{{scenario=" in text

    def test_fresh_campaign_reports_zero_cached(self, tmp_path):
        scenario = _scenario()
        cache = ResultCache(tmp_path)
        text = render_exposition(collect_metrics(cache, scenario))
        validate_exposition(text)
        assert 'state="cached"} 0' in text
        assert f"{METRIC_PREFIX}campaign_complete" in text
        assert (
            f'{METRIC_PREFIX}queue_entries{{scenario="{scenario.name}",'
            f'state="queued"}} 0'
        ) in text
        # Exporting is read-only: a fresh root gets no store.
        assert not (tmp_path / "results.sqlite").exists()

    def test_progress_snapshots_become_participant_gauges(self, tmp_path):
        scenario = _run(tmp_path)
        text = _render(tmp_path, scenario)
        # The runner's own default-on progress snapshot is exported.
        assert f"{METRIC_PREFIX}progress_done_units" in text
        assert 'role="runner"' in text

    def test_history_entry_becomes_last_run_gauges(self, tmp_path):
        scenario = _run(tmp_path, traced=True)
        text = _render(tmp_path, scenario)
        names = validate_exposition(text)
        assert f"{METRIC_PREFIX}last_run_wall_seconds" in names
        assert f"{METRIC_PREFIX}last_run_stage_seconds" in names
        assert 'quantile="0.5"' in text
        assert 'quantile="0.9"' in text

    def test_label_values_are_escaped(self):
        metric = Metric("weird", "labels with every escape")
        metric.add({"source": 'a"b\\c\nd'}, 1)
        text = render_exposition([metric])
        assert '\\"' in text and "\\\\" in text and "\\n" in text
        assert validate_exposition(text) == [f"{METRIC_PREFIX}weird"]

    def test_none_samples_are_dropped(self):
        metric = Metric("maybe", "gauge with missing value")
        metric.add({"x": "1"}, None)
        assert metric.samples == []
        assert render_exposition([metric]) == ""


class TestCollectLiveMetrics:
    _SNAPSHOT = {
        "running": True, "finished": False, "active_sessions": 100,
        "sim_time_s": 12.5, "behind_s": 0.0,
        "events_by_kind": {"vitals": 1200, "attack": 5, "session": 100},
        "events_per_s": 10400.0, "alarms_fired": 4,
        "alarms_suppressed": 9, "alarms_by_rule": {"tachycardia": 4},
        "subscribers": 2, "frames_sent": 80, "frames_dropped": 3,
    }

    def test_live_snapshot_renders_valid_exposition(self):
        from repro.obs.export import collect_live_metrics

        text = render_exposition(collect_live_metrics(self._SNAPSHOT))
        names = validate_exposition(text)
        for expected in (
            "repro_live_engine_running",
            "repro_live_active_sessions",
            "repro_live_events",
            "repro_live_events_per_second",
            "repro_live_alarms",
            "repro_live_subscribers",
            "repro_live_frames",
        ):
            assert expected in names
        assert 'repro_live_events{kind="vitals"} 1200' in text
        assert 'repro_live_frames{state="dropped"} 3' in text

    def test_bare_engine_snapshot_renders_without_streaming_fields(self):
        from repro.obs.export import collect_live_metrics

        snapshot = {
            k: v for k, v in self._SNAPSHOT.items()
            if k not in ("subscribers", "frames_sent", "frames_dropped")
        }
        text = render_exposition(collect_live_metrics(snapshot))
        names = validate_exposition(text)
        assert "repro_live_subscribers" not in names
        assert "repro_live_frames" not in names


class TestValidator:
    def test_rejects_sample_without_type(self):
        with pytest.raises(ValueError, match="no # TYPE"):
            validate_exposition("repro_thing 1\n")

    def test_rejects_malformed_sample(self):
        text = "# TYPE repro_thing gauge\nrepro_thing one\n"
        with pytest.raises(ValueError, match="malformed sample"):
            validate_exposition(text)

    def test_rejects_malformed_label_pair(self):
        text = '# TYPE repro_thing gauge\nrepro_thing{bad=unquoted} 1\n'
        with pytest.raises(ValueError, match="label pair"):
            validate_exposition(text)

    def test_rejects_empty_exposition(self):
        with pytest.raises(ValueError, match="no samples"):
            validate_exposition("")

    def test_error_carries_line_number(self):
        text = "# TYPE repro_a gauge\nrepro_a 1\nnot a sample!\n"
        with pytest.raises(ValueError, match="line 3"):
            validate_exposition(text)


class TestServeMetrics:
    def test_endpoint_serves_fresh_scrapes(self, tmp_path):
        scenario = _run(tmp_path)
        cache = ResultCache(tmp_path)
        server = serve_metrics(cache, scenario, port=0)
        try:
            import threading

            thread = threading.Thread(
                target=server.serve_forever, daemon=True
            )
            thread.start()
            host, port = server.server_address[:2]
            with urllib.request.urlopen(
                f"http://{host}:{port}/metrics", timeout=10
            ) as resp:
                assert resp.status == 200
                assert "version=0.0.4" in resp.headers["Content-Type"]
                body = resp.read().decode("utf-8")
            validate_exposition(body)
            assert f"{METRIC_PREFIX}campaign_complete" in body
            with urllib.request.urlopen(
                f"http://{host}:{port}/healthz", timeout=10
            ) as resp:
                assert resp.status == 200
                assert resp.read() == b"ok\n"
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(
                    f"http://{host}:{port}/other", timeout=10
                )
            assert excinfo.value.code == 404
        finally:
            server.shutdown()
            server.server_close()


class TestExportMetricsCli:
    _ARGS = [
        "export-metrics", "fleet-attack-prevalence",
        "--patients", "20", "--trials", "1", "--chunk-size", "5",
    ]

    def test_writes_stdout_by_default(self, capsys, tmp_path):
        scenario = _run(tmp_path)
        del scenario
        capsys.readouterr()
        assert main([*self._ARGS, "--cache-dir", str(tmp_path)]) == 0
        out = capsys.readouterr().out
        validate_exposition(out)

    def test_writes_output_file(self, capsys, tmp_path):
        _run(tmp_path)
        target = tmp_path / "metrics" / "campaign.prom"
        assert main([
            *self._ARGS, "--cache-dir", str(tmp_path),
            "--output", str(target),
        ]) == 0
        validate_exposition(target.read_text(encoding="utf-8"))
