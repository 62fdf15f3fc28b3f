"""``python -m repro live`` and ``repro top --live``.

The CLI seams: the live verb drives the engine and honours the replay
contract end to end (two invocations of one seed write identical log
bytes), bad arguments die at the argparse/config boundary with an
error instead of a traceback, and ``top --live`` renders a live
server's /status JSON (stubbed here -- the real endpoint is pinned in
``tests/test_live_serve.py``).
"""

import json
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import pytest

from repro.campaigns.cli import main

_FAST = [
    "live", "--patients", "8", "--duration", "6", "--drain",
    "--seed", "21",
]


class TestLiveVerb:
    def test_replays_byte_identical_logs(self, tmp_path, capsys):
        log_a = tmp_path / "a.jsonl"
        log_b = tmp_path / "b.jsonl"
        assert main(_FAST + ["--log-events", str(log_a)]) == 0
        assert main(_FAST + ["--log-events", str(log_b)]) == 0
        assert log_a.read_bytes() == log_b.read_bytes()
        out = capsys.readouterr().out
        # The same digest is reported for both runs.
        digests = {
            line.split("digest ")[1].rstrip(")")
            for line in out.splitlines()
            if "digest" in line
        }
        assert len(digests) == 1

    def test_log_lines_are_canonical_json(self, tmp_path, capsys):
        path = tmp_path / "events.jsonl"
        assert main(_FAST + ["--log-events", str(path)]) == 0
        lines = path.read_text().splitlines()
        assert lines
        for line in lines:
            payload = json.loads(line)
            assert line == json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )

    def test_prints_the_status_block(self, capsys):
        assert main(_FAST) == 0
        out = capsys.readouterr().out
        assert "live engine FINISHED" in out
        assert "events:" in out and "alarms:" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["live", "--patients", "0", "--drain"],
            ["live", "--duration", "0", "--drain"],
            ["live", "--speedup", "0"],
            ["live", "--bursts", "-1", "--drain"],
        ],
    )
    def test_bad_arguments_exit_with_an_error(self, argv):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert "error" in str(excinfo.value)


def _status_server(snapshots):
    """A stub live server: each GET /status pops the next snapshot."""

    class Handler(BaseHTTPRequestHandler):
        def do_GET(self):  # noqa: N802 - http.server API
            if self.path != "/status":
                self.send_error(404)
                return
            body = json.dumps(
                snapshots.pop(0) if len(snapshots) > 1 else snapshots[0]
            ).encode()
            self.send_response(200)
            self.send_header("Content-Type", "application/json")
            self.send_header("Content-Length", str(len(body)))
            self.end_headers()
            self.wfile.write(body)

        def log_message(self, fmt, *args):
            pass

    server = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    return server


class TestTopLive:
    _RUNNING = {
        "running": True, "finished": False, "active_sessions": 10,
        "sim_time_s": 5.0, "duration_s": 60.0, "speedup": 100.0,
        "events_total": 500, "events_per_s": 9500.0,
        "events_by_kind": {"vitals": 480, "session": 10},
        "alarms_fired": 2, "alarms_suppressed": 1,
        "alarms_by_rule": {"tachycardia": 2},
        "behind_s": 0.0, "subscribers": 3, "frames_flushed": 40,
        "frames_dropped": 7,
    }
    _DONE = dict(_RUNNING, running=False, finished=True)

    def test_polls_until_the_engine_finishes(self, capsys):
        server = _status_server([self._RUNNING, self._DONE])
        try:
            host, port = server.server_address[:2]
            rc = main([
                "top", "--live", f"{host}:{port}",
                "--interval", "0.05",
            ])
        finally:
            server.shutdown()
            server.server_close()
        assert rc == 0
        out = capsys.readouterr().out
        assert "live engine RUNNING" in out
        assert "live engine FINISHED" in out
        assert "3 subscriber(s)" in out
        assert "7 dropped" in out

    def test_once_prints_a_single_json_snapshot(self, capsys):
        server = _status_server([self._DONE])
        try:
            host, port = server.server_address[:2]
            rc = main([
                "top", "--live", f"http://{host}:{port}",
                "--once", "--format", "json",
            ])
        finally:
            server.shutdown()
            server.server_close()
        assert rc == 0
        snapshot = json.loads(capsys.readouterr().out)
        assert snapshot["finished"] is True

    def test_unreachable_server_is_an_error(self):
        with pytest.raises(SystemExit, match="cannot poll"):
            main([
                "top", "--live", "http://127.0.0.1:9", "--once",
            ])

    def test_scenario_is_still_required_without_live(self):
        with pytest.raises(SystemExit, match="scenario name is required"):
            main(["top"])
