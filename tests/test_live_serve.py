"""Streaming layer: coalescing hub, bounded queues, SSE endpoint.

The guarantee under test is the slow-consumer contract: every
subscriber owns a bounded queue, a slow or vanished subscriber loses
*its own* oldest frames (counted, never silent) and costs the engine
nothing -- the engine finishes on schedule no matter what the sockets
do.  The abrupt-disconnect test is the SIGKILLed-dashboard case from
the issue; the endpoint tests pin the four mounted paths, including
/metrics flowing through the same strict exposition validator as the
campaign exporter.
"""

import asyncio
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.live.clock import AcceleratedClock
from repro.live.engine import LiveConfig, LiveEngine
from repro.live.events import Alarm, LiveEvent
from repro.live.serve import (
    BroadcastHub,
    LiveServer,
    Subscriber,
    run_live,
)
from repro.obs.export import validate_exposition
from repro.physio.ecg import RHYTHM_CLASSES

_CFG = LiveConfig(n_patients=10, duration_s=6.0, attack_bursts=1, seed=4)


def _engine(speedup=600.0):
    return LiveEngine(_CFG, clock=AcceleratedClock(speedup))


def _vitals(t, patient, hr):
    return LiveEvent(t, patient, "vitals", {"hr_bpm": hr})


class TestSubscriber:
    def test_full_queue_drops_oldest_and_counts(self):
        async def scenario():
            sub = Subscriber(max_queue=3)
            for i in range(5):
                sub.offer(b"frame-%d" % i)
            return sub

        sub = asyncio.run(scenario())
        assert sub.dropped == 2
        assert list(sub.frames) == [b"frame-2", b"frame-3", b"frame-4"]

    def test_next_frames_drains_everything_queued(self):
        async def scenario():
            sub = Subscriber()
            sub.offer(b"a")
            sub.offer(b"b")
            frames = await sub.next_frames()
            return frames, len(sub.frames)

        frames, left = asyncio.run(scenario())
        assert frames == [b"a", b"b"] and left == 0

    def test_close_wakes_a_waiting_reader(self):
        async def scenario():
            sub = Subscriber()
            task = asyncio.ensure_future(sub.next_frames())
            await asyncio.sleep(0.01)
            sub.close()
            return await asyncio.wait_for(task, timeout=1.0)

        assert asyncio.run(scenario()) == []

    def test_rejects_non_positive_queue(self):
        with pytest.raises(ValueError):
            Subscriber(max_queue=0)


class TestBroadcastHub:
    def test_vitals_coalesce_latest_wins(self):
        async def scenario():
            hub = BroadcastHub()
            sub = hub.subscribe()
            hub.on_event(_vitals(1.0, 3, 70.0))
            hub.on_event(_vitals(2.0, 3, 80.0))  # supersedes
            hub.on_event(_vitals(2.0, 4, 60.0))
            hub.flush()
            frames = await sub.next_frames()
            return frames

        frames = asyncio.run(scenario())
        assert len(frames) == 1
        payload = json.loads(
            frames[0].split(b"data: ", 1)[1].split(b"\n", 1)[0]
        )
        assert payload["vitals"]["3"]["hr_bpm"] == 80.0
        assert payload["vitals"]["4"]["hr_bpm"] == 60.0

    def test_discrete_events_and_alarms_all_ride_the_frame(self):
        hub = BroadcastHub()
        hub.on_event(LiveEvent(1.0, 0, "attack", {"imd_accepted": False}))
        hub.on_alarm(Alarm(1.0, 0, "dos", "critical", "boom"))
        frame = hub.render_frame()
        payload = json.loads(
            frame.split(b"data: ", 1)[1].split(b"\n", 1)[0]
        )
        assert len(payload["events"]) == 1
        assert payload["alarms"][0]["rule"] == "dos"
        # Flushed state resets: an idle hub emits nothing.
        assert hub.render_frame() is None

    def test_one_flush_is_one_shared_frame_for_every_subscriber(self):
        hub = BroadcastHub()
        subs = [hub.subscribe() for _ in range(5)]
        hub.on_event(_vitals(1.0, 0, 70.0))
        assert hub.flush() == 5
        frames = [s.frames[0] for s in subs]
        assert all(f is frames[0] for f in frames)  # same bytes object

    def test_unsubscribe_stops_delivery(self):
        hub = BroadcastHub()
        sub = hub.subscribe()
        hub.unsubscribe(sub)
        hub.on_event(_vitals(1.0, 0, 70.0))
        hub.flush()
        assert sub.closed and len(sub.frames) == 0
        assert hub.subscribers == []


def _json_frame(sim_time_s, vitals, events, alarms):
    """The frame as one ``json.dumps`` of its payload: the form
    ``render_frame`` writes directly."""
    payload = {
        "t": sim_time_s,
        "vitals": {
            str(k): {"t": event.time_s, **event.data}
            for k, event in sorted(vitals.items())
        },
        "events": [event.to_payload() for event in events],
        "alarms": [alarm.to_payload() for alarm in alarms],
    }
    body = json.dumps(payload, separators=(",", ":"))
    return f"event: frame\ndata: {body}\n\n".encode()


_number = st.one_of(
    st.floats(),
    st.floats(0.0, 300.0).map(lambda x: round(x, 3)),
    st.integers(-(2**70), 2**70),
    st.none(),
)
_rhythm = st.one_of(
    st.sampled_from(RHYTHM_CLASSES), st.text(max_size=6), st.integers()
)
_vitals_data = st.one_of(
    st.fixed_dictionaries({"hr_bpm": _number, "rhythm": _rhythm}),
    # The same two keys in the other order, and other shapes.
    st.fixed_dictionaries({"rhythm": _rhythm, "hr_bpm": _number}),
    st.dictionaries(
        st.sampled_from(["hr_bpm", "rhythm", "t", "spo2", "é"]),
        st.one_of(_number, _rhythm),
        max_size=3,
    ),
)


class TestFrameRender:
    @settings(max_examples=300, deadline=None)
    @given(
        ticks=st.lists(
            st.tuples(_number, st.integers(-3, 40), _vitals_data),
            max_size=12,
        ),
        sim_time_s=_number,
        attacks=st.integers(0, 2),
        alarms=st.integers(0, 2),
    )
    def test_frame_bytes_equal_one_json_dump(
        self, ticks, sim_time_s, attacks, alarms
    ):
        hub = BroadcastHub()
        sub = hub.subscribe()
        latest, events, raised = {}, [], []
        for t, patient, data in ticks:
            event = LiveEvent(t, patient, "vitals", data)
            hub.on_event(event)
            latest[patient] = event
        for i in range(attacks):
            event = LiveEvent(
                float(i), i, "attack", {"imd_accepted": bool(i), "n": None}
            )
            hub.on_event(event)
            events.append(event)
        for i in range(alarms):
            alarm = Alarm(float(i), i, "battery-dos", "critical", "ü", {})
            hub.on_alarm(alarm)
            raised.append(alarm)
        # The frame's top-level ``t`` is the last event's time.
        hub._sim_time_s = sim_time_s
        hub.flush()
        if not (latest or events or raised):
            assert not sub.frames
            return
        assert list(sub.frames) == [
            _json_frame(sim_time_s, latest, events, raised)
        ]


async def _sse_client(server, max_bytes=1 << 20, hold_open=False):
    """Subscribe and read until the server closes (or we have enough)."""
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(b"GET /events HTTP/1.1\r\nHost: t\r\n\r\n")
    await writer.drain()
    data = b""
    try:
        while len(data) < max_bytes:
            chunk = await asyncio.wait_for(reader.read(65536), timeout=5.0)
            if not chunk:
                break
            data += chunk
    except asyncio.TimeoutError:
        pass
    finally:
        if not hold_open:
            writer.close()
    return data


async def _get(server, path):
    reader, writer = await asyncio.open_connection(server.host, server.port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: t\r\n\r\n".encode())
    await writer.drain()
    raw = await asyncio.wait_for(reader.read(), timeout=5.0)
    writer.close()
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split()[1])
    return status, body


class TestLiveServer:
    def test_two_subscribers_both_receive_events_and_alarms(self):
        async def scenario():
            engine = _engine()
            clients = []

            def on_started(server):
                clients.append(
                    asyncio.ensure_future(_sse_client(server))
                )
                clients.append(
                    asyncio.ensure_future(_sse_client(server))
                )

            snap = await run_live(
                engine, serve=True, linger_s=0.2, on_started=on_started
            )
            streams = await asyncio.gather(*clients)
            return engine, snap, streams

        engine, snap, streams = asyncio.run(scenario())
        assert engine.finished
        for stream in streams:
            assert stream.count(b"event: frame") >= 1
            payloads = [
                json.loads(line[len(b"data: "):])
                for line in stream.splitlines()
                if line.startswith(b"data: ")
            ]
            assert any(p["vitals"] for p in payloads)
            assert any(p["alarms"] for p in payloads)
        assert snap["frames_flushed"] >= 1

    def test_abrupt_disconnect_never_stalls_the_engine(self):
        async def scenario():
            engine = _engine()
            done = []

            async def kill_client(server):
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"GET /events HTTP/1.1\r\n\r\n")
                await writer.drain()
                await reader.read(512)
                # The SIGKILL stand-in: abort the transport with no
                # goodbye, mid-stream.
                writer.transport.abort()
                done.append(True)

            def on_started(server):
                done.append(asyncio.ensure_future(kill_client(server)))

            snap = await run_live(
                engine, serve=True, linger_s=0.1, on_started=on_started
            )
            await done[0]
            return engine, snap

        engine, snap = asyncio.run(scenario())
        assert engine.finished            # the engine never noticed
        assert snap["subscribers"] == 0   # the hub reaped the corpse

    def test_slow_consumer_loses_frames_not_the_engine(self):
        async def scenario():
            engine = _engine(speedup=2000.0)
            server = LiveServer(engine)
            server.hub.max_queue = 2
            # A subscriber that never reads: frames pile into its
            # bounded queue and the oldest fall off the end.  Flushing
            # per event makes the overflow deterministic instead of
            # racing the wall-clock flush loop.
            stuck = server.hub.subscribe()
            engine.add_event_listener(lambda _e: server.hub.flush())
            await engine.run()
            return engine, server, stuck

        engine, server, stuck = asyncio.run(scenario())
        assert engine.finished
        assert stuck.dropped > 0
        assert len(stuck.frames) <= 2
        assert server.snapshot()["frames_dropped"] == stuck.dropped

    def test_status_metrics_healthz_and_404(self):
        async def scenario():
            engine = _engine()
            results = {}

            async def probe(server):
                results["status"] = await _get(server, "/status")
                results["metrics"] = await _get(server, "/metrics")
                results["healthz"] = await _get(server, "/healthz")
                results["missing"] = await _get(server, "/nope")

            probes = []

            def on_started(server):
                probes.append(asyncio.ensure_future(probe(server)))

            await run_live(
                engine, serve=True, linger_s=0.3, on_started=on_started
            )
            await probes[0]
            return results

        results = asyncio.run(scenario())
        status, body = results["status"]
        assert status == 200
        snap = json.loads(body)
        assert snap["n_patients"] == _CFG.n_patients
        assert "subscribers" in snap
        status, body = results["metrics"]
        assert status == 200
        names = validate_exposition(body.decode())
        assert "repro_live_active_sessions" in names
        assert "repro_live_events_per_second" in names
        assert "repro_live_subscribers" in names
        assert results["healthz"] == (200, b"ok\n")
        assert results["missing"][0] == 404

    def test_rejects_non_get_requests(self):
        async def scenario():
            engine = _engine()
            server = LiveServer(engine)
            await server.start()
            try:
                reader, writer = await asyncio.open_connection(
                    server.host, server.port
                )
                writer.write(b"POST /events HTTP/1.1\r\n\r\n")
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=5.0)
                writer.close()
            finally:
                await server.stop()
            return raw

        raw = asyncio.run(scenario())
        assert b"405" in raw.split(b"\r\n", 1)[0]

    def test_rejects_bad_flush_interval(self):
        with pytest.raises(ValueError):
            LiveServer(_engine(), flush_interval_s=0.0)
