"""Stdlib-only SSE streaming of the live engine to many subscribers.

The engine dispatches up to tens of thousands of events per second;
no per-subscriber socket can (or should) carry every one.  The
:class:`BroadcastHub` sits between them and *coalesces*: it keeps the
latest vitals per patient plus the pending discrete events (attacks,
shield transitions, admissions, alarms), and at each flush interval
renders everything accumulated since the previous flush as **one
shared frame** -- a single ``bytes`` object every subscriber enqueues
by reference.  Fan-out cost is therefore O(subscribers) pointer
appends per flush, independent of the event rate.

The slow-consumer contract is the load-bearing guarantee: each
subscriber owns a bounded deque, a full deque drops its *oldest*
frame (latest-state-wins is the right semantics for vitals), drops are
counted per subscriber and globally, and the engine never awaits a
subscriber -- a SIGKILLed client or a stalled socket costs the engine
nothing.  ``tests/test_live_serve.py`` pins both halves.

:class:`LiveServer` is a hand-rolled ``asyncio.start_server`` HTTP
endpoint (the stdlib has no async HTTP server) mounting:

* ``GET /events`` -- the SSE stream (``text/event-stream``);
* ``GET /status`` -- one JSON engine+hub snapshot;
* ``GET /metrics`` -- the snapshot as Prometheus gauges through the
  same strict exposition pipeline as ``repro export-metrics``;
* ``GET /healthz`` -- the shared liveness probe.
"""

from __future__ import annotations

import asyncio
import json
import math
from collections import deque
from json.encoder import encode_basestring_ascii

from repro.live.engine import LiveEngine
from repro.live.events import LiveEvent
from repro.obs.export import (
    HEALTH_BODY,
    HEALTH_CONTENT_TYPE,
    HEALTH_PATH,
    collect_live_metrics,
    render_exposition,
)
from repro.obs.log import get_logger
from repro.obs.metrics import counter_inc

__all__ = ["BroadcastHub", "LiveServer", "Subscriber", "run_live"]

_log = get_logger("live.serve")

#: Frames a subscriber may queue before the hub starts dropping its
#: oldest.  At the default flush cadence this is ~8 seconds of backlog
#: -- far more than a healthy client ever accumulates.
DEFAULT_MAX_QUEUE = 64

#: Wall seconds between coalesced flushes (~10 frames/sec).
DEFAULT_FLUSH_INTERVAL_S = 0.1


class Subscriber:
    """One connected client's bounded frame queue."""

    def __init__(self, max_queue: int = DEFAULT_MAX_QUEUE):
        if max_queue < 1:
            raise ValueError(f"max_queue must be positive, got {max_queue}")
        self.max_queue = max_queue
        self.frames: deque[bytes] = deque()
        self.dropped = 0
        self.sent = 0
        self._wakeup = asyncio.Event()
        self.closed = False

    def offer(self, frame: bytes) -> None:
        """Enqueue a frame, dropping the oldest if the client is slow.

        Called from the hub's flush path -- synchronous and
        non-blocking by construction, so a stalled client can never
        back-pressure into the engine.
        """
        if len(self.frames) >= self.max_queue:
            self.frames.popleft()
            self.dropped += 1
            counter_inc("live.frames_dropped")
        self.frames.append(frame)
        self._wakeup.set()

    async def next_frames(self) -> list[bytes]:
        """Wait for at least one frame; drain everything queued."""
        while not self.frames and not self.closed:
            self._wakeup.clear()
            await self._wakeup.wait()
        drained = list(self.frames)
        self.frames.clear()
        return drained

    def close(self) -> None:
        self.closed = True
        self._wakeup.set()


def _dumps(value) -> str:
    return json.dumps(value, separators=(",", ":"))


def _vitals_entry(event: LiveEvent) -> str:
    """``{"t": event.time_s, **event.data}`` as frame JSON.

    The telemetry tick -- a finite float ``t`` and data exactly
    ``{hr_bpm: finite float, rhythm: str}`` in that order -- is written
    directly with the primitives ``json.dumps`` itself uses (``repr``
    of an exact float, ASCII string escaping), as
    :meth:`~repro.live.events.LiveEvent.canonical` writes its log line.
    Any other shape goes through ``json.dumps``.
    """
    data = event.data
    t = event.time_s
    if len(data) == 2 and next(iter(data)) == "hr_bpm":
        hr = data["hr_bpm"]
        rhythm = data.get("rhythm")
        if (
            type(hr) is float and type(t) is float and type(rhythm) is str
            and math.isfinite(hr) and math.isfinite(t)
        ):
            return (
                f'{{"t":{t!r},"hr_bpm":{hr!r},'
                f'"rhythm":{encode_basestring_ascii(rhythm)}}}'
            )
    return _dumps({"t": t, **data})


class BroadcastHub:
    """Coalescing fan-out between the engine and its subscribers.

    Attach with :meth:`attach`; the engine then feeds events and alarms
    in synchronously.  :meth:`flush` (driven by the server's flush
    task, or called directly in tests) renders one shared frame and
    offers it to every subscriber.
    """

    def __init__(self, max_queue: int = DEFAULT_MAX_QUEUE):
        self.max_queue = max_queue
        self.subscribers: list[Subscriber] = []
        self.frames_flushed = 0
        self.frames_sent = 0
        self.events_seen = 0
        self._latest_vitals: dict[int, LiveEvent] = {}
        self._pending_events: list[dict] = []
        self._pending_alarms: list[dict] = []
        self._sim_time_s = 0.0

    # -- engine side ----------------------------------------------------

    def attach(self, engine: LiveEngine) -> None:
        engine.add_event_listener(self.on_event)
        engine.add_alarm_listener(self.on_alarm)

    def on_event(self, event) -> None:
        self.events_seen += 1
        self._sim_time_s = event.time_s
        if event.kind == "vitals":
            # Latest-wins: only the newest vitals of each patient ride
            # the next frame, which is what bounds frame size at any
            # event rate.  The event is kept as is; its frame entry is
            # built at render time, once per patient per frame.
            self._latest_vitals[event.patient] = event
        else:
            self._pending_events.append(event.to_payload())

    def on_alarm(self, alarm) -> None:
        self._pending_alarms.append(alarm.to_payload())

    # -- subscriber side ------------------------------------------------

    def subscribe(self) -> Subscriber:
        sub = Subscriber(self.max_queue)
        self.subscribers.append(sub)
        counter_inc("live.subscribes")
        return sub

    def unsubscribe(self, sub: Subscriber) -> None:
        sub.close()
        if sub in self.subscribers:
            self.subscribers.remove(sub)

    @property
    def dropped_total(self) -> int:
        return sum(s.dropped for s in self.subscribers)

    # -- flushing -------------------------------------------------------

    def render_frame(self) -> bytes | None:
        """One SSE frame of everything accumulated since the last flush.

        Returns ``None`` when nothing happened (idle engines emit no
        keepalive spam; SSE comments could be added here if proxies
        ever need them).
        """
        if (
            not self._latest_vitals
            and not self._pending_events
            and not self._pending_alarms
        ):
            return None
        # The body is ``json.dumps`` of ``{"t", "vitals", "events",
        # "alarms"}`` with minimal separators; the vitals map, nearly
        # all of a ward's frame, is joined from entries rendered one by
        # one (see :func:`_vitals_entry`).
        vitals = ",".join([
            f"{encode_basestring_ascii(str(k))}:{_vitals_entry(event)}"
            for k, event in sorted(self._latest_vitals.items())
        ])
        body = (
            f'{{"t":{_dumps(self._sim_time_s)},"vitals":{{{vitals}}},'
            f'"events":{_dumps(self._pending_events)},'
            f'"alarms":{_dumps(self._pending_alarms)}}}'
        )
        self._latest_vitals = {}
        self._pending_events = []
        self._pending_alarms = []
        return f"event: frame\ndata: {body}\n\n".encode()

    def flush(self) -> int:
        """Offer one coalesced frame to every subscriber."""
        frame = self.render_frame()
        if frame is None:
            return 0
        self.frames_flushed += 1
        for sub in self.subscribers:
            sub.offer(frame)
            self.frames_sent += 1
        counter_inc("live.frames_flushed")
        return len(self.subscribers)

    def snapshot(self) -> dict:
        return {
            "subscribers": len(self.subscribers),
            "frames_flushed": self.frames_flushed,
            "frames_sent": self.frames_sent,
            "frames_dropped": self.dropped_total,
            "hub_events_seen": self.events_seen,
        }


# ----------------------------------------------------------------------
# The HTTP/SSE endpoint
# ----------------------------------------------------------------------

_RESPONSE_HEADERS = (
    "HTTP/1.1 {status}\r\n"
    "Content-Type: {ctype}\r\n"
    "Cache-Control: no-cache\r\n"
    "Connection: close\r\n"
)


class LiveServer:
    """Asyncio HTTP server streaming one engine to many clients."""

    def __init__(
        self,
        engine: LiveEngine,
        hub: BroadcastHub | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        flush_interval_s: float = DEFAULT_FLUSH_INTERVAL_S,
    ):
        if flush_interval_s <= 0:
            raise ValueError(
                f"flush_interval_s must be positive, got {flush_interval_s}"
            )
        self.engine = engine
        self.hub = hub if hub is not None else BroadcastHub()
        self.hub.attach(engine)
        self.host = host
        self.port = port
        self.flush_interval_s = flush_interval_s
        self._server: asyncio.AbstractServer | None = None
        self._flush_task: asyncio.Task | None = None

    # -- lifecycle ------------------------------------------------------

    async def start(self) -> None:
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._flush_task = asyncio.create_task(self._flush_loop())
        _log.info("live server on http://%s:%d", self.host, self.port)

    async def stop(self) -> None:
        if self._flush_task is not None:
            self._flush_task.cancel()
            try:
                await self._flush_task
            except asyncio.CancelledError:
                pass
            self._flush_task = None
        # Final flush + close wakes streaming handlers so they drain
        # and exit instead of waiting forever on a finished engine.
        self.hub.flush()
        for sub in list(self.hub.subscribers):
            sub.close()
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None

    async def _flush_loop(self) -> None:
        while True:
            await asyncio.sleep(self.flush_interval_s)
            self.hub.flush()

    def snapshot(self) -> dict:
        """Engine snapshot merged with the streaming-layer fields."""
        snap = self.engine.snapshot()
        snap.update(self.hub.snapshot())
        return snap

    # -- request handling ----------------------------------------------

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        try:
            request_line = await asyncio.wait_for(
                reader.readline(), timeout=10.0
            )
            parts = request_line.decode("latin-1").split()
            if len(parts) < 2 or parts[0] != "GET":
                await self._respond(
                    writer, "405 Method Not Allowed", "text/plain",
                    b"GET only\n",
                )
                return
            path = parts[1].split("?")[0]
            # Drain (and ignore) the request headers.
            while True:
                line = await asyncio.wait_for(
                    reader.readline(), timeout=10.0
                )
                if line in (b"\r\n", b"\n", b""):
                    break

            if path == "/events":
                await self._stream_events(writer)
            elif path == "/status":
                body = json.dumps(self.snapshot(), sort_keys=True).encode()
                await self._respond(
                    writer, "200 OK", "application/json", body
                )
            elif path == "/metrics":
                body = render_exposition(
                    collect_live_metrics(self.snapshot())
                ).encode()
                await self._respond(
                    writer, "200 OK",
                    "text/plain; version=0.0.4; charset=utf-8", body,
                )
            elif path == HEALTH_PATH:
                await self._respond(
                    writer, "200 OK", HEALTH_CONTENT_TYPE, HEALTH_BODY
                )
            else:
                await self._respond(
                    writer, "404 Not Found", "text/plain",
                    b"/events /status /metrics /healthz\n",
                )
        except (
            asyncio.TimeoutError,
            ConnectionError,
            asyncio.IncompleteReadError,
        ):
            pass
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _respond(
        self, writer: asyncio.StreamWriter, status: str, ctype: str,
        body: bytes,
    ) -> None:
        head = _RESPONSE_HEADERS.format(status=status, ctype=ctype)
        head += f"Content-Length: {len(body)}\r\n\r\n"
        writer.write(head.encode() + body)
        await writer.drain()

    async def _stream_events(self, writer: asyncio.StreamWriter) -> None:
        """One SSE subscription: frames until disconnect or engine end."""
        head = _RESPONSE_HEADERS.format(
            status="200 OK", ctype="text/event-stream"
        ) + "\r\n"
        writer.write(head.encode())
        await writer.drain()
        sub = self.hub.subscribe()
        try:
            while not sub.closed or sub.frames:
                frames = await sub.next_frames()
                if not frames:
                    break
                for frame in frames:
                    writer.write(frame)
                    sub.sent += 1
                # The one place a slow socket bites -- and it bites
                # only this subscriber's task; the engine and hub
                # never wait here.
                await writer.drain()
                if (
                    not self.engine.running
                    and self.engine.finished
                    and not sub.frames
                ):
                    break
        except (ConnectionError, OSError):
            # Abrupt disconnect (the SIGKILLed-subscriber case): the
            # engine must not notice beyond this unsubscribe.
            counter_inc("live.subscriber_disconnects")
        finally:
            self.hub.unsubscribe(sub)


async def run_live(
    engine: LiveEngine,
    serve: bool = False,
    host: str = "127.0.0.1",
    port: int = 0,
    linger_s: float = 0.0,
    on_started=None,
) -> dict:
    """Run one engine to completion, optionally streaming it.

    With ``serve``, a :class:`LiveServer` runs for the duration of the
    engine (plus ``linger_s`` wall seconds so late subscribers can
    drain) and ``on_started(server)`` fires once the port is bound --
    the hook tests and the example use to connect clients.  Returns
    the final merged snapshot.
    """
    if not serve:
        await engine.run()
        return engine.snapshot()

    server = LiveServer(engine, host=host, port=port)
    await server.start()
    if on_started is not None:
        maybe = on_started(server)
        if asyncio.iscoroutine(maybe):
            await maybe
    try:
        await engine.run()
        if linger_s > 0:
            await asyncio.sleep(linger_s)
    finally:
        await server.stop()
    return server.snapshot()
