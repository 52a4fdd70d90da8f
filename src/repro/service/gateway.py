"""The asyncio gateway: many clients, bounded queues, explicit overload.

One :class:`ServiceGateway` accepts any number of concurrent client
connections and funnels their requests into one
:class:`~repro.service.orchestrator.Orchestrator`.  Per connection:

* a **handshake** (hello/welcome, with a timeout so a silent socket
  cannot hold a session slot);
* a **reader** that parses length-prefixed frames and enqueues requests
  into a *bounded* per-client queue — when the queue is full the
  request is rejected immediately with a ``service-overloaded`` error
  frame (explicit backpressure, never unbounded buffering);
* a **worker** that drains the queue FIFO, routes each request through
  the orchestrator and writes the response or a structured error frame.

Failure containment is connection-scoped: a malformed or oversized
frame poisons only its own connection (one final ``err`` frame, then
close); a backend exception becomes an ``err`` frame and the
connection — and the gateway — live on; a client disconnecting
mid-request tears down its session's tasks and nothing else.

Every completed request contributes a wall-clock latency sample
(enqueue to response written).  Samples are emitted on the telemetry
bus as ``service``-category spans and aggregated into
:meth:`ServiceGateway.stats` percentiles.  End-to-end throughput of
the served path is the ``served`` workload of ``perfbench/``.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any, Dict, Optional

from repro.errors import (
    FrameTooLarge,
    HandshakeError,
    ProtocolError,
    ServiceError,
)
from repro.service import protocol
from repro.service.orchestrator import Orchestrator
from repro.telemetry.bus import SERVICE

_QUEUE_DONE = object()


class _Session:
    """Per-connection state."""

    def __init__(self, session_id: int, client: str, max_queue: int) -> None:
        self.id = session_id
        self.client = client
        self.queue: asyncio.Queue = asyncio.Queue(maxsize=max_queue)
        self.worker: Optional[asyncio.Task] = None
        self.requests = 0
        self.rejected = 0
        self.errors = 0


class ServiceGateway:
    """Serve a ResEx orchestrator over length-prefixed JSON frames."""

    def __init__(
        self,
        orchestrator: Orchestrator,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        max_queue: int = 256,
        max_frame: int = protocol.DEFAULT_MAX_FRAME,
        handshake_timeout_s: float = 5.0,
        telemetry=None,
        logger=None,
    ) -> None:
        self.orchestrator = orchestrator
        self.host = host
        self.port = port
        self.max_queue = int(max_queue)
        self.max_frame = int(max_frame)
        self.handshake_timeout_s = float(handshake_timeout_s)
        self.telemetry = telemetry
        self.logger = logger
        self._server: Optional[asyncio.base_events.Server] = None
        self._sessions: Dict[int, _Session] = {}
        self._session_seq = 0
        self._t0 = time.perf_counter()
        #: Wall-clock request latencies (seconds), enqueue -> response.
        self.latencies_s: list = []
        self.requests_served = 0
        self.requests_rejected = 0
        self.sessions_opened = 0
        self.protocol_errors = 0

    # -- lifecycle -----------------------------------------------------------
    async def start(self) -> None:
        """Start the backend and bind the listening socket."""
        await self.orchestrator.start()
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._t0 = time.perf_counter()
        if self.logger is not None:
            self.logger.info(
                f"service gateway listening on {self.host}:{self.port} "
                f"(mode={self.orchestrator.mode})"
            )

    async def stop(self) -> None:
        """Close the listener, tear down sessions, stop the backend."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for session in list(self._sessions.values()):
            if session.worker is not None:
                session.worker.cancel()
        for session in list(self._sessions.values()):
            if session.worker is not None:
                try:
                    await session.worker
                except (asyncio.CancelledError, Exception):
                    pass
        self._sessions.clear()
        await self.orchestrator.stop()

    async def drain(self, timeout_s: float = 10.0) -> None:
        """Graceful degradation: stop accepting, finish what's queued.

        Closes the listening socket (new dials are refused), then
        waits — bounded by ``timeout_s`` — for every session's queue
        to empty so already-accepted requests get their responses.
        Existing connections stay open; callers follow up with
        :meth:`stop` (typically after checkpointing the served world).
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        deadline = time.perf_counter() + float(timeout_s)
        while time.perf_counter() < deadline:
            if all(s.queue.empty() for s in self._sessions.values()):
                return
            await asyncio.sleep(0.01)

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() was never awaited"
        await self._server.serve_forever()

    # -- per-connection ------------------------------------------------------
    def _wall_ns(self) -> int:
        return int((time.perf_counter() - self._t0) * 1e9)

    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        session: Optional[_Session] = None
        try:
            session = await self._handshake(reader, writer)
            if session is None:
                return
            await self._read_loop(session, reader, writer)
        except (ConnectionError, asyncio.IncompleteReadError):
            pass  # peer vanished; cleanup below
        finally:
            if session is not None:
                await self._teardown(session)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _handshake(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> Optional[_Session]:
        try:
            hello = await asyncio.wait_for(
                protocol.read_frame(reader, self.max_frame),
                self.handshake_timeout_s,
            )
            if hello is None:
                return None
            client = protocol.check_hello(hello)
        except (HandshakeError, ProtocolError) as exc:
            self.protocol_errors += 1
            await self._write(
                writer, protocol.error_frame(None, exc.code, str(exc))
            )
            return None
        except asyncio.TimeoutError:
            self.protocol_errors += 1
            await self._write(
                writer,
                protocol.error_frame(
                    None, HandshakeError.code, "handshake timed out"
                ),
            )
            return None

        self._session_seq += 1
        session = _Session(self._session_seq, client, self.max_queue)
        self._sessions[session.id] = session
        self.sessions_opened += 1
        session.worker = asyncio.create_task(
            self._worker(session, writer), name=f"service-worker-{session.id}"
        )
        await self._write(
            writer,
            protocol.welcome_frame(session.id, self.orchestrator.mode),
        )
        if self.logger is not None:
            self.logger.debug(
                f"session {session.id} opened by {client!r}"
            )
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.event(
                SERVICE,
                "session_open",
                self._wall_ns(),
                lane=f"session-{session.id}",
                client=client,
            )
        return session

    async def _read_loop(
        self,
        session: _Session,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        while True:
            try:
                frame = await protocol.read_frame(reader, self.max_frame)
            except (FrameTooLarge, ProtocolError) as exc:
                # Framing is broken: answer once, then give up on the
                # connection (but never on the gateway).
                self.protocol_errors += 1
                session.errors += 1
                await self._write(
                    writer, protocol.error_frame(None, exc.code, str(exc))
                )
                return
            if frame is None:
                return  # clean EOF
            try:
                frame = protocol.check_request(frame)
            except ProtocolError as exc:
                self.protocol_errors += 1
                session.errors += 1
                req_id = frame.get("id")
                req_id = req_id if isinstance(req_id, int) else None
                await self._write(
                    writer, protocol.error_frame(req_id, exc.code, str(exc))
                )
                if req_id is None:
                    return  # unanswerable breach: close
                continue  # shape error on a known id: connection survives
            item = (frame, time.perf_counter())
            try:
                session.queue.put_nowait(item)
            except asyncio.QueueFull:
                # Explicit backpressure: reject now, keep serving.
                session.rejected += 1
                self.requests_rejected += 1
                await self._write(
                    writer,
                    protocol.error_frame(
                        frame["id"],
                        "service-overloaded",
                        f"request queue full ({self.max_queue} deep); retry",
                    ),
                )

    async def _worker(
        self, session: _Session, writer: asyncio.StreamWriter
    ) -> None:
        while True:
            item = await session.queue.get()
            if item is _QUEUE_DONE:
                return
            frame, t_enqueue = item
            try:
                data = await self.orchestrator.handle_request(
                    frame, session=session.id
                )
                out = protocol.response_frame(frame["id"], data)
            except ServiceError as exc:
                session.errors += 1
                out = protocol.error_frame(frame["id"], exc.code, str(exc))
            try:
                await self._write(writer, out)
            except (ConnectionError, RuntimeError):
                return  # peer gone mid-response; reader will clean up
            latency_s = time.perf_counter() - t_enqueue
            self.latencies_s.append(latency_s)
            self.requests_served += 1
            session.requests += 1
            tel = self.telemetry
            if tel is not None and tel.enabled:
                end_ns = self._wall_ns()
                tel.span(
                    SERVICE,
                    "request",
                    end_ns - int(latency_s * 1e9),
                    end_ns,
                    lane=f"session-{session.id}",
                    op=frame["op"],
                    ok=out.get("ok", False),
                )

    async def _teardown(self, session: _Session) -> None:
        """Connection-scoped cleanup: stop the worker, drop the session."""
        if session.worker is not None:
            try:
                session.queue.put_nowait(_QUEUE_DONE)
            except asyncio.QueueFull:
                session.worker.cancel()
            try:
                await session.worker
            except (asyncio.CancelledError, Exception):
                pass
            session.worker = None
        self._sessions.pop(session.id, None)
        tel = self.telemetry
        if tel is not None and tel.enabled:
            tel.event(
                SERVICE,
                "session_close",
                self._wall_ns(),
                lane=f"session-{session.id}",
                requests=session.requests,
                rejected=session.rejected,
            )
        if self.logger is not None:
            self.logger.debug(
                f"session {session.id} closed "
                f"({session.requests} requests, {session.rejected} rejected)"
            )

    async def _write(self, writer: asyncio.StreamWriter, frame: Dict[str, Any]) -> None:
        try:
            writer.write(protocol.encode_frame(frame, self.max_frame))
            await writer.drain()
        except (ConnectionError, OSError):
            pass  # peer gone; the read side notices and cleans up

    # -- introspection -------------------------------------------------------
    def stats(self) -> Dict[str, Any]:
        lat = sorted(self.latencies_s)

        def pct(p: float) -> float:
            if not lat:
                return 0.0
            idx = min(int(p / 100.0 * len(lat)), len(lat) - 1)
            return round(lat[idx] * 1e6, 3)

        return {
            "sessions_open": len(self._sessions),
            "sessions_opened": self.sessions_opened,
            "requests_served": self.requests_served,
            "requests_rejected": self.requests_rejected,
            "protocol_errors": self.protocol_errors,
            "p50_overhead_us": pct(50.0),
            "p99_overhead_us": pct(99.0),
            "orchestrator": self.orchestrator.stats(),
        }
