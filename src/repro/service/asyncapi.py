"""The service's HTTP front end: one asyncio event loop, every connection.

:class:`AsyncFrontEnd` serves the :class:`Router` API on a single
event loop built from stdlib :mod:`asyncio` streams:

- **HTTP/1.1 with keep-alive** — a minimal, strict parser (request
  line, headers, ``Content-Length`` bodies); HTTP/1.0 connections close
  after each response unless the request asks for keep-alive.  A
  request the parser cannot accept is answered with 400, 413, 414 or
  431 and ``Connection: close``; an oversized body is refused from its
  declared length, before any of it is read;
- **one write per response** — head and body leave in a single
  ``write`` and asyncio sets ``TCP_NODELAY``, so a small keep-alive
  response never waits on Nagle's algorithm and the client's delayed
  ACK;
- **native SSE** — each stream is a coroutine awaiting the
  subscription's wakeup hook (bridged onto the loop with
  ``call_soon_threadsafe``), so 100+ concurrent subscribers cost
  queue memory, not threads; a client that hangs up ends its session
  as soon as its socket reads EOF;
- **non-blocking dispatch** — route handlers run in the default
  executor, keeping store writes and sweep submissions off the loop.

The loop runs on a dedicated thread started by :meth:`start`.
"""

from __future__ import annotations

import asyncio
import threading
from http.client import responses as _STATUS_PHRASES
from typing import Optional, Set, Tuple

from ..obs.logging import get_logger
from .routes import (
    MAX_BODY_BYTES,
    JobStreamSession,
    Request,
    Response,
    Router,
    STREAM_POLL_S,
    error_response,
)

__all__ = ["AsyncFrontEnd"]

_log = get_logger("service.asyncapi")

#: Idle keep-alive connections are reaped after this many seconds.
_IDLE_TIMEOUT_S = 120.0

#: Hard cap on one header block (DoS containment, matches http.server).
_MAX_HEADER_LINES = 100

#: How long a connection closed after a bad request keeps discarding
#: what the client still sends, so the answer is not lost to a reset.
_LINGER_S = 2.0

#: The head of every SSE response; the stream ends with the connection.
_STREAM_HEAD = (
    b"HTTP/1.1 200 OK\r\n"
    b"Content-Type: text/event-stream\r\n"
    b"Cache-Control: no-cache\r\n"
    b"Connection: close\r\n\r\n"
)


class _BadRequest(Exception):
    """A request the parser refuses: answer ``status``, then close."""

    def __init__(self, status: int, message: str) -> None:
        super().__init__(message)
        self.status = status


async def _readline(
    reader: asyncio.StreamReader, status: int, message: str
) -> bytes:
    """One line; a line over the stream's limit is a :class:`_BadRequest`."""
    try:
        return await reader.readline()
    except ValueError:  # asyncio's LimitOverrunError, re-raised by readline
        raise _BadRequest(status, message) from None


async def _until_eof(reader: asyncio.StreamReader) -> None:
    """Read and discard until the peer closes (or resets) its side."""
    try:
        while await reader.read(1 << 16):
            pass
    except ConnectionError:
        pass


class AsyncFrontEnd:
    """Serve the router on an asyncio event loop (stdlib streams)."""

    def __init__(self, service, host: str = "127.0.0.1", port: int = 0):
        self._service = service
        self._router: Router = service.router
        self._requested = (host, int(port))
        self._host: str = host
        self._port: int = 0
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._server: Optional[asyncio.base_events.Server] = None
        self._thread: Optional[threading.Thread] = None
        self._bound = threading.Event()
        self._stopped = threading.Event()
        self._stop_streams: Optional[asyncio.Event] = None
        self._conn_tasks: Set[asyncio.Task] = set()
        self._shutdown_requested = False
        self._bind_error: Optional[OSError] = None

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    @property
    def host(self) -> str:
        """Bound interface."""
        return self._host

    @property
    def port(self) -> int:
        """Bound port (resolved once the server is up)."""
        return self._port

    def start(self) -> None:
        """Run the loop on a background thread; returns once bound.

        Raises the bind error (for example, the port is taken) here, on
        the calling thread.
        """
        if self._thread is not None:
            return
        self._thread = threading.Thread(
            target=self._run, name="repro-async-http", daemon=True
        )
        self._thread.start()
        if not self._bound.wait(timeout=10.0):
            raise RuntimeError("async front end failed to bind in 10 s")
        if self._bind_error is not None:
            raise self._bind_error

    def _run(self) -> None:
        try:
            asyncio.run(self._main())
        finally:
            self._stopped.set()

    async def _main(self) -> None:
        self._loop = asyncio.get_running_loop()
        self._stop_streams = asyncio.Event()
        host, port = self._requested
        try:
            self._server = await asyncio.start_server(
                self._handle_connection, host, port
            )
            sock = self._server.sockets[0]
            self._host, self._port = sock.getsockname()[:2]
        except OSError as exc:
            self._bind_error = exc
            return
        finally:
            self._bound.set()
        _log.info(
            "async_frontend_started", host=self._host, port=self._port
        )
        try:
            async with self._server:
                await self._server.serve_forever()
        except asyncio.CancelledError:
            pass
        # Stop accepting, wake every stream, give connections a short
        # grace to flush their terminal frames, then cancel stragglers.
        self._stop_streams.set()
        tasks = [t for t in self._conn_tasks if not t.done()]
        if tasks:
            await asyncio.wait(tasks, timeout=2.0)
        for task in self._conn_tasks:
            if not task.done():
                task.cancel()
        _log.info("async_frontend_stopped", port=self._port)

    def shutdown(self, timeout: float = 10.0) -> None:
        """Stop serving (thread-safe, idempotent)."""
        if self._shutdown_requested:
            self._stopped.wait(timeout)
            return
        self._shutdown_requested = True
        loop = self._loop
        if loop is None or not self._bound.is_set():
            return

        def _stop() -> None:
            if self._server is not None:
                # Cancels serve_forever(), unwinding _main past the
                # graceful-drain block above.
                self._server.close()
                for task in asyncio.all_tasks():
                    if task.get_coro().__qualname__.endswith(
                        "serve_forever"
                    ):
                        task.cancel()

        try:
            loop.call_soon_threadsafe(_stop)
        except RuntimeError:
            return  # Loop already gone.
        self._stopped.wait(timeout)
        if self._thread is not None:
            self._thread.join(timeout=5.0)
            self._thread = None

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------

    async def _handle_connection(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._conn_tasks.add(task)
        try:
            await self._connection_loop(reader, writer)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
            asyncio.TimeoutError,
        ):
            pass
        except asyncio.CancelledError:
            pass
        finally:
            if task is not None:
                self._conn_tasks.discard(task)
            try:
                writer.close()
            except Exception:  # noqa: BLE001 — transport already gone
                pass

    async def _connection_loop(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
    ) -> None:
        peer = writer.get_extra_info("peername")
        client = str(peer[0]) if isinstance(peer, tuple) else "local"
        while True:
            try:
                parsed = await self._read_request(reader, client)
            except _BadRequest as exc:
                await self._refuse(reader, writer, exc, client)
                return
            if parsed is None:
                return
            request, keep_alive = parsed
            result = await asyncio.get_running_loop().run_in_executor(
                None, self._router.dispatch, request
            )
            if isinstance(result, JobStreamSession):
                await self._serve_stream(reader, writer, result)
                return  # SSE responses are connection-delimited.
            self._write_response(writer, result, keep_alive)
            await writer.drain()
            if not keep_alive:
                return

    async def _read_request(
        self, reader: asyncio.StreamReader, client: str
    ) -> Optional[Tuple[Request, bool]]:
        """Parse one request and whether its connection stays open.

        None for EOF or an idle timeout; :class:`_BadRequest` for input
        the parser refuses.
        """
        try:
            line = await asyncio.wait_for(
                _readline(reader, 414, "request line too long"),
                timeout=_IDLE_TIMEOUT_S,
            )
        except asyncio.TimeoutError:
            return None
        if not line or line in (b"\r\n", b"\n"):
            return None
        try:
            method, target, version = line.decode("latin-1").split()
        except ValueError:
            raise _BadRequest(400, "malformed request line") from None
        headers = {}
        for _ in range(_MAX_HEADER_LINES):
            line = await _readline(reader, 431, "header line too long")
            if line in (b"\r\n", b"\n", b""):
                break
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        else:
            raise _BadRequest(431, "too many header lines")
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            length = -1
        if length < 0:
            raise _BadRequest(400, "invalid Content-Length")
        if length > MAX_BODY_BYTES:
            raise _BadRequest(413, "request body too large")
        body = await reader.readexactly(length) if length else b""
        # HTTP/1.1 keeps the connection unless told to close; HTTP/1.0
        # closes it unless told to keep it.
        connection = headers.get("connection", "").lower()
        if version.upper() == "HTTP/1.0":
            keep_alive = connection == "keep-alive"
        else:
            keep_alive = connection != "close"
        request = Request(
            method=method.upper(),
            target=target,
            headers=headers,
            body=body,
            client=client,
        )
        return request, keep_alive

    async def _refuse(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        exc: _BadRequest,
        client: str,
    ) -> None:
        """Answer a refused request, then close without losing the answer.

        The client may still be sending (an oversized body, say).
        Closing with unread input would reset the connection and could
        destroy the answer before the client reads it, so half-close
        first and discard what arrives until the client closes too
        (RFC 9112, section 9.6), for at most :data:`_LINGER_S`.
        """
        response = error_response(exc.status, str(exc), client=client)
        self._write_response(writer, response, keep_alive=False)
        await writer.drain()
        if writer.can_write_eof():
            writer.write_eof()
        try:
            await asyncio.wait_for(_until_eof(reader), timeout=_LINGER_S)
        except asyncio.TimeoutError:
            pass

    def _write_response(
        self,
        writer: asyncio.StreamWriter,
        response: Response,
        keep_alive: bool,
    ) -> None:
        phrase = _STATUS_PHRASES.get(response.status, "Unknown")
        head = [
            f"HTTP/1.1 {response.status} {phrase}",
            f"Content-Type: {response.content_type}",
            f"Content-Length: {len(response.body)}",
            f"Connection: {'keep-alive' if keep_alive else 'close'}",
        ]
        head.extend(f"{name}: {value}" for name, value in response.headers)
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode() + response.body
        )

    # ------------------------------------------------------------------
    # SSE
    # ------------------------------------------------------------------

    async def _serve_stream(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        session: JobStreamSession,
    ) -> None:
        """Drive one stream session natively on the loop.

        The subscription's wakeup hook posts to an :class:`asyncio.Event`
        via ``call_soon_threadsafe``, so delivery latency is one loop
        turn, and an idle stream costs nothing until an event, the
        shutdown signal or the client's hang-up (EOF on ``reader``)
        arrives.
        """
        writer.write(_STREAM_HEAD)
        loop = asyncio.get_running_loop()
        wake = asyncio.Event()
        stop = self._stop_streams
        hangup = asyncio.ensure_future(_until_eof(reader))

        def _wakeup() -> None:
            loop.call_soon_threadsafe(wake.set)

        session.subscription.set_wakeup(_wakeup)
        try:
            while True:
                frames, done = session.poll()
                for frame in frames:
                    writer.write(frame)
                if frames:
                    await writer.drain()
                if done or hangup.done():
                    return
                wake.clear()
                waiters = [asyncio.ensure_future(wake.wait())]
                if stop is not None:
                    waiters.append(asyncio.ensure_future(stop.wait()))
                await asyncio.wait(
                    [*waiters, hangup],
                    timeout=STREAM_POLL_S,
                    return_when=asyncio.FIRST_COMPLETED,
                )
                for waiter in waiters:
                    waiter.cancel()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            hangup.cancel()
            session.close()
