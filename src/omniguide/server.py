"""A test-fixture inference server speaking the engine's wire protocol.

Serves a toy model over HTTP with configurable artificial latency, so
client integration and latency-structure experiments run deterministically
on any machine. Protocol "2":

- GET  /v1/info                                   -> JSON: model identity,
                                                     vocabulary, context limit
- POST /v1/open  {prompt_tokens, omni_payload?}   -> logits; X-Session-Id,
                                                     X-Context-Length headers
- POST /v1/step  {session_id, token_id}           -> logits; X-Context-Length
- POST /v1/close {session_id}                     -> JSON: ok

Request bodies are JSON objects carrying protocol_version "2"; the omni
payload travels as {"data_b64", "media_type"}. Logits come back as
application/octet-stream holding exactly 8*V bytes of little-endian float64,
so a remote session is bit-identical to in-process evaluation. Errors are
application/json bodies {"error": {"code", "message"}} with codes: malformed,
unsupported_protocol, bad_token, capacity, session_not_found, conflict.

A single global compute lock serializes model evaluation plus injected
latency across all connections, imitating one accelerator: concurrent
requests queue rather than overlap, which is what makes multi-branch
decode latency land at the analytically expected multiple of a one-branch
baseline. Per-session locks are separate: two in-flight requests on one
session are a client contract violation and get a conflict error instead
of queueing.
"""

from __future__ import annotations

import base64
import binascii
import json
import threading
import time
import uuid
from dataclasses import dataclass
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np

from .errors import CapacityError, SessionStateError, TokenRangeError
from .sources import OmniPayload, PromptInput, ToyModel

PROTOCOL_VERSION = "2"


@dataclass(frozen=True)
class LatencyModel:
    """Artificial service times, all injected server-side before responding.

    per_token_prefill: seconds per prompt token on open.
    per_step: seconds per incremental step.
    omni_payload_factor: seconds per KiB of omni payload on open.
    """

    per_token_prefill: float = 0.0
    per_step: float = 0.0
    omni_payload_factor: float = 0.0

    def __post_init__(self) -> None:
        for name in ("per_token_prefill", "per_step", "omni_payload_factor"):
            v = getattr(self, name)
            if not (v >= 0.0):
                raise ValueError(f"{name} must be non-negative, got {v!r}")

    def prefill_delay(self, n_tokens: int, payload_bytes: int) -> float:
        return self.per_token_prefill * n_tokens + self.omni_payload_factor * (
            payload_bytes / 1024.0
        )

    def step_delay(self) -> float:
        return self.per_step


def _logit_bytes(logits) -> bytes:
    return np.ascontiguousarray(logits, "<f8").tobytes()


class _ApiError(Exception):
    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code


class _SessionSlot:
    __slots__ = ("session", "lock")

    def __init__(self, session) -> None:
        self.session = session
        self.lock = threading.Lock()


class ModelServer:
    """Owns the HTTP server thread and the session registry."""

    def __init__(
        self,
        model: ToyModel,
        latency: LatencyModel | None = None,
        host: str = "127.0.0.1",
        port: int = 0,
        compute_lock: threading.Lock | None = None,
    ) -> None:
        self.model = model
        self.latency = latency or LatencyModel()
        self._sessions: dict[str, _SessionSlot] = {}
        self._registry_lock = threading.Lock()
        # The compute lock is the accelerator: requests queue on it one at
        # a time. Passing the same lock to several servers simulates their
        # models sharing one device.
        self._compute_lock = compute_lock if compute_lock is not None else threading.Lock()
        self._thread: threading.Thread | None = None

        server = self

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            # Idle keep-alive connections drop after this, so a graceful
            # stop never waits on a client that forgot to disconnect.
            timeout = 2.0
            # Headers and body go out as separate writes; under Nagle the
            # body would wait ~40ms for the peer's delayed ACK on every
            # keep-alive round trip, swamping the injected latency model.
            disable_nagle_algorithm = True

            def log_message(self, fmt, *args):  # keep test output quiet
                pass

            def _send(self, status: int, content_type: str, data: bytes, headers=()) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def _respond(self, status: int, body: dict) -> None:
                self._send(status, "application/json", json.dumps(body).encode("utf-8"))

            def _fail(self, err: _ApiError) -> None:
                self._respond(
                    err.status,
                    {
                        "protocol_version": PROTOCOL_VERSION,
                        "error": {"code": err.code, "message": str(err)},
                    },
                )

            def do_GET(self) -> None:
                try:
                    if self.path != "/v1/info":
                        raise _ApiError(404, "malformed", f"unknown path {self.path}")
                    self._respond(200, server._info())
                except _ApiError as err:
                    self._fail(err)

            def do_POST(self) -> None:
                try:
                    body = self._read_body()
                    if self.path == "/v1/close":
                        self._respond(200, server._handle_close(body))
                        return
                    if self.path == "/v1/open":
                        headers, data = server._handle_open(body)
                    elif self.path == "/v1/step":
                        headers, data = server._handle_step(body)
                    else:
                        raise _ApiError(404, "malformed", f"unknown path {self.path}")
                    self._send(200, "application/octet-stream", data, headers)
                except _ApiError as err:
                    self._fail(err)

            def _read_body(self) -> dict:
                length = self.headers.get("Content-Length") or "0"
                if not length.isdecimal():
                    # Where the body ends is unknown, so the connection cannot be reused.
                    self.close_connection = True
                    raise _ApiError(400, "malformed", f"Content-Length {length!r} is not a byte count")
                raw = self.rfile.read(int(length))
                try:
                    body = json.loads(raw.decode("utf-8"))
                except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                    raise _ApiError(400, "malformed", f"request body is not JSON: {exc}")
                if not isinstance(body, dict):
                    raise _ApiError(400, "malformed", "request body must be a JSON object")
                version = body.get("protocol_version")
                if version != PROTOCOL_VERSION:
                    raise _ApiError(
                        400,
                        "unsupported_protocol",
                        f"protocol_version {version!r} not supported (server speaks {PROTOCOL_VERSION})",
                    )
                return body

        class _Http(ThreadingHTTPServer):
            daemon_threads = False  # join in-flight handlers on close
            block_on_close = True

        self._http = _Http((host, port), Handler)

    # -- request handlers -------------------------------------------------

    def _info(self) -> dict:
        vocab = self.model.vocabulary
        return {
            "protocol_version": PROTOCOL_VERSION,
            "model": self.model.name,
            "vocab_size": vocab.size,
            "vocab_fingerprint": vocab.fingerprint,
            "context_limit": self.model.context_limit,
            "tokens": list(vocab.tokens),
        }

    # Open and step return (response headers, response body), the body being
    # the logits as raw little-endian float64.

    def _handle_open(self, body: dict) -> tuple[list, bytes]:
        tokens = body.get("prompt_tokens")
        if not isinstance(tokens, list) or not all(isinstance(t, int) for t in tokens):
            raise _ApiError(400, "malformed", "prompt_tokens must be a list of integers")
        payload = None
        raw_payload = body.get("omni_payload")
        if raw_payload is not None:
            if not isinstance(raw_payload, dict) or "data_b64" not in raw_payload:
                raise _ApiError(400, "malformed", "omni_payload must carry data_b64")
            try:
                data = base64.b64decode(raw_payload["data_b64"], validate=True)
            except (binascii.Error, TypeError, ValueError) as exc:
                raise _ApiError(400, "malformed", f"omni_payload.data_b64 is not base64: {exc}")
            payload = OmniPayload(
                data=data,
                media_type=str(raw_payload.get("media_type", OmniPayload.media_type)),
            )

        with self._compute_lock:
            try:
                session = self.model.open(PromptInput(tokens=tuple(tokens), payload=payload))
            except TokenRangeError as exc:
                raise _ApiError(400, "bad_token", str(exc))
            except CapacityError as exc:
                raise _ApiError(413, "capacity", str(exc))
            except ValueError as exc:
                raise _ApiError(400, "malformed", str(exc))
            logits = session.logits()
            time.sleep(
                self.latency.prefill_delay(
                    len(tokens), payload.size_bytes if payload is not None else 0
                )
            )
        sid = uuid.uuid4().hex
        with self._registry_lock:
            self._sessions[sid] = _SessionSlot(session)
        headers = [("X-Session-Id", sid), ("X-Context-Length", str(session.context_length))]
        return headers, _logit_bytes(logits)

    def _get_slot(self, body: dict) -> tuple[str, _SessionSlot]:
        sid = body.get("session_id")
        if not isinstance(sid, str):
            raise _ApiError(400, "malformed", "session_id must be a string")
        with self._registry_lock:
            slot = self._sessions.get(sid)
        if slot is None:
            raise _ApiError(404, "session_not_found", f"no live session {sid!r}")
        return sid, slot

    def _handle_step(self, body: dict) -> tuple[list, bytes]:
        _, slot = self._get_slot(body)
        token = body.get("token_id")
        if not isinstance(token, int):
            raise _ApiError(400, "malformed", "token_id must be an integer")
        if not slot.lock.acquire(blocking=False):
            raise _ApiError(409, "conflict", "session already has a request in flight")
        try:
            with self._compute_lock:
                try:
                    logits = slot.session.step(token)
                except TokenRangeError as exc:
                    raise _ApiError(400, "bad_token", str(exc))
                except CapacityError as exc:
                    raise _ApiError(413, "capacity", str(exc))
                except SessionStateError as exc:  # closed while waiting for the lock
                    raise _ApiError(404, "session_not_found", str(exc))
                time.sleep(self.latency.step_delay())
            headers = [("X-Context-Length", str(slot.session.context_length))]
            return headers, _logit_bytes(logits)
        finally:
            slot.lock.release()

    def _handle_close(self, body: dict) -> dict:
        sid = body.get("session_id")
        if not isinstance(sid, str):
            raise _ApiError(400, "malformed", "session_id must be a string")
        with self._registry_lock:
            slot = self._sessions.pop(sid, None)
        if slot is not None:
            slot.session.close()
        # Idempotent: closing an unknown/already-closed session succeeds.
        return {"protocol_version": PROTOCOL_VERSION, "ok": True}

    # -- lifecycle ---------------------------------------------------------

    @property
    def live_sessions(self) -> int:
        with self._registry_lock:
            return len(self._sessions)

    @property
    def address(self) -> tuple[str, int]:
        host, port = self._http.server_address[:2]
        return str(host), int(port)

    @property
    def endpoint(self) -> str:
        host, port = self.address
        return f"http://{host}:{port}"

    def start(self) -> "ModelServer":
        if self._thread is not None:
            raise RuntimeError("server already started")
        self._thread = threading.Thread(
            target=self._http.serve_forever, name="model-server", daemon=True
        )
        self._thread.start()
        return self

    def stop(self) -> None:
        """Graceful shutdown: stop accepting, drain in-flight handlers."""
        self._http.shutdown()
        self._http.server_close()
        if self._thread is not None:
            self._thread.join(timeout=30)
            self._thread = None

    def __enter__(self) -> "ModelServer":
        return self

    def __exit__(self, *exc) -> None:
        self.stop()


def serve(
    model: ToyModel,
    latency: LatencyModel | None = None,
    host: str = "127.0.0.1",
    port: int = 0,
    compute_lock: threading.Lock | None = None,
) -> ModelServer:
    """Build, start, and return a ModelServer bound to host:port."""
    return ModelServer(model, latency, host, port, compute_lock).start()
