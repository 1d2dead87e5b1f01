"""HTTP client for logit servers speaking wire protocol "2".

RemoteSource performs the /v1/info handshake at construction (verifying the
protocol version and vocabulary fingerprint) and then mints sessions. Each
RemoteSession owns one keep-alive http.client connection, so concurrent
branch calls on distinct sessions never share transport state; requests
within one session are strictly sequential per the session contract.

Requests are JSON. Open and step answer with the raw logits (exactly 8*V
bytes of little-endian float64, application/octet-stream) plus the session
id and context length in X-Session-Id and X-Context-Length headers; info,
close and errors answer with JSON.

Open and step are never retried: they mutate server state, and a retry
after an ambiguous failure could double-apply a token. A kept-alive
connection that the server has already closed is detected before a request
goes out and replaced, which cannot repeat anything; after any transport
failure the connection is dropped, so the next call (close, say) starts on
a fresh one. Only the read-only handshake retries. Transport failures
surface as TransportError with the endpoint and attempt count attached.
"""

from __future__ import annotations

import base64
import http.client
import json
import select
import time
import urllib.parse

import numpy as np

from .errors import (
    CapacityError,
    EngineError,
    ProtocolError,
    SessionStateError,
    TokenRangeError,
    TransportError,
)
from .server import PROTOCOL_VERSION
from .sources import PromptInput, Vocabulary

_ERROR_CODE_MAP = {
    "session_not_found": SessionStateError,
    "conflict": SessionStateError,
    "bad_token": TokenRangeError,
    "capacity": CapacityError,
    "malformed": ProtocolError,
    "unsupported_protocol": ProtocolError,
}

_CONNECTIONS = {"http": http.client.HTTPConnection, "https": http.client.HTTPSConnection}
_TRANSPORT_ERRORS = (OSError, http.client.HTTPException)

# The handshake is tried HANDSHAKE_RETRIES + 1 times, the k-th retry after
# k * RETRY_BACKOFF_S seconds.
HANDSHAKE_RETRIES = 2
RETRY_BACKOFF_S = 0.1


def _raise_for_body(body: dict, status: int) -> None:
    err = body.get("error")
    if not isinstance(err, dict):
        raise ProtocolError(f"server returned status {status} without an error object")
    code = str(err.get("code", "unknown"))
    message = str(err.get("message", "")) or f"server error {code}"
    exc_type = _ERROR_CODE_MAP.get(code, ProtocolError)
    raise exc_type(f"{code}: {message}")


def _json_object(status: int, data: bytes, url: str) -> dict:
    """Parse a JSON reply; a non-200 one raises its mapped engine error."""
    try:
        body = json.loads(data)
    except ValueError as exc:
        raise ProtocolError(f"non-JSON response (status {status}) from {url}: {exc}") from exc
    if not isinstance(body, dict):
        raise ProtocolError(f"response from {url} is not a JSON object")
    if status != 200:
        _raise_for_body(body, status)
    return body


def _exchange(
    conn: http.client.HTTPConnection, method: str, path: str, body: bytes | None = None
) -> tuple[int, http.client.HTTPMessage, bytes]:
    """One request and its full reply on a keep-alive connection."""
    # An idle kept-alive socket turns readable only once the server has
    # closed it (or sent something unasked); either way it cannot carry a
    # request. Nothing has been sent on it yet, so reconnecting repeats none.
    # poll, unlike select, takes descriptors of any number.
    if conn.sock is not None:
        idle = select.poll()
        idle.register(conn.sock, select.POLLIN)
        if idle.poll(0):
            conn.close()
    try:
        conn.request(method, path, body, {"Content-Type": "application/json"} if body else {})
        resp = conn.getresponse()
        return resp.status, resp.headers, resp.read()
    except BaseException:
        conn.close()  # a half-used connection cannot carry the next request
        raise


class RemoteSource:
    """A logit source backed by a remote server.

    The handshake requires the server to publish its token list; engines
    that cannot enumerate tokens are out of scope for the protocol.
    """

    def __init__(self, endpoint: str, timeout: float = 30.0) -> None:
        self.endpoint = endpoint.rstrip("/")
        self._timeout = timeout
        try:
            url = urllib.parse.urlsplit(self.endpoint)
            self._connection_type = _CONNECTIONS[url.scheme]
            self._host, self._port = url.hostname, url.port
        except (KeyError, ValueError) as exc:
            raise ProtocolError(f"endpoint {endpoint!r} is not an http(s) URL") from exc
        if not self._host:
            raise ProtocolError(f"endpoint {endpoint!r} names no host")
        self._path = url.path
        info = self._handshake()
        version = info.get("protocol_version")
        if version != PROTOCOL_VERSION:
            raise ProtocolError(
                f"server at {self.endpoint} speaks protocol {version!r}, client needs {PROTOCOL_VERSION}"
            )
        tokens = info.get("tokens")
        if not isinstance(tokens, list) or not tokens:
            raise ProtocolError(f"server at {self.endpoint} did not publish its token list")
        vocab = Vocabulary.from_tokens([str(t) for t in tokens])
        advertised = info.get("vocab_fingerprint")
        if advertised is not None and advertised != vocab.fingerprint:
            raise ProtocolError(
                f"vocabulary fingerprint mismatch at {self.endpoint}: "
                f"advertised {advertised!r}, computed {vocab.fingerprint!r}"
            )
        self._vocab = vocab
        self._context_limit = int(info.get("context_limit", 0) or 0)
        self.name = str(info.get("model", self.endpoint))

    def _connect(self) -> http.client.HTTPConnection:
        return self._connection_type(self._host, self._port, timeout=self._timeout)

    def _handshake(self) -> dict:
        path = f"{self._path}/v1/info"
        attempts = HANDSHAKE_RETRIES + 1
        last: Exception | None = None
        for attempt in range(attempts):
            conn = self._connect()
            try:
                status, _, data = _exchange(conn, "GET", path)
                return _json_object(status, data, self.endpoint + path)
            except _TRANSPORT_ERRORS as exc:
                last = exc
                if attempt + 1 < attempts:
                    time.sleep(RETRY_BACKOFF_S * (attempt + 1))
            finally:
                conn.close()
        raise TransportError(self.endpoint, attempts, last)

    @property
    def vocabulary(self) -> Vocabulary:
        return self._vocab

    @property
    def context_limit(self) -> int:
        return self._context_limit

    def open(self, prompt: PromptInput) -> "RemoteSession":
        body: dict = {
            "protocol_version": PROTOCOL_VERSION,
            "prompt_tokens": [int(t) for t in prompt.tokens],
        }
        if prompt.payload is not None:
            body["omni_payload"] = {
                "data_b64": base64.b64encode(prompt.payload.data).decode("ascii"),
                "media_type": prompt.payload.media_type,
            }
        conn = self._connect()
        try:
            headers, data = self._post(conn, "open", body)
        except BaseException:
            conn.close()
            raise
        sid = headers.get("X-Session-Id")
        if not sid:
            conn.close()
            raise ProtocolError("open response lacks an X-Session-Id header")
        session = RemoteSession(self, conn, sid)
        try:
            session._accept(headers, data)
        except BaseException:
            # The server holds the session even though its reply was unusable.
            try:
                session.close()
            except EngineError:
                pass
            raise
        return session

    def _post(
        self, conn: http.client.HTTPConnection, op: str, body: dict
    ) -> tuple[http.client.HTTPMessage, bytes]:
        """Send one JSON request; a non-200 reply raises its mapped error."""
        path = f"{self._path}/v1/{op}"
        try:
            status, headers, data = _exchange(conn, "POST", path, json.dumps(body).encode("utf-8"))
        except _TRANSPORT_ERRORS as exc:
            raise TransportError(self.endpoint, 1, exc) from exc
        if status != 200:
            _json_object(status, data, self.endpoint + path)  # raises the mapped error
        return headers, data


class RemoteSession:
    def __init__(self, source: RemoteSource, conn: http.client.HTTPConnection, sid: str) -> None:
        self._source = source
        self._conn = conn
        self._sid = sid
        self._logits = np.empty(0)
        self._context_length = 0
        self._closed = False

    def _accept(self, headers: http.client.HTTPMessage, data: bytes) -> np.ndarray:
        """Take the logits and context length from an open or step reply."""
        content_type = headers.get_content_type()
        if content_type != "application/octet-stream":
            raise ProtocolError(
                f"logits reply has Content-Type {content_type!r}, expected application/octet-stream"
            )
        size = self._source.vocabulary.size
        if len(data) != 8 * size:
            raise ProtocolError(
                f"server sent {len(data)} bytes of logits for a vocabulary of size {size} "
                f"(expected {8 * size})"
            )
        raw_length = headers.get("X-Context-Length", "")
        try:
            context_length = int(raw_length)
        except ValueError:
            raise ProtocolError(f"reply has a bad X-Context-Length header: {raw_length!r}") from None
        self._logits = np.frombuffer(data, dtype="<f8").astype(np.float64)
        self._context_length = context_length
        return self._logits

    @property
    def context_length(self) -> int:
        return self._context_length

    def logits(self) -> np.ndarray:
        if self._closed:
            raise SessionStateError("session is closed")
        return self._logits

    def step(self, token_id: int) -> np.ndarray:
        if self._closed:
            raise SessionStateError("session is closed")
        body = {
            "protocol_version": PROTOCOL_VERSION,
            "session_id": self._sid,
            "token_id": int(token_id),
        }
        return self._accept(*self._source._post(self._conn, "step", body))

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        try:
            self._source._post(
                self._conn,
                "close",
                {"protocol_version": PROTOCOL_VERSION, "session_id": self._sid},
            )
        finally:
            self._conn.close()
