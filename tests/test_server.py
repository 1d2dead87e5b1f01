import base64
import http.client
import json
import threading
import time

import numpy as np
import pytest

from omniguide import (
    CapacityError,
    LatencyModel,
    OmniPayload,
    ProtocolError,
    PromptInput,
    RemoteSource,
    SessionStateError,
    TokenRangeError,
    TransportError,
    parse_toy_spec,
    serve,
)
from omniguide.server import PROTOCOL_VERSION

SPEC = """
@vocab q r x y <eos>
@context_limit 12
q | x | 2
r | y | 1.5
x | <eos> | 3
@omni blob
q | y | 7
"""

FAST = LatencyModel(per_token_prefill=0.0, per_step=0.0, omni_payload_factor=0.0)


@pytest.fixture()
def server():
    srv = serve(parse_toy_spec(SPEC, name="unit"), FAST)
    yield srv
    srv.stop()


class Reply:
    def __init__(self, resp: http.client.HTTPResponse) -> None:
        self.status_code = resp.status
        self.headers = resp.headers
        self.content = resp.read()

    def json(self):
        return json.loads(self.content)

    def logits(self) -> np.ndarray:
        assert self.headers["Content-Type"] == "application/octet-stream"
        return np.frombuffer(self.content, dtype="<f8")


def request(address, method, path, body: bytes | None = None, timeout=5.0, headers=None) -> Reply:
    """One request on a fresh connection to (host, port)."""
    conn = http.client.HTTPConnection(*address, timeout=timeout)
    try:
        conn.request(method, path, body, headers or {})
        return Reply(conn.getresponse())
    finally:
        conn.close()


def post(srv, op, body, **extra):
    payload = {"protocol_version": PROTOCOL_VERSION, **body, **extra}
    return request(srv.address, "POST", f"/v1/{op}", json.dumps(payload).encode())


class TestHandshake:
    def test_info_publishes_identity(self, server):
        resp = request(server.address, "GET", "/v1/info")
        assert resp.status_code == 200
        assert resp.headers["Content-Type"] == "application/json"
        info = resp.json()
        vocab = server.model.vocabulary
        assert info["protocol_version"] == PROTOCOL_VERSION
        assert info["vocab_size"] == vocab.size
        assert info["vocab_fingerprint"] == vocab.fingerprint
        assert info["context_limit"] == 12
        assert info["tokens"] == list(vocab.tokens)

    def test_client_adopts_served_vocabulary(self, server):
        remote = RemoteSource(server.endpoint)
        assert remote.vocabulary == server.model.vocabulary
        assert remote.context_limit == 12

    def test_dead_endpoint_raises_transport_error_after_retries(self):
        with pytest.raises(TransportError) as exc_info:
            RemoteSource(
                "http://127.0.0.1:9",
                timeout=0.2,
                handshake_retries=2,
                retry_backoff_s=0.01,
            )
        assert exc_info.value.attempts == 3
        assert "127.0.0.1:9" in exc_info.value.endpoint

    def test_fingerprint_mismatch_rejected(self, server, monkeypatch):
        honest = server._info()

        def lying_info():
            info = dict(honest)
            info["vocab_fingerprint"] = "0" * 64
            return info

        monkeypatch.setattr(server, "_info", lying_info)
        with pytest.raises(ProtocolError, match="fingerprint"):
            RemoteSource(server.endpoint)

    def test_wrong_protocol_version_rejected_by_client(self, server, monkeypatch):
        honest = server._info()

        def future_info():
            info = dict(honest)
            info["protocol_version"] = "99"
            return info

        monkeypatch.setattr(server, "_info", future_info)
        with pytest.raises(ProtocolError, match="protocol"):
            RemoteSource(server.endpoint)


class TestRoundTrip:
    def test_remote_matches_in_process_bit_exactly(self, server):
        model = server.model
        remote = RemoteSource(server.endpoint)
        for prompt_tokens in [(0,), (1, 0), (0, 1, 2, 3)]:
            local_sess = model.open(PromptInput(tokens=prompt_tokens))
            remote_sess = remote.open(PromptInput(tokens=prompt_tokens))
            assert np.array_equal(remote_sess.logits(), local_sess.logits())
            for tok in (2, 4, 0):
                assert np.array_equal(remote_sess.step(tok), local_sess.step(tok))
            assert remote_sess.context_length == local_sess.context_length
            local_sess.close()
            remote_sess.close()

    def test_payload_conditions_remote_logits(self, server):
        remote = RemoteSource(server.endpoint)
        plain = remote.open(PromptInput(tokens=(0,)))
        omni = remote.open(
            PromptInput(tokens=(0,), payload=OmniPayload(data=b"blob padpadpad"))
        )
        assert int(np.argmax(plain.logits())) == 2
        assert int(np.argmax(omni.logits())) == 3
        plain.close()
        omni.close()

    def test_closed_remote_session_refuses_use(self, server):
        remote = RemoteSource(server.endpoint)
        sess = remote.open(PromptInput(tokens=(0,)))
        sess.close()
        sess.close()  # idempotent
        with pytest.raises(SessionStateError):
            sess.step(0)
        with pytest.raises(SessionStateError):
            sess.logits()


class TestErrorCodes:
    def test_unknown_session_is_not_found(self, server):
        resp = post(server, "step", {"session_id": "nope", "token_id": 0})
        assert resp.status_code == 404
        assert resp.json()["error"]["code"] == "session_not_found"

    def test_bad_token_code(self, server):
        sid = post(server, "open", {"prompt_tokens": [0]}).headers["X-Session-Id"]
        resp = post(server, "step", {"session_id": sid, "token_id": 99})
        assert resp.status_code == 400
        assert resp.json()["error"]["code"] == "bad_token"

    def test_capacity_code_on_oversized_prompt(self, server):
        resp = post(server, "open", {"prompt_tokens": [0] * 40})
        assert resp.status_code == 413
        assert resp.json()["error"]["code"] == "capacity"

    def test_malformed_codes(self, server):
        # Non-JSON body.
        resp = request(server.address, "POST", "/v1/open", b"not json")
        assert resp.status_code == 400
        assert resp.json()["error"]["code"] == "malformed"
        # Wrong field type.
        resp = post(server, "open", {"prompt_tokens": "zero"})
        assert resp.json()["error"]["code"] == "malformed"
        # Empty prompt violates the open precondition.
        resp = post(server, "open", {"prompt_tokens": []})
        assert resp.json()["error"]["code"] == "malformed"
        # Bad base64 payload.
        resp = post(
            server,
            "open",
            {"prompt_tokens": [0], "omni_payload": {"data_b64": "##"}},
        )
        assert resp.json()["error"]["code"] == "malformed"
        # Unknown path.
        resp = post(server, "frobnicate", {})
        assert resp.status_code == 404
        # Content-Length that is not a byte count.
        body = json.dumps({"protocol_version": PROTOCOL_VERSION, "prompt_tokens": [0]}).encode()
        for length in ("abc", "-5"):
            resp = request(
                server.address, "POST", "/v1/open", body, headers={"Content-Length": length}
            )
            assert resp.status_code == 400
            assert resp.json()["error"]["code"] == "malformed"
        assert server.live_sessions == 0

    def test_unsupported_protocol_code(self, server):
        # A peer still speaking protocol "1" is refused.
        resp = post(server, "open", {"prompt_tokens": [0]}, protocol_version="1")
        assert resp.status_code == 400
        assert resp.headers["Content-Type"] == "application/json"
        assert resp.json()["error"]["code"] == "unsupported_protocol"

    def test_client_maps_codes_to_engine_errors(self, server):
        remote = RemoteSource(server.endpoint)
        with pytest.raises(CapacityError):
            remote.open(PromptInput(tokens=(0,) * 40))
        sess = remote.open(PromptInput(tokens=(0,)))
        with pytest.raises(TokenRangeError):
            sess.step(99)
        sess.close()


class TestConcurrency:
    def test_concurrent_steps_on_one_session_conflict(self):
        srv = serve(parse_toy_spec(SPEC), LatencyModel(per_step=0.3))
        try:
            sid = post(srv, "open", {"prompt_tokens": [0]}).headers["X-Session-Id"]
            statuses = []

            def hit():
                resp = post(srv, "step", {"session_id": sid, "token_id": 0})
                statuses.append(resp)

            first = threading.Thread(target=hit)
            first.start()
            time.sleep(0.1)
            second = post(srv, "step", {"session_id": sid, "token_id": 0})
            first.join()
            assert statuses[0].status_code == 200
            assert second.status_code == 409
            assert second.json()["error"]["code"] == "conflict"
        finally:
            srv.stop()

    def test_distinct_sessions_step_concurrently(self, server):
        remote = RemoteSource(server.endpoint)
        sessions = [remote.open(PromptInput(tokens=(0,))) for _ in range(4)]
        results = {}

        def drive(i, sess):
            for tok in (1, 2, 3):
                sess.step(tok)
            results[i] = sess.context_length

        threads = [
            threading.Thread(target=drive, args=(i, s)) for i, s in enumerate(sessions)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert results == {0: 4, 1: 4, 2: 4, 3: 4}
        for s in sessions:
            s.close()


class TestLatencyModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            LatencyModel(per_token_prefill=-0.1)
        with pytest.raises(ValueError):
            LatencyModel(per_step=-1.0)
        with pytest.raises(ValueError):
            LatencyModel(omni_payload_factor=-0.5)

    def test_delay_arithmetic(self):
        lm = LatencyModel(per_token_prefill=0.001, per_step=0.02, omni_payload_factor=0.01)
        assert lm.prefill_delay(10, 0) == pytest.approx(0.010)
        assert lm.prefill_delay(0, 2048) == pytest.approx(0.020)
        assert lm.step_delay() == 0.02

    def test_prefill_latency_floor(self):
        srv = serve(parse_toy_spec(SPEC), LatencyModel(per_token_prefill=0.001))
        try:
            t0 = time.perf_counter()
            resp = post(srv, "open", {"prompt_tokens": [0, 1, 2, 3, 4] * 2})
            elapsed = time.perf_counter() - t0
            assert resp.status_code == 200
            assert elapsed >= 0.010
        finally:
            srv.stop()


class TestLifecycle:
    def test_live_sessions_tracks_opens_minus_closes(self, server):
        remote = RemoteSource(server.endpoint)
        assert server.live_sessions == 0
        a = remote.open(PromptInput(tokens=(0,)))
        b = remote.open(PromptInput(tokens=(1,)))
        assert server.live_sessions == 2
        a.close()
        assert server.live_sessions == 1
        # Closing an already-dead session id stays idempotent server-side.
        resp = post(server, "close", {"session_id": "ghost"})
        assert resp.status_code == 200 and resp.json()["ok"] is True
        assert server.live_sessions == 1
        b.close()
        assert server.live_sessions == 0

    def test_graceful_stop_drains_in_flight_requests(self):
        srv = serve(parse_toy_spec(SPEC), LatencyModel(per_step=0.25))
        sid = post(srv, "open", {"prompt_tokens": [0]}).headers["X-Session-Id"]
        outcome = {}

        def slow_step():
            outcome["resp"] = post(srv, "step", {"session_id": sid, "token_id": 0})

        worker = threading.Thread(target=slow_step)
        worker.start()
        time.sleep(0.05)
        address = srv.address
        srv.stop()  # must wait for the in-flight step
        worker.join()
        assert outcome["resp"].status_code == 200
        with pytest.raises(ConnectionError):
            request(address, "GET", "/v1/info", timeout=1)

    def test_context_manager_stops_server(self):
        with serve(parse_toy_spec(SPEC), FAST) as srv:
            address = srv.address
            assert request(address, "GET", "/v1/info").status_code == 200
        with pytest.raises(ConnectionError):
            request(address, "GET", "/v1/info", timeout=1)

    def test_double_start_rejected(self, server):
        with pytest.raises(RuntimeError):
            server.start()


class TestWireFidelity:
    def test_logits_survive_wire_round_trip_bit_exactly(self, server):
        # Awkward binary fractions, extreme magnitudes, a subnormal and a
        # signed zero must cross the wire unchanged.
        values = [0.1, 1 / 3, np.pi, 1e-300, 1e300, -0.0, 5e-324, 5.0]
        spec_lines = ["@vocab " + " ".join(f"v{i}" for i in range(len(values)))]
        for i, v in enumerate(values):
            spec_lines.append(f"v0 | v{i} | {float(v)!r}")
        srv = serve(parse_toy_spec("\n".join(spec_lines)), FAST)
        try:
            local = srv.model.open(PromptInput(tokens=(0,)))
            remote = RemoteSource(srv.endpoint).open(PromptInput(tokens=(0,)))
            assert np.array_equal(local.logits(), remote.logits())
            assert np.array_equal(np.signbit(local.logits()), np.signbit(remote.logits()))
            local.close()
            remote.close()
        finally:
            srv.stop()

    def test_payload_bytes_reach_model_unchanged(self, server):
        raw = bytes(range(256))
        resp = post(
            server,
            "open",
            {
                "prompt_tokens": [0],
                "omni_payload": {
                    "data_b64": base64.b64encode(b"blob " + raw).decode(),
                    "media_type": "application/octet-stream",
                },
            },
        )
        assert resp.status_code == 200
        # The key parses from the decoded bytes, so the omni table applies.
        assert int(np.argmax(resp.logits())) == 3

    def test_logit_replies_are_raw_float64_with_headers(self, server):
        size = server.model.vocabulary.size
        opened = post(server, "open", {"prompt_tokens": [0, 1]})
        assert opened.status_code == 200
        assert opened.headers["Content-Type"] == "application/octet-stream"
        assert int(opened.headers["Content-Length"]) == len(opened.content) == 8 * size
        assert opened.headers["X-Context-Length"] == "2"
        local = server.model.open(PromptInput(tokens=(0, 1)))
        assert np.array_equal(opened.logits(), local.logits())
        sid = opened.headers["X-Session-Id"]
        stepped = post(server, "step", {"session_id": sid, "token_id": 2})
        assert stepped.headers["X-Context-Length"] == "3"
        assert np.array_equal(stepped.logits(), local.step(2))
        closed = post(server, "close", {"session_id": sid})
        assert closed.headers["Content-Type"] == "application/json"
        assert closed.json()["ok"] is True


class TestKeepAlive:
    def test_step_after_server_drops_idle_connection(self, server):
        remote = RemoteSource(server.endpoint)
        sess = remote.open(PromptInput(tokens=(0,)))
        # Idle past the server's keep-alive timeout, so it closes the
        # connection the session holds.
        time.sleep(server._http.RequestHandlerClass.timeout + 0.5)
        stepped = sess.step(1)
        fresh = remote.open(PromptInput(tokens=(0,)))
        assert np.array_equal(stepped, fresh.step(1))
        assert sess.context_length == fresh.context_length == 2
        fresh.close()
        sess.close()
        assert server.live_sessions == 0
