"""Failure paths under fault injection.

A small stub server speaks protocol "2" for the fusion testbed's base model
and answers correctly except for one fault, on open or on step. Whatever
the fault, a decode must end with an error result, leave no session open
on the server and no thread behind, and the CLI must exit 5 (runtime
failure), not 3 (config error).
"""

from __future__ import annotations

import base64
import json
import threading
import time
import uuid
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer

import numpy as np
import pytest
import yaml

from omniguide import (
    DecodeJob,
    GuidanceConfig,
    LatencyModel,
    OmniPayload,
    PromptInput,
    RemoteSource,
    SamplerConfig,
    TransportError,
    decode,
    parse_toy_spec,
    serve,
)
from omniguide.cli import main
from omniguide.server import PROTOCOL_VERSION

from conftest import CONFIG_DIR, EOS, FUSION_BASE_SPEC, FUSION_GUIDE_SPEC, THINK, scene_prompt

GREEDY = SamplerConfig(mode="greedy")
STALL_S = 1.5


class FaultStub:
    """Serves the testbed's base model with one fault on one operation.

    Faults: "truncated" (one logit short), "json" (a v1-style JSON body on
    200), "nan" (a NaN logit), "no_session_id", "no_context_length",
    "bad_context_length", "drop" (the connection closes with no reply),
    "stall" (the reply comes STALL_S late) and "conflict" (a 409 with the
    server's JSON conflict error, as when a session already has a request
    in flight).
    """

    def __init__(self, fault: str, on: str) -> None:
        model = parse_toy_spec(FUSION_BASE_SPEC, name="stub")
        vocab = model.vocabulary
        sessions: dict = {}
        self._sessions = sessions
        info = {
            "protocol_version": PROTOCOL_VERSION,
            "model": "stub",
            "vocab_fingerprint": vocab.fingerprint,
            "context_limit": model.context_limit,
            "tokens": list(vocab.tokens),
        }

        class Handler(BaseHTTPRequestHandler):
            protocol_version = "HTTP/1.1"
            timeout = 2.0

            def log_message(self, fmt, *args):
                pass

            def _send(self, content_type: str, data: bytes, headers, status: int = 200) -> None:
                self.send_response(status)
                self.send_header("Content-Type", content_type)
                self.send_header("Content-Length", str(len(data)))
                for name, value in headers:
                    self.send_header(name, value)
                self.end_headers()
                self.wfile.write(data)

            def do_GET(self) -> None:
                self._send("application/json", json.dumps(info).encode(), ())

            def do_POST(self) -> None:
                body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
                op = self.path.rsplit("/", 1)[-1]
                if op == "close":
                    sessions.pop(body["session_id"], None)
                    self._send("application/json", b'{"ok": true}', ())
                    return
                headers = []
                if op == "open":
                    omni = body.get("omni_payload")
                    payload = OmniPayload(base64.b64decode(omni["data_b64"])) if omni else None
                    session = model.open(PromptInput(tuple(body["prompt_tokens"]), payload))
                    z = session.logits()
                    sid = uuid.uuid4().hex
                    if not (op == on and fault == "no_session_id"):
                        sessions[sid] = session
                        headers.append(("X-Session-Id", sid))
                else:
                    session = sessions[body["session_id"]]
                    z = session.step(body["token_id"])
                headers.append(("X-Context-Length", str(session.context_length)))
                content_type, data = "application/octet-stream", z.astype("<f8").tobytes()
                if op == on:
                    if fault == "drop":
                        self.close_connection = True
                        return
                    if fault == "conflict":
                        error = {"code": "conflict", "message": "a request is in flight"}
                        reply = json.dumps({"error": error}).encode()
                        self._send("application/json", reply, (), 409)
                        return
                    if fault == "stall":
                        time.sleep(STALL_S)
                    elif fault == "truncated":
                        data = data[:-8]
                    elif fault == "json":
                        content_type = "application/json"
                        data = json.dumps({"logits": z.tolist()}).encode()
                    elif fault == "nan":
                        data = np.where(np.arange(z.size) == 1, np.nan, z).astype("<f8").tobytes()
                    elif fault == "no_context_length":
                        headers = headers[:-1]
                    elif fault == "bad_context_length":
                        headers[-1] = ("X-Context-Length", "many")
                self._send(content_type, data, headers)

        self._http = ThreadingHTTPServer(("127.0.0.1", 0), Handler)
        self._thread = threading.Thread(
            target=self._http.serve_forever, kwargs={"poll_interval": 0.01}, daemon=True
        )
        self._thread.start()

    @property
    def endpoint(self) -> str:
        host, port = self._http.server_address[:2]
        return f"http://{host}:{port}"

    @property
    def live_sessions(self) -> int:
        return len(self._sessions)

    def __enter__(self) -> "FaultStub":
        return self

    def __exit__(self, *exc) -> None:
        self._http.shutdown()
        self._http.server_close()
        self._thread.join(timeout=10)


# (fault, operation it hits, engine error the decode reports)
CASES = [
    ("truncated", "open", "ProtocolError"),
    ("truncated", "step", "ProtocolError"),
    ("json", "open", "ProtocolError"),
    ("json", "step", "ProtocolError"),
    ("nan", "open", "NonFiniteError"),
    ("nan", "step", "NonFiniteError"),
    ("no_session_id", "open", "ProtocolError"),
    ("no_context_length", "open", "ProtocolError"),
    ("bad_context_length", "step", "ProtocolError"),
    ("drop", "step", "TransportError"),
    ("conflict", "step", "SessionStateError"),
]


def new_threads(before: set) -> list:
    """Threads started since `before`, bar the fixture servers' own handlers."""
    return [
        t
        for t in threading.enumerate()
        if t not in before and "process_request_thread" not in t.name
    ]


# A stalled step times out on the client and leaves its connection mid-request;
# the session's close must still reach the server on a fresh connection.
@pytest.mark.parametrize("fault,on,error", CASES + [("stall", "step", "TransportError")])
def test_fault_gives_error_result_and_leaves_nothing_open(fault, on, error):
    with FaultStub(fault, on) as stub:
        job = DecodeJob(
            base_source=RemoteSource(stub.endpoint, timeout=STALL_S / 3),
            guide_source=parse_toy_spec(FUSION_GUIDE_SPEC, name="guide"),
            prompt=scene_prompt("scene_metal"),
            guidance=GuidanceConfig(strategy="stepwise"),
            sampler=GREEDY,
            stop_tokens=frozenset({EOS}),
            think_tag=(THINK,),
            max_new_tokens=8,
        )
        before = set(threading.enumerate())
        result = decode(job)
        assert result.finish_reason == "error"
        assert result.error.startswith(f"{error}:"), result.error
        assert stub.live_sessions == 0
        assert new_threads(before) == []


@pytest.mark.parametrize("fault,on,error", CASES)
def test_cli_decode_against_fault_exits_5(fault, on, error, tmp_path, capsys):
    with FaultStub(fault, on) as stub:
        cfg = {
            "sources": {
                "base": {"endpoint": stub.endpoint},
                "guide": {"toy_spec": str(CONFIG_DIR / "fusion_guide.toy")},
            },
            "prompt": {
                "text": "what",
                "omni": {"key": "scene_metal", "pad_bytes": 128},
                "think_tag": "<think>",
                "stop": ["<eos>"],
            },
            "sampler": {"mode": "greedy"},
            "decode": {"max_new_tokens": 8},
        }
        path = tmp_path / "job.yaml"
        path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert main(["decode", "--config", str(path)]) == 5
        assert f"decode failed: {error}" in capsys.readouterr().err
        assert stub.live_sessions == 0


def test_failed_branch_leaks_no_sessions_or_threads():
    """base fails to open while neg has opened and guide is still opening."""
    base_srv = serve(parse_toy_spec(FUSION_BASE_SPEC, name="base"))
    guide_srv = serve(
        parse_toy_spec(FUSION_GUIDE_SPEC, name="guide"), LatencyModel(per_token_prefill=0.25)
    )
    try:
        base = RemoteSource(base_srv.endpoint)
        real_open = base.open

        def open_base(prompt: PromptInput):
            if prompt.payload is None:  # the neg branch opens for real
                return real_open(prompt)
            time.sleep(0.05)
            raise TransportError(base.endpoint, 1, "connection reset by peer")

        base.open = open_base
        job = DecodeJob(
            base_source=base,
            guide_source=RemoteSource(guide_srv.endpoint),
            prompt=scene_prompt("scene_metal"),
            guidance=GuidanceConfig(strategy="stepwise"),
            sampler=GREEDY,
            stop_tokens=frozenset({EOS}),
            think_tag=(THINK,),
        )
        before = set(threading.enumerate())
        result = decode(job)
        assert result.finish_reason == "error"
        assert result.error.startswith("TransportError:")
        assert base_srv.live_sessions == 0
        assert guide_srv.live_sessions == 0
        assert new_threads(before) == []
    finally:
        base_srv.stop()
        guide_srv.stop()
