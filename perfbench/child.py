"""The system under test of ``synth152k_http``: two logit servers in one process.

Usage: python3 perfbench/child.py <checkout root> <base seed> <guide seed>

Serves a base and a guide ``SynthModel`` with ``ModelServer``. Both share one
compute lock, so they queue like two models on one accelerator, and use the
``LatencyModel`` below. The lock is a timing wrapper (wait and hold per
request) and each served model is wrapped to time its own calls; these are
the server spans of the traced run.

Prints one JSON line with the endpoints, then answers commands read from
stdin, one per line, each with one JSON line:

- ``stats``: spans and counters since the last ``reset``, CPU time, peak RSS;
- ``reset``: forget the spans and counters so far;
- ``stop`` or end of input: stop both servers and exit.
"""

from __future__ import annotations

import json
import resource
import sys
import threading
import time
from pathlib import Path

perf = time.perf_counter

# configs/bench.yaml's latency model when this benchmark was defined. It is
# fixed here so that a change to that file does not change the workload.
PREFILL_S_PER_TOKEN = 0.3e-3
STEP_S = 20e-3
PAYLOAD_S_PER_KIB = 0.08e-3


class TimedLock:
    """A compute lock that records how long each request waited and held it."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._acquired = 0.0
        self.wait_s: list[float] = []
        self.hold_s: list[float] = []

    def __enter__(self):
        t0 = perf()
        self._lock.acquire()
        self._acquired = perf()
        self.wait_s.append(self._acquired - t0)
        return self

    def __exit__(self, *exc) -> None:
        self.hold_s.append(perf() - self._acquired)
        self._lock.release()


class TimedModel:
    """Wraps a served model to time every model call it makes."""

    def __init__(self, model, stats: dict) -> None:
        self._model = model
        self._stats = stats
        self.name = model.name

    @property
    def vocabulary(self):
        return self._model.vocabulary

    @property
    def context_limit(self):
        return self._model.context_limit

    def _time(self, fn, *args):
        t0 = perf()
        try:
            return fn(*args)
        finally:
            self._stats["model_s"].append(perf() - t0)

    def open(self, prompt):
        return TimedSession(self._time(self._model.open, prompt), self)


class TimedSession:
    def __init__(self, session, model: TimedModel) -> None:
        self._session = session
        self._model = model

    @property
    def context_length(self) -> int:
        return self._session.context_length

    def logits(self):
        return self._model._time(self._session.logits)

    def step(self, token_id):
        return self._model._time(self._session.step, token_id)

    def close(self) -> None:
        self._model._stats["closes"] += 1
        self._session.close()


def main(argv: list[str]) -> int:
    root = Path(argv[1])
    sys.path.insert(0, str(root / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from omniguide import LatencyModel, ModelServer
    from synth import SynthModel, synth_vocabulary

    vocab = synth_vocabulary()
    lock = TimedLock()
    stats = {"model_s": [], "closes": 0}
    latency = LatencyModel(PREFILL_S_PER_TOKEN, STEP_S, PAYLOAD_S_PER_KIB)
    servers = {
        role: ModelServer(
            TimedModel(SynthModel(int(seed), vocabulary=vocab), stats), latency, compute_lock=lock
        ).start()
        for role, seed in (("base", argv[2]), ("guide", argv[3]))
    }
    try:
        _reply({"endpoints": {role: s.endpoint for role, s in servers.items()}})
        for line in sys.stdin:
            cmd = line.strip()
            if cmd == "stats":
                _reply(
                    {
                        "wait_s": lock.wait_s,
                        "hold_s": lock.hold_s,
                        "model_s": stats["model_s"],
                        "closes": stats["closes"],
                        "live_sessions": sum(s.live_sessions for s in servers.values()),
                        "cpu_s": time.process_time(),
                        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                    }
                )
            elif cmd == "reset":
                lock.wait_s, lock.hold_s = [], []
                stats["model_s"], stats["closes"] = [], 0
                _reply({"ok": True})
            elif cmd == "stop":
                break
            else:
                _reply({"error": f"unknown command {cmd!r}"})
    finally:
        for s in servers.values():
            s.stop()
    return 0


def _reply(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


if __name__ == "__main__":
    sys.exit(main(sys.argv))
