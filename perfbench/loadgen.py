"""Open-loop request generator for ``shmls-serve`` (one process).

    python perfbench/loadgen.py --port PORT --seed SEED --rate 32 --slice-s 1.5

The benchmark drives it over stdin/stdout, one JSON object per line:

* ``{"cmd": "warm_up"}`` serves every :data:`WARM_SPECS` entry once and
  keeps its results; later warm answers must match them byte for byte.
* ``{"cmd": "slice", "cold": SPEC}`` runs one slice: one connection sends
  warm requests at ``--rate`` per second, the other sends the cold spec
  at a seeded time early in the slice.  Latency is timed from each
  request's due time, so a stalled server also delays the requests queued
  behind the stall.  Warm latencies are reported twice: all of them, and
  those of the requests that were neither due nor answered while the cold
  request was in flight (the warm path of an idle server).
* ``{"cmd": "stop"}`` exits.

Every reply carries the requests attempted and the failures seen (an
exception, a 429, a timeout or a result that differs).  The generator
is a process of its own so the benchmark's heap, and its garbage
collections, never delay a request.
"""

from __future__ import annotations

import argparse
import json
import math
import random
import sys
import threading
import time
from pathlib import Path
from typing import Any

#: Specs served once before the timed slices; warm requests repeat them.
WARM_SPECS: list[dict[str, Any]] = [
    {"kernel": "pw_advection", "size": "8M"},
    {"kernel": "tracer_advection", "size": "8M"},
    {"kernel": "pw_advection", "size": "8M", "framework": "Stencil-HMLS",
     "variants": ["no-pack", "no-split", "staged"]},
    {"kernel": "pw_advection", "sizes": ["32M", "134M"], "framework": "Stencil-HMLS"},
]


def results_text(response: dict[str, Any]) -> str:
    return json.dumps(response["complete"]["results"], sort_keys=True)


class Generator:
    def __init__(self, client: Any, rng: random.Random, rate: float, slice_s: float) -> None:
        self.client = client
        self.rng = rng
        self.rate = rate
        self.slice_s = slice_s
        self.expected: dict[int, str] = {}
        self._lock = threading.Lock()

    def warm_up(self) -> dict[str, Any]:
        failures = []
        for index, spec in enumerate(WARM_SPECS):
            try:
                self.expected[index] = results_text(self.client.compile(spec))
            except Exception as err:  # noqa: BLE001 - reported as a failed op
                failures.append(f"warm-up {spec}: {type(err).__name__}: {err}")
        return {"attempted": len(WARM_SPECS), "failures": failures}

    def run_slice(self, cold_spec: dict[str, Any] | None) -> dict[str, Any]:
        reply: dict[str, Any] = {
            "attempted": 0, "failures": [], "warm_ms": [], "cold_ms": [], "lag_ms": [],
            "cold_results": [], "warm_idle_ms": [],
        }
        t0 = time.perf_counter() + 0.01
        cold_due = t0 + self.rng.uniform(0.1, 0.4) * self.slice_s
        # The slice lasts ``slice_s``, and at least 1.5 cold latencies past
        # the cold answer, so the cold compile keeps the server busy for at
        # most ~40% of the slice however fast the host is.
        state = {"end": t0 + self.slice_s, "cold_done": cold_spec is None}
        #: (due, done) of every answered warm request.
        warm_spans: list[tuple[float, float]] = []

        def wait_until(due: float) -> None:
            delay = due - time.perf_counter()
            if delay > 0:
                time.sleep(delay)

        def warm() -> None:
            i = 0
            while True:
                due = t0 + i / self.rate
                if due >= state["end"] and state["cold_done"]:
                    return
                wait_until(due)
                done = self._send("warm", self.rng.randrange(len(WARM_SPECS)), due, reply)
                if done is not None:
                    warm_spans.append((due, done))
                i += 1

        def cold() -> None:
            wait_until(cold_due)
            done = self._send("cold", cold_spec, cold_due, reply)
            state["cold_end"] = done if done is not None else math.inf
            if done is not None:
                state["end"] = max(state["end"], done + 1.5 * (done - cold_due))
            state["cold_done"] = True

        threads = [threading.Thread(target=warm)]
        if cold_spec is not None:
            threads.append(threading.Thread(target=cold))
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        cold_end = state.get("cold_end", -math.inf)
        reply["warm_idle_ms"] = [
            (done - due) * 1e3 for due, done in warm_spans
            if done <= cold_due or due >= cold_end
        ]
        return reply

    def _send(self, kind: str, item: Any, due: float, reply: dict[str, Any]) -> float | None:
        """Send one request; returns when its answer completed (None when
        it failed, except for a wrong cold answer, which still ends the
        cold window)."""
        sent = time.perf_counter()
        spec = item if kind == "cold" else WARM_SPECS[item]
        try:
            response = self.client.compile(spec)
            done = time.perf_counter()
            text = results_text(response)
        except Exception as err:  # noqa: BLE001 - 429s and timeouts count too
            with self._lock:
                reply["attempted"] += 1
                reply["failures"].append(f"{kind} {spec}: {type(err).__name__}: {err}")
            return None
        with self._lock:
            reply["attempted"] += 1
            reply["lag_ms"].append((sent - due) * 1e3)
            if kind == "warm" and text != self.expected.get(item):
                reply["failures"].append(f"warm {spec}: results differ from the first response")
                return None
            if kind == "cold":
                entries = response["complete"]["results"]
                if len(entries) != 1 or not entries[0].get("mpts", 0) > 0:
                    reply["failures"].append(f"cold {spec}: unexpected results {entries}")
                    return done
                reply["cold_results"].append([spec, text])
            reply[f"{kind}_ms"].append((done - due) * 1e3)
        return done


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--seed", required=True)
    parser.add_argument("--rate", type=float, required=True)
    parser.add_argument("--slice-s", type=float, required=True)
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    from repro.service.client import ServiceClient

    generator = Generator(
        ServiceClient("127.0.0.1", args.port, timeout=30.0),
        random.Random(args.seed), args.rate, args.slice_s,
    )
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "warm_up":
            reply = generator.warm_up()
        elif command["cmd"] == "slice":
            reply = generator.run_slice(command["cold"])
        else:
            return 0
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
