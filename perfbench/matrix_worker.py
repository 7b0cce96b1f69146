"""One phase of one pass of the evaluation matrix, in a process of its own.

    python perfbench/matrix_worker.py --phase cold --full 1 --cache-dir D [--trace]

Each phase runs where ``shmls-bench`` would run it: in a new process that
holds only its own harness and cache, so its first-use costs, its heap, its
garbage collections and its peak memory are those of a real matrix run.
The harness of the ``cold`` and ``warm`` phases gets a new CompileCache on
D; ``nocache`` has none.  The benchmark drives the worker over
stdin/stdout, one JSON object per line:

* ``{"cmd": "case", "index": I}`` runs case I of the matrix and replies
  with the seconds it took and the errors.
* ``{"cmd": "end"}`` replies with the deterministic report, the process's
  peak RSS and (with ``--trace``) the recorded spans, and exits.

With ``--trace`` the layer wrappers of :mod:`spans` are installed and
each case is a root span ``op.matrix.<phase>``.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path
from typing import Any


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--phase", required=True, choices=("nocache", "cold", "warm"))
    parser.add_argument("--full", type=int, required=True)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import sections
    import spans
    from repro.core.compile_cache import CompileCache
    from repro.evaluation.harness import EvaluationHarness
    from repro.evaluation.report import results_to_json

    recorder = None
    if args.trace:
        recorder = spans.Recorder()
        spans.install_layer_wrappers(recorder)
    cases = sections.matrix_cases(bool(args.full))
    harness = EvaluationHarness(
        repeats=sections.MATRIX_REPEATS,
        cache=None if args.phase == "nocache" else CompileCache(args.cache_dir),
    )
    results: list[Any] = []
    print(json.dumps({"ready": len(cases)}), flush=True)
    for line in sys.stdin:
        command = json.loads(line)
        if command["cmd"] == "case":
            case = cases[command["index"]]
            errors = []
            began = time.perf_counter()
            try:
                with sections.span(recorder, f"op.matrix.{args.phase}", case=case.label):
                    results.extend(harness.run_matrix([case], jobs=1))
            except Exception as err:  # noqa: BLE001 - counted; the report check fails too
                errors.append(f"matrix {args.phase} {case.label}: {type(err).__name__}: {err}")
            reply: dict[str, Any] = {"elapsed": time.perf_counter() - began, "errors": errors}
        else:
            if recorder is not None:
                recorder.unwatch_gc()
            print(json.dumps({
                "report": results_to_json(results, deterministic=True),
                "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "trace": recorder.summary() if recorder is not None else None,
            }), flush=True)
            return 0
        print(json.dumps(reply), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
