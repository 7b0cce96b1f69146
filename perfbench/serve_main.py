"""Start ``shmls-serve`` for the benchmark, optionally traced.

    python perfbench/serve_main.py --trace-out FILE -- <shmls-serve args>

With an empty ``--trace-out`` this is exactly ``shmls-serve``.  Otherwise
the layer wrappers of :mod:`spans` are installed first, and the recorded
spans are written to FILE as JSON when the server exits on SIGTERM.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--trace-out", default="")
    parser.add_argument("server_args", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    server_args = args.server_args[1:] if args.server_args[:1] == ["--"] else args.server_args

    recorder = None
    if args.trace_out:
        from spans import Recorder, install_layer_wrappers

        recorder = Recorder()
        install_layer_wrappers(recorder)
    from repro.service import server

    code = server.main(server_args)
    if recorder is not None:
        recorder.unwatch_gc()
        Path(args.trace_out).write_text(json.dumps(recorder.summary()))
    return code


if __name__ == "__main__":
    sys.exit(main())
