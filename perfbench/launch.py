"""Run one contextnet CLI command in this process, with wrappers around its
public entry points, and write what they saw as JSON.

Usage: python3 perfbench/launch.py RESULT.json {0|1} contextnet-args...

The second argument turns on the per-layer trace. Without it only the
entry points in trace.BOUNDS are wrapped. The exit code is the command's.
"""
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from perfbench import trace  # noqa: E402


def main(argv) -> int:
    result_path, traced, cli_args = argv[0], argv[1] == "1", argv[2:]
    import contextnet.cli as cli

    tracer = trace.Tracer()
    tracer.install(trace.BOUNDS + (trace.LAYERS if traced else ()))
    try:
        return cli.main(cli_args)
    finally:
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "program": cli.__file__,
                    "train_entry": next(
                        (s[2] for s in tracer.spans if s[0] == "training.train"), None
                    ),
                    # spans use perf_counter; the parent times with monotonic
                    "clock_offset": time.monotonic() - time.perf_counter(),
                    "absent": tracer.absent,
                    "spans": tracer.spans,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
