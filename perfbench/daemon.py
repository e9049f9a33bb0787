"""Launch the serve daemon for the ``serve-mixed`` workload.

    python3 perfbench/daemon.py WORKERS TRACE SPANS_PATH

Runs ``repro.serve.server.run_server`` with the daemon's own defaults
(``engine="cached"``, witnesses on, recording tracer on) on an ephemeral
port; ``run_server`` prints the ``listening on`` line the benchmark
waits for.  On SIGINT the daemon shuts down and this launcher prints one
``PERFBENCH {json}`` line: its peak RSS and, with ``TRACE=1``, the
per-layer span summary (spans are also written to ``SPANS_PATH``).
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from worker import import_repro  # noqa: E402


def main(argv) -> int:
    workers, trace, spans_path = int(argv[0]), argv[1] == "1", argv[2]
    import_repro()
    recorder = None
    if trace:
        import spans
        from repro.serve.service import QueryService as _Service

        recorder = spans.Recorder()
        spans.install(recorder)
        make_item = _Service.make_item

        def tagged_make_item(self, tenant, payload, budget=None):
            # Charge this request's spans to the client's op id.
            spans.OP.set(int(payload.get("op", -1)))
            return make_item(self, tenant, payload, budget)

        _Service.make_item = tagged_make_item
    from repro.serve.server import run_server
    from repro.serve.service import QueryService

    service = QueryService(workers=workers)
    started = time.perf_counter()
    run_server(service=service, port=0)
    summary = {
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if recorder is not None:
        summary["trace"] = recorder.summarize(
            time.perf_counter() - started)
        recorder.write_jsonl(spans_path)
    sys.stdout.write("PERFBENCH " + json.dumps(summary) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
