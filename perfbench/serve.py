"""Launch ``repro serve --port 0`` for the service-mixed workload.

Usage: ``python3 perfbench/serve.py STATS_JSON [TRACE_JSON]``

Runs the service with its default flags.  With ``TRACE_JSON`` the layer
wrappers of :mod:`layers` are installed first, so the service's lock is
wrapped to time lock waits and every request's layer calls are charged
to their metrics.  On SIGTERM the server stops; this launcher then writes
the process's peak RSS (and, when traced, the per-layer metrics) to
``STATS_JSON`` and the Chrome trace to ``TRACE_JSON``.
"""

import json
import os
import resource
import signal
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]


def _stop(signum, frame):
    # ``repro serve`` shuts down cleanly on KeyboardInterrupt
    raise KeyboardInterrupt


def main(argv):
    # a launcher started in the background may inherit SIGINT as ignored,
    # so the stop request comes as SIGTERM with an explicit handler
    signal.signal(signal.SIGTERM, _stop)
    stats_path = argv[0]
    trace_path = argv[1] if len(argv) > 1 else None
    from repro.cli import main as repro_main

    recorder = None
    if trace_path:
        from layers import Recorder

        recorder = Recorder().install()
    code = repro_main(["serve", "--port", "0"])
    stats = {"peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    if recorder is not None:
        from layers import layer_metrics

        recorder.uninstall()
        stats["layers"] = layer_metrics(recorder)
        stats["missing"] = sorted(recorder.missing)
        recorder.write_trace(trace_path)
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(stats, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
