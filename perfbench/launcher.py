"""Run ``eaas.server.main`` for the benchmark and report on it at exit.

    python3 perfbench/launcher.py --report OUT.json [--trace 1] \
        --config server.conf [--log-level INFO]

Arguments other than ``--report`` and ``--trace`` go to the server. With
``--trace 1`` the eaas layers are wrapped by ``spans.Tracer`` before the
server starts. When the server stops (SIGTERM), OUT.json receives the
service's final ``counters``, the process's peak RSS and the spans.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import spans  # noqa: E402
from eaas import server  # noqa: E402


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--report", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args, server_argv = parser.parse_known_args()

    tracer = spans.Tracer()
    if args.trace:
        tracer.install()
    services = []
    build_service = server.build_service

    def capture(*a, **kw):
        services.append(build_service(*a, **kw))
        return services[-1]

    server.build_service = capture
    serve = tracer.wrap("server.main", server.main) if args.trace \
        else server.main
    rc = serve(server_argv)
    report = {
        "rc": rc,
        "counters": services[0].counters if services else None,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "spans": tracer.spans,
    }
    tmp = args.report.with_suffix(".tmp")
    tmp.write_text(json.dumps(report))
    os.replace(tmp, args.report)
    return rc


if __name__ == "__main__":
    sys.exit(main())
