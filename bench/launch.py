"""Run the nbrepro CLI in this process and write what the benchmark measures.

    python launch.py PROBE_JSON TRACE NBREPRO_ARGS...

TRACE is 0 or 1. With 0, only two moments are stamped: the start of the CLI
handler and the first repository-level call. With 1, every public function
of every nbrepro module records spans. Either way PROBE_JSON receives the
exit code, the peak resident memory of this process and the stamps or
spans. nbrepro is imported from the ``src`` directory next to this one.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import tracer  # noqa: E402


def main() -> int:
    probe_path, trace, argv = Path(sys.argv[1]), sys.argv[2] == "1", sys.argv[3:]
    from nbrepro import cli

    stamps: dict[str, float] = {}
    spans_tracer = None
    if trace:
        spans_tracer = tracer.Tracer()
        spans_tracer.install()
    else:
        tracer.install_setup_stamps(stamps)
    code = 1
    try:
        code = cli.main(argv)
    finally:
        probe = {
            "exit": code,
            "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "stamps": stamps,
            "spans": spans_tracer.spans if spans_tracer else [],
            "ended": time.monotonic(),
        }
        probe_path.write_text(json.dumps(probe), encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
