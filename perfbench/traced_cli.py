"""Run `velakit.cli.main` under the tracer and write the per-layer sidecar.

Usage (from the checkout's src/ directory):
    python perfbench/traced_cli.py SIDECAR KEEP_SPANS CLI-ARGS...

SIDECAR receives the tracer's snapshot as JSON; with KEEP_SPANS=1 it also
holds every span. The exit code is the CLI's.
"""

import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.getcwd())

from tracer import Tracer  # noqa: E402


def main() -> int:
    sidecar, keep_spans, argv = sys.argv[1], sys.argv[2] == "1", sys.argv[3:]
    import velakit.cli

    tracer = Tracer()
    if keep_spans:
        tracer.spans = []
    tracer.install()
    try:
        rc = velakit.cli.main(argv)
    finally:
        tracer.uninstall()
        record = tracer.snapshot()
        if tracer.spans is not None:
            record["spans"] = tracer.spans
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(record, fh)
    return rc


if __name__ == "__main__":
    sys.exit(main())
