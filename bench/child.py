"""Traced child process for the cli_cold workload.

    python bench/child.py FD ARGV...

Imports the checkout's opzeta (timing the import), installs the span
wrappers, runs `opzeta.cli.main(ARGV)` and exits with its code, like
`python -m opzeta ARGV...`. At exit it writes the span summary and the import
time as one JSON object to the inherited file descriptor FD.
"""

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> int:
    fd = int(sys.argv[1])
    t0 = time.perf_counter()
    import opzeta.cli

    import_s = time.perf_counter() - t0
    import spans

    tracer = spans.Tracer()
    tracer.install()
    try:
        return opzeta.cli.main(sys.argv[2:])
    finally:
        summary = tracer.summary()
        summary["import_s"] = [import_s]
        with os.fdopen(fd, "w") as f:
            json.dump(summary, f)


if __name__ == "__main__":
    sys.exit(main())
