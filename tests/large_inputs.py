"""Run the largest inputs the vertex cap admits through the CLI, checking memory.

Each command runs in a child process and must exit 0 with a maximum resident
set under 1 GB.  ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the largest over the
children waited for so far, so each check bounds every command run up to it.
The commands take minutes, so they stay out of the pytest suite.  Run from
anywhere:

    python tests/large_inputs.py
"""

from __future__ import annotations

import os
import resource
import subprocess
import sys
import time

COMMANDS = (
    ("analyze", "--graph", "CP(4096)", "--format", "json"),
    ("spectrum", "--graph", "K(4096)", "--format", "csv"),
)
LIMIT_MB = 1024
ENTRY = "import sys; from sedwalk.cli import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    failed = False
    for argv in COMMANDS:
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, *argv], stdout=subprocess.DEVNULL, env=env
        )
        wall = time.perf_counter() - start
        rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024  # KiB on Linux
        ok = proc.returncode == 0 and rss_mb < LIMIT_MB
        failed |= not ok
        print(
            f"{' '.join(argv)}: exit {proc.returncode}, {wall:.1f} s, "
            f"max RSS {rss_mb:.0f} MB: {'ok' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
