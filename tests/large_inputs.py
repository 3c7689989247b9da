"""Run the largest inputs the caps admit through the CLI, checking memory.

Each command runs in a child process and must exit 0 with a maximum resident
set under its own limit, and within its wall-time limit where it has one.  The child's resource usage is taken from
``os.wait4`` on that child alone, so a large command does not mask the rows
after it (``RUSAGE_CHILDREN`` is the largest over every child waited for).
Each child turns a ``RuntimeWarning`` into an error, as the pytest settings
do.  The commands take minutes, so they stay out of the pytest suite.  Run from
anywhere:

    python tests/large_inputs.py
"""

from __future__ import annotations

import os
import subprocess
import sys
import time

# (argv, limit on the child's maximum resident set in MB, limit on its wall time in s or None)
COMMANDS = (
    # 2,048 twin representatives with matching weights: one bounded scan
    (("analyze", "--graph", "CP(4096)", "--format", "json"), 1024, 60),
    # the paper's product family at the vertex cap: 4,096 vertices, one scan
    (("analyze", "--graph", "dprod(K(64),K(64))", "--format", "json"), 1024, 60),
    # a direct product with an irregular factor under the Laplacian, at the cap
    (("analyze", "--graph", "dprod(P(64),K(64))", "--matrix", "L", "--format", "json"), 1024, 60),
    # 512 twin pairs with matching weights: one degree-512 root solve serves
    # them all; one per twin pair took 98 s
    (("analyze", "--graph", "CP(1024)", "--format", "json"), 256, 30),
    # the 11-cube: 2,048 twin-free vertices, each with its antipode as partner,
    # read off one column of U(t); testing every vertex as a partner took 262 s
    (("analyze", "--graph", "cprod(K(2)," * 10 + "K(2)" + ")" * 10, "--format", "json"), 512, 60),
    (("spectrum", "--graph", "K(4096)", "--format", "csv"), 1024, None),
    # 166,111 steps x (1 + 100 vertices) = 16,777,211 cells, just under the cap
    (("series", "--graph", "P(100)", "--steps", "166111"), 400, 30),
    # every vertex of a large graph at few steps: the phase tables are shared, not per vertex
    (("series", "--graph", "P(1000)", "--all-vertices", "--steps", "1001"), 256, None),
    # streamed one support block at a time (79 MB measured; 170 MB while
    # the document was built whole)
    (("spectrum", "--graph", "P(1000)", "--format", "json"), 128, 30),
    (("spectrum", "--graph", "P(1000)", "--format", "csv"), 256, None),
    # the most grid points a bounded scan takes, one row block held at a time
    # (36 MB measured; 164 MB while the scan held its whole grid)
    (("classify", "--graph", "P(9)", "--vertex", "0", "--steps", str(2**24)), 64, 30),
    # the same on a grid under L: no period, all 9 classes weighed by the vertex
    (
        ("classify", "--graph", "cprod(P(4),P(4))", "--matrix", "L", "--vertex", "1",
         "--steps", str(2**24)),
        64,
        30,
    ),
    # the largest sweep of each family: its largest graph has 4,096 vertices
    (("families", "--family", "cp", "--start", "1", "--stop", "2048", "--format", "json"), 256, 30),
    (
        ("families", "--family", "clique-minus-edge", "--start", "3", "--stop", "4096",
         "--format", "json"),
        256,
        30,
    ),
    (("families", "--family", "product", "--start", "2", "--stop", "64", "--format", "json"), 256, 30),
    # 4,095 cells: each record reads the cell sums built once for the spec
    (
        ("families", "--family", "threshold", "--cells", ",".join(["2"] + ["1"] * 4094),
         "--first-cell", "K", "--matrix", "L", "--format", "json"),
        256,
        30,
    ),
)
ENTRY = "import sys; from sedwalk.cli import main; sys.exit(main(sys.argv[1:]))"


def main() -> int:
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    env = dict(os.environ, PYTHONPATH=path)
    failed = False
    for argv, limit_mb, limit_s in COMMANDS:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-W", "error::RuntimeWarning", "-c", ENTRY, *argv],
            stdout=subprocess.DEVNULL,
            env=env,
        )
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        code = proc.returncode = os.waitstatus_to_exitcode(status)
        rss_mb = usage.ru_maxrss / 1024  # KiB on Linux
        ok = code == 0 and rss_mb < limit_mb and (limit_s is None or wall < limit_s)
        failed |= not ok
        limits = f"{limit_mb} MB" + ("" if limit_s is None else f", {limit_s} s")
        shown = " ".join(a if len(a) <= 40 else f"{a[:16]}...({len(a)} chars)" for a in argv)
        print(
            f"{shown}: exit {code}, {wall:.1f} s, max RSS {rss_mb:.0f} MB "
            f"(limit {limits}): {'ok' if ok else 'FAIL'}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
