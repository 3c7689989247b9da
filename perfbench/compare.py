"""Compare the output digests of two benchmark runs.

Every run report (``perfbench/out/<workload>-s<seed>-t<trace>.json``) maps
each op's command line to the SHA-256 digest of its output bytes.  Copy a
report aside before re-running, then::

    python3 perfbench/compare.py before.json after.json

lists the ops whose output differs, and the ops only one run reached (a
timed run covers as many ops as fit in its time).  Exit status is 1 when
some op shared by both runs differs, else 0, so a change that must keep
output bytes identical can show it without a golden file.
"""

from __future__ import annotations

import json
import sys


def compare(a: dict, b: dict) -> dict:
    shared = sorted(set(a) & set(b))
    return {
        "shared": len(shared),
        "differ": [k for k in shared if a[k] != b[k]],
        "only_first": sorted(set(a) - set(b)),
        "only_second": sorted(set(b) - set(a)),
    }


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    reports = []
    for path in argv:
        with open(path, encoding="utf-8") as fh:
            reports.append(json.load(fh))
    first, second = reports
    for key in ("workload", "seed"):
        if first[key] != second[key]:
            print(f"note: {key} differs ({first[key]} vs {second[key]}); few ops will match")
    res = compare(first["digests"], second["digests"])
    print(f"ops in both runs: {res['shared']}, identical: {res['shared'] - len(res['differ'])}, "
          f"different: {len(res['differ'])}")
    print(f"only in {argv[0]}: {len(res['only_first'])}, only in {argv[1]}: "
          f"{len(res['only_second'])}")
    for key in res["differ"]:
        print(f"  differs: {key}")
    return 1 if res["differ"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
