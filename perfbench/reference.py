"""Reference pass: the baseline-table rows of ROADMAP.md, once each.

Not part of the gated benchmark and never run by ``run.py``.  Run it on
request, from the root of a checkout::

    python3 perfbench/reference.py                 # every row
    python3 perfbench/reference.py --rows decompose-P600 classify-C40

Each row runs in a fresh process twice: once for wall time, once under
``tracemalloc`` for its peak traced allocation (numpy buffers included).
Results are printed as a table and written to ``perfbench/out/reference.json``.
The whole pass takes about 15 minutes on a small machine; ``classify-P60``
alone takes about 3.5 minutes per pass and peaks near 1.9 GB.
"""

from __future__ import annotations

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import contextlib
import importlib
import io
import json
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))

# name -> (call as printed, module, function, graph expression, matrix or None)
ROWS = {
    "twins-CP400": ("find_twin_sets(CP(400))", "sedwalk.twins", "find_twin_sets", "CP(400)",
                    None),
    "classify-P60": ("classify_all(P(60), A)", "sedwalk.sedentary", "classify_all", "P(60)",
                     "A"),
    "classify-C40": ("classify_all(C(40), A)", "sedwalk.sedentary", "classify_all", "C(40)",
                     "A"),
    "classify-random24": ("classify_vertex(random n=24, A, 0)", "sedwalk.sedentary",
                          "classify_vertex", "random24", "A"),
    "decompose-P600": ("decompose(P(600), A)", "sedwalk.spectral", "decompose", "P(600)", "A"),
    "classify-Q5": ("classify_all(Q5, A)", "sedwalk.sedentary", "classify_all",
                    "cprod(K(2),cprod(K(2),cprod(K(2),cprod(K(2),K(2)))))", "A"),
    "classify-CP20-L": ("classify_all(CP(20), L)", "sedwalk.sedentary", "classify_all",
                        "CP(20)", "L"),
    "families-product-2-30": ("families --family product --start 2 --stop 30", "sedwalk.cli",
                              "main", None, None),
}


def _random24():
    """A twin-free weighted sparse graph on 24 vertices whose walk scan uses
    the full 10^6-point horizon (the benchmark's own generator, seed 0)."""
    sys.path.insert(0, HERE)
    import workloads

    rng = random.Random(0)
    spec = workloads._random_graph(rng, lambda: workloads._weighted_sparse(rng, 24, 8), "A",
                                   workloads.FULL_SCAN_BAND)
    from graphspec import edge_list_text

    from sedwalk.graphs import from_edge_list_text

    return from_edge_list_text(edge_list_text(spec))


def _prepare(name: str):
    """The call of one row, with its inputs built beforehand."""
    _, module, func, graph, matrix = ROWS[name]
    fn = getattr(importlib.import_module(module), func)
    if func == "main":
        argv = ["families", "--family", "product", "--start", "2", "--stop", "30"]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return fn(argv)

        return call
    from sedwalk.dsl import parse_graph
    from sedwalk.graphs import MatrixKind

    g = _random24() if graph == "random24" else parse_graph(graph)
    if matrix is None:
        return lambda: fn(g)
    kind = MatrixKind.parse(matrix)
    if func == "classify_vertex":
        return lambda: fn(g, kind, 0)
    return lambda: fn(g, kind)


def run_row(name: str, memory: bool) -> dict:
    """Run one row in this process: wall time, or tracemalloc peak."""
    sys.path.insert(0, os.path.join(os.getcwd(), "src"))
    try:
        call = _prepare(name)
    except (ImportError, AttributeError) as exc:
        return {"row": name, "missing": f"{type(exc).__name__}: {exc}"}
    if memory:
        import tracemalloc

        tracemalloc.start()
        call()
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        return {"row": name, "peak_mb": peak / float(1 << 20)}
    t0 = time.perf_counter()
    call()
    return {"row": name, "wall_s": time.perf_counter() - t0}


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description="ROADMAP baseline rows, once each (ungated).")
    p.add_argument("--rows", nargs="*", choices=sorted(ROWS), default=list(ROWS))
    p.add_argument("--one", help=argparse.SUPPRESS)
    p.add_argument("--memory", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.one:
        print(json.dumps(run_row(args.one, args.memory)))
        return 0
    if not os.path.isfile(os.path.join("src", "sedwalk", "cli.py")):
        print("run from the root of a sedwalk checkout", file=sys.stderr)
        return 2
    results = []
    print(f"{'row':<48} {'wall_s':>10} {'peak_mb':>10}")
    for name in args.rows:
        row = {"row": name, "call": ROWS[name][0]}
        for memory in (False, True):
            cmd = [sys.executable, __file__, "--one", name] + (["--memory"] if memory else [])
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                row["error"] = proc.stderr.strip().splitlines()[-1:]
                break
            row.update(json.loads(proc.stdout.strip().splitlines()[-1]))
        results.append(row)
        wall = f"{row['wall_s']:.3f}" if "wall_s" in row else "-"
        peak = f"{row['peak_mb']:.1f}" if "peak_mb" in row else "-"
        note = row.get("missing") or row.get("error") or ""
        print(f"{row['call']:<48} {wall:>10} {peak:>10} {note}", flush=True)
    os.makedirs(os.path.join("perfbench", "out"), exist_ok=True)
    with open(os.path.join("perfbench", "out", "reference.json"), "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
