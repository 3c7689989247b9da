"""Benchmark of the sedwalk CLI pipeline: one workload, one seed, one run.

Usage, from the root of a checkout (the program is imported from ``src/``)::

    python3 perfbench/run.py --workload twin-families --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics: set-up time, throughput, op
latency and peak RSS of a worker process that runs CLI ops in a closed loop
with one caller.  ``--trace 1`` instead runs a fixed prefix of the op list
twice per op, untraced and traced, and reports per-layer metrics.  Every
op's output is checked against an independent oracle after the worker has
ended, outside the timed region.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
See README.md for the workloads, metrics and companion scripts.
"""

from __future__ import annotations

import os

# Pin BLAS threads before numpy loads, here and in every worker.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import json
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT = os.path.join("perfbench", "out")

DEFAULT_SEED = 1
HOLDOUT_SEED = 20261017
SETUP_SAMPLES = 7  # six set-up-only workers plus the measuring one
MIN_OPS = 100
WORKER_TIMEOUT_S = 150.0
TRACE_BLOCKS = 6

MIB = float(1 << 20)


def _fail(msg: str) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return 2


def environment() -> dict:
    import numpy as np

    blas = {}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
    }


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("SEDWALK_THREADS", None)
    env.pop("PYTHONPATH", None)
    env["PYTHONHASHSEED"] = "0"
    return env


class Worker:
    """One worker process; ``ready_s`` is its time from launch to READY.

    Use it as a context manager: leaving the block, by any exit, kills a
    worker that is still running and waits for it.
    """

    def __init__(self, args: list[str], log_path: str):
        cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
        self._log = open(log_path, "ab")
        start = time.perf_counter()
        self.proc = subprocess.Popen(cmd, cwd=ROOT, env=worker_env(), stdout=subprocess.PIPE,
                                     stderr=self._log, text=True)
        try:
            line = self.proc.stdout.readline()
        except BaseException:
            self._stop()
            raise
        self.ready_s = time.perf_counter() - start
        self.ready = line.strip() == "READY"

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        self._stop()

    def finish(self, timeout: float) -> int:
        """Wait for the worker (it prints nothing after READY); kill it if late."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return -1
        finally:
            self._stop()

    def _stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        if not self._log.closed:
            self.proc.stdout.close()
            self._log.close()


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile by statistics.quantiles (inclusive of the sample ends)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_checks(ops, result: dict, outputs: str, seed: int) -> tuple[dict, dict]:
    """Check every saved output; returns op index -> problems, and verdict stats."""
    import oracle

    problems: dict[int, list[str]] = {}
    by_digest: dict[tuple[int, str], list[str]] = {}
    verdicts: dict = {}
    families = []
    stats = {"verdicts": 0, "certified": 0, "grid_points": 0, "family_rows_compared": 0}
    seen_ops = set()
    for item in result["saved"]:
        idx, digest = item["op"], item["digest"]
        with open(os.path.join(outputs, item["file"]), encoding="utf-8") as fh:
            text = fh.read()
        op = ops[idx]
        if op.command == "families":
            families.append((idx, digest, op, text))
        found, entries = oracle.check_op(op, text, seed)
        by_digest[(idx, digest)] = found
        if idx not in seen_ops:
            seen_ops.add(idx)
            verdicts.update(oracle.spectral_verdicts(op, entries))
            for e in entries:
                stats["verdicts"] += 1
                stats["certified"] += bool(e.get("certified"))
                stats["grid_points"] += (e.get("evidence") or {}).get("grid_points", 0)
    for idx, digest, op, text in families:
        found, compared = oracle.check_families(op, text, verdicts)
        by_digest[(idx, digest)] = found
        stats["family_rows_compared"] += compared
    for rec in result["records"]:
        found = list(by_digest.get((rec["op"], rec["digest"]), []))
        if rec["rc"] != 0:
            found.insert(0, f"exit code {rec['rc']}: {rec['error']}")
        if "traced_digest" in rec and (rec["traced_digest"] != rec["digest"]
                                       or rec["memory_digest"] != rec["digest"]
                                       or rec["traced_rc"] != rec["rc"]):
            found.append("traced output differs from the untraced output")
        if found:
            problems.setdefault(rec["op"], found)
    return problems, stats


def e2e_metrics(result: dict, setup: list[float]) -> dict:
    lat = [r["latency"] for r in result["records"]]
    return {
        "ops_per_s": (len(lat) / result["busy_s"], "1/s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_p90_s": (quantile(lat, 90), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "setup_s": (statistics.median(setup), "s"),
    }


def layer_metrics(result: dict, stats: dict) -> dict:
    tr = result["trace"]
    recs = result["records"]
    ops = len(recs)
    plain = sum(r["latency"] for r in recs)
    traced = sum(r["traced_latency"] for r in recs)
    c = tr["counts"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    m = {}
    for layer, own in tr["self_s"].items():
        m[f"{layer}.self_s"] = (own, "s")
        m[f"{layer}.calls"] = (tr["calls"][layer], "count")
        m[f"{layer}.share"] = (ratio(own, traced), "1")
    infimum = c.get("WalkEvaluator.infimum_diagonal.calls", 0)
    recognize = c.get("recognize_spectrum.calls", 0) + c.get("recognize_values.calls", 0)
    recognized = c.get("recognize_spectrum.hits", 0) + c.get("recognize_values.hits", 0)
    equality = c.get("equality_time_criterion.calls", 0)
    m.update({
        "twins.find_calls_per_op": (ratio(c.get("find_twin_sets.calls", 0), ops), "1/op"),
        "twins.pair_tests": (c.get("are_twins.calls", 0), "count"),
        "twins.hit_ratio": (ratio(c.get("are_twins.true", 0), c.get("are_twins.calls", 0)), "1"),
        "walk.infimum_calls": (infimum, "count"),
        "walk.grid_points": (stats["grid_points"], "count"),
        "walk.support_ratio": (ratio(c.get("infimum.support", 0), c.get("infimum.k", 0)), "1"),
        "walk.certified_ratio": (ratio(c.get("infimum.certified", 0), infimum), "1"),
        "walk.peak_alloc_mb": (tr["peak_alloc_bytes"]["walk"] / MIB, "MB"),
        "spectral.decompose_calls_per_op": (ratio(c.get("decompose.calls", 0), ops), "1/op"),
        "spectral.held_mb": (c.get("decompose.held_max", 0) / MIB, "MB"),
        "spectral.peak_alloc_mb": (tr["peak_alloc_bytes"]["spectral"] / MIB, "MB"),
        "numtheory.recognize_calls": (recognize, "count"),
        "numtheory.recognized_ratio": (ratio(recognized, recognize), "1"),
        "numtheory.parity_calls": (c.get("integer_relation_parity.calls", 0), "count"),
        "sedentary.equality_time_calls": (equality, "count"),
        "sedentary.equality_hit_ratio": (ratio(c.get("equality_time_criterion.hits", 0),
                                               equality), "1"),
        "sedentary.certified_share": (ratio(stats["certified"], stats["verdicts"]), "1"),
        "cli.output_mb": (sum(r["bytes"] for r in recs) / MIB, "MB"),
        "trace.overhead_share": (ratio(traced - plain, plain), "1"),
    })
    return m


def dominant_layers(result: dict, ops, top: int = 5) -> list[dict]:
    """The largest traced ops with the layer holding most of their self time."""
    recs = sorted(result["records"], key=lambda r: -r["traced_latency"])[:top]
    out = []
    for r in recs:
        own = result["trace"]["op_self_s"].get(str(r["op"]), {})
        layer = max(own, key=own.get) if own else None
        share = own[layer] / r["traced_latency"] if layer else 0.0
        out.append({"op": ops[r["op"]].key, "traced_s": r["traced_latency"],
                    "top_layer": layer, "top_share": share})
    return out


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED,
                   help=f"input seed (default {DEFAULT_SEED}; hold-out seed {HOLDOUT_SEED})")
    p.add_argument("--seconds", type=float, default=30.0, help="op time to measure")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--min-ops", type=int, default=MIN_OPS, help=argparse.SUPPRESS)
    p.add_argument("--trace-blocks", type=int, default=TRACE_BLOCKS, help=argparse.SUPPRESS)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "sedwalk", "cli.py")):
        return _fail("src/sedwalk not found: run from the root of a sedwalk checkout")
    sys.path.insert(0, HERE)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; choose from "
                     + ", ".join(workloads.WORKLOADS))

    tag = f"{args.workload}-s{args.seed}"
    run_dir = os.path.join(OUT, f"{tag}-t{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    outputs = os.path.join(run_dir, "outputs")
    os.makedirs(outputs)
    ops = workloads.build_ops(args.workload, args.seed, os.path.join(OUT, "inputs", tag))
    ops_file = os.path.join(run_dir, "ops.json")
    with open(ops_file, "w", encoding="utf-8") as fh:
        json.dump({"warmup": workloads.WARMUP[args.workload], "ops": [o.argv for o in ops]}, fh)
    log = os.path.join(run_dir, "worker.log")
    result_file = os.path.join(run_dir, "worker.json")

    setup: list[float] = []
    if args.trace == 0:
        for _ in range(SETUP_SAMPLES - 1):
            with Worker(["--ops", ops_file, "--mode", "setup"], log) as w:
                if w.finish(timeout=60) != 0 or not w.ready:
                    return _fail(f"set-up worker failed; see {log}")
            setup.append(w.ready_s)
        mode = ["--mode", "timed", "--seconds", str(args.seconds),
                "--min-ops", str(args.min_ops)]
    else:
        per_block = len(ops) // workloads.BLOCKS
        mode = ["--mode", "trace", "--trace-ops", str(per_block * args.trace_blocks)]
    with Worker(["--ops", ops_file, "--result", result_file, "--outputs", outputs, *mode],
                log) as w:
        code = w.finish(timeout=WORKER_TIMEOUT_S)
    if code != 0 or not w.ready:
        return _fail(f"worker failed with code {code}; see {log}")
    setup.append(w.ready_s)
    with open(result_file, encoding="utf-8") as fh:
        result = json.load(fh)

    problems, stats = run_checks(ops, result, outputs, args.seed)
    attempted = len(result["records"])
    failed = sum(1 for r in result["records"] if r["op"] in problems)
    if args.trace == 0:
        metrics = e2e_metrics(result, setup)
        extra = {"error_rate": (failed / attempted, "1")}
        if stats["verdicts"]:
            extra["certified_share"] = (stats["certified"] / stats["verdicts"], "1")
    else:
        metrics = layer_metrics(result, stats)
        extra = {"error_rate": (failed / attempted, "1")}

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": environment(),
        "sedwalk": result["sedwalk_file"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "samples": attempted,
        "distinct_ops": len({r["op"] for r in result["records"]}),
        "setup_samples_s": setup,
        "checks": {"failed_ops": failed, **stats,
                   "problems": {ops[i].key: msgs for i, msgs in sorted(problems.items())}},
        "digests": {ops[r["op"]].key: r["digest"] for r in result["records"]},
    }
    if args.trace == 1:
        tr = result["trace"]
        report["trace_info"] = {k: tr[k] for k in ("absent_layers", "missing_hooks",
                                                   "probe_errors", "spans")}
        report["trace_info"]["spans_file"] = result["spans_file"]
        report["largest_ops"] = dominant_layers(result, ops)
    report_file = os.path.join(OUT, f"{tag}-t{args.trace}.json")
    with open(report_file, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)

    env = report["env"]
    print(f"env: nproc={env['nproc']} numpy={env['numpy']} blas={env['blas']} "
          f"blas_threads={env['blas_threads']} python={env['python']}")
    print(f"workload={args.workload} seed={args.seed} ops={attempted} "
          f"distinct={report['distinct_ops']} failed={failed}")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name} = {value} {unit}")
    for key, msgs in list(report["checks"]["problems"].items())[:5]:
        print(f"  check failed: {key}: {msgs[0]}")
    if args.trace == 1 and report["trace_info"]["absent_layers"]:
        print(f"  absent layers: {', '.join(report['trace_info']['absent_layers'])}")
    print(f"report: {report_file}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    # a terminated benchmark still stops its worker (see Worker.__exit__)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    sys.exit(main())
