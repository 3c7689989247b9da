"""Benchmark worker: runs CLI ops in one process, in a closed loop.

Started by ``run.py`` from the root of a checkout; it imports ``sedwalk`` from
that checkout's ``src/``.  Modes:

* ``setup``: import ``sedwalk.cli``, run the warm-up op, print ``READY`` and
  exit.  The parent times this from process start to ``READY``.
* ``timed``: after the same set-up, run ops one after another (the next
  starts when the previous returns) until the summed op time reaches
  ``--seconds`` and at least ``--min-ops`` ops ran, or 120 s have passed.
* ``trace``: run the first ``--trace-ops`` ops twice each, untraced and
  traced (alternating which goes first), with spans recorded from hooks
  around the layers' public functions; then once more, untimed, for the
  peak allocations of the walk and spectral layers.

Every op's output is hashed; the first output of each op (and any later one
that differs) is saved for the output checks, which the parent runs after
this process has ended.  Results go to ``--result`` as JSON.
"""

from __future__ import annotations

import contextlib
import io
import os
import sys
import time

ROOT = os.getcwd()
sys.path.insert(0, os.path.join(ROOT, "src"))

MAX_WALL_S = 120.0  # a timed run starts no op after this, however few ran


def _run_op(cli, argv):
    """(latency, exit code or None, error text, output bytes) of one op."""
    out, err = io.StringIO(), io.StringIO()
    error = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(list(argv))
    except SystemExit as exc:  # argparse rejects its input this way
        rc = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # an op that raises is a failed op, not a crash
        rc, error = None, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if error is None and rc != 0:
        error = err.getvalue().strip()[-500:]
    return elapsed, rc, error, out.getvalue().encode("utf-8")


def main() -> int:
    import argparse

    p = argparse.ArgumentParser()
    p.add_argument("--ops", required=True)
    p.add_argument("--mode", choices=("setup", "timed", "trace"), required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--min-ops", type=int, default=100)
    p.add_argument("--trace-ops", type=int, default=0)
    p.add_argument("--result")
    p.add_argument("--outputs")
    args = p.parse_args()

    import json

    with open(args.ops, encoding="utf-8") as fh:
        spec = json.load(fh)

    import sedwalk.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        print(f"sedwalk imported from {cli.__file__}, not from this checkout", file=sys.stderr)
        return 2
    _, rc, error, _ = _run_op(cli, spec["warmup"])
    if rc != 0:
        print(f"warm-up op failed: {error}", file=sys.stderr)
        return 2
    print("READY", flush=True)
    if args.mode == "setup":
        return 0

    import hashlib
    import resource

    ops = [tuple(a) for a in spec["ops"]]
    os.makedirs(args.outputs, exist_ok=True)
    first_digest: dict[int, str] = {}
    saved: list[dict] = []

    def keep(idx: int, count: int, data: bytes) -> str:
        """Digest of an output; saves it when it is new for this op."""
        digest = hashlib.sha256(data).hexdigest()
        if first_digest.get(idx) == digest:
            return digest
        name = f"{idx:05d}-{count}.out"
        with open(os.path.join(args.outputs, name), "wb") as fh:
            fh.write(data)
        first_digest.setdefault(idx, digest)
        saved.append({"op": idx, "digest": digest, "file": name})
        return digest

    records = []
    result: dict = {"mode": args.mode}
    if args.mode == "timed":
        busy = 0.0
        count = 0
        loop_start = time.perf_counter()
        while count < args.min_ops or busy < args.seconds:
            if time.perf_counter() - loop_start > MAX_WALL_S:
                break
            idx = count % len(ops)
            elapsed, rc, error, data = _run_op(cli, ops[idx])
            busy += elapsed
            records.append({"op": idx, "latency": elapsed, "rc": rc, "error": error,
                            "bytes": len(data), "digest": keep(idx, count, data)})
            count += 1
        result["busy_s"] = busy
    else:
        import layertrace

        tracer = layertrace.Tracer()
        for idx in range(min(args.trace_ops, len(ops))):
            pair = {}
            for traced in ((False, True) if idx % 2 == 0 else (True, False)):
                if traced:
                    tracer.install(op_id=idx)
                try:
                    elapsed, rc, error, data = _run_op(cli, ops[idx])
                finally:
                    if traced:
                        tracer.uninstall()
                pair["traced" if traced else "plain"] = (elapsed, rc, error, data)
            tracer.install(op_id=idx, memory=True)
            try:
                memory_run = _run_op(cli, ops[idx])
            finally:
                tracer.uninstall()
            plain, traced_run = pair["plain"], pair["traced"]
            records.append({"op": idx, "latency": plain[0], "traced_latency": traced_run[0],
                            "rc": plain[1], "error": plain[2], "bytes": len(plain[3]),
                            "digest": keep(idx, 3 * idx, plain[3]),
                            "traced_rc": traced_run[1],
                            "traced_digest": keep(idx, 3 * idx + 1, traced_run[3]),
                            "memory_digest": keep(idx, 3 * idx + 2, memory_run[3])})
        result["trace"] = tracer.report()
        spans_path = os.path.join(args.outputs, "spans.jsonl")
        tracer.write_spans(spans_path)
        result["spans_file"] = spans_path

    result["records"] = records
    result["saved"] = saved
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["sedwalk_file"] = os.path.relpath(cli.__file__, ROOT)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
