"""Reduced-size self-test of the benchmark (not part of the repo's test suite).

Run from the root of a checkout::

    python3 perfbench/selftest.py

For each workload it makes one short untraced run and one short traced run,
then checks that every metric of ``BENCHMARK.json`` is printed with its unit,
that the final line has the agreed shape, and that the traced spans cover
every layer with consistent parent links.  It also checks that a renamed
hook target is reported as missing instead of crashing, and that the
benchmark refuses to run where the program's sources are absent.  Takes
about a minute; prints one PASS/FAIL line per check and exits 1 on failure.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
FAILURES: list[str] = []


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}" + (f": {detail}" if detail and not ok else ""))
    if not ok:
        FAILURES.append(name)


def run_bench(workload: str, trace: int, cwd: str = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "0.5", "--trace", str(trace), "--min-ops", "5", "--trace-blocks", "1"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def check_metrics(tag: str, proc, expected: list[dict], extra: dict[str, str]) -> dict | None:
    lines = proc.stdout.strip().splitlines()
    check(f"{tag} exits 0", proc.returncode == 0, proc.stderr[-400:])
    if proc.returncode != 0 or not lines:
        return None
    last = json.loads(lines[-1])
    check(f"{tag} final line keys", sorted(last) == ["attempted", "correct", "failed", "metrics"])
    check(f"{tag} outputs correct", last["correct"] is True and last["failed"] == 0,
          "\n".join(ln for ln in lines if "check failed" in ln))
    want = {m["name"]: m["unit"] for m in expected}
    got = {k: v["unit"] for k, v in last["metrics"].items()}
    check(f"{tag} metric names and units", got == want, f"{sorted(set(got) ^ set(want))}")
    for name, unit in {**want, **extra}.items():
        check(f"{tag} prints {name} [{unit}]",
              any(ln.startswith(f"  {name} = ") and ln.endswith(f" {unit}") for ln in lines))
    return last


def check_spans(path: str) -> set[str]:
    spans = [json.loads(ln) for ln in open(path, encoding="utf-8")]
    by_id = {s["id"]: s for s in spans}
    roots = [s for s in spans if s["parent"] is None]
    check(f"{os.path.basename(os.path.dirname(os.path.dirname(path)))} spans have parents",
          all(s["parent"] in by_id and by_id[s["parent"]]["op"] == s["op"]
              and by_id[s["parent"]]["start"] <= s["start"] <= s["end"]
              <= by_id[s["parent"]]["end"] for s in spans if s["parent"] is not None)
          and all(r["name"] == "main" and r["layer"] == "cli" for r in roots)
          and len(roots) == len({s["op"] for s in spans}))
    return {s["layer"] for s in spans}


def check_missing_hook() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import layertrace
    import sedwalk.cli as cli

    hooks = layertrace.SPAN_HOOKS
    layertrace.SPAN_HOOKS = hooks + (("sedwalk.cli", "renamed_away", "dsl"),
                                     ("sedwalk.nonexistent", "f", "dsl"))
    try:
        tracer = layertrace.Tracer()
        tracer.install(op_id=0)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                rc = cli.main(["analyze", "--graph", "CP(6)", "--format", "json"])
        finally:
            tracer.uninstall()
    finally:
        layertrace.SPAN_HOOKS = hooks
    rep = tracer.report()
    check("renamed hook reported, op unaffected", rc == 0
          and "sedwalk.cli.renamed_away" in rep["missing_hooks"]
          and "sedwalk.nonexistent.f" in rep["missing_hooks"] and rep["spans"] > 0)
    check("hooks removed after uninstall", cli.main.__module__ == "sedwalk.cli"
          and not hasattr(cli.main, "__wrapped__"))


def check_refuses_without_sources() -> None:
    bare = os.path.join(ROOT, "perfbench", "out", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "twin-families",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=120)
    check("refuses to run without src/", proc.returncode != 0 and "{" not in proc.stdout)
    shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    layers: set[str] = set()
    for wl in (w["name"] for w in bench["workloads"]):
        extra = {"error_rate": "1"}  # printed besides the gated metrics
        if wl != "spectral-large":
            extra["certified_share"] = "1"
        check_metrics(f"{wl} trace=0", run_bench(wl, 0), bench["end_to_end"], extra)
        proc = run_bench(wl, 1)
        if check_metrics(f"{wl} trace=1", proc, bench["per_layer"], {"error_rate": "1"}):
            spans = os.path.join(ROOT, "perfbench", "out", f"{wl}-s3-t1", "outputs",
                                 "spans.jsonl")
            layers |= check_spans(spans)
    import layertrace

    check("trace covers every layer", layers == set(layertrace.LAYERS),
          f"missing {sorted(set(layertrace.LAYERS) - layers)}")
    check_missing_hook()
    check_refuses_without_sources()
    print(f"{len(FAILURES)} failed" if FAILURES else "all passed")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
