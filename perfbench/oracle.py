"""Output checks against an independent oracle.

The oracle rebuilds each op's walk matrix from the benchmark's own graph
spec (:mod:`graphspec`, numpy only) and evaluates ``U(t) = exp(itM)`` with
``scipy.linalg.expm`` (dense, up to 64 vertices) or
``scipy.sparse.linalg.expm_multiply`` (one column, larger graphs).  Nothing
here imports the program.

:func:`check_op` returns a list of problems for one op's output; an empty
list means the output passed.  Family sweeps are checked afterwards by
:func:`check_families` against the spectral verdicts other ops reported for
the same graph, matrix and vertex.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from graphspec import adjacency, dsl, walk_matrix

TOL = 1e-6
SAMPLE_TIMES = 12
DENSE_MAX_N = 64


class _Walk:
    """``U(t)`` entries of one walk matrix, computed once per time."""

    def __init__(self, m: np.ndarray):
        self.m = m
        self.n = len(m)
        self._dense: dict[float, np.ndarray] = {}
        self._sparse = scipy.sparse.csc_matrix(m) if self.n > DENSE_MAX_N else None

    def matrix(self, t: float) -> np.ndarray:
        if t not in self._dense:
            self._dense[t] = scipy.linalg.expm(1j * t * self.m)
        return self._dense[t]

    def column(self, t: float, v: int) -> np.ndarray:
        """``U(t) e_v``."""
        if self._sparse is None:
            return self.matrix(t)[:, v]
        e = np.zeros(self.n, dtype=complex)
        e[v] = 1.0
        return scipy.sparse.linalg.expm_multiply(1j * t * self._sparse, e)

    def entry(self, t: float, u: int, v: int) -> complex:
        return complex(self.column(t, v)[u])


def _sample_times(rng: random.Random) -> list[float]:
    return sorted(rng.uniform(0.05, 40.0) for _ in range(SAMPLE_TIMES))


def _classification_entries(command: str, text: str) -> list[dict]:
    data = json.loads(text)
    if command == "analyze":
        return data["classification"]
    return data


def check_classification(op, text: str, rng: random.Random) -> tuple[list[str], list[dict]]:
    """Problems in a classify/analyze JSON output, plus its verdict entries."""
    try:
        entries = _classification_entries(op.command, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output: {exc}"], []
    problems = []
    if sorted(e.get("vertex") for e in entries) != sorted(op.vertices):
        problems.append("reported vertices differ from the requested ones")
        return problems, entries
    walk = _Walk(walk_matrix(adjacency(op.spec), op.matrix))
    times = _sample_times(rng)
    for e in entries:
        u = e["vertex"]
        c = e.get("constant")
        where = f"vertex {u}"
        if e.get("certified") and e["verdict"] == "sedentary" and c is not None:
            low = min(abs(walk.entry(t, u, u)) for t in times)
            if c > low + TOL:
                problems.append(f"{where}: certified constant {c} above sampled |U(t)_uu| {low}")
        if e.get("tight") and e.get("tightness_time") is not None and c is not None:
            at = abs(walk.entry(e["tightness_time"], u, u))
            if abs(at - c) > TOL:
                problems.append(f"{where}: tight constant {c} but |U(t)_uu|={at} at its time")
        if e["verdict"] == "pst":
            got = abs(walk.entry(e["pst_time"], e["partner"], u))
            if got < 1.0 - TOL:
                problems.append(f"{where}: PST to {e['partner']} reaches only {got}")
        if e["verdict"] == "not-sedentary" and e.get("certified"):
            for step in e.get("lemma_trail", []):
                if step.startswith("zero-at-minimum:t="):
                    at = abs(walk.entry(float(step.split("=", 1)[1]), u, u))
                    if at > TOL:
                        problems.append(f"{where}: claimed zero has |U(t)_uu|={at}")
    return problems, entries


def _spectrum_rows(fmt: str, text: str) -> dict[int, list[tuple[float, float]]]:
    rows: dict[int, list[tuple[float, float]]] = {}
    if fmt == "json":
        for item in json.loads(text):
            rows[item["vertex"]] = list(zip(item["values"], item["weights"]))
        return rows
    reader = csv.reader(io.StringIO(text))
    if next(reader) != ["vertex", "eigenvalue", "weight"]:
        raise ValueError("unexpected CSV header")
    for vertex, value, weight in reader:
        rows.setdefault(int(vertex), []).append((float(value), float(weight)))
    return rows


def check_spectrum(op, text: str, rng: random.Random) -> list[str]:
    fmt = op.argv[op.argv.index("--format") + 1]
    try:
        rows = _spectrum_rows(fmt, text)
    except (ValueError, KeyError, TypeError) as exc:
        return [f"unparsable output: {exc}"]
    if sorted(rows) != sorted(op.vertices):
        return ["reported vertices differ from the requested ones"]
    m = walk_matrix(adjacency(op.spec), op.matrix)
    eig = np.linalg.eigvalsh(m)
    scale = max(1.0, float(np.max(np.abs(eig))))
    problems = []
    for u, pairs in rows.items():
        vals, weights = np.array(pairs).T
        if abs(weights.sum() - 1.0) > TOL:
            problems.append(f"vertex {u}: weights sum to {weights.sum()}")
        at = np.clip(np.searchsorted(eig, vals), 1, len(eig) - 1)
        off = np.minimum(np.abs(eig[at - 1] - vals), np.abs(eig[at] - vals))
        if len(eig) == 1:
            off = np.abs(eig[0] - vals)
        if float(off.max()) > TOL * scale:
            problems.append(f"vertex {u}: {vals[int(off.argmax())]} is not an eigenvalue")
    walk = _Walk(m)
    t = rng.uniform(0.5, 10.0)
    for u in rng.sample(sorted(rows), min(3, len(rows))):
        vals = np.array([v for v, _ in rows[u]])
        weights = np.array([w for _, w in rows[u]])
        diag = complex(np.sum(weights * np.exp(1j * t * vals)))
        ref = walk.entry(t, u, u)
        if abs(diag - ref) > TOL:
            problems.append(f"vertex {u}: support gives U({t:.3f})_uu={diag}, expm {ref}")
    return problems


def check_series(op, text: str, rng: random.Random) -> list[str]:
    (v,) = op.vertices
    argv = op.argv
    tmax = float(argv[argv.index("--tmax") + 1])
    steps = int(argv[argv.index("--steps") + 1])
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["t", f"u{v}"]:
        return ["unexpected CSV header"]
    body = rows[1:]
    if len(body) != steps:
        return [f"{len(body)} rows for {steps} steps"]
    grid = np.linspace(0.0, tmax, steps)
    walk = _Walk(walk_matrix(adjacency(op.spec), op.matrix))
    problems = []
    for i in rng.sample(range(steps), 4):
        t, mag = float(body[i][0]), float(body[i][1])
        if abs(t - grid[i]) > 1e-9 * max(1.0, tmax):
            problems.append(f"row {i}: time {t}, expected {grid[i]}")
            continue
        ref = abs(walk.entry(grid[i], v, v))
        if abs(mag - ref) > TOL:
            problems.append(f"row {i}: |U(t)_vv|={mag}, expm {ref}")
    return problems


def check_op(op, text: str, seed: int) -> tuple[list[str], list[dict]]:
    """Problems in one op's output and, for classifying ops, its verdicts."""
    rng = random.Random(f"{seed}:{op.key}")
    if op.command in ("classify", "analyze"):
        return check_classification(op, text, rng)
    if op.command == "spectrum":
        return check_spectrum(op, text, rng), []
    if op.command == "series":
        return check_series(op, text, rng), []
    if op.command == "families":
        return [], []  # checked by check_families once every verdict is known
    return [f"no check for command {op.command!r}"], []


# -- family sweeps ------------------------------------------------------------------

_FAMILY_FIELDS = ("graph", "vertex", "case", "verdict", "constant", "bound", "time",
                  "tight", "sharp", "certified")


_FLAGS = {"yes": True, "true": True, "no": False, "false": False, "-": None, "": None}


def _number(cell: str) -> float | None:
    if cell in ("", "-"):
        return None
    return float(cell.split(" (")[0])


def family_records(op, text: str) -> list[dict]:
    fmt = op.argv[op.argv.index("--format") + 1]
    if fmt == "json":
        return json.loads(text)
    if fmt == "csv":
        rows = list(csv.reader(io.StringIO(text)))
        body = rows[1:]
    else:
        # table: split on runs of two spaces; cells never contain them
        lines = [ln for ln in text.splitlines() if ln.strip()]
        body = [[c.strip() for c in ln.split("  ") if c.strip()] for ln in lines[1:]]
        rows = [lines[0].split()]
    if rows[0][: len(_FAMILY_FIELDS)] != list(_FAMILY_FIELDS):
        raise ValueError("unexpected header")
    out = []
    for cells in body:
        if len(cells) != len(_FAMILY_FIELDS):
            raise ValueError(f"row with {len(cells)} cells")
        rec = dict(zip(_FAMILY_FIELDS, cells))
        rec["vertex"] = int(rec["vertex"])
        for key in ("constant", "bound", "time"):
            rec[key] = _number(rec[key])
        for key in ("tight", "sharp", "certified"):
            rec[key] = _FLAGS[rec[key]]
        out.append(rec)
    return out


def spectral_verdicts(op, entries: list[dict]) -> dict:
    """Verdict entries of a classifying op, keyed for the family cross-check."""
    if op.spec is None or op.spec[0] == "edges":
        return {}
    source = dsl(op.spec)
    return {(source, op.matrix, e["vertex"]): e for e in entries}


# Equal verdicts agree; so does a family "not-sedentary" (the diagonal reaches
# zero) with a spectral "pst", which implies it.
_AGREE = {(v, v) for v in ("sedentary", "not-sedentary", "pst", "pgst", "undetermined")}
_AGREE.add(("not-sedentary", "pst"))


def _constants_agree(where: str, fam: dict, spec: dict) -> list[str]:
    """Tight constants must be equal; a constant that is only a floor (not
    tight) must not exceed the other side's attained infimum."""
    fc, sc = fam["constant"], spec.get("constant")
    if fc is None or sc is None:
        return []
    f_tight, s_tight = fam["tight"] is True, spec.get("tight") is True
    if f_tight and s_tight:
        ok = abs(fc - sc) <= TOL
    elif s_tight:
        ok = fc <= sc + TOL
    elif f_tight:
        ok = sc <= fc + TOL
    else:
        ok = True
    return [] if ok else [f"{where}: family constant {fc}, spectral {sc}"]


def check_families(op, text: str, verdicts: dict) -> tuple[list[str], int]:
    """Disagreements between a sweep and the spectral verdicts, and rows compared."""
    try:
        records = family_records(op, text)
    except (ValueError, KeyError, IndexError) as exc:
        return [f"unparsable output: {exc}"], 0
    problems = []
    compared = 0
    for rec in records:
        e = verdicts.get((rec["graph"], op.matrix, rec["vertex"]))
        if e is None or rec["verdict"] == "undetermined":  # no closed form applies
            continue
        compared += 1
        where = f"{rec['graph']} vertex {rec['vertex']}"
        if (rec["verdict"], e["verdict"]) not in _AGREE:
            problems.append(f"{where}: family says {rec['verdict']}, spectral {e['verdict']}")
            continue
        problems += _constants_agree(where, rec, e)
        if rec["verdict"] == "pst" and not math.isclose(rec["time"], e["pst_time"], abs_tol=TOL):
            problems.append(f"{where}: family PST time {rec['time']}, spectral {e['pst_time']}")
    return problems, compared
