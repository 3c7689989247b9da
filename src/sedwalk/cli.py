"""Command-line front end: build a graph, analyze it, print reports.

Subcommands:

* ``analyze``   graph summary, twin sets and the classification table
* ``classify``  verdicts for selected vertices (table, JSON certificates, CSV)
* ``series``    CSV time series of the diagonal magnitudes |U(t)_{u,u}|
* ``families``  closed-form verdict sweeps for named families
* ``twins``     twin sets with their loop/pair weights and eigenvalue
* ``spectrum``  eigenvalue support of selected vertices

All numbers are printed with 12 significant digits so identical commands
produce byte-identical output.  Times appear in radians and, when they are a
small rational multiple of pi, annotated like ``1.5707963268 (pi/2)``.

Exit status: 0 on success (an undetermined verdict is still a success) and 2
for unusable input (expression, file or flag values, a graph too large for
memory, or a number beyond the float range).  A graph is its weight matrix,
so every spelling of one matrix (DSL expression or edge list) prints the
same output.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from fractions import Fraction
from itertools import chain
from operator import itemgetter
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .dsl import parse_graph
from .families import (
    FamilyVerdict,
    ThresholdSpec,
    complete_product_verdict,
    multipartite_adjacency_verdict,
    multipartite_laplacian_verdict,
    threshold_vertex_verdict,
)
from .graphs import MatrixKind, WeightedGraph, _check_order, from_edge_list_text
from .sedentary import VertexClassification, classify_all
from .spectral import decompose
from .twins import TwinSet, find_twin_sets
from .walk import WalkEvaluator, _check_grid, _check_series

__all__ = ["main", "build_parser"]


# -- formatting ------------------------------------------------------------


def _num(x: float) -> str:
    return f"{float(x):.12g}"


def _pi_note(t: float) -> str | None:
    """Render t as 'p*pi/q' when t/pi is (very nearly) a small rational."""
    if t == 0.0 or not math.isfinite(t):
        return None
    r = Fraction(t / math.pi).limit_denominator(64)
    if r == 0 or abs(t - float(r) * math.pi) > 1e-9 * max(1.0, abs(t)):
        return None
    p, q = r.numerator, r.denominator
    head = "pi" if p == 1 else ("-pi" if p == -1 else f"{p}*pi")
    return head if q == 1 else f"{head}/{q}"


def _time_cell(t: float | None) -> str:
    if t is None:
        return "-"
    note = _pi_note(t)
    return f"{_num(t)} ({note})" if note else _num(t)


def _cell(x: object) -> str:
    """Table cell rendering: '-' for None, yes/no for booleans, a list's
    cells joined by ',' ('-' when empty)."""
    if x is None:
        return "-"
    if isinstance(x, list):
        return ",".join(map(_cell, x)) if x else "-"
    if isinstance(x, bool):
        return "yes" if x else "no"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return _num(x)
    return str(x)


def _csv_val(x: object) -> str:
    if x is None:
        return ""
    if isinstance(x, list):
        return "|".join(map(_csv_val, x))
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, float):
        return _num(x)
    return str(x)


# The stdlib encoder's string quoting (ensure_ascii); it raises TypeError on a
# key that is not a str, where json.dumps would coerce it.
_json_str = json.encoder.encode_basestring_ascii


# How json.dumps writes the values that %-formatting prints as nan and inf.
_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_num(x: float) -> str:
    """``json.dumps(float(f"{x:.12g}"))`` without the round trip.

    Without an exponent, s = f"{x:.12g}" holds at most 12 significant digits,
    so it is the shortest decimal of float(s) (two such decimals lie further
    apart than the spacing of doubles) and lies where repr is positional;
    repr differs only by the ``.0`` of an integral value."""
    s = f"{x:.12g}"
    if "e" in s:
        return float.__repr__(float(s))  # what json.dumps writes for a finite float
    if "n" in s:
        return _JSON_NONFINITE[s]
    return s if "." in s else s + ".0"


def _pct_tokens(values: Sequence[float]) -> list[str]:
    """``[f"{v:.12g}" for v in values]`` with one ``%``."""
    return (",".join(["%.12g"] * len(values)) % tuple(values)).split(",")


def _json_tokens(values: Sequence[float]) -> list[str]:
    """``[_json_num(v) for v in values]`` with one ``%`` for the whole list.

    A ``%.12g`` token is already what :func:`_json_num` writes when it has a
    point and no exponent, or a negative exponent other than ``e-3xx``.  Such
    a token holds at most 12 significant digits, so it is the shortest
    decimal of the double it reads back as, which ``repr`` prints; and both
    ``%g`` and ``repr`` switch to exponent form below 1e-4.  Subnormal
    doubles break the first step (``%.12g`` of 5e-324 is
    ``4.94065645841e-324``), so every ``e-3xx`` token is rewritten.  The
    rewritten tokens (those and the integral, ``e+``, ``nan`` and ``inf``
    ones) go through ``_json_num(float(token))``, which is exact: the token
    reads back to a float that formats to the same token."""
    text = ",".join(["%.12g"] * len(values)) % tuple(values)
    tokens = text.split(",")
    if text.count(".") == len(values) and "e+" not in text and "e-3" not in text:
        return tokens
    return [
        tok
        if ("." in tok and "e" not in tok) or ("e-" in tok and tok[-5:-2] != "e-3")
        else _json_num(float(tok))
        for tok in tokens
    ]


# 10**k for k = 0 ... 111 as correctly rounded doubles, the scales of
# :func:`_class_keys`
_POW10 = np.array([float(f"1e{k}") for k in range(112)])
# values that :func:`_value_tokens` takes at a time; each chunk's arrays are
# small, and a block-wide sort raised the peak resident set
_TOKEN_CHUNK = 1 << 13


def _class_keys(x: np.ndarray) -> np.ndarray:
    """A class key per value of the 1-D float64 array ``x``: values with one
    key have the same 12-digit rounding, so the same ``%.12g`` and
    :func:`_json_num` tokens.

    For 1e-99 <= |x| < 1e11 let e = floor(log10 |x|), corrected once so that
    m = |x| 10^(11 - e) lies in [1e11, 1e12).  The rounded power and the
    product put the computed m within 2 units of 2^-53 (relative) of the
    exact one, under 2.3e-4; so when m is further than 1e-3 from a
    half-integer, the 12-digit rounding of x is sign(x) rint(m) 10^(e - 11),
    and the key packs (sign, e, rint(m)) into a non-negative int64.  Every
    other value (a zero, a subnormal or other value below 1e-99, one from
    1e11 up, nan, inf, a near-tie, or m outside [1e11, 1e12)) is a class of
    its own, keyed -1 minus its position."""
    a = np.abs(x)
    ok = (a >= 1e-99) & (a < 1e11)
    a = np.where(ok, a, 1.0)
    e = np.floor(np.log10(a)).astype(np.int64)
    m = a * _POW10[11 - e]
    e += m >= 1e12
    e -= m < 1e11
    m = a * _POW10[11 - e]
    r = np.rint(m)
    ok &= (m >= 1e11) & (m < 1e12) & (np.abs(m - r) < 0.499)
    # rint(m) <= 1e12 < 2^40 and e + 128 < 2^8
    packed = ((x < 0) << 48) + ((e + 128) << 40) + r.astype(np.int64)
    return np.where(ok, packed, -1 - np.arange(len(x)))


def _value_tokens(x: np.ndarray, fmt: Callable[[Sequence[float]], list[str]]) -> list[str]:
    """``fmt(x)``, formatting one member of each class of :func:`_class_keys`
    per chunk of ``_TOKEN_CHUNK`` values and reusing its token for the rest."""
    out: list[str] = []
    for lo in range(0, len(x), _TOKEN_CHUNK):
        part = x[lo : lo + _TOKEN_CHUNK]
        classes, inv = np.unique(_class_keys(part), return_inverse=True)
        members = np.empty(len(classes))
        members[inv] = part
        out += np.array(fmt(members.tolist()), dtype=object)[inv].tolist()
    return out


class _Numbers(list):
    """A list of JSON numbers already formatted, as their tokens;
    :func:`_write_json` lays it out as a list of numbers."""


def _write_json(obj: object, pad: str, out: list[str]) -> None:
    """Append ``obj`` in the ``indent=2`` layout, nested at ``pad`` (a newline
    and spaces), to ``out`` piece by piece; no nested value is copied into
    its parent's text."""
    if isinstance(obj, float):
        out.append(_json_num(obj))
    elif isinstance(obj, str):
        out.append(_json_str(obj))
    elif isinstance(obj, (list, tuple)):
        inner = pad + "  "
        if not obj:
            out.append("[]")
        elif type(obj) is _Numbers:
            out += ("[", inner, ("," + inner).join(obj), pad, "]")
        else:
            lead = "[" + inner
            for v in obj:
                out.append(lead)
                _write_json(v, inner, out)
                lead = "," + inner
            out.append(pad + "]")
    elif isinstance(obj, dict):
        inner = pad + "  "
        if not obj:
            out.append("{}")
        else:
            lead = "{" + inner
            for k, v in obj.items():
                out.append(f"{lead}{_json_str(k)}: ")
                _write_json(v, inner, out)
                lead = "," + inner
            out.append(pad + "}")
    elif obj is None:
        out.append("null")
    elif isinstance(obj, bool):
        out.append("true" if obj else "false")
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    else:
        out.append(json.dumps(obj))  # raises TypeError on what JSON cannot hold


def _dump_json(obj: object) -> str:
    """``obj`` as ``json.dumps(indent=2)`` lays it out, every float rounded to
    12 significant digits and printed as the shortest decimal of the rounded
    value; one pass, no rounded copy of the tree, and one join of the pieces."""
    out: list[str] = []
    _write_json(obj, "\n", out)
    out.append("\n")
    return "".join(out)


def _stream_json_list(items: Iterable[object]) -> Iterator[str]:
    """:func:`_dump_json` of the list of ``items``, one yielded piece per
    item, so only one item's text is held."""
    lead = "[\n  "
    for item in items:
        out = [lead]
        _write_json(item, "\n  ", out)
        lead = ",\n  "
        yield "".join(out)
    yield "[]\n" if lead == "[\n  " else "\n]\n"


def _render_table(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    widths = [max(map(len, column)) for column in zip(headers, *rows)]
    template = "  ".join(f"%-{w}s" for w in widths)
    return "\n".join([(template % tuple(row)).rstrip() for row in chain((headers,), rows)]) + "\n"


def _render_csv(headers: Sequence[str], rows: Sequence[Sequence[str]]) -> str:
    sio = io.StringIO()
    writer = csv.writer(sio, lineterminator="\n")
    writer.writerow(headers)
    writer.writerows(rows)
    return sio.getvalue()


# A report column: its header and the getter of its value from a record.
Columns = Sequence[tuple[str, Callable[[dict], object]]]


def _keys(*keys: str) -> Columns:
    """Columns that print the record fields of these names under them."""
    return [(key, itemgetter(key)) for key in keys]


def _render_records(
    records: list[dict], fmt: str, table: Columns, csv_columns: Columns | None = None
) -> str:
    """``records`` as the JSON list, or as a table or CSV with a row per
    record and the given columns over it (CSV takes ``table`` when it has no
    columns of its own).  A table prints its ``time`` column with the pi note
    of :func:`_time_cell`."""
    if fmt == "json":
        return _dump_json(records)
    if fmt == "csv":
        columns = csv_columns or table
        rows = [[_csv_val(get(rec)) for _, get in columns] for rec in records]
        return _render_csv([head for head, _ in columns], rows)
    cells = [(_time_cell if head == "time" else _cell, get) for head, get in table]
    rows = [[cell(get(rec)) for cell, get in cells] for rec in records]
    return _render_table([head for head, _ in table], rows)


# Cells of a numeric table formatted by one ``%``, rounded to whole rows.
_CSV_BLOCK_CELLS = 1 << 15


def _render_rows(head: str, line: str, blocks: Iterable[np.ndarray]) -> Iterator[str]:
    """``head``, then each 2-D block of cells with every row formatted by
    ``line`` (one ``%`` directive per column, newline ended), one ``%`` and
    one yielded piece per block, so only one block's text is held.

    With ``head`` a CSV header and cells that are numbers or number text,
    the bytes equal :func:`_render_csv` of the formatted cells: such a cell
    never holds a comma, a quote or a newline, so ``csv.writer`` quotes
    none of them."""
    yield head
    for block in blocks:
        yield (line * len(block)) % tuple(block.ravel().tolist())


# -- shared plumbing --------------------------------------------------------


def _load_graph(args: argparse.Namespace) -> tuple[WeightedGraph, str]:
    if args.graph is not None:
        return parse_graph(args.graph), args.graph
    with open(args.file, "r", encoding="utf-8") as fh:
        text = fh.read()
    return from_edge_list_text(text), args.file


def _select_vertices(args: argparse.Namespace, n: int) -> list[int]:
    v = getattr(args, "vertex", None)
    if v is None:
        return list(range(n))
    if not 0 <= v < n:
        raise ValueError(f"vertex {v} out of range for a graph on {n} vertices")
    return [v]


def _twin_record(g: WeightedGraph, kind: MatrixKind, ts: TwinSet) -> dict:
    theta = float(ts.theta(g, kind))
    if not math.isfinite(theta):
        raise OverflowError(f"the {kind.short_name} eigenvalue of twin set {list(ts.members)} is not finite")
    return {
        "members": list(ts.members),
        "omega": float(ts.omega),
        "eta": float(ts.eta),
        "theta": theta,
    }


# -- classification rendering ----------------------------------------------

_CLASSIFY_TABLE = (
    *_keys("vertex", "verdict", "constant", "tight", "sharp"),
    ("time", lambda rec: rec["pst_time"] if rec["verdict"] == "pst" else rec["tightness_time"]),
    *_keys("partner", "certified"),
    ("trail", itemgetter("lemma_trail")),
)
_CLASSIFY_CSV = (
    *_keys("vertex"),
    ("matrix", itemgetter("matrix_kind")),
    *_keys("verdict", "constant", "tight", "sharp", "tightness_time", "partner", "pst_time", "certified"),
    ("trail", itemgetter("lemma_trail")),
)


# -- subcommands -------------------------------------------------------------


def _classify(
    args: argparse.Namespace,
) -> tuple[WeightedGraph, str, MatrixKind, list[VertexClassification]]:
    """Classify the selected vertices.  ``--steps`` and ``--tmax`` are checked
    before the graph is built."""
    _check_grid(args.tmax, args.steps)
    g, src = _load_graph(args)
    kind = MatrixKind.parse(args.matrix)
    vertices = _select_vertices(args, g.n)
    results = classify_all(g, kind, vertices=vertices, grid_points=args.steps, horizon=args.tmax)
    return g, src, kind, results


def cmd_classify(args: argparse.Namespace) -> str:
    *_, results = _classify(args)
    records = [c.to_json_dict() for c in results]
    return _render_records(records, args.format, _CLASSIFY_TABLE, _CLASSIFY_CSV)


def cmd_analyze(args: argparse.Namespace) -> str:
    g, src, kind, results = _classify(args)
    # classify_all has found the graph's twin partition; this reads it back
    twins = [_twin_record(g, kind, ts) for ts in find_twin_sets(g)]
    row_sum = g.is_weighted_regular()
    records = [c.to_json_dict() for c in results]
    if args.format == "json":
        return _dump_json(
            {
                "schema": 1,
                "graph": {
                    "source": src,
                    "vertices": g.n,
                    "edges": g.edge_count,
                    "matrix_kind": kind.short_name,
                    "regular_row_sum": None if row_sum is None else float(row_sum),
                },
                "twin_sets": twins,
                "classification": records,
            }
        )
    rows = _render_records(records, args.format, _CLASSIFY_TABLE, _CLASSIFY_CSV)
    if args.format == "csv":
        return rows
    head = [
        f"graph: {src}",
        f"vertices: {g.n}  edges: {g.edge_count}  matrix: {kind.short_name}",
        "regular row sum: " + ("-" if row_sum is None else _num(float(row_sum))),
    ]
    for rec in twins:
        head.append(
            f"twin set {{{_cell(rec['members'])}}}  omega={_num(rec['omega'])}"
            f"  eta={_num(rec['eta'])}  theta={_num(rec['theta'])}"
        )
    if not twins:
        head.append("twin sets: none")
    return "\n".join(head) + "\n\n" + rows


def cmd_series(args: argparse.Namespace) -> Iterator[str]:
    """The cell cap, ``--steps`` and ``--tmax`` are checked before the graph is
    decomposed."""
    g, _src = _load_graph(args)
    kind = MatrixKind.parse(args.matrix)
    t_max = args.tmax if args.tmax is not None else 2.0 * math.pi
    steps = args.steps if args.steps is not None else 1001
    verts = _select_vertices(args, g.n)
    _check_series(t_max, steps, len(verts))
    table = WalkEvaluator(decompose(g, kind)).diagonal_series(verts, t_max, steps)
    headers = ["t"] + [f"u{u}" for u in verts]
    rows = max(1, _CSV_BLOCK_CELLS // len(headers))
    return _render_rows(
        _render_csv(headers, ()),
        ",".join(["%.12g"] * len(headers)) + "\n",
        (table[lo : lo + rows] for lo in range(0, steps, rows)),
    )


def cmd_twins(args: argparse.Namespace) -> str:
    g, _src = _load_graph(args)
    kind = MatrixKind.parse(args.matrix)
    twins = [_twin_record(g, kind, ts) for ts in find_twin_sets(g)]
    return _render_records(twins, args.format, _keys("members", "omega", "eta", "theta"))


def _spectrum_cells(
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]],
    vertex_text: Callable[[int], str],
    value_text: np.ndarray,
) -> Iterator[np.ndarray]:
    """Per support block, the rows (vertex text, eigenvalue text, weight
    text) of its support entries, vertex by vertex, as an object array."""
    for rows, weights, mask in blocks:
        at, cls = np.nonzero(mask)
        cells = np.empty((len(at), 3), dtype=object)
        cells[:, 0] = np.array([vertex_text(u) for u in rows.tolist()], dtype=object)[at]
        cells[:, 1] = value_text[cls]
        cells[:, 2] = _value_tokens(weights[mask], _pct_tokens)
        yield cells


def _spectrum_records(
    blocks: Iterable[tuple[np.ndarray, np.ndarray, np.ndarray]], value_text: np.ndarray
) -> Iterator[dict]:
    """The JSON record of each vertex, one support block at a time."""
    for rows, weights, mask in blocks:
        value_list = value_text[np.nonzero(mask)[1]].tolist()
        weight_list = _value_tokens(weights[mask], _json_tokens)
        ends = np.cumsum(mask.sum(axis=1)).tolist()
        for u, a, b in zip(rows.tolist(), [0] + ends, ends):
            yield {
                "vertex": u,
                "values": _Numbers(value_list[a:b]),
                "weights": _Numbers(weight_list[a:b]),
            }


def cmd_spectrum(args: argparse.Namespace) -> Iterator[str]:
    """Each eigenvalue is formatted once and its text reused for every vertex,
    and weights by :func:`_value_tokens`.  The output is streamed, computed
    one block of :meth:`SpectralDecomposition.support_blocks` at a time."""
    g, _src = _load_graph(args)
    kind = MatrixKind.parse(args.matrix)
    dec = decompose(g, kind)
    verts = _select_vertices(args, g.n)
    values = dec.eigenvalues.tolist()
    if args.format == "json":
        text = np.array(_json_tokens(values), dtype=object)
        return _stream_json_list(_spectrum_records(dec.support_blocks(verts), text))
    text = np.array(_pct_tokens(values), dtype=object)
    if args.format == "csv":
        head = _render_csv(("vertex", "eigenvalue", "weight"), ())
        return _render_rows(
            head, "%s,%s,%s\n", _spectrum_cells(dec.support_blocks(verts), str, text)
        )
    # a table's first two columns are as wide as their widest cell, so a
    # first pass finds the vertices and eigenvalues that have rows; the last
    # column is left-aligned at the end of the line, so it needs no padding
    shown = np.zeros(dec.k, dtype=bool)
    vertex_width = len("vertex")
    for rows, _weights, mask in dec.support_blocks(verts):
        shown |= mask.any(axis=0)
        vertex_width = max([vertex_width] + [len(str(u)) for u in rows[mask.any(axis=1)].tolist()])
    value_width = max([len("eigenvalue")] + [len(t) for t in text[shown]])
    head = f"{'vertex':<{vertex_width}}  {'eigenvalue':<{value_width}}  weight\n"
    return _render_rows(
        head,
        "%s  %s  %s\n",
        _spectrum_cells(
            dec.support_blocks(verts),
            lambda u: f"{u:<{vertex_width}}",
            np.array([f"{t:<{value_width}}" for t in text], dtype=object),
        ),
    )


# -- family sweeps ------------------------------------------------------------

def _family_record(graph: str, vertex: int, fv: FamilyVerdict) -> dict:
    return {
        "graph": graph,
        "vertex": vertex,
        "case": fv.case,
        "verdict": fv.verdict.value,
        "constant": fv.constant,
        "bound": fv.bound,
        "time": fv.time,
        "tight": fv.tight,
        "sharp": fv.sharp,
        "certified": fv.certified,
    }


def _family_rows(args: argparse.Namespace, kind: MatrixKind) -> list[dict]:
    """The records of a sweep, refused like a graph expression when its largest
    graph has more than ``MAX_VERTICES`` vertices."""
    fam = args.family
    if fam == "threshold":
        if not args.cells:
            raise ValueError("--cells is required for the threshold family")
        if kind.label != "laplacian":
            raise ValueError("threshold verdicts are defined for the Laplacian walk (use --matrix L)")
        try:
            cells = tuple(int(tok) for tok in args.cells.split(","))
        except ValueError as exc:
            raise ValueError(f"bad --cells value {args.cells!r}") from exc
        _check_order(sum(cells))
        starts_empty = args.first_cell != "K"
        spec = ThresholdSpec(cells, starts_empty)
        name = f"Gamma({','.join(str(c) for c in cells)}" + ("" if starts_empty else ";start=K") + ")"
        out = []
        start = 0
        for j, c in enumerate(cells, start=1):
            fv = threshold_vertex_verdict(spec, j)
            rec = _family_record(name, start, fv)
            rec["cell"] = j
            out.append(rec)
            start += c
        return out
    if args.start is None or args.stop is None:
        raise ValueError("--start and --stop are required for this family")
    if args.start > args.stop:
        raise ValueError("--start must not exceed --stop")
    sizes = range(args.start, args.stop + 1)
    verdict_fn = multipartite_laplacian_verdict if kind.label == "laplacian" else multipartite_adjacency_verdict
    if fam == "cp":
        if args.start < 1:
            raise ValueError("cp sweep starts at k=1")
        _check_order(2 * args.stop)
        return [_family_record(f"CP({2 * k})", 0, verdict_fn([2] * k, 0)) for k in sizes]
    if fam == "clique-minus-edge":
        if args.start < 3:
            raise ValueError("clique-minus-edge sweep starts at n=3")
        _check_order(args.stop)
        out = []
        for n in sizes:
            parts = [2] + [1] * (n - 2)
            name = "KM(" + ",".join(str(p) for p in parts) + ")"
            out.append(_family_record(name, 0, verdict_fn(parts, 0)))
            out.append(_family_record(name, 2, verdict_fn(parts, 1)))
        return out
    if fam == "product":
        if args.start < 2:
            raise ValueError("product sweep starts at factor size 2")
        _check_order(args.stop**2)
        return [
            _family_record(f"dprod(K({m}),K({n}))", 0, complete_product_verdict([m, n]))
            for m in sizes
            for n in range(m, args.stop + 1)
        ]
    raise ValueError(f"unknown family {fam!r}")  # pragma: no cover - argparse restricts choices


def cmd_families(args: argparse.Namespace) -> str:
    kind = MatrixKind.parse(args.matrix)
    if kind.label == "generalized":
        raise ValueError("family sweeps support matrix kinds A and L")
    columns = _keys(
        "graph", "vertex", "case", "verdict", "constant", "bound", "time", "tight", "sharp", "certified"
    )
    return _render_records(_family_rows(args, kind), args.format, columns)


# -- argument parsing ---------------------------------------------------------


def _add_graph_source(sp: argparse.ArgumentParser) -> None:
    grp = sp.add_mutually_exclusive_group(required=True)
    grp.add_argument("--graph", help="graph expression, e.g. 'join(O(2),K(6))'")
    grp.add_argument("--file", help="edge-list file: 'n <count>' header then 'u v w' lines")


def _add_matrix(sp: argparse.ArgumentParser) -> None:
    sp.add_argument(
        "--matrix",
        default="A",
        metavar="{A,L,Mq:<q>}",
        help="walk matrix: adjacency A, Laplacian L, or generalized Mq:<q> (default A)",
    )


def _add_vertex_selector(sp: argparse.ArgumentParser) -> None:
    grp = sp.add_mutually_exclusive_group()
    grp.add_argument("--vertex", type=int, help="single vertex to report on")
    grp.add_argument(
        "--all-vertices",
        action="store_true",
        help="report on every vertex (the default)",
    )


def _add_output(sp: argparse.ArgumentParser, formats: tuple[str, ...], default: str) -> None:
    sp.add_argument("--format", choices=formats, default=default, help=f"output format (default {default})")
    sp.add_argument("--out", help="write output to this file instead of stdout")


def _add_numeric_knobs(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--tmax", type=float, help="time horizon for scans/series")
    sp.add_argument("--steps", type=int, help="grid points of series and of bounded-horizon scans")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sedwalk",
        description="Classify continuous-time quantum walk vertices: sedentary, PST, PGST.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("classify", help="verdicts for selected vertices")
    _add_graph_source(sp)
    _add_matrix(sp)
    _add_vertex_selector(sp)
    _add_numeric_knobs(sp)
    _add_output(sp, ("table", "json", "csv"), "table")

    sp = sub.add_parser("analyze", help="summary, twins and classification in one report")
    _add_graph_source(sp)
    _add_matrix(sp)
    _add_vertex_selector(sp)
    _add_numeric_knobs(sp)
    _add_output(sp, ("table", "json", "csv"), "table")

    sp = sub.add_parser("series", help="CSV time series of |U(t)_{u,u}|")
    _add_graph_source(sp)
    _add_matrix(sp)
    _add_vertex_selector(sp)
    _add_numeric_knobs(sp)
    _add_output(sp, ("csv",), "csv")

    sp = sub.add_parser("twins", help="twin sets with loop weight, pair weight and eigenvalue")
    _add_graph_source(sp)
    _add_matrix(sp)
    _add_output(sp, ("table", "json", "csv"), "table")

    sp = sub.add_parser("spectrum", help="eigenvalue support of selected vertices")
    _add_graph_source(sp)
    _add_matrix(sp)
    _add_vertex_selector(sp)
    _add_output(sp, ("table", "json", "csv"), "table")

    sp = sub.add_parser("families", help="closed-form verdict sweeps for named families")
    sp.add_argument(
        "--family",
        required=True,
        choices=("cp", "clique-minus-edge", "product", "threshold"),
        help="which family to sweep",
    )
    sp.add_argument("--start", type=int, help="first parameter value (cp: k, others: n)")
    sp.add_argument("--stop", type=int, help="last parameter value, inclusive")
    sp.add_argument("--cells", help="threshold family: comma-separated cell sizes, e.g. 2,6")
    sp.add_argument(
        "--first-cell",
        choices=("O", "K"),
        default="O",
        help="threshold family: whether the first cell is empty (O) or complete (K)",
    )
    _add_matrix(sp)
    _add_output(sp, ("table", "json", "csv"), "table")

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of :func:`main`, built once per process; it holds no handler,
    so a replaced ``cmd_*`` function is still the one called."""
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    handler = globals()[f"cmd_{args.command}"]
    try:
        output = handler(args)
        pieces = [output] if isinstance(output, str) else output
        if args.out:
            with open(args.out, "w", encoding="utf-8", newline="") as fh:
                fh.writelines(pieces)
        else:
            sys.stdout.writelines(pieces)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"error: a number left the float range: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        detail = f": {exc}" if str(exc) else ""
        print(f"error: out of memory{detail}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
