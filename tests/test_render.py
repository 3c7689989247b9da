"""Byte snapshot of the CLI rendering layer, and property tests of its JSON
writer against the stdlib encoder.

``golden/render.json`` maps each command line below to its exact standard
output.  The commands cover every output format of ``spectrum``, ``series``,
``twins``, ``families`` and ``analyze``, with values printed in exponent
form (Laplacian zero eigenvalues near 1e-16), integral floats, a one-vertex
graph, empty containers, a weighted edge-list file and ``Mq:-1``.

Regenerate the file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_render.py
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shlex
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import pervertex
from sedwalk import MatrixKind, cli, decompose
from sedwalk.dsl import parse_graph
from sedwalk.graphs import from_edge_list_text

GOLDEN = Path(__file__).parent / "golden" / "render.json"

# stands for the path of a file holding WEIGHTED_LISTING
WEIGHTED = "WEIGHTED"
WEIGHTED_LISTING = "n 4\n0 1 2\n1 2 1/2\n2 3 3\n3 0 1\n1 1 1/3\n"

COMMANDS = (
    "spectrum --graph P(5) --format json",
    "spectrum --graph P(5) --format csv",
    "spectrum --graph P(5)",
    "spectrum --graph P(4) --matrix L --format json",
    "spectrum --graph P(4) --matrix L --format csv",
    "spectrum --graph K(2) --format json",
    "spectrum --graph K(1) --format json",
    "spectrum --graph C(6) --matrix Mq:-1 --vertex 2 --format json",
    f"spectrum --file {WEIGHTED} --format json",
    f"spectrum --file {WEIGHTED} --matrix L",
    "series --graph K(2) --vertex 0 --steps 9",
    "series --graph P(4) --matrix L --steps 7 --tmax 3",
    f"series --file {WEIGHTED} --matrix Mq:-1 --steps 5",
    "twins --graph KM(2,2,2) --format json",
    "twins --graph join(O(2),K(6)) --matrix Mq:-1 --format csv",
    "twins --graph KM(1,3) --matrix L",
    "twins --graph P(5) --format json",
    "families --family cp --start 1 --stop 3 --format json",
    "families --family clique-minus-edge --start 3 --stop 5 --format csv",
    "families --family threshold --cells 2,6 --matrix L",
    "analyze --graph KM(2,2,2) --matrix L --format json",
    "analyze --graph P(4) --steps 2001 --format json",
    "analyze --graph K(1) --format json",
    "classify --graph join(O(2),K(6)) --matrix Mq:-1 --vertex 0 --format json",
    "classify --graph P(30) --matrix L --vertex 0 --format json",
    "spectrum --graph P(40) --format json",
    "spectrum --graph P(40) --format csv",
    "spectrum --graph P(40)",
    "spectrum --graph C(12) --matrix L --format csv",
    "series --graph C(9) --steps 50 --tmax 7.5",
    "spectrum --graph P(40) --vertex 7 --format json",
    "spectrum --graph P(40) --vertex 7 --format csv",
    "spectrum --graph P(40) --vertex 7",
    "spectrum --graph KM(1,3) --format csv",
    f"spectrum --file {WEIGHTED} --format csv",
)


def render(command: str, weighted: str) -> str:
    argv = [weighted if tok == WEIGHTED else tok for tok in shlex.split(command)]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0, command
    return out.getvalue()


@pytest.fixture(scope="module")
def weighted(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("render") / "weighted.txt"
    path.write_text(WEIGHTED_LISTING, encoding="utf-8")
    return str(path)


@pytest.fixture(scope="module")
def golden() -> dict:
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


def test_golden_covers_every_command(golden):
    assert list(golden) == list(COMMANDS)


@pytest.mark.parametrize("command", COMMANDS)
def test_output_bytes_match_golden(golden, weighted, command):
    assert render(command, weighted) == golden[command]


def round_floats(obj: object) -> object:
    """The rounded copy the JSON writer once built before ``json.dumps``."""
    if isinstance(obj, float):
        return float(f"{obj:.12g}")
    if isinstance(obj, dict):
        return {k: round_floats(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [round_floats(v) for v in obj]
    return obj


def reference_json(obj: object) -> str:
    return json.dumps(round_floats(obj), indent=2) + "\n"


@settings(max_examples=1000)
@given(st.floats())
@example(0.0)
@example(-0.0)
@example(5e-324)
@example(-2.2250738585072014e-308)
@example(float("nan"))
@example(float("inf"))
@example(float("-inf"))
@example(1e-4)
@example(9.99999999999949e-5)
@example(99999999999.99)
@example(999999999999.4)
@example(999999999999.6)
@example(1e12)
@example(123456789012.0)
@example(1e16)
@example(0.1 + 0.2)
@example(1 / 3)
def test_json_num_matches_rounded_stdlib(x):
    assert cli._json_num(x) == json.dumps(float(f"{x:.12g}"))


@settings(max_examples=500)
@given(
    st.lists(st.floats(), min_size=1, max_size=40),
    st.sampled_from([",\n  ", ",\n      ", ", "]),
)
@example([-0.0], ", ")
@example([0.0, 1.0, -3.0, 1e11], ", ")
@example([5e-324, -2.2250738585072014e-308, 1e-300], ", ")
@example([float("nan")], ", ")
@example([float("inf"), float("-inf"), 0.5], ", ")
@example([1.5e-05, 2.0], ", ")  # as many points as values, yet an exponent
@example([1.5e12, 0.5], ", ")  # a point inside an exponent token
@example([9.99999999999949e-5, 999999999999.6, 0.1 + 0.2], ", ")
@example([1e-05, 2.5e-07], ", ")  # negative exponents, with and without a point
@example([5e-324, 1.5e-05], ", ")  # %.12g of a subnormal is not its shortest repr
@example([1e-05, 1e12], ", ")  # e+ tokens are positional in repr
def test_json_floats_match_one_number_at_a_time(values, sep):
    assert sep.join(cli._json_tokens(values)) == sep.join(map(cli._json_num, values))


def _from_bits(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


def _step(x: float, ulps: int) -> float:
    """``x`` moved ``ulps`` doubles up (or down, when negative)."""
    for _ in range(abs(ulps)):
        x = float(np.nextafter(x, math.copysign(math.inf, ulps)))
    return x


# values with one class key share their 12-digit rounding, so the draws
# gather near class boundaries: 12-digit ties d...d5e-k, the limits 1e11 and
# 1e-99 of keyed values, powers of ten, and their neighbours a few ulps away
near_boundaries = st.builds(
    _step,
    st.one_of(
        st.integers(0, 2**64 - 1).map(_from_bits),
        st.builds(
            lambda digits, exp: float(f"{digits}5e{exp}"),
            st.integers(10**11, 10**12 - 1),
            st.integers(-115, 0),
        ),
        st.sampled_from([1e11, -1e11, 1e-99, -1e-99, 1e12, 1e-4, 1.0, 0.0, 5e-324]),
        st.integers(-100, 11).map(lambda exp: float(f"1e{exp}")),
        st.floats(1e-6, 1.0),
    ),
    st.integers(-3, 3),
)


@settings(max_examples=400)
@given(st.lists(near_boundaries, min_size=1, max_size=40))
# the tie 1956358460785e-45 and its upper neighbours round apart, though their
# computed mantissas round alike (a margin of 0 from the half-integer merges them)
@example([1.956358460785e-33, 1.9563584607850003e-33, 1.9563584607850007e-33])
@example([float("nan"), float("inf"), float("-inf"), -0.0, 0.0, 1e11, 99999999999.99998])
@example([1e-99, 9.999999999999999e-100, 1e-98, 1e-98])
def test_class_tokens_match_one_number_at_a_time(values):
    x = np.array(values)
    for fmt, one in ((cli._pct_tokens, "%.12g".__mod__), (cli._json_tokens, cli._json_num)):
        assert cli._value_tokens(x, fmt) == [one(v) for v in values]


def test_class_keys_do_not_rest_on_the_accuracy_of_log10(monkeypatch):
    # a log10 two decades off leaves m outside [1e11, 1e12) after the one
    # correction; such values must become classes of their own, not be keyed
    # by a rounding to 11 or 13 digits
    values = [1.2345678901 * (1 + i * 3e-12) for i in range(40)] + [0.5 + i * 1e-13 for i in range(40)]
    log10 = np.log10
    for shift in (2.0, -2.0):
        monkeypatch.setattr(np, "log10", lambda a, shift=shift: log10(a) + shift)
        tokens = cli._value_tokens(np.array(values), cli._pct_tokens)
        assert tokens == [f"{v:.12g}" for v in values]


# stands for a seeded weighted graph whose vertex weights are all distinct
RANDOM_WEIGHTED = "random-weighted"


def random_weighted_listing(n: int = 40, seed: int = 11) -> str:
    rng = np.random.default_rng(seed)
    pairs = [(i, i + 1) for i in range(n - 1)] + rng.integers(0, n, (n // 2, 2)).tolist()
    edges = sorted({(min(u, v), max(u, v)) for u, v in pairs})
    weights = rng.uniform(0.1, 3.0, len(edges)).tolist()
    return f"n {n}\n" + "".join(f"{u} {v} {w!r}\n" for (u, v), w in zip(edges, weights))


@pytest.mark.parametrize(
    "expr,matrix,vertex",
    [
        ("P(300)", "A", None),
        ("cprod(C(15),C(15))", "A", None),
        ("P(300)", "L", 7),
        ("KM(1,3)", "Mq:-1", None),
        ("C(40)", "A", None),
        ("P(60)", "A", None),
        (RANDOM_WEIGHTED, "A", None),
    ],
)
@pytest.mark.parametrize("fmt", ["json", "csv", "table"])
def test_spectrum_matches_the_per_vertex_reference(expr, matrix, vertex, fmt, tmp_path):
    if expr == RANDOM_WEIGHTED:
        path = tmp_path / "random-weighted.txt"
        path.write_text(random_weighted_listing(), encoding="utf-8")
        graph, source = from_edge_list_text(path.read_text()), f"--file {path}"
    else:
        graph, source = parse_graph(expr), f"--graph {expr}"
    dec = decompose(graph, MatrixKind.parse(matrix))
    command = f"spectrum {source} --matrix {matrix} --format {fmt}"
    if vertex is not None:
        command += f" --vertex {vertex}"
    vertices = range(dec.n) if vertex is None else [vertex]
    assert render(command, "") == pervertex.spectrum_output(dec, vertices, fmt)


scalars = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.floats()
    | st.floats().map(np.float64)
    | st.text(max_size=8)
)
trees = st.recursive(
    scalars,
    lambda children: st.lists(children, max_size=6)
    | st.lists(children, max_size=6).map(tuple)
    | st.lists(st.floats(), max_size=6)
    | st.dictionaries(st.text(max_size=6), children, max_size=6),
    max_leaves=40,
)


@settings(deadline=None)
@given(trees)
@example([])
@example({})
@example({"a": [], "b": {}, "c": ()})
@example([[0.0, -0.0, 1.0, 1e-15, 1e300, float("nan")], (True, None, 3)])
def test_dump_json_matches_stdlib_indent_layout(obj):
    assert cli._dump_json(obj) == reference_json(obj)


def main() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "weighted.txt"
        path.write_text(WEIGHTED_LISTING, encoding="utf-8")
        data = {command: render(command, str(path)) for command in COMMANDS}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
