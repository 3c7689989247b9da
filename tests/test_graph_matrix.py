"""The matrix-built graphs against the edge-by-edge reference in ``edgewise``.

Random nested expressions over small leaves (the DSL families and weighted
edge lists with loops, in exact, huge-denominator, float and mixed
weights) are built both ways and must agree bit for bit: edges, the scaled
matrix with its dtype and scale, degrees, the walk matrices, the
Laplacian flag and the twin partition.
"""

from __future__ import annotations

import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import edgewise as ref
from sedwalk import graphs
from sedwalk.dsl import parse_graph
from sedwalk.graphs import MatrixKind, WeightedGraph
from sedwalk.sedentary import classify_all
from sedwalk.twins import find_twin_sets

KINDS = [MatrixKind.parse(k) for k in ("A", "L", "Mq:-1", "Mq:1/2")]

# 1/3 and Fraction(1, 3) differ exactly but round to one float; 0.5 and
# Fraction(1, 2) are equal; the "huge" weights push s, or 2n times an
# entry, past 2**53.
WEIGHT_POOLS = {
    "int": [1, 2, 3],
    "fraction": [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1)],
    "float": [0.1, 0.5, 1 / 3, 2.0],
    "mixed": [Fraction(1, 3), 1 / 3, Fraction(1, 2), 0.5, 1, 0.1, Fraction(1, 10)],
    "huge": [Fraction(1, 2**31 - 1), Fraction(1, 2**61 - 1), Fraction(2, 3**40), 1, 2**50],
}

MAX_N = 30


@st.composite
def edge_lists(draw, max_n: int = 4, pools: tuple[str, ...] = tuple(WEIGHT_POOLS)) -> tuple[int, list]:
    """Up to ``max_n`` vertices, loops allowed, weights from one of ``pools``."""
    n = draw(st.integers(1, max_n))
    pool = WEIGHT_POOLS[draw(st.sampled_from(sorted(pools)))]
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    return n, [(u, v, draw(st.sampled_from(pool))) for u, v in chosen]


def _dsl_leaves():
    small = st.integers(1, 4)
    parts = st.lists(st.integers(1, 3), min_size=1, max_size=3)
    starts = st.sampled_from(["O", "K"])
    return st.one_of(
        small.map(lambda n: ("K", n)),
        small.map(lambda n: ("O", n)),
        st.integers(1, 5).map(lambda n: ("P", n)),
        st.integers(3, 5).map(lambda n: ("C", n)),
        st.integers(1, 3).map(lambda k: ("CP", 2 * k)),
        parts.map(lambda p: ("KM", tuple(p))),
        st.tuples(parts, starts).map(lambda a: ("Gamma", tuple(a[0]), a[1])),
    )


def _size(t) -> int:
    head = t[0]
    if head in ("K", "O", "P", "C", "CP"):
        return t[1]
    if head in ("KM", "Gamma"):
        return sum(t[1])
    if head == "edges":
        return t[1]
    if head == "blowup":
        return t[1] * _size(t[2])
    if head in ("dprod", "cprod"):
        return _size(t[1]) * _size(t[2])
    return _size(t[1]) + _size(t[2])


@st.composite
def trees(draw, depth: int = 2, pools: tuple[str, ...] = tuple(WEIGHT_POOLS)):
    """A leaf, or an operation on trees of lower depth; a product larger
    than MAX_N vertices falls back to the disjoint union of its operands."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        if draw(st.booleans()):
            return draw(_dsl_leaves())
        return ("edges", *draw(edge_lists(max_n=3, pools=pools)))
    op = draw(st.sampled_from(["join", "union", "dprod", "cprod", "blowup"]))
    if op == "blowup":
        inner = draw(trees(depth - 1, pools))
        return ("blowup", draw(st.integers(1, max(1, MAX_N // _size(inner)))), inner)
    t = (op, draw(trees(depth - 1, pools)), draw(trees(depth - 1, pools)))
    return t if _size(t) <= MAX_N else ("union", t[1], t[2])


def _text(t) -> str | None:
    """The DSL spelling of a tree, or None when it has no spelling."""
    head = t[0]
    if head in ("edges", "union"):
        return None
    if head in ("K", "O", "P", "C", "CP"):
        return f"{head}({t[1]})"
    if head == "KM":
        return f"KM({','.join(map(str, t[1]))})"
    if head == "Gamma":
        return f"Gamma({','.join(map(str, t[1]))};start={t[2]})"
    if head == "blowup":
        inner = _text(t[2])
        return None if inner is None else f"blowup({t[1]},{inner})"
    a, b = _text(t[1]), _text(t[2])
    return None if a is None or b is None else f"{head}({a},{b})"


def _build(t, lib):
    """Build a tree with either module: ``graphs`` or the ``edgewise`` reference."""
    head = t[0]
    cls = WeightedGraph if lib is graphs else ref.EdgeGraph
    leaves = {
        "K": lambda: lib.complete(t[1]),
        "O": lambda: lib.empty(t[1]),
        "P": lambda: lib.path(t[1]),
        "C": lambda: lib.cycle(t[1]),
        "CP": lambda: lib.complete_multipartite([2] * (t[1] // 2)),
        "KM": lambda: lib.complete_multipartite(t[1]),
        "Gamma": lambda: lib.threshold(t[1], starts_empty=t[2] == "O"),
        "edges": lambda: cls.from_edges(t[1], t[2]),
    }
    if head in leaves:
        return leaves[head]()
    if head == "blowup":
        return lib.blow_up(t[1], _build(t[2], lib))
    ops = {
        "join": lib.join,
        "union": lib.disjoint_union,
        "dprod": lib.direct_product,
        "cprod": lib.cartesian_product,
    }
    return ops[head](_build(t[1], lib), _build(t[2], lib))


def _entries(m: np.ndarray) -> list[str]:
    return [repr(x) for x in m.flat] if m.dtype == object else [m.tobytes().hex()]


def assert_same_graph(g: WeightedGraph, r: ref.EdgeGraph) -> None:
    assert g.n == r.n
    assert repr(g.edges) == repr(r.edges)
    (m, s), (mr, sr) = (g.weights, g.scale), r.weight_matrix()
    assert (m.dtype, s) == (mr.dtype, sr)
    assert _entries(m) == _entries(mr)
    assert repr(g.degrees) == repr(r.degrees)
    for kind in KINDS:
        assert g.matrix(kind).tobytes() == r.matrix(kind).tobytes(), kind
    assert g.exact == r.exact
    assert repr(g.is_weighted_regular()) == repr(r.is_weighted_regular())
    assert repr(find_twin_sets(g)) == repr(r.twin_sets())
    assert g.edge_count == len(r.edges)
    again = WeightedGraph.from_edges(g.n, g.edges)
    assert again == g and hash(again) == hash(g)


@settings(max_examples=200, deadline=None)
@given(trees())
def test_matrix_graphs_match_edge_by_edge_reference(tree):
    g = _build(tree, graphs)
    assert_same_graph(g, _build(tree, ref))
    text = _text(tree)
    if text is not None:
        parsed = parse_graph(text)
        assert parsed == g
        assert parsed.weights.dtype == g.weights.dtype and parsed.scale == g.scale


BIG = ("edges", 2, [(0, 1, 2**50)])
HALF = ("edges", 2, [(0, 1, Fraction(1, 2)), (1, 1, Fraction(1, 2))])
LOOP = ("edges", 1, [(0, 0, Fraction(1, 2))])


@pytest.mark.parametrize(
    "tree",
    [
        ("join", BIG, ("O", 1)),  # 2n * 2**50 reaches 2**53 at n = 4
        ("blowup", 2, BIG),
        ("dprod", BIG, BIG),  # entries of 2**100
        ("cprod", HALF, HALF),
        ("cprod", LOOP, LOOP),  # loops 1/2 + 1/2 = 1: s falls from 2 to 1
        ("dprod", ("edges", 2, [(0, 1, Fraction(1, 2**40))]), ("edges", 2, [(0, 1, 2**40)])),
    ],
)
def test_scale_and_dtype_at_the_bounds(tree):
    assert_same_graph(_build(tree, graphs), _build(tree, ref))


@st.composite
def faulty_edge_lists(draw) -> tuple[int, list]:
    """An edge list with repeats of equal weight and at most one fault."""
    n, edges = draw(edge_lists(max_n=5))
    edges = edges + [draw(st.sampled_from(edges))] * draw(st.integers(0, 2)) if edges else edges
    fault = draw(st.sampled_from(["none", "range", "weight", "conflict"]))
    if fault == "range":
        edges.append((draw(st.sampled_from([-1, 0])), n, 1))
    elif fault == "weight":
        taken = {(min(u, v), max(u, v)) for u, v, _ in edges}
        free = [(u, v) for u in range(n) for v in range(u, n) if (u, v) not in taken]
        if free:
            u, v = draw(st.sampled_from(free))
            edges.append((u, v, draw(st.sampled_from([0, -1, Fraction(-1, 2), 0.0, -2.5]))))
    elif fault == "conflict" and edges:
        u, v, w = draw(st.sampled_from(edges))
        edges.append((v, u, w + 1))
    return n, draw(st.permutations(edges))


@settings(max_examples=300, deadline=None)
@given(faulty_edge_lists())
def test_edge_lists_match_reference_and_its_errors(case):
    n, edges = case
    try:
        r = ref.EdgeGraph.from_edges(n, edges)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            WeightedGraph.from_edges(n, edges)
        assert str(got.value) == str(exc)
        return
    assert_same_graph(WeightedGraph.from_edges(n, edges), r)


def test_repeated_edge_keeps_the_last_copy():
    # 0.5 == Fraction(1, 2), so the repeat is allowed and the float copy wins
    g = WeightedGraph.from_edges(2, [(0, 1, Fraction(1, 2)), (1, 0, 0.5)])
    assert g.edges == ((0, 1, 0.5),) and isinstance(g.edges[0][2], float)
    assert not g.exact and g.weights.dtype == np.float64


def test_equality_compares_weights_across_representations():
    exact = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, Fraction(1, 2))])
    floats = WeightedGraph.from_edges(3, [(0, 1, 1.0), (1, 2, 0.5)])
    mixed = WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 0.5)])
    assert exact.weights.dtype == np.int64 and floats.weights.dtype == np.float64
    assert mixed.weights.dtype == object
    assert exact == floats == mixed
    assert hash(exact) == hash(floats) == hash(mixed)
    assert exact != WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, Fraction(1, 3))])
    assert exact != WeightedGraph.from_edges(3, [(0, 1, 1), (1, 2, 1 / 3)])
    assert exact != WeightedGraph.from_edges(4, [(0, 1, 1), (1, 2, Fraction(1, 2))])


def test_dense_graph_builds_in_bounded_memory():
    # the int64 matrix of K(1000) is 8 MB; edge by edge it took 172 MB
    tracemalloc.start()
    try:
        t0 = time.perf_counter()
        g = parse_graph("K(1000)")
        elapsed = time.perf_counter() - t0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert g.edge_count == 499_500
    assert peak < 16 * 2**20, peak
    assert elapsed < 1.0, elapsed


def test_twin_splits_hold_no_projector():
    # CP(200) has 100 twin pairs; one 200 x 200 F per pair held 32 MB
    g = parse_graph("CP(200)")
    tracemalloc.start()
    try:
        classify_all(g, MatrixKind.adjacency())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20, peak


PARITY_STEPS = {"parity:all-even", "parity:odd-relation"}


@settings(max_examples=150, deadline=None)
@given(
    trees(pools=("int", "fraction", "float", "mixed", "huge")),
    st.sampled_from(["A", "L", "Mq:-1"]),
)
def test_relation_parity_always_decides_on_graphs_with_twins(tree, matrix):
    """Relation parity raises on an empty side or on mixed radicals; the
    classifier never hands it either, so on every graph with a twin each
    vertex classifies and each parity step is one of the two outcomes.
    Near 2**50 the float check of an exact equality time can fail; the
    vertex then ends undetermined (``test_sedentary.test_huge_loop_classifies``)."""
    g = _build(tree, graphs)
    kind = MatrixKind.parse(matrix)
    twin_sets = find_twin_sets(g)
    assume(twin_sets)
    results = classify_all(g, kind, twin_sets=twin_sets, grid_points=2001)
    steps = [s for c in results for s in c.certificate if s.startswith("parity:")]
    assert set(steps) <= PARITY_STEPS
