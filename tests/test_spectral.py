"""Spectral decomposition: eigenvector blocks and their projectors, supports,
cospectrality, periodicity."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closedforms import projector
from sedwalk import (
    MatrixKind,
    cocktail_party,
    complete,
    cycle,
    decompose,
    direct_product,
    path,
    star,
)
from sedwalk import spectral
from sedwalk.dsl import parse_graph
from sedwalk.graphs import WeightedGraph
from sedwalk.spectral import GROUPING_TOL, SUPPORT_TOL

KINDS = [MatrixKind.adjacency(), MatrixKind.laplacian(), MatrixKind.generalized(Fraction(1, 2))]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_decomposition_reconstructs(rand_graph, kind, seed):
    rng = np.random.default_rng(seed)
    g = rand_graph(rng, n=7, weights=(1, 2))
    dec = decompose(g, kind)
    projectors = [projector(dec, j) for j in range(dec.k)]
    rebuilt = sum(lam * ej for lam, ej in zip(dec.eigenvalues, projectors))
    np.testing.assert_allclose(rebuilt, g.matrix(kind), atol=1e-9)
    np.testing.assert_allclose(sum(projectors), np.eye(g.n), atol=1e-9)
    assert sum(dec.multiplicities) == g.n
    for j, ej in enumerate(projectors):
        np.testing.assert_allclose(ej, ej.T, atol=1e-9)
        np.testing.assert_allclose(ej @ ej, ej, atol=1e-9)
        assert np.trace(ej) == pytest.approx(dec.multiplicities[j], abs=1e-8)
        for i in range(j):
            assert np.max(np.abs(projectors[i] @ ej)) < 1e-9
    assert all(np.diff(dec.eigenvalues) < 0)


def test_eigenvalue_grouping_multiplicities():
    dec = decompose(cocktail_party(2))
    assert dec.multiplicities == (1, 2, 1)
    np.testing.assert_allclose(dec.eigenvalues, [2.0, 0.0, -2.0], atol=1e-9)
    dec_l = decompose(complete(4), MatrixKind.laplacian())
    assert dec_l.multiplicities == (3, 1)
    np.testing.assert_allclose(dec_l.eigenvalues, [4.0, 0.0], atol=1e-9)


def single_linkage_groups(vals: np.ndarray, tol: float) -> list[list[int]]:
    """Ascending eigenvalue indices grouped one comparison at a time."""
    groups = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    return groups


GROUPING_CASES = ["P(60)", "C(28)", "cprod(C(6),C(6))", "KM(2,1,1)", "dprod(K(3),K(4))", "CP(8)", "K(1)"]


@pytest.mark.parametrize("expr", GROUPING_CASES)
@pytest.mark.parametrize("kind", KINDS[:2], ids=lambda k: k.short_name)
def test_grouping_matches_the_single_linkage_loop(expr, kind):
    g = parse_graph(expr)
    dec = decompose(g, kind)
    vals, vecs = np.linalg.eigh(g.matrix(kind))
    groups = single_linkage_groups(vals, GROUPING_TOL * max(1.0, float(np.max(np.abs(vals)))))
    groups.reverse()
    assert dec.multiplicities == tuple(len(idx) for idx in groups)
    assert np.array_equal(dec.eigenvalues, [float(np.mean(vals[idx])) for idx in groups])
    assert np.array_equal(dec.vectors, vecs[:, [i for idx in groups for i in idx]])


@pytest.mark.parametrize(
    "expr", ["P(240)", "C(200)", "cprod(C(11),C(11))", "cprod(P(12),P(12))", "K(20)", "CP(12)"]
)
@pytest.mark.parametrize("kind", KINDS[:2], ids=lambda k: k.short_name)
def test_supports_match_per_vertex_entries(expr, kind):
    dec = decompose(parse_graph(expr), kind)
    verts = list(range(dec.n - 1, -1, -3))
    got = []
    for rows, weights, mask in dec.support_blocks(verts):
        assert weights.shape == mask.shape == (len(rows), dec.k)
        got += zip(rows.tolist(), weights, mask)
    assert [u for u, _, _ in got] == verts
    for u, row, m in got:
        weights = dec.entries(u, u)
        assert np.array_equal(row, weights)
        assert np.array_equal(m, np.sqrt(weights) > SUPPORT_TOL)
        idx = np.flatnonzero(m)
        sup = dec.support(u)
        assert sup.vertex == u
        assert sup.indices == tuple(idx.tolist())
        assert sup.values == tuple(dec.eigenvalues[idx].tolist())
        assert sup.weights == tuple(weights[idx].tolist())


def test_supports_reject_a_vertex_out_of_range():
    dec = decompose(path(4))
    for verts in ([0, 4], [-1], [3, 0, 5]):
        with pytest.raises(ValueError, match="out of range"):
            dec.support_blocks(verts)  # checked before the first block
    for u in (4, -1):
        with pytest.raises(ValueError, match="out of range"):
            dec.support(u)


def test_support_blocks_stay_near_their_entry_budget():
    dec = decompose(path(300))
    sizes = [len(rows) for rows, _, _ in dec.support_blocks(range(300))]
    assert sizes == [218, 82]  # 2^16 entries of V are 218 rows of 300
    assert [len(rows) for rows, _, _ in dec.support_blocks([])] == []


# weights for edge lists: integers, fractions, floats and their mixture
BLOCK_WEIGHTS = [1, 2, Fraction(1, 3), Fraction(5, 2), 0.5, 1.7, 1e-3, 3.25]
# graphs with repeated eigenvalues
BLOCK_EXPRESSIONS = [
    "K(7)",
    "CP(8)",
    "cprod(C(4),C(6))",
    "blowup(2,C(5))",
    "KM(1,6)",
    "cprod(cprod(K(2),K(2)),K(2))",
    "O(3)",
]


@st.composite
def block_graphs(draw):
    if draw(st.booleans()):
        return parse_graph(draw(st.sampled_from(BLOCK_EXPRESSIONS)))
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]  # loops included
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=30))
    weights = [draw(st.sampled_from(BLOCK_WEIGHTS)) for _ in chosen]
    return WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(chosen, weights)])


BLOCK_KINDS = KINDS + [MatrixKind.generalized(Fraction(-1))]


@settings(max_examples=150, deadline=None)
@given(
    block_graphs(),
    st.sampled_from(BLOCK_KINDS),
    st.integers(1, 40),
    st.data(),
)
def test_support_block_rows_equal_the_per_vertex_weights(g, kind, budget, data):
    dec = decompose(g, kind)
    if data.draw(st.booleans()):
        verts = data.draw(st.lists(st.integers(0, g.n - 1), min_size=1, max_size=2 * g.n))
    else:
        verts = [data.draw(st.integers(0, g.n - 1))]  # a single --vertex selection
    # a budget of a few entries of V puts block boundaries inside the selection
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(spectral, "_BLOCK_ENTRIES", budget)
        blocks = list(dec.support_blocks(verts))
    assert len(blocks) == -(-len(verts) // max(1, budget // g.n))
    assert np.concatenate([rows for rows, _, _ in blocks]).tolist() == verts
    for rows, weights, mask in blocks:
        for u, row, m in zip(rows.tolist(), weights, mask):
            assert row.tobytes() == dec.diagonal_weights(u).tobytes()
            assert tuple(np.flatnonzero(m).tolist()) == dec.support(u).indices


def test_support_weights_sum_to_one(rand_graph):
    rng = np.random.default_rng(7)
    g = rand_graph(rng, n=8)
    dec = decompose(g)
    for u in range(g.n):
        sup = dec.support(u)
        assert sum(sup.weights) == pytest.approx(1.0, abs=1e-9)
        assert all(w > -1e-12 for w in sup.weights)
        assert sup.vertex == u


def test_star_center_support_misses_kernel():
    dec = decompose(star(3))
    sup = dec.support(0)
    assert sup.values == pytest.approx([math.sqrt(3), -math.sqrt(3)])
    assert sup.weights == pytest.approx([0.5, 0.5])
    leaf = dec.support(1)
    assert len(leaf) == 3
    with pytest.raises(ValueError):
        dec.support(4)


def _cospectral(dec, u: int, v: int) -> bool:
    return bool(np.max(np.abs(dec.diagonal_weights(u) - dec.diagonal_weights(v))) <= 1e-7)


def test_cospectral_pairs():
    dec = decompose(path(3))
    assert _cospectral(dec, 0, 2)
    assert not _cospectral(dec, 0, 1)
    dec_k = decompose(complete(5))
    assert _cospectral(dec_k, 1, 3)


def test_strong_cospectrality_path_ends():
    dec = decompose(path(3))
    sc = dec.strongly_cospectral(0, 2)
    assert sc is not None
    assert sorted(abs(dec.eigenvalues[j]) for j in sc.plus) == pytest.approx([math.sqrt(2)] * 2)
    assert dec.eigenvalues[list(sc.minus)] == pytest.approx([0.0])
    assert dec.strongly_cospectral(0, 1) is None


def test_strong_cospectrality_cycle_antipodes():
    dec = decompose(cycle(4))
    assert dec.strongly_cospectral(0, 1) is None
    sc = dec.strongly_cospectral(0, 2)
    assert sc is not None
    assert dec.eigenvalues[list(sc.plus)] == pytest.approx([2.0, -2.0])
    assert dec.eigenvalues[list(sc.minus)] == pytest.approx([0.0])
    with pytest.raises(ValueError):
        dec.strongly_cospectral(1, 1)


def test_periodicity_integer_spectrum(oracle, support_form):
    g = complete(3)
    dec = decompose(g)
    form = support_form(dec, 0)
    assert form is not None and form.delta == 1 and len(form) == 2
    assert form.period == pytest.approx(2 * math.pi / 3)
    u_t = oracle(g, MatrixKind.adjacency(), form.period)
    assert abs(u_t[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_periodicity_quadratic_support(oracle, support_form):
    g = star(3)
    dec = decompose(g)
    form = support_form(dec, 0)
    assert form is not None and form.delta == 3
    assert form.period == pytest.approx(math.pi / math.sqrt(3))
    u_t = oracle(g, MatrixKind.adjacency(), form.period)
    assert abs(u_t[0, 0]) == pytest.approx(1.0, abs=1e-12)


def test_periodicity_unrecognized_quartic(support_form):
    # path plus a pendant twin at one end: the end support needs nested radicals
    g = WeightedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    dec = decompose(g)
    assert support_form(dec, 0) is None


def test_periodicity_singleton_support(support_form):
    # one class carries the whole weight: the diagonal is constant and has no period
    g = WeightedGraph.from_edges(2, [])
    dec = decompose(g)
    form = support_form(dec, 0)
    assert form is not None and len(form) == 1
    assert form.g == 0 and form.period is None


def test_min_gap():
    assert decompose(complete(4)).min_gap() == pytest.approx(4.0)
    assert decompose(cycle(4)).min_gap() == pytest.approx(2.0)
    assert decompose(WeightedGraph.from_edges(2, [])).min_gap() == math.inf


def test_eigenvalue_index_lookup():
    dec = decompose(cycle(4))
    assert dec.eigenvalue_index(2.0) == 0
    assert dec.eigenvalue_index(-2.0 + 1e-9) == 2
    with pytest.raises(ValueError):
        dec.eigenvalue_index(1.0)


def test_laplacian_product_guard():
    """No guard is left on the Laplacian of a direct product: its
    decomposition rebuilds D - A for irregular and regular factors alike."""
    assert not hasattr(spectral, "LaplacianProductUnsupported")
    lap = MatrixKind.laplacian()
    for g in (direct_product(path(3), complete(2)), direct_product(complete(3), complete(2))):
        dec = decompose(g, lap)
        assert dec.n == 6
        projectors = [projector(dec, j) for j in range(dec.k)]
        rebuilt = sum(lam * ej for lam, ej in zip(dec.eigenvalues, projectors))
        np.testing.assert_allclose(rebuilt, g.matrix(lap), atol=1e-9)


def test_entries_match_projector():
    dec = decompose(path(4))
    for u in range(dec.n):
        for v in range(dec.n):
            want = [projector(dec, j)[u, v] for j in range(dec.k)]
            np.testing.assert_allclose(dec.entries(u, v), want, atol=1e-12)
    np.testing.assert_allclose(dec.diagonal_weights(1), dec.entries(1, 1))


def _strongly_cospectral_by_columns(dec, u: int, v: int):
    """Definition: E_j e_u = +/- E_j e_v for every class, from the n x n E_j."""
    plus: list[int] = []
    minus: list[int] = []
    for j in range(dec.k):
        x, y = projector(dec, j)[:, u], projector(dec, j)[:, v]
        if np.linalg.norm(x) <= 1e-8 and np.linalg.norm(y) <= 1e-8:
            continue
        if np.linalg.norm(x - y) <= 1e-7:
            plus.append(j)
        elif np.linalg.norm(x + y) <= 1e-7:
            minus.append(j)
        else:
            return None
    return tuple(plus), tuple(minus)


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_strong_cospectrality_rows_match_projector_columns(rand_graph, kind, seed):
    rng = np.random.default_rng(seed)
    graphs = [rand_graph(rng, n=7, p=0.4, weights=(1,)), path(5), cycle(6)]
    for g in graphs:
        dec = decompose(g, kind)
        for u in range(g.n):
            for v in range(u + 1, g.n):
                sc = dec.strongly_cospectral(u, v)
                got = None if sc is None else (sc.plus, sc.minus)
                assert got == _strongly_cospectral_by_columns(dec, u, v), (u, v)


def test_decomposition_memory_is_quadratic():
    g = path(300)
    dec = decompose(g)
    held = sum(a.nbytes for a in vars(dec).values() if isinstance(a, np.ndarray))
    assert held <= 16 * g.n**2
