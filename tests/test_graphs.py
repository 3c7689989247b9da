"""Constructor contracts: vertex ordering, degrees, products, file format."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedwalk.graphs import (
    ADJACENCY,
    LAPLACIAN,
    MAX_VERTICES,
    MatrixKind,
    WeightedGraph,
    blow_up,
    cartesian_product,
    cocktail_party,
    complete,
    complete_multipartite,
    cycle,
    direct_product,
    disjoint_union,
    empty,
    from_edge_list_text,
    join,
    path,
    star,
    threshold,
    threshold_cells,
    to_edge_list_text,
)


def test_basic_families_shapes():
    assert complete(5).n == 5 and len(complete(5).edges) == 10
    assert path(4).edges == ((0, 1, 1), (1, 2, 1), (2, 3, 1))
    assert len(cycle(5).edges) == 5
    assert star(4).n == 5 and star(4).degree(0) == 4
    assert empty(3).edges == ()


def test_constructor_input_validation():
    with pytest.raises(ValueError):
        complete(0)
    with pytest.raises(ValueError):
        cycle(2)
    with pytest.raises(ValueError):
        complete_multipartite([])
    with pytest.raises(ValueError):
        complete_multipartite([2, 0])
    with pytest.raises(ValueError):
        threshold([])
    with pytest.raises(ValueError):
        blow_up(0, complete(2))
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 1, -1)])
    with pytest.raises(ValueError):
        WeightedGraph.from_edges(2, [(0, 5, 1)])


def test_adjacency_matrix_symmetric_zero_diagonal():
    for g in (complete(4), cocktail_party(3), threshold([2, 3]), star(3)):
        a = g.adjacency_matrix()
        assert np.allclose(a, a.T)
        assert np.all(a >= 0)
        assert np.all(np.diag(a) == 0)


def test_loops_count_twice_in_degree():
    g = WeightedGraph.from_edges(2, [(0, 0, 2), (0, 1, 3)])
    assert g.degree(0) == 7
    assert g.degree(1) == 3
    a = g.adjacency_matrix()
    assert a[0, 0] == 2.0


def test_join_keeps_x_first_and_degree_shift():
    x, y = path(3), complete(2)
    j = join(x, y)
    assert j.n == 5
    for u in range(x.n):
        assert j.degree(u) == x.degree(u) + y.n
    for v in range(y.n):
        assert j.degree(x.n + v) == y.degree(v) + x.n


def test_complete_multipartite_regular_per_part():
    parts = [1, 2, 3]
    g = complete_multipartite(parts)
    n = sum(parts)
    start = 0
    for p in parts:
        for u in range(start, start + p):
            assert g.degree(u) == n - p
        start += p


def test_cocktail_party_is_complete_minus_matching():
    g = cocktail_party(3)
    kfull = complete(6)
    missing = [(0, 1), (2, 3), (4, 5)]
    want = {(u, v) for u, v, _ in kfull.edges} - set(missing)
    assert {(u, v) for u, v, _ in g.edges} == want


def test_cp4_is_a_4_cycle():
    g = cocktail_party(2)
    assert all(g.degree(u) == 2 for u in range(4))
    vals = np.linalg.eigvalsh(g.adjacency_matrix())
    assert np.allclose(sorted(vals), [-2, 0, 0, 2], atol=1e-9)


def test_threshold_structure_and_cells():
    g = threshold([2, 3])
    assert g.n == 5
    assert len(g.edges) == 9
    assert threshold_cells([2, 3]) == [range(0, 2), range(2, 5)]
    gk = threshold([1, 1], starts_empty=False)
    assert gk.n == 2 and len(gk.edges) == 0
    g22 = threshold([2, 2])
    assert len(g22.edges) == 5  # complete split graph on 4 = K4 minus an edge


def test_direct_product_is_kronecker():
    catalog = [complete(2), path(3), cycle(3), star(2), complete(4), empty(2)]
    for x, y in combinations(catalog, 2):
        g = direct_product(x, y)
        want = np.kron(x.adjacency_matrix(), y.adjacency_matrix())
        assert np.array_equal(g.adjacency_matrix(), want)


def test_direct_product_k2_k2_disconnected():
    g = direct_product(complete(2), complete(2))
    assert {(u, v) for u, v, _ in g.edges} == {(0, 3), (1, 2)}


def test_direct_product_laplacian_safety_flag():
    """direct_product tags its result with no Laplacian-safety flag: it
    equals, and hashes like, the graph of the same weights built from its
    edges, whether its factors are regular or not."""
    for x, y in ((complete(3), cycle(4)), (path(3), complete(2))):
        g = direct_product(x, y)
        assert not hasattr(g, "laplacian_safe")
        same = WeightedGraph.from_edges(g.n, g.edges)
        assert g == same and hash(g) == hash(same)


def test_cartesian_product_matrix():
    x, y = complete(2), path(3)
    g = cartesian_product(x, y)
    ix, iy = np.eye(2), np.eye(3)
    want = np.kron(x.adjacency_matrix(), iy) + np.kron(ix, y.adjacency_matrix())
    assert np.array_equal(g.adjacency_matrix(), want)
    prism = cartesian_product(cycle(3), complete(2))
    assert len(prism.edges) == 9


def test_blow_up_copy_major_and_matrix():
    x = path(2)
    g = blow_up(3, x)
    want = np.kron(np.ones((3, 3)), x.adjacency_matrix())
    assert np.array_equal(g.adjacency_matrix(), want)
    km = complete_multipartite([3, 3])
    assert sorted(float(g.degree(u)) for u in range(6)) == sorted(
        float(km.degree(u)) for u in range(6)
    )


def test_is_weighted_regular():
    assert complete(4).is_weighted_regular() == 3
    assert cycle(5).is_weighted_regular() == 2
    assert path(3).is_weighted_regular() is None
    g = WeightedGraph.from_edges(2, [(0, 1, Fraction(1, 2))])
    assert g.is_weighted_regular() == Fraction(1, 2)


def test_twin_eigenvalue_formulas():
    g = cocktail_party(2)
    # non-adjacent twins, no loops: A gives 0, L gives the degree
    assert g.twin_eigenvalue(ADJACENCY, 0, 1) == 0
    assert g.twin_eigenvalue(LAPLACIAN, 0, 1) == 2
    k = complete(3)
    assert k.twin_eigenvalue(ADJACENCY, 0, 1) == -1
    assert k.twin_eigenvalue(LAPLACIAN, 0, 1) == 3
    mq = MatrixKind.generalized(Fraction(1, 2))
    assert k.twin_eigenvalue(mq, 0, 1) == Fraction(1) - 1


def test_matrix_kind_parsing():
    assert MatrixKind.parse("A") == ADJACENCY
    assert MatrixKind.parse("L") == LAPLACIAN
    assert MatrixKind.parse("Mq:1/2").q == Fraction(1, 2)
    assert MatrixKind.parse("Mq:-1").q == -1
    with pytest.raises(ValueError):
        MatrixKind.parse("B")
    with pytest.raises(ValueError):
        MatrixKind.parse("Mq:zz")


def test_laplacian_matrix_values():
    g = path(3)
    lap = g.matrix(LAPLACIAN)
    assert np.array_equal(lap, np.array([[1, -1, 0], [-1, 2, -1], [0, -1, 1]], dtype=float))
    assert np.array_equal(g.matrix(MatrixKind.generalized(-1)), -lap)
    assert np.array_equal(g.matrix(MatrixKind.generalized(0)), g.adjacency_matrix())


def test_edge_list_round_trip_exact_and_float():
    g = WeightedGraph.from_edges(4, [(0, 1, Fraction(1, 3)), (1, 2, 2), (3, 3, 1)])
    text = to_edge_list_text(g)
    back = from_edge_list_text(text)
    assert back.n == g.n and back.edges == g.edges
    gf = WeightedGraph.from_edges(2, [(0, 1, 0.25)])
    assert from_edge_list_text(to_edge_list_text(gf)).edges == gf.edges


def test_edge_list_parse_errors():
    with pytest.raises(ValueError):
        from_edge_list_text("")
    with pytest.raises(ValueError):
        from_edge_list_text("m 3\n0 1 1")
    with pytest.raises(ValueError):
        from_edge_list_text("n 3\n0 1 1 1 1")
    with pytest.raises(ValueError):
        from_edge_list_text("n 2\n0 1 bad")


def test_vertex_cap_checked_before_edges():
    big = MAX_VERTICES + 1
    for build in (
        lambda: complete(big),
        lambda: path(big),
        lambda: cycle(big),
        lambda: empty(big),
        lambda: star(MAX_VERTICES),
        lambda: cocktail_party(big // 2 + 1),
        lambda: complete_multipartite([MAX_VERTICES, 1]),
        lambda: threshold([MAX_VERTICES, 1]),
        lambda: join(empty(MAX_VERTICES), empty(1)),
        lambda: disjoint_union(empty(MAX_VERTICES), empty(1)),
        lambda: direct_product(complete(65), complete(64)),
        lambda: cartesian_product(path(65), path(64)),
        lambda: blow_up(MAX_VERTICES, complete(2)),
        lambda: WeightedGraph.from_edges(big),
        lambda: from_edge_list_text(f"n {big}\n0 1\n"),
    ):
        with pytest.raises(ValueError, match="exceeds the cap"):
            build()
    assert empty(MAX_VERTICES).n == MAX_VERTICES
    assert direct_product(complete(2), empty(MAX_VERTICES // 2)).n == MAX_VERTICES


@settings(max_examples=50, deadline=None)
@given(
    st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=4),
    st.data(),
)
def test_disjoint_union_and_join_sizes(parts, data):
    gs = [complete(p) for p in parts]
    total = gs[0]
    for g in gs[1:]:
        total = disjoint_union(total, g)
    assert total.n == sum(parts)
    assert len(total.edges) == sum(p * (p - 1) // 2 for p in parts)
