"""Parser for the command-line graph expression language."""

from __future__ import annotations

import numpy as np
import pytest

from sedwalk import (
    MatrixKind,
    blow_up,
    cartesian_product,
    classify_all,
    cocktail_party,
    complete,
    complete_multipartite,
    cycle,
    decompose,
    direct_product,
    empty,
    join,
    parse_graph,
    path,
    threshold,
)

A = MatrixKind.adjacency()
L = MatrixKind.laplacian()


def same_graph(a, b) -> bool:
    return a.n == b.n and np.array_equal(a.matrix(A), b.matrix(A))


ROUND_TRIPS = [
    ("K(4)", complete(4)),
    ("O(3)", empty(3)),
    ("P(5)", path(5)),
    ("C(6)", cycle(6)),
    ("CP(6)", cocktail_party(3)),
    ("KM(2,3)", complete_multipartite([2, 3])),
    ("KM(2,2,2)", complete_multipartite([2, 2, 2])),
    ("Gamma(2,2)", threshold([2, 2])),
    ("Gamma(2,3;start=K)", threshold([2, 3], starts_empty=False)),
    ("join(O(2),K(6))", join(empty(2), complete(6))),
    ("dprod(K(3),K(4))", direct_product(complete(3), complete(4))),
    ("cprod(K(2),C(4))", cartesian_product(complete(2), cycle(4))),
    ("blowup(3,P(2))", blow_up(3, path(2))),
    ("join(K(1),dprod(K(2),K(2)))", join(complete(1), direct_product(complete(2), complete(2)))),
]


@pytest.mark.parametrize("text,expected", ROUND_TRIPS, ids=[t for t, _ in ROUND_TRIPS])
def test_parse_round_trip(text, expected):
    assert same_graph(parse_graph(text), expected)


def test_whitespace_is_ignored():
    assert same_graph(parse_graph("  join ( O( 2 ) ,\tK(6) ) "), join(empty(2), complete(6)))


def test_gamma_matches_join_form():
    assert same_graph(parse_graph("Gamma(2,6)"), parse_graph("join(O(2),K(6))"))


def test_gamma_start_clique_is_disconnected():
    g = parse_graph("Gamma(2,3;start=K)")
    assert g.n == 5
    assert len(g.edges) == 1
    lam = np.linalg.eigvalsh(g.matrix(L))
    assert np.sum(np.abs(lam) < 1e-9) == 4  # one edge plus three isolated vertices


def test_gamma_start_clique_connected_case():
    g = parse_graph("Gamma(1,2,3;start=K)")
    assert g.n == 6
    assert len(g.edges) == 12
    lam = np.linalg.eigvalsh(g.matrix(L))
    assert np.sum(np.abs(lam) < 1e-9) == 1


def test_blowup_of_an_edge_is_complete_bipartite():
    # copies are interleaved, so compare by spectrum rather than labels
    g = parse_graph("blowup(3,P(2))")
    assert g.n == 6
    assert len(g.edges) == 9
    lam = np.linalg.eigvalsh(g.matrix(A))
    assert np.allclose(lam, [-3, 0, 0, 0, 0, 3], atol=1e-9)


def test_parse_preserves_laplacian_safety():
    """Every parsed spelling carries the Laplacian D - A of its weights, and
    no flag of its own: regular product factors or not, one weight matrix
    is one graph."""
    for text in ("dprod(P(3),K(2))", "dprod(K(3),K(4))", "join(O(2),K(6))"):
        g = parse_graph(text)
        assert not hasattr(g, "laplacian_safe")
        adj = g.matrix(A)
        np.testing.assert_array_equal(g.matrix(L), np.diag(adj.sum(axis=1)) - adj)
    assert parse_graph("dprod(P(3),K(2))") == parse_graph("blowup(1,dprod(P(3),K(2)))")


def test_unsafe_product_rejects_laplacian_decomposition():
    """A direct product with an irregular factor decomposes under L like any
    graph.  The classifier takes no decomposition from its caller, so that
    Laplacian decomposition cannot be read as the walk's own under A: it
    decomposes the graph under the kind it is asked for."""
    g = parse_graph("dprod(P(3),K(2))")
    dec = decompose(g, L)
    assert dec.matrix_kind == L and sum(dec.multiplicities) == g.n
    with pytest.raises(TypeError):
        classify_all(g, A, dec)
    with pytest.raises(TypeError):
        classify_all(g, A, dec=dec)
    for kind in (A, L):
        records = classify_all(g, kind)
        assert len(records) == g.n and {rec.matrix_kind for rec in records} == {kind}


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("", "empty graph expression"),
        ("   ", "empty graph expression"),
        ("Q(3)", "unknown graph constructor"),
        ("K(3) extra", "trailing input at position 5"),
        ("K(3", "expected ')'"),
        ("K(x)", "expected an integer at position 2"),
        ("K(2)!", "unexpected character '!' at position 4"),
        ("CP(5)", "even"),
        ("CP(0)", "even"),
        ("Gamma(2,3;start=Q)", "start= takes O or K"),
        ("join(K(2))", "expected ','"),
        ("(2)", "expected a graph name"),
    ],
)
def test_parse_rejections(text, fragment):
    with pytest.raises(ValueError) as exc:
        parse_graph(text)
    assert fragment in str(exc.value)


def test_gamma_default_start_is_empty():
    g = parse_graph("Gamma(2,6)")
    h = parse_graph("Gamma(2,6;start=O)")
    assert same_graph(g, h)
    # first two vertices form the empty cell: non-adjacent, joined to the rest
    m = g.matrix(A)
    assert m[0, 1] == 0
    assert np.all(m[0, 2:] == 1)
