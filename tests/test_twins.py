"""Twin detection and the eigenspace split behind the classification routes."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from sedwalk import (
    MatrixKind,
    TwinSet,
    are_twins,
    cocktail_party,
    complete,
    cycle,
    decompose,
    find_twin_sets,
    parse_graph,
    path,
    star,
    theta_split,
    threshold,
    twin_dichotomy,
    twin_set_of,
)
from sedwalk import twins as twins_module
from sedwalk.graphs import WeightedGraph

A = MatrixKind.adjacency()
L = MatrixKind.laplacian()


def _k4_minus_edge() -> WeightedGraph:
    edges = [(u, v) for u in range(4) for v in range(u + 1, 4) if (u, v) != (0, 1)]
    return WeightedGraph.from_edges(4, edges)


def test_are_twins_basic():
    g = path(3)
    assert are_twins(g, 0, 2)
    assert not are_twins(g, 0, 1)
    with pytest.raises(ValueError):
        are_twins(g, 1, 1)


def test_are_twins_respects_loops_and_weights():
    g = WeightedGraph.from_edges(
        3, [(0, 2, 2), (1, 2, 2), (0, 0, Fraction(1, 2)), (1, 1, Fraction(1, 2))]
    )
    assert are_twins(g, 0, 1)
    h = WeightedGraph.from_edges(3, [(0, 2, 2), (1, 2, 2), (0, 0, 1)])
    assert not are_twins(h, 0, 1)


def test_find_twin_sets_complete():
    sets = find_twin_sets(complete(4))
    assert len(sets) == 1
    ts = sets[0]
    assert ts.members == (0, 1, 2, 3)
    assert ts.omega == 0 and ts.eta == 1
    assert len(ts) == 4 and 2 in ts


def test_find_twin_sets_cocktail_party():
    sets = find_twin_sets(cocktail_party(3))
    assert [ts.members for ts in sets] == [(0, 1), (2, 3), (4, 5)]
    assert all(ts.eta == 0 for ts in sets)


def test_find_twin_sets_star_and_threshold():
    sets = find_twin_sets(star(3))
    assert [ts.members for ts in sets] == [(1, 2, 3)]
    sets = find_twin_sets(threshold([2, 3]))
    assert [ts.members for ts in sets] == [(0, 1), (2, 3, 4)]
    assert sets[0].eta == 0 and sets[1].eta == 1


def test_find_twin_sets_clique_minus_edge():
    sets = find_twin_sets(_k4_minus_edge())
    assert [ts.members for ts in sets] == [(0, 1), (2, 3)]
    assert sets[0].eta == 0 and sets[1].eta == 1


def test_twin_set_of_lookup():
    g = star(3)
    assert twin_set_of(g, 0) is None
    ts = twin_set_of(g, 2)
    assert ts is not None and ts.members == (1, 2, 3)
    assert twin_set_of(path(3), 1) is None


@pytest.mark.parametrize("expr", ["CP(8)", "KM(2,3,1)", "blowup(3,C(4))"])
def test_twin_set_of_matches_find_twin_sets(monkeypatch, expr):
    g = parse_graph(expr)
    sets = find_twin_sets(g)
    calls = 0

    def counted(*args):
        nonlocal calls
        calls += 1
        return are_twins(*args)

    monkeypatch.setattr(twins_module, "are_twins", counted)
    for u in range(g.n):
        want = next((ts for ts in sets if u in ts), None)
        calls = 0
        assert twin_set_of(g, u) == want, u
        size = 0 if want is None else len(want)
        assert calls <= (g.n - 1) + size * (size - 1) // 2, u


def test_twin_set_validation_and_partner():
    with pytest.raises(ValueError):
        TwinSet(members=(3,), omega=0, eta=0)
    with pytest.raises(ValueError):
        TwinSet(members=(3, 1), omega=0, eta=0)
    ts = TwinSet(members=(1, 4), omega=0, eta=0)
    assert ts.partner_of(1) == 4 and ts.partner_of(4) == 1
    with pytest.raises(ValueError):
        ts.partner_of(2)


def test_twin_theta_values():
    g = complete(3)
    ts = find_twin_sets(g)[0]
    assert ts.theta(g, A) == -1
    assert ts.theta(g, L) == 3
    assert ts.theta(g, MatrixKind.generalized(Fraction(1, 2))) == 0


def test_theta_split_star_leaves():
    g = star(3)
    ts = find_twin_sets(g)[0]
    split = theta_split(g, A, ts)
    assert split.theta == 0.0
    assert split.b1_dim == 2
    assert split.theta_multiplicity == 2
    assert split.f_rank == 0
    np.testing.assert_allclose(split.f_matrix, 0.0, atol=1e-9)


def test_theta_split_cocktail_party():
    g = cocktail_party(3)
    ts = find_twin_sets(g)[0]
    split = theta_split(g, A, ts)
    assert split.theta_multiplicity == 3
    assert split.b1_dim == 1
    assert split.f_rank == 2
    # extra kernel directions live on the other pairs, not on this one
    assert split.f_diagonal(0) == pytest.approx(0.0, abs=1e-9)
    assert split.f_diagonal(2) == pytest.approx(0.5, abs=1e-9)


def test_theta_split_rejects_missing_eigenvalue():
    # (0, 1) in a path are not twins; their formula value -1 is no eigenvalue
    fake = TwinSet(members=(0, 1), omega=0, eta=1)
    with pytest.raises(ValueError):
        theta_split(path(3), A, fake)


def test_dichotomy_large_set_is_sedentary():
    g = star(4)
    ts = find_twin_sets(g)[0]
    branch = twin_dichotomy(g, A, ts, 2)
    assert branch.branch == "sedentary"
    assert branch.partner is None
    assert branch.strong_cospectrality is None
    with pytest.raises(ValueError):
        twin_dichotomy(g, A, ts, 0)


def test_dichotomy_pair_routes_to_transfer():
    g = complete(2)
    ts = find_twin_sets(g)[0]
    branch = twin_dichotomy(g, A, ts, 0)
    assert branch.branch == "pgst-pair"
    assert branch.partner == 1
    assert branch.strong_cospectrality is not None
    g = cycle(4)
    ts = twin_set_of(g, 0)
    assert ts is not None and ts.members == (0, 2)
    branch = twin_dichotomy(g, A, ts, 0)
    assert branch.branch == "pgst-pair"


def test_dichotomy_pair_blocked_by_extra_eigenvector():
    # spider with legs (1, 1, 3): the kernel has a symmetric vector meeting
    # the leaf pair, which kills strong cospectrality
    g = WeightedGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    ts = twin_set_of(g, 1)
    assert ts is not None and ts.members == (1, 2)
    split = theta_split(g, A, ts)
    assert split.theta_multiplicity == 2
    assert split.f_rank == 1
    assert split.f_diagonal(1) == pytest.approx(0.1, abs=1e-9)
    branch = twin_dichotomy(g, A, ts, 1)
    assert branch.branch == "sedentary"
    assert branch.partner == 2
    assert branch.strong_cospectrality is None


def test_dichotomy_laplacian_pair():
    g = _k4_minus_edge()
    ts = twin_set_of(g, 0)
    assert ts is not None
    branch = twin_dichotomy(g, L, ts, 0)
    assert branch.branch == "pgst-pair"
    assert branch.split.theta == pytest.approx(float(ts.theta(g, L)))
