"""Twin detection and the eigenspace split behind the classification routes."""

from __future__ import annotations

import dataclasses
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedwalk import (
    MatrixKind,
    SpectralDecomposition,
    TwinSet,
    Verdict,
    are_twins,
    classify_all,
    cocktail_party,
    complete,
    cycle,
    decompose,
    find_twin_sets,
    parse_graph,
    path,
    star,
    threshold,
    twin_dichotomy,
)
from sedwalk import sedentary as sedentary_module
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


def _twin_set_of(g: WeightedGraph, u: int) -> TwinSet | None:
    """The maximal twin set containing ``u``, looked up by ``find_twin_sets``."""
    return next(iter(find_twin_sets(g, [u])), None)


def test_twin_set_of_lookup():
    g = star(3)
    assert _twin_set_of(g, 0) is None
    ts = _twin_set_of(g, 2)
    assert ts is not None and ts.members == (1, 2, 3)
    assert _twin_set_of(path(3), 1) is None


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
        assert _twin_set_of(g, u) == want, u
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
    dec = decompose(g, A)
    side = twin_dichotomy(g, A, ts, dec)
    assert side.theta == 0.0
    assert side.eigen_index == dec.eigenvalue_index(0.0)
    # multiplicity |T| - 1 = 2: the differences fill the eigenspace, F = 0
    assert dec.multiplicities[side.eigen_index] == 2
    assert side.pair is None


def test_theta_split_cocktail_party():
    g = cocktail_party(3)
    ts = find_twin_sets(g)[0]
    dec = decompose(g, A)
    side = twin_dichotomy(g, A, ts, dec)
    assert dec.multiplicities[side.eigen_index] == 3
    # F = E - P1: extra kernel directions live on the other pairs, not on
    # this one; P1 vanishes off the set
    assert dec.diagonal_weights(0)[side.eigen_index] - 0.5 == pytest.approx(0.0, abs=1e-9)
    assert dec.diagonal_weights(2)[side.eigen_index] == pytest.approx(0.5, abs=1e-9)
    assert side.pair is not None and (side.pair.u, side.pair.v) == (0, 1)
    assert side.eigen_index in side.pair.minus


def test_theta_split_rejects_a_difference_outside_the_eigenspace():
    # rotate the theta block so its first column is (e_0 - e_1)/sqrt(2), then
    # swap that column with one of another eigenvalue: both the new check
    # (||V[0] - V[1]||^2 = 2) and the old projector test on F must fail
    g = cocktail_party(3)
    ts = find_twin_sets(g)[0]
    dec = decompose(g, A)
    idx = dec.eigenvalue_index(0.0)
    start, mult = int(dec.starts[idx]), int(dec.multiplicities[idx])
    block = dec.vectors[:, start : start + mult]
    c = block[0] - block[1]
    basis, _ = np.linalg.qr(np.column_stack([c / np.linalg.norm(c), np.eye(mult)]))
    vectors = dec.vectors.copy()
    vectors[:, start : start + mult] = block @ basis
    other = 0 if start > 0 else start + mult
    vectors[:, [start, other]] = vectors[:, [other, start]]
    moved = dataclasses.replace(dec, vectors=vectors)
    moved_block = vectors[:, start : start + mult]
    f = moved_block @ moved_block.T
    f[np.ix_([0, 1], [0, 1])] -= np.eye(2) - 0.5
    assert np.max(np.abs(f @ f - f)) > twins_module.F_PROJECTOR_TOL * g.n
    with pytest.raises(ValueError, match="not a projector"):
        twin_dichotomy(g, A, ts, moved)
    assert twin_dichotomy(g, A, ts, dataclasses.replace(dec, vectors=dec.vectors.copy()))


def test_theta_split_rejects_missing_eigenvalue():
    # (0, 1) in a path are not twins; their formula value -1 is no eigenvalue
    fake = TwinSet(members=(0, 1), omega=0, eta=1)
    with pytest.raises(ValueError, match="not in spectrum"):
        twin_dichotomy(path(3), A, fake, decompose(path(3), A))


def test_dichotomy_large_set_is_sedentary():
    g = star(4)
    ts = find_twin_sets(g)[0]
    side = twin_dichotomy(g, A, ts, decompose(g, A))
    assert side.theta == 0.0
    assert side.pair is None
    for rec in classify_all(g, A, vertices=ts.members):
        assert rec.certificate[:2] == ("twin-set:size=4,theta=0", "twin-branch:sedentary")
        assert rec.partner is None


def test_dichotomy_pair_routes_to_transfer():
    g = complete(2)
    ts = find_twin_sets(g)[0]
    side = twin_dichotomy(g, A, ts, decompose(g, A))
    assert side.pair is not None
    assert (side.pair.u, side.pair.v) == (0, 1)
    g = cycle(4)
    ts = _twin_set_of(g, 0)
    assert ts is not None and ts.members == (0, 2)
    assert twin_dichotomy(g, A, ts, decompose(g, A)).pair is not None
    # both members read the one decision, each with the other as partner
    assert [rec.partner for rec in classify_all(g, A, vertices=[2, 0])] == [0, 2]


def test_dichotomy_pair_blocked_by_extra_eigenvector():
    # spider with legs (1, 1, 3): the kernel has a symmetric vector meeting
    # the leaf pair, which kills strong cospectrality
    g = WeightedGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    ts = _twin_set_of(g, 1)
    assert ts is not None and ts.members == (1, 2)
    dec = decompose(g, A)
    side = twin_dichotomy(g, A, ts, dec)
    assert dec.multiplicities[side.eigen_index] == 2
    # F[1, 1] = ||V[1]||^2 - 1/2
    assert dec.diagonal_weights(1)[side.eigen_index] - 0.5 == pytest.approx(0.1, abs=1e-9)
    assert side.pair is None


def test_dichotomy_pair_checks_raise(monkeypatch):
    g = complete(2)
    ts = find_twin_sets(g)[0]
    dec = decompose(g, A)
    sc = dec.strongly_cospectral(0, 1)
    assert sc is not None and len(sc.plus) == len(sc.minus) == 1
    swapped = dataclasses.replace(sc, plus=sc.minus, minus=sc.plus)
    monkeypatch.setattr(SpectralDecomposition, "strongly_cospectral", lambda *_: swapped)
    with pytest.raises(ValueError, match="symmetric side"):
        twin_dichotomy(g, A, ts, dec)
    # theta = -1 has multiplicity one, so no extra eigenvector meets the pair
    monkeypatch.setattr(SpectralDecomposition, "strongly_cospectral", lambda *_: None)
    with pytest.raises(ValueError, match="no extra eigenvector"):
        twin_dichotomy(g, A, ts, dec)


def test_dichotomy_laplacian_pair():
    g = _k4_minus_edge()
    ts = _twin_set_of(g, 0)
    assert ts is not None
    side = twin_dichotomy(g, L, ts, decompose(g, L))
    assert side.pair is not None
    assert side.theta == pytest.approx(float(ts.theta(g, L)))


def test_classify_all_splits_each_twin_set_once(monkeypatch):
    calls: list[tuple[int, ...]] = []
    real = sedentary_module.twin_dichotomy

    def counted(g, kind, twin_set, dec):
        calls.append(twin_set.members)
        return real(g, kind, twin_set, dec)

    monkeypatch.setattr(sedentary_module, "twin_dichotomy", counted)
    results = classify_all(cocktail_party(6), L)
    assert len(results) == 12
    assert calls == [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (10, 11)]
    calls.clear()
    classify_all(cocktail_party(6), L, vertices=[3, 2, 7])
    assert calls == [(2, 3), (6, 7)]


@st.composite
def twin_graphs(draw) -> tuple[WeightedGraph, list[int]]:
    """Up to 7 vertices, rational weights, with a planted twin set of two or
    more; and a relabelling of the vertices."""
    n = draw(st.integers(2, 7))
    weight = st.sampled_from((None, 1, 2, 3, Fraction(1, 2), Fraction(1, 3)))
    w = {(u, v): draw(weight) for u in range(n) for v in range(u, n)}
    size = draw(st.integers(2, n))
    eta = draw(weight)
    for i in range(1, size):
        w[i, i] = w[0, 0]
        for x in range(size, n):
            w[i, x] = w[0, x]
        for j in range(i):
            w[j, i] = eta
    g = WeightedGraph.from_edges(n, [(u, v, x) for (u, v), x in w.items() if x is not None])
    return g, draw(st.permutations(range(n)))


@settings(max_examples=150, deadline=None)
@given(twin_graphs(), st.sampled_from(["A", "L", "Mq:-1"]))
def test_verdicts_follow_a_relabelling(case, kind):
    """Vertex u of g and vertex perm[u] of its relabelled copy get the same
    verdict, certified flag and constant, and partners that correspond; a
    perfect-transfer partner transfers back."""
    g, perm = case
    kind = MatrixKind.parse(kind)
    h = WeightedGraph.from_edges(g.n, [(perm[u], perm[v], w) for u, v, w in g.edges])
    before = classify_all(g, kind, grid_points=2001)
    after = classify_all(h, kind, grid_points=2001)
    for u, rec in enumerate(before):
        moved = after[perm[u]]
        assert (moved.verdict, moved.certified) == (rec.verdict, rec.certified), u
        if rec.constant is None:
            assert moved.constant is None, u
        else:
            assert moved.constant == pytest.approx(rec.constant, abs=1e-9), u
        assert moved.partner == (None if rec.partner is None else perm[rec.partner]), u
        if rec.verdict is Verdict.PST:
            back = before[rec.partner]
            assert (back.verdict, back.partner) == (Verdict.PST, u), u


# -- the twin partition and the weight matrix against Fraction references --


def _reference_twin_sets(g: WeightedGraph) -> list[TwinSet]:
    """Maximal twin sets from the pairwise definition, first-reached order."""
    sets, seen = [], set()
    for u in range(g.n):
        twins = [v for v in range(g.n) if v != u and are_twins(g, u, v)]
        if u in seen or not twins:
            continue
        members = tuple(sorted([u, *twins]))
        seen.update(members)
        sets.append(TwinSet(members, g.weight(u, u), g.weight(members[0], members[1])))
    return sets


def _reference_row(g: WeightedGraph, u: int) -> list:
    """(neighbour, weight) pairs of ``u`` in increasing neighbour order."""
    return [
        (v, g.edge_map[min(u, v), max(u, v)])
        for v in range(g.n)
        if (min(u, v), max(u, v)) in g.edge_map
    ]


def _reference_degrees(g: WeightedGraph) -> list:
    """Left-to-right sums from Fraction(0), a loop counted twice."""
    out = []
    for u in range(g.n):
        total = Fraction(0)
        for v, w in _reference_row(g, u):
            total = total + (2 * w if v == u else w)
        out.append(total)
    return out


def _reference_matrix(g: WeightedGraph, kind: str) -> np.ndarray:
    a = np.zeros((g.n, g.n))
    for u, v, w in g.edges:
        a[u, v] = a[v, u] = float(w)
    if kind == "A":
        return a
    d = np.diag([float(x) for x in _reference_degrees(g)])
    return d - a if kind == "L" else -1.0 * d + a


def _reference_regular(g: WeightedGraph):
    sums = []
    for u in range(g.n):
        total = Fraction(0)
        for _, w in _reference_row(g, u):
            total = total + w
        sums.append(total)
    first = sums[0]
    if g.exact:
        return first if all(s == first for s in sums) else None
    scale = max(1.0, max(abs(float(s)) for s in sums))
    return first if all(abs(float(s) - float(first)) <= 1e-9 * scale for s in sums) else None


# Weight pools: ints, small fractions, floats, both (1/3 and Fraction(1, 3)
# differ exactly but round to one float; 0.5 and Fraction(1, 2) are equal),
# and denominators whose lcm passes 2**53.
WEIGHT_POOLS = {
    "int": [1, 2, 3],
    "fraction": [Fraction(1, 2), Fraction(2, 3), Fraction(5, 7), Fraction(1)],
    "float": [0.1, 0.5, 1 / 3, 2.0],
    "mixed": [Fraction(1, 3), 1 / 3, Fraction(1, 2), 0.5, 1, 0.1, Fraction(1, 10)],
    "huge": [Fraction(1, 2**31 - 1), Fraction(1, 2**61 - 1), Fraction(2, 3**40), 1],
}


@st.composite
def weighted_graphs(draw) -> WeightedGraph:
    """Up to 9 vertices, loops allowed, with a planted twin set."""
    n = draw(st.integers(1, 9))
    pool = WEIGHT_POOLS[draw(st.sampled_from(sorted(WEIGHT_POOLS)))]
    weight = st.one_of(st.none(), st.sampled_from(pool))
    w = {(u, v): draw(weight) for u in range(n) for v in range(u, n)}
    size = draw(st.integers(0, n))
    eta = draw(weight)
    for i in range(1, size):
        w[i, i] = w[0, 0]
        for x in range(size, n):
            w[i, x] = w[0, x]
        for j in range(i):
            w[j, i] = eta
    perm = draw(st.permutations(range(n)))
    edges = [(perm[u], perm[v], x) for (u, v), x in w.items() if x is not None]
    return WeightedGraph.from_edges(n, edges)


@settings(max_examples=400, deadline=None)
@given(weighted_graphs(), st.data())
def test_twin_partition_matches_pairwise_definition(g, data):
    want = _reference_twin_sets(g)
    assert find_twin_sets(g) == want
    for u in range(g.n):
        assert _twin_set_of(g, u) == next((ts for ts in want if u in ts), None)
    order = data.draw(st.permutations(range(g.n)))
    reached = []
    for u in order:
        ts = next((ts for ts in want if u in ts), None)
        if ts is not None and ts not in reached:
            reached.append(ts)
    assert find_twin_sets(g, order) == reached


@settings(max_examples=400, deadline=None)
@given(weighted_graphs())
def test_weight_matrix_matches_fraction_reference(g):
    assert list(map(repr, g.degrees)) == list(map(repr, _reference_degrees(g)))
    assert [repr(g.degree(u)) for u in range(g.n)] == list(map(repr, _reference_degrees(g)))
    for kind in ("A", "L", "Mq:-1"):
        assert g.matrix(MatrixKind.parse(kind)).tobytes() == _reference_matrix(g, kind).tobytes()
    assert repr(g.is_weighted_regular()) == repr(_reference_regular(g))


def test_weight_matrix_dtype_follows_the_53_bit_bound():
    small = WeightedGraph.from_edges(3, [(0, 1, Fraction(1, 3)), (1, 2, Fraction(1, 6)), (2, 2, 5)])
    m, s = small.weights, small.scale
    assert m.dtype == np.int64 and s == 6 and m[1, 2] == 1 and m[2, 2] == 30
    assert not m.flags.writeable
    huge = WeightedGraph.from_edges(
        3, [(0, 1, Fraction(1, 2**31 - 1)), (1, 2, Fraction(1, 2**61 - 1)), (0, 0, 1)]
    )
    m, s = huge.weights, huge.scale
    assert m.dtype == object and s == (2**31 - 1) * (2**61 - 1)
    assert list(map(repr, huge.degrees)) == list(map(repr, _reference_degrees(huge)))
    for kind in ("A", "L", "Mq:-1"):
        assert huge.matrix(MatrixKind.parse(kind)).tobytes() == _reference_matrix(huge, kind).tobytes()
    floats = WeightedGraph.from_edges(2, [(0, 1, 0.25)])
    m, s = floats.weights, floats.scale
    assert m.dtype == np.float64 and s == 1


def test_mixed_weights_keep_exact_twin_equality():
    # 1/3 as a float rounds to the same double as Fraction(1, 3) but is not
    # equal to it, so 0 and 1 are no twins; 0.5 equals Fraction(1, 2) exactly
    g = WeightedGraph.from_edges(3, [(0, 2, Fraction(1, 3)), (1, 2, 1 / 3)])
    assert find_twin_sets(g) == []
    h = WeightedGraph.from_edges(3, [(0, 2, Fraction(1, 2)), (1, 2, 0.5)])
    assert [ts.members for ts in find_twin_sets(h)] == [(0, 1)]
