"""Walk evaluation against a dense matrix-exponential oracle."""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from closedforms import complete_product_diagonal, km_product_diagonal, walk_matrix
from sedwalk import (
    InfimumMode,
    MatrixKind,
    WalkEvaluator,
    classify_all,
    cocktail_party,
    complete,
    decompose,
    direct_product,
    disjoint_union,
    join,
    parse_graph,
    path,
    star,
)
from sedwalk import walk as walk_module
from sedwalk.families import _complete_product_cosine_terms
from sedwalk.graphs import WeightedGraph
from sedwalk.sedentary import SHARE_TOL
from sedwalk.spectral import SpectralDecomposition
from sedwalk.walk import _SEED_CHUNK, _grid_blocks, _least_entries, _least_indices, _refined_minimum

KINDS = [MatrixKind.adjacency(), MatrixKind.laplacian(), MatrixKind.generalized(Fraction(1, 2))]
SCAN_KINDS = [MatrixKind.adjacency(), MatrixKind.laplacian(), MatrixKind.generalized(-1)]


@pytest.mark.parametrize("kind", KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("seed", [3, 4, 5])
def test_matrix_matches_expm(rand_graph, oracle, kind, seed):
    rng = np.random.default_rng(seed)
    g = rand_graph(rng, n=6, weights=(1, 2, 3))
    ev = WalkEvaluator(decompose(g, kind))
    for t in rng.uniform(0.0, 12.0, size=6):
        u_t = np.array([[ev.amplitude(u, v, float(t)) for v in range(g.n)] for u in range(g.n)])
        np.testing.assert_allclose(u_t, oracle(g, kind, float(t)), atol=1e-9)
        np.testing.assert_allclose(u_t @ u_t.conj().T, np.eye(g.n), atol=1e-9)
        columns = np.column_stack([ev.column(u, float(t)) for u in range(g.n)])
        np.testing.assert_allclose(columns, u_t, atol=1e-12)


def test_amplitude_entries_consistent(rand_graph):
    rng = np.random.default_rng(11)
    g = rand_graph(rng, n=5)
    ev = WalkEvaluator(decompose(g))
    t = 1.7
    u_t = walk_matrix(ev.dec, t)
    for u in range(g.n):
        for v in range(g.n):
            assert ev.amplitude(u, v, t) == pytest.approx(u_t[u, v], abs=1e-12)
            assert ev.magnitude(u, v, t) == pytest.approx(abs(u_t[u, v]), abs=1e-12)


def test_vectorized_amplitudes(rand_graph, pair_amplitudes):
    rng = np.random.default_rng(12)
    g = rand_graph(rng, n=6)
    ev = WalkEvaluator(decompose(g))
    times = np.linspace(0.0, 5.0, 17)
    diag = ev.diagonal_amplitudes(2, times)
    pair = pair_amplitudes(ev.dec, 0, 3, times)
    for i, t in enumerate(times):
        assert diag[i] == pytest.approx(ev.amplitude(2, 2, float(t)), abs=1e-12)
        assert pair[i] == pytest.approx(ev.amplitude(0, 3, float(t)), abs=1e-12)


def test_diagonal_series_grid():
    ev = WalkEvaluator(decompose(complete(2)))
    series = ev.diagonal_series([0], 2 * math.pi, 101)
    assert series.shape == (101, 2)
    assert series[0, 0] == 0.0 and series[0, 1] == pytest.approx(1.0)
    assert series[-1, 0] == pytest.approx(2 * math.pi)
    # K_2 diagonal is |cos t|
    np.testing.assert_allclose(series[:, 1], np.abs(np.cos(series[:, 0])), atol=1e-12)
    assert np.array_equal(ev.diagonal_series([], 2 * math.pi, 101), series[:, :1])
    with pytest.raises(ValueError):
        ev.diagonal_series([0], -1.0, 10)
    with pytest.raises(ValueError):
        ev.diagonal_series([0], 1.0, 1)


@pytest.mark.parametrize(
    "graph,kind,steps,verts",
    [
        pytest.param(
            parse_graph("P(200)"), MatrixKind.adjacency(), 1001, None, id="P(200)-kind0-1001"
        ),
        pytest.param(
            parse_graph("cprod(C(13),C(13))"),
            MatrixKind.laplacian(),
            5001,
            None,
            id="cprod(C(13),C(13))-kind1-5001",
        ),
        pytest.param(
            parse_graph("P(400)"), MatrixKind.generalized(-1), 1001, None, id="P(400)-kind2-1001"
        ),
        # vertex 0 weighs 2 of the 6 classes and vertex 3 weighs 4, so the
        # columns have different exact zeros; 70,001 steps take two row blocks
        pytest.param(
            disjoint_union(complete(3), path(4)),
            MatrixKind.adjacency(),
            70001,
            [0, 3],
            id="K(3)+P(4)-kind0-70001",
        ),
    ],
)
def test_series_shares_one_phase_table(graph, kind, steps, verts):
    """Each series column is the one-vertex series, bit for bit, and lies
    within 1e-12 of one dense phase product."""
    ev = WalkEvaluator(decompose(graph, kind))
    verts = verts or list(range(0, ev.n, 7))
    table = ev.diagonal_series(verts, 23.5, steps)
    times = np.linspace(0.0, 23.5, steps)
    phases = np.exp(1j * np.outer(times, ev.dec.eigenvalues))
    assert np.array_equal(table[:, 0], times)
    for col, u in enumerate(verts, start=1):
        assert np.array_equal(table[:, col], ev.diagonal_series([u], 23.5, steps)[:, 1]), u
        dense = np.abs(phases @ ev.dec.diagonal_weights(u))
        np.testing.assert_allclose(table[:, col], dense, rtol=0, atol=1e-12, err_msg=str(u))


RATIONAL_WEIGHTS = (1, 2, 3, Fraction(1, 2), Fraction(1, 3))


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    picks=st.lists(st.sampled_from((0,) + RATIONAL_WEIGHTS), min_size=28, max_size=28),
    kind=st.sampled_from(SCAN_KINDS),
    t_max=st.floats(0.1, 1e3),
    steps=st.integers(2, 3000),
    verts=st.lists(st.integers(0, 7), min_size=2, max_size=4),
    rows=st.lists(st.integers(0, 2999), min_size=4, max_size=4),
)
def test_series_matches_the_oracle(oracle, n, picks, kind, t_max, steps, verts, rows):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, picks) if w])
    verts = [v % n for v in verts]
    table = WalkEvaluator(decompose(g, kind)).diagonal_series(verts, t_max, steps)
    for row in [r % steps for r in rows] + [steps - 1]:
        u_t = oracle(g, kind, float(table[row, 0]))
        for col, u in enumerate(verts, start=1):
            assert abs(table[row, col] - abs(u_t[u, u])) <= 1e-9, (row, u)


def test_series_memory_is_linear_in_the_steps():
    ev = WalkEvaluator(decompose(path(16)))
    for verts, steps in (([0], 1_000_000), ([0, 5, 10, 15], 500_000)):
        tracemalloc.start()
        try:
            table = ev.diagonal_series(verts, 3e5, steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert table.shape == (steps, 1 + len(verts))
        # np.linspace takes 8 bytes a step (8 and 4 MB) and a block of the product about
        # 1 MB; a (vertices x steps) temporary would add 16 MB to the 20 MB table of the
        # second call, the dense 1e6 x 16 complex phase matrix 256 MB to the first
        assert peak < table.nbytes + 12e6, (verts, peak - table.nbytes)


@pytest.mark.parametrize("ms", [[2, 3], [3, 4], [2, 2, 3], [5, 5]])
def test_complete_product_diagonal_oracle(oracle, ms):
    g = complete(ms[0])
    for m in ms[1:]:
        g = direct_product(g, complete(m))
    rng = np.random.default_rng(sum(ms))
    times = rng.uniform(0.0, 8.0, size=20)
    # every vertex of the product has the subset-sum diagonal
    got = WalkEvaluator(decompose(g)).diagonal_amplitudes(g.n - 1, times)
    for t, amp in zip(times, got):
        want = complete_product_diagonal(ms, float(t))
        assert want == pytest.approx(oracle(g, MatrixKind.adjacency(), float(t))[0, 0], abs=1e-8)
        assert amp == pytest.approx(want, abs=1e-8)


@pytest.mark.parametrize("m", [2, 3, 4])
def test_km_product_factor_walk(oracle, rand_graph, m):
    rng = np.random.default_rng(40 + m)
    y = rand_graph(rng, n=4, weights=(1, 2), connected=True)
    g = direct_product(complete(m), y)
    dec_y = decompose(y)
    ev = WalkEvaluator(decompose(g))
    for t in rng.uniform(0.0, 6.0, size=8):
        for v in range(y.n):
            want = km_product_diagonal(m, dec_y, v, float(t))
            got = oracle(g, MatrixKind.adjacency(), float(t))[v, v]
            assert got == pytest.approx(want, abs=1e-8)
            assert ev.amplitude(v, v, float(t)) == pytest.approx(want, abs=1e-8)


def test_bipartite_double_diagonal_is_real(rand_graph):
    rng = np.random.default_rng(50)
    y = rand_graph(rng, n=5, connected=True)
    ev_y = WalkEvaluator(decompose(y))
    ev = WalkEvaluator(decompose(direct_product(complete(2), y)))
    for t in rng.uniform(0.0, 9.0, size=10):
        amp = ev.amplitude(1, 1, float(t))
        assert amp.imag == pytest.approx(0.0, abs=1e-12)
        assert amp.real == pytest.approx(ev_y.amplitude(1, 1, float(t)).real, abs=1e-12)


def test_cosine_terms_match_diagonal():
    terms = _complete_product_cosine_terms([2, 3])
    assert terms == [(pytest.approx(2 / 3), 1.0), (pytest.approx(1 / 3), 2.0)]
    assert sum(c for c, _ in terms) == pytest.approx(1.0)
    times = np.linspace(0.0, 7.0, 29)
    got = WalkEvaluator(decompose(direct_product(complete(2), complete(3)))).diagonal_amplitudes(
        0, times
    )
    for t, amp in zip(times, got):
        val = sum(c * math.cos(f * t) for c, f in terms)
        assert amp == pytest.approx(val, abs=1e-12)


def test_cosine_terms_need_a_factor_of_two():
    terms = _complete_product_cosine_terms([2, 2, 3])
    assert sum(c for c, _ in terms) == pytest.approx(1.0)
    # without a factor of two the diagonal is not real, so no cosine form exists
    times = np.linspace(0.0, 7.0, 29)
    amps = WalkEvaluator(decompose(direct_product(complete(3), complete(3)))).diagonal_amplitudes(
        0, times
    )
    assert np.max(np.abs(amps.imag)) > 0.1


def test_infimum_periodic_is_certified(support_form):
    ev = WalkEvaluator(decompose(complete(2)))
    est = ev.infimum_diagonal(0, support_form(ev.dec, 0))
    assert est.mode is InfimumMode.EXACT_ON_PERIOD
    assert est.certified
    assert est.value == pytest.approx(0.0, abs=1e-8)
    assert est.attained_time == pytest.approx(math.pi / 2, abs=1e-6)


def test_infimum_cocktail_party_laplacian(support_form):
    ev = WalkEvaluator(decompose(cocktail_party(3), MatrixKind.laplacian()))
    est = ev.infimum_diagonal(0, support_form(ev.dec, 0), grid_points=8001)
    assert est.certified
    assert est.value == pytest.approx(1 / 3, abs=1e-9)
    assert est.attained_time == pytest.approx(math.pi / 2, abs=1e-6)


def test_infimum_constant_diagonal(support_form):
    ev = WalkEvaluator(decompose(WeightedGraph.from_edges(2, [])))
    est = ev.infimum_diagonal(0, support_form(ev.dec, 0))
    assert est.certified and est.value == 1.0


def test_infimum_unrecognized_support_is_uncertified(support_form):
    g = WeightedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    ev = WalkEvaluator(decompose(g))
    assert support_form(ev.dec, 0) is None
    est = ev.infimum_diagonal(0, None, grid_points=20001, horizon=80.0)
    assert est.mode is InfimumMode.GRID_LOWER_CONFIDENCE
    assert not est.certified
    assert est.horizon == 80.0
    assert 0.19 < est.value < 0.3


@pytest.mark.parametrize("kind", SCAN_KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize(
    "points,span", [(2, 1.0), (3, 7.5), (20001, 1e3), (777777, 3e5)]
)
def test_grid_kernel_matches_dense_phases(rand_graph, kind, points, span):
    rng = np.random.default_rng(points)
    g = rand_graph(rng, n=6, weights=(1, 2, 3))
    ev = WalkEvaluator(decompose(g, kind))
    u = int(rng.integers(g.n))
    got = ev.diagonal_series([u], span, points)[:, 1]
    assert got.shape == (points,)
    times = np.linspace(0.0, span, points)
    # both kernels round the phase t * lambda, so they differ by about eps * |t lambda|
    lam = float(np.max(np.abs(ev.dec.eigenvalues)))
    tol = 8 * np.finfo(float).eps * (1.0 + span * lam)
    block = 1 << 16
    for lo in range(0, points, block):
        ref = np.abs(ev.diagonal_amplitudes(u, times[lo : lo + block]))
        np.testing.assert_allclose(got[lo : lo + block], ref, rtol=0, atol=tol)


def test_bounded_scan_refines_below_the_dense_grid(support_form):
    g = WeightedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])
    ev = WalkEvaluator(decompose(g))
    est = ev.infimum_diagonal(0, support_form(ev.dec, 0), grid_points=20001, horizon=500.0)
    grid = np.abs(ev.diagonal_amplitudes(0, np.linspace(0.0, 500.0, 20001)))
    assert est.mode is InfimumMode.GRID_LOWER_CONFIDENCE
    assert est.value <= grid.min() + 1e-12
    assert est.value == pytest.approx(ev.magnitude(0, 0, est.attained_time), abs=1e-12)


def test_bounded_scan_memory_is_linear_in_the_grid(support_form):
    ev = WalkEvaluator(decompose(path(16)))
    form = support_form(ev.dec, 0)
    tracemalloc.start()
    try:
        est = ev.infimum_diagonal(0, form, grid_points=1_000_001, horizon=3e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.grid_points == 1_000_001
    # the scan holds the real and imaginary parts of one row block, 1 MB; the
    # whole grid held 8 MB more (9.6 MB measured), an argpartition of it would
    # add 16 MB, the dense 1e6 x 16 complex phase matrix 256 MB
    assert peak < 12e6


def test_bounded_scan_holds_one_row_block():
    ev = WalkEvaluator(decompose(path(9)))
    tracemalloc.start()
    try:
        est = ev.infimum_diagonal(0, None, grid_points=1 << 22, horizon=3e5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.grid_points == 1 << 22
    # the real and imaginary parts of one row block (31 x 2049 floats, 0.5 MB
    # each; the squares overwrite the real part), the [cos; sin] baby table
    # (18 x 2049 floats, 0.3 MB) and the two giant parts (2048 x 18 floats,
    # 0.3 MB each): 2.1 MB measured; the whole grid took 32 MB more
    assert peak < 4e6


def _streamed_seeds(ev: WalkEvaluator, u: int, span: float, points: int):
    """The bounded scan's five seeds and their values, from its streamed grid,
    and the number of blocks the grid came in."""
    starts = []

    def blocks():
        weights = ev.dec.diagonal_weights(u)[None]
        for item in _grid_blocks(ev.dec.eigenvalues, weights, span, points):
            starts.append(item[1])
            yield item

    seeds, values = _least_entries(blocks(), 5)
    return seeds, values, len(starts)


@pytest.mark.parametrize(
    "graph, u, span, points, blocks",
    [
        pytest.param("P(9)", 0, 40.0, _SEED_CHUNK - 7, 1, id="below-one-chunk"),
        # 256 giant rows of 256 baby steps: exactly one row block
        pytest.param("P(16)", 3, 1e3, 1 << 16, 1, id="one-block"),
        pytest.param("cprod(P(3),P(4))", 0, 3e4, 1_000_001, 16, id="many-blocks"),
        # |U(t)_00| = |cos t| on K(2) is least at the last point, t = pi / 2
        pytest.param("K(2)", 0, math.pi / 2, 70001, 2, id="minimum-at-the-last-point"),
    ],
)
def test_streamed_seeds_match_the_whole_grid(graph, u, span, points, blocks):
    ev = WalkEvaluator(decompose(parse_graph(graph)))
    grid = ev.diagonal_series([u], span, points)[:, 1]
    want = _least_indices(grid, 5)
    seeds, values, count = _streamed_seeds(ev, u, span, points)
    assert count == blocks
    np.testing.assert_array_equal(seeds, want)
    # the scan holds squares; a series column is their square root, bit for bit
    np.testing.assert_array_equal(np.sqrt(values), grid[want])
    if graph == "K(2)":
        assert seeds[0] == points - 1


@settings(max_examples=200, deadline=None)
@given(
    cuts=st.lists(st.integers(1, 3 * _SEED_CHUNK), min_size=1, max_size=12),
    levels=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
    decreasing=st.booleans(),
)
@example(cuts=[3], levels=2, seed=0, decreasing=False)
@example(cuts=[_SEED_CHUNK - 1, 1, _SEED_CHUNK], levels=1, seed=1, decreasing=False)
@example(cuts=[5, 5, 5, 5], levels=2, seed=2, decreasing=False)
@example(cuts=[2 * _SEED_CHUNK + 3] * 6, levels=3, seed=3, decreasing=False)
# more than _SEED_CHUNK entries of the second block lie below the fifth held value
@example(cuts=[5, 3 * _SEED_CHUNK], levels=6, seed=4, decreasing=True)
# every later block's minimum equals the fifth held value, at a later index: skipped
@example(cuts=[5, 3, _SEED_CHUNK], levels=1, seed=5, decreasing=False)
# one-entry blocks, before and after five are held
@example(cuts=[1] * 12, levels=3, seed=6, decreasing=False)
@example(cuts=[1] * 12, levels=6, seed=7, decreasing=True)
def test_least_entries_match_the_whole_grid(cuts, levels, seed, decreasing):
    # few distinct levels tie the least values within a block, across blocks
    # and at the fifth value; a decreasing grid puts most of a block below it
    rng = np.random.default_rng(seed)
    grid = rng.random(levels)[rng.integers(0, levels, size=sum(cuts))]
    if decreasing:
        grid = np.sort(grid)[::-1]
    starts = np.cumsum([0] + cuts[:-1]).tolist()
    blocks = ((0, lo, grid[lo : lo + cut]) for lo, cut in zip(starts, cuts))
    seeds, values = _least_entries(blocks, 5)
    want = _least_indices(grid, 5)
    np.testing.assert_array_equal(seeds, want)
    np.testing.assert_array_equal(values, grid[want])


def test_join_perturbation_bound_holds(oracle):
    # joining moves every diagonal modulus of X by at most 2/|V(X)|
    x = path(3)
    joined = join(x, path(2))
    kind = MatrixKind.laplacian()
    worst = 0.0
    for t in np.linspace(0.01, 12.0, 60):
        a = abs(oracle(joined, kind, float(t))[1, 1])
        b = abs(oracle(x, kind, float(t))[1, 1])
        worst = max(worst, abs(a - b))
    assert worst <= 2 / x.n + 1e-9


def test_join_perturbation_bound_regular_adjacency(oracle):
    x = complete(4)
    joined = join(x, complete(3))
    kind = MatrixKind.adjacency()
    for t in np.linspace(0.01, 10.0, 50):
        a = abs(oracle(joined, kind, float(t))[0, 0])
        b = abs(oracle(x, kind, float(t))[0, 0])
        assert abs(a - b) <= 2 / x.n + 1e-9


@settings(max_examples=300, deadline=None)
@given(
    length=st.integers(1, 20_000),
    levels=st.integers(1, 40),
    count=st.integers(1, 8),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=1, levels=1, count=5, seed=0)
@example(length=3, levels=2, count=8, seed=1)
@example(length=_SEED_CHUNK - 1, levels=3, count=5, seed=2)
@example(length=_SEED_CHUNK, levels=3, count=5, seed=3)
@example(length=5 * _SEED_CHUNK, levels=1, count=5, seed=4)
@example(length=6 * _SEED_CHUNK + 1, levels=2, count=5, seed=5)
@example(length=20_000, levels=1, count=5, seed=6)
def test_least_indices_match_a_full_lexsort(length, levels, count, seed):
    # few distinct levels put ties inside chunks, across chunk minima and at the cut
    rng = np.random.default_rng(seed)
    values = rng.random(levels)[rng.integers(0, levels, size=length)]
    want = np.lexsort((np.arange(length), values))[:count]
    np.testing.assert_array_equal(_least_indices(values, count), want)


@pytest.mark.parametrize("power", [1, 2, 3])
def test_refinement_stops_where_doubles_outgrow_the_tolerance(power):
    # near 6e5 adjacent doubles lie about 1.2e-10 apart, above the 1e-10 tolerance;
    # g = (t - c)^power has a root of phi' of order 2 power - 1, so Newton
    # converges quadratically at power 1 and only linearly, with bisections, above
    c = 6e5 + 0.0123456789
    poly = np.polynomial.Polynomial.basis(power)
    jet = lambda times: np.array([poly.deriv(m)(times - c) for m in range(3)])
    t, v = _refined_minimum(jet, np.array([6e5 - 0.1]), np.array([6e5 + 0.1]))
    assert abs(t - c) < 1e-9
    assert v == pytest.approx(abs(t - c) ** power, rel=1e-12)


def test_refinement_stays_in_its_bracket():
    # g = (t - 0.82)(t - 1) + 0.001 has zeros at 0.8257 and 0.9943; from the
    # chord start in the last sub-interval of [0, 1], a Newton step unchecked
    # against the bracket lands at 1.0018
    poly = np.polynomial.Polynomial.fromroots([0.82, 1.0]) + 0.001
    seen = []

    def jet(times):
        seen.append(times)
        return np.array([poly.deriv(m)(times) for m in range(3)])

    t, v = _refined_minimum(jet, np.array([0.0]), np.array([1.0]))
    evaluated = np.concatenate(seen)
    assert 0.0 <= evaluated.min() and evaluated.max() <= 1.0
    assert min(abs(t - r) for r in poly.roots()) < 1e-9 and v < 1e-12


def test_refinement_keeps_a_near_stop_of_the_walk(support_form):
    # U(t)_00 nearly stops at the origin here (|U'| about 1e-3), so |U| has two
    # local minima 6e-4 apart, 3.5e-10 in value; golden-section search reported
    # 0.000426846378059
    ev = WalkEvaluator(decompose(parse_graph("KM(2,1,1,1,1,1,1,1)")))
    est = ev.infimum_diagonal(0, support_form(ev.dec, 0))
    assert est.mode is InfimumMode.GRID_LOWER_CONFIDENCE
    assert abs(est.value - 0.000426846378059) < 1e-9
    assert est.value == pytest.approx(ev.magnitude(0, 0, est.attained_time), abs=1e-12)


@settings(max_examples=150, deadline=None)
@given(
    weights=st.lists(st.integers(0, 3), min_size=15, max_size=15),
    kind=st.sampled_from(SCAN_KINDS),
    u=st.integers(0, 5),
    span=st.floats(1.0, 100.0),
    density=st.floats(16.0, 40.0),
)
def test_refined_scan_minimum_is_a_least_bracket_value(
    support_form, weights, kind, u, span, density
):
    pairs = [(a, b) for a in range(6) for b in range(a + 1, 6)]
    g = WeightedGraph.from_edges(6, [(a, b, w) for (a, b), w in zip(pairs, weights) if w])
    ev = WalkEvaluator(decompose(g, kind))
    # the grid follows the scan's own sizing rule: 16 or more points per period of the spread
    spread = float(ev.dec.eigenvalues[0] - ev.dec.eigenvalues[-1])
    points = int(span * max(spread, 1.0) * density / (2 * math.pi)) + 2
    est = ev.infimum_diagonal(u, support_form(ev.dec, u), grid_points=points, horizon=span)
    assume(est.mode is InfimumMode.GRID_LOWER_CONFIDENCE)
    grid = ev.diagonal_series([u], span, points)[:, 1]
    assert est.value <= grid.min()
    assert abs(ev.magnitude(u, u, est.attained_time) - est.value) <= 1e-12
    h = span / (points - 1)
    dense = min(
        np.abs(ev.diagonal_amplitudes(u, np.linspace(max(0.0, i * h - h), min(span, i * h + h), 4001))).min()
        for i in _least_indices(grid, 5)
    )
    assert est.value <= dense + 1e-9


def test_minimizer_runs_once_per_twin_set(monkeypatch):
    calls = 0

    def counted(coefficients):
        nonlocal calls
        calls += 1
        return critical_angles(coefficients)

    critical_angles = walk_module._critical_angles
    monkeypatch.setattr(walk_module, "_critical_angles", counted)
    # the six twin pairs of CP(12) are one exact cospectral class: one solve serves all
    records = classify_all(cocktail_party(6), MatrixKind.laplacian())
    assert len(records) == 12 and calls == 1
    assert records[0].evidence.mode is InfimumMode.EXACT_ON_PERIOD
    assert all(rec.evidence == records[0].evidence for rec in records)


def _scans(monkeypatch) -> list[int]:
    """A list that records the vertex of every later ``infimum_diagonal`` call."""
    seen: list[int] = []
    infimum = WalkEvaluator.infimum_diagonal

    def counted(self, u, *args):
        seen.append(u)
        return infimum(self, u, *args)

    monkeypatch.setattr(WalkEvaluator, "infimum_diagonal", counted)
    return seen


def _path(n: int, weight) -> WeightedGraph:
    return WeightedGraph.from_edges(n, [(i, i + 1, weight) for i in range(n - 1)])


@pytest.mark.parametrize(
    "graph, kind, scans",
    [
        # vertex-transitive, no twins: one period solve serves all 15 vertices
        pytest.param("dprod(K(3),K(5))", "A", [0], id="dprod(K(3),K(5))-A"),
        # the mirror pairs of P(8): four bounded scans instead of eight
        pytest.param(_path(8, 1), "A", [0, 1, 2, 3], id="P(8)-A"),
        # the weights are compared as floats, whatever the edge weights are
        pytest.param(_path(8, 1.0), "A", [0, 1, 2, 3], id="P(8)-float-weights"),
        pytest.param(_path(8, 2**20), "A", [0, 1, 2, 3], id="P(8)-weight-2**20"),
        # six twin pairs: one scan, with an exact or a float q
        pytest.param("CP(12)", "Mq:2", [0], id="CP(12)-Mq:2"),
        pytest.param("CP(12)", "Mq:2.0", [0], id="CP(12)-Mq:2.0"),
        # the mirror pairs of P(54): one scan per pair
        pytest.param("P(54)", "A", list(range(27)), id="P(54)-A"),
    ],
)
def test_one_scan_per_exact_cospectral_class(monkeypatch, graph, kind, scans):
    g = parse_graph(graph) if isinstance(graph, str) else graph
    seen = _scans(monkeypatch)
    records = classify_all(g, MatrixKind.parse(kind), grid_points=2001)
    assert seen == scans
    mode = records[0].evidence.mode
    assert all(rec.evidence.mode is mode for rec in records)


@pytest.mark.parametrize(
    "edges, u, v, steps",
    [
        # (A^2)_uu = 9 and 1: the counts differ at i = 2 < K = 3, the degree of
        # x (x^2 - 10), which annihilates both leaves
        pytest.param([(0, 2, 3), (1, 2, 1)], 0, 1, 3, id="star-annihilator"),
        # an unrecognized support: Cayley-Hamilton, counts differ first at i = 4 < K = 5
        pytest.param(
            [(0, 1, 2), (1, 3, 3), (1, 4, 2), (2, 3, 2), (3, 4, 3)], 0, 2, 5, id="cayley-hamilton"
        ),
    ],
)
def test_near_miss_counts_keep_their_scans(monkeypatch, edges, u, v, steps):
    """Two vertices with the same support whose closed-walk counts agree below
    i = K - 1 and differ at it get a scan each."""
    g = WeightedGraph.from_edges(max(max(e[:2]) for e in edges) + 1, edges)
    m = g.matrix(MatrixKind.adjacency())
    counts = [np.linalg.matrix_power(m, i) for i in range(steps)]
    assert [c[u, u] for c in counts[:-1]] == [c[v, v] for c in counts[:-1]]
    assert counts[-1][u, u] != counts[-1][v, v]
    dec = decompose(g)
    assert dec.support(u).indices == dec.support(v).indices
    seen = _scans(monkeypatch)
    records = classify_all(g, grid_points=2001)
    assert u in seen and v in seen
    assert records[u].evidence is not records[v].evidence


@settings(max_examples=100, deadline=None)
@given(
    n=st.integers(2, 8),
    picks=st.lists(st.sampled_from((0,) + RATIONAL_WEIGHTS), min_size=28, max_size=28),
    mirror=st.booleans(),
    kind=st.sampled_from(SCAN_KINDS),
    times=st.lists(st.floats(0.0, 50.0), min_size=1, max_size=4),
)
def test_shared_scans_have_equal_diagonals(oracle, n, picks, mirror, kind, times):
    """Vertices that share a scan have the same |U(t)_{uu}| at every t.  A
    mirrored graph (weight(u, v) = weight(n-1-v, n-1-u)) has many such pairs."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    weight = dict(zip(pairs, picks))
    if mirror:
        weight = {(u, v): weight[min((u, v), (n - 1 - v, n - 1 - u))] for u, v in pairs}
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in weight.items() if w])
    records = classify_all(g, kind, grid_points=2001)
    first: dict[int, int] = {}
    shared = [(first.setdefault(id(rec.evidence), u), u) for u, rec in enumerate(records)]
    dec = decompose(g, kind)
    for w, u in shared:
        gap = np.abs(dec.diagonal_weights(w) - dec.diagonal_weights(u)).sum()
        assert gap <= SHARE_TOL, (w, u, gap)
    for t in times:
        u_t = oracle(g, kind, t)
        for w, u in shared:
            assert abs(u_t[w, w] - u_t[u, u]) <= 1e-9, (w, u, t)


def _decomposition_with_support(eigenvalues, weights) -> SpectralDecomposition:
    """One class per eigenvalue, with diagonal weights ``weights`` at vertex 0."""
    order = np.argsort(eigenvalues)[::-1]
    lam = np.asarray(eigenvalues, dtype=float)[order]
    root = np.sqrt(np.asarray(weights, dtype=float)[order])
    # the Householder reflection swapping e_0 and root: orthogonal, with row 0 = root
    v = root - np.eye(len(root))[0]
    vectors = np.eye(len(root)) - 2.0 * np.outer(v, v) / (v @ v)
    k = len(lam)
    return SpectralDecomposition(MatrixKind.adjacency(), lam, vectors, (1,) * k, np.arange(k))


@pytest.mark.parametrize("seed", range(20))
def test_period_minimum_against_dense_grid(period_reference, support_form, seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(2, 9))
    exponents = rng.choice(41, size=k, replace=False)
    weights = rng.uniform(0.05, 1.0, size=k)
    offset = int(rng.integers(-5, 6))
    ev = WalkEvaluator(_decomposition_with_support(exponents + offset, weights / weights.sum()))
    est = ev.infimum_diagonal(0, support_form(ev.dec, 0))
    assert est.mode is InfimumMode.EXACT_ON_PERIOD
    period_reference(ev, 0, est)


def test_period_minimum_of_a_double_zero(support_form):
    # q(z) = z^12/24 + z/2 + 11/24 has a double root at z = -1, an end of the half period
    dec = decompose(cocktail_party(12))
    est = WalkEvaluator(dec).infimum_diagonal(2, support_form(dec, 2))
    assert est.certified and est.value <= 1e-14
    assert est.attained_time == pytest.approx(math.pi / 2, abs=1e-6)
    # q(z) = (1 + z + z^2)^2 / 9 has double roots inside it, at z = exp(+-2 pi i / 3);
    # the solver scatters the triple root of the derivative, and the cluster mean finds it
    dec = _decomposition_with_support(np.arange(5), np.array([1, 2, 3, 2, 1]) / 9)
    est = WalkEvaluator(dec).infimum_diagonal(0, support_form(dec, 0))
    assert est.value <= 1e-14
    assert est.attained_time == pytest.approx(2 * math.pi / 3, abs=1e-9)


def test_series_above_the_degree_cap_is_not_certified(monkeypatch, support_form):
    # a leaf of star(5) under L has support {0, 1, 6}: a series of degree 6
    ev = WalkEvaluator(decompose(star(5), MatrixKind.laplacian()))
    form = support_form(ev.dec, 1)
    assert ev.infimum_diagonal(1, form).certified
    monkeypatch.setattr(walk_module, "_MAX_DEGREE", 4)
    est = ev.infimum_diagonal(1, form)
    assert est.mode is InfimumMode.GRID_LOWER_CONFIDENCE
    assert not est.certified


def test_degree_cap_is_checked_before_the_series_is_built(support_form):
    # the end vertices of this triangle have a series of degree 3.1e12: its
    # coefficient array alone would take 25 TB
    g = WeightedGraph.from_edges(3, [(0, 1, 2**40), (1, 2, 2**40), (0, 2, 1)])
    tracemalloc.start()
    try:
        dec = decompose(g)
        est = WalkEvaluator(dec).infimum_diagonal(0, support_form(dec, 0), grid_points=2001)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.mode is InfimumMode.GRID_LOWER_CONFIDENCE
    assert peak < 2**20, peak
