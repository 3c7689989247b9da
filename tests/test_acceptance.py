"""Acceptance gate: one test per shipped guarantee, at the stated tolerances.

Each test is numbered; the terminal summary prints a PASS/FAIL line per
criterion.  These pin the behaviour the package promises end to end, so
tolerances here are contractual, not tunable.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from closedforms import complete_product_diagonal
from sedwalk import (
    MatrixKind,
    ThresholdSpec,
    Verdict,
    WalkEvaluator,
    classify_all,
    classify_vertex,
    cocktail_party,
    complete,
    complete_multipartite,
    complete_product_verdict,
    cycle,
    decompose,
    direct_product,
    find_twin_sets,
    join,
    path,
    star,
    threshold,
    threshold_vertex_verdict,
    WeightedGraph,
    blow_up,
)
from sedwalk.families import multipartite_laplacian_verdict

A = MatrixKind.adjacency()
L = MatrixKind.laplacian()


def evaluator(g, kind) -> WalkEvaluator:
    return WalkEvaluator(decompose(g, kind))


def grid_min(ev: WalkEvaluator, u: int, span: float, pts: int) -> tuple[float, float]:
    """Minimum of |U(t)_{u,u}| on np.linspace(0, span, pts), with its argmin."""
    mags = ev.diagonal_series([u], span, pts)[:, 1]
    k = int(np.argmin(mags))
    return float(mags[k]), k * span / (pts - 1)


def clique_minus_edge(n: int) -> tuple[WeightedGraph, list[int]]:
    parts = [2] + [1] * (n - 2)
    return complete_multipartite(parts), parts


def pendant_path() -> WeightedGraph:
    # path on five vertices with one extra leaf hanging off the second vertex
    return WeightedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])


def twin_partner(g: WeightedGraph, u: int) -> int:
    for ts in find_twin_sets(g):
        if u in ts.members:
            return ts.partner_of(u)
    raise AssertionError(f"vertex {u} has no twin")


def test_criterion_01_star_apex_zero():
    for n in range(3, 13):
        g = star(n)
        ev = evaluator(g, A)
        assert ev.magnitude(0, 0, math.pi / (2 * math.sqrt(n))) < 1e-9, n


def test_criterion_02_cocktail_party_laplacian():
    for k in range(2, 9):
        g = cocktail_party(k)
        ev = evaluator(g, L)
        if k % 2 == 0:
            v = twin_partner(g, 0)
            assert ev.magnitude(0, v, math.pi / 2) > 1 - 1e-9, k
        else:
            ts = np.linspace(0.0, math.pi, 20001)
            mags = np.abs(ev.diagonal_amplitudes(0, ts))
            i = int(np.argmin(mags))
            assert mags[i] == pytest.approx(1 / k, abs=1e-6), k
            assert ts[i] == pytest.approx(math.pi / 2, abs=1e-3), k


def test_criterion_03_random_multipartite_match(rand_graph):
    rng = np.random.default_rng(120)
    seen = 0
    while seen < 30:
        parts = [int(rng.integers(1, 7)) for _ in range(int(rng.integers(1, 6)))]
        if sum(parts) > 20:
            continue
        seen += 1
        ell = int(rng.integers(0, len(parts)))
        fv = multipartite_laplacian_verdict(parts, ell)
        g = complete_multipartite(parts)
        u = sum(parts[:ell])
        rec = classify_vertex(g, L, u)
        assert rec.verdict is fv.verdict, (parts, ell)
        ev = evaluator(g, L)
        if fv.constant is not None and fv.tight:
            gmin, _ = grid_min(ev, u, 2 * math.pi, 40004)
            assert abs(gmin - fv.constant) <= 1e-6, (parts, ell)
            assert ev.magnitude(u, u, fv.time) == pytest.approx(fv.constant, abs=1e-8)
        elif fv.bound is not None:
            gmin, _ = grid_min(ev, u, 2 * math.pi, 40004)
            assert gmin >= fv.bound - 1e-6, (parts, ell)


def test_criterion_04_clique_minus_edge():
    for n in range(3, 13):
        g, parts = clique_minus_edge(n)
        ev = evaluator(g, L)
        fv = multipartite_laplacian_verdict(parts, 0)
        if n % 4 == 0:
            assert fv.verdict is Verdict.PST
            assert ev.magnitude(0, 1, math.pi / 2) > 1 - 1e-9, n
        elif n == 3:
            assert ev.magnitude(0, 0, math.pi) == pytest.approx(1 / 3, abs=1e-8)
            gmin, _ = grid_min(ev, 0, 2 * math.pi, 40004)
            assert gmin >= 1 / 3 - 1e-6
        elif n % 2 == 0:  # n = 2 mod 4
            assert fv.constant == pytest.approx(2 / n)
            assert ev.magnitude(0, 0, math.pi / 2) == pytest.approx(2 / n, abs=1e-8)
            gmin, _ = grid_min(ev, 0, 2 * math.pi, 40004)
            assert gmin == pytest.approx(2 / n, abs=1e-6), n
        else:  # odd n >= 5
            c = math.sqrt(2) / n
            assert fv.constant == pytest.approx(c)
            assert ev.magnitude(0, 0, math.pi / 2) == pytest.approx(c, abs=1e-8)
            gmin, _ = grid_min(ev, 0, 2 * math.pi, 40004)
            assert gmin == pytest.approx(c, abs=1e-6), n
        # clique vertices sit at 1 - 2/n, first reached at pi/n
        cc = 1 - 2 / n
        assert ev.magnitude(2, 2, math.pi / n) == pytest.approx(cc, abs=1e-8), n
        gmin, _ = grid_min(ev, 2, 2 * math.pi, 40004)
        assert gmin == pytest.approx(cc, abs=1e-6), n

    for n in range(5, 13):
        g, parts = clique_minus_edge(n)
        dec = decompose(g, A)
        ev = WalkEvaluator(dec)
        sup = dec.support(2)
        gamma = max(sup.values) - min(sup.values)
        span = 200 * 2 * math.pi / gamma
        gmin, _ = grid_min(ev, 2, span, 400004)
        c = 1 - 2 / (n - 2)
        assert gmin >= c - 1e-6, n
        assert gmin <= c + 1e-3, n
        rec = classify_vertex(g, A, 0)
        assert rec.verdict in (Verdict.PGST, Verdict.PST), n


def test_criterion_05_join_apex_floor(rand_graph):
    rng = np.random.default_rng(7)
    ys = [cycle(4), path(5), complete(4), rand_graph(rng, 8, connected=True)]
    for y in ys:
        g = join(complete(2), y)
        n_tot = g.n
        c = (n_tot - 2) / n_tot
        ev = evaluator(g, L)
        assert ev.magnitude(0, 0, math.pi / n_tot) == pytest.approx(c, abs=1e-9)
        gmin, targ = grid_min(ev, 0, math.pi, 100004)
        assert gmin == pytest.approx(c, abs=1e-6)
        assert gmin >= c - 1e-6
        # minima recur at every odd multiple of pi / n_tot
        assert (targ * n_tot / math.pi) == pytest.approx(
            round(targ * n_tot / math.pi), abs=1e-3
        )
        assert round(targ * n_tot / math.pi) % 2 == 1


def test_criterion_06_pendant_path_quartic():
    g = pendant_path()
    m = g.matrix(A)
    lam = np.linalg.eigvalsh(m)
    roots = np.sort(np.roots(np.poly(m)).real)
    assert np.allclose(lam, roots, atol=1e-8)
    dec = decompose(g, A)
    sup = dec.support(0)
    for v in sup.values:
        assert np.min(np.abs(lam - v)) < 1e-8
    ev = WalkEvaluator(dec)
    gmin, _ = grid_min(ev, 0, 500.0, 1000004)
    assert abs(gmin - 0.2) <= 1e-2
    assert gmin >= 0.2 - 1e-6


def test_criterion_07_clique_product_constants():
    fv = complete_product_verdict([3, 3])
    assert abs(complete_product_diagonal([3, 3], math.pi)) == pytest.approx(1 / 9, abs=1e-12)
    assert fv.constant == pytest.approx(1 / 9) and fv.time == pytest.approx(math.pi)
    ts = np.linspace(0.0, 2 * math.pi, 20001)
    mags = np.abs([complete_product_diagonal([3, 3], float(t)) for t in ts])
    assert mags.min() >= 1 / 9 - 1e-9
    assert mags.min() == pytest.approx(1 / 9, abs=1e-6)

    ts = np.linspace(0.0, 2 * math.pi, 200001)
    g = direct_product(complete(3), complete(4))
    mags = np.abs(evaluator(g, A).diagonal_amplitudes(0, ts))
    i = int(np.argmin(mags))
    assert mags[i] == pytest.approx(0.142, abs=5e-4)
    folded = min(ts[i], 2 * math.pi - ts[i])  # |U(-t)| = |U(t)| mirrors the minimum
    assert folded == pytest.approx(0.945, abs=1e-3)

    for n in range(3, 9):
        fv = complete_product_verdict([2, n])
        assert fv.verdict is Verdict.NOT_SEDENTARY, n
        assert abs(complete_product_diagonal([2, n], fv.time)) < 1e-9, n

    fv = complete_product_verdict([5, 5])
    assert abs(complete_product_diagonal([5, 5], math.pi)) == pytest.approx(7 / 25, abs=1e-12)
    assert fv.constant == pytest.approx(7 / 25) and fv.time == pytest.approx(math.pi)


def test_criterion_08_product_diagonal_oracle(oracle):
    rng = np.random.default_rng(41)
    for ms in ([2, 3], [3, 4], [2, 2, 3], [2, 3, 4], [4, 6], [3, 3]):
        g = complete(ms[0])
        for m in ms[1:]:
            g = direct_product(g, complete(m))
        assert g.n <= 24
        for t in rng.uniform(0.0, 10.0, size=20):
            want = oracle(g, A, float(t))[0, 0]
            got = complete_product_diagonal(ms, float(t))
            assert abs(got - want) < 1e-8, (ms, t)


def test_criterion_09_blowup_supports_and_floors(rand_graph):
    # support scaling, and the floor on vertices carrying no weight at
    # eigenvalue zero (draws are resampled until that holds; the weighted
    # zero case is exercised by the star leaf below)
    rng = np.random.default_rng(90)
    accepted = 0
    for _ in range(400):
        if accepted == 20:
            break
        n = int(rng.integers(3, 7))
        x = rand_graph(rng, n, connected=True)
        u = int(rng.integers(0, n))
        sup_x = decompose(x, A).support(u)
        if any(abs(v) < 1e-9 for v in sup_x.values):
            continue
        accepted += 1
        for m in (2, 3, 4):
            b = blow_up(m, x)
            sup_b = decompose(b, A).support(u)  # copy 0 of u keeps its index
            expected = sorted({m * v for v in sup_x.values} | {0.0})
            got = sorted(sup_b.values)
            assert len(got) == len(expected), (n, m, u)
            assert np.allclose(got, expected, atol=1e-8), (n, m, u)
            if m >= 3:
                gmin, _ = grid_min(evaluator(b, A), u, 30.0, 30004)
                assert gmin >= 1 - 2 / m - 1e-6, (n, m, u)
    assert accepted == 20

    # a star leaf keeps weight 2/3 at eigenvalue zero; blowing up scales
    # that contribution by 1/m and the resulting floor is attained
    for m in (3, 4):
        b = blow_up(m, star(3))
        floor = 1 - 2 / m + 2 * (2.0 / 3.0) / m
        gmin, _ = grid_min(evaluator(b, A), 1, 30.0, 30004)
        assert gmin >= floor - 1e-6, m
        assert gmin <= floor + 1e-3, m

    b = blow_up(2, complete(3))
    rec = classify_vertex(b, A, 0)
    assert rec.verdict is Verdict.SEDENTARY
    assert rec.constant is not None and rec.constant > 0
    gmin, _ = grid_min(evaluator(b, A), 0, 40.0, 40004)
    assert gmin >= rec.constant - 1e-6
    assert gmin > 0.01


def test_criterion_10_join_perturbation(rand_graph):
    rng = np.random.default_rng(300)
    pairs = [
        (complete(4), complete(3), A),
        (cycle(5), path(3), A),
        (cocktail_party(3), complete(2), A),
        (cycle(6), cycle(4), A),
        (complete(5), star(2), A),
        (path(3), path(2), L),
        (star(3), complete(3), L),
        (pendant_path(), complete(2), L),
        (threshold([2, 3]), cycle(4), L),
        (rand_graph(rng, 5, connected=True), rand_graph(rng, 4), L),
    ]
    ts = np.linspace(0.01, 15.0, 1500)
    for x, y, kind in pairs:
        joined = join(x, y)
        ref = np.abs(evaluator(x, kind).diagonal_amplitudes(0, ts))
        got = np.abs(evaluator(joined, kind).diagonal_amplitudes(0, ts))
        assert float(np.max(np.abs(got - ref))) <= 2 / x.n + 1e-9

    # the constant 7/25 of K5 x K5 survives the join less 2/|V(X)|
    big = direct_product(complete(5), complete(5))
    floor = 7 / 25 - 2 / big.n
    assert floor == pytest.approx(0.2)
    joined = join(big, complete(3))
    gmin, _ = grid_min(evaluator(joined, A), 0, 20.0, 40004)
    assert gmin >= floor - 1e-6
    rec = classify_vertex(joined, A, 0)
    assert rec.certified and rec.constant >= floor - 1e-12


def test_criterion_11_threshold_sweep():
    checked = 0
    for total in range(1, 13):
        for h in range(1, 6):
            for cut in itertools.combinations(range(1, total), h - 1):
                cells = tuple(
                    b - a for a, b in zip((0,) + cut, cut + (total,))
                )
                for starts_empty in (True, False):
                    spec = ThresholdSpec(cells, starts_empty=starts_empty)
                    g = threshold(list(cells), starts_empty=starts_empty)
                    try:
                        verdicts = [
                            threshold_vertex_verdict(spec, j)
                            for j in range(1, spec.h + 1)
                        ]
                    except ValueError:
                        lam = np.linalg.eigvalsh(g.matrix(L))
                        assert np.sum(np.abs(lam) < 1e-9) >= 2, (cells, starts_empty)
                        continue
                    checked += 1
                    dec = decompose(g, L)
                    ev = WalkEvaluator(dec)
                    if g.n > 1:
                        direct_pst = any(
                            ev.magnitude(0, v, math.pi / 2) > 1 - 1e-9
                            for v in range(1, g.n)
                        )
                        assert (verdicts[0].verdict is Verdict.PST) == direct_pst, (
                            cells,
                            starts_empty,
                        )
                    from sedwalk import threshold_support

                    for j, fv in enumerate(verdicts, start=1):
                        u = spec.alpha(j - 1)
                        want = tuple(sorted(threshold_support(spec, j), reverse=True))
                        got = tuple(
                            sorted((round(v) for v in dec.support(u).values), reverse=True)
                        )
                        assert want == got, (cells, starts_empty, j)
                        target = fv.constant if fv.constant is not None else fv.bound
                        if target is not None:
                            gmin, _ = grid_min(ev, u, 2 * math.pi, 8004)
                            assert gmin >= target - 1e-6, (cells, starts_empty, j)
                            if fv.tight:
                                assert gmin == pytest.approx(target, abs=1e-3)
    assert checked > 700


def test_criterion_12_flag_exclusivity():
    graphs = [
        complete(2),
        complete(4),
        star(3),
        star(4),
        cocktail_party(2),
        cocktail_party(3),
        threshold([2, 3]),
        threshold([2, 6]),
        pendant_path(),
        complete_multipartite([2, 2, 2]),
        complete_multipartite([1, 5]),
        blow_up(2, complete(3)),
        direct_product(complete(3), complete(3)),
    ]
    for g in graphs:
        for kind in (A, L):
            for rec in classify_all(g, kind):
                assert not (rec.tight and rec.sharp), (rec.vertex, kind.short_name)
                if rec.verdict is Verdict.PST:
                    assert rec.partner is not None and rec.pst_time is not None
                if rec.verdict is Verdict.SEDENTARY:
                    assert rec.constant is not None and rec.constant > 0
                    assert rec.pst_time is None
                if rec.tight:
                    assert rec.constant is not None
                    assert rec.tightness_time is not None
                    ev = evaluator(g, kind)
                    assert ev.magnitude(
                        rec.vertex, rec.vertex, rec.tightness_time
                    ) == pytest.approx(rec.constant, abs=1e-8)
                if rec.evidence is not None and rec.constant is not None and rec.certified:
                    assert rec.evidence.value >= rec.constant - 1e-9


def test_criterion_13_twin_inequality(rand_graph, pair_amplitudes):
    rng = np.random.default_rng(77)
    graphs = [
        complete(4),
        complete(6),
        cocktail_party(3),
        star(4),
        threshold([2, 3]),
        threshold([2, 2, 4], starts_empty=False),
        complete_multipartite([2, 1, 1, 1]),
        join(complete(2), cycle(4)),
        blow_up(3, path(3)),
        rand_graph(rng, 6, connected=True),
    ]
    for g in graphs:
        sets = find_twin_sets(g)
        pairs = [
            (ts.members[i], ts.members[i + 1])
            for ts in sets
            for i in range(len(ts.members) - 1)
        ]
        if not pairs:
            continue
        times = rng.uniform(0.0, 60.0, size=200)
        for kind in (A, L):
            ev = evaluator(g, kind)
            for u, v in pairs:
                duu = np.abs(ev.diagonal_amplitudes(u, times))
                duv = np.abs(pair_amplitudes(ev.dec, u, v, times))
                assert float(np.min(duu + duv)) >= 1 - 1e-9, (u, v, kind.short_name)
