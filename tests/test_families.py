"""Closed-form family verdicts against pinned values and the generic engine."""

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
    complete,
    complete_multipartite,
    complete_product_verdict,
    decompose,
    direct_product,
    multipartite_adjacency_verdict,
    multipartite_laplacian_verdict,
    threshold,
    threshold_pst_congruences,
    threshold_support,
    threshold_vertex_verdict,
)
from sedwalk import families

L = MatrixKind.laplacian()
A = MatrixKind.adjacency()


# ---------------------------------------------------------------- multipartite

LAPLACIAN_CASES = [
    # parts, ell, verdict, case, constant, time
    ([4], 0, Verdict.SEDENTARY, "edgeless", 1.0, 0.0),
    ([1], 0, Verdict.SEDENTARY, "edgeless", 1.0, 0.0),
    ([1, 1], 0, Verdict.PST, "two-vertices", None, math.pi / 2),
    ([1, 5], 0, Verdict.SEDENTARY, "laplacian-apex", 2 / 3, math.pi / 6),
    ([2, 2], 0, Verdict.PST, "pair-part-pst", None, math.pi / 2),
    ([2, 1, 1], 0, Verdict.PST, "pair-part-pst", None, math.pi / 2),
    ([2, 2, 2], 0, Verdict.SEDENTARY, "pair-part-even", 1 / 3, math.pi / 2),
    ([2, 3], 0, Verdict.SEDENTARY, "pair-part-odd", math.sqrt(2) / 5, math.pi / 2),
    ([5, 5], 0, Verdict.SEDENTARY, "large-part-tight", 3 / 5, math.pi / 5),
]


@pytest.mark.parametrize("parts,ell,verdict,case,constant,time", LAPLACIAN_CASES)
def test_multipartite_laplacian_cases(parts, ell, verdict, case, constant, time):
    fv = multipartite_laplacian_verdict(parts, ell)
    assert fv.verdict is verdict
    assert fv.case == case
    assert fv.certified is True
    if constant is None:
        assert fv.constant is None
    else:
        assert fv.constant == pytest.approx(constant)
        assert fv.tight is True and fv.sharp is False
    assert fv.time == pytest.approx(time)


def test_multipartite_laplacian_three_part_pair():
    fv = multipartite_laplacian_verdict([2, 1], 0)
    assert fv.case == "pair-part-three"
    assert fv.constant == pytest.approx(1 / 3)


def test_multipartite_laplacian_validation():
    with pytest.raises(ValueError):
        multipartite_laplacian_verdict([], 0)
    with pytest.raises(ValueError):
        multipartite_laplacian_verdict([2, 0], 0)
    with pytest.raises(ValueError):
        multipartite_laplacian_verdict([2, 3], 2)


ADJACENCY_CASES = [
    ([1, 1], 0, Verdict.PST, "two-vertices"),
    ([2, 3], 0, Verdict.PST, "pair-bipartite-pst"),
    ([1, 4], 0, Verdict.NOT_SEDENTARY, "apex-zero"),
    ([2, 1, 1, 1], 0, Verdict.PGST, "pair-uniform-pgst"),
    ([2, 1, 1, 1], 1, Verdict.SEDENTARY, "apex-clique-sharp"),
    ([2, 2, 2], 0, Verdict.SEDENTARY, "pair-uniform-tight"),
    ([1, 1, 1, 1, 1], 0, Verdict.SEDENTARY, "clique"),
    ([3, 6], 0, Verdict.SEDENTARY, "large-part-tight"),
    ([4, 4], 0, Verdict.SEDENTARY, "large-part-tight"),
    ([3, 4, 5], 0, Verdict.SEDENTARY, "large-part-bound"),
]


@pytest.mark.parametrize("parts,ell,verdict,case", ADJACENCY_CASES)
def test_multipartite_adjacency_cases(parts, ell, verdict, case):
    fv = multipartite_adjacency_verdict(parts, ell)
    assert fv is not None
    assert fv.verdict is verdict
    assert fv.case == case


def test_multipartite_adjacency_values():
    fv = multipartite_adjacency_verdict([2, 3], 0)
    assert fv.time == pytest.approx(math.pi / math.sqrt(6))

    fv = multipartite_adjacency_verdict([3, 6], 0)
    assert fv.constant == pytest.approx(1 / 3)
    assert fv.time == pytest.approx(math.pi / (3 * math.sqrt(2)))
    assert fv.tight is True

    fv = multipartite_adjacency_verdict([1, 1, 1, 1, 1], 0)
    assert fv.constant == pytest.approx(3 / 5)
    assert fv.time == pytest.approx(math.pi / 5)

    fv = multipartite_adjacency_verdict([2, 1, 1, 1], 1)
    assert fv.constant == pytest.approx(1 / 3)
    assert fv.sharp is True and fv.tight is False and fv.time is None

    fv = multipartite_adjacency_verdict([3, 4, 5], 0)
    assert fv.constant is None
    assert fv.bound == pytest.approx(1 / 3)

    fv = multipartite_adjacency_verdict([1, 4], 0)
    assert fv.time == pytest.approx(math.pi / 4)


@pytest.mark.parametrize("ones", [1, 2, 3, 4])
@pytest.mark.parametrize("twos", [1, 2, 3])
def test_mixed_pair_parts_match_engine(ones, twos):
    # a part of size two beside parts of sizes one and two: pgst exactly
    # when n = 3 mod 4, sedentary otherwise
    parts = [2] + [1] * ones + [2] * twos
    fv = multipartite_adjacency_verdict(parts, 0)
    want = "pair-mixed-pgst" if sum(parts) % 4 == 3 else "pair-mixed-blocked"
    assert fv is not None and fv.case == want
    (rec,) = classify_all(complete_multipartite(parts), A, vertices=(0,))
    assert rec.verdict is fv.verdict and rec.certified


def test_multipartite_verdicts_match_engine():
    # closed forms against the generic classifier on the same graphs
    for parts, ell, kind, route in [
        ([2, 2, 2], 0, L, multipartite_laplacian_verdict),
        ([1, 5], 0, L, multipartite_laplacian_verdict),
        ([2, 3], 0, L, multipartite_laplacian_verdict),
        ([2, 2], 0, L, multipartite_laplacian_verdict),
        ([5, 5], 0, L, multipartite_laplacian_verdict),
        ([2, 3], 0, A, multipartite_adjacency_verdict),
        ([2, 2, 2], 0, A, multipartite_adjacency_verdict),
    ]:
        fv = route(parts, ell)
        g = complete_multipartite(parts)
        u = sum(parts[:ell])
        rec = classify_vertex(g, kind, u)
        assert rec.verdict is fv.verdict, (parts, ell, kind.short_name)
        if fv.constant is not None and rec.constant is not None:
            assert rec.constant == pytest.approx(fv.constant, abs=1e-9)
        if fv.verdict is Verdict.PST:
            assert rec.pst_time == pytest.approx(fv.time, abs=1e-9)


# ------------------------------------------------------------------ threshold

def test_threshold_spec_accessors():
    spec = ThresholdSpec((2, 3, 4))
    assert spec.h == 3
    assert spec.n == 9
    assert [spec.alpha(j) for j in (0, 1, 2, 3)] == [0, 2, 5, 9]
    assert [spec.beta(ell) for ell in (1, 2, 3, 4)] == [6, 3, 4, 0]
    assert [spec.is_clique_cell(j) for j in (1, 2, 3)] == [False, True, False]
    kspec = ThresholdSpec((2, 2, 4), starts_empty=False)
    assert [kspec.is_clique_cell(j) for j in (1, 2, 3)] == [True, False, True]


def test_threshold_spec_validation():
    with pytest.raises(ValueError):
        ThresholdSpec(())
    with pytest.raises(ValueError):
        ThresholdSpec((2, 0, 3))


def test_threshold_congruences():
    assert threshold_pst_congruences((2,)) is True
    assert threshold_pst_congruences((2, 2)) is True
    assert threshold_pst_congruences((2, 6)) is True
    assert threshold_pst_congruences((2, 6, 4)) is True
    assert threshold_pst_congruences((2, 6, 8, 12)) is True
    assert threshold_pst_congruences((2, 3)) is False
    assert threshold_pst_congruences((2, 4)) is False
    assert threshold_pst_congruences((2, 6, 3)) is False
    assert threshold_pst_congruences((3, 6)) is False


def test_threshold_support_examples():
    assert threshold_support(ThresholdSpec((2, 6)), 1) == (8, 6, 0)
    assert threshold_support(ThresholdSpec((2, 6)), 2) == (8, 0)
    assert threshold_support(ThresholdSpec((2, 3)), 1) == (5, 3, 0)
    assert threshold_support(ThresholdSpec((2, 2, 4), starts_empty=False), 1) == (8, 6, 4, 0)


def test_threshold_support_matches_spectrum():
    for cells, starts_empty in [
        ((2, 6), True),
        ((2, 3), True),
        ((3, 3), True),
        ((2, 2, 4), False),
    ]:
        spec = ThresholdSpec(cells, starts_empty=starts_empty)
        g = threshold(list(cells), starts_empty=starts_empty)
        dec = decompose(g, L)
        for j in range(1, spec.h + 1):
            u = spec.alpha(j - 1)
            sup = dec.support(u)
            got = sorted(round(ev) for ev in sup.values)
            assert np.allclose(sorted(sup.values), got, atol=1e-9)
            assert tuple(sorted(threshold_support(spec, j), reverse=True)) == tuple(
                sorted(got, reverse=True)
            )


def test_threshold_support_requires_connected():
    with pytest.raises(ValueError, match="join step"):
        threshold_support(ThresholdSpec((2, 3, 4)), 1)
    with pytest.raises(ValueError):
        threshold_support(ThresholdSpec((2, 6)), 3)


def test_threshold_leading_singletons_merge():
    # a leading K1 cell is absorbed into the next cell without changing the graph
    merged = ThresholdSpec((3, 3))
    stamped = ThresholdSpec((1, 2, 3), starts_empty=False)
    assert threshold_support(stamped, 1) == threshold_support(merged, 1)
    a = threshold_vertex_verdict(stamped, 1)
    b = threshold_vertex_verdict(stamped, 2)
    c = threshold_vertex_verdict(merged, 1)
    assert (a.verdict, a.case, a.constant, a.time) == (c.verdict, c.case, c.constant, c.time)
    assert (b.verdict, b.case, b.constant, b.time) == (c.verdict, c.case, c.constant, c.time)


THRESHOLD_CASES = [
    # cells, starts_empty, j, verdict, case, constant, time
    ((2, 6), True, 1, Verdict.PST, "first-cell-pst", None, math.pi / 2),
    ((2, 6), True, 2, Verdict.SEDENTARY, "clique-cell", 3 / 4, math.pi / 8),
    ((2, 3), True, 1, Verdict.SEDENTARY, "union-cell", None, None),
    ((2, 3), True, 2, Verdict.SEDENTARY, "clique-cell", 3 / 5, math.pi / 5),
    ((2,), False, 1, Verdict.PST, "first-cell-pst", None, math.pi / 2),
    ((2, 2), True, 1, Verdict.PST, "first-cell-pst", None, math.pi / 2),
    ((2, 2, 4), False, 1, Verdict.PST, "first-cell-pst", None, math.pi / 2),
    ((3, 3), True, 1, Verdict.SEDENTARY, "union-cell", 1 / 3, math.pi / 3),
    ((3, 3), True, 2, Verdict.SEDENTARY, "clique-cell", 2 / 3, math.pi / 6),
    ((2, 1, 2), False, 1, Verdict.SEDENTARY, "first-clique-cell", None, None),
]


@pytest.mark.parametrize("cells,starts_empty,j,verdict,case,constant,time", THRESHOLD_CASES)
def test_threshold_vertex_verdicts(cells, starts_empty, j, verdict, case, constant, time):
    fv = threshold_vertex_verdict(ThresholdSpec(cells, starts_empty=starts_empty), j)
    assert fv.verdict is verdict
    assert fv.case == case
    if constant is None:
        assert fv.constant is None
    else:
        assert fv.constant == pytest.approx(constant)
        assert fv.tight is True
    if time is None:
        assert fv.time is None
    else:
        assert fv.time == pytest.approx(time)


def test_threshold_verdicts_match_engine():
    for cells, starts_empty in [
        ((2, 6), True),
        ((2, 3), True),
        ((3, 3), True),
        ((2, 2, 4), False),
    ]:
        spec = ThresholdSpec(cells, starts_empty=starts_empty)
        g = threshold(list(cells), starts_empty=starts_empty)
        for j in range(1, spec.h + 1):
            fv = threshold_vertex_verdict(spec, j)
            rec = classify_vertex(g, L, spec.alpha(j - 1))
            assert rec.verdict is fv.verdict, (cells, starts_empty, j)
            if fv.constant is not None and rec.constant is not None:
                assert rec.constant == pytest.approx(fv.constant, abs=1e-9)
            if fv.verdict is Verdict.PST:
                assert rec.pst_time == pytest.approx(fv.time, abs=1e-9)


# ------------------------------------------------------- products of cliques

PRODUCT_CASES = [
    ([2, 3], Verdict.NOT_SEDENTARY, "product-cosine-zero", None),
    ([2, 2], Verdict.NOT_SEDENTARY, "product-cosine-zero", None),
    ([3, 3], Verdict.SEDENTARY, "product-odd-factors", 1 / 9),
    ([5, 5], Verdict.SEDENTARY, "product-odd-factors", 7 / 25),
    ([3, 3, 3], Verdict.SEDENTARY, "product-odd-factors", None),
    ([4, 6], Verdict.SEDENTARY, "product-dominant-class", 1 / 4),
    ([3, 4], Verdict.UNDETERMINED, "product-balanced", None),
]


@pytest.mark.parametrize("ms,verdict,case,constant", PRODUCT_CASES)
def test_complete_product_cases(ms, verdict, case, constant):
    fv = complete_product_verdict(ms)
    assert fv.verdict is verdict
    assert fv.case == case
    if constant is not None:
        assert fv.constant == pytest.approx(constant)
    if case == "product-odd-factors":
        assert fv.time == pytest.approx(math.pi)
        assert fv.tight is True
    if case == "product-balanced":
        assert fv.certified is False
    else:
        assert fv.certified is True


def test_complete_product_odd_constant_formula():
    # at t = pi the only -1 phase comes from the all-(-1) eigenvalue class,
    # whose diagonal weight is prod(m_i - 1) / prod(m_i)
    fv = complete_product_verdict([3, 3, 3])
    p, r = 27, 8
    assert fv.constant == pytest.approx(abs(p - 2 * r) / p)
    assert abs(complete_product_diagonal([3, 3, 3], math.pi)) == pytest.approx(fv.constant)


def test_complete_product_zero_time_is_a_zero():
    for ms in ([2, 3], [2, 2], [2, 5]):
        fv = complete_product_verdict(ms)
        assert fv.verdict is Verdict.NOT_SEDENTARY
        assert abs(complete_product_diagonal(ms, fv.time)) < 1e-9


# every list [2, m_2, ...] with 3 or 4 factors up to 12 and 5 factors up to 6
FACTOR_TWO_LISTS = [
    [2, *rest]
    for size, top in ((2, 12), (3, 12), (4, 6))
    for rest in itertools.combinations_with_replacement(range(2, top + 1), size)
]


def test_every_factor_two_product_has_an_exact_zero():
    # the cosine sum has mean zero and f(0) = 1, so a sign change exists
    assert len(FACTOR_TWO_LISTS) == 422
    for ms in FACTOR_TWO_LISTS:
        fv = complete_product_verdict(ms)
        assert (fv.verdict, fv.case, fv.certified) == (
            Verdict.NOT_SEDENTARY, "product-cosine-zero", True
        ), ms
        terms = families._complete_product_cosine_terms(ms)
        assert abs(sum(c * math.cos(f * fv.time) for c, f in terms)) < 1e-12, ms


def test_complete_product_zero_search_samples_finer_until_it_finds_the_zero(monkeypatch):
    search = families._real_diagonal_zero_search
    seen = []

    def missing_twice(terms, horizon, samples):
        seen.append(samples)
        return None if len(seen) < 3 else search(terms, horizon, samples)

    monkeypatch.setattr(families, "_real_diagonal_zero_search", missing_twice)
    fv = complete_product_verdict([2, 3])
    assert seen == [40, 80, 160]
    assert fv.case == "product-cosine-zero"
    assert abs(complete_product_diagonal([2, 3], fv.time)) < 1e-9


def test_complete_product_tight_constant_matches_grid():
    for ms in ([3, 3], [5, 5]):
        fv = complete_product_verdict(ms)
        ts = np.linspace(0.0, 2 * math.pi, 4001)
        vals = [abs(complete_product_diagonal(ms, t)) for t in ts]
        assert min(vals) >= fv.constant - 1e-9
        assert abs(complete_product_diagonal(ms, fv.time)) == pytest.approx(fv.constant, abs=1e-12)


def test_complete_product_dominant_constant_is_floor():
    fv = complete_product_verdict([4, 6])
    ts = np.linspace(0.0, 2 * math.pi, 4001)
    vals = [abs(complete_product_diagonal([4, 6], t)) for t in ts]
    assert min(vals) >= fv.constant - 1e-9


def test_complete_product_validation():
    with pytest.raises(ValueError):
        complete_product_verdict([3])
    with pytest.raises(ValueError):
        complete_product_verdict([2, 1])
    with pytest.raises(ValueError):
        complete_product_verdict([])


def test_km_product_transfer():
    # a vertex with constant c > 1/(m - 1) keeps at least c - (c + 1)/m in
    # K(m) x X; K(3) has c = 1/3, and for odd m the bound is attained
    (y,) = classify_all(complete(3), A, vertices=(0,))
    c = y.constant
    assert c == pytest.approx(1 / 3, abs=1e-12)
    for m in (5, 7):
        assert c > 1 / (m - 1)
        (rec,) = classify_all(direct_product(complete(m), complete(3)), A, vertices=(0,))
        assert rec.verdict is Verdict.SEDENTARY and rec.certified, m
        assert rec.constant == pytest.approx(c - (c + 1) / m, abs=1e-12), m


def test_product_verdict_against_engine_series():
    # the certified tight value should be the infimum the walk actually attains
    fv = complete_product_verdict([3, 3])
    g = direct_product(complete(3), complete(3))
    ts = np.linspace(0.0, 2 * math.pi, 2001)
    series = WalkEvaluator(decompose(g, A)).diagonal_amplitudes(0, ts)
    assert np.min(np.abs(series)) == pytest.approx(fv.constant, abs=1e-6)


# ---------------------------------------------------------------- product zero scan


def _scalar_zero_search(cosine_terms, horizon, samples_per_period):
    """The sign-change scan one ``math.cos`` sum at a time: the reference the
    chunked numpy scan of ``families._real_diagonal_zero_search`` must match
    bit for bit."""
    fmax = max(abs(f) for _, f in cosine_terms)

    def f(t):
        return sum(c * math.cos(fr * t) for c, fr in cosine_terms)

    steps = max(1000, int(samples_per_period * horizon * fmax / (2.0 * math.pi)))
    prev_t, prev_v = 0.0, f(0.0)
    for i in range(1, steps + 1):
        t = horizon * i / steps
        v = f(t)
        if prev_v == 0.0:
            return prev_t
        if prev_v * v < 0:
            lo, hi, v_lo = prev_t, t, prev_v
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                v_mid = f(mid)
                if abs(v_mid) < 1e-12:
                    return mid
                if v_lo * v_mid < 0:
                    hi = mid
                else:
                    lo, v_lo = mid, v_mid
            mid = 0.5 * (lo + hi)
            if abs(f(mid)) < 1e-12:
                return mid
            raise ArithmeticError("bisection failed to settle the zero")
        prev_t, prev_v = t, v
    return None


def _scalar_product_zero(ms):
    terms = families._complete_product_cosine_terms(ms)
    samples = 40
    while (zero := _scalar_zero_search(terms, 2.0 * math.pi, samples)) is None:
        samples *= 2
    return zero


PRODUCT_ZERO_FACTORS = [[2, m] for m in range(2, 65)] + [
    [2, 2, 2],
    [2, 2, 5],
    [2, 3, 3],
    [2, 3, 7],
    [3, 2, 4],
    [2, 5, 6],
    [2, 9, 9],
    [2, 3, 3, 3],
]


@pytest.mark.parametrize("ms", PRODUCT_ZERO_FACTORS, ids=lambda ms: "x".join(map(str, ms)))
def test_product_zero_equals_the_scalar_scan(ms):
    fv = complete_product_verdict(ms)
    assert fv.verdict is Verdict.NOT_SEDENTARY
    assert fv.time == _scalar_product_zero(ms)
    # every rung of the doubling loop, including the ones that miss
    terms = families._complete_product_cosine_terms(ms)
    for samples in (40, 80, 160):
        got = families._real_diagonal_zero_search(terms, 2.0 * math.pi, samples)
        assert got == _scalar_zero_search(terms, 2.0 * math.pi, samples)


@pytest.mark.parametrize(
    "terms,horizon",
    [
        ([(1.0, 1.0)], 2.0),
        ([(0.75, 0.0), (0.25, 2.0)], 10.0),
        ([(1.0, 0.0)], 5.0),
        ([(0.5, 1.0), (0.5, 3.0)], 2.0 * math.pi),  # cos t + cos 3t = 0 at pi/4
        ([(0.0, 1.0)], 1.0),  # identically zero: stops at t = 0
        ([(1.0, 1.0)], 100.0),  # 1000 samples cover several sign changes
        ([(1.0, 0.005), (1e-6, 10.0)], 400.0),  # the zero is in the second chunk
        ([(0.75, 0.0), (0.25, 1.0)], 3000.0),  # two chunks without a zero
    ],
)
def test_zero_scan_equals_the_scalar_scan_on_edge_cases(terms, horizon):
    assert families._real_diagonal_zero_search(terms, horizon, 40) == _scalar_zero_search(
        terms, horizon, 40
    )
