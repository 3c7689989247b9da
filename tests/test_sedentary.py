"""Classification engine: floors, equality times, parity, and special searches."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from sedwalk import (
    EqualityTime,
    MatrixKind,
    ParityVerdict,
    QuadraticIntegerForm,
    Verdict,
    VertexClassification,
    WalkEvaluator,
    bipartite_double_sedentary,
    blowup_bound,
    blowup_pair_parity,
    classify_all,
    classify_vertex,
    cocktail_party,
    complete,
    complete_product_cosine_terms,
    cycle,
    decompose,
    equality_time_criterion,
    join,
    join_sedentary_transfer,
    parse_graph,
    path,
    pgst_parity_criterion,
    projection_sum_bound,
    real_diagonal_zero_search,
    star,
    double_cone_real_minimum,
)
from sedwalk.graphs import WeightedGraph
from sedwalk.numtheory import ExactEigenvalue

A = MatrixKind.adjacency()
L = MatrixKind.laplacian()


def _p5_prime() -> WeightedGraph:
    """Path on five vertices with a second pendant leaf twinned onto one end."""
    return WeightedGraph.from_edges(6, [(0, 1), (1, 2), (2, 3), (3, 4), (1, 5)])


# -- projection floor -------------------------------------------------------


def test_projection_bound_validation():
    dec = decompose(star(3))
    sup = dec.support(1)
    with pytest.raises(ValueError):
        projection_sum_bound(dec, 1, ())
    with pytest.raises(ValueError):
        projection_sum_bound(dec, 1, sup.indices)
    with pytest.raises(ValueError):
        projection_sum_bound(dec, 0, (1,))  # the apex misses the kernel class
    with pytest.raises(ValueError):
        projection_sum_bound(dec, 1, (0,))  # leaf weight 1/6 is below one half


def test_projection_bound_uniform_floor():
    dec = decompose(star(4))
    bound = projection_sum_bound(dec, 0, (0,))
    assert bound.a == pytest.approx(0.5)
    assert bound.floor == pytest.approx(0.0)
    assert bound.uniform
    for t in np.linspace(0.0, 3.0, 7):
        assert bound.bound_at(float(t)) == pytest.approx(bound.floor, abs=1e-12)


def test_projection_bound_below_diagonal():
    dec = decompose(cocktail_party(3), L)
    ev = WalkEvaluator(dec)
    idx = {round(float(v)): j for j, v in enumerate(dec.eigenvalues)}
    bound = projection_sum_bound(dec, 0, (idx[4], idx[0]))
    assert bound.a == pytest.approx(2 / 3)
    assert bound.floor == pytest.approx(1 / 3)
    assert not bound.uniform
    for t in np.linspace(0.0, 2 * math.pi, 101):
        assert ev.magnitude(0, 0, float(t)) >= bound.bound_at(float(t)) - 1e-12
    assert ev.magnitude(0, 0, math.pi / 2) == pytest.approx(1 / 3, abs=1e-12)
    assert bound.bound_at(math.pi / 2) == pytest.approx(1 / 3, abs=1e-12)


# -- equality times ---------------------------------------------------------


def test_equality_time_integer_pair():
    form = QuadraticIntegerForm(0, (2, -2), 1)
    eq = equality_time_criterion(form, (0,))
    assert eq is not None
    assert eq.t1 == pytest.approx(math.pi / 2)
    assert eq.period == pytest.approx(math.pi)


def test_equality_time_mixed_levels_fail():
    # values 2, 1, 0: the two cross gaps from {2} carry different valuations
    form = QuadraticIntegerForm(0, (4, 2, 0), 1)
    assert equality_time_criterion(form, (0,)) is None


def test_equality_time_radical_support():
    form = QuadraticIntegerForm(0, (2, 0, -2), 3)
    eq = equality_time_criterion(form, (0, 2))
    assert eq is not None
    assert eq.delta == 3
    assert eq.t1 == pytest.approx(math.pi / math.sqrt(3))


def test_equality_time_validation():
    form = QuadraticIntegerForm(0, (2, -2), 1)
    with pytest.raises(ValueError):
        equality_time_criterion(form, ())
    with pytest.raises(ValueError):
        equality_time_criterion(form, (0, 1))


@pytest.mark.parametrize(
    "a,bs,delta,subset",
    [
        (0, (12, 8, 0), 1, (1, 2)),
        (1, (3, 1, -1), 5, (0, 1)),
        (0, (6, 2, -2, -6), 2, (0, 3)),
        (2, (4, 0), 1, (0,)),
    ],
)
def test_equality_time_phase_invariant(a, bs, delta, subset):
    form = QuadraticIntegerForm(a, bs, delta)
    eq = equality_time_criterion(form, subset)
    if eq is None:
        return
    base = form.value(subset[0])
    for j in range(len(bs)):
        phase = complex(math.cos(eq.t1 * (form.value(j) - base)),
                        math.sin(eq.t1 * (form.value(j) - base)))
        want = 1.0 if j in subset else -1.0
        assert phase.real == pytest.approx(want, abs=1e-9)
        assert phase.imag == pytest.approx(0.0, abs=1e-9)
        full = complex(math.cos(2 * eq.t1 * (form.value(j) - base)),
                       math.sin(2 * eq.t1 * (form.value(j) - base)))
        assert full.real == pytest.approx(1.0, abs=1e-9)


# -- parity criterion --------------------------------------------------------


def test_parity_criterion_verdict_mapping():
    six = ExactEigenvalue(Fraction(6), Fraction(0), 1)
    four = ExactEigenvalue(Fraction(4), Fraction(0), 1)
    zero = ExactEigenvalue(Fraction(0), Fraction(0), 1)
    eight = ExactEigenvalue(Fraction(8), Fraction(0), 1)
    blocked = pgst_parity_criterion([six, zero], [four])
    assert blocked.verdict is ParityVerdict.BLOCKED
    approaches = pgst_parity_criterion([eight, zero], [six])
    assert approaches.verdict is ParityVerdict.APPROACHES_EQUALITY
    inconclusive = pgst_parity_criterion([six], [])
    assert inconclusive.verdict is ParityVerdict.INCONCLUSIVE


# -- classification smoke ----------------------------------------------------


def test_classify_edge_is_pst(oracle):
    g = complete(2)
    cls = classify_vertex(g, A, 0)
    assert cls.verdict is Verdict.PST
    assert cls.partner == 1
    assert cls.pst_time == pytest.approx(math.pi / 2)
    assert cls.certified
    assert abs(oracle(g, A, cls.pst_time)[0, 1]) == pytest.approx(1.0, abs=1e-12)


def test_classify_star_apex_not_sedentary(oracle):
    g = star(4)
    cls = classify_vertex(g, A, 0)
    assert cls.verdict is Verdict.NOT_SEDENTARY
    assert cls.certified
    assert any(step.startswith("zero-at-minimum") for step in cls.certificate)
    assert abs(oracle(g, A, math.pi / 4)[0, 0]) < 1e-12


def test_classify_cocktail_party_laplacian_pair():
    cls = classify_vertex(cocktail_party(3), L, 0)
    assert cls.verdict is Verdict.SEDENTARY
    assert cls.constant == pytest.approx(1 / 3, abs=1e-9)
    assert cls.tight is True and cls.sharp is False
    assert cls.tightness_time == pytest.approx(math.pi / 2, abs=1e-9)
    assert cls.certified
    assert cls.partner is None and cls.pst_time is None


def test_classify_cocktail_party_even_half_is_pst(oracle):
    g = cocktail_party(2)
    cls = classify_vertex(g, L, 0)
    assert cls.verdict is Verdict.PST
    assert cls.partner == 1
    assert cls.pst_time == pytest.approx(math.pi / 2)
    assert abs(oracle(g, L, cls.pst_time)[0, 1]) == pytest.approx(1.0, abs=1e-10)


def test_classify_pendant_twin_pair_floor():
    g = _p5_prime()
    cls = classify_vertex(g, A, 0)
    assert cls.verdict is Verdict.SEDENTARY
    assert cls.constant == pytest.approx(0.2, abs=1e-9)
    assert cls.certified
    assert cls.evidence is not None and not cls.evidence.certified
    assert cls.evidence.value >= 0.2 - 1e-9


def test_classify_spider_pair_blocked_by_kernel():
    g = WeightedGraph.from_edges(6, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5)])
    cls = classify_vertex(g, A, 1)
    assert cls.verdict is Verdict.SEDENTARY
    assert cls.constant == pytest.approx(0.2, abs=1e-9)
    assert cls.certified


def test_classify_singleton_support():
    g = WeightedGraph.from_edges(2, [])
    cls = classify_vertex(g, A, 0)
    assert cls.verdict is Verdict.SEDENTARY
    assert cls.constant == 1.0
    assert cls.tight is True and cls.sharp is False
    assert cls.certificate == ("support-singleton",)


def test_classify_vertex_range_check():
    with pytest.raises(ValueError):
        classify_vertex(complete(3), A, 3)


def test_classify_plain_vertex_honors_grid_knobs():
    g = _p5_prime()
    cls = classify_vertex(g, A, 2, grid_points=5001, horizon=50.0)
    assert cls.evidence is not None
    assert cls.evidence.horizon == 50.0
    assert cls.evidence.grid_points == 5001


@pytest.mark.parametrize("kind", [A, L], ids=lambda k: k.short_name)
def test_cube_zeros_sit_at_a_quarter_period(kind):
    # every diagonal of the 3-cube is cos(t)^3 up to a phase: a triple zero at pi/2
    cube = parse_graph("cprod(cprod(K(2),K(2)),K(2))")
    for rec in classify_all(cube, kind):
        (step,) = [s for s in rec.certificate if s.startswith("zero-at-minimum:t=")]
        assert abs(float(step.split("=")[1]) - math.pi / 2) <= 1e-6, rec.vertex


def test_mirror_minima_report_the_earliest_time():
    # |U(t)| of a leaf is even about each period, so its minimum recurs at 2pi - t
    records = classify_all(star(4), L)
    for rec in records[1:]:
        assert rec.tightness_time == pytest.approx(4 * math.pi / 5, abs=1e-9), rec.vertex


def test_twin_free_orbit_reports_the_earliest_of_equal_zeros():
    # a vertex-transitive, twin-free product: every diagonal is Re U(t) of K3 x K3,
    # with two zeros per half period
    g = parse_graph("dprod(K(2),dprod(K(3),K(3)))")
    terms = complete_product_cosine_terms([2, 3, 3])
    first = real_diagonal_zero_search(terms, 2 * math.pi)
    for rec in classify_all(g, A):
        (step,) = [s for s in rec.certificate if s.startswith("zero-at-minimum:t=")]
        assert float(step.split("=")[1]) == pytest.approx(first, abs=1e-6), rec.vertex


def test_classify_all_shares_decomposition():
    g = complete(3)
    out = classify_all(g, A)
    assert len(out) == 3
    assert all(c.verdict is out[0].verdict for c in out)
    assert [c.vertex for c in out] == [0, 1, 2]


@pytest.mark.parametrize(
    "g,kind",
    [
        (complete(4), A),
        (cocktail_party(3), L),
        (star(3), A),
        (path(3), L),
        (cycle(4), A),
    ],
    ids=["k4-a", "cp6-l", "star-a", "path-l", "c4-a"],
)
def test_classification_flag_consistency(g, kind):
    for cls in classify_all(g, kind):
        assert not (cls.tight and cls.sharp)
        if cls.verdict is Verdict.SEDENTARY:
            assert cls.pst_time is None
            if cls.constant is not None:
                assert cls.constant > 0
        if cls.verdict in (Verdict.PST, Verdict.PGST):
            assert cls.partner is not None


# -- record validation -------------------------------------------------------


def test_classification_record_invariants():
    with pytest.raises(ValueError):
        VertexClassification(0, A, Verdict.SEDENTARY, constant=0.5, pst_time=1.0)
    with pytest.raises(ValueError):
        VertexClassification(0, A, Verdict.SEDENTARY, constant=0.0)
    with pytest.raises(ValueError):
        VertexClassification(0, A, Verdict.PST, pst_time=1.0)
    with pytest.raises(ValueError):
        VertexClassification(0, A, Verdict.PST, partner=1)
    with pytest.raises(ValueError):
        VertexClassification(0, A, Verdict.PGST)


def test_classification_json_shape():
    cls = classify_vertex(cocktail_party(3), L, 0)
    payload = cls.to_json_dict()
    assert payload["schema"] == 1
    assert payload["vertex"] == 0
    assert payload["matrix_kind"] == "L"
    assert payload["verdict"] == "sedentary"
    assert payload["constant"] == pytest.approx(1 / 3)
    assert payload["evidence"]["mode"] == "exact-on-period"
    assert isinstance(payload["lemma_trail"], list) and payload["lemma_trail"]


# -- real-diagonal specials --------------------------------------------------


def test_zero_search_finds_cosine_root():
    t = real_diagonal_zero_search([(1.0, 1.0)], 2.0)
    assert t == pytest.approx(math.pi / 2, abs=1e-9)
    assert real_diagonal_zero_search([(0.75, 0.0), (0.25, 2.0)], 10.0) is None
    assert real_diagonal_zero_search([(1.0, 0.0)], 5.0) is None
    with pytest.raises(ValueError):
        real_diagonal_zero_search([], 1.0)
    with pytest.raises(ValueError):
        real_diagonal_zero_search([(1.0, 1.0)], 0.0)


def test_double_diagonal_zero_for_triangle(oracle):
    from sedwalk import direct_product

    y = complete(3)
    est = bipartite_double_sedentary(decompose(y), 0)
    assert est.sedentary is False
    assert est.value == 0.0 and est.zero_time is not None
    dp = direct_product(complete(2), y)
    assert abs(oracle(dp, A, est.zero_time)[0, 0]) < 1e-9


def test_double_diagonal_positive_with_loops():
    g = WeightedGraph.from_edges(
        3, [(0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2)]
    )
    dec = decompose(g)
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 0.0], atol=1e-9)
    est = bipartite_double_sedentary(dec, 0)
    assert est.sedentary is True
    assert est.certified
    assert est.value == pytest.approx(1 / 3, abs=1e-9)


def test_double_diagonal_uncertified_when_irrational():
    g = WeightedGraph.from_edges(3, [(0, 1), (1, 2), (1, 1, 3)])
    dec = decompose(g)
    est = bipartite_double_sedentary(dec, 0, horizon=25.0, grid_points=4001)
    assert not est.certified
    assert est.value > 0
    assert est.sedentary is None


@pytest.mark.parametrize(
    "horizon,grid_points",
    [(math.inf, None), (math.nan, None), (0.0, None), (-1.0, None), (None, 0), (None, 1)],
)
def test_double_diagonal_rejects_bad_grid(horizon, grid_points):
    dec = decompose(path(5))
    with pytest.raises(ValueError):
        bipartite_double_sedentary(dec, 0, horizon=horizon, grid_points=grid_points)


def test_double_cone_closed_form():
    c, tau = double_cone_real_minimum(2, 2)
    assert c == pytest.approx(0.25)
    # both critical times pi/3 and 2*pi/3 attain the minimum
    attained = 0.5 + math.cos(4 * tau) / 6 + math.cos(2 * tau) / 3
    assert attained == pytest.approx(c, abs=1e-12)
    with pytest.raises(ValueError):
        double_cone_real_minimum(0, 2)
    with pytest.raises(ValueError):
        double_cone_real_minimum(2, 3)
    with pytest.raises(ValueError):
        double_cone_real_minimum(4, 2)


@pytest.mark.parametrize("d,s,h", [(2, 2, cycle(4)), (2, 4, cycle(12))])
def test_double_cone_matches_direct_scan(d, s, h):
    assert h.n == s * (d + s) // 2
    g = join(WeightedGraph.from_edges(2, []), h)
    dec = decompose(g)
    sup = dec.support(0)
    c, tau = double_cone_real_minimum(d, s)
    times = np.linspace(0.0, 2 * math.pi, 40001)
    vals = np.abs(
        np.cos(np.outer(times, np.array(sup.values))) @ np.array(sup.weights)
    )
    assert float(np.min(vals)) == pytest.approx(c, abs=1e-6)
    at_tau = abs(sum(w * math.cos(v * tau) for w, v in zip(sup.weights, sup.values)))
    assert at_tau == pytest.approx(c, abs=1e-12)


# -- blow-ups and joins ------------------------------------------------------


def test_blowup_bound_no_zero_in_base():
    bound = blowup_bound(complete(2), 0, 3)
    assert bound.floor == pytest.approx(1 / 3, abs=1e-12)
    assert bound.uniform
    from sedwalk import blow_up

    ev = WalkEvaluator(decompose(blow_up(3, complete(2))))
    est = ev.infimum_diagonal(0, grid_points=4001)
    assert est.value >= bound.floor - 1e-9


def test_blowup_bound_with_zero_weight():
    bound = blowup_bound(path(3), 0, 2)
    assert bound.floor == pytest.approx(0.5, abs=1e-12)
    with pytest.raises(ValueError):
        blowup_bound(path(3), 0, 1)


def test_blowup_pair_parity_outcomes():
    assert blowup_pair_parity(complete(3), 0).verdict is ParityVerdict.BLOCKED
    assert (
        blowup_pair_parity(complete(4), 0).verdict
        is ParityVerdict.APPROACHES_EQUALITY
    )
    assert blowup_pair_parity(_p5_prime(), 0).verdict is ParityVerdict.INCONCLUSIVE


def test_join_transfer_constant():
    assert join_sedentary_transfer(7 / 25, 25) == pytest.approx(0.2)
    assert join_sedentary_transfer(0.05, 20) is None
    with pytest.raises(ValueError):
        join_sedentary_transfer(0.5, 0)
    with pytest.raises(ValueError):
        join_sedentary_transfer(1.5, 10)
