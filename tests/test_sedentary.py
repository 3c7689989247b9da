"""Classification engine: floors, equality times, parity and construction results."""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from closedforms import double_cone_real_minimum, valuation_equality_time
from sedwalk import (
    MatrixKind,
    QuadraticIntegerForm,
    InfimumEstimate,
    SpectralDecomposition,
    InfimumMode,
    Verdict,
    VertexClassification,
    WalkEvaluator,
    blow_up,
    classify_all,
    classify_vertex,
    cocktail_party,
    complete,
    complete_product_verdict,
    cycle,
    decompose,
    direct_product,
    empty,
    equality_time_criterion,
    find_twin_sets,
    join,
    parse_graph,
    path,
    projection_sum_bound,
    star,
)
from sedwalk import sedentary as sedentary_module
from sedwalk.families import _real_diagonal_zero_search
from sedwalk.graphs import WeightedGraph
from sedwalk.numtheory import ExactEigenvalue, periodic_form, recognize_values
from sedwalk.sedentary import _parity_stage

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


def _subset_bound_at(dec, u: int, subset, a: float, t: float) -> float:
    """|sum_{j in subset} w_j e^{it lambda_j}| - (1 - a), the subset bound at time t."""
    weights = dec.diagonal_weights(u)
    inner = sum(weights[j] * np.exp(1j * t * dec.eigenvalues[j]) for j in subset)
    return abs(inner) - (1.0 - a)


def test_projection_bound_uniform_floor():
    dec = decompose(star(4))
    bound = projection_sum_bound(dec, 0, (0,))
    assert bound.a == pytest.approx(0.5)
    assert bound.floor == pytest.approx(0.0)
    assert bound.uniform
    for t in np.linspace(0.0, 3.0, 7):
        at = _subset_bound_at(dec, 0, bound.subset, bound.a, float(t))
        assert at == pytest.approx(bound.floor, abs=1e-12)


def test_projection_bound_below_diagonal():
    dec = decompose(cocktail_party(3), L)
    ev = WalkEvaluator(dec)
    idx = {round(float(v)): j for j, v in enumerate(dec.eigenvalues)}
    bound = projection_sum_bound(dec, 0, (idx[4], idx[0]))
    assert bound.a == pytest.approx(2 / 3)
    assert bound.floor == pytest.approx(1 / 3)
    assert not bound.uniform
    for t in np.linspace(0.0, 2 * math.pi, 101):
        at = _subset_bound_at(dec, 0, bound.subset, bound.a, float(t))
        assert ev.magnitude(0, 0, float(t)) >= at - 1e-12
    assert ev.magnitude(0, 0, math.pi / 2) == pytest.approx(1 / 3, abs=1e-12)
    at = _subset_bound_at(dec, 0, bound.subset, bound.a, math.pi / 2)
    assert at == pytest.approx(1 / 3, abs=1e-12)


# -- equality times ---------------------------------------------------------


def test_equality_time_integer_pair():
    form = QuadraticIntegerForm(0, (2, -2), 1)
    eq = equality_time_criterion(form, (0,))
    assert eq is not None
    assert eq == pytest.approx(math.pi / 2)
    assert 2 * eq == pytest.approx(math.pi)


def test_equality_time_mixed_levels_fail():
    # values 2, 1, 0: the two cross gaps from {2} carry different valuations
    form = QuadraticIntegerForm(0, (4, 2, 0), 1)
    assert equality_time_criterion(form, (0,)) is None


def test_equality_time_radical_support():
    form = QuadraticIntegerForm(0, (2, 0, -2), 3)
    eq = equality_time_criterion(form, (0, 2))
    assert eq is not None
    assert form.delta == 3
    assert eq == pytest.approx(math.pi / math.sqrt(3))


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
    values = [(a + b * math.sqrt(delta)) / 2 for b in bs]
    base = values[subset[0]]
    for j in range(len(bs)):
        phase = complex(math.cos(eq * (values[j] - base)),
                        math.sin(eq * (values[j] - base)))
        want = 1.0 if j in subset else -1.0
        assert phase.real == pytest.approx(want, abs=1e-9)
        assert phase.imag == pytest.approx(0.0, abs=1e-9)
        full = complex(math.cos(2 * eq * (values[j] - base)),
                       math.sin(2 * eq * (values[j] - base)))
        assert full.real == pytest.approx(1.0, abs=1e-9)


_COORDINATES = st.builds(
    Fraction, st.integers(min_value=-40, max_value=40), st.integers(min_value=1, max_value=6)
)


@st.composite
def _periodic_forms_and_subsets(draw):
    """A periodic form with delta 1 or square-free, 2 to 9 distinct values
    with denominators up to 6, and a random proper subset of its positions."""
    delta = draw(st.sampled_from([1, 2, 3, 5, 6, 7, 10, 11, 13]))
    a = Fraction(0) if delta == 1 else draw(_COORDINATES)
    bs = draw(st.lists(_COORDINATES, min_size=2, max_size=9, unique=True))
    subset = draw(st.sets(st.integers(0, len(bs) - 1), min_size=1, max_size=len(bs) - 1))
    return QuadraticIntegerForm(a, tuple(bs), delta), tuple(sorted(subset))


@given(_periodic_forms_and_subsets())
@settings(max_examples=300, deadline=None)
def test_equality_time_matches_valuation_rule(form_and_subset):
    form, subset = form_and_subset
    assert equality_time_criterion(form, subset) == valuation_equality_time(form, subset)
    for parity in (0, 1):
        cls = [j for j, m in enumerate(form.steps) if m % 2 == parity]
        assert equality_time_criterion(form, cls) == form.period / 2


# -- parity criterion --------------------------------------------------------


def test_parity_criterion_verdict_mapping():
    six = ExactEigenvalue(Fraction(6), Fraction(0), 1)
    four = ExactEigenvalue(Fraction(4), Fraction(0), 1)
    zero = ExactEigenvalue(Fraction(0), Fraction(0), 1)
    eight = ExactEigenvalue(Fraction(8), Fraction(0), 1)
    trail: list[str] = []
    assert _parity_stage([six, zero, four], (0, 1), trail) is False
    assert _parity_stage([eight, zero, six], (0, 1), trail) is True
    assert trail == ["parity:odd-relation", "parity:all-even"]
    with pytest.raises(ValueError):
        _parity_stage([six], (0,), trail)
    assert len(trail) == 2


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


@pytest.mark.parametrize(
    "g, kind, dec",
    [
        (path(5), L, lambda: decompose(path(5), A)),
        (cocktail_party(6), L, lambda: decompose(cocktail_party(6), A)),
        (path(5), MatrixKind.parse("Mq:2"), lambda: decompose(path(5), MatrixKind.parse("Mq:3"))),
        (path(5), A, lambda: decompose(path(6), A)),
    ],
    ids=["P(5)-L-of-A", "CP(6)-L-of-A", "P(5)-Mq:2-of-Mq:3", "P(5)-of-P(6)"],
)
def test_decomposition_of_another_matrix_is_refused(g, kind, dec):
    """The classifier decomposes the graph under ``kind`` and finds its twins
    itself; it takes neither from its caller.  A decomposition of another
    matrix kind or vertex count would be read as the walk's own: P(5) under
    L took A's spectrum and certified vertex 2 not sedentary, while every L
    record of P(5) is undetermined."""
    for call in (
        lambda: classify_all(g, kind, dec()),
        lambda: classify_all(g, kind, dec=dec()),
        lambda: classify_all(g, kind, twin_sets=find_twin_sets(g)),
        lambda: classify_vertex(g, kind, 2, dec()),
        lambda: classify_vertex(g, kind, 2, dec=dec()),
    ):
        with pytest.raises(TypeError):
            call()
    records = classify_all(g, kind)
    assert [rec.vertex for rec in records] == list(range(g.n))
    assert {rec.matrix_kind for rec in records} == {kind}
    if g == path(5) and kind == L:
        assert [(rec.verdict, rec.certified) for rec in records] == [
            (Verdict.UNDETERMINED, False)
        ] * 5


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
    first = complete_product_verdict([2, 3, 3]).time
    for rec in classify_all(g, A):
        (step,) = [s for s in rec.certificate if s.startswith("zero-at-minimum:t=")]
        assert float(step.split("=")[1]) == pytest.approx(first, abs=1e-6), rec.vertex


def test_classify_all_shares_decomposition():
    g = complete(3)
    out = classify_all(g, A)
    assert len(out) == 3
    assert all(c.verdict is out[0].verdict for c in out)
    assert [c.vertex for c in out] == [0, 1, 2]


def test_classify_all_recognizes_each_support_once(monkeypatch):
    # every vertex of CP(6) has the same support, so one recognition serves
    # the scan and the decision tree of all twelve
    calls = 0

    def counted(values):
        nonlocal calls
        calls += 1
        return recognize(values)

    recognize = sedentary_module.recognize_values
    monkeypatch.setattr(sedentary_module, "recognize_values", counted)
    records = classify_all(cocktail_party(6))
    assert len(records) == 12 and calls == 1
    assert all(rec.certified for rec in records)


RATIONAL_WEIGHTS = (1, 2, 3, Fraction(1, 2), Fraction(1, 3))


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(2, 8),
    picks=st.lists(st.sampled_from((0,) + RATIONAL_WEIGHTS), min_size=28, max_size=28),
    kind=st.sampled_from([A, L, MatrixKind.parse("Mq:-1")]),
)
def test_recognized_periods_bring_the_walk_home(oracle, n, picks, kind):
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    g = WeightedGraph.from_edges(n, [(u, v, w) for (u, v), w in zip(pairs, picks) if w])
    dec = decompose(g, kind)
    for u in range(n):
        values = dec.support(u).values
        exacts = recognize_values(values)
        if exacts is None:
            continue
        for exact, lam in zip(exacts, values):
            assert abs(float(exact) - lam) <= 1e-9 * max(1.0, abs(lam)), (u, exact, lam)
        form = periodic_form(exacts)
        if form is not None and form.period is not None:
            assert abs(oracle(g, kind, form.period)[u, u]) >= 1 - 1e-9, u
    # the period a classification reports is one too
    for rec in classify_all(g, kind, grid_points=2001):
        scan = rec.evidence
        if scan.certified and scan.grid_points > 1:
            assert abs(oracle(g, kind, scan.horizon)[rec.vertex, rec.vertex]) >= 1 - 1e-9


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


# -- products, joins and blow-ups through the pipeline ----------------------
#
# The paper's construction results, each checked by classify_all at vertex 0
# of the graph the construction builds, against a closed form in the factors.


def _vertex0(g: WeightedGraph, **scan) -> VertexClassification:
    return classify_all(g, A, vertices=(0,), **scan)[0]


def _blowup_floor(x: WeightedGraph, u: int, m: int) -> float:
    """1 - 2/m + 2 w0/m, with w0 the weight of eigenvalue 0 at u in x."""
    sup = decompose(x).support(u)
    w0 = sum(w for w, lam in zip(sup.weights, sup.values) if abs(lam) < 1e-9)
    return 1 - 2 / m + 2 * w0 / m


def test_zero_search_finds_cosine_root():
    t = _real_diagonal_zero_search([(1.0, 1.0)], 2.0, 40)
    assert t == pytest.approx(math.pi / 2, abs=1e-9)
    assert _real_diagonal_zero_search([(0.75, 0.0), (0.25, 2.0)], 10.0, 40) is None
    assert _real_diagonal_zero_search([(1.0, 0.0)], 5.0, 40) is None


def test_double_diagonal_zero_for_triangle(oracle):
    # the double's diagonal is Re U(t)_{0,0} of K(3), (cos 2t + 2 cos t)/3,
    # which vanishes where cos t = (sqrt(3) - 1)/2
    dp = direct_product(complete(2), complete(3))
    rec = _vertex0(dp)
    assert rec.verdict is Verdict.NOT_SEDENTARY and rec.certified
    assert rec.certificate[-1] == "zero-at-minimum:t=1.19606189409"
    t = float(rec.certificate[-1].split("=")[1])
    assert t == pytest.approx(math.acos((math.sqrt(3) - 1) / 2), abs=1e-9)
    assert abs(oracle(dp, A, t)[0, 0]) < 1e-9


def test_double_diagonal_positive_with_loops():
    # spectrum {3, 0}: the double's diagonal cos(3t)/3 + 2/3 stays at or above 1/3
    g = WeightedGraph.from_edges(
        3, [(0, 1), (0, 2), (1, 2), (0, 0), (1, 1), (2, 2)]
    )
    dec = decompose(g)
    np.testing.assert_allclose(dec.eigenvalues, [3.0, 0.0], atol=1e-9)
    rec = _vertex0(direct_product(complete(2), g))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert rec.constant == pytest.approx(1 / 3, abs=1e-9)


def test_double_diagonal_zero_on_a_rational_support(oracle):
    # K(2) with edge weight 1/2 has support +-1/2, so the double's diagonal
    # cos(t/2) vanishes at pi, where the walk has moved to the partner
    y = WeightedGraph.from_edges(2, [(0, 1, Fraction(1, 2))])
    dp = direct_product(complete(2), y)
    rec = _vertex0(dp)
    assert rec.verdict is Verdict.PST and rec.certified and rec.partner == 3
    assert rec.pst_time == pytest.approx(math.pi, abs=1e-12)
    assert abs(oracle(dp, A, rec.pst_time)[0, 0]) < 1e-9
    assert abs(oracle(dp, A, rec.pst_time)[0, 3]) == pytest.approx(1.0, abs=1e-9)


def test_double_diagonal_uncertified_when_irrational():
    # the centre's support (3 +/- sqrt(17))/2 and its negatives share no
    # rational part, so the double's diagonal has no period
    g = WeightedGraph.from_edges(3, [(0, 1), (1, 2), (1, 1, 3)])
    dp = direct_product(complete(2), g)
    (rec,) = classify_all(dp, A, vertices=(1,), horizon=25.0, grid_points=4001)
    assert rec.evidence.mode is InfimumMode.GRID_LOWER_CONFIDENCE
    assert (rec.evidence.grid_points, rec.evidence.horizon) == (4001, 25.0)
    # the diagonal's long-run mean is 0 (no 0 in the support), so it changes
    # sign: only an exact not-sedentary may be certified
    assert rec.verdict is not Verdict.SEDENTARY
    assert rec.certified is (rec.verdict is Verdict.NOT_SEDENTARY)


@pytest.mark.parametrize(
    "horizon,grid_points",
    [(math.inf, None), (math.nan, None), (0.0, None), (-1.0, None), (None, 0), (None, 1)],
)
def test_double_diagonal_rejects_bad_grid(horizon, grid_points):
    dp = direct_product(complete(2), path(5))
    with pytest.raises(ValueError):
        classify_all(dp, A, horizon=horizon, grid_points=grid_points)


def test_double_cone_closed_form():
    c, tau = double_cone_real_minimum(2, 2)
    assert c == pytest.approx(0.25)
    # both critical times pi/3 and 2*pi/3 attain the minimum
    attained = 0.5 + math.cos(4 * tau) / 6 + math.cos(2 * tau) / 3
    assert attained == pytest.approx(c, abs=1e-12)
    rec = _vertex0(direct_product(complete(2), join(empty(2), cycle(4))))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert rec.constant == pytest.approx(c, abs=1e-12)


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
    # the double of the cone has the real part as its diagonal
    rec = _vertex0(direct_product(complete(2), g))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert rec.constant == pytest.approx(c, abs=1e-12)


def test_blowup_bound_no_zero_in_base():
    # K(2) misses eigenvalue 0, so the floor of its 3-fold blow-up is 1 - 2/3
    floor = _blowup_floor(complete(2), 0, 3)
    assert floor == pytest.approx(1 / 3, abs=1e-12)
    rec = _vertex0(blow_up(3, complete(2)))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert rec.constant == pytest.approx(floor, abs=1e-12)


def test_blowup_bound_with_zero_weight():
    # an end of P(3) has weight 1/2 at eigenvalue 0: the floor is 0 + 2 (1/2)/2
    floor = _blowup_floor(path(3), 0, 2)
    assert floor == pytest.approx(0.5, abs=1e-12)
    rec = _vertex0(blow_up(2, path(3)))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert rec.constant == pytest.approx(floor, abs=1e-12)


def test_blowup_pair_parity_outcomes():
    # the two copies of a vertex whose base support misses 0 are twins sharing
    # eigenvalue 0: an odd relation over the base support keeps them sedentary
    rec = _vertex0(blow_up(2, complete(3)))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert "parity:odd-relation" in rec.certificate
    # all-even relations let them transfer, here perfectly: the support is integral
    rec = _vertex0(blow_up(2, complete(4)))
    assert rec.verdict is Verdict.PST and rec.certified
    assert rec.pst_time == pytest.approx(math.pi / 2, abs=1e-12)
    # an unrecognized base support leaves the twin floor with no parity step
    rec = _vertex0(blow_up(2, _p5_prime()))
    assert rec.verdict is Verdict.SEDENTARY
    assert rec.certificate[-1] == "grid-evidence"
    assert not any(step.startswith("parity:") for step in rec.certificate)


def test_huge_loop_classifies():
    # a loop of weight 2**50 puts the spectral radius at 3.4e15, so eigh's
    # eigenvalues are off by up to about 0.75; at the exact equality time pi
    # the float |U(t)_{7,11}| is 0.90: the pair ends undetermined
    loop = WeightedGraph.from_edges(1, [(0, 0, 2**50)])
    g = direct_product(join(empty(1), empty(2)), join(complete(3), loop))
    records = classify_all(g, MatrixKind.parse("Mq:-1"), grid_points=2001)
    flagged = [rec for rec in records if "inconsistent:pst-at-equality-time" in rec.certificate]
    assert [rec.vertex for rec in flagged] == [7, 11]
    for rec in flagged:
        assert rec.verdict is Verdict.UNDETERMINED and not rec.certified
        assert rec.certificate[-1] == "inconsistent:pst-at-equality-time"


def test_period_minimum_below_the_floor_is_downgraded(monkeypatch):
    # a leaf of star(4) has the twin floor 2 (3/4) - 1 = 1/2; a one-period
    # minimum of zero contradicts it
    zero = InfimumEstimate(0.0, 0.0, InfimumMode.EXACT_ON_PERIOD, 2, math.pi)
    monkeypatch.setattr(WalkEvaluator, "infimum_diagonal", lambda *args: zero)
    rec = classify_all(star(4), A, vertices=(1,))[0]
    assert rec.verdict is Verdict.UNDETERMINED and not rec.certified
    assert rec.certificate[-2:] == ("projection-floor:a=0.75", "inconsistent:floor-dip")


def test_join_transfer_constant():
    # a join moves every diagonal by at most 2/|V(X)|, so X's constant 7/25
    # leaves at least 7/25 - 2/25 after joining K(3)
    x = direct_product(complete(5), complete(5))
    c_x = _vertex0(x).constant
    assert c_x == pytest.approx(7 / 25, abs=1e-12)
    rec = _vertex0(join(x, complete(3)))
    assert rec.verdict is Verdict.SEDENTARY and rec.certified
    assert rec.constant == pytest.approx(0.28, abs=1e-12)
    assert rec.constant >= c_x - 2 / x.n - 1e-12


# -- one decision per twin set -----------------------------------------------

TWIN_GRAPHS = [
    "CP(4)",
    "CP(6)",
    "KM(2,3)",
    "KM(1,2,3)",
    "blowup(2,K(3))",
    "blowup(3,C(5))",
    "join(K(2),O(3))",
    "join(K(3),O(2))",
    "Gamma(2,1,1,2)",
    "Gamma(1,2,3)",
]
TWIN_KINDS = [A, L, MatrixKind.parse("Mq:2")]

_NUMBER = r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?|[-+]?inf|nan"


def _assert_same_record(got: VertexClassification, own: VertexClassification) -> None:
    """Equal verdicts, certification, partners and trail step names; floats,
    in the fields and in the trail, within 1e-12."""
    assert (got.vertex, got.verdict, got.certified, got.partner) == (
        own.vertex, own.verdict, own.certified, own.partner
    )
    assert (got.tight, got.sharp) == (own.tight, own.sharp)
    assert [s.split(":")[0] for s in got.certificate] == [
        s.split(":")[0] for s in own.certificate
    ]
    for a, b in zip(got.certificate, own.certificate):
        xs, ys = re.findall(_NUMBER, a), re.findall(_NUMBER, b)
        assert len(xs) == len(ys), (a, b)
        assert all(math.isclose(float(x), float(y), abs_tol=1e-12) for x, y in zip(xs, ys))
    for name in ("constant", "tightness_time", "pst_time"):
        x, y = getattr(got, name), getattr(own, name)
        assert (x is None) == (y is None), name
        if x is not None:
            assert x == pytest.approx(y, abs=1e-12), name
    # the set shares one scan; an exact one-period scan places its argmin
    # alike, but a bounded scan's polished argmin on a flat minimum moves by
    # ~1e-9, so there only the well-conditioned minimum is compared
    assert got.evidence.value == pytest.approx(own.evidence.value, abs=1e-12)
    assert got.evidence.certified == own.evidence.certified
    if got.evidence.certified:
        assert got.evidence.attained_time == pytest.approx(own.evidence.attained_time, abs=1e-12)


@pytest.mark.parametrize("kind", TWIN_KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("spec", TWIN_GRAPHS)
def test_twin_members_share_their_sets_decision(spec, kind):
    # each member's record from the whole-graph run equals the one it gets
    # classified alone, where it is its set's representative
    g = parse_graph(spec)
    records = classify_all(g, kind)
    members = [u for ts in find_twin_sets(g) for u in ts.members]
    assert members
    for u in members:
        _assert_same_record(records[u], classify_all(g, kind, vertices=[u])[0])
    for ts in find_twin_sets(g):
        assert len({id(records[u].evidence) for u in ts.members}) == 1


@pytest.mark.parametrize("kind", TWIN_KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("spec", TWIN_GRAPHS)
def test_decision_tree_runs_once_per_twin_set(spec, kind, monkeypatch):
    g = parse_graph(spec)
    calls = []
    real = sedentary_module._classify

    def counting(facts, u, scan):
        calls.append(u)
        return real(facts, u, scan)

    monkeypatch.setattr(sedentary_module, "_classify", counting)
    records = classify_all(g, kind)
    sets = find_twin_sets(g)
    twin_free = [u for u in range(g.n) if not any(u in ts for ts in sets)]
    assert sorted(calls) == sorted([ts.members[0] for ts in sets] + twin_free)
    assert [r.vertex for r in records] == list(range(g.n))


def test_pair_member_takes_the_representative_as_partner():
    # CP(4) under A: each antipodal pair has PST; listing the larger member
    # first makes it the representative
    g = parse_graph("CP(4)")
    (ts, *_) = find_twin_sets(g)
    u, v = ts.members
    first, second = classify_all(g, A, vertices=[v, u])
    assert first.verdict is second.verdict is Verdict.PST
    assert (first.vertex, first.partner) == (v, u)
    assert (second.vertex, second.partner) == (u, v)
    assert first.pst_time == second.pst_time


# -- perfect-transfer partners of twin-free vertices -------------------------


def _pst_partner_search(facts, u, sup, form):
    """The partner search one vertex at a time: the reference the column read
    of ``sedentary._pst_partner_scan`` must match."""
    dec, ev = facts.dec, facts.evaluator
    for v in range(dec.n):
        if v == u:
            continue
        sc = dec.strongly_cospectral(u, v)
        if sc is None:
            continue
        plus_pos = sedentary_module._support_positions(sup, sc.plus)
        if not plus_pos or len(plus_pos) == len(sup):
            continue
        t1 = equality_time_criterion(form, plus_pos)
        if t1 is not None and ev.magnitude(u, v, t1) >= 1.0 - sedentary_module.PST_TOL:
            return v, t1
    return None


def _cube(d: int) -> str:
    return "K(2)" if d == 1 else f"cprod(K(2),{_cube(d - 1)})"


# d-cubes have PST between antipodes (the 2-cube is C(4), whose antipodes are
# twins); the direct products and C(6) have zero minima, and K(2) x K(4), the
# 3-cube again, and K(2) x K(8) have partners
ZERO_MINIMUM_GRAPHS = [_cube(d) for d in range(3, 7)] + [
    f"dprod(K(2),K({m}))" for m in range(3, 9)
] + ["C(6)"]


def _zero_minimum_vertices(records) -> list[int]:
    return [
        r.vertex for r in records if any(s.startswith("zero-at-minimum") for s in r.certificate)
    ]


@pytest.mark.parametrize("kind", TWIN_KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("spec", ZERO_MINIMUM_GRAPHS)
def test_partner_read_matches_the_search(spec, kind, monkeypatch):
    g = parse_graph(spec)
    assert not find_twin_sets(g)
    records = classify_all(g, kind)
    zeros = _zero_minimum_vertices(records)
    assert zeros
    monkeypatch.setattr(sedentary_module, "_pst_partner_scan", _pst_partner_search)
    reference = classify_all(g, kind)
    assert _zero_minimum_vertices(reference) == zeros
    for u in zeros:
        got, want = records[u], reference[u]
        assert (got.verdict, got.partner, got.pst_time) == (want.verdict, want.partner, want.pst_time)
    if spec.startswith("cprod"):
        assert all(records[u].verdict is Verdict.PST for u in zeros)


@pytest.mark.parametrize("kind", TWIN_KINDS, ids=lambda k: k.short_name)
@pytest.mark.parametrize("spec", [_cube(4), "dprod(K(2),K(5))", "C(6)"])
def test_partner_read_tests_one_candidate(spec, kind, monkeypatch):
    # the search tested every other vertex: 128 calls on the 4-cube
    calls = 0
    real = SpectralDecomposition.strongly_cospectral

    def counted(self, u, v):
        nonlocal calls
        calls += 1
        return real(self, u, v)

    monkeypatch.setattr(SpectralDecomposition, "strongly_cospectral", counted)
    records = classify_all(parse_graph(spec), kind)
    assert calls <= len(_zero_minimum_vertices(records))
