"""Exact-arithmetic helpers: valuations, square-free parts, recognition, parity."""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sedwalk import (
    ExactEigenvalue,
    QuadraticIntegerForm,
    fraction_gcd,
    gcd_set,
    integer_kernel_basis,
    integer_relation_parity,
    is_perfect_square,
    nu2,
    nu2_fraction,
    periodic_form,
    recognize_values,
    square_free_part,
)


@given(st.integers(min_value=-(2**40), max_value=2**40).filter(lambda a: a != 0))
def test_nu2_divides_exactly(a):
    v = nu2(a)
    assert a % 2**v == 0
    assert (a // 2**v) % 2 == 1
    assert nu2(-a) == v


def test_nu2_zero_rejected():
    with pytest.raises(ValueError):
        nu2(0)
    with pytest.raises(ValueError):
        nu2_fraction(Fraction(0))


@given(
    st.integers(min_value=-(2**20), max_value=2**20).filter(lambda a: a != 0),
    st.integers(min_value=1, max_value=2**20),
)
def test_nu2_fraction_is_difference(p, q):
    assert nu2_fraction(Fraction(p, q)) == nu2(p) - nu2(q)


def test_nu2_fraction_examples():
    assert nu2_fraction(Fraction(3, 4)) == -2
    assert nu2_fraction(Fraction(12, 5)) == 2
    assert nu2_fraction(8) == 3
    assert nu2_fraction(Fraction(1, 2)) == -1


@given(st.lists(st.integers(min_value=-1000, max_value=1000), max_size=8))
def test_gcd_set_divides_all(vals):
    g = gcd_set(vals)
    assert g >= 0
    if any(vals):
        assert g > 0
        assert all(v % g == 0 for v in vals)
    else:
        assert g == 0


@given(
    st.lists(
        st.fractions(
            min_value=-10, max_value=10, max_denominator=12
        ).filter(lambda f: f != 0),
        min_size=1,
        max_size=6,
    )
)
def test_fraction_gcd_generates(vals):
    g = fraction_gcd(vals)
    assert g > 0
    for v in vals:
        assert (v / g).denominator == 1
    # g itself lies in the additive group, so it is the largest such generator
    den = math.lcm(*(v.denominator for v in vals))
    assert g * den == gcd_set(int(v * den) for v in vals)


def test_fraction_gcd_examples():
    assert fraction_gcd([Fraction(1, 2), Fraction(3, 4)]) == Fraction(1, 4)
    assert fraction_gcd([Fraction(2), Fraction(3)]) == 1
    assert fraction_gcd([]) == 0
    assert fraction_gcd([Fraction(0)]) == 0


@given(st.integers(min_value=0, max_value=10**6))
def test_is_perfect_square(n):
    ok, r = is_perfect_square(n)
    if ok:
        assert r * r == n
    else:
        assert r is None
        assert math.isqrt(n) ** 2 != n
    assert is_perfect_square(-max(n, 1)) == (False, None)


@given(st.integers(min_value=1, max_value=10**6))
def test_square_free_part_reassembles(n):
    s, f = square_free_part(n)
    assert s * f * f == n
    d = 2
    while d * d <= s:
        assert s % (d * d) != 0
        d += 1
    s_neg, f_neg = square_free_part(-n)
    assert s_neg == -s and f_neg == f


def test_square_free_part_examples():
    assert square_free_part(12) == (3, 2)
    assert square_free_part(1) == (1, 1)
    assert square_free_part(49) == (1, 7)
    assert square_free_part(18) == (2, 3)
    assert square_free_part(0) == (0, 1)


def _form_values(form: QuadraticIntegerForm) -> list[float]:
    return [(form.a + b * math.sqrt(form.delta)) / 2 for b in form.b]


def test_quadratic_form_values_and_differences():
    form = QuadraticIntegerForm(1, (1, -1), 5)
    golden = (1 + math.sqrt(5)) / 2
    assert _form_values(form) == pytest.approx([golden, 1 - golden])
    assert form.scaled_difference(0, 1) == 1
    assert form.delta != 1
    assert form.g == 1
    assert form.period == pytest.approx(2 * math.pi / math.sqrt(5))


def test_quadratic_form_integer_convention():
    form = QuadraticIntegerForm(0, (8, -2), 1)
    assert form.delta == 1
    assert _form_values(form) == [4.0, -1.0]
    assert form.g == 5
    assert form.period == pytest.approx(2 * math.pi / 5)
    # the shared form of exact integers follows the same convention
    four, minus_one = (ExactEigenvalue(Fraction(v), Fraction(0), 1) for v in (4, -1))
    assert periodic_form([four, minus_one]) == form


def test_quadratic_form_validation():
    with pytest.raises(ValueError):
        QuadraticIntegerForm(0, (1,), 0)
    with pytest.raises(ValueError):
        QuadraticIntegerForm(0, (1,), 12)


def _recognized_form(vals):
    exacts = recognize_values(vals)
    return periodic_form(exacts) if exacts is not None else None


def test_recognize_spectrum_integers():
    form = _recognized_form([4.0, -1.0 + 1e-12, 0.0])
    assert form is not None
    assert form.delta == 1
    assert form.b == (8, -2, 0)
    assert all(type(b) is int for b in form.b)


def test_recognize_spectrum_quadratic():
    vals = [(1 + math.sqrt(5)) / 2, (1 - math.sqrt(5)) / 2]
    form = _recognized_form(vals)
    assert form is not None
    assert form.delta == 5
    assert _form_values(form) == pytest.approx(vals)


def test_recognize_spectrum_star_support():
    vals = [math.sqrt(3), 0.0, -math.sqrt(3)]
    form = _recognized_form(vals)
    assert form is not None
    assert form.a == 0 and form.delta == 3
    assert form.b == (2, 0, -2)


def test_recognize_spectrum_rejects_nested_radicals():
    # two incommensurable radicals cannot share one (a + b*sqrt(d))/2 form
    vals = [
        math.sqrt((5 + math.sqrt(5)) / 2),
        math.sqrt((5 - math.sqrt(5)) / 2),
        -math.sqrt((5 + math.sqrt(5)) / 2),
        -math.sqrt((5 - math.sqrt(5)) / 2),
    ]
    assert recognize_values(vals) is None
    assert recognize_values([]) is None


def test_periodic_form_thirds_and_two_rational_parts():
    # +-1/3 is rational, so periodic with g = 2/3; 1 +- sqrt(2) beside 3 +- sqrt(2)
    # is exact but has two rational parts, so no period
    form = _recognized_form([1 / 3, -1 / 3])
    assert form == QuadraticIntegerForm(0, (Fraction(2, 3), Fraction(-2, 3)), 1)
    assert form.g == Fraction(2, 3) and form.period == pytest.approx(3 * math.pi)
    r2 = math.sqrt(2)
    vals = [3 + r2, 1 + r2, 1 - r2, 3 - r2]
    assert recognize_values(vals) is not None
    assert _recognized_form(vals) is None


@settings(max_examples=150, deadline=None)
@given(
    a=st.integers(min_value=-12, max_value=12).map(lambda n: Fraction(n, 2)),
    bs=st.lists(st.integers(min_value=-5, max_value=5), min_size=1, max_size=5),
    delta=st.sampled_from([2, 3, 5, 6, 7, 10]),
)
def test_recognize_spectrum_roundtrip(a, bs, delta):
    # supports of rational matrices are closed under conjugation, so pair them up
    paired = tuple(bs) + tuple(-b for b in bs)
    if all(b == 0 for b in paired):
        paired += (1, -1)
    target = QuadraticIntegerForm(a, paired, delta)
    vals = _form_values(target)
    form = _recognized_form(vals)
    assert form == target
    scale = max(1.0, max(abs(v) for v in vals))
    for v, w in zip(vals, _form_values(form)):
        assert abs(v - w) <= 1e-9 * scale


def test_recognize_values_mixed():
    vals = [1.5, 2 + math.sqrt(2), 2 - math.sqrt(2), 3.0]
    out = recognize_values(vals)
    assert out is not None
    assert out[0].rational == Fraction(3, 2) and out[0].radical == 0
    assert out[1].rational == 2 and out[1].radical == 1 and out[1].delta == 2
    assert out[2].radical == -1
    assert out[3].rational == 3
    for ev, v in zip(out, vals):
        assert float(ev) == pytest.approx(v)


def test_recognize_values_requires_common_radical():
    vals = [math.sqrt(2), -math.sqrt(2), math.sqrt(3), -math.sqrt(3)]
    assert recognize_values(vals) is None
    # an unpaired irrational has no conjugate partner to land on
    assert recognize_values([math.sqrt(2), 1.0]) is None


def test_integer_kernel_basis_sum_constraint():
    basis = integer_kernel_basis([[1, 1, 1]])
    assert len(basis) == 2
    for vec in basis:
        assert sum(vec) == 0
    # the two vectors must be independent
    a, b = basis
    assert any(a[i] * b[j] != a[j] * b[i] for i in range(3) for j in range(3))


def test_integer_kernel_basis_rational_rows():
    rows = [[Fraction(1, 2), Fraction(-1, 3), 0], [0, 1, -2]]
    basis = integer_kernel_basis(rows)
    assert len(basis) == 1
    vec = basis[0]
    assert Fraction(1, 2) * vec[0] - Fraction(1, 3) * vec[1] == 0
    assert vec[1] - 2 * vec[2] == 0
    # primitive generator of that line: (2, 3, ...) scaled; x=2k, y=3k, z=3k/2
    assert [abs(c) for c in vec] == [4, 6, 3]


def test_integer_kernel_basis_full_rank_kernel_empty():
    assert integer_kernel_basis([[1, 0], [0, 1]]) == []
    with pytest.raises(ValueError):
        integer_kernel_basis([])
    with pytest.raises(ValueError):
        integer_kernel_basis([[1, 2], [1]])


def _brute_relations(plus, minus, bound=3):
    """All nonzero integer relations with coefficients in [-bound, bound]."""
    vals = [Fraction(v) for v in plus] + [Fraction(v) for v in minus]
    k = len(vals)
    found = []
    for vec in product(range(-bound, bound + 1), repeat=k):
        if not any(vec):
            continue
        if sum(vec) != 0:
            continue
        if sum(c * v for c, v in zip(vec, vals)) != 0:
            continue
        found.append(vec)
    return found


def test_relation_parity_odd_witness():
    # support {6, 4, 0} split as plus={6, 0}, minus={4}: lattice k*(-2, -1, 3)
    m = integer_relation_parity([6, 0], [4])
    assert m is not None
    assert 6 * m[0] + 0 * m[1] + 4 * m[2] == 0
    assert sum(m) == 0
    assert (m[0] + m[1]) % 2 == 1


def test_relation_parity_all_even():
    # support {8, 6, 0} split as plus={8, 0}, minus={6}: lattice k*(-3, -1, 4)
    assert integer_relation_parity([8, 0], [6]) is None


def test_relation_parity_degenerate_and_trivial():
    with pytest.raises(ValueError, match="both sides"):
        integer_relation_parity([1], [])
    with pytest.raises(ValueError, match="both sides"):
        integer_relation_parity([], [1])
    # 1 and sqrt(2) admit no nontrivial relation, so none has an odd sum
    assert integer_relation_parity([1], [ExactEigenvalue(Fraction(0), Fraction(1), 2)]) is None


def test_relation_parity_mixed_radicals_rejected():
    with pytest.raises(ValueError):
        integer_relation_parity(
            [ExactEigenvalue(Fraction(0), Fraction(1), 2)],
            [ExactEigenvalue(Fraction(0), Fraction(1), 3)],
        )


def test_relation_parity_radical_pairs():
    # {sqrt(2), 0} vs {-sqrt(2)}: lattice k*(1, -2, 1), plus-sum odd
    rt2 = ExactEigenvalue(Fraction(0), Fraction(1), 2)
    m = integer_relation_parity([rt2, 0], [ExactEigenvalue(Fraction(0), Fraction(-1), 2)])
    assert m is not None and abs(m[1]) == 2


@settings(max_examples=120, deadline=None)
@given(
    plus=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2),
    minus=st.lists(st.integers(min_value=-4, max_value=4), min_size=1, max_size=2),
)
def test_relation_parity_matches_brute_force(plus, minus):
    witness = integer_relation_parity(plus, minus)
    p = len(plus)
    brute_odd = [
        vec for vec in _brute_relations(plus, minus) if sum(vec[:p]) % 2 == 1
    ]
    if brute_odd:
        assert witness is not None
    if witness is None:
        assert not brute_odd
    else:
        vals = list(plus) + list(minus)
        assert sum(witness) == 0
        assert sum(c * v for c, v in zip(witness, vals)) == 0
        assert sum(witness[:p]) % 2 == 1
