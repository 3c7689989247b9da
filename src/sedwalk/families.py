"""Closed-form verdicts for structured graph families.

Complete multipartite graphs, threshold graphs (under the Laplacian) and
direct products of complete graphs have vertex supports small enough to
write down symbolically.  The functions here classify vertices of these
families from the parameters alone, without building a matrix, which makes
them an independent cross-check of the spectral engine in
:mod:`sedwalk.sedentary`.

Conventions shared with the engine: ``constant`` is a proven value of the
diagonal infimum (tight = attained, sharp = approached but never attained),
``bound`` is a proven lower bound when the infimum itself is out of reach,
and ``certified`` marks verdicts backed by exact reasoning rather than
numerics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate
from itertools import product as iter_product
from operator import add
from typing import Sequence

from .numtheory import QuadraticIntegerForm, is_perfect_square, nu2, square_free_part
from .sedentary import Verdict, equality_time_criterion

__all__ = [
    "FamilyVerdict",
    "multipartite_laplacian_verdict",
    "multipartite_adjacency_verdict",
    "ThresholdSpec",
    "threshold_support",
    "threshold_vertex_verdict",
    "threshold_pst_congruences",
    "complete_product_verdict",
]


@dataclass(frozen=True)
class FamilyVerdict:
    """Outcome of a closed-form family classification.

    ``case`` names the structural branch that produced the verdict, so tests
    can pin down which formula fired.  ``time`` is the first positive time at
    which a tight constant (or a zero, or perfect transfer) is attained.
    """

    verdict: Verdict
    case: str
    constant: float | None = None
    bound: float | None = None
    time: float | None = None
    tight: bool | None = None
    sharp: bool | None = None
    certified: bool = True


# -- small helpers ---------------------------------------------------------


def _validate_parts(parts: Sequence[int], ell: int) -> list[int]:
    sizes = [int(p) for p in parts]
    if not sizes:
        raise ValueError("need at least one part")
    if any(p < 1 for p in sizes):
        raise ValueError("part sizes must be positive")
    if not 0 <= ell < len(sizes):
        raise ValueError(f"part index {ell} out of range")
    return sizes


def _integer_equality_time(
    values: Sequence[int], s_values: Sequence[int]
) -> float | None:
    """Equality-time test on an all-integer support, with S given by value."""
    vals = sorted({int(v) for v in values}, reverse=True)
    s_set = {int(v) for v in s_values}
    if not s_set <= set(vals):
        raise ValueError("S must be drawn from the support")
    form = QuadraticIntegerForm(0, tuple(2 * v for v in vals), 1)
    positions = tuple(i for i, v in enumerate(vals) if v in s_set)
    return equality_time_criterion(form, positions)


def _plus_minus_form(disc: int) -> QuadraticIntegerForm:
    """Shared form for a support {+sqrt(disc)/2, 0, -sqrt(disc)/2}."""
    if disc <= 0:
        raise ValueError("discriminant must be positive")
    sf, f = square_free_part(disc)
    # when disc is a perfect square the entries f, 0, -f are twice the
    # integer eigenvalues, matching the delta == 1 convention
    return QuadraticIntegerForm(0, (f, 0, -f), 1 if sf == 1 else sf)


def _check(condition: bool, eq: float | None) -> None:
    """The valuation criteria must agree with the equality-time test."""
    if (eq is not None) != condition:
        raise ValueError("equality-time test disagrees with the valuation criterion")


# -- complete multipartite graphs, Laplacian -------------------------------


def multipartite_laplacian_verdict(parts: Sequence[int], ell: int) -> FamilyVerdict:
    """Laplacian verdict for a vertex in part ``ell`` of a complete
    multipartite graph with the given part sizes.

    Total: every input gets a verdict.  Supports are {0, n} for a part of
    size one and {0, n - p, n} for a part of size p >= 2, where n is the
    vertex count.
    """
    sizes = _validate_parts(parts, ell)
    n = sum(sizes)
    nl = sizes[ell]
    if len(sizes) == 1:
        # no edges, so the walk never moves
        return FamilyVerdict(
            Verdict.SEDENTARY, "edgeless", constant=1.0, time=0.0, tight=True, sharp=False
        )
    if n == 2:
        eq = _integer_equality_time([0, 2], [0])
        assert eq is not None
        return FamilyVerdict(Verdict.PST, "two-vertices", time=eq)
    if nl == 1:
        eq = _integer_equality_time([0, n], [n])
        assert eq is not None
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "laplacian-apex",
            constant=1.0 - 2.0 / n,
            time=eq,
            tight=True,
            sharp=False,
        )
    support = [0, n - nl, n]
    if nl == 2:
        if n % 4 == 0:
            eq = _integer_equality_time(support, [0, n])
            assert eq is not None
            return FamilyVerdict(Verdict.PST, "pair-part-pst", time=eq)
        if n % 2 == 0:
            eq = _integer_equality_time(support, [0, n - 2])
            assert eq is not None
            return FamilyVerdict(
                Verdict.SEDENTARY,
                "pair-part-even",
                constant=2.0 / n,
                time=eq,
                tight=True,
                sharp=False,
            )
        if n == 3:
            eq = _integer_equality_time(support, [1, 3])
            assert eq is not None
            return FamilyVerdict(
                Verdict.SEDENTARY,
                "pair-part-three",
                constant=1.0 / 3.0,
                time=eq,
                tight=True,
                sharp=False,
            )
        # odd n >= 5: the minimum is not of the one-subset kind, but it is
        # still attained on the quarter period
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "pair-part-odd",
            constant=math.sqrt(2.0) / n,
            time=math.pi / 2.0,
            tight=True,
            sharp=False,
        )
    bound = 1.0 - 2.0 / nl
    eq = _integer_equality_time(support, [n - nl])
    _check(nu2(n) > nu2(nl), eq)
    if eq is not None:
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "large-part-tight",
            constant=bound,
            time=eq,
            tight=True,
            sharp=False,
        )
    return FamilyVerdict(Verdict.SEDENTARY, "large-part-bound", bound=bound)


# -- complete multipartite graphs, adjacency -------------------------------


def multipartite_adjacency_verdict(
    parts: Sequence[int], ell: int
) -> FamilyVerdict | None:
    """Adjacency verdict for a vertex in part ``ell``, or None when the part
    pattern has no closed form (the spectral engine still handles those).
    """
    sizes = _validate_parts(parts, ell)
    n = sum(sizes)
    nl = sizes[ell]
    if len(sizes) == 1:
        return FamilyVerdict(
            Verdict.SEDENTARY, "edgeless", constant=1.0, time=0.0, tight=True, sharp=False
        )
    others = [sizes[r] for r in range(len(sizes)) if r != ell]
    if nl == 1:
        return _adjacency_apex_verdict(sizes, n)
    if nl == 2:
        return _adjacency_pair_verdict(others, n)
    return _adjacency_large_part_verdict(others, n, nl)


def _adjacency_apex_verdict(sizes: list[int], n: int) -> FamilyVerdict | None:
    """Vertex whose part has size one."""
    ones = sum(1 for p in sizes if p == 1)
    rest = [p for p in sizes if p != 1]
    uniform = len(set(rest)) <= 1
    if ones == 1:
        if not rest or not uniform:
            return None
        m = rest[0]
        d = n - m - 1
        disc = d * d + 4 * (n - 1)
        t1 = math.pi / math.sqrt(disc)
        if d == 0:
            return FamilyVerdict(Verdict.NOT_SEDENTARY, "apex-zero", time=t1)
        # two-point support {(d +/- sqrt(disc)) / 2} with weight gap d / sqrt(disc)
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "cone-apex",
            constant=d / math.sqrt(disc),
            time=t1,
            tight=True,
            sharp=False,
        )
    if ones == 2:
        if not rest:
            # a single edge
            eq = _integer_equality_time([1, -1], [1])
            assert eq is not None
            return FamilyVerdict(Verdict.PST, "two-vertices", time=eq)
        if not uniform:
            return None
        m = rest[0]
        disc = (n - m - 3) ** 2 + 8 * (n - 2)
        square, root = is_perfect_square(disc)
        if not square:
            return FamilyVerdict(Verdict.PGST, "two-apexes-pgst")
        lam_hi = (n - m - 1 + root) // 2
        lam_lo = (n - m - 1 - root) // 2
        eq = _integer_equality_time([lam_hi, -1, lam_lo], [lam_hi, lam_lo])
        _check(nu2(n - m + 1) != nu2(root), eq)
        if eq is not None:
            return FamilyVerdict(Verdict.PST, "two-apexes-pst", time=eq)
        return FamilyVerdict(Verdict.SEDENTARY, "two-apexes-blocked")
    # ones >= 3: the apexes form a clique of adjacent twins
    bound = 1.0 - 2.0 / ones
    if not rest:
        # complete graph
        eq = _integer_equality_time([n - 1, -1], [-1])
        assert eq is not None
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "clique",
            constant=bound,
            time=eq,
            tight=True,
            sharp=False,
        )
    if not uniform:
        return FamilyVerdict(Verdict.SEDENTARY, "apex-clique-bound", bound=bound)
    m = rest[0]
    d = n - m - 1
    disc = (n - m - 2 * ones + 1) ** 2 + 4 * ones * (n - ones)
    square, root = is_perfect_square(disc)
    if not square:
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "apex-clique-sharp",
            constant=bound,
            tight=False,
            sharp=True,
        )
    lam_hi = (d + root) // 2
    lam_lo = (d - root) // 2
    eq = _integer_equality_time([lam_hi, -1, lam_lo], [-1])
    _check(nu2(n - m + 1) != nu2(root), eq)
    if eq is not None:
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "apex-clique-tight",
            constant=bound,
            time=eq,
            tight=True,
            sharp=False,
        )
    return FamilyVerdict(Verdict.SEDENTARY, "apex-clique-blocked", bound=bound)


def _adjacency_pair_verdict(others: list[int], n: int) -> FamilyVerdict | None:
    """Vertex in a part of size two.

    Mixed parts of sizes one and two have no PST case, because their
    discriminant (n - 1)^2 + 4 ones is never a square.  There the other
    parts hold ``ones`` singletons and at least one pair, so
    1 <= ones <= n - 4.  Suppose (n - 1)^2 + 4 ones = r^2 with
    r = n - 1 + j; then j (2n - 2 + j) = 4 ones.  j = 0 gives ones = 0, an
    odd j makes the left side odd, and j >= 2 makes it at least 4n, which
    exceeds 4 (n - 4).
    """
    if len(set(others)) <= 1:
        m = others[0]
        d = n - m - 2
        disc = d * d + 8 * (n - 2)
        if n == m + 2:
            # bipartite with symmetric support {+sqrt(2(n-2)), 0, -sqrt(2(n-2))}
            eq = equality_time_criterion(_plus_minus_form(disc), (0, 2))
            assert eq is not None
            return FamilyVerdict(Verdict.PST, "pair-bipartite-pst", time=eq)
        square, root = is_perfect_square(disc)
        if not square:
            return FamilyVerdict(Verdict.PGST, "pair-uniform-pgst")
        lam_hi = (d + root) // 2
        lam_lo = (d - root) // 2
        eq = _integer_equality_time([lam_hi, 0, lam_lo], [lam_hi, lam_lo])
        _check(nu2(d) != nu2(root), eq)
        if eq is not None:
            return FamilyVerdict(Verdict.PST, "pair-uniform-pst", time=eq)
        s = (root - d) // 2
        if s < 1 or s * (d + s) != 2 * (n - 2):
            raise ValueError("inconsistent pair parametrization")
        g0 = math.gcd(d, s)
        d1, s1 = d // g0, s // g0
        constant = 1.0 / (d1 + 2) if s1 == 1 else math.sqrt(2.0) / (d1 + 2 * s1)
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "pair-uniform-tight",
            constant=constant,
            time=math.pi / g0,
            tight=True,
            sharp=False,
        )
    if set(others) <= {1, 2} and 1 in others:
        if 2 not in others:
            return None
        if n % 4 == 3:
            return FamilyVerdict(Verdict.PGST, "pair-mixed-pgst")
        return FamilyVerdict(Verdict.SEDENTARY, "pair-mixed-blocked")
    return None


def _adjacency_large_part_verdict(
    others: list[int], n: int, nl: int
) -> FamilyVerdict:
    """Vertex in a part of size at least three; the bound is unconditional."""
    bound = 1.0 - 2.0 / nl
    if len(set(others)) > 1:
        return FamilyVerdict(Verdict.SEDENTARY, "large-part-bound", bound=bound)
    m = others[0]
    d = n - nl - m
    disc = d * d + 4 * nl * (n - nl)
    if d == 0:
        eq = equality_time_criterion(_plus_minus_form(disc), (1,))
        assert eq is not None
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "large-part-tight",
            constant=bound,
            time=eq,
            tight=True,
            sharp=False,
        )
    square, root = is_perfect_square(disc)
    if not square:
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "large-part-sharp",
            constant=bound,
            tight=False,
            sharp=True,
        )
    lam_hi = (d + root) // 2
    lam_lo = (d - root) // 2
    eq = _integer_equality_time([lam_hi, 0, lam_lo], [0])
    _check(nu2(d) != nu2(root), eq)
    if eq is not None:
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "large-part-tight",
            constant=bound,
            time=eq,
            tight=True,
            sharp=False,
        )
    return FamilyVerdict(Verdict.SEDENTARY, "large-part-blocked", bound=bound)


# -- threshold graphs, Laplacian -------------------------------------------


@dataclass(frozen=True)
class ThresholdSpec:
    """Cell sizes of an iterated union/join construction.

    ``starts_empty`` says whether the first cell enters as an independent
    set; cell kinds then alternate.  The graph is connected exactly when the
    last cell is a join step.
    """

    cells: tuple[int, ...]
    starts_empty: bool = True

    def __post_init__(self) -> None:
        cells = tuple(int(c) for c in self.cells)
        if not cells:
            raise ValueError("need at least one cell")
        if any(c < 1 for c in cells):
            raise ValueError("cell sizes must be positive")
        object.__setattr__(self, "cells", cells)

    @property
    def h(self) -> int:
        return len(self.cells)

    @property
    def n(self) -> int:
        return sum(self.cells)

    def is_clique_cell(self, j: int) -> bool:
        if not 1 <= j <= self.h:
            raise ValueError(f"cell index {j} out of range")
        return (j % 2 == 0) if self.starts_empty else (j % 2 == 1)

    @cached_property
    def _alphas(self) -> tuple[int, ...]:
        return (0, *accumulate(self.cells))

    @cached_property
    def _betas(self) -> tuple[int, ...]:
        """beta(ell) at index ell - 1, then two zeros past the end."""
        tails = [0] * (self.h + 2)
        for r in range(self.h - 1, -1, -1):
            tails[r] = self.cells[r] + tails[r + 2]
        return tuple(tails)

    def alpha(self, j: int) -> int:
        """Vertices in cells 1..j, from prefix sums built once per spec."""
        return self._alphas[min(j, self.h)]

    def beta(self, ell: int) -> int:
        """Alternating tail sum m_ell + m_{ell+2} + ... for ell >= 1; zero past
        the end.  The sums are built once per spec."""
        return self._betas[ell - 1] if ell <= self.h else 0


def _canonical(spec: ThresholdSpec, j: int) -> tuple[ThresholdSpec, int]:
    """Merge leading size-one cells into their neighbor.

    A one-vertex independent set joined to a clique is a bigger clique, and
    a one-vertex clique disjoint-unioned with an independent set is a bigger
    independent set; either way the form flips and cell indices shift down.
    """
    if spec.cells[0] != 1 or spec.h == 1:
        return spec, j  # the same spec, so its sums are built once
    cells = list(spec.cells)
    empty = spec.starts_empty
    while cells[0] == 1 and len(cells) > 1:
        cells = [cells[1] + 1] + cells[2:]
        empty = not empty
        j = 1 if j <= 2 else j - 1
    return ThresholdSpec(tuple(cells), empty), j


def threshold_pst_congruences(cells: Sequence[int]) -> bool:
    """Leading-pair transfer pattern: 2, then 2 mod 4, then all 0 mod 4."""
    cs = [int(c) for c in cells]
    if not cs or cs[0] != 2:
        return False
    if len(cs) >= 2 and cs[1] % 4 != 2:
        return False
    return all(c % 4 == 0 for c in cs[2:])


def threshold_support(spec: ThresholdSpec, j: int) -> tuple[int, ...]:
    """Laplacian eigenvalue support (by value, descending) of any vertex in
    cell ``j``."""
    spec, j = _canonical(spec, j)
    h = spec.h
    if not 1 <= j <= h:
        raise ValueError(f"cell index {j} out of range")
    if spec.n == 1:
        return (0,)
    if not spec.is_clique_cell(h):
        raise ValueError("last cell must be a join step (graph is disconnected)")
    # a clique cell contributes its own join value alpha(j) plus the tail
    # accumulated over later joins; a union cell only starts contributing at
    # the join that first touches it.  Every later join also splits off a
    # kernel direction with weight at u, giving the bare tail sums.
    # (the sums are read as slices: beta(ell) for ell = start + 2, start + 4,
    # ..., h, and alpha(ell) + beta(ell + 2) for ell = start, ..., h - 2)
    start = j if spec.is_clique_cell(j) else j + 1
    vals: set[int] = {0, spec.alpha(h)}
    vals.update(spec._betas[start + 1 : h : 2])
    if not spec.is_clique_cell(j):
        vals.add(spec.beta(start))
    vals.update(map(add, spec._alphas[start : h - 1 : 2], spec._betas[start + 1 : h : 2]))
    return tuple(sorted(vals, reverse=True))


def threshold_vertex_verdict(spec: ThresholdSpec, j: int) -> FamilyVerdict:
    """Laplacian verdict for any vertex in cell ``j``.

    Total: the supports above feed the equality-time test, and when no
    equality time exists the vertex is still sedentary (integer spectrum
    with no strong cospectrality), just without a closed-form constant.
    """
    spec, j = _canonical(spec, j)
    h = spec.h
    if not 1 <= j <= h:
        raise ValueError(f"cell index {j} out of range")
    if spec.n == 1:
        return FamilyVerdict(
            Verdict.SEDENTARY, "single-vertex", constant=1.0, time=0.0, tight=True, sharp=False
        )
    if not spec.is_clique_cell(h):
        raise ValueError("last cell must be a join step (graph is disconnected)")
    # in every case the heaviest eigenvalue carries weight 1 - 1/alpha(j):
    # for a clique cell it is the cell's own join value plus the tail picked
    # up from later joins, for a union cell it is the kernel value split off
    # by the first join above the cell
    a = 1 - Fraction(1, spec.alpha(j))
    if spec.is_clique_cell(j):
        s_val = spec.alpha(j) + spec.beta(j + 2)
        case = "first-clique-cell" if j == 1 else "clique-cell"
    else:
        s_val = spec.beta(j + 1)
        case = "union-cell"
    bound = 2 * a - 1
    eq = _integer_equality_time(threshold_support(spec, j), [s_val])
    if bound == 0:
        # only a leading cell of two vertices pushes the floor to zero, and
        # then an equality time is exactly the perfect-transfer pattern
        _check(threshold_pst_congruences(spec.cells), eq)
        if eq is not None:
            return FamilyVerdict(Verdict.PST, "first-cell-pst", time=eq)
        return FamilyVerdict(Verdict.SEDENTARY, case)
    if eq is not None:
        return FamilyVerdict(
            Verdict.SEDENTARY,
            case,
            constant=float(bound),
            time=eq,
            tight=True,
            sharp=False,
        )
    return FamilyVerdict(Verdict.SEDENTARY, case, bound=float(bound))


# -- direct products of complete graphs ------------------------------------


def _complete_product_cosine_terms(ms: list[int]) -> list[tuple[float, int]]:
    """Cosine form of the product diagonal through a factor equal to 2.

    Pairing subsets through that factor collapses the phases into
    sum_S c_S cos(f_S t) with real coefficients; returns (coefficient,
    frequency) pairs with equal frequencies merged.
    """
    pivot = ms.index(2)
    rest = [m for i, m in enumerate(ms) if i != pivot]
    denom = math.prod(ms)
    terms: dict[int, float] = {}
    for mask in iter_product((0, 1), repeat=len(rest)):
        coeff = 1
        outside = 1
        for pick, m in zip(mask, rest):
            if pick:
                coeff *= m - 1
            else:
                outside *= m - 1
        terms[outside] = terms.get(outside, 0.0) + 2.0 * coeff / denom
    return sorted(((c, f) for f, c in terms.items()), reverse=True)


def _real_diagonal_zero_search(
    cosine_terms: list[tuple[float, float]], horizon: float, samples_per_period: int
) -> float | None:
    """First zero of ``sum c_k cos(f_k t)`` on (0, horizon].

    Scans for a sign change, at ``samples_per_period`` points per period of
    the fastest term (at least 1000 points), and bisects it down to |value|
    < 1e-12; a sign change certifies the zero by continuity, so the result
    is a proof, unlike a small grid minimum of a modulus.
    """
    fmax = max(abs(f) for _, f in cosine_terms)

    def f(t: float) -> float:
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


def complete_product_verdict(factors: Sequence[int]) -> FamilyVerdict:
    """Verdict at any vertex of a direct product of complete graphs (the
    graph is vertex transitive, so one verdict covers all).

    The diagonal is an exact exponential sum over factor subsets.  With a
    factor of two it collapses to a real cosine polynomial f(t) = sum c
    cos(f t) whose frequencies are products of the (m - 1) of the other
    factors, so each is at least 1: f has mean zero over its period, while
    f(0) = sum c = 1.  So f is negative on an interval of positive length
    in its first period, and it has a zero before it; the sign-change
    search locates that zero, sampling twice as finely each time it misses
    the interval.  Otherwise the subset of full size carries weight
    prod(m - 1) / prod(m) and dominates when that exceeds one half.
    """
    ms = [int(m) for m in factors]
    if len(ms) < 2:
        raise ValueError("need at least two factors")
    if any(m < 2 for m in ms):
        raise ValueError("every factor must be at least 2")
    big_p = math.prod(ms)
    big_q = math.prod(m - 1 for m in ms)
    if 2 in ms:
        terms = _complete_product_cosine_terms(ms)
        samples = 40
        while (zero := _real_diagonal_zero_search(terms, 2.0 * math.pi, samples)) is None:
            samples *= 2
        return FamilyVerdict(Verdict.NOT_SEDENTARY, "product-cosine-zero", time=zero)
    c = abs(2 * big_q - big_p) / big_p
    if all(m % 2 == 1 for m in ms):
        return FamilyVerdict(
            Verdict.SEDENTARY,
            "product-odd-factors",
            constant=c,
            time=math.pi,
            tight=True,
            sharp=False,
        )
    if 2 * big_q > big_p:
        # the full-subset phase carries more than half the weight
        return FamilyVerdict(Verdict.SEDENTARY, "product-dominant-class", constant=c)
    return FamilyVerdict(Verdict.UNDETERMINED, "product-balanced", certified=False)

