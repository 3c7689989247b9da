"""Vertex verdicts: how much amplitude a walk is guaranteed to keep home.

Every vertex runs through one staged decision tree (:func:`classify_all`),
and each stage appends its step to the certificate trail:

1. Support: a single eigenvalue class keeps the diagonal at modulus one.
2. Floor source: the twin dichotomy routes a twin vertex to the sedentary
   branch or to a strongly cospectral pair.  On the sedentary branch the
   twin class, and on a twin-free vertex without a certified period a class
   of weight a > 1/2, gives the projection-sum floor 2a - 1, which holds at
   every time by the triangle inequality.
3. Transfer test: a strongly cospectral twin pair transfers perfectly when
   the exact equality-time test puts its two sign blocks at opposite phases;
   otherwise relation parity decides between pretty good transfer and
   sedentariness.  A twin-free vertex whose one-period minimum is zero is
   scanned for a perfect-transfer partner instead.
4. Period minimum plus exact-dip match: on a periodic vertex the minimum
   over one period is the constant, replaced by the exact dip of the
   equality mechanism that it matches, if any; it may not fall below the
   floor.
5. Relation parity: without a period, parity on the exact support says
   whether the floor is approached in the limit (sharp) or stays strictly
   below the infimum.

The exact one-period minimum, or else a bounded-horizon grid scan, is the
numeric evidence attached to every verdict.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np

from .graphs import ADJACENCY, MatrixKind, WeightedGraph, blow_up
from .numtheory import (
    ExactEigenvalue,
    QuadraticIntegerForm,
    integer_relation_parity,
    nu2,
    nu2_fraction,
    periodic_form,
    recognize_values,
)
from .spectral import (
    EigenvalueSupport,
    SpectralDecomposition,
    StrongCospectrality,
    decompose,
)
from .twins import ThetaEigenspaceSplit, TwinSet, find_twin_sets, theta_split, twin_dichotomy
from .walk import (
    InfimumEstimate, WalkEvaluator, _bounded_grid, _check_grid, _cosine_minimum, _grid_minimum,
    _phase_jet,
)

__all__ = [
    "Verdict",
    "SedentaryBound",
    "EqualityTime",
    "VertexClassification",
    "RealDiagonalInfimum",
    "projection_sum_bound",
    "equality_time_criterion",
    "classify_vertex",
    "classify_all",
    "real_diagonal_zero_search",
    "bipartite_double_sedentary",
    "double_cone_real_minimum",
    "blowup_bound",
    "blowup_pair_parity",
    "join_sedentary_transfer",
]

ZERO_TOL = 1e-8
MATCH_TOL = 1e-6
PST_TOL = 1e-8
SUBSET_CAP = 12


class Verdict(str, Enum):
    SEDENTARY = "sedentary"
    PST = "pst"
    PGST = "pgst"
    NOT_SEDENTARY = "not-sedentary"
    UNDETERMINED = "undetermined"


@dataclass(frozen=True)
class SedentaryBound:
    """Diagonal lower bound from a heavy subset of the support.

    With ``a`` the total diagonal weight of the chosen classes at the
    vertex (at least one half), every time satisfies
    ``|U(t)_{u,u}| >= |sum_{j in S} w_j e^{it lambda_j}| - (1 - a)``;
    a singleton subset turns the right side into the constant 2a - 1.
    """

    dec: SpectralDecomposition
    vertex: int
    subset: tuple[int, ...]
    a: float

    @property
    def floor(self) -> float:
        return 2.0 * self.a - 1.0

    @property
    def uniform(self) -> bool:
        """Whether the floor holds for every t, not only at its dips."""
        return len(self.subset) == 1

    def bound_at(self, t: float) -> float:
        weights = self.dec.diagonal_weights(self.vertex)
        inner = 0j
        for j in self.subset:
            lam = float(self.dec.eigenvalues[j])
            inner += float(weights[j]) * complex(math.cos(lam * t), math.sin(lam * t))
        return abs(inner) - (1.0 - self.a)


def projection_sum_bound(
    dec: SpectralDecomposition, u: int, subset: tuple[int, ...] | list[int]
) -> SedentaryBound:
    """Build the subset bound after checking the weight hypothesis a >= 1/2."""
    sup = dec.support(u)
    chosen = tuple(sorted(set(int(j) for j in subset)))
    if not chosen:
        raise ValueError("subset must be non-empty")
    if not set(chosen) <= set(sup.indices):
        raise ValueError("subset leaves the eigenvalue support of the vertex")
    if len(chosen) >= len(sup.indices):
        raise ValueError("subset must be a proper part of the support")
    weights = dec.diagonal_weights(u)
    a = float(sum(weights[j] for j in chosen))
    if a < 0.5 - 1e-12:
        raise ValueError(f"subset weight a={a:.6g} is below one half")
    return SedentaryBound(dec=dec, vertex=u, subset=chosen, a=a)


@dataclass(frozen=True)
class EqualityTime:
    """First time at which the subset floor is hit, with its exact data."""

    t1: float
    g: Fraction
    delta: int

    @property
    def period(self) -> float:
        return 2.0 * self.t1


def equality_time_criterion(
    form: QuadraticIntegerForm, s_positions: tuple[int, ...] | list[int]
) -> EqualityTime | None:
    """Decide whether some time puts the chosen classes at phase +1 and the
    rest at -1, and return the first such time.

    The test is on dyadic valuations of the scaled differences: the floor
    is attainable exactly when every difference across the split carries
    one common valuation.  The first time is then pi / (g sqrt(delta))
    with g the gcd of all scaled differences from a fixed base class.
    """
    k = len(form)
    s = sorted(set(int(p) for p in s_positions))
    if not s or len(s) >= k:
        raise ValueError("need a non-empty proper subset of the support")
    in_s = set(s)
    comp = [j for j in range(k) if j not in in_s]
    cross_levels = set()
    for j in s:
        for c in comp:
            cross_levels.add(nu2_fraction(form.scaled_difference(c, j)))
    if len(cross_levels) != 1:
        return None
    level = cross_levels.pop()
    for i, j in combinations(s, 2):
        # implied by the cross condition; violation means a bug upstream
        if nu2_fraction(form.scaled_difference(i, j)) <= level:
            raise AssertionError("within-subset valuation at or below the cross level")
    base, g = s[0], form.g
    for j in range(k):
        if j == base:
            continue
        q = form.scaled_difference(base, j) / g
        if q.denominator != 1:
            raise AssertionError("gcd fails to divide a scaled difference")
        if (q.numerator % 2 == 0) != (j in in_s):
            raise AssertionError("scaled-difference parity disagrees with the split")
    t1 = math.pi / (float(g) * math.sqrt(form.delta))
    return EqualityTime(t1=t1, g=g, delta=form.delta)


@dataclass(frozen=True)
class VertexClassification:
    """Verdict for one vertex under one matrix kind, with its paper trail.

    ``constant`` is the reported sedentariness constant (None when the
    verdict carries none), ``tight``/``sharp`` record whether it is
    attained at ``tightness_time`` or only approached, and
    ``certificate`` lists the applied steps in order.  ``certified``
    says the verdict and constant rest on exact reasoning (possibly
    plus an exhaustive one-period minimum), not on sampling alone.
    """

    vertex: int
    matrix_kind: MatrixKind
    verdict: Verdict
    constant: float | None = None
    tight: bool | None = None
    sharp: bool | None = None
    tightness_time: float | None = None
    partner: int | None = None
    pst_time: float | None = None
    certificate: tuple[str, ...] = ()
    evidence: InfimumEstimate | None = None
    certified: bool = False

    def __post_init__(self) -> None:
        if self.verdict is Verdict.SEDENTARY:
            if self.pst_time is not None:
                raise ValueError("a sedentary verdict cannot carry a transfer time")
            if self.constant is not None and not self.constant > 0:
                raise ValueError("a sedentary constant must be positive")
        if self.verdict in (Verdict.PST, Verdict.PGST) and self.partner is None:
            raise ValueError("transfer verdicts need a partner")
        if self.verdict is Verdict.PST and self.pst_time is None:
            raise ValueError("a perfect-transfer verdict needs its time")

    def to_json_dict(self) -> dict:
        ev = None
        if self.evidence is not None:
            ev = {
                "grid_min": self.evidence.value,
                "grid_argmin": self.evidence.attained_time,
                "mode": self.evidence.mode.value,
                "grid_points": self.evidence.grid_points,
                "horizon": self.evidence.horizon,
            }
        return {
            "schema": 1,
            "vertex": self.vertex,
            "matrix_kind": self.matrix_kind.short_name,
            "verdict": self.verdict.value,
            "constant": self.constant,
            "tight": self.tight,
            "sharp": self.sharp,
            "tightness_time": self.tightness_time,
            "partner": self.partner,
            "pst_time": self.pst_time,
            "lemma_trail": list(self.certificate),
            "certified": self.certified,
            "evidence": ev,
        }


# -- exact-support helpers ------------------------------------------------


def _support_positions(sup: EigenvalueSupport, class_indices) -> tuple[int, ...]:
    wanted = set(int(i) for i in class_indices)
    return tuple(i for i, idx in enumerate(sup.indices) if idx in wanted)


def _exact_dips(
    facts: _GraphFacts, sup: EigenvalueSupport, form: QuadraticIntegerForm
) -> list[tuple[float, EqualityTime]]:
    """Every (dip value, time) the equality mechanism certifies.

    At each returned time the diagonal magnitude equals 2a - 1 exactly,
    so the smallest dip is an upper bound on the infimum; for periodic
    vertices it usually is the infimum.
    """
    k = len(sup)
    if k > SUBSET_CAP:
        return []
    dips = []
    for r in range(1, k):
        for combo in combinations(range(k), r):
            a = float(sum(sup.weights[i] for i in combo))
            if a < 0.5 - 1e-9:
                continue
            eq = facts.equality_time(form, combo)
            if eq is not None:
                dips.append((2.0 * a - 1.0, eq))
    return dips


# -- classification pipeline ------------------------------------------------


@dataclass(frozen=True)
class _GraphFacts:
    """What every vertex of one graph shares, computed once per graph."""

    g: WeightedGraph
    kind: MatrixKind
    dec: SpectralDecomposition
    evaluator: WalkEvaluator
    twin_of: dict[int, TwinSet]
    splits: dict[TwinSet, ThetaEigenspaceSplit]
    equality_times: dict[tuple, EqualityTime | None] = field(
        default_factory=dict, compare=False, hash=False, repr=False
    )
    recognitions: dict[
        tuple[int, ...], tuple[list[ExactEigenvalue] | None, QuadraticIntegerForm | None]
    ] = field(default_factory=dict, compare=False, hash=False, repr=False)

    def recognized(
        self, sup: EigenvalueSupport
    ) -> tuple[list[ExactEigenvalue] | None, QuadraticIntegerForm | None]:
        """The exact values of a support and their periodic form, recognized
        once per graph for each distinct support: the values depend on its
        class indices alone."""
        if sup.indices not in self.recognitions:
            exacts = recognize_values(sup.values)
            form = periodic_form(exacts) if exacts is not None else None
            self.recognitions[sup.indices] = exacts, form
        return self.recognitions[sup.indices]

    def equality_time(
        self, form: QuadraticIntegerForm, positions: tuple[int, ...]
    ) -> EqualityTime | None:
        """``equality_time_criterion(form, positions)``, computed once per graph:
        it reads the form alone, and twins share their support's form."""
        key = (form, positions)
        if key not in self.equality_times:
            self.equality_times[key] = equality_time_criterion(form, positions)
        return self.equality_times[key]


def _twin_stage(
    facts: _GraphFacts, twin_set: TwinSet, u: int, trail: list[str]
) -> tuple[int | None, tuple[int, StrongCospectrality] | None]:
    """Route a twin vertex: its twin class as the floor source (sedentary
    branch), or its partner with the sign split (strongly cospectral pair)."""
    branch = twin_dichotomy(
        facts.g, facts.kind, twin_set, u, dec=facts.dec, split=facts.splits[twin_set]
    )
    split = branch.split
    trail.append(f"twin-set:size={len(twin_set)},theta={split.theta:.6g}")
    if branch.branch == "sedentary":
        trail.append("twin-branch:sedentary")
        return split.eigen_index, None
    trail.append("twin-branch:pair")
    trail.append("strong-cospectrality")
    sc = branch.strong_cospectrality
    assert sc is not None and branch.partner is not None
    if split.eigen_index not in sc.minus:
        raise ValueError("twin eigenvalue landed on the symmetric side of the pair")
    return None, (branch.partner, sc)


def _period_minimum(
    facts: _GraphFacts,
    sup: EigenvalueSupport,
    form: QuadraticIntegerForm | None,
    scan: InfimumEstimate,
    floor: float | None,
    trail: list[str],
) -> tuple[float, float | None]:
    """Constant and attaining time from a certified one-period minimum.

    The minimum may not dip below a certified floor.  When it matches a
    dip that the equality mechanism certifies, the exact dip and its first
    time replace the computed ones, earliest time first.
    """
    if floor is not None and scan.value < floor - MATCH_TOL:
        raise ValueError("period minimum dipped below the certified floor")
    trail.append("period-minimum")
    dips = _exact_dips(facts, sup, form) if form is not None else []
    hits = [(value, eq) for value, eq in dips if abs(value - scan.value) <= MATCH_TOL]
    if not hits:
        return scan.value, scan.attained_time
    value, eq = min(hits, key=lambda h: h[1].t1)
    trail.append(f"equality-time:t1={eq.t1:.12g}")
    return value, eq.t1


def _parity_stage(
    exacts: list[ExactEigenvalue], plus_pos: tuple[int, ...], trail: list[str]
) -> bool:
    """Whether phases can drift arbitrarily close to +1 on the ``plus_pos``
    block and to -1 on the rest of the support at once: exactly when every
    integer relation with zero coefficient sum has an even sum over the
    block; one odd-sum relation blocks the approach for all time.

    :func:`integer_relation_parity` raises on an empty side or on mixed
    radicals, and no call here reaches either:

    * On the floor stage the block is the floor class alone, which
      :func:`projection_sum_bound` has checked to be a proper part of the
      support, so both sides are non-empty.
    * On a twin pair the block is the classes with E_j e_u = E_j e_v.  Their
      weights at u sum to ||(e_u + e_v)/2||^2 = 1/2, so the block meets the
      support.  The twin eigenvalue theta lies on the other side, as
      :func:`_twin_stage` checks, and in the support: e_u - e_v is a
      theta-eigenvector, so theta's weight at u is at least 1/2.
    * The exact values come from :func:`recognize_values`, which admits one
      radical ``delta_common``.
    """
    plus = [exacts[i] for i in plus_pos]
    minus = [e for i, e in enumerate(exacts) if i not in plus_pos]
    approaches = integer_relation_parity(plus, minus) is None
    trail.append("parity:all-even" if approaches else "parity:odd-relation")
    return approaches


def _pst_partner_scan(
    facts: _GraphFacts, u: int, sup: EigenvalueSupport, form: QuadraticIntegerForm | None
) -> tuple[int, float] | None:
    """Perfect-transfer partner for a periodic vertex whose diagonal dies."""
    if form is None:
        return None
    dec, ev = facts.dec, facts.evaluator
    for v in range(dec.n):
        if v == u:
            continue
        sc = dec.strongly_cospectral(u, v)
        if sc is None:
            continue
        plus_pos = _support_positions(sup, sc.plus)
        if not plus_pos or len(plus_pos) == len(sup):
            continue
        eq = facts.equality_time(form, plus_pos)
        if eq is not None and ev.magnitude(u, v, eq.t1) >= 1.0 - PST_TOL:
            return v, eq.t1
    return None


def _classify(facts: _GraphFacts, u: int, scan: InfimumEstimate) -> VertexClassification:
    """The staged decision tree for one vertex; see the module docstring."""
    dec, ev = facts.dec, facts.evaluator
    sup = dec.support(u)
    twin_set = facts.twin_of.get(u)
    trail: list[str] = []

    def record(verdict: Verdict, certified: bool = True, **fields) -> VertexClassification:
        return VertexClassification(
            vertex=u,
            matrix_kind=facts.kind,
            verdict=verdict,
            certificate=tuple(trail),
            evidence=scan,
            certified=certified,
            **fields,
        )

    # support
    if len(sup) == 1:
        trail.append("support-singleton")
        return record(
            Verdict.SEDENTARY, constant=1.0, tight=True, sharp=False, tightness_time=0.0
        )

    # floor source: the twin class, else a dominant class when no period helps
    floor_class, pair = None, None
    if twin_set is not None:
        floor_class, pair = _twin_stage(facts, twin_set, u, trail)
    elif not scan.certified:
        best = int(np.argmax(sup.weights))
        if sup.weights[best] > 0.5 + 1e-12:
            floor_class = sup.indices[best]
    floor = None
    if floor_class is not None:
        bound = projection_sum_bound(dec, u, (floor_class,))
        trail.append(f"projection-floor:a={bound.a:.12g}")
        floor = bound.floor
    exacts, form = facts.recognized(sup)

    # transfer test and parity for a strongly cospectral twin pair
    if pair is not None:
        v, sc = pair
        plus_pos = _support_positions(sup, sc.plus)
        if len(plus_pos) + len(_support_positions(sup, sc.minus)) != len(sup):
            raise ValueError("strong cospectrality split does not cover the support")
        eq = facts.equality_time(form, plus_pos) if form is not None else None
        if eq is not None:
            if ev.magnitude(u, v, eq.t1) < 1.0 - PST_TOL:
                raise ValueError("equality time failed to deliver the full transfer")
            trail.append(f"pst:time={eq.t1:.12g}")
            return record(Verdict.PST, partner=v, pst_time=eq.t1)
        if exacts is None:
            trail.append("unrecognized-support")
            return record(Verdict.UNDETERMINED, certified=False)
        if _parity_stage(exacts, plus_pos, trail):
            if form is not None:
                # periodic vertices attain what they approach, contradicting
                # the failed equality test above
                raise ValueError("parity and equality time disagree on a periodic pair")
            return record(Verdict.PGST, partner=v)
        # blocked: the pair is sedentary; only a period minimum gives a constant
        if not scan.certified:
            trail.append("no-general-constant")
            return record(Verdict.SEDENTARY)

    # period minimum plus exact-dip match; a zero minimum asks for a partner
    if scan.certified:
        if twin_set is None and scan.value <= ZERO_TOL:
            trail.append("period-minimum")
            trail.append(f"zero-at-minimum:t={scan.attained_time:.12g}")
            found = _pst_partner_scan(facts, u, sup, form)
            if found is None:
                return record(Verdict.NOT_SEDENTARY)
            v, t1 = found
            trail.append(f"pst:time={t1:.12g}")
            return record(Verdict.PST, partner=v, pst_time=t1)
        constant, t_time = _period_minimum(facts, sup, form, scan, floor, trail)
        # a minimum over one closed period is always attained
        return record(
            Verdict.SEDENTARY, constant=constant, tight=True, sharp=False, tightness_time=t_time
        )
    if floor is None:
        trail.append("grid-evidence")
        return record(Verdict.UNDETERMINED, certified=False)

    # relation parity: the floor holds by the triangle inequality alone; an
    # odd relation keeps the infimum strictly above it, all-even approaches it
    if exacts is None:
        trail.append("grid-evidence")
        return record(Verdict.SEDENTARY, constant=floor)
    sharp = _parity_stage(exacts, _support_positions(sup, (floor_class,)), trail)
    return record(Verdict.SEDENTARY, constant=floor, tight=False, sharp=sharp)


def classify_all(
    g: WeightedGraph,
    kind: MatrixKind = ADJACENCY,
    dec: SpectralDecomposition | None = None,
    *,
    vertices: Sequence[int] | None = None,
    twin_sets: list[TwinSet] | None = None,
    grid_points: int | None = None,
    horizon: float | None = None,
) -> list[VertexClassification]:
    """Classify ``vertices`` (default: every vertex) in order.

    The graph-level facts are computed once and shared by every vertex:
    the decomposition and its walk evaluator, the twin sets that meet
    ``vertices`` with one eigenspace split and one scan per twin set (twins
    share their diagonal), and the exact values of each distinct support,
    which the scan and the decision tree both read.
    Pass ``dec`` or ``twin_sets`` to reuse ones the caller already holds.
    ``grid_points`` and ``horizon`` size the scan of vertices with neither a
    twin nor a period; they are checked even when no vertex uses them.
    """
    _check_grid(horizon, grid_points)
    verts = list(range(g.n) if vertices is None else vertices)
    for u in verts:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range")
    if dec is None:
        dec = decompose(g, kind)
    if twin_sets is None:
        twin_sets = find_twin_sets(g, verts)
    twin_of = {m: ts for ts in twin_sets for m in ts.members}
    met = dict.fromkeys(twin_of[u] for u in verts if u in twin_of)
    splits = {ts: theta_split(g, kind, ts, dec) for ts in met}
    facts = _GraphFacts(g, kind, dec, WalkEvaluator(dec), twin_of, splits)
    scans: dict[object, InfimumEstimate] = {}
    for u in verts:
        key = twin_of.get(u, u)
        if key not in scans:
            _, form = facts.recognized(dec.support(u))
            overrides = () if u in twin_of else (grid_points, horizon)
            scans[key] = facts.evaluator.infimum_diagonal(u, form, *overrides)
    return [_classify(facts, u, scans[twin_of.get(u, u)]) for u in verts]


def classify_vertex(
    g: WeightedGraph,
    kind: MatrixKind,
    u: int,
    dec: SpectralDecomposition | None = None,
    grid_points: int | None = None,
    horizon: float | None = None,
) -> VertexClassification:
    """Classify one vertex; see :func:`classify_all`."""
    return classify_all(
        g, kind, dec, vertices=(u,), grid_points=grid_points, horizon=horizon
    )[0]


# -- real-diagonal specials ------------------------------------------------


def real_diagonal_zero_search(
    cosine_terms: list[tuple[float, float]], horizon: float, samples_per_period: int = 40
) -> float | None:
    """First zero of ``sum c_k cos(f_k t)`` on (0, horizon].

    Scans for a sign change, at ``samples_per_period`` points per period of
    the fastest term (at least 1000 points), and bisects it down to |value|
    < 1e-12; a sign change certifies the zero by continuity, so the result
    is a proof, unlike a small grid minimum of a modulus.
    """
    if not cosine_terms:
        raise ValueError("need at least one cosine term")
    if horizon <= 0:
        raise ValueError("horizon must be positive")
    fmax = max(abs(f) for _, f in cosine_terms)
    if fmax == 0:
        return None

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


@dataclass(frozen=True)
class RealDiagonalInfimum:
    """Minimum modulus of a real-valued diagonal, e.g. of a bipartite double."""

    value: float
    attained_time: float | None
    certified: bool
    zero_time: float | None

    @property
    def sedentary(self) -> bool | None:
        if self.zero_time is not None:
            return False
        if self.certified and self.value > ZERO_TOL:
            return True
        return None


def bipartite_double_sedentary(
    dec_y: SpectralDecomposition,
    v: int,
    horizon: float | None = None,
    grid_points: int | None = None,
) -> RealDiagonalInfimum:
    """Infimum of |Re U_Y(t)_{v,v}|, the double's diagonal through vertex v.

    An integer support gives the exact minimum over one period of the real
    part; otherwise, or above the degree cap, a grid scan is uncertified
    evidence, except that a sign change still proves a zero.
    """
    _check_grid(horizon, grid_points)
    sup = dec_y.support(v)
    terms = [(float(w), float(lam)) for w, lam in zip(sup.weights, sup.values)]
    exacts = recognize_values(sup.values)
    integral = exacts is not None and all(
        e.radical == 0 and e.rational.denominator == 1 for e in exacts
    )
    freqs = [abs(e.rational.numerator) for e in exacts] if integral else []
    if freqs and not any(freqs):
        return RealDiagonalInfimum(1.0, 0.0, True, None)
    period = 2.0 * math.pi / math.gcd(*freqs) if freqs else None  # of the real part
    span, pts = _bounded_grid(dec_y, grid_points, period or horizon)
    zero = real_diagonal_zero_search(terms, span)
    if zero is not None:
        return RealDiagonalInfimum(0.0, zero, True, zero)
    found = _cosine_minimum(list(zip(sup.weights, freqs))) if freqs else None
    if found is not None:
        return RealDiagonalInfimum(found[1], found[0], True, None)
    times = np.linspace(0.0, span, pts)
    mags = np.abs(sum(c * np.cos(fr * times) for c, fr in terms))
    weights, lams = np.array(terms).T
    jet = _phase_jet(lams, weights)
    t, value = _grid_minimum(mags, span, lambda times: jet(times).real)
    return RealDiagonalInfimum(value, t, False, None)


def double_cone_real_minimum(d: int, s: int) -> tuple[float, float]:
    """Closed-form minimum of |Re diagonal| at an apex of the double cone
    over a d-regular graph on s(d+s)/2 vertices, with an attaining time.

    Requires s even with nu2(s) >= nu2(d); the minimum runs over the
    critical times 2k*pi/(d+2s) whose cosine is negative.
    """
    if d < 1 or s < 2:
        raise ValueError("need d >= 1 and s >= 2")
    if s % 2 != 0:
        raise ValueError("s must be even")
    if nu2(s) < nu2(d):
        raise ValueError("nu2(s) must be at least nu2(d)")
    g = math.gcd(d, s)
    d1, s1 = d // g, s // g
    q = d1 + 2 * s1
    if q % 2 == 0:
        raise AssertionError("d1 + 2*s1 came out even")
    ks: list[int] = []
    for j in range(1, s1 + 1, 4):
        lo = math.ceil(j * q / (4 * s1))
        hi = math.floor((j + 2) * q / (4 * s1))
        ks.extend(range(lo, hi + 1))
    if not ks:
        raise AssertionError("no critical time fell in the negative-cosine windows")
    vals = [(math.cos(s1 * k * math.pi / q) ** 2, k) for k in ks]
    c, k0 = min(vals)
    tau = 2.0 * k0 * math.pi / (d + 2 * s)
    return c, tau


# -- blow-ups and joins ----------------------------------------------------


def blowup_bound(
    g: WeightedGraph, u: int, m: int, dec: SpectralDecomposition | None = None
) -> SedentaryBound:
    """Floor for any copy of ``u`` in the m-fold blow-up of ``g``.

    The zero class of the blown-up adjacency carries weight
    (m-1)/m + w0/m at each copy, where w0 is the zero-eigenvalue weight
    at ``u`` in the base graph (zero when absent), so the floor is
    1 - 2/m + 2 w0/m.  Cross-checked against the computed spectrum.
    """
    if m < 2:
        raise ValueError("need at least two copies")
    up = blow_up(m, g)
    dec_up = decompose(up, ADJACENCY)
    zero_idx = dec_up.eigenvalue_index(0.0)
    bound = projection_sum_bound(dec_up, u, (zero_idx,))
    base = dec if dec is not None else decompose(g, ADJACENCY)
    try:
        w0 = float(base.diagonal_weights(u)[base.eigenvalue_index(0.0)])
    except ValueError:
        w0 = 0.0
    expected = (m - 1.0) / m + w0 / m
    if abs(bound.a - expected) > 1e-8:
        raise ValueError("blow-up zero-class weight disagrees with the base graph")
    return bound


def blowup_pair_parity(
    g: WeightedGraph, u: int, dec: SpectralDecomposition | None = None
) -> bool | None:
    """Two-copy blow-up decision at a vertex whose base support misses zero.

    The doubled copies are twins sharing the eigenvalue 0; the pair is
    sedentary (True) exactly when some integer relation over the base
    support has an odd coefficient sum, and admits pretty good state
    transfer (False) otherwise.  None means the base support has no exact
    form.
    """
    if dec is None:
        dec = decompose(g, ADJACENCY)
    exacts = recognize_values(dec.support(u).values)
    if exacts is None:
        return None
    plus = [e for e in exacts if not (e.rational == 0 and e.radical == 0)]
    minus = [ExactEigenvalue(Fraction(0), Fraction(0), 1)]
    return integer_relation_parity(plus, minus) is not None


def join_sedentary_transfer(c_x: float, nx: int) -> float | None:
    """Constant surviving a join: C - 2/|V(X)| when positive, else None."""
    if nx < 1:
        raise ValueError("the joined-from graph needs at least one vertex")
    if not 0.0 < c_x <= 1.0:
        raise ValueError("the constant must sit in (0, 1]")
    out = c_x - 2.0 / nx
    return out if out > 0 else None
