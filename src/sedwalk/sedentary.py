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
4. Period minimum plus half-period match: on a periodic vertex the minimum
   over one period is the constant, replaced by the exact dip at half the
   period when it matches it; it may not fall below the floor.
5. Relation parity: without a period, parity on the exact support says
   whether the floor is approached in the limit (sharp) or stays strictly
   below the infimum.

The exact one-period minimum, or else a bounded-horizon grid scan, is the
numeric evidence attached to every verdict.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from typing import Sequence

import numpy as np

from .graphs import _EXACT_FLOAT, ADJACENCY, MatrixKind, WeightedGraph
from .numtheory import (
    ExactEigenvalue,
    QuadraticIntegerForm,
    integer_relation_parity,
    periodic_form,
    recognize_values,
)
from .spectral import (
    EigenvalueSupport,
    SpectralDecomposition,
    StrongCospectrality,
    decompose,
)
from .twins import TwinDichotomy, TwinSet, find_twin_sets, twin_dichotomy
from .walk import _MAX_DEGREE, InfimumEstimate, WalkEvaluator, _bounded_grid, _check_grid

__all__ = [
    "Verdict",
    "SedentaryBound",
    "VertexClassification",
    "projection_sum_bound",
    "equality_time_criterion",
    "classify_vertex",
    "classify_all",
]

ZERO_TOL = 1e-8
MATCH_TOL = 1e-6
PST_TOL = 1e-8


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

    subset: tuple[int, ...]
    a: float

    @property
    def floor(self) -> float:
        return 2.0 * self.a - 1.0

    @property
    def uniform(self) -> bool:
        """Whether the floor holds for every t, not only at its dips."""
        return len(self.subset) == 1


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
    return SedentaryBound(subset=chosen, a=a)


def equality_time_criterion(
    form: QuadraticIntegerForm, s_positions: tuple[int, ...] | list[int]
) -> float | None:
    """The first time that puts the chosen classes at phase +1 and the rest
    at -1, relative to each other, or None when no time does.

    With value_j = least + m_j g sqrt(delta) (``form.steps``), such a time t
    needs x = t g sqrt(delta) / pi to make x (m_j - m_s) even inside the
    split and odd across it.  Some integer combination of the m_j - m_s is
    1, since their gcd is 1, so x is an integer; x is odd, since an even x
    leaves nothing across.  So the split must be the parity class of m_s,
    and it is first reached at x = 1, half the period.
    """
    s = set(int(p) for p in s_positions)
    if not s or len(s) >= len(form):
        raise ValueError("need a non-empty proper subset of the support")
    parity = form.steps[min(s)] % 2
    if s != {j for j, m in enumerate(form.steps) if m % 2 == parity}:
        return None
    return form.period / 2


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


def _half_period_dip(sup: EigenvalueSupport, form: QuadraticIntegerForm) -> float:
    """|U(t)_{u,u}| at half the period, |sum_j (-1)^{m_j} w_j| = 2a - 1 with
    a the weight of the heavier parity class of the steps m_j: the one dip
    that :func:`equality_time_criterion` certifies."""
    a = max(float(sum(w for w, m in zip(sup.weights, form.steps) if m % 2 == p)) for p in (0, 1))
    return 2.0 * a - 1.0


# -- classification pipeline ------------------------------------------------


@dataclass(frozen=True)
class _GraphFacts:
    """What every vertex of one graph shares, computed once per graph."""

    g: WeightedGraph
    kind: MatrixKind
    dec: SpectralDecomposition
    evaluator: WalkEvaluator
    twin_of: dict[int, TwinSet]
    sides: dict[int, TwinDichotomy]  # keyed by the least member of each set
    recognitions: dict[
        tuple[int, ...], tuple[list[ExactEigenvalue] | None, QuadraticIntegerForm | None]
    ] = field(default_factory=dict, compare=False, hash=False, repr=False)
    supports: dict[int, EigenvalueSupport] = field(
        default_factory=dict, compare=False, hash=False, repr=False
    )

    def support(self, u: int) -> EigenvalueSupport:
        """The support of ``u``, read once per vertex."""
        if u not in self.supports:
            self.supports[u] = self.dec.support(u)
        return self.supports[u]

    def recognized(
        self, sup: EigenvalueSupport
    ) -> tuple[list[ExactEigenvalue] | None, QuadraticIntegerForm | None]:
        """The exact values of a support and their periodic form, recognized
        once per graph for each distinct support: the values depend on its
        class indices alone.  Distinct classes cannot share an exact value,
        so values that repeat leave the support unrecognized."""
        if sup.indices not in self.recognitions:
            exacts = recognize_values(sup.values)
            if exacts is not None and len(set(exacts)) < len(exacts):
                exacts = None
            form = periodic_form(exacts) if exacts is not None else None
            self.recognitions[sup.indices] = exacts, form
        return self.recognitions[sup.indices]


def _twin_stage(
    facts: _GraphFacts, twin_set: TwinSet, u: int, trail: list[str]
) -> tuple[int | None, tuple[int, StrongCospectrality] | None]:
    """Route a twin vertex by its set's side of the dichotomy: its twin class
    as the floor source (sedentary side), or its partner with the sign split
    (strongly cospectral pair)."""
    side = facts.sides[twin_set.members[0]]
    trail.append(f"twin-set:size={len(twin_set)},theta={side.theta:.6g}")
    if side.pair is None:
        trail.append("twin-branch:sedentary")
        return side.eigen_index, None
    trail.append("twin-branch:pair")
    trail.append("strong-cospectrality")
    return None, (twin_set.partner_of(u), side.pair)


def _period_minimum(
    sup: EigenvalueSupport,
    form: QuadraticIntegerForm,
    scan: InfimumEstimate,
    floor: float | None,
    trail: list[str],
) -> tuple[float, float | None]:
    """Constant and attaining time from a certified one-period minimum.

    The minimum may not dip below a certified floor.  When it matches the
    half-period dip, the exact dip and half the period replace the computed
    ones.
    """
    if floor is not None and scan.value < floor - MATCH_TOL:
        raise ValueError("period minimum dipped below the certified floor")
    trail.append("period-minimum")
    dip = _half_period_dip(sup, form)
    if abs(dip - scan.value) > MATCH_TOL:
        return scan.value, scan.attained_time
    t1 = form.period / 2
    trail.append(f"equality-time:t1={t1:.12g}")
    return dip, t1


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
      :func:`twin_dichotomy` checks, and in the support: e_u - e_v is a
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
    facts: _GraphFacts, u: int, sup: EigenvalueSupport, form: QuadraticIntegerForm
) -> tuple[int, float] | None:
    """Perfect-transfer partner for a periodic vertex whose diagonal dies."""
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
        t1 = equality_time_criterion(form, plus_pos)
        if t1 is not None and ev.magnitude(u, v, t1) >= 1.0 - PST_TOL:
            return v, t1
    return None


def _classify(facts: _GraphFacts, u: int, scan: InfimumEstimate) -> VertexClassification:
    """The staged decision tree for one vertex; see the module docstring."""
    dec, ev = facts.dec, facts.evaluator
    sup = facts.support(u)
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
        t1 = equality_time_criterion(form, plus_pos) if form is not None else None
        if t1 is not None:
            if ev.magnitude(u, v, t1) < 1.0 - PST_TOL:
                raise ValueError("equality time failed to deliver the full transfer")
            trail.append(f"pst:time={t1:.12g}")
            return record(Verdict.PST, partner=v, pst_time=t1)
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

    # period minimum plus half-period match; a zero minimum asks for a partner.
    # The support has two classes or more, so a certified scan had a period.
    if scan.certified:
        if twin_set is None and scan.value <= ZERO_TOL:
            zero_at = scan.attained_time
            if _half_period_dip(sup, form) <= ZERO_TOL:
                zero_at = form.period / 2
            trail.append("period-minimum")
            trail.append(f"zero-at-minimum:t={zero_at:.12g}")
            found = _pst_partner_scan(facts, u, sup, form)
            if found is None:
                return record(Verdict.NOT_SEDENTARY)
            v, t1 = found
            trail.append(f"pst:time={t1:.12g}")
            return record(Verdict.PST, partner=v, pst_time=t1)
        constant, t_time = _period_minimum(sup, form, scan, floor, trail)
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


# -- scan classes ---------------------------------------------------------------

# The fixed cost of one scan call (its Python set-up, root solver or grid
# tables) in multiply-adds of the closed-walk products that may replace it.
# On one BLAS thread of a 2-vCPU VM, a one-period solve of degree 6 takes
# about 0.35 ms, the time of some 4e6 of them, so this undercounts it.
_SCAN_CALL = 1 << 20
# A bounded scan costs 8 (16 + k) of those multiply-adds per grid point of a
# k-class support.  On the same machine a float64 product of a 2048 x 2048
# matrix by 256 columns takes 47 ms, 0.044 ns a multiply-add, and a scan of
# 10^6 points takes 6.1 ms at k = 3 (CP(1028)), 8.6 ms at k = 16 (P(16)) and
# 81 ms at k = 256 (P(256)): about 130 multiply-adds a point for the
# magnitudes and the seed selection, plus 7 to 8 a point and class for the
# phase product.


@dataclass(frozen=True)
class _ClosedWalks:
    """B = M' - cI for the exact integer matrix M' = s' M(kind) of a walk.

    ``b`` holds the integer entries of B as float64, and every row of |B|
    sums to at most ``norm``.  B^i is a unit triangular combination of the
    M'^j, j <= i, so two vertices agree on (B^i)_{uu} for every i < K exactly
    when they agree on (M'^i)_{uu} for every i < K."""

    b: np.ndarray
    scale: int
    shift: int
    norm: int


def _closed_walks(g: WeightedGraph, kind: MatrixKind) -> _ClosedWalks | None:
    """The exact walk matrix of ``kind`` on ``g``, or None on float weights,
    a float q, or a row of |M'| that may reach 2**53.

    With (M, s) = ``g.scaled_adjacency`` and D' the degree numerators, a loop
    counted twice as in :meth:`WeightedGraph.degree_matrix`, M' = a D' + b M:
    (a, b) = (0, 1) with s' = s for A, (1, -1) with s' = s for L, and the
    numerator and denominator of q with s' = den s for q D + A.  The shift c
    minimizes the largest row sum of |M' - cI|."""
    m, s = g.scaled_adjacency
    if m.dtype != np.int64:
        return None
    if kind.label == "adjacency":
        a, b, scale = 0, 1, s
    elif kind.label == "laplacian":
        a, b, scale = 1, -1, s
    elif isinstance(kind.q, Fraction):
        a, b, scale = kind.q.numerator, kind.q.denominator, kind.q.denominator * s
    else:
        return None
    deg = m.sum(axis=1) + m.diagonal()
    # M >= 0, so a row of |M'| sums to at most (|a| + |b|) times its degree numerator
    if (abs(a) + abs(b)) * max(1, int(deg.max())) >= _EXACT_FLOAT:
        return None
    mp = b * m
    diag = b * m.diagonal() + a * deg
    off = np.abs(mp).sum(axis=1) - np.abs(mp.diagonal())
    shift = (int((diag + off).max()) + int((diag - off).min())) // 2
    mp.flat[:: len(mp) + 1] = diag - shift
    norm = int((np.abs(diag - shift) + off).max())
    return _ClosedWalks(mp.astype(np.float64), scale, shift, norm)


def _annihilator(exacts: list[ExactEigenvalue], walks: _ClosedWalks) -> list[int] | None:
    """Coefficients, constant first, of the monic p(x) = prod_j (x - (s'
    lambda_j - c)) over the exact values lambda_j, one integer quadratic per
    conjugate pair; None when p is not integral.  When the lambda_j are a
    vertex's support, p(B) e_u = 0, which the caller checks exactly."""
    p = [1]
    for e in exacts:
        if e.radical == 0 or e.delta == 1:
            factor = [walks.shift - walks.scale * (e.rational + e.radical), 1]
        elif e.radical > 0:
            mid = walks.scale * e.rational - walks.shift
            factor = [mid * mid - (walks.scale * e.radical) ** 2 * e.delta, -2 * mid, 1]
        else:
            continue  # its conjugate, of positive radical, gives the quadratic
        # a monic factor of an integer polynomial is integral (Gauss's lemma)
        if any(Fraction(c).denominator != 1 for c in factor):
            return None
        out = [0] * (len(p) + len(factor) - 1)
        for i, x in enumerate(p):
            for j, y in enumerate(factor):
                out[i + j] += x * int(y)
        p = out
    return p


def _count_leaders(
    b: np.ndarray, reps: list[int], steps: int, p: list[int] | None
) -> list[int] | None:
    """For each of ``reps``, the first of ``reps`` with the same closed-walk
    counts (B^i)_{uu} for every i < ``steps``.

    ``p`` is a monic integer annihilator of degree ``steps``: a rep joins
    another only once p(B) e_u = 0 is checked, and None says a rep that would
    join was not annihilated.  Without ``p``, ``steps`` is n, and the
    characteristic polynomial (Cayley-Hamilton) is the annihilator.  Then the
    counts at every i agree, since each is the same combination of the ones
    below.  A rep alone in its class at some i leaves the products.  The
    caller bounds every partial sum below 2**53, so each product is exact."""
    rows = np.asarray(reps)
    active = np.arange(len(reps))
    label = np.zeros(len(reps), dtype=np.intp)
    x = np.zeros((len(b), len(reps)))
    x[rows, active] = 1.0
    acc = None if p is None else p[0] * x
    for i in range(1, steps + (p is not None)):
        x = b @ x
        if acc is not None:
            acc += p[i] * x
        if i == steps:
            break
        counts = x[rows[active], np.arange(len(active))]
        ids: dict[tuple[int, float], int] = {}
        label = np.array([ids.setdefault(k, len(ids)) for k in zip(label.tolist(), counts.tolist())])
        keep = np.bincount(label)[label] > 1
        active, label, x = active[keep], label[keep], x[:, keep]
        if acc is not None:
            acc = acc[:, keep]
        if not len(active):
            break
    if acc is not None and acc.any():
        return None
    leaders = list(range(len(reps)))
    first: dict[int, int] = {}
    for pos, lab in zip(active.tolist(), label.tolist()):
        leaders[pos] = first.setdefault(lab, pos)
    return [reps[j] for j in leaders]


def _scan_leaders(
    facts: _GraphFacts, reps: list[int], grid_points: int | None, horizon: float | None
) -> dict[int, int]:
    """Each scan representative mapped to the first of ``reps`` in its exact
    cospectral class, or to itself; see :func:`classify_all`."""
    dec, n = facts.dec, facts.dec.n
    groups: dict[tuple[int, ...], list[int]] = {}
    for r in reps:
        groups.setdefault(facts.support(r).indices, []).append(r)
    todo = []
    for indices, members in groups.items():
        if len(members) < 2 or len(indices) < 2:
            continue
        exacts, form = facts.recognized(facts.support(members[0]))
        # multiply-adds of one scan: D^3 for a one-period root solve of
        # degree D, 8 (16 + k) a grid point for a bounded scan of a k-class support
        if form is not None and max(form.steps) <= _MAX_DEGREE:
            cost = _SCAN_CALL + max(form.steps) ** 3
        else:
            points = _bounded_grid(dec, grid_points, horizon)[1]
            cost = _SCAN_CALL + 8 * (16 + len(indices)) * points
        if n * n * len(indices) < cost:
            todo.append((members, exacts, cost))
    leader = {r: r for r in reps}
    walks = _closed_walks(facts.g, facts.kind) if todo else None
    if walks is None:
        return leader
    for members, exacts, cost in todo:
        found = None
        p = _annihilator(exacts, walks) if exacts is not None else None
        if p is not None and sum(abs(c) * walks.norm**k for k, c in enumerate(p)) < _EXACT_FLOAT:
            found = _count_leaders(walks.b, members, len(p) - 1, p)
        if found is None and n**3 < cost and walks.norm ** (n - 1) < _EXACT_FLOAT:
            found = _count_leaders(walks.b, members, n, None)
        if found is not None:
            leader.update(zip(members, found))
    return leader


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
    ``vertices`` with the side of the twin dichotomy each falls on, the
    support of each vertex and the exact values of each distinct support,
    which the scan and the decision tree both read.
    Pass ``dec`` or ``twin_sets`` to reuse ones the caller already holds.
    ``grid_points`` and ``horizon`` size every bounded scan, twin or not
    (see :meth:`WalkEvaluator.infimum_diagonal`); they are checked even
    when no vertex uses them.

    Vertices that share a scan share its :class:`InfimumEstimate`.  Twins
    share their diagonal, so a twin set is scanned at its first member in
    ``vertices``, its representative; a vertex without a twin is its own.
    Two representatives u and v also share one scan, made at the first, when
    they are provably cospectral, (E_j)_{uu} = (E_j)_{vv} for every class j:

    * they have the same support classes;
    * on the exact integer matrix M' = s' M(kind) of the walk, the
      closed-walk counts (M'^i)_{uu} and (M'^i)_{vv} agree for every i < K,
      where K is the degree of a monic integer polynomial p with p(M') e_u =
      p(M') e_v = 0.  Then every count agrees, since p gives the counts at i
      >= K from those below.  p is the product over the recognized support
      values of one linear factor per rational value and one quadratic per
      conjugate pair, once p(M') e_u = 0 is checked exactly; failing that, it
      is the characteristic polynomial (Cayley-Hamilton, K = n).

    The products run in float64 only while every partial sum is provably an
    integer below 2**53 (the sum over k of |p_k| ||M' - cI||^k, with c a
    shift that makes the row-sum norm least, or ||M' - cI||^(n-1)).  A
    graph with float weights, a float q or larger counts forms no class, nor
    does a support the test costs more than it saves: about n^2 K
    multiply-adds per representative against the scan's fixed call cost
    plus D^3 for a one-period root solve of degree D, or 8 (16 + k) per grid
    point for a bounded scan of a k-class support.  Such vertices keep one
    scan per representative.
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
    # a twin set is keyed by its least member, a vertex without a twin by itself
    homes = [twin_of[u].members[0] if u in twin_of else u for u in verts]
    first: dict[int, int] = {}
    for u, h in zip(verts, homes):
        first.setdefault(h, u)
    sides = {h: twin_dichotomy(g, kind, twin_of[h], dec) for h in first if h in twin_of}
    facts = _GraphFacts(g, kind, dec, WalkEvaluator(dec), twin_of, sides)
    leader = _scan_leaders(facts, list(first.values()), grid_points, horizon)
    scans: dict[int, InfimumEstimate] = {}
    for r in leader.values():
        if r not in scans:
            _, form = facts.recognized(facts.support(r))
            scans[r] = facts.evaluator.infimum_diagonal(r, form, grid_points, horizon)
    return [_classify(facts, u, scans[leader[first[h]]]) for u, h in zip(verts, homes)]


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
