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
numeric evidence attached to every verdict.  Where a float fact contradicts
what exact reasoning says it must be, the vertex ends undetermined and
uncertified, with an ``inconsistent:<check>`` step, instead of raising.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Sequence

import numpy as np

from .graphs import ADJACENCY, MatrixKind, WeightedGraph
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
from .walk import InfimumEstimate, WalkEvaluator, _check_grid

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
    sup: EigenvalueSupport, form: QuadraticIntegerForm, scan: InfimumEstimate, trail: list[str]
) -> tuple[float, float | None]:
    """Constant and attaining time from a certified one-period minimum.

    When it matches the half-period dip, the exact dip and half the period
    replace the computed ones.
    """
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
    """Perfect-transfer partner for a periodic vertex whose diagonal dies.  A
    partner's entry in column u of U(P/2), the one time :func:`equality_time_criterion`
    returns, has modulus 1; the column has norm 1, so only its largest entry off u can."""
    column = np.abs(facts.evaluator.column(u, form.period / 2))
    column[u] = 0.0
    v = int(np.argmax(column))
    if column[v] < 1.0 - PST_TOL:
        return None
    sc = facts.dec.strongly_cospectral(u, v)
    plus_pos = _support_positions(sup, sc.plus) if sc is not None else ()
    t1 = equality_time_criterion(form, plus_pos) if 0 < len(plus_pos) < len(sup) else None
    return None if t1 is None else (v, t1)


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

    def inconsistent(check: str) -> VertexClassification:
        # two float facts that exact reasoning says must agree do not
        trail.append(f"inconsistent:{check}")
        return record(Verdict.UNDETERMINED, certified=False)

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
            return inconsistent("sign-split")
        t1 = equality_time_criterion(form, plus_pos) if form is not None else None
        if t1 is not None:
            if ev.magnitude(u, v, t1) < 1.0 - PST_TOL:
                return inconsistent("pst-at-equality-time")
            trail.append(f"pst:time={t1:.12g}")
            return record(Verdict.PST, partner=v, pst_time=t1)
        if exacts is None:
            trail.append("unrecognized-support")
            return record(Verdict.UNDETERMINED, certified=False)
        if _parity_stage(exacts, plus_pos, trail):
            if form is not None:
                # periodic vertices attain what they approach, contradicting
                # the failed equality test above
                return inconsistent("parity-against-period")
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
        # the minimum may not dip below a certified floor
        if floor is not None and scan.value < floor - MATCH_TOL:
            return inconsistent("floor-dip")
        constant, t_time = _period_minimum(sup, form, scan, trail)
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


# -- scan sharing ---------------------------------------------------------------

# Two scan representatives share one scan when their diagonal weights differ
# by at most this in sum: |U(t)_uu| and |U(t)_vv| then differ by at most as
# much at every t.
SHARE_TOL = 1e-10


def _scan_leaders(facts: _GraphFacts, reps: list[int]) -> dict[int, int]:
    """Each scan representative mapped to the first earlier head it matches,
    or to itself, a head; see :func:`classify_all`."""
    heads: dict[tuple[tuple[int, ...], int], list[int]] = {}
    leader = {}
    for r in reps:
        w = facts.dec.diagonal_weights(r)
        # candidates share the support and the hash of the weights rounded to
        # 6 places; a hash collision only adds a candidate
        bucket = heads.setdefault((facts.support(r).indices, hash(np.round(w, 6).tobytes())), [])
        match = (h for h in bucket if np.abs(facts.dec.diagonal_weights(h) - w).sum() <= SHARE_TOL)
        leader[r] = next(match, r)
        if leader[r] == r:
            bucket.append(r)
    return leader


def classify_all(
    g: WeightedGraph,
    kind: MatrixKind = ADJACENCY,
    *,
    vertices: Sequence[int] | None = None,
    grid_points: int | None = None,
    horizon: float | None = None,
) -> list[VertexClassification]:
    """Classify ``vertices`` (default: every vertex) in order.

    The graph-level facts are computed here, once, and shared by every
    vertex: the decomposition of ``kind`` and its walk evaluator, the twin
    sets that meet ``vertices`` with the side of the twin dichotomy each
    falls on, the support of each vertex and the exact values of each
    distinct support, which the scan and the decision tree both read.
    ``grid_points`` and ``horizon`` size every bounded scan, twin or not
    (see :meth:`WalkEvaluator.infimum_diagonal`); they are checked even
    when no vertex uses them.

    Vertices that share a scan share its :class:`InfimumEstimate`.  Twins
    share their diagonal, so a twin set is scanned at its first member in
    ``vertices``, its representative; a vertex without a twin is its own.
    A representative v also takes the scan of the first earlier
    representative u whose diagonal weights it matches: the same support
    classes, and sum_j |(E_j)_{uu} - (E_j)_{vv}| <= ``SHARE_TOL``.  Then
    ||U(t)_{uu}| - |U(t)_{vv}|| <= ``SHARE_TOL`` at every t, so the shared
    minimum is within ``SHARE_TOL`` of v's own.  Candidates are found by the
    weights rounded to 6 places, so a pair that rounding splits keeps two
    scans.

    A twin set is also classified once, at its representative, and every
    other member takes that record with its own ``vertex``; on the pair
    side the member's partner is the representative.  Swapping two twins is
    an automorphism of the weight matrix, so members share their support,
    exact values, dichotomy side and scan, and the decision tree takes the
    same branches at each; its per-member floats agree to rounding.  A
    vertex without a twin is classified on its own, since its
    perfect-transfer partner scan depends on the vertex.
    """
    _check_grid(horizon, grid_points)
    verts = list(range(g.n) if vertices is None else vertices)
    for u in verts:
        if not 0 <= u < g.n:
            raise ValueError(f"vertex {u} out of range")
    dec = decompose(g, kind)
    twin_of = {m: ts for ts in find_twin_sets(g, verts) for m in ts.members}
    # a twin set is keyed by its least member, a vertex without a twin by itself
    homes = [twin_of[u].members[0] if u in twin_of else u for u in verts]
    first: dict[int, int] = {}
    for u, h in zip(verts, homes):
        first.setdefault(h, u)
    sides = {h: twin_dichotomy(g, kind, twin_of[h], dec) for h in first if h in twin_of}
    facts = _GraphFacts(kind, dec, WalkEvaluator(dec), twin_of, sides)
    leader = _scan_leaders(facts, list(first.values()))
    scans: dict[int, InfimumEstimate] = {}
    for r in leader.values():
        if r not in scans:
            _, form = facts.recognized(facts.support(r))
            scans[r] = facts.evaluator.infimum_diagonal(r, form, grid_points, horizon)
    records: dict[int, VertexClassification] = {}
    out = []
    for u, h in zip(verts, homes):
        r = first[h]
        if r not in records:
            records[r] = _classify(facts, r, scans[leader[r]])
        out.append(_as_member(records[r], u))
    return out


def _as_member(rec: VertexClassification, u: int) -> VertexClassification:
    """The record of a twin set's representative relabelled for member ``u``:
    a pair partner, always the other member, becomes the representative."""
    if rec.vertex == u:
        return rec
    assert rec.partner in (None, u), "a twin's partner is the other member of its pair"
    partner = None if rec.partner is None else rec.vertex
    return replace(rec, vertex=u, partner=partner)


def classify_vertex(
    g: WeightedGraph,
    kind: MatrixKind,
    u: int,
    *,
    grid_points: int | None = None,
    horizon: float | None = None,
) -> VertexClassification:
    """Classify one vertex; see :func:`classify_all`."""
    return classify_all(g, kind, vertices=(u,), grid_points=grid_points, horizon=horizon)[0]
