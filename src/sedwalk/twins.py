"""Twin vertices and the eigenspace geometry attached to a twin set.

Two vertices are twins when they carry equal loops and see every other
vertex with identical weights; whether the pair itself is joined (and by
what weight) is unconstrained.  Every difference ``e_u - e_v`` inside a
twin set is an eigenvector for one common eigenvalue, and splitting that
eigenvalue's projector into the difference part and its complement is
what the sedentariness bounds consume.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .graphs import MatrixKind, Weight, WeightedGraph
from .spectral import (
    SpectralDecomposition,
    StrongCospectrality,
    decompose,
)

__all__ = [
    "TwinSet",
    "ThetaEigenspaceSplit",
    "TwinBranch",
    "are_twins",
    "find_twin_sets",
    "theta_split",
    "twin_dichotomy",
]

F_PROJECTOR_TOL = 1e-8


def are_twins(g: WeightedGraph, u: int, v: int) -> bool:
    """Exact combinatorial twin test: equal loops, equal view of the rest."""
    if u == v:
        raise ValueError("a vertex is not its own twin")
    return _same_view(g.scaled_adjacency[0], u, v)


def _same_view(m: np.ndarray, u: int, v: int) -> bool:
    """Rows u and v of M agree on the loop and off the pair.  M holds the
    weights exactly (numerators over one scale, floats, or the given
    Fractions and floats), so this compares weights exactly."""
    differ = np.flatnonzero(m[u] != m[v]).tolist()
    return bool(m[u, u] == m[v, v]) and set(differ) <= {u, v}


@dataclass(frozen=True)
class TwinSet:
    """Maximal set of pairwise twins with the shared loop and pair weights.

    ``omega`` is the loop weight on each member and ``eta`` the weight
    joining any two members (zero when the set is independent).  The
    difference of any two members is an eigenvector; the carried
    eigenvalue depends on the matrix kind, see :meth:`theta`.
    """

    members: tuple[int, ...]
    omega: Weight
    eta: Weight

    def __post_init__(self) -> None:
        if len(self.members) < 2:
            raise ValueError("a twin set needs at least two members")
        if list(self.members) != sorted(set(self.members)):
            raise ValueError("members must be sorted and distinct")

    def __len__(self) -> int:
        return len(self.members)

    def __contains__(self, u: object) -> bool:
        return u in self.members

    def theta(self, g: WeightedGraph, kind: MatrixKind) -> Weight:
        """Eigenvalue of every internal difference vector under ``kind``."""
        return g.twin_eigenvalue(kind, self.members[0], self.members[1])

    def partner_of(self, u: int) -> int:
        """Some other member, the natural partner when the set is a pair."""
        if u not in self.members:
            raise ValueError("vertex is not in this twin set")
        return self.members[1] if self.members[0] == u else self.members[0]


def _mix(x: np.ndarray) -> np.ndarray:
    """The splitmix64 finalizer, elementwise on uint64 (wrapping mod 2**64)."""
    x = x ^ (x >> 30)
    x *= 0xBF58476D1CE4E5B9
    x ^= x >> 27
    x *= 0x94D049BB133111EB
    return x ^ (x >> 31)


def _twin_partition(g: WeightedGraph) -> dict[int, TwinSet]:
    """Every vertex with a twin mapped to its maximal twin set, once per graph.

    u and v are twins with pair weight eta = M[u, v] exactly when their loops
    agree and their rows of M = s*A agree once each row's own entry is set
    to eta.  A row hash that is linear in the positions, H(u) = sum_w
    h(M[u, w]) r_w, gives that modified row's hash for every eta at once:
    key[u, v] = H(u) + (h(M[u, v]) - h(M[u, u])) r_u.  So twins satisfy
    key[u, v] == key[v, u], one O(n^2) pass for all pair weights.  Each
    candidate is confirmed exactly by its rows of M.
    """
    if "twins" in g.memo:
        return g.memo["twins"]
    m, _ = g.scaled_adjacency
    bits = np.fromiter(map(hash, m.flat), np.int64, m.size) if m.dtype == object else m
    h = _mix(bits.reshape(m.shape).view(np.uint64))
    r = _mix(np.arange(1, g.n + 1, dtype=np.uint64)) | 1
    loops = h.diagonal().copy()
    row = h @ r
    key = h  # reused in place: key[u, v] as above
    key -= loops[:, None]
    key *= r[:, None]
    key += row[:, None]
    candidate = (key == key.T) & (loops[:, None] == loops[None, :])

    part: dict[int, TwinSet] = {}
    for u in range(g.n):
        if u in part:
            continue
        # twins of u with a smaller index were reached first
        twins = [
            v for v in np.flatnonzero(candidate[u]).tolist() if v > u and _same_view(m, u, v)
        ]
        if twins:
            ts = TwinSet(members=(u, *twins), omega=g.weight(u, u), eta=g.weight(u, twins[0]))
            part.update(dict.fromkeys(ts.members, ts))
    g.memo["twins"] = part
    return part


def find_twin_sets(g: WeightedGraph, vertices: Iterable[int] | None = None) -> list[TwinSet]:
    """The maximal twin sets meeting ``vertices`` (default: all), in the
    order the vertices first reach them."""
    part = _twin_partition(g)
    sets: dict[int, TwinSet] = {}
    for u in range(g.n) if vertices is None else vertices:
        if u in part:
            sets.setdefault(part[u].members[0], part[u])
    return list(sets.values())


@dataclass(frozen=True)
class ThetaEigenspaceSplit:
    """Split of the twin eigenvalue's projector E = V V^T = P1 + F.

    P1 projects onto the span of the difference vectors of the twin set
    (dimension ``b1_dim`` = |T| - 1) and F onto whatever else the
    eigenspace holds.  ``vectors`` is V, the eigenvalue's orthonormal block
    of the decomposition (a view), so F is read one diagonal entry at a time
    and never formed.  F vanishes exactly when the eigenvalue has the
    minimal multiplicity |T| - 1.
    """

    twin_set: TwinSet
    theta: float
    eigen_index: int
    theta_multiplicity: int
    b1_dim: int
    vectors: np.ndarray

    def f_diagonal(self, u: int) -> float:
        """F[u, u] = ||V[u]||^2 - P1[u, u]; P1[u, u] is 1 - 1/|T| on the set, else 0."""
        row = self.vectors[u]
        p1 = 1.0 - 1.0 / len(self.twin_set) if u in self.twin_set else 0.0
        return float(row @ row) - p1

    @property
    def f_rank(self) -> int:
        return self.theta_multiplicity - self.b1_dim


def theta_split(
    g: WeightedGraph,
    kind: MatrixKind,
    twin_set: TwinSet,
    dec: SpectralDecomposition | None = None,
) -> ThetaEigenspaceSplit:
    """Locate the twin eigenvalue in the spectrum and split its projector.

    F = E - P1 is a projector exactly when every difference e_u - e_v of
    the set lies in the eigenspace, that is when ||V^T (e_u - e_v)||^2 =
    ||V[u] - V[v]||^2 equals ||e_u - e_v||^2 = 2; the differences of
    consecutive members span P1's range, so they are the ones checked.
    Raises if the formula eigenvalue is missing from the computed spectrum,
    if a difference leaves the eigenspace or if the multiplicity is below
    |T| - 1; all signal numerical trouble upstream rather than a
    recoverable condition.
    """
    if dec is None:
        dec = decompose(g, kind)
    theta = float(twin_set.theta(g, kind))
    idx = dec.eigenvalue_index(theta)
    mult = int(dec.multiplicities[idx])
    start = int(dec.starts[idx])
    block = dec.vectors[:, start : start + mult]
    members = list(twin_set.members)
    diff = block[members[:-1]] - block[members[1:]]
    if np.max(np.abs(np.einsum("ij,ij->i", diff, diff) - 2.0)) > F_PROJECTOR_TOL * max(1.0, g.n):
        raise ValueError("twin eigenspace split is not a projector")
    b1 = len(members) - 1
    if mult < b1:
        raise ValueError("twin eigenspace multiplicity mismatch")
    return ThetaEigenspaceSplit(
        twin_set=twin_set,
        theta=theta,
        eigen_index=idx,
        theta_multiplicity=mult,
        b1_dim=b1,
        vectors=block,
    )


@dataclass(frozen=True)
class TwinBranch:
    """Which side of the twin dichotomy a vertex falls on.

    ``branch`` is "sedentary" when the vertex cannot take part in pretty
    good state transfer (set size at least 3, or a pair whose extra
    eigenvector blocks strong cospectrality) and "pgst-pair" when the
    vertex sits in a strongly cospectral pair, where transfer and
    sedentariness compete and number theory decides.
    """

    branch: str
    vertex: int
    partner: int | None
    split: ThetaEigenspaceSplit
    strong_cospectrality: StrongCospectrality | None


def twin_dichotomy(
    g: WeightedGraph,
    kind: MatrixKind,
    twin_set: TwinSet,
    u: int,
    dec: SpectralDecomposition | None = None,
    split: ThetaEigenspaceSplit | None = None,
) -> TwinBranch:
    """Route a twin vertex to the sedentary or the transfer branch.

    Pass the set's ``split`` to share one :func:`theta_split` among its members.
    """
    if u not in twin_set:
        raise ValueError("vertex is not in the twin set")
    if dec is None:
        dec = decompose(g, kind)
    if split is None:
        split = theta_split(g, kind, twin_set, dec=dec)
    if len(twin_set) >= 3:
        return TwinBranch("sedentary", u, None, split, None)
    v = twin_set.partner_of(u)
    sc = dec.strongly_cospectral(u, v)
    if sc is None:
        if split.f_diagonal(u) <= F_PROJECTOR_TOL:
            raise ValueError(
                "pair is not strongly cospectral yet no extra eigenvector meets it"
            )
        return TwinBranch("sedentary", u, v, split, None)
    return TwinBranch("pgst-pair", u, v, split, sc)
