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
# ``decompose`` is not called here, but perfbench/layertrace.py hooks
# ``sedwalk.twins.decompose`` and lists a hook without a target as missing
from .spectral import SpectralDecomposition, StrongCospectrality, decompose  # noqa: F401

__all__ = [
    "TwinDichotomy",
    "TwinSet",
    "are_twins",
    "find_twin_sets",
    "twin_dichotomy",
]

F_PROJECTOR_TOL = 1e-8


def are_twins(g: WeightedGraph, u: int, v: int) -> bool:
    """Exact combinatorial twin test: equal loops, equal view of the rest."""
    if u == v:
        raise ValueError("a vertex is not its own twin")
    return _same_view(g.weights, u, v)


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
    m = g.weights
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
class TwinDichotomy:
    """Which side of the twin dichotomy a twin set falls on.

    ``theta`` is the twin eigenvalue of the set and ``eigen_index`` its class
    in the decomposition.  ``pair`` is the sign split of a strongly cospectral
    pair, where transfer and sedentariness compete and number theory decides;
    it is None on the sedentary side, a set of three or more or a pair whose
    extra eigenvector blocks strong cospectrality.
    """

    theta: float
    eigen_index: int
    pair: StrongCospectrality | None


def twin_dichotomy(
    g: WeightedGraph, kind: MatrixKind, twin_set: TwinSet, dec: SpectralDecomposition
) -> TwinDichotomy:
    """Decide the twin dichotomy once for the whole set.

    With V the orthonormal block of the twin eigenvalue theta, its projector
    E = V V^T splits as P1 + F, P1 onto the differences of the set (of
    dimension |T| - 1) and F onto whatever else the eigenspace holds.  That
    split exists exactly when every difference e_u - e_v lies in the
    eigenspace, ||V[u] - V[v]||^2 = ||e_u - e_v||^2 = 2; the differences of
    consecutive members span P1's range, so they are the ones checked.  A
    pair that is not strongly cospectral needs F to meet it, F[u, u] =
    ||V[u]||^2 - 1/2 > 0, and a strongly cospectral one has theta on its
    minus side, since e_u - e_v is a theta-eigenvector.  Raises if theta is
    missing from the computed spectrum, if a difference leaves the
    eigenspace, if the multiplicity is below |T| - 1 or if either pair check
    fails; all signal numerical trouble upstream rather than a recoverable
    condition.
    """
    theta = float(twin_set.theta(g, kind))
    idx = dec.eigenvalue_index(theta)
    mult = int(dec.multiplicities[idx])
    start = int(dec.starts[idx])
    rows = dec.vectors[list(twin_set.members), start : start + mult]
    diff = rows[:-1] - rows[1:]
    if np.max(np.abs(np.einsum("ij,ij->i", diff, diff) - 2.0)) > F_PROJECTOR_TOL * max(1.0, g.n):
        raise ValueError("twin eigenspace split is not a projector")
    if mult < len(twin_set) - 1:
        raise ValueError("twin eigenspace multiplicity mismatch")
    if len(twin_set) >= 3:
        return TwinDichotomy(theta, idx, None)
    sc = dec.strongly_cospectral(*twin_set.members)
    if sc is None:
        if min(float(r @ r) for r in rows) - 0.5 <= F_PROJECTOR_TOL:
            raise ValueError(
                "pair is not strongly cospectral yet no extra eigenvector meets it"
            )
        return TwinDichotomy(theta, idx, None)
    if idx not in sc.minus:
        raise ValueError("twin eigenvalue landed on the symmetric side of the pair")
    return TwinDichotomy(theta, idx, sc)
