"""Edge-by-edge reference graphs: the oracle for the matrix-built graphs.

:class:`EdgeGraph` keeps a graph as its sorted ``(u, v, w)`` triples and
every constructor adds one Python weight per edge, as sedwalk's graphs were
built before they became their weight matrix.  Every derived quantity is
computed from the triples alone.  The one contract that changed with the
matrix representation is kept here on purpose: a graph mixing ``Fraction``
and float weights has an object weight matrix holding the weights as given
(it was their float64 rounding).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from sedwalk.graphs import MatrixKind
from sedwalk.twins import TwinSet


def coerce_weight(w):
    if isinstance(w, bool):
        raise TypeError("edge weight must be a number, not bool")
    if isinstance(w, Fraction):
        return w
    if isinstance(w, (int, np.integer)):
        return Fraction(int(w))
    if isinstance(w, (float, np.floating)):
        return float(w)
    raise TypeError(f"unsupported edge weight type: {type(w).__name__}")


@dataclass(frozen=True)
class EdgeGraph:
    n: int
    edges: tuple

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if not w > 0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            seen.add((u, v))

    @classmethod
    def from_edges(cls, n, edges=()) -> "EdgeGraph":
        if isinstance(edges, dict):
            items = [(u, v, w) for (u, v), w in edges.items()]
        else:
            items = [e if len(e) == 3 else (e[0], e[1], 1) for e in edges]
        canon = {}
        for u, v, w in items:
            u, v = (int(u), int(v)) if u <= v else (int(v), int(u))
            weight = coerce_weight(w)
            if (u, v) in canon and canon[(u, v)] != weight:
                raise ValueError(f"conflicting weights for edge ({u},{v})")
            canon[(u, v)] = weight
        return cls(n, tuple(sorted((u, v, w) for (u, v), w in canon.items())))

    @property
    def exact(self) -> bool:
        return all(isinstance(w, Fraction) for _, _, w in self.edges)

    @cached_property
    def edge_map(self) -> dict:
        return {(u, v): w for u, v, w in self.edges}

    def weight(self, u: int, v: int):
        return self.edge_map.get((min(u, v), max(u, v)), Fraction(0))

    def row(self, u: int) -> list:
        """(neighbour, weight) pairs of ``u`` in increasing neighbour order."""
        return [(v, w) for v in range(self.n) if (w := self.weight(u, v))]

    def weight_matrix(self) -> tuple[np.ndarray, int]:
        """``(M, s)`` as :class:`WeightedGraph` holds them in ``weights``
        and ``scale``."""
        if self.exact:
            s = math.lcm(*(w.denominator for _, _, w in self.edges))
            nums = [w.numerator * (s // w.denominator) for _, _, w in self.edges]
            fits = s < 2**53 and 2 * self.n * max(nums, default=0) < 2**53
            dtype = np.int64 if fits else object
        elif all(isinstance(w, float) for _, _, w in self.edges):
            s, nums, dtype = 1, [w for _, _, w in self.edges], np.float64
        else:
            s, nums, dtype = 1, [w for _, _, w in self.edges], object
        m = np.zeros((self.n, self.n), dtype=dtype)
        for (u, v, _), x in zip(self.edges, nums):
            m[u, v] = m[v, u] = x
        return m, s

    @property
    def degrees(self) -> tuple:
        """Left-to-right sums from Fraction(0), a loop counted twice."""
        out = []
        for u in range(self.n):
            total = Fraction(0)
            for v, w in self.row(u):
                total = total + (2 * w if v == u else w)
            out.append(total)
        return tuple(out)

    def matrix(self, kind: MatrixKind) -> np.ndarray:
        a = np.zeros((self.n, self.n))
        for u, v, w in self.edges:
            a[u, v] = a[v, u] = float(w)
        if kind.label == "adjacency":
            return a
        d = np.diag([float(x) for x in self.degrees])
        if kind.label == "laplacian":
            return d - a
        return float(kind.q) * d + a

    def is_weighted_regular(self):
        sums = []
        for u in range(self.n):
            total = Fraction(0)
            for _, w in self.row(u):
                total = total + w
            sums.append(total)
        first = sums[0]
        if self.exact:
            return first if all(s == first for s in sums) else None
        scale = max(1.0, max(abs(float(s)) for s in sums))
        return first if all(abs(float(s) - float(first)) <= 1e-9 * scale for s in sums) else None

    def twin_sets(self) -> list[TwinSet]:
        """Maximal twin sets from the pairwise definition, first-reached order."""

        def twins(u: int, v: int) -> bool:
            return self.weight(u, u) == self.weight(v, v) and all(
                self.weight(u, x) == self.weight(v, x) for x in range(self.n) if x not in (u, v)
            )

        sets, seen = [], set()
        for u in range(self.n):
            mates = [v for v in range(self.n) if v != u and twins(u, v)]
            if u in seen or not mates:
                continue
            members = tuple(sorted([u, *mates]))
            seen.update(members)
            sets.append(TwinSet(members, self.weight(u, u), self.weight(members[0], members[1])))
        return sets


def _simple(n: int, pairs) -> EdgeGraph:
    return EdgeGraph.from_edges(n, [(u, v, Fraction(1)) for u, v in pairs])


def empty(n: int) -> EdgeGraph:
    return EdgeGraph.from_edges(n, [])


def complete(n: int) -> EdgeGraph:
    return _simple(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n: int) -> EdgeGraph:
    return _simple(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n: int) -> EdgeGraph:
    return _simple(n, [(i, (i + 1) % n) for i in range(n)])


def disjoint_union(x: EdgeGraph, y: EdgeGraph) -> EdgeGraph:
    edges = list(x.edges) + [(u + x.n, v + x.n, w) for u, v, w in y.edges]
    return EdgeGraph.from_edges(x.n + y.n, edges)


def join(x: EdgeGraph, y: EdgeGraph) -> EdgeGraph:
    edges = list(x.edges) + [(u + x.n, v + x.n, w) for u, v, w in y.edges]
    edges += [(u, v + x.n, Fraction(1)) for u in range(x.n) for v in range(y.n)]
    return EdgeGraph.from_edges(x.n + y.n, edges)


def complete_multipartite(parts) -> EdgeGraph:
    offsets = np.cumsum([0] + list(parts)).tolist()
    pairs = [
        (u, v)
        for i in range(len(parts))
        for j in range(i + 1, len(parts))
        for u in range(offsets[i], offsets[i + 1])
        for v in range(offsets[j], offsets[j + 1])
    ]
    return _simple(offsets[-1], pairs)


def threshold(parts, starts_empty: bool = True) -> EdgeGraph:
    g = None
    for j, m in enumerate(parts, start=1):
        is_clique = (j % 2 == 0) if starts_empty else (j % 2 == 1)
        cell = complete(m) if is_clique else empty(m)
        g = cell if g is None else (join(g, cell) if is_clique else disjoint_union(g, cell))
    return g


def _ordered_entries(g: EdgeGraph) -> list:
    out = []
    for u, v, w in g.edges:
        out.append((u, v, w))
        if u != v:
            out.append((v, u, w))
    return out


def direct_product(x: EdgeGraph, y: EdgeGraph) -> EdgeGraph:
    acc = {}
    for a, b, w1 in _ordered_entries(x):
        for c, d, w2 in _ordered_entries(y):
            i, j = a * y.n + c, b * y.n + d
            if i <= j:
                acc[(i, j)] = w1 * w2
    return EdgeGraph.from_edges(x.n * y.n, acc)


def cartesian_product(x: EdgeGraph, y: EdgeGraph) -> EdgeGraph:
    acc = {}
    for u, v, w in x.edges:
        for t in range(y.n):
            key = (u * y.n + t, v * y.n + t)
            acc[key] = acc.get(key, Fraction(0)) + w
    for u in range(x.n):
        for a, b, w in y.edges:
            key = (u * y.n + a, u * y.n + b)
            acc[key] = acc.get(key, Fraction(0)) + w
    return EdgeGraph.from_edges(x.n * y.n, acc)


def blow_up(m: int, x: EdgeGraph) -> EdgeGraph:
    acc = {}
    for a, b, w in _ordered_entries(x):
        for j in range(m):
            for jj in range(m):
                i, k = j * x.n + a, jj * x.n + b
                if i <= k:
                    acc[(i, k)] = w
    return EdgeGraph.from_edges(m * x.n, acc)
