"""Weighted undirected graphs (loops allowed) and the constructions the analyzers work on.

Weights are kept as exact ``Fraction`` values whenever the inputs are rational;
float inputs fall back to floating point for the whole computation chain.
Vertex order is part of every constructor's contract:

* ``join(x, y)`` keeps the vertices of ``x`` first,
* ``complete_multipartite`` lays parts out in the given order,
* ``blow_up`` is copy-major: copy ``j`` of vertex ``u`` is ``j * x.n + u``,
* ``direct_product`` / ``cartesian_product`` are row-major: ``(u, v) -> u * y.n + v``,
* ``threshold`` appends each new cell after the vertices already present.

Every constructor refuses more than ``MAX_VERTICES`` vertices before it
builds an edge, because each graph holds an n-by-n weight matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

Weight = Fraction | float

__all__ = [
    "Weight",
    "MAX_VERTICES",
    "MatrixKind",
    "ADJACENCY",
    "LAPLACIAN",
    "WeightedGraph",
    "empty",
    "complete",
    "path",
    "cycle",
    "star",
    "join",
    "disjoint_union",
    "complete_multipartite",
    "cocktail_party",
    "threshold",
    "threshold_cells",
    "direct_product",
    "cartesian_product",
    "blow_up",
    "from_edge_list_text",
    "to_edge_list_text",
]


# Largest vertex count any constructor accepts.  A graph holds its n-by-n
# weight matrix (128 MB of int64 at the cap) and a decomposition holds n-by-n
# eigenvectors, so larger inputs are refused before any edge is built.
MAX_VERTICES = 4096

# Integers below this convert to float64 exactly.
_EXACT_FLOAT = 2**53


def _check_order(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"graph on {n} vertices exceeds the cap of {MAX_VERTICES} vertices")


def _coerce_weight(w) -> Weight:
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
class MatrixKind:
    """Which vertex-indexed symmetric matrix drives the walk.

    ``generalized(q)`` means ``q*D + A`` where ``D`` is the degree-diagonal
    matrix and ``A`` the (loop-aware) adjacency matrix.  The Laplacian is
    ``D - A``; it is handled as its own kind because its twin eigenvalue and
    sign conventions differ from ``q*D + A`` at ``q = -1``.
    """

    label: str
    q: Weight | None = None

    def __post_init__(self) -> None:
        if self.label not in ("adjacency", "laplacian", "generalized"):
            raise ValueError(f"unknown matrix kind {self.label!r}")
        if self.label == "generalized" and self.q is None:
            raise ValueError("generalized matrix kind needs a q value")

    @classmethod
    def adjacency(cls) -> "MatrixKind":
        return cls("adjacency")

    @classmethod
    def laplacian(cls) -> "MatrixKind":
        return cls("laplacian")

    @classmethod
    def generalized(cls, q) -> "MatrixKind":
        return cls("generalized", _coerce_weight(q))

    @classmethod
    def parse(cls, text: str) -> "MatrixKind":
        """Parse the CLI spelling: ``A``, ``L`` or ``Mq:<q>``."""
        t = text.strip()
        if t == "A":
            return cls.adjacency()
        if t == "L":
            return cls.laplacian()
        if t.startswith("Mq:"):
            body = t[3:]
            try:
                q = Fraction(body) if "/" in body or "." not in body else float(body)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad q value in matrix kind {text!r}") from exc
            return cls.generalized(q)
        raise ValueError(f"unknown matrix kind {text!r} (expected A, L or Mq:<q>)")

    @property
    def short_name(self) -> str:
        if self.label == "adjacency":
            return "A"
        if self.label == "laplacian":
            return "L"
        return f"Mq:{self.q}"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.short_name


ADJACENCY = MatrixKind.adjacency()
LAPLACIAN = MatrixKind.laplacian()


@dataclass(frozen=True)
class WeightedGraph:
    """Immutable weighted graph on vertices ``0..n-1``.

    ``edges`` holds canonical ``(u, v, w)`` triples with ``u <= v`` sorted
    lexicographically; a triple with ``u == v`` is a loop.  All weights must
    be positive.  ``memo`` holds structures other modules derive from the
    graph once (the twin partition); it takes no part in equality.
    """

    n: int
    edges: tuple[tuple[int, int, Weight], ...]
    laplacian_safe: bool = True
    memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        _check_order(self.n)
        seen = set()
        for u, v, w in self.edges:
            if not (0 <= u <= v < self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")
            if (u, v) in seen:
                raise ValueError(f"duplicate edge ({u},{v})")
            if not w > 0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            seen.add((u, v))

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, object]] | Mapping[tuple[int, int], object] = (),
        laplacian_safe: bool = True,
    ) -> "WeightedGraph":
        _check_order(n)
        if isinstance(edges, Mapping):
            items = [(u, v, w) for (u, v), w in edges.items()]
        else:
            items = [e if len(e) == 3 else (e[0], e[1], 1) for e in edges]
        canon: dict[tuple[int, int], Weight] = {}
        for u, v, w in items:
            u, v = (int(u), int(v)) if u <= v else (int(v), int(u))
            weight = _coerce_weight(w)
            if (u, v) in canon and canon[(u, v)] != weight:
                raise ValueError(f"conflicting weights for edge ({u},{v})")
            canon[(u, v)] = weight
        triples = tuple(sorted((u, v, w) for (u, v), w in canon.items()))
        return cls(n, triples, laplacian_safe)

    # -- basic accessors ----------------------------------------------

    @cached_property
    def edge_map(self) -> dict[tuple[int, int], Weight]:
        return {(u, v): w for u, v, w in self.edges}

    @cached_property
    def exact(self) -> bool:
        """True when every weight is a rational number."""
        return all(isinstance(w, Fraction) for _, _, w in self.edges)

    def weight(self, u: int, v: int) -> Weight:
        if u > v:
            u, v = v, u
        return self.edge_map.get((u, v), Fraction(0))

    @cached_property
    def _incidence(self) -> tuple[dict[int, Weight], ...]:
        inc: list[dict[int, Weight]] = [dict() for _ in range(self.n)]
        for u, v, w in self.edges:
            inc[u][v] = w
            if u != v:
                inc[v][u] = w
        return tuple(inc)

    def incident(self, u: int) -> dict[int, Weight]:
        """Neighbors of ``u`` mapped to edge weights; a loop appears under key ``u``."""
        return dict(self._incidence[u])

    @cached_property
    def scaled_adjacency(self) -> tuple[np.ndarray, int]:
        """``(M, s)`` with ``M = s * A``, built once per graph; ``M`` is read-only.

        On an exact graph ``s`` is the least common denominator of the
        weights and ``M`` holds the integer numerators: int64 while ``s`` and
        every degree numerator stay below 2**53, so that ``M / s`` rounds
        each entry exactly as ``float(Fraction)`` does, and Python ints
        beyond that.  On a float graph ``M`` is the float matrix and ``s = 1``.
        """
        if self.exact:
            s = math.lcm(*(w.denominator for _, _, w in self.edges))
            nums = [w.numerator * (s // w.denominator) for _, _, w in self.edges]
            # a degree numerator is at most (n + 1) times the largest entry
            fits = s < _EXACT_FLOAT and 2 * self.n * max(nums, default=0) < _EXACT_FLOAT
            dtype = np.int64 if fits else object
        else:
            s, nums, dtype = 1, [float(w) for _, _, w in self.edges], np.float64
        m = np.zeros((self.n, self.n), dtype=dtype)
        if self.edges:
            u, v, _ = zip(*self.edges)
            m[u, v] = m[v, u] = np.array(nums, dtype=dtype)
        m.flags.writeable = False
        return m, s

    def degree(self, u: int) -> Weight:
        """Weighted degree: a loop counts twice, every other edge once."""
        return self.degrees[u]

    @cached_property
    def degrees(self) -> tuple[Weight, ...]:
        if not self.exact:
            # left to right from Fraction(0), as Python adds mixed Fraction/float weights
            return tuple(
                sum((2 * w if v == u else w for v, w in inc.items()), Fraction(0))
                for u, inc in enumerate(self._incidence)
            )
        m, s = self.scaled_adjacency
        return tuple(Fraction(int(d), s) for d in m.sum(axis=1) + m.diagonal())

    # -- matrices ------------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        m, s = self.scaled_adjacency
        return np.asarray(m / s, dtype=np.float64)

    def degree_matrix(self) -> np.ndarray:
        return np.diag([float(d) for d in self.degrees])

    def matrix(self, kind: MatrixKind = ADJACENCY) -> np.ndarray:
        a = self.adjacency_matrix()
        if kind.label == "adjacency":
            return a
        d = self.degree_matrix()
        if kind.label == "laplacian":
            return d - a
        return float(kind.q) * d + a

    # -- structural queries ---------------------------------------------

    def is_weighted_regular(self) -> Weight | None:
        """Common adjacency row sum if one exists, else None.

        The row sum of vertex ``u`` is ``degree(u) - loop(u)``; for loopless
        graphs this is the weighted degree.  Exact graphs are compared
        exactly, float graphs within a relative 1e-9 tolerance.
        """
        if self.exact:
            m, s = self.scaled_adjacency
            sums = m.sum(axis=1)
            return Fraction(int(sums[0]), s) if (sums == sums[0]).all() else None
        sums = [sum(inc.values(), Fraction(0)) for inc in self._incidence]
        first = sums[0]
        scale = max(1.0, max(abs(float(s)) for s in sums))
        if all(abs(float(s) - float(first)) <= 1e-9 * scale for s in sums):
            return first
        return None

    def twin_eigenvalue(self, kind: MatrixKind, u: int, v: int) -> Weight:
        """Eigenvalue carried by ``e_u - e_v`` when ``u`` and ``v`` are twins.

        With loop weight ``w`` and pair weight ``e`` (zero if non-adjacent):
        adjacency gives ``w - e``, the Laplacian ``deg - w + e`` and
        ``q*D + A`` gives ``q*deg + w - e``.
        """
        w = self.weight(u, u)
        e = self.weight(u, v)
        if kind.label == "adjacency":
            return w - e
        if kind.label == "laplacian":
            return self.degree(u) - w + e
        return kind.q * self.degree(u) + w - e


# -- elementary families ------------------------------------------------


def _simple(n: int, pairs: Iterable[tuple[int, int]]) -> WeightedGraph:
    one = Fraction(1)  # immutable, so every edge shares it
    return WeightedGraph.from_edges(n, ((u, v, one) for u, v in pairs))


def empty(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("empty(n) needs n >= 1")
    _check_order(n)
    return WeightedGraph.from_edges(n, [])


def complete(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    _check_order(n)
    return _simple(n, ((u, v) for u in range(n) for v in range(u + 1, n)))


def path(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    _check_order(n)
    return _simple(n, ((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3 to stay a simple graph")
    _check_order(n)
    return _simple(n, [(i, (i + 1) % n) for i in range(n)])


def star(n: int) -> WeightedGraph:
    """Star with ``n`` leaves: vertex 0 is the center, n+1 vertices total."""
    if n < 1:
        raise ValueError("star(n) needs n >= 1")
    _check_order(n + 1)
    return _simple(n + 1, ((0, i) for i in range(1, n + 1)))


# -- graph operations ----------------------------------------------------


def disjoint_union(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    _check_order(x.n + y.n)
    edges = list(x.edges) + [(u + x.n, v + x.n, w) for u, v, w in y.edges]
    return WeightedGraph.from_edges(x.n + y.n, edges)


def join(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Join: disjoint union plus all unit-weight edges between the parts.

    Vertices of ``x`` come first.
    """
    _check_order(x.n + y.n)
    edges = list(x.edges) + [(u + x.n, v + x.n, w) for u, v, w in y.edges]
    one = Fraction(1)
    edges += [(u, v + x.n, one) for u in range(x.n) for v in range(y.n)]
    return WeightedGraph.from_edges(x.n + y.n, edges)


def complete_multipartite(parts: Sequence[int]) -> WeightedGraph:
    """Complete multipartite graph; parts appear consecutively in the given order."""
    if not parts:
        raise ValueError("need at least one part")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    _check_order(sum(parts))
    offsets = np.cumsum([0] + list(parts))
    n = int(offsets[-1])
    pairs = []
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            for u in range(offsets[i], offsets[i + 1]):
                for v in range(offsets[j], offsets[j + 1]):
                    pairs.append((int(u), int(v)))
    return _simple(n, pairs)


def cocktail_party(k: int) -> WeightedGraph:
    """Cocktail party graph on 2k vertices: k parts of size two.

    ``cocktail_party(1)`` degenerates to two isolated vertices.
    """
    if k < 1:
        raise ValueError("cocktail_party(k) needs k >= 1")
    _check_order(2 * k)
    return complete_multipartite([2] * k)


def threshold(parts: Sequence[int], starts_empty: bool = True) -> WeightedGraph:
    """Iterated union/join threshold graph with the given cell sizes.

    Cell 1 is empty (``O``) when ``starts_empty`` else complete (``K``); cells
    alternate from there.  Every ``K`` cell is joined to what was built so
    far, every ``O`` cell is added disjointly.  The result is connected only
    when the last cell is a ``K`` cell.
    """
    if not parts:
        raise ValueError("need at least one cell")
    if any(m < 1 for m in parts):
        raise ValueError("cell sizes must be positive")
    _check_order(sum(parts))
    g: WeightedGraph | None = None
    for j, m in enumerate(parts, start=1):
        is_clique = (j % 2 == 0) if starts_empty else (j % 2 == 1)
        cell = complete(m) if is_clique else empty(m)
        if g is None:
            g = cell
        elif is_clique:
            g = join(g, cell)
        else:
            g = disjoint_union(g, cell)
    assert g is not None
    return g


def threshold_cells(parts: Sequence[int]) -> list[range]:
    """Vertex ranges of each cell in the graph built by :func:`threshold`."""
    out, start = [], 0
    for m in parts:
        out.append(range(start, start + m))
        start += m
    return out


def _ordered_entries(g: WeightedGraph) -> list[tuple[int, int, Weight]]:
    entries = []
    for u, v, w in g.edges:
        entries.append((u, v, w))
        if u != v:
            entries.append((v, u, w))
    return entries


def direct_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Direct (tensor/categorical) product; adjacency is the Kronecker product.

    Vertex ``(u, v)`` maps to index ``u * y.n + v``.  When either factor fails
    to be weighted-regular the result is tagged ``laplacian_safe=False``:
    Laplacian walks on such products are not supported by the analyzers.
    """
    _check_order(x.n * y.n)
    safe = x.is_weighted_regular() is not None and y.is_weighted_regular() is not None
    acc: dict[tuple[int, int], Weight] = {}
    for a, b, w1 in _ordered_entries(x):
        for c, d, w2 in _ordered_entries(y):
            i, j = a * y.n + c, b * y.n + d
            if i <= j:
                acc[(i, j)] = w1 * w2
    return WeightedGraph.from_edges(x.n * y.n, acc, laplacian_safe=safe)


def cartesian_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Cartesian product; adjacency is ``A(x) (x) I + I (x) A(y)``."""
    _check_order(x.n * y.n)
    acc: dict[tuple[int, int], Weight] = {}
    for u, v, w in x.edges:
        for t in range(y.n):
            i, j = u * y.n + t, v * y.n + t
            acc[(min(i, j), max(i, j))] = acc.get((min(i, j), max(i, j)), Fraction(0)) + w
    for u in range(x.n):
        for a, b, w in y.edges:
            i, j = u * y.n + a, u * y.n + b
            acc[(min(i, j), max(i, j))] = acc.get((min(i, j), max(i, j)), Fraction(0)) + w
    return WeightedGraph.from_edges(x.n * y.n, acc)


def blow_up(m: int, x: WeightedGraph) -> WeightedGraph:
    """``m`` copies of ``x`` with adjacency ``J_m (x) A(x)``.

    Copy ``j`` of vertex ``u`` is index ``j * x.n + u`` (copy-major).  Each
    off-diagonal block equals ``A(x)``, so copies of adjacent vertices are
    adjacent across and within copies, and copies of the same vertex are
    non-adjacent unless ``x`` has a loop there.
    """
    if m < 1:
        raise ValueError("blow_up needs m >= 1")
    _check_order(m * x.n)
    acc: dict[tuple[int, int], Weight] = {}
    for a, b, w in _ordered_entries(x):
        for j in range(m):
            for jj in range(m):
                i, k = j * x.n + a, jj * x.n + b
                if i <= k:
                    acc[(i, k)] = w
    return WeightedGraph.from_edges(m * x.n, acc)


# -- edge-list text format ------------------------------------------------


def _format_weight(w: Weight) -> str:
    if isinstance(w, Fraction):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    return repr(float(w))


def _parse_weight(token: str) -> Weight:
    try:
        if "/" in token:
            return Fraction(token)
        if "." in token or "e" in token.lower():
            return float(token)
        return Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad weight token {token!r}") from exc


def to_edge_list_text(g: WeightedGraph) -> str:
    lines = [f"n {g.n}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {_format_weight(w)}")
    return "\n".join(lines) + "\n"


def from_edge_list_text(text: str) -> WeightedGraph:
    """Parse the ``n <count>`` / ``u v w`` edge-list format. Loops are ``u u w``."""
    lines = [ln.split("#", 1)[0].strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise ValueError("empty edge list")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "n":
        raise ValueError("first line must be 'n <vertex count>'")
    try:
        n = int(head[1])
    except ValueError as exc:
        raise ValueError(f"bad vertex count {head[1]!r}") from exc
    _check_order(n)
    edges = []
    for ln in lines[1:]:
        toks = ln.split()
        if len(toks) not in (2, 3):
            raise ValueError(f"bad edge line {ln!r}")
        u, v = int(toks[0]), int(toks[1])
        w = _parse_weight(toks[2]) if len(toks) == 3 else Fraction(1)
        edges.append((u, v, w))
    return WeightedGraph.from_edges(n, edges)
