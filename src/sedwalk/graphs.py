"""Weighted undirected graphs (loops allowed) and the constructions the analyzers work on.

A graph *is* its n-by-n weight matrix ``M = s * A``, held read-only:

* on an exact graph (every weight rational) ``s`` is the least common
  denominator of the weights and ``M`` holds the integer numerators, as
  int64 (8n^2 bytes) while ``s`` and ``2n * max(M)`` stay below 2**53 and as
  Python ints beyond that;
* on a float graph ``M`` is the float64 matrix and ``s = 1``;
* a graph that mixes ``Fraction`` and float weights keeps them as given in
  an object matrix with ``s = 1``, so that its sums add them as Python does.

Edges, incidences, weights and degrees are read from ``M`` on demand, and
graphs with equal weights are equal and hash alike, whichever constructor
built them.  The constructors are the matrix identities, with ``J`` the
all-ones matrix:

* ``complete``, ``empty``, ``path``, ``cycle``, ``star``,
  ``complete_multipartite`` (parts laid out in the given order) and
  ``threshold`` (each new cell after the vertices already present) fill 0/1
  blocks,
* ``join(x, y)`` is ``[[A(x), J], [J, A(y)]]`` and ``disjoint_union(x, y)``
  the block diagonal; both keep the vertices of ``x`` first,
* ``direct_product`` is ``A(x) (x) A(y)`` and ``cartesian_product``
  ``A(x) (x) I + I (x) A(y)``, row-major: ``(u, v) -> u * y.n + v``,
* ``blow_up(m, x)`` is ``J_m (x) A(x)``, copy-major: copy ``j`` of vertex
  ``u`` is ``j * x.n + u``.

Every constructor refuses more than ``MAX_VERTICES`` vertices before it
allocates its matrix.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import Callable, Iterable, Mapping, Sequence

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
    "direct_product",
    "cartesian_product",
    "blow_up",
    "from_edge_list_text",
    "to_edge_list_text",
]


# Largest vertex count any constructor accepts.  A graph holds its n-by-n
# weight matrix (128 MB of int64 at the cap) and a decomposition holds n-by-n
# eigenvectors, so larger inputs are refused before any matrix is built.
MAX_VERTICES = 4096

# Integers below this convert to float64 exactly.
_EXACT_FLOAT = 2**53


def _check_order(n: int) -> None:
    if n > MAX_VERTICES:
        raise ValueError(f"graph on {n} vertices exceeds the cap of {MAX_VERTICES} vertices")


def _finite(w: Weight) -> bool:
    """Whether ``float(w)`` is a finite float (a huge Fraction overflows)."""
    try:
        return math.isfinite(float(w))
    except OverflowError:
        return False


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
        q = _coerce_weight(q)
        if not _finite(q):
            raise ValueError("generalized matrix kind needs q within the float range")
        return cls("generalized", q)

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


@dataclass(frozen=True, eq=False)
class WeightedGraph:
    """Immutable weighted graph on vertices ``0..n-1``, held as ``M = s * A``.

    ``weights`` is the read-only matrix ``M`` and ``scale`` is ``s`` (see the
    module docstring); build graphs with :meth:`from_edges` or the
    constructors, which keep that form canonical.  A diagonal entry is a
    loop.  Two graphs are equal when they have the same ``n`` and the same
    weights, whichever constructor built them; ``memo`` holds structures
    other modules derive from the graph once (the twin partition) and takes
    no part in equality.
    """

    n: int
    weights: np.ndarray = field(repr=False)
    scale: int = 1
    memo: dict = field(default_factory=dict, init=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError("graph needs at least one vertex")
        _check_order(self.n)
        if self.weights.shape != (self.n, self.n):
            raise ValueError(f"weight matrix of shape {self.weights.shape} for n={self.n}")
        self.weights.flags.writeable = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, WeightedGraph):
            return NotImplemented
        if self.n != other.n:
            return False
        if self.scale == other.scale and self.weights.dtype == other.weights.dtype:
            return bool(np.array_equal(self.weights, other.weights))
        return self.edges == other.edges

    def __hash__(self) -> int:
        # equal graphs share their edge positions whatever their dtype
        return hash((self.n, np.flatnonzero(self.weights).tobytes()))

    # -- construction -------------------------------------------------

    @classmethod
    def from_edges(
        cls,
        n: int,
        edges: Iterable[tuple[int, int, object]] | Mapping[tuple[int, int], object] = (),
    ) -> "WeightedGraph":
        """Graph from ``(u, v, w)`` triples (``w`` defaults to 1) or a
        ``{(u, v): w}`` map.  An edge may repeat with an equal weight."""
        if n < 1:
            raise ValueError("graph needs at least one vertex")
        _check_order(n)
        if isinstance(edges, Mapping):
            edges = ((u, v, w) for (u, v), w in edges.items())
        rows: list[int] = []
        cols: list[int] = []
        ws: list[Weight] = []
        for e in edges:
            u, v, w = e if len(e) == 3 else (e[0], e[1], 1)
            u, v = (int(u), int(v)) if u <= v else (int(v), int(u))
            w = _coerce_weight(w)
            if not (0 <= u <= v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            if not w > 0:
                raise ValueError(f"edge ({u},{v}) has non-positive weight {w}")
            rows.append(u)
            cols.append(v)
            ws.append(w)
        keys = np.array(rows, dtype=np.int64) * n + np.array(cols, dtype=np.int64)
        order = np.argsort(keys, kind="stable")
        repeats = np.flatnonzero(keys[order][1:] == keys[order][:-1]).tolist()
        if repeats:
            for i in repeats:
                a, b = order[i], order[i + 1]
                if ws[a] != ws[b]:
                    raise ValueError(f"conflicting weights for edge ({rows[a]},{cols[a]})")
            # the last copy of an edge wins, as in a dict
            keep = np.delete(order, repeats).tolist()
            rows, cols = [rows[i] for i in keep], [cols[i] for i in keep]
            ws = [ws[i] for i in keep]
        return _from_entries(n, rows, cols, ws)

    # -- views derived from M -------------------------------------------

    @cached_property
    def exact(self) -> bool:
        """True when every weight is a rational number."""
        m = self.weights
        if m.dtype != object:
            return m.dtype == np.int64
        # exact object matrices hold ints; mixed ones Fractions and floats
        return all(isinstance(w, int) for w in m.flat)

    def _weight(self, x) -> Weight:
        """The weight an entry ``x`` of ``M`` (a Python number) stands for."""
        if not x:
            return Fraction(0)
        return Fraction(x, self.scale) if self.exact else x

    def weight(self, u: int, v: int) -> Weight:
        return self._weight(self.weights.item(u, v))

    @property
    def edges(self) -> tuple[tuple[int, int, Weight], ...]:
        """Canonical ``(u, v, w)`` triples with ``u <= v``, sorted
        lexicographically; a triple with ``u == v`` is a loop."""
        m = self.weights
        u, v = np.nonzero(np.triu(m))
        return tuple(zip(u.tolist(), v.tolist(), map(self._weight, m[u, v].tolist())))

    @property
    def edge_count(self) -> int:
        m = self.weights
        return (int(np.count_nonzero(m)) + int(np.count_nonzero(m.diagonal()))) // 2

    def incident(self, u: int) -> dict[int, Weight]:
        """Neighbors of ``u`` mapped to edge weights; a loop appears under key ``u``."""
        row = self.weights[u]
        cols = np.flatnonzero(row)
        return dict(zip(cols.tolist(), map(self._weight, row[cols].tolist())))

    def _python_row_sums(self, loop_factor: int) -> list[Weight]:
        """Row sums of a float or mixed graph, each loop times ``loop_factor``:
        left to right from Fraction(0) in column order, as Python adds
        mixed Fraction/float weights."""
        sums = []
        for u in range(self.n):
            total: Weight = Fraction(0)
            for v, w in self.incident(u).items():
                total = total + (loop_factor * w if v == u else w)
            sums.append(total)
        return sums

    def degree(self, u: int) -> Weight:
        """Weighted degree: a loop counts twice, every other edge once."""
        return self.degrees[u]

    @cached_property
    def degrees(self) -> tuple[Weight, ...]:
        if not self.exact:
            return tuple(self._python_row_sums(2))
        m, s = self.weights, self.scale
        return tuple(Fraction(int(d), s) for d in m.sum(axis=1) + m.diagonal())

    # -- matrices ------------------------------------------------------

    def adjacency_matrix(self) -> np.ndarray:
        # on an int64 M every entry and degree numerator is below 2**53, so
        # M / s rounds each entry exactly as float(Fraction) does
        return np.asarray(self.weights / self.scale, dtype=np.float64)

    def degree_matrix(self) -> np.ndarray:
        m, s = self.weights, self.scale
        if m.dtype == np.int64:
            # numerators below 2**53: one rounding each, as float(Fraction(d, s)),
            # with no Fraction per vertex
            return np.diag((m.sum(axis=1) + m.diagonal()) / s)
        return np.diag([float(d) for d in self.degrees])

    def matrix(self, kind: MatrixKind = ADJACENCY) -> np.ndarray:
        """The walk matrix of ``kind``.  Raises OverflowError when a diagonal
        entry leaves the float range; the others are weights, finite already."""
        a = self.adjacency_matrix()
        if kind.label == "adjacency":
            return a
        d = self.degree_matrix()
        with np.errstate(over="ignore", invalid="ignore"):
            m = d - a if kind.label == "laplacian" else float(kind.q) * d + a
        if not np.isfinite(m.diagonal()).all():
            raise OverflowError(f"a diagonal entry of the {kind.short_name} matrix is not finite")
        return m

    # -- structural queries ---------------------------------------------

    def is_weighted_regular(self) -> Weight | None:
        """Common adjacency row sum if one exists, else None.

        The row sum of vertex ``u`` is ``degree(u) - loop(u)``; for loopless
        graphs this is the weighted degree.  Exact graphs are compared
        exactly, float graphs within a relative 1e-9 tolerance.
        """
        if self.exact:
            m, s = self.weights, self.scale
            sums = m.sum(axis=1)
            return Fraction(int(sums[0]), s) if (sums == sums[0]).all() else None
        sums = self._python_row_sums(1)
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


# -- canonical forms ------------------------------------------------------


def _from_entries(n: int, rows, cols, ws: list[Weight]) -> WeightedGraph:
    """The graph with weight ``ws[i]`` at ``(rows[i], cols[i])`` and its mirror."""
    if all(isinstance(w, Fraction) for w in ws):
        s = math.lcm(*(w.denominator for w in ws))
        vals: list = [w.numerator * (s // w.denominator) for w in ws]
        # a degree numerator is at most (n + 1) times the largest entry
        fits = s < _EXACT_FLOAT and 2 * n * max(vals, default=0) < _EXACT_FLOAT
        dtype = np.int64 if fits else object
    elif all(isinstance(w, float) for w in ws):
        s, vals, dtype = 1, ws, np.float64
    else:
        s, vals, dtype = 1, ws, object
    m = np.zeros((n, n), dtype=dtype)
    if ws:
        m[rows, cols] = m[cols, rows] = np.array(vals, dtype=dtype)
    return WeightedGraph(n, m, s)


def _from_values(m: np.ndarray) -> WeightedGraph:
    """The graph of an object matrix of weights (Fractions and floats)."""
    nz = np.flatnonzero(m)
    rows, cols = np.divmod(nz, len(m))
    return _from_entries(len(m), rows, cols, m.flat[nz].tolist())


def _exact(m: np.ndarray, s: int) -> WeightedGraph:
    """The exact graph ``A = m / s``: reduced to the least common
    denominator, int64 while the 2**53 bounds hold and Python ints beyond."""
    n = len(m)
    if s != 1:
        g = math.gcd(s, int(np.gcd.reduce(m, axis=None)))
        if g > 1:
            m, s = m // g, s // g
    fits = s < _EXACT_FLOAT and 2 * n * int(m.max()) < _EXACT_FLOAT
    return WeightedGraph(n, m.astype(np.int64 if fits else object, copy=False), s)


def _values(g: WeightedGraph) -> np.ndarray:
    """Object matrix of ``g``'s weights as given, with int 0 off the edges."""
    m = g.weights
    if m.dtype == object and not g.exact:
        return m
    vals = np.zeros(m.shape, dtype=object)
    nz = np.flatnonzero(m)
    vals.flat[nz] = [g._weight(x) for x in m.flat[nz].tolist()]
    return vals


def _combine(
    x: WeightedGraph,
    y: WeightedGraph,
    build: Callable[[np.ndarray, np.ndarray, object], np.ndarray],
    product: bool = False,
) -> WeightedGraph:
    """The graph of ``build(mx, my, one)`` for matrices of ``x`` and ``y`` in
    one number system, where ``one`` stands for a unit weight.

    When both are exact these are integer numerators, over the product of
    the scales if ``build`` multiplies weights (``product``) and over their
    least common multiple otherwise; int64 when the result cannot overflow.
    Otherwise they are object matrices of the weights as given, so every
    entry is the Python sum or product it was edge by edge.
    """
    if not (x.exact and y.exact):
        return _from_values(build(_values(x), _values(y), Fraction(1)))
    mx, sx, my, sy = x.weights, x.scale, y.weights, y.scale
    if product:
        s, fx, fy = sx * sy, 1, 1
        top = int(mx.max()) * int(my.max())
    else:
        s = math.lcm(sx, sy)
        fx, fy = s // sx, s // sy
        # a cartesian entry adds two scaled entries; a join entry is s
        top = 2 * max(int(mx.max()) * fx, int(my.max()) * fy, s)
    dtype = np.int64 if mx.dtype == my.dtype == np.int64 and top < 2**63 else object
    mx, my = mx.astype(dtype, copy=False), my.astype(dtype, copy=False)
    if fx != 1 or fy != 1:
        mx, my = mx * fx, my * fy
    return _exact(build(mx, my, s), s)


def _block_diagonal(mx: np.ndarray, my: np.ndarray, one: object = None) -> np.ndarray:
    nx = len(mx)
    m = np.zeros((nx + len(my),) * 2, dtype=mx.dtype)
    m[:nx, :nx] = mx
    m[nx:, nx:] = my
    return m


# -- elementary families ------------------------------------------------


def empty(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("empty(n) needs n >= 1")
    _check_order(n)
    return WeightedGraph(n, np.zeros((n, n), dtype=np.int64))


def complete(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("complete(n) needs n >= 1")
    _check_order(n)
    m = np.ones((n, n), dtype=np.int64)
    np.fill_diagonal(m, 0)
    return WeightedGraph(len(m), m)


def path(n: int) -> WeightedGraph:
    if n < 1:
        raise ValueError("path(n) needs n >= 1")
    _check_order(n)
    m = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n - 1)
    m[i, i + 1] = m[i + 1, i] = 1
    return WeightedGraph(len(m), m)


def cycle(n: int) -> WeightedGraph:
    if n < 3:
        raise ValueError("cycle(n) needs n >= 3 to stay a simple graph")
    _check_order(n)
    m = np.zeros((n, n), dtype=np.int64)
    i = np.arange(n)
    m[i, (i + 1) % n] = m[(i + 1) % n, i] = 1
    return WeightedGraph(len(m), m)


def star(n: int) -> WeightedGraph:
    """Star with ``n`` leaves: vertex 0 is the center, n+1 vertices total."""
    if n < 1:
        raise ValueError("star(n) needs n >= 1")
    _check_order(n + 1)
    m = np.zeros((n + 1, n + 1), dtype=np.int64)
    m[0, 1:] = m[1:, 0] = 1
    return WeightedGraph(len(m), m)


# -- graph operations ----------------------------------------------------


def disjoint_union(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    _check_order(x.n + y.n)
    return _combine(x, y, _block_diagonal)


def join(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Join: disjoint union plus all unit-weight edges between the parts.

    Vertices of ``x`` come first.
    """
    _check_order(x.n + y.n)

    def build(mx: np.ndarray, my: np.ndarray, one: object) -> np.ndarray:
        m = _block_diagonal(mx, my)
        m[: x.n, x.n :] = m[x.n :, : x.n] = one
        return m

    return _combine(x, y, build)


def complete_multipartite(parts: Sequence[int]) -> WeightedGraph:
    """Complete multipartite graph; parts appear consecutively in the given order."""
    if not parts:
        raise ValueError("need at least one part")
    if any(p < 1 for p in parts):
        raise ValueError("part sizes must be positive")
    _check_order(sum(parts))
    part = np.repeat(np.arange(len(parts)), parts)
    return WeightedGraph(len(part), (part[:, None] != part[None, :]).astype(np.int64))


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
    far, every ``O`` cell is added disjointly, so two distinct vertices are
    adjacent exactly when the later of their cells is a ``K`` cell.  The
    result is connected only when the last cell is a ``K`` cell.
    """
    if not parts:
        raise ValueError("need at least one cell")
    if any(m < 1 for m in parts):
        raise ValueError("cell sizes must be positive")
    _check_order(sum(parts))
    cell = np.repeat(np.arange(len(parts)), parts)
    # cell j (from 0) is a K cell when j is odd, or even if it starts with K
    is_clique = (np.arange(len(parts)) % 2) == (1 if starts_empty else 0)
    m = is_clique[np.maximum(cell[:, None], cell[None, :])].astype(np.int64)
    np.fill_diagonal(m, 0)
    return WeightedGraph(len(m), m)


def direct_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Direct (tensor/categorical) product; adjacency is the Kronecker product.

    Vertex ``(u, v)`` maps to index ``u * y.n + v``."""
    _check_order(x.n * y.n)
    return _combine(x, y, lambda mx, my, one: np.kron(mx, my), product=True)


def cartesian_product(x: WeightedGraph, y: WeightedGraph) -> WeightedGraph:
    """Cartesian product; adjacency is ``A(x) (x) I + I (x) A(y)``."""
    _check_order(x.n * y.n)

    def build(mx: np.ndarray, my: np.ndarray, one: object) -> np.ndarray:
        # m[u, t, v, t'] is the weight between (u, t) and (v, t')
        m = np.zeros((x.n, y.n, x.n, y.n), dtype=mx.dtype)
        t, u = np.arange(y.n), np.arange(x.n)
        m[:, t, :, t] = mx
        m[u, :, u, :] += my
        return m.reshape(x.n * y.n, x.n * y.n)

    return _combine(x, y, build)


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
    tiled = np.tile(x.weights, (m, m))
    if x.exact:
        return _exact(tiled, x.scale)
    return WeightedGraph(m * x.n, tiled)


# -- edge-list text format ------------------------------------------------


def _format_weight(w: Weight) -> str:
    if isinstance(w, Fraction):
        return str(w.numerator) if w.denominator == 1 else f"{w.numerator}/{w.denominator}"
    return repr(float(w))


def _parse_weight(token: str) -> Weight:
    try:
        if "/" in token:
            w = Fraction(token)
        elif "." in token or "e" in token.lower():
            w = float(token)
        else:
            w = Fraction(int(token))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad weight token {token!r}") from exc
    if not _finite(w):
        raise ValueError(f"weight {token!r} is not a finite float")
    return w


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
