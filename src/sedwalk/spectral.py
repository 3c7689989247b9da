"""Spectral decomposition of graph matrices: grouped eigenvalues with their
eigenvector blocks, per-vertex eigenvalue supports and strong cospectrality.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .graphs import ADJACENCY, MatrixKind, WeightedGraph

__all__ = [
    "GROUPING_TOL",
    "SUPPORT_TOL",
    "EigenvalueSupport",
    "StrongCospectrality",
    "SpectralDecomposition",
    "decompose",
]

# Neighbouring eigenvalues closer than GROUPING_TOL * max(1, spectral radius)
# share a class; a class is in a vertex's support when ||E_j e_u|| exceeds
# SUPPORT_TOL; E_j e_u = +/- E_j e_v when ||E_j (e_u -/+ e_v)|| is at most
# SIGN_MATCH_TOL; a value names the class within INDEX_TOL * max(1, spectral
# radius) of it.
GROUPING_TOL = 1e-7
SUPPORT_TOL = 1e-8
SIGN_MATCH_TOL = 1e-7
INDEX_TOL = 1e-6
# Entries of V a run of :meth:`SpectralDecomposition.support_blocks` reads.
_BLOCK_ENTRIES = 1 << 16


@dataclass(frozen=True)
class EigenvalueSupport:
    """Support of a vertex: eigenvalue indices j with E_j e_u != 0."""

    vertex: int
    indices: tuple[int, ...]
    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.indices)


@dataclass(frozen=True)
class StrongCospectrality:
    """Sign partition of a strongly cospectral pair's common support."""

    u: int
    v: int
    plus: tuple[int, ...]
    minus: tuple[int, ...]


@dataclass(frozen=True)
class SpectralDecomposition:
    """Distinct eigenvalues (descending) with their orthonormal eigenvector blocks.

    Class j is the block V_j of columns ``starts[j]`` to ``starts[j] +
    multiplicities[j]`` of ``vectors``; its projector E_j = V_j V_j^T is
    read through rows of V_j and never stored, so memory stays O(n^2).
    """

    matrix_kind: MatrixKind
    eigenvalues: np.ndarray
    vectors: np.ndarray
    multiplicities: tuple[int, ...]
    starts: np.ndarray

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def entries(self, u: int, v: int) -> np.ndarray:
        """(E_j)_{u,v} for every eigenvalue class j."""
        return np.add.reduceat(self.vectors[u] * self.vectors[v], self.starts)

    def diagonal_weights(self, u: int) -> np.ndarray:
        """(E_j)_{u,u} = ||E_j e_u||^2 for every eigenvalue class j."""
        return self.entries(u, u)

    def support(self, u: int) -> EigenvalueSupport:
        """The classes j with (E_j)_{u,u} above ``SUPPORT_TOL`` squared: the
        one-row case of :meth:`support_blocks`."""
        self._check_vertex(u)
        _, weights, mask = self._support_block(u)
        idx = np.flatnonzero(mask)
        return EigenvalueSupport(
            vertex=u,
            indices=tuple(idx.tolist()),
            values=tuple(self.eigenvalues[idx].tolist()),
            weights=tuple(weights[idx].tolist()),
        )

    def support_blocks(
        self, vertices: Sequence[int]
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The supports of ``vertices``, a run of them at a time.

        Checks every vertex, then yields ``(rows, weights, mask)`` for
        consecutive runs ``rows`` of ``vertices``: row i of ``weights`` is
        :meth:`diagonal_weights` of ``rows[i]`` and row i of ``mask`` its
        support, sqrt(weights) > SUPPORT_TOL.  A run takes about
        ``_BLOCK_ENTRIES`` entries of V, so no n x n temporary is formed."""
        rows = np.asarray(vertices, dtype=np.intp)
        if len(rows):
            self._check_vertex(int(rows.min()))
            self._check_vertex(int(rows.max()))
        step = max(1, _BLOCK_ENTRIES // self.n)
        return (
            self._support_block(rows[lo : lo + step])
            for lo in range(0, len(rows), step)
        )

    def _support_block(
        self, rows: np.ndarray | int
    ) -> tuple[np.ndarray | int, np.ndarray, np.ndarray]:
        """(rows, weights, mask) of :meth:`support_blocks` for one run: the
        weights from one reduction over the rows of V, the mask from one
        comparison.  A single vertex ``rows`` gives 1-D weights and mask."""
        block = self.vectors[rows]
        weights = np.add.reduceat(block * block, self.starts, axis=-1)
        return rows, weights, np.sqrt(weights) > SUPPORT_TOL

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range")

    def strongly_cospectral(self, u: int, v: int) -> StrongCospectrality | None:
        """Sign partition when E_j e_u = +/- E_j e_v holds for every class."""
        if u == v:
            raise ValueError("strong cospectrality needs two distinct vertices")
        x, y = self.vectors[u], self.vectors[v]
        rows = np.stack([x, y, x - y, x + y])
        norm_u, norm_v, norm_minus, norm_plus = np.sqrt(np.add.reduceat(rows**2, self.starts, 1))
        # a class counts unless it is at or below SUPPORT_TOL at both vertices
        counts = ~((norm_u <= SUPPORT_TOL) & (norm_v <= SUPPORT_TOL))
        plus = counts & (norm_minus <= SIGN_MATCH_TOL)
        minus = counts & ~plus & (norm_plus <= SIGN_MATCH_TOL)
        if not np.array_equal(counts, plus | minus):
            return None
        return StrongCospectrality(u, v, *(tuple(np.flatnonzero(s).tolist()) for s in (plus, minus)))

    def min_gap(self) -> float:
        if self.k < 2:
            return math.inf
        return float(np.min(np.abs(np.diff(self.eigenvalues))))

    def eigenvalue_index(self, value: float) -> int:
        """Index of the eigenvalue class within ``INDEX_TOL`` * max(1, spectral
        radius) of ``value``."""
        tol = INDEX_TOL * max(1.0, float(np.max(np.abs(self.eigenvalues))))
        j = int(np.argmin(np.abs(self.eigenvalues - value)))
        err = abs(float(self.eigenvalues[j]) - value)
        if err > tol:
            raise ValueError(
                f"eigenvalue {value!r} not in spectrum; nearest is "
                f"{float(self.eigenvalues[j])!r} (off by {err:.3e})"
            )
        return j


def decompose(g: WeightedGraph, kind: MatrixKind = ADJACENCY) -> SpectralDecomposition:
    """Eigendecompose M(g) and group near-equal eigenvalues into classes.

    Grouping is single-linkage on the sorted eigenvalues with an absolute
    tolerance of GROUPING_TOL * max(1, spectral radius).  Distinct integer
    eigenvalues are at least 1 apart, so grouping cannot over-merge an
    integer spectrum while that tolerance stays below 1, a spectral radius
    below 1e7.  Past it, it can: ``K(3)`` under ``Mq:1e9`` and ``CP(6)``
    under ``Mq:1e8`` collapse to one class and are certified sedentary with
    constant 1, where the constant is 1/3 (the strict xfails
    ``test_generalized_k3_at_large_q_is_not_certified_constant_1`` and
    ``test_cocktail_party_at_large_q_is_not_certified_constant_1`` in
    ``tests/test_cli.py``).
    """
    mat = g.matrix(kind)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"eigendecomposition failed for n={g.n} {kind.short_name} matrix: {exc}"
        ) from exc
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    tol = GROUPING_TOL * scale
    # A class ends where the gap to the next value is not <= tol (a NaN gap,
    # or one past the float range, ends it too); classes of one value keep
    # it, larger ones take the mean.
    with np.errstate(over="ignore"):
        gaps = np.diff(vals)
    ends = np.append(np.flatnonzero(~(gaps <= tol)) + 1, len(vals))
    lows = np.append(0, ends[:-1])
    counts = ends - lows
    means = vals[lows]
    for j in np.flatnonzero(counts > 1):
        means[j] = np.mean(vals[lows[j] : ends[j]])
    class_of = np.repeat(np.arange(len(counts)), counts)
    multiplicities = tuple(counts[::-1].tolist())  # descending eigenvalues
    return SpectralDecomposition(
        matrix_kind=kind,
        eigenvalues=means[::-1].copy(),
        vectors=vecs[:, np.argsort(-class_of, kind="stable")],
        multiplicities=multiplicities,
        starts=np.cumsum((0,) + multiplicities[:-1]),
    )
