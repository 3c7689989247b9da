"""Spectral decomposition of graph matrices: grouped eigenvalues with their
eigenvector blocks, per-vertex eigenvalue supports, strong cospectrality, and
exact periodicity recognition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .graphs import ADJACENCY, MatrixKind, WeightedGraph
from .numtheory import QuadraticIntegerForm, fraction_gcd, recognize_spectrum

__all__ = [
    "DEFAULT_GROUPING_TOL",
    "DEFAULT_SUPPORT_TOL",
    "LaplacianProductUnsupported",
    "EigenvalueSupport",
    "StrongCospectrality",
    "Periodicity",
    "SpectralDecomposition",
    "decompose",
]

DEFAULT_GROUPING_TOL = 1e-7
DEFAULT_SUPPORT_TOL = 1e-8
SIGN_MATCH_TOL = 1e-7
# Entries of V a run of :meth:`SpectralDecomposition.support_blocks` reads.
_BLOCK_ENTRIES = 1 << 16


class LaplacianProductUnsupported(ValueError):
    """Raised for Laplacian walks on direct products with an irregular factor.

    There is no factorization of that walk through the factor walks, so the
    library refuses the combination instead of computing something the theory
    does not cover.
    """


@dataclass(frozen=True)
class EigenvalueSupport:
    """Support of a vertex: eigenvalue indices j with E_j e_u != 0."""

    vertex: int
    indices: tuple[int, ...]
    values: tuple[float, ...]
    weights: tuple[float, ...]

    def __len__(self) -> int:
        return len(self.indices)

    @property
    def weight_sum(self) -> float:
        return float(sum(self.weights))


@dataclass(frozen=True)
class StrongCospectrality:
    """Sign partition of a strongly cospectral pair's common support."""

    u: int
    v: int
    plus: tuple[int, ...]
    minus: tuple[int, ...]
    plus_values: tuple[float, ...]
    minus_values: tuple[float, ...]


@dataclass(frozen=True)
class Periodicity:
    """Outcome of exact periodicity recognition for one vertex.

    ``recognized`` False only means the support did not match an integer or
    shared quadratic form; it is not a proof of aperiodicity.  A singleton
    support gives a constant diagonal magnitude (flagged separately) since
    the lone projector carries the whole weight.
    """

    recognized: bool
    period: float | None = None
    form: QuadraticIntegerForm | None = None
    g: Fraction | None = None
    constant_diagonal: bool = False


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
    grouping_tol: float

    @property
    def n(self) -> int:
        return self.vectors.shape[0]

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def combine(self, coefficients: np.ndarray) -> np.ndarray:
        """sum_j coefficients[j] E_j as an n x n matrix."""
        scaled = self.vectors * np.repeat(coefficients, self.multiplicities)
        return scaled @ self.vectors.T

    def reconstruct(self) -> np.ndarray:
        return self.combine(self.eigenvalues)

    def projector(self, j: int) -> np.ndarray:
        """E_j = V_j V_j^T as an n x n matrix."""
        block = self.vectors[:, self.starts[j] : self.starts[j] + self.multiplicities[j]]
        return block @ block.T

    def entries(self, u: int, v: int) -> np.ndarray:
        """(E_j)_{u,v} for every eigenvalue class j."""
        return np.add.reduceat(self.vectors[u] * self.vectors[v], self.starts)

    def diagonal_weights(self, u: int) -> np.ndarray:
        """(E_j)_{u,u} = ||E_j e_u||^2 for every eigenvalue class j."""
        return self.entries(u, u)

    def support(self, u: int, support_tol: float = DEFAULT_SUPPORT_TOL) -> EigenvalueSupport:
        """The classes j with (E_j)_{u,u} above ``support_tol`` squared: the
        one-row case of :meth:`support_blocks`."""
        self._check_vertex(u)
        _, weights, mask = self._support_block(u, support_tol)
        idx = np.flatnonzero(mask)
        return EigenvalueSupport(
            vertex=u,
            indices=tuple(idx.tolist()),
            values=tuple(self.eigenvalues[idx].tolist()),
            weights=tuple(weights[idx].tolist()),
        )

    def support_blocks(
        self, vertices: Sequence[int], support_tol: float = DEFAULT_SUPPORT_TOL
    ) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
        """The supports of ``vertices``, a run of them at a time.

        Checks every vertex, then yields ``(rows, weights, mask)`` for
        consecutive runs ``rows`` of ``vertices``: row i of ``weights`` is
        :meth:`diagonal_weights` of ``rows[i]`` and row i of ``mask`` its
        support, sqrt(weights) > support_tol.  A run takes about
        ``_BLOCK_ENTRIES`` entries of V, so no n x n temporary is formed."""
        rows = np.asarray(vertices, dtype=np.intp)
        if len(rows):
            self._check_vertex(int(rows.min()))
            self._check_vertex(int(rows.max()))
        step = max(1, _BLOCK_ENTRIES // self.n)
        return (
            self._support_block(rows[lo : lo + step], support_tol)
            for lo in range(0, len(rows), step)
        )

    def _support_block(
        self, rows: np.ndarray | int, support_tol: float
    ) -> tuple[np.ndarray | int, np.ndarray, np.ndarray]:
        """(rows, weights, mask) of :meth:`support_blocks` for one run: the
        weights from one reduction over the rows of V, the mask from one
        comparison.  A single vertex ``rows`` gives 1-D weights and mask."""
        block = self.vectors[rows]
        weights = np.add.reduceat(block * block, self.starts, axis=-1)
        return rows, weights, np.sqrt(weights) > support_tol

    def _check_vertex(self, u: int) -> None:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range")

    def strongly_cospectral(
        self, u: int, v: int, support_tol: float = DEFAULT_SUPPORT_TOL
    ) -> StrongCospectrality | None:
        """Sign partition when E_j e_u = +/- E_j e_v holds for every class."""
        if u == v:
            raise ValueError("strong cospectrality needs two distinct vertices")
        x, y = self.vectors[u], self.vectors[v]
        rows = np.stack([x, y, x - y, x + y])
        norm_u, norm_v, norm_minus, norm_plus = np.sqrt(np.add.reduceat(rows**2, self.starts, 1))
        plus: list[int] = []
        minus: list[int] = []
        for j in range(self.k):
            if norm_u[j] <= support_tol and norm_v[j] <= support_tol:
                continue
            if norm_minus[j] <= SIGN_MATCH_TOL:
                plus.append(j)
            elif norm_plus[j] <= SIGN_MATCH_TOL:
                minus.append(j)
            else:
                return None
        return StrongCospectrality(
            u=u,
            v=v,
            plus=tuple(plus),
            minus=tuple(minus),
            plus_values=tuple(float(self.eigenvalues[j]) for j in plus),
            minus_values=tuple(float(self.eigenvalues[j]) for j in minus),
        )

    def periodicity(self, u: int, tol: float = 1e-7) -> Periodicity:
        sup = self.support(u)
        if len(sup) == 1:
            lam = sup.values[0]
            period = 2 * math.pi / abs(lam) if abs(lam) > 1e-12 else None
            return Periodicity(recognized=True, period=period, constant_diagonal=True)
        form = recognize_spectrum(sup.values, tol)
        if form is None:
            return Periodicity(recognized=False)
        g = fraction_gcd(form.scaled_difference(0, j) for j in range(1, len(form)))
        if g == 0:
            return Periodicity(recognized=True, period=None, form=form, constant_diagonal=True)
        period = 2 * math.pi / (float(g) * math.sqrt(form.delta))
        return Periodicity(recognized=True, period=period, form=form, g=g)

    def min_gap(self) -> float:
        if self.k < 2:
            return math.inf
        return float(np.min(np.abs(np.diff(self.eigenvalues))))

    def eigenvalue_index(self, value: float, tol: float | None = None) -> int:
        """Index of the eigenvalue class matching ``value`` exactly (within tolerance)."""
        if tol is None:
            scale = max(1.0, float(np.max(np.abs(self.eigenvalues))))
            tol = 1e-6 * scale
        j = int(np.argmin(np.abs(self.eigenvalues - value)))
        err = abs(float(self.eigenvalues[j]) - value)
        if err > tol:
            raise ValueError(
                f"eigenvalue {value!r} not in spectrum; nearest is "
                f"{float(self.eigenvalues[j])!r} (off by {err:.3e})"
            )
        return j


def decompose(
    g: WeightedGraph,
    kind: MatrixKind = ADJACENCY,
    grouping_tol: float = DEFAULT_GROUPING_TOL,
) -> SpectralDecomposition:
    """Eigendecompose M(g) and group near-equal eigenvalues into classes.

    Grouping is single-linkage on the sorted eigenvalues with an absolute
    tolerance of grouping_tol * max(1, spectral radius); integer spectra are
    separated by at least 1, so grouping never over-merges on those.
    """
    if not (math.isfinite(grouping_tol) and grouping_tol >= 0):
        raise ValueError(
            f"grouping tolerance must be finite and non-negative, got {grouping_tol!r}"
        )
    if kind.label == "laplacian" and not g.laplacian_safe:
        raise LaplacianProductUnsupported(
            "Laplacian walk on a direct product with an irregular factor is "
            "not defined by the underlying theory"
        )
    mat = g.matrix(kind)
    try:
        vals, vecs = np.linalg.eigh(mat)
    except np.linalg.LinAlgError as exc:
        raise ValueError(
            f"eigendecomposition failed for n={g.n} {kind.short_name} matrix: {exc}"
        ) from exc
    scale = max(1.0, float(np.max(np.abs(vals))) if len(vals) else 1.0)
    tol = grouping_tol * scale
    # A class ends where the gap to the next value is not <= tol (a NaN gap
    # ends it too); classes of one value keep it, larger ones take the mean.
    ends = np.append(np.flatnonzero(~(np.diff(vals) <= tol)) + 1, len(vals))
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
        grouping_tol=grouping_tol,
    )
