"""Spectral decomposition of graph matrices: grouped eigenvalues, projection
matrices, per-vertex eigenvalue supports, cospectrality tests, and exact
periodicity recognition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    """Distinct eigenvalues (descending) with orthogonal projectors.

    M = sum_j eigenvalues[j] * projectors[j]; projectors are symmetric
    idempotents summing to the identity.
    """

    matrix_kind: MatrixKind
    eigenvalues: np.ndarray
    projectors: np.ndarray
    multiplicities: tuple[int, ...]
    grouping_tol: float

    @property
    def n(self) -> int:
        return self.projectors.shape[1]

    @property
    def k(self) -> int:
        return len(self.eigenvalues)

    def reconstruct(self) -> np.ndarray:
        return np.einsum("j,jab->ab", self.eigenvalues, self.projectors)

    def projector_column(self, j: int, u: int) -> np.ndarray:
        """E_j e_u as a vector (projectors are symmetric, so a column)."""
        return self.projectors[j, :, u]

    def diagonal_weights(self, u: int) -> np.ndarray:
        """(E_j)_{u,u} for every eigenvalue class j."""
        return self.projectors[:, u, u].copy()

    def support(self, u: int, support_tol: float = DEFAULT_SUPPORT_TOL) -> EigenvalueSupport:
        if not 0 <= u < self.n:
            raise ValueError(f"vertex {u} out of range")
        norms = np.linalg.norm(self.projectors[:, :, u], axis=1)
        idx = tuple(int(j) for j in np.nonzero(norms > support_tol)[0])
        return EigenvalueSupport(
            vertex=u,
            indices=idx,
            values=tuple(float(self.eigenvalues[j]) for j in idx),
            weights=tuple(float(self.projectors[j, u, u]) for j in idx),
        )

    def cospectral(self, u: int, v: int, tol: float = 1e-7) -> bool:
        du, dv = self.diagonal_weights(u), self.diagonal_weights(v)
        return bool(np.max(np.abs(du - dv)) <= tol)

    def strongly_cospectral(
        self, u: int, v: int, support_tol: float = DEFAULT_SUPPORT_TOL
    ) -> StrongCospectrality | None:
        """Sign partition when E_j e_u = +/- E_j e_v holds for every class."""
        if u == v:
            raise ValueError("strong cospectrality needs two distinct vertices")
        plus: list[int] = []
        minus: list[int] = []
        for j in range(self.k):
            x = self.projector_column(j, u)
            y = self.projector_column(j, v)
            if np.linalg.norm(x) <= support_tol and np.linalg.norm(y) <= support_tol:
                continue
            if np.linalg.norm(x - y) <= SIGN_MATCH_TOL:
                plus.append(j)
            elif np.linalg.norm(x + y) <= SIGN_MATCH_TOL:
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
    groups: list[list[int]] = [[0]]
    for i in range(1, len(vals)):
        if vals[i] - vals[groups[-1][-1]] <= tol:
            groups[-1].append(i)
        else:
            groups.append([i])
    groups.reverse()  # descending eigenvalues
    eigenvalues = np.array([float(np.mean(vals[idx])) for idx in groups])
    projectors = np.empty((len(groups), g.n, g.n))
    for row, idx in enumerate(groups):
        block = vecs[:, idx]
        projectors[row] = block @ block.T
    return SpectralDecomposition(
        matrix_kind=kind,
        eigenvalues=eigenvalues,
        projectors=projectors,
        multiplicities=tuple(len(idx) for idx in groups),
        grouping_tol=grouping_tol,
    )
