"""Quantum walk evaluation from spectral data: transition magnitudes, time
series, infimum estimation over a period or a bounded horizon, and the
closed-form evaluators for products of complete graphs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import product as iter_product
from typing import Callable, Sequence

import numpy as np

from .numtheory import QuadraticIntegerForm
from .spectral import SpectralDecomposition

__all__ = [
    "MAX_SERIES_CELLS",
    "WalkEvaluator",
    "InfimumMode",
    "InfimumEstimate",
    "product_diagonal_km_y",
    "complete_product_diagonal",
    "complete_product_cosine_terms",
    "join_perturbation_bound",
]

# Largest steps * (1 + vertices) a time series may hold.  At the cap the
# float table takes 128 MB and its CSV text about twice that, so larger
# series are refused before any phase table is built.
MAX_SERIES_CELLS = 1 << 24
# Entries per row block of a phase product: the baby-step/giant-step scan and series.
_GRID_BLOCK = 1 << 16
# Entries per chunk of the two-level selection of refinement seeds.
_SEED_CHUNK = 1 << 10
# Intervals of the sub-grid on which each refinement bracket is searched for minima.
_SUBGRID = 16
# times -> the rows g, g', g'' of a function g and its first two derivatives there
_Jet = Callable[[np.ndarray], np.ndarray]
# Highest degree minimized exactly: the O(D^3) root solve takes 0.24 s at 512.
_MAX_DEGREE = 512


def _check_grid(t_max: float | None, steps: int | None) -> None:
    """Reject a scan horizon that is not finite and positive, or fewer than 2 grid points."""
    if t_max is not None:
        if not math.isfinite(t_max):
            raise ValueError("t_max must be finite")
        if t_max <= 0:
            raise ValueError("t_max must be positive")
    if steps is not None and steps < 2:
        raise ValueError("need at least 2 steps")


def _critical_angles(coefficients: np.ndarray) -> np.ndarray:
    """Ascending angles in [0, pi] holding every minimizer over a period of
    p(cos theta), p = sum_d coefficients[d] T_d, of degree at most
    ``_MAX_DEGREE``: callers check the degree before they build the series.

    They are 0, pi, the roots of p' (colleague-matrix eigenvalues projected onto
    the real axis) and the mean of each cluster of roots within 1e-3, into which
    the solver scatters a multiple root."""
    from numpy.polynomial import chebyshev  # about 1 MB: loaded only where a period is solved
    roots = np.sort_complex(chebyshev.chebroots(chebyshev.chebder(coefficients)))
    clusters = np.split(roots, np.flatnonzero(np.abs(np.diff(roots)) > 1e-3) + 1)
    means = [c.mean().real for c in clusters if len(c) > 1]
    xs = np.concatenate([roots.real, means, [-1.0, 1.0]])
    return np.unique(np.arccos(np.clip(xs, -1.0, 1.0)))


def _earliest_minimum(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(time, least value), the time earliest among values tied within 32 ulps of 1."""
    least = values.min()
    return float(times[np.argmax(values <= least + 32 * np.finfo(float).eps)]), float(least)


def _cosine_minimum(terms: Sequence[tuple[float, int]]) -> tuple[float, float] | None:
    """Earliest (time, value) minimum over a period of |sum c cos(f t)|, the
    Chebyshev series sum c T_{f/omega}(cos omega t) with omega = gcd(f), for
    (c, f) in ``terms``, integers f >= 0 not all zero; None above the cap.
    A sign change is no critical point, so the caller rules it out first."""
    coefficients, frequencies = zip(*terms)
    omega = math.gcd(*frequencies)
    degrees = [f // omega for f in frequencies]
    if max(degrees) > _MAX_DEGREE:
        return None
    angles = _critical_angles(np.bincount(degrees, coefficients))
    times = angles / omega
    return _earliest_minimum(times, np.abs(np.cos(np.outer(times, frequencies)) @ coefficients))


def _bounded_grid(
    dec: SpectralDecomposition, grid_points: int | None, horizon: float | None
) -> tuple[float, int]:
    """(span, points) of a bounded scan: by default 200 periods of the least
    eigenvalue gap, 16 points per period of the spread, 50,001 to 1,000,001."""
    span = horizon if horizon is not None else 200.0 * 2.0 * math.pi / dec.min_gap()
    spread = float(dec.eigenvalues[0] - dec.eigenvalues[-1])
    auto = int(span * max(spread, 1.0) * 16 / (2 * math.pi))
    return span, grid_points or max(50001, min(1_000_001, auto))


def _least_indices(values: np.ndarray, count: int) -> np.ndarray:
    """Indices of the ``count`` least ``values``, ordered by (value, index).

    Two-level selection: take the minimum of each full chunk of ``_SEED_CHUNK``
    entries and keep the ``count`` chunks first in (minimum, chunk) order.
    A dropped chunk holds none of the wanted entries, since each kept chunk
    holds an entry ordered before all of the dropped one's.  Of the kept
    chunks and the ragged tail, only the entries at or below the
    ``count``-th least value are sorted."""
    full = len(values) - len(values) % _SEED_CHUNK
    minima = values[:full].reshape(-1, _SEED_CHUNK).min(axis=1)
    heads = np.sort(np.argsort(minima, kind="stable")[:count]) * _SEED_CHUNK
    kept = (heads[:, None] + np.arange(_SEED_CHUNK)).ravel()
    candidates = np.concatenate([kept, np.arange(full, len(values))])
    picked = values[candidates]
    k = min(count, len(picked)) - 1
    low = picked <= np.partition(picked, k)[k]
    return candidates[low][np.argsort(picked[low], kind="stable")[:count]]


def _refined_minimum(jet: _Jet, lows: np.ndarray, highs: np.ndarray) -> tuple[float, float]:
    """Least (time, |g|) found in the brackets [lows[i], highs[i]].

    phi = |g|^2 has phi' = 2 Re(conj(g) g') and phi'' = 2 (|g'|^2 + Re(conj(g) g'')).
    phi' is sampled at ``_SUBGRID`` + 1 points of every bracket; every - to +
    sign change between neighbours brackets a minimum of phi, and all of them
    are settled in lockstep by safeguarded Newton: a step is kept only if
    phi'' > 0, it lands inside its bracket and it is at most half the one
    before, else the bracket is bisected.  A bracket stops once a kept step
    or its width is at most 1e-10 plus 4 ulps; Newton runs between
    bisections halve their steps, so every bracket stops.  The candidates
    are every time evaluated."""
    fractions = np.arange(_SUBGRID + 1) / _SUBGRID
    times = (lows[:, None] + (highs - lows)[:, None] * fractions).ravel()
    g, g1, g2 = jet(times)
    slope = (np.conj(g) * g1).real.reshape(len(lows), -1)
    found_t, found_v = [times], [np.abs(g)]
    row, col = np.nonzero((slope[:, :-1] < 0) & (slope[:, 1:] > 0))
    sub = times.reshape(len(lows), -1)
    lo, hi = sub[row, col], sub[row, col + 1]
    slope_lo, slope_hi = slope[row, col], slope[row, col + 1]
    # start each bracket at the zero of the chord of phi'
    x = lo + (hi - lo) * (slope_lo / (slope_lo - slope_hi))
    last = hi - lo
    while len(x):
        g, g1, g2 = jet(x)
        found_t.append(x)
        found_v.append(np.abs(g))
        slope = (np.conj(g) * g1).real
        curve = (g1 * np.conj(g1)).real + (np.conj(g) * g2).real
        rising = slope >= 0
        hi = np.where(rising, x, hi)
        lo = np.where(rising, lo, x)
        step = -slope / np.where(curve > 0, curve, 1.0)
        newton = (curve > 0) & (np.abs(step) <= 0.5 * last) & (lo <= x + step) & (x + step <= hi)
        step = np.where(newton, step, 0.5 * (lo + hi) - x)
        tol = 1e-10 + 4 * np.spacing(x)
        going = ~((newton & (np.abs(step) <= tol)) | (hi - lo <= tol))
        x, lo, hi, last = (x + step)[going], lo[going], hi[going], np.abs(step)[going]
    times, values = np.concatenate(found_t), np.concatenate(found_v)
    least = np.argmin(values)
    return float(times[least]), float(values[least])


def _phase_jet(lams: np.ndarray, weights: np.ndarray) -> _Jet:
    """The jet of g(t) = sum_j weights[j] exp(i t lams[j]), from one phase matrix."""
    ilam = 1j * lams
    columns = weights * ilam ** np.arange(3)[:, None]
    return lambda times: columns @ np.exp(np.outer(ilam, times))


def _grid_minimum(mags: np.ndarray, span: float, jet: _Jet) -> tuple[float, float]:
    """Least (time, |g|) from the grid ``mags`` = |g| on np.linspace(0, span,
    len(mags)): the least grid value, lowest index first among ties, unless
    :func:`_refined_minimum` finds less within one grid step of the five least."""
    pts = len(mags)
    step = span / (pts - 1)
    seeds = _least_indices(mags, 5)
    # grid time i exactly as np.linspace(0, span, pts) computes it
    times = np.where(seeds == pts - 1, span, seeds * step)
    t, value = _refined_minimum(jet, np.maximum(0.0, times - step), np.minimum(span, times + step))
    if value < mags[seeds[0]]:
        return t, value
    return float(times[0]), float(mags[seeds[0]])


@dataclass(frozen=True)
class WalkEvaluator:
    """Evaluates U(t) = sum_j exp(i t lambda_j) E_j for one decomposition."""

    dec: SpectralDecomposition

    @property
    def n(self) -> int:
        return self.dec.n

    def amplitude(self, u: int, v: int, t: float) -> complex:
        phases = np.exp(1j * t * self.dec.eigenvalues)
        return complex(np.dot(phases, self.dec.entries(u, v)))

    def magnitude(self, u: int, v: int, t: float) -> float:
        return abs(self.amplitude(u, v, t))

    def matrix(self, t: float) -> np.ndarray:
        return self.dec.combine(np.exp(1j * t * self.dec.eigenvalues))

    def diagonal_amplitudes(self, u: int, times: np.ndarray) -> np.ndarray:
        """Vectorized U(t)_{u,u} over an array of times."""
        weights = self.dec.diagonal_weights(u)
        phases = np.exp(1j * np.outer(times, self.dec.eigenvalues))
        return phases @ weights

    def diagonal_grid_magnitudes(self, u: int, span: float, points: int) -> np.ndarray:
        """|U(m h)_{u,u}| for m = 0, ..., points - 1 with h = span / (points - 1).

        Baby-step/giant-step: with B = ceil(sqrt(points)) and m = b B + r,
        exp(i m h lambda) = exp(i b B h lambda) exp(i r h lambda), so one
        product of the weighted giant phases (about points / B rows) with the
        B baby phases gives every grid value from about 2 sqrt(points)
        exponentials per class.  Classes of zero weight are dropped; the
        product runs in row blocks, so only the result is held in full.
        """
        weights = self.dec.diagonal_weights(u)
        keep = weights != 0.0
        weights, lams = weights[keep], self.dec.eigenvalues[keep]
        h = span / (points - 1)
        baby_n = math.isqrt(points - 1) + 1
        giant_n = -(-points // baby_n)
        baby = np.exp(1j * np.outer(np.arange(baby_n) * h, lams)).T
        giant = weights * np.exp(1j * np.outer((np.arange(giant_n) * baby_n) * h, lams))
        mags = np.empty((giant_n, baby_n))
        rows = max(1, _GRID_BLOCK // baby_n)
        for lo in range(0, giant_n, rows):
            np.abs(giant[lo : lo + rows] @ baby, out=mags[lo : lo + rows])
        return mags.ravel()[:points]

    def diagonal_series(self, vertices: Sequence[int], t_max: float, steps: int) -> np.ndarray:
        """Rows (t, |U(t)_{u,u}| for each u in ``vertices``) on np.linspace(0,
        t_max, steps); shape (steps, 1 + len(vertices)).

        The phase table exp(i t lambda) is built once for all vertices, in
        row blocks of about ``_GRID_BLOCK`` entries, so beside the result and
        its times no temporary grows with ``steps``.  More than
        ``MAX_SERIES_CELLS`` entries in the result raise ValueError."""
        _check_grid(t_max, steps)
        cells = steps * (1 + len(vertices))
        if cells > MAX_SERIES_CELLS:
            raise ValueError(
                f"series of {steps} steps for {len(vertices)} vertices has {cells} "
                f"cells, above the cap of {MAX_SERIES_CELLS}"
            )
        lams = self.dec.eigenvalues
        weights = [self.dec.diagonal_weights(u) for u in vertices]
        out = np.empty((steps, 1 + len(weights)))
        out[:, 0] = np.linspace(0.0, t_max, steps)
        rows = max(1, _GRID_BLOCK // len(lams))
        for lo in range(0, steps, rows):
            block = np.exp(1j * np.outer(out[lo : lo + rows, 0], lams))
            for col, w in enumerate(weights, start=1):
                out[lo : lo + rows, col] = np.abs(block @ w)
        return out

    def infimum_diagonal(
        self,
        u: int,
        form: QuadraticIntegerForm | None,
        grid_points: int | None = None,
        horizon: float | None = None,
    ) -> "InfimumEstimate":
        """inf_{t>0} |U(t)_{u,u}|, given the periodic ``form`` of u's support
        values (None when they have none).

        A periodic vertex has lambda_j = lambda_min + m_j omega, omega =
        g sqrt(delta), integers m_j, so |U|^2 = |sum_j w_j e^{i m_j omega t}|^2
        = r_0 + 2 sum_d r_d T_d(cos omega t), r the autocorrelation of the
        weights at the m_j; |U| at its critical angles is the exact minimum
        over one period.  Other vertices, and series above ``_MAX_DEGREE``,
        get a bounded scan sized by ``grid_points`` and ``horizon``, which
        only upper-bounds the infimum."""
        sup = self.dec.support(u)
        if len(sup) == 1:
            return InfimumEstimate(1.0, 0.0, InfimumMode.EXACT_ON_PERIOD, 1, 0.0)
        angles = None
        if form is not None:
            base = form.b.index(min(form.b))
            exponents = [int(form.scaled_difference(j, base) / form.g) for j in range(len(form))]
            if max(exponents) <= _MAX_DEGREE:
                q = np.bincount(exponents, sup.weights)
                r = np.correlate(q, q, "full")[len(q) - 1 :]
                angles = _critical_angles(np.concatenate([r[:1], 2.0 * r[1:]]))
        if angles is None:
            span, pts = _bounded_grid(self.dec, grid_points, horizon)
            weights = self.dec.diagonal_weights(u)
            keep = weights != 0.0
            jet = _phase_jet(self.dec.eigenvalues[keep], weights[keep])
            t, value = _grid_minimum(self.diagonal_grid_magnitudes(u, span, pts), span, jet)
            return InfimumEstimate(value, t, InfimumMode.GRID_LOWER_CONFIDENCE, pts, span)
        times = angles / (float(form.g) * math.sqrt(form.delta))
        t, value = _earliest_minimum(times, np.abs(self.diagonal_amplitudes(u, times)))
        return InfimumEstimate(value, t, InfimumMode.EXACT_ON_PERIOD, len(times), form.period)


class InfimumMode(Enum):
    EXACT_ON_PERIOD = "exact-on-period"
    GRID_LOWER_CONFIDENCE = "grid-lower-confidence"


@dataclass(frozen=True)
class InfimumEstimate:
    """Minimum of the diagonal magnitude and a time attaining it: the infimum
    itself with EXACT_ON_PERIOD (least |U| over ``grid_points`` critical times of
    one period, the ``horizon``), an upper bound with GRID_LOWER_CONFIDENCE."""

    value: float
    attained_time: float | None
    mode: InfimumMode
    grid_points: int
    horizon: float

    @property
    def certified(self) -> bool:
        return self.mode is InfimumMode.EXACT_ON_PERIOD


def product_diagonal_km_y(
    m: int, dec_y: SpectralDecomposition, v: int, t: float
) -> complex:
    """Diagonal amplitude of K_m x Y at vertex (j, v) via the factor walk.

    Equals (1/m) U_Y((m-1) t)_{v,v} + ((m-1)/m) U_Y(-t)_{v,v}; for m = 2 this
    is Re U_Y(t)_{v,v}, so the bipartite double has a real diagonal.
    """
    if m < 2:
        raise ValueError("factor m must be at least 2")
    ev = WalkEvaluator(dec_y)
    return (1 / m) * ev.amplitude(v, v, (m - 1) * t) + ((m - 1) / m) * ev.amplitude(
        v, v, -t
    )


def complete_product_diagonal(m_list: Sequence[int], t: float) -> complex:
    """Diagonal amplitude of the direct product of complete graphs K_{m_1} x ... x K_{m_n}.

    Subset-sum form: (1/prod m_j) * sum over S of prod_{j in S}(m_j - 1) *
    exp(i t (-1)^{|S|} prod_{j not in S}(m_j - 1)).  Every vertex has the same
    diagonal by vertex transitivity.
    """
    ms = [int(m) for m in m_list]
    if any(m < 2 for m in ms):
        raise ValueError("every factor must be at least 2")
    if len(ms) > 20:
        raise ValueError("subset enumeration capped at 20 factors")
    total = 0 + 0j
    for mask in iter_product((0, 1), repeat=len(ms)):
        in_s = sum(mask)
        coeff = 1
        outside = 1
        for pick, m in zip(mask, ms):
            if pick:
                coeff *= m - 1
            else:
                outside *= m - 1
        total += coeff * complex(math.cos(t * (-1) ** in_s * outside),
                                 math.sin(t * (-1) ** in_s * outside))
    return total / math.prod(ms)


def complete_product_cosine_terms(m_list: Sequence[int]) -> list[tuple[float, int]] | None:
    """Cosine form of the product diagonal when some factor equals 2.

    Pairing subsets through a fixed m = 2 factor collapses the phases into
    sum_S c_S cos(f_S t) with real coefficients; returns (coefficient,
    frequency) pairs with equal frequencies merged, or None when no factor
    is 2 (the diagonal is then not real in general).
    """
    ms = [int(m) for m in m_list]
    if any(m < 2 for m in ms):
        raise ValueError("every factor must be at least 2")
    try:
        pivot = ms.index(2)
    except ValueError:
        return None
    rest = [m for i, m in enumerate(ms) if i != pivot]
    denom = math.prod(ms)
    terms: dict[int, float] = {}
    for mask in iter_product((0, 1), repeat=len(rest)):
        coeff = 1
        outside = 1
        for pick, m in zip(mask, rest):
            if pick:
                coeff *= m - 1
            else:
                outside *= m - 1
        terms[outside] = terms.get(outside, 0.0) + 2.0 * coeff / denom
    return sorted(((c, f) for f, c in terms.items()), reverse=True)


def join_perturbation_bound(nx: int) -> float:
    """Uniform deviation bound 2/|V(X)| between walks on X and on X joined to anything."""
    if nx < 1:
        raise ValueError("graph must have at least one vertex")
    return 2.0 / nx
