"""Quantum walk evaluation from spectral data: transition magnitudes, time
series and infimum estimation over a period or a bounded horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .numtheory import QuadraticIntegerForm
from .spectral import SpectralDecomposition

__all__ = [
    "MAX_SERIES_CELLS",
    "WalkEvaluator",
    "InfimumMode",
    "InfimumEstimate",
]

# Largest steps * (1 + vertices) a time series may hold, and the most grid
# points of a bounded scan.  It bounds the memory of a series, whose float
# table takes 128 MB at the cap, and the time of a scan, which holds one row
# block of its grid at a time.  Larger series and scans are refused before
# any phase table is built.
MAX_SERIES_CELLS = 1 << 24
# Entries per row block of the baby-step/giant-step product that serves the scan and series.
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
    """Reject a scan horizon that is not finite and positive, or fewer than 2
    or more than ``MAX_SERIES_CELLS`` grid points."""
    if t_max is not None:
        if not math.isfinite(t_max):
            raise ValueError("t_max must be finite")
        if t_max <= 0:
            raise ValueError("t_max must be positive")
    if steps is not None and steps < 2:
        raise ValueError("need at least 2 steps")
    if steps is not None and steps > MAX_SERIES_CELLS:
        raise ValueError(f"{steps} grid points are above the cap of {MAX_SERIES_CELLS}")


def _check_series(t_max: float, steps: int, columns: int) -> None:
    """Reject a series of more than ``MAX_SERIES_CELLS`` cells, ``steps`` times
    (1 + ``columns``) with the time column, then a grid :func:`_check_grid` rejects."""
    cells = steps * (1 + columns)
    if cells > MAX_SERIES_CELLS:
        raise ValueError(
            f"series of {steps} steps for {columns} vertices has {cells} "
            f"cells, above the cap of {MAX_SERIES_CELLS}"
        )
    _check_grid(t_max, steps)


def _critical_angles(coefficients: np.ndarray) -> np.ndarray:
    """Ascending angles in [0, pi] holding every minimizer over a period of
    p(cos theta), p = sum_d coefficients[d] T_d, of degree at most
    ``_MAX_DEGREE``: callers check the degree before they build the series.

    They are 0, pi, the roots of p' (colleague-matrix eigenvalues projected onto
    the real axis) and the mean of each cluster of roots within 1e-3, into which
    the solver scatters a multiple root.  A root within 1e-13 of +-1 is
    dropped: arccos turns an error e there into one of sqrt(2e), and 0 and pi
    are candidates anyway, since |U|^2 is even about both."""
    from numpy.polynomial import chebyshev  # about 1 MB: loaded only where a period is solved
    roots = np.sort_complex(chebyshev.chebroots(chebyshev.chebder(coefficients)))
    clusters = np.split(roots, np.flatnonzero(np.abs(np.diff(roots)) > 1e-3) + 1)
    means = [c.mean().real for c in clusters if len(c) > 1]
    xs = np.concatenate([roots.real, means])
    xs = np.append(xs[np.abs(xs) < 1.0 - 1e-13], [-1.0, 1.0])
    return np.unique(np.arccos(xs))


def _earliest_minimum(times: np.ndarray, values: np.ndarray) -> tuple[float, float]:
    """(time, least value), the time earliest among values tied within 32 ulps of 1."""
    least = values.min()
    return float(times[np.argmax(values <= least + 32 * np.finfo(float).eps)]), float(least)


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


def _grid_minimum(
    blocks: Iterable[tuple[int, int, np.ndarray]], span: float, points: int, jet: _Jet
) -> tuple[float, float]:
    """Least (time, |g|) from the grid of |g| on np.linspace(0, span, points),
    streamed as ``blocks`` (see :func:`_least_entries`): the least grid value,
    lowest index first among ties, unless :func:`_refined_minimum` finds less
    within one grid step of the five least."""
    seeds, least = _least_entries(blocks, 5)
    step = span / (points - 1)
    # grid time i exactly as np.linspace(0, span, points) computes it
    times = np.where(seeds == points - 1, span, seeds * step)
    t, value = _refined_minimum(jet, np.maximum(0.0, times - step), np.minimum(span, times + step))
    if value < least[0]:
        return t, value
    return float(times[0]), float(least[0])


def _least_entries(
    blocks: Iterable[tuple[int, int, np.ndarray]], count: int
) -> tuple[np.ndarray, np.ndarray]:
    """(indices, values) of the ``count`` least entries of one row's grid,
    streamed as :func:`_grid_blocks` yields it, ordered by (value, index):
    the same indices as :func:`_least_indices` over the whole grid.

    Once ``count`` entries are held, a block whose minimum is not strictly
    below the last of them is skipped, since every entry of it orders after
    every held one.  Otherwise the block's own ``count`` least entries join
    the held ones and the ``count`` least of both are kept."""
    indices, values = np.empty(0, dtype=np.intp), np.empty(0)
    for _, lo, block in blocks:
        if len(values) == count and not block.min() < values[-1]:
            continue
        local = _least_indices(block, count)
        indices = np.concatenate([indices, lo + local])
        values = np.concatenate([values, block[local]])
        # held entries precede the block's, so a stable sort keeps (value, index) order
        order = np.argsort(values, kind="stable")[:count]
        indices, values = indices[order], values[order]
    return indices, values


def _grid_blocks(
    lams: np.ndarray, weights: np.ndarray, span: float, points: int
) -> Iterator[tuple[int, int, np.ndarray]]:
    """Yield (v, lo, block): block[i] = |sum_j weights[v, j] exp(i m h lams[j])|
    for m = lo + i, h = span / (points - 1), row by row and each row's grid in
    order.  Every block is one reused buffer, overwritten by the next.

    Baby-step/giant-step: with B = ceil(sqrt(points)) and m = b B + r, the
    phase exp(i m h lambda) = exp(i b B h lambda) exp(i r h lambda).  The B baby
    and about points / B giant phases of the classes some row weighs are built
    once; each row's weighted giant phases times the baby phases give its
    grid, one row block of about ``_GRID_BLOCK`` entries at a time."""
    used = weights.any(axis=0)
    lams, weights = lams[used], weights[:, used]
    h = span / (points - 1)
    baby_n = math.isqrt(points - 1) + 1
    baby = np.exp(1j * np.outer(np.arange(baby_n) * h, lams)).T
    giant = np.exp(1j * np.outer(np.arange(0, points, baby_n) * h, lams))
    rows = max(1, _GRID_BLOCK // baby_n)
    mags = np.empty(min(rows * baby_n, points))
    for v, w in enumerate(weights):
        # no row needs the giant phases after the last one, so it weights them in place
        weighted = np.multiply(w, giant, out=giant if v == len(weights) - 1 else None)
        for lo in range(0, len(giant), rows):
            size = min(len(mags), points - lo * baby_n)
            np.abs((weighted[lo : lo + rows] @ baby).ravel()[:size], out=mags[:size])
            yield v, lo * baby_n, mags[:size]


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

    def column(self, u: int, t: float) -> np.ndarray:
        """U(t) e_u = V (phi * V[u]), phi the phase of each column's class, from real
        cosine and sine parts: V times a complex vector would copy V to complex."""
        x = self.dec.vectors[u]
        phases = t * np.repeat(self.dec.eigenvalues, self.dec.multiplicities)
        return self.dec.vectors @ np.column_stack([np.cos(phases) * x, np.sin(phases) * x]) @ [1, 1j]

    def diagonal_amplitudes(self, u: int, times: np.ndarray) -> np.ndarray:
        """Vectorized U(t)_{u,u} over an array of times."""
        weights = self.dec.diagonal_weights(u)
        phases = np.exp(1j * np.outer(times, self.dec.eigenvalues))
        return phases @ weights

    def diagonal_series(self, vertices: Sequence[int], t_max: float, steps: int) -> np.ndarray:
        """Rows (t, |U(t)_{u,u}| for each u in ``vertices``) on np.linspace(0,
        t_max, steps), the columns from one :func:`_grid_blocks` call.
        See :func:`_check_series` for the values refused."""
        _check_series(t_max, steps, len(vertices))
        # filled column by column in a column-major table, so each block is
        # written contiguously; the rows are its transpose
        out = np.empty((1 + len(vertices), steps))
        out[0] = np.linspace(0.0, t_max, steps)
        weights = np.array([self.dec.diagonal_weights(u) for u in vertices])
        weights = weights.reshape(len(vertices), len(self.dec.eigenvalues))
        for v, lo, block in _grid_blocks(self.dec.eigenvalues, weights, t_max, steps):
            out[1 + v, lo : lo + len(block)] = block
        return out.T

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
        if form is not None and max(form.steps) <= _MAX_DEGREE:
            q = np.bincount(form.steps, sup.weights)
            r = np.correlate(q, q, "full")[len(q) - 1 :]
            angles = _critical_angles(np.concatenate([r[:1], 2.0 * r[1:]]))
        if angles is None:
            span, pts = _bounded_grid(self.dec, grid_points, horizon)
            weights = self.dec.diagonal_weights(u)
            keep = weights != 0.0
            lams, weights = self.dec.eigenvalues[keep], weights[keep]
            blocks = _grid_blocks(lams, weights[None], span, pts)
            t, value = _grid_minimum(blocks, span, pts, _phase_jet(lams, weights))
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

