"""Closed forms of the paper's construction results: the references that
``classify_all`` and the walk evaluator are checked against.

Each function states a formula on its own, from the factor graphs or from
the parameters, never from the graph the construction builds; the tests
build that graph and compare the pipeline's answer with the formula.
``valuation_equality_time`` is the 2-adic valuation form of the
equality-time criterion, the reference for ``equality_time_criterion``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product as iter_product
from typing import Sequence

import numpy as np

from sedwalk import QuadraticIntegerForm, WalkEvaluator, nu2
from sedwalk.spectral import SpectralDecomposition


def projector(dec: SpectralDecomposition, j: int) -> np.ndarray:
    """E_j = V_j V_j^T as an n x n matrix."""
    block = dec.vectors[:, dec.starts[j] : dec.starts[j] + dec.multiplicities[j]]
    return block @ block.T


def walk_matrix(dec: SpectralDecomposition, t: float) -> np.ndarray:
    """U(t) = sum_j exp(i t lambda_j) E_j as an n x n matrix."""
    return sum(np.exp(1j * t * lam) * projector(dec, j) for j, lam in enumerate(dec.eigenvalues))


def complete_product_diagonal(ms: Sequence[int], t: float) -> complex:
    """Diagonal amplitude of K_{m_1} x ... x K_{m_n} at any vertex.

    Subset-sum form: (1/prod m_j) * sum over S of prod_{j in S}(m_j - 1) *
    exp(i t (-1)^{|S|} prod_{j not in S}(m_j - 1)).
    """
    total = 0j
    for mask in iter_product((0, 1), repeat=len(ms)):
        coeff = math.prod(m - 1 for pick, m in zip(mask, ms) if pick)
        outside = math.prod(m - 1 for pick, m in zip(mask, ms) if not pick)
        total += coeff * np.exp(1j * t * (-1) ** sum(mask) * outside)
    return complex(total / math.prod(ms))


def km_product_diagonal(m: int, dec_y: SpectralDecomposition, v: int, t: float) -> complex:
    """Diagonal amplitude of K_m x Y at vertex (j, v) from the walk on Y:
    (1/m) U_Y((m-1) t)_{v,v} + ((m-1)/m) U_Y(-t)_{v,v}.  For m = 2 this is
    Re U_Y(t)_{v,v}, so the bipartite double has a real diagonal."""
    ev = WalkEvaluator(dec_y)
    return ev.amplitude(v, v, (m - 1) * t) / m + (m - 1) / m * ev.amplitude(v, v, -t)


def double_cone_real_minimum(d: int, s: int) -> tuple[float, float]:
    """Minimum of |Re diagonal| at an apex of the double cone over a
    d-regular graph on s(d+s)/2 vertices, with an attaining time.

    Needs s even with nu2(s) >= nu2(d); the minimum runs over the critical
    times 2k pi/(d+2s) whose cosine is negative.
    """
    assert d >= 1 and s >= 2 and s % 2 == 0 and nu2(s) >= nu2(d)
    g = math.gcd(d, s)
    d1, s1 = d // g, s // g
    q = d1 + 2 * s1
    ks: list[int] = []
    for j in range(1, s1 + 1, 4):
        lo = math.ceil(j * q / (4 * s1))
        hi = math.floor((j + 2) * q / (4 * s1))
        ks.extend(range(lo, hi + 1))
    c, k0 = min((math.cos(s1 * k * math.pi / q) ** 2, k) for k in ks)
    return c, 2.0 * k0 * math.pi / (d + 2 * s)


def valuation_equality_time(form: QuadraticIntegerForm, s: Sequence[int]) -> float | None:
    """First time putting the classes ``s`` at phase +1 and the rest at -1,
    by the 2-adic valuation rule (Coutinho, "Quantum state transfer in
    graphs", PhD thesis, Waterloo 2014): every scaled difference across the
    split has one valuation.  Then the scaled difference from the first
    class of ``s`` to class j, over g, is even exactly for j in ``s``, and
    the first time is pi / (g sqrt(delta)); None when the levels differ."""

    def valuation(x: Fraction) -> int:
        return nu2(x.numerator) - nu2(x.denominator)

    chosen = sorted(set(s))
    rest = [j for j in range(len(form)) if j not in chosen]
    if len({valuation(form.scaled_difference(c, j)) for j in chosen for c in rest}) != 1:
        return None
    for j in range(len(form)):
        q = form.scaled_difference(chosen[0], j) / form.g
        assert q.denominator == 1 and (q.numerator % 2 == 0) == (j in chosen)
    return math.pi / (float(form.g) * math.sqrt(form.delta))
