"""Exact arithmetic helpers: 2-adic valuations, square-free parts, exact
recognition of eigenvalues and their periodic form, and integer relation
parity.

Everything here is exact (ints and Fractions); floating point enters only at
the recognition boundary where eigenvalues computed numerically are matched
against exact candidates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Sequence

__all__ = [
    "nu2",
    "nu2_fraction",
    "gcd_set",
    "fraction_gcd",
    "is_perfect_square",
    "square_free_part",
    "QuadraticIntegerForm",
    "ExactEigenvalue",
    "periodic_form",
    "recognize_values",
    "integer_kernel_basis",
    "integer_relation_parity",
]

# Absolute match tolerance of the recognizer, scaled by max(1, |largest value|).
RECOGNITION_TOL = 1e-7


def nu2(a: int) -> int:
    """2-adic valuation of a nonzero integer."""
    if a == 0:
        raise ValueError("nu2(0) is undefined (infinite)")
    a = abs(int(a))
    return (a & -a).bit_length() - 1


def nu2_fraction(x: Fraction | int) -> int:
    """2-adic valuation extended to nonzero rationals: nu2(p/q) = nu2(p) - nu2(q)."""
    x = Fraction(x)
    if x == 0:
        raise ValueError("nu2 of 0 is undefined (infinite)")
    return nu2(x.numerator) - nu2(x.denominator)


def gcd_set(values: Iterable[int]) -> int:
    """Non-negative gcd of a set of integers; gcd of nothing (or all zeros) is 0."""
    g = 0
    for v in values:
        g = math.gcd(g, abs(int(v)))
    return g


def fraction_gcd(values: Iterable[Fraction]) -> Fraction:
    """gcd on rationals: the positive generator of the additive group they span."""
    vals = [Fraction(v) for v in values if v != 0]
    if not vals:
        return Fraction(0)
    den = math.lcm(*(v.denominator for v in vals))
    g = gcd_set(int(v * den) for v in vals)
    return Fraction(g, den)


def is_perfect_square(n: int) -> tuple[bool, int | None]:
    """Whether ``n`` is a perfect square, and its root when it is."""
    if n < 0:
        return False, None
    r = math.isqrt(n)
    return (True, r) if r * r == n else (False, None)


def square_free_part(n: int) -> tuple[int, int]:
    """Split ``n = s * f**2`` with ``s`` square-free; returns ``(s, f)``."""
    if n == 0:
        return 0, 1
    sign = -1 if n < 0 else 1
    n = abs(n)
    s, f = 1, 1
    d = 2
    while d * d <= n:
        if n % d == 0:
            count = 0
            while n % d == 0:
                n //= d
                count += 1
            if count % 2:
                s *= d
            f *= d ** (count // 2)
        d += 1 if d == 2 else 2
    s *= n
    return sign * s, f


# -- recognized spectra ----------------------------------------------------


@dataclass(frozen=True)
class QuadraticIntegerForm:
    """Shared exact form of a periodic support: value_j = (a + b_j*sqrt(delta)) / 2.

    ``delta == 1`` means every value is rational (then ``a = 0`` and
    ``b_j = 2*value_j`` by convention); otherwise ``delta`` is square-free and
    at least 2 and the rational part ``a/2`` is shared by all values.  The
    coordinates are ints where they are integral and Fractions otherwise.
    """

    a: int | Fraction
    b: tuple[int | Fraction, ...]
    delta: int

    def __post_init__(self) -> None:
        if self.delta < 1:
            raise ValueError("delta must be positive")
        if self.delta > 1 and square_free_part(self.delta)[0] != self.delta:
            raise ValueError("delta must be square-free")

    def __len__(self) -> int:
        return len(self.b)

    def scaled_difference(self, i: int, j: int) -> Fraction:
        """(value_i - value_j) / sqrt(delta) as an exact rational."""
        return Fraction(self.b[i] - self.b[j], 2)

    @cached_property
    def g(self) -> Fraction:
        """The gcd of the scaled differences: every difference of two values
        is an integer multiple of g sqrt(delta); 0 for a single value."""
        return fraction_gcd(self.scaled_difference(0, j) for j in range(1, len(self.b)))

    @property
    def period(self) -> float | None:
        """2 pi / (g sqrt(delta)), after which every phase exp(i t value_j)
        has turned by the same angle; None for a single value."""
        if self.g == 0:
            return None
        return 2 * math.pi / (float(self.g) * math.sqrt(self.delta))


@dataclass(frozen=True)
class ExactEigenvalue:
    """One exact eigenvalue ``rational + radical * sqrt(delta)``."""

    rational: Fraction
    radical: Fraction
    delta: int

    def __float__(self) -> float:
        return float(self.rational) + float(self.radical) * math.sqrt(self.delta)


def _as_exact(x) -> ExactEigenvalue:
    if isinstance(x, ExactEigenvalue):
        return x
    if isinstance(x, (int, Fraction)):
        return ExactEigenvalue(Fraction(x), Fraction(0), 1)
    raise TypeError(f"need an exact value, got {type(x).__name__}")


def _near_fraction(value: float, max_den: int, tol: float) -> Fraction | None:
    cand = Fraction(value).limit_denominator(max_den)
    return cand if abs(value - float(cand)) <= tol else None


def _coordinate(x: Fraction) -> int | Fraction:
    return x.numerator if x.denominator == 1 else x


def periodic_form(values: Sequence[ExactEigenvalue]) -> QuadraticIntegerForm | None:
    """The shared form of exact support values, or None when a walk on them
    has no period.

    The values are periodic exactly when they are all rational or all share
    one rational part (Godsil, "Periodic graphs", Electron. J. Combin. 2011):
    then every ratio of two differences is rational.  Otherwise a conjugate
    pair differs by a rational multiple of sqrt(delta), and some other
    difference has a nonzero rational part, so their ratio is irrational.
    """
    if all(ev.delta == 1 or ev.radical == 0 for ev in values):
        twice = (2 * (ev.rational + ev.radical) for ev in values)
        return QuadraticIntegerForm(0, tuple(_coordinate(b) for b in twice), 1)
    if len({ev.rational for ev in values}) > 1:
        return None
    return QuadraticIntegerForm(
        _coordinate(2 * values[0].rational),
        tuple(_coordinate(2 * ev.radical) for ev in values),
        values[0].delta,
    )


def recognize_values(values: Sequence[float]) -> list[ExactEigenvalue] | None:
    """Exact values of floating eigenvalues, or None when some value has none.

    Rationals get ``radical = 0``; irrational values must split into conjugate
    pairs ``r +/- s*sqrt(delta)`` sharing one square-free delta, each pair
    with its own rational part.  The tolerance is ``RECOGNITION_TOL`` after
    scaling by the largest magnitude.  None means "unrecognized", never a
    negative certificate; :func:`periodic_form` says whether the values have
    a period.
    """
    vals = [float(v) for v in values]
    if not vals:
        return None
    atol = RECOGNITION_TOL * max(1.0, max(abs(v) for v in vals))

    out: dict[int, ExactEigenvalue] = {}
    leftovers: list[int] = []
    for i, v in enumerate(vals):
        fr = _near_fraction(v, 24, atol)
        if fr is not None:
            out[i] = ExactEigenvalue(fr, Fraction(0), 1)
        else:
            leftovers.append(i)
    delta_common: int | None = None
    unpaired = list(leftovers)
    while unpaired:
        i = unpaired.pop(0)
        match = None
        for j in unpaired:
            s = vals[i] + vals[j]
            s_fr = _near_fraction(s, 2, 4 * atol)
            if s_fr is None:
                continue
            d2 = (vals[i] - vals[j]) ** 2
            d2_round = round(d2)
            if d2_round < 1 or abs(d2 - d2_round) > 16 * atol * (abs(vals[i] - vals[j]) + 1):
                continue
            delta, f = square_free_part(d2_round)
            if delta_common is not None and delta != delta_common:
                continue
            r = s_fr / 2
            sgn = 1 if vals[i] >= vals[j] else -1
            s_coeff = Fraction(f, 2)
            cand_i = ExactEigenvalue(r, sgn * s_coeff, delta)
            cand_j = ExactEigenvalue(r, -sgn * s_coeff, delta)
            if abs(float(cand_i) - vals[i]) <= 8 * atol and abs(float(cand_j) - vals[j]) <= 8 * atol:
                match = (j, delta, cand_i, cand_j)
                break
        if match is None:
            return None
        j, delta, cand_i, cand_j = match
        delta_common = delta
        out[i], out[j] = cand_i, cand_j
        unpaired.remove(j)
    if delta_common is not None:
        # normalize rationals onto the common delta for downstream arithmetic
        for i, ev in out.items():
            if ev.delta == 1 and ev.radical == 0:
                out[i] = ExactEigenvalue(ev.rational, Fraction(0), delta_common)
    return [out[i] for i in range(len(vals))]


# -- integer relations ------------------------------------------------------


def integer_kernel_basis(rows: Sequence[Sequence[Fraction | int]]) -> list[list[int]]:
    """Lattice basis of ``{x in Z^k : M x = 0}`` for a rational matrix ``M``.

    Column reduction with a tracked unimodular transform; the returned vectors
    generate the full integer kernel, not just a finite-index sublattice.
    """
    if not rows or not rows[0]:
        raise ValueError("kernel of an empty matrix is undefined here")
    k = len(rows[0])
    mat: list[list[int]] = []
    for row in rows:
        if len(row) != k:
            raise ValueError("ragged constraint matrix")
        fr = [Fraction(x) for x in row]
        den = math.lcm(*(x.denominator for x in fr))
        mat.append([int(x * den) for x in fr])
    m = len(mat)
    unit = [[int(i == j) for j in range(k)] for i in range(k)]

    def col_addmul(dst: int, src: int, q: int) -> None:
        for r in range(m):
            mat[r][dst] += q * mat[r][src]
        for r in range(k):
            unit[r][dst] += q * unit[r][src]

    def col_swap(i: int, j: int) -> None:
        if i == j:
            return
        for r in range(m):
            mat[r][i], mat[r][j] = mat[r][j], mat[r][i]
        for r in range(k):
            unit[r][i], unit[r][j] = unit[r][j], unit[r][i]

    pc = 0
    for pr in range(m):
        if pc >= k:
            break
        while True:
            nz = [c for c in range(pc, k) if mat[pr][c] != 0]
            if not nz:
                break
            if len(nz) == 1:
                col_swap(pc, nz[0])
                pc += 1
                break
            c0 = min(nz, key=lambda c: abs(mat[pr][c]))
            for c in nz:
                if c != c0:
                    q = mat[pr][c] // mat[pr][c0]
                    if q:
                        col_addmul(c, c0, -q)
    return [[unit[r][c] for r in range(k)] for c in range(pc, k)]


def integer_relation_parity(
    plus: Sequence[ExactEigenvalue | int | Fraction],
    minus: Sequence[ExactEigenvalue | int | Fraction],
) -> tuple[int, ...] | None:
    """An integer relation with an odd coefficient sum over ``plus``, or None
    when every relation's sum there is even.

    A relation is an integer vector ``(m, l)`` with
    ``sum m_j plus_j + sum l_j minus_j = 0`` and ``sum m_j + sum l_j = 0``.
    The relations form a lattice whose basis is computed exactly, and the
    parity of the ``plus`` sum is additive, so some relation has an odd sum
    exactly when some basis vector does; the first such vector is returned.
    Raises ValueError when a side is empty or the values mix radicals.
    """
    if not plus or not minus:
        raise ValueError("relation parity needs both sides non-empty")
    pe = [_as_exact(x) for x in plus]
    me = [_as_exact(x) for x in minus]
    deltas = {ev.delta for ev in pe + me if ev.radical != 0}
    if len(deltas) > 1:
        raise ValueError(f"mixed radical parts: delta in {sorted(deltas)}")
    all_vals = pe + me
    rows: list[list[Fraction]] = [[ev.rational for ev in all_vals]]
    if deltas:
        rows.append([ev.radical if ev.delta != 1 else Fraction(0) for ev in all_vals])
    rows.append([Fraction(1)] * len(all_vals))
    p = len(pe)
    return next((tuple(v) for v in integer_kernel_basis(rows) if sum(v[:p]) % 2), None)
