"""Exact-rational oracles, independent of the mpf pipeline they check.

Moments of the classical one-parameter families reduce, after cancelling a
common prefactor, to rational expressions: a Stirling-transform identity turns
sum_k k^m x^k / k! into a polynomial in x, and the same transform with a rising
factorial handles the geometric-type family. Recurrence data then follows from
Fraction-exact elimination of the reduced Hankel matrix (the cancelled
prefactor scales every norm equally and drops out of beta and gamma).

``weight_sequence`` walks the lattice in exact rationals, the oracle of the
fixed-point term generator every lattice walk of the package reads.
``per_column_pass`` keeps the lattice pass as it stood with one running error
sum per column, its term ratios taken from Fractions of the parameters, as the
oracle of the pass that keeps one error bound per pass.
``OperatorAccumulator`` keeps ``ResidualAccumulator`` as it stood on the mpf
operators, the oracle of the accumulator that forms its rows on raw values.
"""

from __future__ import annotations

from collections.abc import Iterator
from fractions import Fraction
from itertools import count

from mpmath import isfinite, mpf

from semidop.errors import TermBudgetExceeded
from semidop.linalg import exceeds
from semidop.moments import MAX_TERMS, _ratio_sup, decimal_str


def stirling2_table(m_max: int) -> list[list[int]]:
    """Stirling numbers of the second kind, rows 0..m_max."""
    table = [[1]]
    for m in range(1, m_max + 1):
        row = [0] * (m + 1)
        prev = table[m - 1]
        for j in range(1, m + 1):
            row[j] = (prev[j - 1] if j - 1 <= m - 1 else 0) + j * (prev[j] if j <= m - 1 else 0)
        table.append(row)
    return table


def rising(a: Fraction, j: int) -> Fraction:
    out = Fraction(1)
    for i in range(j):
        out *= a + i
    return out


def charlier_reduced_moments(eta: Fraction, m_max: int) -> list[Fraction]:
    """Moments divided by the exponential prefactor: sum_j S(m,j) eta^j."""
    s2 = stirling2_table(m_max)
    return [
        sum((Fraction(eta) ** j) * s2[m][j] for j in range(m + 1)) if m else Fraction(1)
        for m in range(m_max + 1)
    ]


def meixner_reduced_moments(a: Fraction, eta: Fraction, m_max: int) -> list[Fraction]:
    """Moments divided by the (1-eta)^(-a) prefactor:
    sum_j S(m,j) (a)_j (eta/(1-eta))^j."""
    s2 = stirling2_table(m_max)
    x = Fraction(eta) / (1 - Fraction(eta))
    out = []
    for m in range(m_max + 1):
        out.append(sum(s2[m][j] * rising(Fraction(a), j) * x**j for j in range(m + 1)))
    return out


def hankel_ldl(moments: list[Fraction], k: int):
    """Exact L D L^T of the Hankel matrix [moments[n+m]], unit lower L."""
    g = [[moments[n + m] for m in range(k)] for n in range(k)]
    l = [[Fraction(1) if i == j else Fraction(0) for j in range(k)] for i in range(k)]
    d = [Fraction(0)] * k
    for j in range(k):
        acc = g[j][j]
        for p in range(j):
            acc -= l[j][p] * l[j][p] * d[p]
        if acc == 0:
            raise ZeroDivisionError(f"singular reduced Hankel matrix at pivot {j}")
        d[j] = acc
        for i in range(j + 1, k):
            s = g[i][j]
            for p in range(j):
                s -= l[i][p] * l[j][p] * d[p]
            l[i][j] = s / d[j]
    return l, d


def recurrence_from_moments(moments: list[Fraction], k: int):
    """Exact (beta, gamma, reduced norms) from a reduced moment list.

    beta_n and gamma_n are invariant under the cancelled scalar prefactor;
    the norms carry it, so only their ratios are meaningful here.
    """
    l, d = hankel_ldl(moments, k)
    # S = L^{-1}: its first subdiagonal is the negation of L's
    p1 = [Fraction(0)] + [-l[n][n - 1] for n in range(1, k)]
    beta = [p1[n] - p1[n + 1] for n in range(k - 1)]
    gamma = [d[n] / d[n - 1] for n in range(1, k)]
    return beta, gamma, d


def hankel_determinant_reduced(moments: list[Fraction], k: int) -> Fraction:
    """Exact determinant of the reduced k x k Hankel matrix."""
    if k == 0:
        return Fraction(1)
    _, d = hankel_ldl(moments, k)
    out = Fraction(1)
    for x in d:
        out *= x
    return out


def exact_term_ratio(w, k: int) -> Fraction:
    """w(k+1)/w(k) = eta prod(a_i+k) / ((k+1) prod(b_j+k)) eta2^(2k+1) eta3^(3k^2+3k+1)."""
    ratio = w.eta / (k + 1) * w.eta2 ** (2 * k + 1) * w.eta3 ** (3 * k * k + 3 * k + 1)
    for ai in w.a:
        ratio *= ai + k
    for bj in w.b:
        ratio /= bj + k
    return ratio


def weight_sequence(w) -> Iterator[Fraction]:
    """Exact w(0), w(1), ..., each obtained from the last by ``exact_term_ratio``."""
    value = Fraction(1)
    for k in count():
        yield value
        value *= exact_term_ratio(w, k)


def _tail_certified(w, k: int, magnitude: int, sums: list, shift: int) -> bool:
    """Whether every column's tail past k is at most 2^-shift |sums[m]|."""
    sup = _ratio_sup(w, k)
    if sup is None:
        return False
    sn, sd = sup.numerator, sup.denominator
    for m in reversed(range(len(sums))):
        km, k1m = k**m, (k + 1) ** m
        room = sd * km - sn * k1m
        if room <= 0 or (magnitude * km * sn * k1m) << shift > abs(sums[m]) * room:
            return False
    return True


def per_column_pass(w, last, m_max: int, bits: int, scale: int):
    """(sums, errors, K): the lattice pass with errors[m] = sum_{k <= K} k^m e_k exactly.

    Each column gains k^m W_k and k^m e_k term by term. Stops after k = last
    when last is given; otherwise at the first k past 0 where the last
    column's term is within 64 bits of its threshold and the exact tail test
    passes.
    """
    cols = m_max + 1
    sums = [0] * cols
    errors = [0] * cols
    value, err = 1 << scale, 0
    shift = bits - 31
    for k in range(MAX_TERMS):
        t, e = value, err
        sums[0] += t
        errors[0] += e
        for m in range(1, cols):
            t *= k
            e *= k
            sums[m] += t
            errors[m] += e
        if k == last:
            return sums, errors, k
        if (
            last is None
            and k
            and (abs(t) + e).bit_length() + shift <= abs(sums[-1]).bit_length() + 64
            and _tail_certified(w, k, abs(value) + err, sums, shift)
        ):
            return sums, errors, k
        ratio = exact_term_ratio(w, k)
        num, den = ratio.numerator, ratio.denominator
        value, rem = divmod(value * num, den)
        err = -(-err * abs(num) // den) + (1 if rem else 0)
    raise TermBudgetExceeded(f"no stop within {MAX_TERMS} terms for {w.spec_string()}")


class OperatorAccumulator:
    """``ResidualAccumulator``'s rows by the mpf operators: each operand
    rounded by ``mpf()``, the quotient by ``/``, the part by ``decimal_str``
    and the worst row by ``exceeds``, the first row being the worst so far."""

    def __init__(self):
        self.worst = mpf(0)
        self.worst_scale = mpf(1)
        self.parts: dict[str, str] = {}

    def add(self, label: str, abs_diff, scale) -> None:
        scale = mpf(scale)
        if scale <= 0:
            scale = mpf(1)
        rel = mpf(abs_diff) / scale if isfinite(scale) else mpf("nan")
        first = not self.parts
        self.parts[label] = decimal_str(rel, 64)
        if first or exceeds(rel, self.worst):
            self.worst = rel
            self.worst_scale = scale
