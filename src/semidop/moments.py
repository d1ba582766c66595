"""Precision-controlled moment series, Hankel truncations and their Cholesky data.

Moments are rho_m = sum_k k^m w(k). One fixed-point pass over the lattice
sums every column rho_0 .. rho_{m_max} at once, with exact rational term
ratios, and stops on a rigorous geometric tail bound; the floor-division
error is bounded alongside, so a pass at ``bits`` certifies each moment to
2^-(bits - 32) relative. A table's pass runs at the working mantissa plus 96
bits. A rounding test in the style of Ziv (ACM TOMS 17, 1991) then proves,
column by column, that both ends of the certified interval round to the same
working-precision value, which is therefore the correctly rounded moment; if
any column fails, one pass at verify_bits runs and is rounded as it stands.
Weights whose term ratio tends to 1 (the ``boundary`` class) are refused
before any summation: DivergentSeries when a requested moment diverges,
TermBudgetExceeded when only a ratio-1 tail stands between the series and a
certificate.

Truncations G[k] with entries rho_{n+m} factor as G = S^{-1} H S^{-T} (S unit
lower triangular, H diagonal); S encodes the monic orthogonal polynomial
coefficients and H their squared norms. The factorization runs at the working
precision only. Its confirmation, the elimination redone at verify_bits on a
verify-precision table with its own lattice pass, runs when
``confirmed_bits`` is first read, and only then. Every public routine runs
under an explicit PrecisionContext and is deterministic: fixed summation
order, fixed pivoting, no randomness.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, round_nearest

from .errors import (
    DivergentSeries,
    IndexOutOfTable,
    TermBudgetExceeded,
    TruncationTooLarge,
)
from .linalg import Matrix, exceeds, ldl_no_pivot, lu_determinant, unit_lower_inverse
from .weights import (
    ConvergenceClass,
    HypergeometricWeight,
    classify_convergence,
    term_ratio,
    to_mpf,
)


def decimal_str(x, bits: int) -> str:
    """Decimal rendering of an mpf carrying the full precision of ``bits``."""
    digits = int(bits * 0.30103) + 3
    if not isinstance(x, mpf):
        with workprec(bits):
            x = to_mpf(x) if isinstance(x, Fraction) else mpf(x)
    return mp.nstr(x, digits)


# The lattice points a moment series may visit before it is refused; the
# direct sums of the orthogonality check stop there too.
MAX_TERMS = 100_000


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision.

    Moment tables sum their lattice pass at mantissa_bits + 96 bits and are
    correctly rounded to mantissa_bits. verify_bits, twice the working
    mantissa, is the precision of the fallback pass when that rounding cannot
    be proven, and the precision at which a factorization's confirmation
    redoes the elimination when its ``confirmed_bits`` is read; no report
    reads it yet.
    """

    mantissa_bits: int = 512

    def __post_init__(self):
        if self.mantissa_bits < 64:
            raise ValueError("mantissa_bits must be at least 64")

    @property
    def verify_bits(self) -> int:
        return 2 * self.mantissa_bits

    def default_tolerance(self) -> Fraction:
        """Default residual tolerance for identity checks: 2^-(bits/4)."""
        return Fraction(1, 2 ** (self.mantissa_bits // 4))


# Fixed-point guard over the certified precision. The floor divisions leave
# about one unit of error per lattice point, and column m multiplies it by k^m
# where the terms themselves are already tiny; widening by the measured
# shortfall covers inputs this default does not.
_GUARD_BITS = 64
_GUARD_BITS_PER_COLUMN = 14
_WIDENINGS = 4
# Bits a table's lattice pass sums beyond its mantissa. The pass certifies all
# but 32 of them, so each column's interval is 2^-(mantissa + 64) relative
# wide when it meets the rounding test.
_ROUNDING_GUARD_BITS = 96


@dataclass(frozen=True)
class _LatticeSums:
    """Columns sums[m] ~ rho_m 2^scale of one lattice pass.

    Each column is within 2^-(bits - 32) |sums[m]| of the exact moment, tail
    and rounding included.
    """

    sums: tuple[int, ...]
    scale: int
    bits: int

    def rounded(self, bits: int) -> list:
        """The moments rounded once to a ``bits``-bit mantissa."""
        with workprec(bits):
            return [mpf((s, -self.scale)) for s in self.sums]

    def correctly_rounded(self, bits: int) -> list | None:
        """The moments rounded to ``bits``, or None unless every rounding is proven.

        Column m's certified interval s +- ((|s| >> (self.bits - 32)) + 1)
        holds the exact moment. Rounding to nearest is monotone, so when both
        ends round to the same value, the exact moment rounds to it too.
        """
        values = []
        for s in self.sums:
            radius = (abs(s) >> (self.bits - 32)) + 1
            low = from_man_exp(s - radius, -self.scale, bits, round_nearest)
            if low != from_man_exp(s + radius, -self.scale, bits, round_nearest):
                return None
            values.append(mp.make_mpf(low))
        return values


def _refuse_uncertifiable(w: HypergeometricWeight, classification: ConvergenceClass, m_max: int):
    """Raise before any summation when no certified table of depth m_max exists."""
    if not classification.converges:
        raise DivergentSeries(f"moments diverge for weight {w.spec_string()}")
    if classification.kind != "boundary":
        return
    # |eta| = 1 and M = N+1: w(k) ~ k^(sum a - sum b - 1), so rho_m converges
    # only for m < sum b - sum a, or m < sum b - sum a + 1 when eta = -1
    # makes the series alternate.
    order = sum(w.b) - sum(w.a) + (1 if w.eta < 0 else 0)
    if m_max >= order:
        raise DivergentSeries(
            f"moment rho_{m_max} diverges for weight {w.spec_string()}: "
            f"the terms decay like k^(m - {sum(w.b) - sum(w.a) + 1})"
        )
    raise TermBudgetExceeded(
        f"weight {w.spec_string()} has term ratio tending to 1; a ratio-1 tail "
        "cannot be certified by a geometric bound"
    )


def _ratio_sup(w: HypergeometricWeight, k: int) -> Fraction | None:
    """A bound on |w(j+1)/w(j)| valid for every j >= k, or None while none is known.

    Numerator factors a_i + j are paired with the denominator factors 1 + j,
    b_1 + j, ...; each pair is monotone in j, so its supremum is its value at
    k or its limit 1. Unpaired denominator factors decrease, and so do
    |eta2|^(2j+1) and |eta3|^(3j^2+3j+1). Unpaired numerator factors (a
    deformed weight with M > N + 1) are absorbed by the deformation once the
    logarithmic derivative sum 1/(a_i+j) + 2 ln|eta2| + (6j+3) ln|eta3| is
    nonpositive for all j >= k, bounded above with ln x <= x - 1.
    """
    if any(x + k <= 0 for x in w.a + w.b):
        return None
    dens = (Fraction(1),) + w.b
    paired = min(len(w.a), len(dens))
    eta2, eta3 = abs(w.eta2), abs(w.eta3)
    bound = abs(w.eta) * eta2 ** (2 * k + 1) * eta3 ** (3 * k * k + 3 * k + 1)
    for ai, bj in zip(w.a, dens):
        bound *= max(Fraction(1), (ai + k) / (bj + k))
    for bj in dens[paired:]:
        bound /= bj + k
    extra = w.a[paired:]
    if extra:
        slope = sum(1 / (ai + k) for ai in extra) + 2 * (eta2 - 1) + (6 * k + 3) * (eta3 - 1)
        if slope > 0:
            return None
        for ai in extra:
            bound *= ai + k
    return bound


def _tail_certified(w, k: int, magnitude: int, sums: list, shift: int) -> bool:
    """Whether every column's tail past k is at most 2^-shift |sums[m]|.

    magnitude bounds |w(k)| 2^scale (computed value plus its error). With
    rho >= sup_{j >= k} |(j+1)^m w(j+1) / (j^m w(j))|, the tail is at most
    k^m magnitude rho / (1 - rho).
    """
    sup = _ratio_sup(w, k)
    if sup is None:
        return False
    sn, sd = sup.numerator, sup.denominator
    for m in reversed(range(len(sums))):
        km, k1m = k**m, (k + 1) ** m
        room = sd * km - sn * k1m  # (1 - rho) sd k^m with rho = sn (k+1)^m / (sd k^m)
        if room <= 0 or (magnitude * km * sn * k1m) << shift > abs(sums[m]) * room:
            return False
    return True


def _fixed_point_pass(w, last, m_max: int, bits: int, scale: int):
    """One pass over k accumulating every column k^m W_k, W_k ~ w(k) 2^scale.

    W_{k+1} = floor(W_k num_k / den_k) with the exact term ratio; each column
    then gains its term by repeated exact multiplication by k. Alongside, a
    bound on |W_k - w(k) 2^scale| follows e_{k+1} <= e_k |num_k| / den_k + 1
    (the 1 only for an inexact division), and each column sums k^m e_k.
    Returns (sums, error bounds). Stops after k = last for finite support,
    otherwise once every tail is below 2^-(bits - 31) of its column.
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
            return sums, errors
        # The bit-length gate only skips the exact test while the last
        # column's term is far from its stop threshold; skipping never stops
        # early, it can only delay a stop by a few terms.
        if (
            last is None
            and k
            and (abs(t) + e).bit_length() + shift <= abs(sums[-1]).bit_length() + 64
            and _tail_certified(w, k, abs(value) + err, sums, shift)
        ):
            return sums, errors
        num, den = term_ratio(w, k)
        value, rem = divmod(value * num, den)
        err = -(-err * abs(num) // den) + (1 if rem else 0)
    raise TermBudgetExceeded(
        f"moments up to m={m_max} did not converge within {MAX_TERMS} terms "
        f"for weight {w.spec_string()}"
    )


def _lattice_sums(
    w: HypergeometricWeight, classification: ConvergenceClass, m_max: int, bits: int
) -> _LatticeSums:
    """rho_0 .. rho_{m_max}, each certified to 2^-(bits - 32) relative, in one pass.

    The tail and the accumulated floor-division error each get half the
    budget. When the rounding half fails, the guard widens by the shortfall
    and the pass reruns; nothing is returned uncertified.
    """
    _refuse_uncertifiable(w, classification, m_max)
    guard = _GUARD_BITS + _GUARD_BITS_PER_COLUMN * m_max
    shift = bits - 31
    for _ in range(_WIDENINGS):
        sums, errors = _fixed_point_pass(w, classification.q, m_max, bits, bits + guard)
        short = max(
            (
                (err << shift).bit_length() - abs(s).bit_length() + 1
                for s, err in zip(sums, errors)
                if err << shift > abs(s)
            ),
            default=0,
        )
        if short <= 0:
            return _LatticeSums(tuple(sums), bits + guard, bits)
        guard += short + 32
    raise TermBudgetExceeded(
        f"rounding error of the moment series for weight {w.spec_string()} "
        f"could not be certified to {bits - 32} bits"
    )


def _rounded_moments(
    w: HypergeometricWeight, classification: ConvergenceClass, m_max: int, ctx: PrecisionContext
) -> tuple[_LatticeSums, list]:
    """A lattice pass and rho_0 .. rho_{m_max} rounded to ctx.mantissa_bits.

    The pass runs at mantissa_bits + _ROUNDING_GUARD_BITS. When the rounding
    test proves every column, the values are the correctly rounded moments;
    otherwise one pass at ctx.verify_bits runs and is rounded as it stands.
    """
    sums = _lattice_sums(w, classification, m_max, ctx.mantissa_bits + _ROUNDING_GUARD_BITS)
    values = sums.correctly_rounded(ctx.mantissa_bits)
    if values is None:
        sums = _lattice_sums(w, classification, m_max, ctx.verify_bits)
        values = sums.rounded(ctx.mantissa_bits)
    return sums, values


def moment(w: HypergeometricWeight, m: int, ctx: PrecisionContext) -> mpf:
    """rho_m as a one-shot series evaluation."""
    return _rounded_moments(w, classify_convergence(w), m, ctx)[1][m]


class MomentTable:
    """Immutable table rho_0 .. rho_{m_max} for one weight at one precision.

    One lattice pass at ctx.mantissa_bits + 96 bits, rounded once after the
    rounding test proves every column, so each value is the correctly rounded
    moment and depends on the weight alone, not on the depth or the pass
    precision (if the test fails, the values are a verify_bits pass rounded).
    ``rebuilt`` serves other mantissas. Also memoizes generalized Hankel
    determinants det[rho_{r_i + j}] keyed by the (sorted) row-index tuple;
    these are the building blocks of the exact flow-derivative engine.
    """

    def __init__(self, w: HypergeometricWeight, m_max: int, ctx: PrecisionContext):
        classification = classify_convergence(w)
        sums, values = _rounded_moments(w, classification, m_max, ctx)
        self._fill(w, m_max, ctx, classification, sums, values)

    def _fill(self, w, m_max, ctx, classification, sums: _LatticeSums, values: list) -> None:
        self.weight = w
        self.ctx = ctx
        self.m_max = m_max
        self.classification = classification
        self._sums = sums
        self.values = values
        self._det_cache: dict[tuple[int, ...], mpf] = {}
        self._rebuilt: dict[int, "MomentTable"] = {}

    def moment(self, m: int) -> mpf:
        if m < 0 or m > self.m_max:
            raise IndexOutOfTable(f"moment index {m} outside table depth {self.m_max}")
        return self.values[m]

    def rebuilt(self, bits: int) -> "MomentTable":
        """The same moments at another mantissa, built once per mantissa.

        When the rounding test proves this table's lattice pass at ``bits``,
        the values are that pass rounded again and nothing is summed;
        otherwise, as for any mantissa beyond the pass's certified bits, a new
        table with its own pass is built.
        """
        if bits == self.ctx.mantissa_bits:
            return self
        if bits not in self._rebuilt:
            ctx = PrecisionContext(mantissa_bits=bits)
            values = self._sums.correctly_rounded(bits)
            if values is None:
                table = MomentTable(self.weight, self.m_max, ctx)
            else:
                table = MomentTable.__new__(MomentTable)
                table._fill(self.weight, self.m_max, ctx, self.classification, self._sums, values)
            self._rebuilt[bits] = table
        return self._rebuilt[bits]

    def det_rows(self, rows: tuple[int, ...]) -> mpf:
        """det of the square matrix with entries rho_{rows[i] + j}."""
        if rows in self._det_cache:
            return self._det_cache[rows]
        k = len(rows)
        if rows and rows[-1] + k - 1 > self.m_max:
            raise IndexOutOfTable(
                f"determinant rows {rows} need moment {rows[-1] + k - 1}, "
                f"table depth is {self.m_max}"
            )
        with workprec(self.ctx.mantissa_bits):
            dense = [[self.values[r + j] for j in range(k)] for r in rows]
            value = lu_determinant(dense)
        self._det_cache[rows] = value
        return value


@dataclass(frozen=True)
class HankelTruncation:
    """Size-k leading window of the moment matrix; entries shared with the table."""

    table: MomentTable
    size: int

    def to_dense(self) -> Matrix:
        k = self.size
        vals = self.table.values
        return [[vals[n + m] for m in range(k)] for n in range(k)]


def _check_support(table: MomentTable, k: int) -> None:
    """Refuse a size-k window beyond a finite support's q + 1 points."""
    cap = table.classification.support_cap
    if cap is not None and k > cap:
        raise TruncationTooLarge(
            f"finite-support weight admits truncations up to {cap}, requested {k}"
        )


def gram_truncation(table: MomentTable, k: int) -> HankelTruncation:
    if k < 1:
        raise ValueError("truncation size must be positive")
    if 2 * k - 2 > table.m_max:
        raise IndexOutOfTable(f"size {k} needs moment {2 * k - 2}, table depth {table.m_max}")
    _check_support(table, k)
    return HankelTruncation(table, k)


def hankel_determinant(table: MomentTable, k: int) -> mpf:
    """det G[k]."""
    if k == 0:
        return mpf(1)
    _check_support(table, k)
    return table.det_rows(tuple(range(k)))


def _ldl_of_dense(dense: Matrix, bits: int) -> tuple[Matrix, list]:
    with workprec(bits):
        scale = max(abs(dense[i][j]) for i in range(len(dense)) for j in range(len(dense)))
        floor = mpf(2) ** (-(bits // 2)) * scale
        return ldl_no_pivot(dense, floor)


@dataclass
class CholeskyFactorization:
    """G = S^{-1} H S^{-T} data for one truncation.

    s is dense unit lower triangular; h the diagonal. confirmed_bits measures
    agreement with the elimination redone at ctx.verify_bits on the verify
    table ``table.rebuilt(verify_bits)``, whose moments are correctly rounded
    from a lattice pass of their own (the moments themselves are certified by
    their tail and rounding bounds); a nan error ranks worst and reads as nan
    bits. It is computed the first time it is read, and that read pays for
    the doubled-precision pass; no report reads it yet.
    """

    s: Matrix
    s_inv: Matrix
    h: list
    size: int
    table: MomentTable
    ctx: PrecisionContext

    @cached_property
    def confirmed_bits(self) -> float:
        vbits = self.ctx.verify_bits
        dense = HankelTruncation(self.table.rebuilt(vbits), self.size).to_dense()
        l2, d2 = _ldl_of_dense(dense, vbits)
        with workprec(vbits):
            worst = mpf(0)
            for n in range(self.size):
                err = abs(self.h[n] - d2[n]) / abs(d2[n])
                if exceeds(err, worst):
                    worst = err
                for j in range(n):
                    ref = abs(l2[n][j])
                    if ref > 0:
                        err = abs(self.s_inv[n][j] - l2[n][j]) / ref
                        if exceeds(err, worst):
                            worst = err
            if worst == 0:
                return float(vbits)
            return float(-mp.log(worst, 2))

    def p(self, j: int, n: int):
        """Coefficient p^j_n of z^(n-j) in the monic polynomial of degree n."""
        if j == 0:
            return mpf(1)
        if j > n:
            return mpf(0)
        return self.s[n][n - j]

    def h_floor(self) -> mpf:
        """Smallest |H_n|, used as the scale floor in residual reports."""
        return min(abs(x) for x in self.h)


def cholesky(g: HankelTruncation) -> CholeskyFactorization:
    """Factor the truncation at the working precision of its moment table.

    No row exchanges: a small pivot raises SingularTruncation rather than
    permuting (permutation would sever the orthogonal-polynomial reading of S).
    """
    ctx = g.table.ctx
    l, d = _ldl_of_dense(g.to_dense(), ctx.mantissa_bits)
    with workprec(ctx.mantissa_bits):
        s = unit_lower_inverse(l)
    return CholeskyFactorization(s=s, s_inv=l, h=list(d), size=g.size, table=g.table, ctx=ctx)


def moments_to_csv(table: MomentTable, fileobj) -> None:
    """Write columns (m, rho_m) with rho_m as a full-precision decimal string."""
    writer = csv.writer(fileobj)
    writer.writerow(["m", "rho_m"])
    for m, value in enumerate(table.values):
        writer.writerow([m, decimal_str(value, table.ctx.mantissa_bits)])
