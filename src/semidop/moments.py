"""Precision-controlled moment series, Hankel truncations and their Cholesky data.

Moments are rho_m = sum_k k^m w(k). One fixed-point pass over the lattice
sums every column rho_0 .. rho_{m_max} at once from the fixed-point terms of
``weights.fixed_point_terms``, which the orthogonality witness reads too
(``MomentTable.lattice_weights``), and stops on a rigorous geometric tail
bound. The exact tail test runs only near the stop: a bit-length gate opens
it within 64 bits of the threshold or once the term has underflowed into its
own error bound, and a failed test names the terms to sum before the next.
The floor-division error gets one bound per pass, from the largest error of
any term. So a pass leaves each column as one certified
interval: its sum, plus or minus that error bound and, for an infinite series,
the tail bound; a finite support has no tail, and a column whose divisions
were all exact has radius 0. One function climbs the precision ladder: passes
at the working mantissa plus 96 bits, plus 224 bits and at verify_bits, in
increasing order, until a rounding test in the style of Ziv (ACM TOMS 17,
1991) proves that both ends of every interval round to the same
working-precision value, which is therefore the correctly rounded moment. If
no rung proves it, the last pass is rounded as it stands.

A table keeps its accepted pass (``LatticePass``): the column sums S_m over
k <= K, their error bounds, the scale, the rung's bits, K and a bound on the
last term. Weights whose term ratio tends to 1 (the ``boundary`` class) are
refused before any summation: DivergentSeries when a requested moment
diverges, TermBudgetExceeded when only a ratio-1 tail stands between the
series and a certificate.

Truncations G[k] with entries rho_{n+m} factor as G = S^{-1} H S^{-T} (S unit
lower triangular, H diagonal); S encodes the monic orthogonal polynomial
coefficients and H their squared norms. The factorization runs at the working
precision only. Its confirmation, the elimination redone at verify_bits on a
verify-precision table with its own lattice pass, runs when
``confirmed_bits`` is first read, and only then. Generalized Hankel
determinants det[rho_{r_i + j}] whose rows start (0, ..., p-1) are tau_p
times a small Schur complement, from one partially pivoted LU of the leading
block G_p per table and p; they never read the factorization, so the
determinant route stays independent of it. Every public routine runs
under an explicit PrecisionContext and is deterministic: fixed summation
order, fixed pivoting, no randomness. Along flow l, which maps rho_m to
rho_{m+l}, ``flow_jet`` differentiates the factorization itself.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import ceil, log, log1p

from mpmath import mp, mpf, workprec
from mpmath.libmp import from_man_exp, round_nearest

from .errors import (
    DivergentSeries,
    IndexOutOfTable,
    TermBudgetExceeded,
    TruncationTooLarge,
)
from .linalg import (
    LUFactors,
    Matrix,
    exceeds,
    ldl_no_pivot,
    lu_column_solve,
    lu_determinant,
    lu_factor,
    lu_row_solve,
    mat_mul,
    product_sum,
    schur_complement,
    unit_lower_inverse,
)
from .weights import (
    ConvergenceClass,
    HypergeometricWeight,
    classify_convergence,
    fixed_point_terms,
    to_mpf,
)


def decimal_digits(bits: int) -> int:
    """The significant digits that carry the full precision of ``bits``."""
    return int(bits * 0.30103) + 3


def decimal_str(x, bits: int) -> str:
    """Decimal rendering of an mpf carrying the full precision of ``bits``."""
    if not isinstance(x, mpf):
        with workprec(bits):
            x = to_mpf(x) if isinstance(x, Fraction) else mpf(x)
    return mp.nstr(x, decimal_digits(bits))


# The lattice points a moment series may visit before it is refused. The
# orthogonality witness walks the points of the accepted pass with the same
# fixed-width term generator, so this bounds its time too.
MAX_TERMS = 100_000


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision.

    Moment tables are correctly rounded to mantissa_bits from the first
    lattice pass that proves the rounding, on the ladder mantissa_bits + 96,
    mantissa_bits + 224 and verify_bits taken in increasing order.
    verify_bits, twice the working mantissa, is also the precision at which a
    factorization's confirmation redoes the elimination when its
    ``confirmed_bits`` is read; no report reads it yet.
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
# Bits beyond its mantissa of the two lower rungs of a table's precision
# ladder; verify_bits is the third. A pass certifies all but 32 of them, so a
# column's interval is 2^-(mantissa + 64) relative wide at the first rung. The
# moments of a weight perturbed by a dyadic step, as the flow witnesses at
# eta (1 + 2^-128) are, can sit within 2^-128 ulp of a rounding midpoint; the
# second rung proves them for less than a verify_bits pass.
_ROUNDING_GUARD_BITS = (96, 224)


def _refuse_uncertifiable(w: HypergeometricWeight, classification: ConvergenceClass, m_max: int):
    """Raise before any summation when no certified table of depth m_max exists."""
    if not classification.converges:
        raise DivergentSeries(f"moments diverge for weight {w.spec_string()}")
    if classification.kind != "boundary":
        return
    # |eta| = 1 and M = N+1: w(k) ~ k^(sum a - sum b - 1), so rho_m converges
    # only for m < sum b - sum a, or m < sum b - sum a + 1 when eta = -1
    # makes the series alternate. The refusal names the first divergent
    # moment, whatever depth was asked for.
    order = ceil(sum(w.b) - sum(w.a) + (1 if w.eta < 0 else 0))
    if m_max >= order:
        raise DivergentSeries(
            f"moment rho_{order} diverges for weight {w.spec_string()}: "
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


def _tail_shortfall(w, k: int, magnitude: int, sums: list, shift: int) -> int:
    """The exact tail test: 0 when every column's tail past k is at most
    2^-shift |sums[m]|, otherwise how many more terms to sum before testing again.

    magnitude bounds |w(k)| 2^scale (computed value plus its error). With
    rho >= sup_{j >= k} |(j+1)^m w(j+1) / (j^m w(j))|, the tail is at most
    k^m magnitude rho / (1 - rho). Column m's terms fall at least by rho per
    further term, so a column whose bound is short by a factor F is certified
    about log(F) / log(1/rho) terms later; that count is returned for the
    first column found short (1 while no rho < 1 is known). The count only
    spaces the tests: the pass stops only where this test returns 0.
    """
    sup = _ratio_sup(w, k)
    if sup is None:
        return 1
    sn, sd = sup.numerator, sup.denominator
    for m in reversed(range(len(sums))):
        km, k1m = k**m, (k + 1) ** m
        room = sd * km - sn * k1m  # (1 - rho) sd k^m with rho = sn (k+1)^m / (sd k^m)
        if room <= 0:
            return 1
        bound, budget = (magnitude * km * sn * k1m) << shift, abs(sums[m]) * room
        if bound > budget:
            if not budget:
                return 1
            rate = log1p(room / (sn * k1m))  # ln(1 / rho), 0 when it underflows
            terms = (log(bound) - log(budget)) / rate if rate else MAX_TERMS
            return max(1, ceil(min(terms, MAX_TERMS)))
    return 0


@dataclass(frozen=True)
class LatticePass:
    """One fixed-point pass over the points 0 .. last at 2^scale, at rung ``bits``.

    sums[m] = sum_{k <= last} k^m W_k and errors[m] >= |sums[m] - sum_{k <= last}
    k^m w(k) 2^scale|; last_term is (W_last, e_last), the pass's last term and
    its error bound.
    """

    sums: list
    errors: list
    scale: int
    bits: int
    last: int
    last_term: tuple[int, int]


def _fixed_point_pass(w, last, m_max: int, bits: int, scale: int) -> LatticePass:
    """One pass over k accumulating every column k^m W_k, with (W_k, e_k) from
    ``fixed_point_terms(w, scale)``.

    Each column gains its term by repeated exact multiplication by k. Of the
    bounds e_k >= |W_k - w(k) 2^scale| only the largest is kept: with
    K the last point summed, column m's error sum_{k <= K} k^m e_k is at most
    e_max (K + 1) K^m, one bound per pass rather than a second running sum per
    column; it is 0 exactly when every division was exact.

    Stops after k = last for finite support, otherwise at the first k where
    the exact tail test ``_tail_shortfall`` certifies every tail below
    2^-(bits - 31) of its column. A bit-length gate keeps the test closed
    until the last column's term is within 64 bits of that threshold, or the
    term W_k is no larger than its own error bound (it has underflowed to 0
    or stuck at -1, and no later term can bring the gate closer), and after
    a failed test the pass sums the terms the test asks for before
    testing again, never waiting past the last point of the budget. Neither
    can stop the pass, only delay a stop, and a later stop leaves every
    correctly rounded moment as it is.
    """
    cols = m_max + 1
    sums = [0] * cols
    err_max = 0
    shift = bits - 31
    test_at = 1
    for k, (value, err) in zip(range(MAX_TERMS), fixed_point_terms(w, scale)):
        t = value
        sums[0] += t
        for m in range(1, cols):
            t *= k
            sums[m] += t
        if err > err_max:
            err_max = err
        if k == last:
            break
        if (
            last is None
            and k >= test_at
            and (
                abs(t).bit_length() + shift <= abs(sums[-1]).bit_length() + 64
                or abs(value) <= err
            )
        ):
            wait = _tail_shortfall(w, k, abs(value) + err, sums, shift)
            if not wait:
                break
            test_at = min(k + wait, MAX_TERMS - 1)
    else:
        raise TermBudgetExceeded(
            f"moments up to m={m_max} did not converge within {MAX_TERMS} terms "
            f"for weight {w.spec_string()}"
        )
    bound = err_max * (k + 1)
    return LatticePass(sums, [bound * k**m for m in range(cols)], scale, bits, k, (value, err))


def _ziv_rounded(sums: list, radii: list, scale: int, target: int) -> list | None:
    """Each interval sums[m] +- radii[m] (units of 2^-scale) rounded to target
    bits, or None unless both ends of every interval round to the same value.

    Rounding to nearest is monotone, so a value that passes is the correctly
    rounded value of every point of its interval (a Ziv-style test; an exact
    column, radius 0, always passes).
    """
    values = []
    for s, radius in zip(sums, radii):
        low = from_man_exp(s - radius, -scale, target, round_nearest)
        if low != from_man_exp(s + radius, -scale, target, round_nearest):
            return None
        values.append(mp.make_mpf(low))
    return values


def _ladder(w, classification: ConvergenceClass, m_max: int, ctx: PrecisionContext):
    """The passes to round, in order: a walk at each rung of the ladder.

    The rungs are the mantissa plus each of _ROUNDING_GUARD_BITS, and
    verify_bits, in increasing order. Within a rung, the walk's guard widens
    by the measured shortfall until every errors[m] is at most
    2^-(bits - 31) |sums[m]|.
    """
    rungs = sorted({ctx.mantissa_bits + guard for guard in _ROUNDING_GUARD_BITS} | {ctx.verify_bits})
    for bits in rungs:
        shift = bits - 31
        scale = bits + _GUARD_BITS + _GUARD_BITS_PER_COLUMN * m_max
        for _ in range(_WIDENINGS):
            lattice = _fixed_point_pass(w, classification.q, m_max, bits, scale)
            short = max(
                (
                    (err << shift).bit_length() - abs(s).bit_length() + 1
                    for s, err in zip(lattice.sums, lattice.errors)
                    if err << shift > abs(s)
                ),
                default=0,
            )
            if short <= 0:
                break
            scale += short + 32
        else:
            raise TermBudgetExceeded(
                f"rounding error of the moment series for weight {w.spec_string()} "
                f"could not be certified to {bits - 32} bits"
            )
        yield lattice


def _rounded_moments(
    w: HypergeometricWeight,
    classification: ConvergenceClass,
    m_max: int,
    ctx: PrecisionContext,
) -> tuple[list, LatticePass]:
    """rho_0 .. rho_{m_max} rounded to ctx.mantissa_bits, from the first pass
    of ``_ladder`` that proves it, and that pass.

    Correctly rounded values are unique, so the pass a proof comes from does
    not change them. A pass at ``bits`` leaves column m as the interval
    sums[m] +- r_m (units of 2^-scale): r_m is the error bound errors[m], plus
    the tail bound (|sums[m]| >> (bits - 31)) + 1 that ``_tail_shortfall``
    certified at the pass's last point when the series is infinite.
    ``_ziv_rounded`` accepts the pass when every interval proves its rounding.
    If no pass proves them, the last one is rounded as it stands.

    For an infinite series the accepted pass ends at a K where ``_tail_shortfall``
    proved sum_{k > K} k^m |w(k)| <= 2^-(bits - 31) |rho_m| for every m <= m_max,
    with bits >= ctx.mantissa_bits + 96; for a finite support K is q.
    """
    _refuse_uncertifiable(w, classification, m_max)
    target = ctx.mantissa_bits
    tail = classification.q is None
    for lattice in _ladder(w, classification, m_max, ctx):
        shift = lattice.bits - 31
        radii = [
            err + ((abs(s) >> shift) + 1 if tail else 0)
            for s, err in zip(lattice.sums, lattice.errors)
        ]
        values = _ziv_rounded(lattice.sums, radii, lattice.scale, target)
        if values is not None:
            return values, lattice
    with workprec(target):
        return [mpf((s, -lattice.scale)) for s in lattice.sums], lattice


def moment(w: HypergeometricWeight, m: int, ctx: PrecisionContext) -> mpf:
    """rho_m as a one-shot series evaluation."""
    return _rounded_moments(w, classify_convergence(w), m, ctx)[0][m]


class MomentTable:
    """Immutable table rho_0 .. rho_{m_max} for one weight at one precision.

    The values are the correctly rounded moments, from the first pass of the
    precision ladder that proves every column's rounding, so they depend on
    the weight alone, not on the depth or the pass precision (if no rung proves
    them, they are the verify_bits pass rounded). ``rebuilt`` serves other
    mantissas. ``lattice_pass`` is the accepted pass. ``last_point`` is its
    K: q for a finite support, else a point past which every column's tail of
    k^m |w(k)| is certified below 2^-(mantissa_bits + 65) of its moment. The
    orthogonality witness sums
    ``lattice_weights`` over the points 0 .. K: the pass's own term
    generator, so K and the scale stay in this module.

    Also memoizes generalized Hankel determinants det[rho_{r_i + j}] keyed by
    the (sorted) row-index tuple; these are the building blocks of the exact
    flow-derivative engine. Beside them it keeps, per p, the pivoted LU of the
    leading p x p block G_p, and per (p, x) the solves of the moment slice
    rho_x .. rho_{x+p-1} against it, as a tail row and as a column: every
    determinant whose rows start (0, ..., p-1) reads them (see ``det_rows``).
    ``tau_derivatives[k][alpha]`` and ``log_tau_derivatives[k][alpha]`` hold
    the flow derivatives d^alpha tau_k and d^alpha log tau_k that ``flows``
    formed on this table, each once: an entry's bits do not depend on the jet
    it was requested in, so every later request reads it.
    """

    def __init__(self, w: HypergeometricWeight, m_max: int, ctx: PrecisionContext):
        classification = classify_convergence(w)
        values, lattice = _rounded_moments(w, classification, m_max, ctx)
        self._fill(w, m_max, ctx, classification, values, lattice)

    def _fill(self, w, m_max, ctx, classification, values: list, lattice) -> None:
        self.weight = w
        self.ctx = ctx
        self.m_max = m_max
        self.classification = classification
        self.values = values
        self.lattice_pass = lattice
        self._det_cache: dict[tuple[int, ...], mpf] = {}
        self.tau_derivatives: dict[int, dict[tuple, mpf]] = {}
        self.log_tau_derivatives: dict[int, dict[tuple, mpf]] = {}
        self._leading: dict[int, LUFactors] = {}
        self._row_solves: dict[tuple[int, int], list] = {}
        self._column_solves: dict[tuple[int, int], list] = {}
        self._rebuilt: dict[int, "MomentTable"] = {}

    @property
    def last_point(self) -> int:
        """K, the last lattice point of the table's accepted pass."""
        return self.lattice_pass.last

    def walk_scale(self, degree: int) -> int:
        """The mantissa plus the pass's guard for summands growing like k^degree."""
        return self.ctx.mantissa_bits + _GUARD_BITS + _GUARD_BITS_PER_COLUMN * degree

    def lattice_weights(self, degree: int):
        """w(0) .. w(K): each term W_k of ``fixed_point_terms`` at
        ``walk_scale(degree)`` rounded once to the mantissa."""
        bits, scale = self.ctx.mantissa_bits, self.walk_scale(degree)
        for _, (value, _) in zip(range(self.last_point + 1), fixed_point_terms(self.weight, scale)):
            yield mp.make_mpf(from_man_exp(value, -scale, bits, round_nearest))

    def moment(self, m: int) -> mpf:
        if m < 0 or m > self.m_max:
            raise IndexOutOfTable(f"moment index {m} outside table depth {self.m_max}")
        return self.values[m]

    def rebuilt(self, bits: int) -> "MomentTable":
        """The same moments at another mantissa: a fresh table, built once per mantissa."""
        if bits == self.ctx.mantissa_bits:
            return self
        if bits not in self._rebuilt:
            self._rebuilt[bits] = MomentTable(self.weight, self.m_max, PrecisionContext(bits))
        return self._rebuilt[bits]

    def det_rows(self, rows: tuple[int, ...]) -> mpf:
        """det of the square matrix M with entries rho_{rows[i] + j}.

        With rows = (0, ..., p-1) + tail, p the longest such prefix, M is
        bordered by the leading Hankel block G_p, whose determinant is tau_p:

            M = [[G_p, A], [B, C]],  det M = tau_p det(C - B G_p^-1 A),

        with A = rho_{i+j} (i < p <= j < k) and B, C the tail rows. G_p gets
        one partially pivoted Crout LU, P G_p = L U, per table and p; it gives
        tau_p as the product of its pivots, bit for bit ``lu_determinant`` of
        G_p. Each tail row t is solved once per p as y_t = B_t U^-1 and each
        column j as z_j = L^-1 P A_j, so a determinant costs one s x s LU (s
        the tail length) of entries rho_{t+j} - y_t . z_j. Every entry of the
        factors, of y_t and z_j and of that Schur complement is one exact sum
        rounded once (a quotient divided once by its pivot), so the two routes
        to a determinant round differently but each entry only once. Without
        a leading block (p = 0), or when G_p has a zero pivot column, M takes
        one full LU.
        """
        if rows in self._det_cache:
            return self._det_cache[rows]
        k = len(rows)
        if rows and rows[-1] + k - 1 > self.m_max:
            raise IndexOutOfTable(
                f"determinant rows {rows} need moment {rows[-1] + k - 1}, "
                f"table depth is {self.m_max}"
            )
        p = 0
        while p < k and rows[p] == p:
            p += 1
        vals = self.values
        with workprec(self.ctx.mantissa_bits):
            lead = self._leading_lu(p) if p else None
            if lead is not None and p == k:
                value = lead.det
            elif lead is None or not lead.complete:
                value = lu_determinant([[vals[r + j] for j in range(k)] for r in rows])
            else:
                tail, cols = rows[p:], range(p, k)
                ys = [self._solve(self._row_solves, lu_row_solve, lead, p, t) for t in tail]
                zs = [self._solve(self._column_solves, lu_column_solve, lead, p, j) for j in cols]
                corner = [[vals[t + j] for j in cols] for t in tail]
                value = lead.det * lu_determinant(schur_complement(corner, ys, zs))
        self._det_cache[rows] = value
        return value

    def _leading_lu(self, p: int) -> LUFactors:
        """The pivoted LU of G_p, factored once per table."""
        if p not in self._leading:
            vals = self.values
            self._leading[p] = lu_factor([vals[i : i + p] for i in range(p)])
        return self._leading[p]

    def _solve(self, cache: dict, solve, lead: LUFactors, p: int, x: int) -> list:
        """``solve(lead, rho_x .. rho_{x+p-1})``, once per (p, x): G_p is a
        Hankel block, so tail row x and column x both read that slice."""
        key = (p, x)
        if key not in cache:
            cache[key] = solve(lead, self.values[x : x + p])
        return cache[key]


def _hankel_block(table: MomentTable, k: int) -> Matrix:
    """The leading k x k window G[k] of the moment matrix; its entries are the
    table's own values, so a Hankel shift holds by identity."""
    vals = table.values
    return [[vals[n + m] for m in range(k)] for n in range(k)]


def check_support(classification: ConvergenceClass, k: int, extra_rows: int = 0) -> None:
    """Refuse a size-k request whose window of k + extra_rows rows lies beyond
    a finite support's q + 1 points, naming k: a size-k pipeline or suite
    factors G[k + 1], so it passes extra_rows = 1."""
    if not classification.holds(k + extra_rows):
        raise TruncationTooLarge(
            "finite-support weight admits truncations up to "
            f"{classification.support_cap - extra_rows}, requested {k}"
        )


def hankel_determinant(table: MomentTable, k: int) -> mpf:
    """det G[k]."""
    if k == 0:
        return mpf(1)
    check_support(table.classification, k)
    return table.det_rows(tuple(range(k)))


def ldl_pivot_floor(scale, bits: int) -> mpf:
    """The smallest pivot an LDL at ``bits`` accepts: 2^-(bits/2) of the
    matrix scale. Call under workprec(bits)."""
    return mpf(2) ** (-(bits // 2)) * scale


def _ldl_of_dense(dense: Matrix, bits: int) -> tuple:
    """``ldl_no_pivot`` of dense at bits, the pivot floor from the largest
    entry of dense."""
    with workprec(bits):
        scale = max(abs(dense[i][j]) for i in range(len(dense)) for j in range(len(dense)))
        return ldl_no_pivot(dense, ldl_pivot_floor(scale, bits))


@dataclass
class CholeskyFactorization:
    """G = S^{-1} H S^{-T} data for one truncation.

    s is dense unit lower triangular; h the diagonal. confirmed_bits measures
    agreement with the elimination redone at table.ctx.verify_bits on the
    verify table ``table.rebuilt(verify_bits)``, a fresh table whose moments are
    correctly rounded to verify_bits by a precision ladder of their own (the
    moments themselves are certified by their intervals); both eliminations
    take their pivot floor from ``ldl_pivot_floor``. A nan error ranks worst
    and reads as nan bits. It is computed the first time it is read, and that
    read pays for the doubled-precision passes; no report reads it yet.
    """

    s: Matrix
    s_inv: Matrix
    h: list
    size: int
    table: MomentTable

    @cached_property
    def confirmed_bits(self) -> float:
        vbits = self.table.ctx.verify_bits
        l2, d2 = _ldl_of_dense(_hankel_block(self.table.rebuilt(vbits), self.size), vbits)
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


def cholesky(table: MomentTable, k: int) -> CholeskyFactorization:
    """Factor the size-k truncation G[k] at the working precision of its table.

    Refuses a size below 1, a truncation deeper than the table (G[k] reads
    rho_{2k-2}) and one beyond a finite support's q + 1 points. No row
    exchanges: a small pivot raises SingularTruncation rather than permuting
    (permutation would sever the orthogonal-polynomial reading of S).
    """
    if k < 1:
        raise ValueError("truncation size must be positive")
    if 2 * k - 2 > table.m_max:
        raise IndexOutOfTable(f"size {k} needs moment {2 * k - 2}, table depth {table.m_max}")
    check_support(table.classification, k)
    bits = table.ctx.mantissa_bits
    l, d = _ldl_of_dense(_hankel_block(table, k), bits)
    with workprec(bits):
        s = unit_lower_inverse(l)
    return CholeskyFactorization(s=s, s_inv=l, h=list(d), size=k, table=table)


@dataclass
class FlowJet:
    """The leading size x size block of a factorization, S and H, with their
    first and (order 2) second derivatives in the flow parameter t_l;
    ds_inv is d(S^-1) = dL."""

    size: int
    s: Matrix
    h: list
    ds: Matrix
    ds_inv: Matrix
    dh: list
    d2s: Matrix | None = None
    d2h: list | None = None


def flow_jet(chol: CholeskyFactorization, l: int, order: int, size: int) -> FlowJet:
    """The order-1 or order-2 flow-l jet of chol's leading size x size block.

    Along flow l the block is G + t [rho_{i+j+l}] + (t^2/2) [rho_{i+j+2l}] + ...,
    and its ``ldl_no_pivot`` with that pencil, seeded with chol's L = S^-1
    and H (the unpivoted LDL of a leading block is the leading block of the
    LDL), forms only their derivatives, to rounding and with no step. They
    have the bits of the unseeded elimination under the block's own pivot
    floor, which chol's pivots pass: that floor is taken from a block no
    larger than chol's. S = L^-1 gives dS = -S dL S and
    d2S = -(2 dS dL + S d2L) S. Refuses a size past chol's or a read past
    the table, rho_{2 size - 2 + order l}.
    """
    table, top = chol.table, 2 * size - 2 + order * l
    if not 1 <= size <= chol.size or top > table.m_max:
        raise IndexOutOfTable(
            f"flow-{l} jet of order {order} at size {size} needs moment {top} and "
            f"factorization size {size}; table depth {table.m_max}, size {chol.size}"
        )
    vals = table.values
    pencil = [[vals[i + q * l : i + q * l + size] for i in range(size)] for q in range(order + 1)]
    s = [row[:size] for row in chol.s[:size]]
    with workprec(table.ctx.mantissa_bits):
        # the seed takes no pivot test, so no floor is passed
        _, h, dl, dh, *second = ldl_no_pivot(pencil[0], 0, *pencil[1:], seed=(chol.s_inv, chol.h))
        ds = product_sum((-1, mat_mul(s, dl), s))
        jet = FlowJet(size, s, h, ds, dl, dh)
        if second:
            # 2 dS dL + S d2L, each entry one exact sum rounded once
            inner = product_sum((2, ds, dl), (1, s, second[0]))
            jet.d2s, jet.d2h = product_sum((-1, inner, s)), second[1]
    return jet


def moments_to_csv(table: MomentTable, fileobj) -> None:
    """Write columns (m, rho_m) with rho_m as a full-precision decimal string."""
    writer = csv.writer(fileobj)
    writer.writerow(["m", "rho_m"])
    for m, value in enumerate(table.values):
        writer.writerow([m, decimal_str(value, table.ctx.mantissa_bits)])
