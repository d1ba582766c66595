"""Small dense linear algebra over mpmath numbers.

Truncations in this package are tiny (k <= ~32), so dense row-major lists are
the only representation; matrices that are banded by theorem are read by
diagonal offset (``diagonal_of``) and their band is checked, not stored.
Products skip exact zeros, which J (tridiagonal), S and Pi (triangular) hold
by theorem, and keep the bits of the dense sum; a factor with a non-finite
entry, or with both int and mpf entries, takes the dense sum, and so do two
int factors, whose sum is exact. All elimination routines use fixed pivoting
rules so results are bit-stable.

The hot kernels (``mat_mul``, ``ldl_no_pivot``, ``unit_lower_inverse``,
``lu_factor`` with its solves and ``schur_complement``, the maxima and
``GramSums``) run on raw ``libmp`` values: they read each entry's ``_mpf_``
tuple once, loop with ``mpf_add``, ``mpf_mul`` and the rest at
``mp._prec_rounding`` read at call time, and wrap each result once with
``mp.make_mpf``; the LU factors and the solves stay raw, for the solves and
``schur_complement`` to read. The bit-identity rule: every libmp call
is the one the ``mpf`` operator would make, with the same arguments, precision
and rounding, in the same order, so the results are the operators' bits without
their per-operation dispatch and allocation. Comparisons use ``mpf_gt`` and
``mpf_lt``, as the operators do, never ``mpf_cmp``: ``mpf_cmp(fone, fnan)`` is
1, so a nan maximum or a nan pivot would be replaced where the operators keep
it. No other module does arithmetic on raw values.

Every check takes the maximum of its residuals through ``max_abs``,
``window_diff`` or ``out_of_band_max`` here, or through ``exceeds`` (which
``ResidualAccumulator`` uses for named parts). These maxima keep a nan, where
Python's ``max(mpf(0), nan)`` is 0, so a nan residual fails its check.
"""

from __future__ import annotations

from dataclasses import dataclass

from mpmath import mp, mpf
from mpmath.libmp import (
    fnan,
    fone,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_mul_int,
    mpf_neg,
    mpf_sub,
    normalize,
)

from .errors import SingularTruncation
from .weights import to_mpf

Matrix = list  # list[list[number]]


def _raw(x) -> tuple:
    """x's value as an ``_mpf_`` tuple, read as an mpf operator reads its operand."""
    return x._mpf_ if type(x) is mpf else mpf.mpf_convert_rhs(x)


def _wrapped(rows) -> Matrix:
    make = mp.make_mpf
    return [[make(v) for v in row] for row in rows]


def _unit_lower(n: int) -> list:
    """The raw identity, rows of fone on the diagonal and fzero elsewhere."""
    return [[fone if i == j else fzero for j in range(n)] for i in range(n)]


def zeros(n: int) -> Matrix:
    return [[mpf(0)] * n for _ in range(n)]


def identity(n: int) -> Matrix:
    out = zeros(n)
    for i in range(n):
        out[i][i] = mpf(1)
    return out


def shift_matrix(n: int) -> Matrix:
    """The upper shift: entries (i, i+1) = 1."""
    out = zeros(n)
    for i in range(n - 1):
        out[i][i + 1] = mpf(1)
    return out


def diag(values) -> Matrix:
    n = len(values)
    out = zeros(n)
    for i, v in enumerate(values):
        out[i][i] = v
    return out


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)]


def exceeds(v, best) -> bool:
    """Whether v replaces the running maximum best: v is larger, or v is nan.

    A nan maximum stays, since no value compares larger than nan.
    """
    return v > best or v != v


def _nonzero_rows(a):
    """(type, rows) when every entry of a is a finite value of one type, int or mpf.

    Each row lists (column, value) for its nonzero entries, an mpf as its
    ``_mpf_`` tuple; (None, None) when a mixes types or holds a nan or an
    infinity.
    """
    kind, rows = None, []
    for row in a:
        out = []
        for j, x in enumerate(row):
            kind = kind or type(x)
            if type(x) is not kind or kind not in (int, mpf):
                return None, None
            if kind is mpf:
                x = x._mpf_
                if not x[1] and x[2]:  # nan or an infinity
                    return None, None
            if x not in (0, fzero):
                out.append((j, x))
        rows.append(out)
    return kind, rows


def _int_times_mpf(x, y, prec, rnd):
    return mpf_mul_int(y, x, prec, rnd)


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, multiplying only the pairs of nonzero entries.

    Each entry starts from its first nonzero product and adds the others in
    ascending inner index. Adding an exact zero returns the other operand
    unchanged, so every entry has the bits and the type of the dense sum
    ``sum(a[i][l] * b[l][j] for l)``; one with no nonzero product is
    ``mpf(0)``. An mpf times an int is ``mpf_mul_int``, as the operator
    computes it. When either factor holds a non-finite entry or mixes types,
    the dense sum itself is taken: ``nan * 0`` is ``nan``, and the type of a
    sum follows its products. Two int factors take it too: their sum is exact.
    """
    k, m = len(b), len(b[0])
    kind_a, rows_a = _nonzero_rows(a)
    kind_b, rows_b = _nonzero_rows(b)
    if mpf not in (kind_a, kind_b) or None in (kind_a, kind_b):
        bt = list(zip(*b))
        return [[sum(row_a[l] * bt_j[l] for l in range(k)) for bt_j in bt] for row_a in a]
    if kind_a is int:
        mul = _int_times_mpf
    else:
        mul = mpf_mul_int if kind_b is int else mpf_mul
    prec, rnd = mp._prec_rounding
    zero, make = mpf(0), mp.make_mpf
    out = []
    for row_a in rows_a:
        acc = [None] * m
        for l, x in row_a:
            for j, y in rows_b[l]:
                p = mul(x, y, prec, rnd)
                acc[j] = p if acc[j] is None else mpf_add(acc[j], p, prec, rnd)
        out.append([zero if v is None else make(v) for v in acc])
    return out


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_vec(a: Matrix, v) -> list:
    return [sum(x * y for x, y in zip(row, v)) for row in a]


def commutator(a: Matrix, b: Matrix) -> Matrix:
    return mat_sub(mat_mul(a, b), mat_mul(b, a))


def _max_abs(entries):
    """The largest |x| over entries, a nan once met staying, by the operators' bits.

    The winner's |x| is taken again at the end, so an int maximum stays an int.
    """
    prec, rnd = mp._prec_rounding
    best, winner = fzero, mpf(0)
    for x in entries:
        v = mpf_abs(x._mpf_, prec, rnd) if type(x) is mpf else _raw(abs(x))
        if mpf_gt(v, best) or v == fnan:
            best, winner = v, x
    return abs(winner)


def max_abs(a: Matrix, window: int | None = None) -> mpf:
    if window is None:
        return _max_abs(x for row in a for x in row)
    n = min(window, len(a))
    return _max_abs(a[i][j] for i in range(n) for j in range(n))


def window_diff(a: Matrix, b: Matrix, window: int):
    """(max |a-b|, max(|a|,|b|)) over the leading window x window block."""
    scale = max_abs([[max_abs(a, window), max_abs(b, window)]])
    return max_abs(mat_sub(a, b), window), scale


def poly_of_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix by Horner.

    Horner starts from c_n A, whose entries are the single products c_n a_ij
    that (c_n I) A would round to.
    """
    n = len(a)
    if len(coeffs) == 1:
        return mat_scale(identity(n), to_mpf(coeffs[0]))
    acc = mat_scale(a, to_mpf(coeffs[-1]))
    for step, c in enumerate(reversed(coeffs[:-1])):
        if step:
            acc = mat_mul(acc, a)
        cm = to_mpf(c)
        for i in range(n):
            acc[i][i] = acc[i][i] + cm
    return acc


def unit_lower_inverse(l: Matrix) -> Matrix:
    """Invert a unit lower triangular matrix by forward substitution."""
    n = len(l)
    prec, rnd = mp._prec_rounding
    low = [[_raw(x) for x in row[:i]] for i, row in enumerate(l)]
    inv = _unit_lower(n)
    for j in range(n):
        for i in range(j + 1, n):  # solve L x = e_j in place
            s, row = fzero, low[i]
            for p in range(j, i):
                s = mpf_add(s, mpf_mul(row[p], inv[p][j], prec, rnd), prec, rnd)
            inv[i][j] = mpf_neg(s, prec, rnd)
    return _wrapped(inv)


def ldl_no_pivot(a: Matrix, pivot_floor) -> tuple[Matrix, list]:
    """A = L D L^T for symmetric A, unit lower L, no row exchanges.

    Raises SingularTruncation at the first pivot that is an exact zero or has
    |pivot| < pivot_floor. Row exchanges are deliberately not attempted: they
    would break the triangular correspondence this factorization exists to
    expose.
    """
    n = len(a)
    prec, rnd = mp._prec_rounding
    low = [[_raw(x) for x in row[: i + 1]] for i, row in enumerate(a)]
    floor = _raw(pivot_floor)
    l = _unit_lower(n)
    d = [fzero] * n
    for j in range(n):
        row_j = l[j]
        acc = low[j][j]
        for p in range(j):
            t = mpf_mul(mpf_mul(row_j[p], row_j[p], prec, rnd), d[p], prec, rnd)
            acc = mpf_sub(acc, t, prec, rnd)
        if acc == fzero or mpf_lt(mpf_abs(acc, prec, rnd), floor):
            raise SingularTruncation(j)
        d[j] = acc
        for i in range(j + 1, n):
            row_i = l[i]
            s = low[i][j]
            for p in range(j):
                t = mpf_mul(mpf_mul(row_i[p], row_j[p], prec, rnd), d[p], prec, rnd)
                s = mpf_sub(s, t, prec, rnd)
            row_i[j] = mpf_div(s, acc, prec, rnd)
    return _wrapped(l), [mp.make_mpf(x) for x in d]


def _rounded(x, prec: int, rnd: str) -> tuple:
    """mpf(x)'s ``_mpf_``: x rounded to prec as the constructor rounds it."""
    if type(x) is not mpf:
        return mpf(x)._mpf_
    v = x._mpf_
    return v if not v[1] and v[2] else normalize(*v, prec, rnd)


@dataclass
class LUFactors:
    """P A = L U of a square matrix by partial pivoting, on raw ``libmp`` values.

    Column j pivots on the first entry of largest magnitude on or below the
    diagonal. ``rows`` holds U on and above the diagonal and the multipliers
    of L below it, in pivoted order; ``perm[i]`` is the row of A that became
    row i. ``det`` is the product of the pivots, negated at each row
    exchange, in step order. A pivot column that is zero stops the
    elimination: ``complete`` is False and ``det`` is 0, or nan while a nan is
    left in the remaining block, since a nan never wins the pivot search and
    can sit beside a column that is zero in the finite rows.
    """

    rows: list
    perm: list
    complete: bool
    det: mpf


def lu_factor(a: Matrix) -> LUFactors:
    """The partially pivoted LU of a, at the precision of the call."""
    prec, rnd = mp._prec_rounding
    work = [[_rounded(x, prec, rnd) for x in row] for row in a]
    n = len(work)
    perm = list(range(n))
    exchanged = []
    for j in range(n):
        pivot_row = j
        best = mpf_abs(work[j][j], prec, rnd)
        for i in range(j + 1, n):
            v = mpf_abs(work[i][j], prec, rnd)
            if mpf_gt(v, best):
                best = v
                pivot_row = i
        if best == fzero:
            nan_left = any(v == fnan for row in work[j:] for v in row[j:])
            return LUFactors(work, perm, False, mp.make_mpf(fnan if nan_left else fzero))
        exchanged.append(pivot_row != j)
        if pivot_row != j:
            work[j], work[pivot_row] = work[pivot_row], work[j]
            perm[j], perm[pivot_row] = perm[pivot_row], perm[j]
        row_j = work[j]
        pivot = row_j[j]
        for i in range(j + 1, n):
            row_i = work[i]
            factor = mpf_div(row_i[j], pivot, prec, rnd)
            row_i[j] = factor
            if factor != fzero:
                for p in range(j + 1, n):
                    row_i[p] = mpf_sub(row_i[p], mpf_mul(factor, row_j[p], prec, rnd), prec, rnd)
    det = fone
    for j, swapped in enumerate(exchanged):
        if swapped:
            det = mpf_neg(det, prec, rnd)
        det = mpf_mul(det, work[j][j], prec, rnd)
    return LUFactors(work, perm, True, mp.make_mpf(det))


def lu_determinant(a: Matrix) -> mpf:
    """Determinant by LU with partial pivoting: ``lu_factor(a).det``."""
    return lu_factor(a).det


def lu_row_solve(f: LUFactors, b: list) -> list:
    """The raw row vector y with y U = b, U the upper factor of a complete f."""
    prec, rnd = mp._prec_rounding
    u = f.rows
    y = []
    for j, x in enumerate(b):
        s = _rounded(x, prec, rnd)
        for i in range(j):
            s = mpf_sub(s, mpf_mul(y[i], u[i][j], prec, rnd), prec, rnd)
        y.append(mpf_div(s, u[j][j], prec, rnd))
    return y


def lu_column_solve(f: LUFactors, a: list) -> list:
    """The raw column z = L^-1 P a, L and P the lower factor and row order of f."""
    prec, rnd = mp._prec_rounding
    z = []
    for i, r in enumerate(f.perm):
        s = _rounded(a[r], prec, rnd)
        row = f.rows[i]
        for l in range(i):
            s = mpf_sub(s, mpf_mul(row[l], z[l], prec, rnd), prec, rnd)
        z.append(s)
    return z


def schur_complement(b: Matrix, ys: list, zs: list) -> Matrix:
    """Entries b[i][j] - ys[i] . zs[j], each product subtracted in ascending order.

    With ys from ``lu_row_solve`` and zs from ``lu_column_solve`` of G = P^T L U,
    this is B - C G^-1 A for the rows C and columns A those solves read.
    """
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    out = []
    for row, y in zip(b, ys):
        out_row = []
        for x, z in zip(row, zs):
            s = _rounded(x, prec, rnd)
            for yi, zi in zip(y, z):
                s = mpf_sub(s, mpf_mul(yi, zi, prec, rnd), prec, rnd)
            out_row.append(make(s))
        out.append(out_row)
    return out


class GramSums:
    """Running sums S[n][m] of p_n p_m w over lattice points, for m <= n < count.

    The sums stay raw between points; ``lower()`` wraps them once.
    """

    def __init__(self, count: int):
        self._sums = [[fzero] * (n + 1) for n in range(count)]

    def add(self, pvec: list, weight) -> mpf:
        """Add the point's terms p_n p_m weight; returns the largest |term|.

        As the operator loop it replaces, a nan term is summed but not counted.
        """
        prec, rnd = mp._prec_rounding
        p = [_raw(x) for x in pvec]
        w = _raw(weight)
        contrib = fzero
        for n, row in enumerate(self._sums):
            pn = p[n]
            for m in range(n + 1):
                term = mpf_mul(mpf_mul(pn, p[m], prec, rnd), w, prec, rnd)
                row[m] = mpf_add(row[m], term, prec, rnd)
                v = mpf_abs(term, prec, rnd)
                if mpf_gt(v, contrib):
                    contrib = v
        return mp.make_mpf(contrib)

    def lower(self) -> Matrix:
        """Row n holds S[n][0..n]."""
        return _wrapped(self._sums)


# -- diagonals and triangles ----------------------------------------------------

def diagonal_of(a: Matrix, d: int) -> list:
    """The entries a[i][i+d] in order of i; d < 0 reads a subdiagonal."""
    n = len(a)
    return [a[i][i + d] for i in range(max(0, -d), min(n, n - d))]


def strict_lower(a: Matrix) -> Matrix:
    """The entries below the diagonal; zeros elsewhere."""
    return [[x if j < i else mpf(0) for j, x in enumerate(row)] for i, row in enumerate(a)]


def upper_with_diagonal(a: Matrix) -> Matrix:
    """The entries on and above the diagonal; zeros elsewhere."""
    return [[x if j >= i else mpf(0) for j, x in enumerate(row)] for i, row in enumerate(a)]


def out_of_band_max(a: Matrix, lo: int, hi: int, window: int) -> mpf:
    """Largest |entry| at offsets outside [lo, hi], over the leading window."""
    return _max_abs(
        a[i][j] for i in range(window) for j in range(window) if not lo <= j - i <= hi
    )
