"""Small dense linear algebra over mpmath numbers.

Truncations in this package are tiny (k <= ~32), so dense row-major lists are
the only representation; matrices that are banded by theorem are read by
diagonal offset (``diagonal_of``) and their band is checked, not stored. All
elimination routines use fixed pivoting rules so results are bit-stable.

The hot kernels run on raw ``libmp`` values: they read each entry's ``_mpf_``
tuple once, compute at ``mp._prec_rounding`` read at call time, and wrap each
result once with ``mp.make_mpf``. No other module does arithmetic on raw
values. Each kernel keeps one of two contracts.

- Exact sums, one rounding per entry (Ogita, Rump and Oishi, SIAM J. Sci.
  Comput. 26, 2005): the products ``mat_mul`` and ``mat_vec``, and
  ``GramSums``, the accumulator of the orthogonality sums. A sum is one
  integer at one binary exponent, rounded once, where the operator loop
  rounds each product and each addition. Exact zeros, which J (tridiagonal),
  S and Pi (triangular) hold by theorem, add nothing and are skipped. Only
  sums that meet a nan or an infinity are the operators' bits.
- The operators' bits: the eliminations (``ldl_no_pivot``,
  ``unit_lower_inverse``, ``lu_factor`` with its solves and
  ``schur_complement``), the maxima and the polynomial recurrence
  ``three_term_values``. Every libmp call is the one the ``mpf`` operator
  would make, with the same arguments, precision and rounding, in the same
  order, so the results are the operators' bits without their per-operation
  dispatch and allocation (with a pencil, ``ldl_no_pivot`` keeps the rule for
  L and D; their derivatives have no operator counterpart). The LU factors
  and the solves stay raw, for the solves and ``schur_complement`` to read.
  Comparisons use ``mpf_gt`` and ``mpf_lt``, as the operators do, never
  ``mpf_cmp``: ``mpf_cmp(fone, fnan)`` is 1, so a nan maximum or a nan pivot
  would be replaced where the operators keep it.

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
    from_man_exp,
    fzero,
    mpf_abs,
    mpf_add,
    mpf_div,
    mpf_gt,
    mpf_lt,
    mpf_mul,
    mpf_neg,
    mpf_shift,
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


def _entries(a) -> tuple:
    """(rows, has_mpf): each row of a as (column, signed mantissa, exponent)
    for its finite nonzero entries, an int at exponent 0, and whether a holds
    an mpf; rows is None when a holds a nan or an infinity."""
    rows, has_mpf = [], False
    for row in a:
        out = []
        for j, x in enumerate(row):
            if type(x) is int:
                if x:
                    out.append((j, x, 0))
                continue
            has_mpf = True
            sign, man, exp, _ = _raw(x)
            if man:
                out.append((j, -man if sign else man, exp))
            elif exp:  # nan or an infinity
                return None, True
        rows.append(out)
    return rows, has_mpf


def _exact_product(a: Matrix, b: Matrix) -> Matrix:
    """``mat_mul``'s kernel. ``mat_vec`` calls it, not ``mat_mul``, so the
    benchmark's span of that name counts matrix products only."""
    rows_a, mpf_a = _entries(a)
    rows_b, mpf_b = _entries(b)
    if rows_a is None or rows_b is None:
        bt = list(zip(*b))
        return [[sum(x * y for x, y in zip(row_a, bt_j)) for bt_j in bt] for row_a in a]
    m = len(b[0])
    prec, rnd = mp._prec_rounding
    zero, make = mpf(0), mp.make_mpf
    out = []
    for row_a in rows_a:
        mans, exps = [0] * m, [None] * m
        for l, ma, ea in row_a:
            for j, mb, eb in rows_b[l]:
                e, cur = ea + eb, exps[j]
                if cur is None:
                    mans[j], exps[j] = ma * mb, e
                elif e >= cur:
                    mans[j] += (ma * mb) << (e - cur)
                else:
                    mans[j], exps[j] = (mans[j] << (cur - e)) + ma * mb, e
        if mpf_a or mpf_b:
            mans = [make(from_man_exp(s, e, prec, rnd)) if s else zero for s, e in zip(mans, exps)]
        out.append(mans)
    return out


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, each entry the exact sum of its products, rounded once.

    An entry is one int at the smallest exponent of its products so far, and
    ``from_man_exp`` rounds it at the precision in effect. With an mpf in
    either factor every entry is an mpf, ``mpf(0)`` for an exact zero; two int
    factors give exact ints. A factor with a nan or an infinity takes the
    operator dense sum ``sum(a[i][l] * b[l][j] for l)``: ``nan * 0`` is nan.
    """
    return _exact_product(a, b)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mat_scale(a: Matrix, c) -> Matrix:
    return [[x * c for x in row] for row in a]


def mat_vec(a: Matrix, v) -> list:
    """a v, as ``mat_mul`` computes a times the column v."""
    return [row[0] for row in _exact_product(a, [[x] for x in v])]


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
    """(max |a-b|, max(|a|,|b|)) over the leading window x window block; only
    that block of a - b is formed."""
    scale = max_abs([[max_abs(a, window), max_abs(b, window)]])
    n = min(window, len(a), len(b))
    return _max_abs(a[i][j] - b[i][j] for i in range(n) for j in range(n)), scale


def poly_of_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix by Horner.

    Horner starts from c_n A, whose entries are the single products c_n a_ij
    that (c_n I) A would round to. Call under workprec: the coefficients are
    rounded at the precision in effect.
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


def _taylor_term(x: list, v: list, k: int, prec: int, rnd: str) -> tuple:
    """Coefficient k of the product of the truncated series x and v."""
    s = mpf_mul(x[0], v[k], prec, rnd)
    for i in range(1, k + 1):
        s = mpf_add(s, mpf_mul(x[i], v[k - i], prec, rnd), prec, rnd)
    return s


def _taylor_ldl(a: Matrix, pencil: tuple, floor: tuple) -> tuple:
    """``ldl_no_pivot`` of A + t A' + (t^2 / 2) A'' on truncated Taylor series,
    each entry the list of its coefficients x^(k)(0) / k!.

    Coefficient 0 takes the plain kernel's libmp calls in its order, so L and
    D are its bits. Coefficient k of an update l_ip l_jp d_p is that of
    l_ip (l_jp d_p), the second factor formed once per (j, p); of a quotient
    s / d it is (s_k - sum_{m < k} q_m d_{k-m}) / d_0.
    """
    n, r = len(a), len(pencil) + 1
    prec, rnd = mp._prec_rounding
    # the second derivative's Taylor coefficient is half of it, exactly
    low = [
        [[mpf_shift(_raw(c[i][j]), -(k // 2)) for k, c in enumerate((a,) + pencil)]
         for j in range(i + 1)]
        for i in range(n)
    ]
    l, d = [[] for _ in range(n)], []
    for j in range(n):
        v = [[_taylor_term(x, dp, k, prec, rnd) for k in range(r)] for x, dp in zip(l[j], d)]
        for i in range(j, n):
            s = list(low[i][j])
            for p in range(j):
                x, y = l[i][p], l[j][p]
                t = mpf_mul(mpf_mul(x[0], y[0], prec, rnd), d[p][0], prec, rnd)
                s[0] = mpf_sub(s[0], t, prec, rnd)
                for k in range(1, r):
                    s[k] = mpf_sub(s[k], _taylor_term(x, v[p], k, prec, rnd), prec, rnd)
            if i == j:
                if s[0] == fzero or mpf_lt(mpf_abs(s[0], prec, rnd), floor):
                    raise SingularTruncation(j)
                d.append(s)
                continue
            q = []
            for k in range(r):
                for m in range(k):
                    s[k] = mpf_sub(s[k], mpf_mul(q[m], d[j][k - m], prec, rnd), prec, rnd)
                q.append(mpf_div(s[k], d[j][0], prec, rnd))
            l[i].append(q)
    for i, row in enumerate(l):
        row += [[fone] + [fzero] * (r - 1)] + [[fzero] * r] * (n - i - 1)
    make = mp.make_mpf
    out = []
    for k in range(r):
        out.append([[make(mpf_shift(x[k], k // 2)) for x in row] for row in l])
        out.append([make(mpf_shift(x[k], k // 2)) for x in d])
    return tuple(out)


def ldl_no_pivot(a: Matrix, pivot_floor, *pencil: Matrix) -> tuple:
    """A = L D L^T for symmetric A, unit lower L, no row exchanges.

    Raises SingularTruncation at the first pivot that is an exact zero or has
    |pivot| < pivot_floor. Row exchanges are deliberately not attempted: they
    would break the triangular correspondence this factorization exists to
    expose.

    ``pencil`` optionally gives A' and A'', derivatives of a symmetric A(t)
    at t = 0. The elimination then runs on truncated Taylor series
    (``_taylor_ldl``; Griewank and Walther, Evaluating Derivatives, ch. 13),
    with the same pivot test, and returns L, D, dL, dD and, with A'', d2L,
    d2D: the factorization's derivatives up to rounding. Without it, (L, D).
    """
    n = len(a)
    prec, rnd = mp._prec_rounding
    if pencil:
        return _taylor_ldl(a, pencil, _raw(pivot_floor))
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


def three_term_values(z, beta: list, gamma: list, count: int) -> list:
    """p_0(z) .. p_{count-1}(z) of the monic recurrence, as mpfs.

    p_0 = 1 and p_{j+1} = (z - beta_j) p_j - gamma_j p_{j-1} with gamma_0 = 0
    (``gamma[i]`` is gamma_{i+1}); the bits of that operator expression, from
    p_{-1} = 0 and gamma_0 the mpf 0.
    """
    prec, rnd = mp._prec_rounding
    zr = _raw(z)
    make = mp.make_mpf
    out = [make(fone)]
    p_prev, p = fzero, fone
    for j in range(count - 1):
        g = _raw(gamma[j - 1]) if j else fzero
        lead = mpf_mul(mpf_sub(zr, _raw(beta[j]), prec, rnd), p, prec, rnd)
        p_prev, p = p, mpf_sub(lead, mpf_mul(g, p_prev, prec, rnd), prec, rnd)
        out.append(make(p))
    return out


class GramSums:
    """Sums S[n][m] of p_n p_m w over lattice points, for m <= n < count, each
    rounded once.

    The sums stay exact between points. A point whose values are all finite
    adds its terms as integers: the p_n are read at their smallest binary
    exponent, so the point's terms share one exponent, and the sums are kept
    at the exponent common to all points, lowered with 64 bits to spare when
    a point's falls below it. A point with a nan or infinite value adds its
    terms with libmp at precision 0, which does not round, to a second set of
    raw sums. ``lower()`` rounds each total once, at the precision in effect
    when it is called. libmp's nan and infinities do not depend on precision,
    so the sums the operator loop leaves nan or infinite are nan or infinite
    here, with the same bits.
    """

    def __init__(self, count: int):
        self._ints = [[0] * (n + 1) for n in range(count)]
        self._exp = None
        self._raw = None

    def add(self, pvec: list, weight) -> None:
        """Add the point's terms p_n p_m weight."""
        p = [_raw(x) for x in pvec[: len(self._ints)]]
        w = _raw(weight)
        if any(not x[1] and x[2] for x in p) or (not w[1] and w[2]):
            self._add_raw(p, w)
        elif w[1]:
            self._add_ints(p, w)

    def _add_ints(self, p: list, w: tuple) -> None:
        """Add the exact terms of a point whose values are all finite."""
        low = min((x[2] for x in p if x[1]), default=None)
        if low is None:
            return
        point_exp = 2 * low + w[2]
        if self._exp is None or point_exp < self._exp:
            target = point_exp - 64
            if self._exp is not None:
                up = self._exp - target
                self._ints = [[s << up for s in row] for row in self._ints]
            self._exp = target
        ints = [(-x[1] if x[0] else x[1]) << (x[2] - low) if x[1] else 0 for x in p]
        wq = (-w[1] if w[0] else w[1]) << (point_exp - self._exp)
        for pn, row in zip(ints, self._ints):
            if pn:
                pnw = pn * wq
                for m in range(len(row)):
                    row[m] += pnw * ints[m]

    def _add_raw(self, p: list, w: tuple) -> None:
        """Add the terms of a point with a nan or infinite value, unrounded."""
        if self._raw is None:
            self._raw = [[fzero] * len(row) for row in self._ints]
        for n, row in enumerate(self._raw):
            pnw = mpf_mul(p[n], w)
            for m in range(n + 1):
                row[m] = mpf_add(row[m], mpf_mul(pnw, p[m]))

    def lower(self) -> Matrix:
        """Row n holds S[n][0..n], each sum rounded once."""
        prec, rnd = mp._prec_rounding
        raw = self._raw or [[fzero] * len(row) for row in self._ints]
        exp = self._exp or 0
        return [
            [mp.make_mpf(mpf_add(from_man_exp(s, exp), r, prec, rnd)) for s, r in zip(*rows)]
            for rows in zip(self._ints, raw)
        ]


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
