"""Small dense linear algebra over mpmath numbers.

Truncations in this package are tiny (k <= ~32), so dense row-major lists are
the only representation; matrices that are banded by theorem are read by
diagonal offset (``diagonal_of``) and their band is checked, not stored. All
elimination routines use fixed pivoting rules so results are bit-stable.

The hot kernels run on raw ``libmp`` values: they read each entry's ``_mpf_``
tuple once, compute at ``mp._prec_rounding`` read at call time, and wrap each
result once with ``mp.make_mpf``. No other module does arithmetic on raw
values (``tests/test_lint.py`` holds it; ``moments`` and ``weights`` only
build values with libmp's constructors). Every sum they form is exact and
rounded once (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005): the
products ``mat_mul`` and ``mat_vec``, ``GramSums`` (the accumulator of the
orthogonality sums), the eliminations ``ldl_no_pivot`` (with its Taylor
series), ``unit_lower_inverse``, ``lu_factor`` with its solves and
``schur_complement``, and the polynomial recurrence ``three_term_values``. A
sum is one integer at one binary exponent (``_Sum``), where an operator loop
would round each product and each addition; a quotient is its exact numerator
divided once by the rounded pivot. Exact zeros, which J (tridiagonal), S and
Pi (triangular) hold by theorem, add nothing. The eliminations run in
left-looking (Crout) order, so that each entry is one sum: the factors formed
so far are held as ``_Exact`` vectors, ints at one shared exponent, and each
dot product is one ``sum(map(mul, ...))``. One rule holds in every kernel for
a term that meets a nan or an infinity: libmp sums it at precision 0, which
does not round, and the entry is that nan or infinity (``nan * 0`` is nan). A
product reads each operand in one scan, which also decides whether it stays an
int.

Every check takes the maximum of its residuals through ``max_abs``,
``max_diff``, ``window_diff`` or ``out_of_band_max`` here, or through
``relative_row``, which forms one named row of ``ResidualAccumulator`` on raw
values (each operand rounded as ``mpf()`` rounds it, one ``mpf_div``, the
decimal string of the raw quotient, ``exceeds``'s test) and wraps a row only
when it becomes its check's worst. The first four rank exact values: each
difference is formed exactly, magnitudes are compared by exponent plus bit
length and by mantissa only on a tie, and only the winner is rounded, once.
Rounding to nearest is monotone and symmetric under negation, so the maximum
has the bits of the operators' maximum of rounded values. The maxima keep a
nan, where Python's ``max(mpf(0), nan)`` is 0, so a nan residual fails its
check. The pivot tests compare with ``mpf_gt`` and ``mpf_lt``, as the
operators do, never ``mpf_cmp``: ``mpf_cmp(fone, fnan)`` is 1, so a nan pivot
would be replaced where the operators keep it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import inf
from operator import add, mul

from mpmath import mp, mpf
from mpmath.libmp import (
    finf,
    fnan,
    fone,
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
    round_nearest,
    to_str,
)

from .errors import SingularTruncation
from .weights import to_mpf

Matrix = list  # list[list[number]]


def _raw(x) -> tuple:
    """x's value as an ``_mpf_`` tuple, read as an mpf operator reads its operand."""
    return x._mpf_ if type(x) is mpf else mpf.mpf_convert_rhs(x)


def _operand(x, prec: int, rnd: str) -> tuple:
    """x as ``mpf(x)`` makes it, rounded at prec, as a raw value. An mpf whose
    odd mantissa fits in prec, or a nan or an infinity, is its own value."""
    if type(x) is not mpf:
        return mpf(x)._mpf_
    t = x._mpf_
    sign, man, exp, bc = t
    if man & 1 and bc <= prec or not man and exp:
        return t
    return normalize(sign, man, exp, bc, prec, rnd)


def relative_row(abs_diff, scale, worst: mpf, digits: int) -> tuple:
    """One named row of a residual check: abs_diff / scale on raw values, as
    ``ResidualAccumulator`` reads it, rendered to ``digits`` significant
    digits, with (quotient, scale) as mpfs if the quotient ``exceeds`` the
    running maximum worst, else None.

    The operators' bits: each operand is rounded at the precision in effect
    as ``mpf()`` rounds it, a scale <= 0 (a nan is not) reads as 1, and the
    quotient is one ``mpf_div``, or nan against a scale that is not finite,
    whose abs_diff is then not read. The string is ``mp.nstr``'s ``to_str``.
    """
    prec, rnd = mp._prec_rounding
    s = _operand(scale, prec, rnd)
    if s[0] or s == fzero:
        s = fone
    q = mpf_div(_operand(abs_diff, prec, rnd), s, prec, rnd) if _finite(s) else fnan
    worse = None
    if q == fnan or mpf_gt(q, worst._mpf_):
        worse = mp.make_mpf(q), mp.make_mpf(s)
    return to_str(q, digits), worse


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


def _terms(a: Matrix) -> tuple:
    """Each row of a as (column, signed mantissa, exponent) for its nonzero
    entries, None if a holds a nan or an infinity; and whether every entry
    is an int. One scan reads both."""
    out, ints = [], True
    for row in a:
        terms = []
        for j, x in enumerate(row):
            if type(x) is int:
                if x:
                    terms.append((j, x, 0))
                continue
            ints = False
            sign, man, exp, _ = x._mpf_ if type(x) is mpf else _raw(x)
            if man:
                terms.append((j, -man if sign else man, exp))
            elif exp:
                return None, False
        out.append(terms)
    return out, ints


def _exact_product(a: Matrix, b: Matrix) -> Matrix:
    """``mat_mul``'s kernel. ``mat_vec`` calls it, not ``mat_mul``, so the
    benchmark's span of that name counts matrix products only. Only the
    nonzero products are summed (J is tridiagonal and S and Pi triangular by
    theorem), unless a factor holds a nan or an infinity: then each entry
    sums all of its products, since ``nan * 0`` is nan."""
    width = len(b[0]) if b else 0
    sums = [[None] * width for _ in a]
    (rows_a, ints_a), (rows_b, ints_b) = _terms(a), _terms(b)
    has_mpf = not (ints_a and ints_b)
    if rows_a is not None and rows_b is not None:
        for out_row, row_a in zip(sums, rows_a):
            for l, ma, ea in row_a:
                for j, mb, eb in rows_b[l]:
                    s = out_row[j]
                    if s is None:
                        out_row[j] = s = _Sum()
                    s.add_term(ma * mb, ea + eb)
    else:
        for out_row, row_a in zip(sums, a):
            for j, col_b in enumerate(zip(*b)):
                out_row[j] = s = _Sum()
                for x, y in zip(row_a, col_b):
                    s.add_product(_raw(x), _raw(y))
    if not has_mpf:
        return [[s.man << s.exp if s else 0 for s in row] for row in sums]
    prec, rnd = mp._prec_rounding
    make, zero = mp.make_mpf, mpf(0)
    return [[make(s.rounded(prec, rnd)) if s else zero for s in row] for row in sums]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, each entry the exact sum of its products, rounded once.

    With an mpf in either factor every entry is an mpf, ``mpf(0)`` for an
    exact zero; two int factors give exact ints. A product that meets a nan or
    an infinity is summed by libmp at precision 0 (``nan * 0`` is nan), and
    the entry is that sum.
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


def _max_abs(pairs):
    """The largest |x - y| over pairs (|x| where y is None) by the exact
    ranking of the module docstring: the bits of the operators' maximum of
    abs(x - y), whose first of equal values wins and whose int maximum stays
    an int. A difference below the running maximum's binade cannot round above
    it, so only the others are rounded to be ranked.
    """
    prec, rnd = mp._prec_rounding
    top, m_top, e_top, win = -inf, 0, 0, None
    for x, y in pairs:
        if type(x) is not mpf and type(y) is not mpf:
            win_d = abs(x if y is None else x - y)
            _, man, exp, _ = _raw(win_d)
        elif y is None:
            win_d = None
            _, man, exp, _ = x._mpf_
        else:
            win_d = None
            (sx, man, exp, _), (sy, my, ey, _) = tx, ty = _raw(x), _raw(y)
            if man and my:
                man, my = -man if sx else man, -my if sy else my
                man, exp = (((man << exp - ey) - my, ey) if exp > ey
                            else (man - (my << ey - exp), exp))
                if not man:
                    continue
                man = abs(man)
            elif my or ey:
                _, man, exp, _ = mpf_sub(tx, ty)
        if not man:
            if exp == fnan[2]:
                return mp.make_mpf(fnan)
            if exp:
                top, win = inf, mp.make_mpf(finf)
            continue
        bc = man.bit_length()
        if exp + bc < top:
            continue
        if win_d is None and bc > prec:
            _, man, exp, bc = normalize(0, man, exp, bc, prec, rnd)
        if exp + bc > top or (man << exp - e_top if exp > e_top else man) > (
            m_top << e_top - exp if e_top > exp else m_top
        ):
            top, m_top, e_top, win = exp + bc, man, exp, win_d
    if top == -inf:
        return mpf(0)
    return mp.make_mpf(_round_int(m_top, e_top, prec, rnd)) if win is None else win


def max_abs(a: Matrix, window: int | None = None) -> mpf:
    """The largest |entry|, over the leading window x window block if given."""
    rows = a if window is None else [row[:window] for row in a[:window]]
    return _max_abs((x, None) for row in rows for x in row)


def max_diff(a: Matrix, b: Matrix, window: int) -> mpf:
    """max |a-b| over the leading window x window block."""
    pairs = (p for ra, rb in zip(a[:window], b[:window]) for p in zip(ra[:window], rb[:window]))
    return _max_abs(pairs)


def window_diff(a: Matrix, b: Matrix, window: int):
    """(max |a-b|, max(|a|,|b|)) over the leading window x window block."""
    return max_diff(a, b, window), max_abs([row[:window] for m in (a, b) for row in m[:window]])


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


def _finite(t: tuple) -> bool:
    """Whether the raw value t is neither a nan nor an infinity."""
    return bool(t[1]) or not t[2]


def _round_int(man: int, exp: int, prec: int, rnd: str) -> tuple:
    """The raw value man 2^exp, rounded once at prec; exact at prec 0. Bit
    lengths are read by ``int.bit_length``, not libmp's bitcount."""
    if not man:
        return fzero
    sign = 0
    if man < 0:
        sign, man = 1, -man
    if prec:
        return normalize(sign, man, exp, man.bit_length(), prec, rnd)
    zeros = (man & -man).bit_length() - 1
    man >>= zeros
    return sign, man, exp + zeros, man.bit_length()


class _Exact:
    """A vector of exact values: each finite value one int at the shared
    binary exponent ``exp``, the smallest of the nonzero values (None while
    there are none). A value that met a nan or an infinity is kept in ``odd``
    (index to raw value), the libmp sum at precision 0 of its terms that met
    one, with an int 0 in its place; the value is then that nan or infinity.
    """

    __slots__ = ("ints", "exp", "odd")

    def __init__(self):
        self.ints, self.exp, self.odd = [], None, None

    @classmethod
    def of(cls, raws) -> "_Exact":
        """The vector of the raw values raws."""
        v = cls()
        raws = list(raws)
        v.exp = low = min((t[2] for t in raws if t[1]), default=None)
        v.ints = [(-m if s else m) << (e - low) if m else 0 for s, m, e, _ in raws]
        v.odd = {p: t for p, t in enumerate(raws) if t[2] and not t[1]} or None
        return v

    def lower_to(self, exp: int) -> None:
        """Move the shared exponent down to exp."""
        if self.exp is not None:
            up = self.exp - exp
            self.ints = [x << up for x in self.ints]
        self.exp = exp

    def push(self, man: int, exp: int) -> None:
        """Append the exact value man 2^exp."""
        if man:
            if self.exp is None or exp < self.exp:
                self.lower_to(exp)
            man <<= exp - self.exp
        self.ints.append(man)

    def push_raw(self, t: tuple) -> None:
        sign, man, exp, _ = t
        if man or not exp:
            self.push(-man if sign else man, exp)
        else:
            self.add_odd(len(self.ints), t)
            self.ints.append(0)

    def push_sum(self, s: "_Sum") -> None:
        if s.odd is None:
            self.push(s.man, s.exp)
        else:
            self.push_raw(s.odd)

    def add_odd(self, p: int, t: tuple) -> None:
        """Add to value p the term t, which met a nan or an infinity."""
        if self.odd is None:
            self.odd = {}
        self.odd[p] = mpf_add(self.odd[p], t) if p in self.odd else t

    def value(self, p: int, prec: int = 0, rnd: str = round_nearest) -> tuple:
        """Value p as a raw value, rounded once at prec; exact at prec 0."""
        if self.odd and p in self.odd:
            return self.odd[p]
        return _round_int(self.ints[p], self.exp, prec, rnd)


class _Sum:
    """One exact sum: the signed int ``man`` at the binary exponent ``exp``,
    and ``odd``, the libmp sum at precision 0 of the terms that met a nan or
    an infinity (None while there are none), which the sum then is."""

    __slots__ = ("man", "exp", "odd")

    def __init__(self, c: tuple = fzero):
        sign, man, exp, _ = c
        if man or not exp:
            self.man, self.exp, self.odd = -man if sign else man, exp, None
        else:
            self.man, self.exp, self.odd = 0, 0, c

    def add_term(self, t: int, e: int) -> None:
        """Add t 2^e."""
        s = self.man
        if not s:
            self.man, self.exp = t, e
        elif e >= self.exp:
            self.man = s + (t << (e - self.exp))
        else:
            self.man, self.exp = (s << (self.exp - e)) + t, e

    def _add_odd(self, t: tuple) -> None:
        self.odd = t if self.odd is None else mpf_add(self.odd, t)

    def add_product(self, x: tuple, y: tuple, negate: bool = False) -> None:
        """Add x y, or subtract it with negate, for raw x and y."""
        if x[1] and y[1]:
            t = x[1] * y[1]
            self.add_term(-t if x[0] ^ y[0] ^ negate else t, x[2] + y[2])
        elif not (_finite(x) and _finite(y)):
            t = mpf_mul(x, y)
            self._add_odd(mpf_neg(t) if negate else t)

    def add_dot(self, u: _Exact, v: _Exact, negate: bool = False, start: int = 0) -> None:
        """Add the dot product of u[start:] and v, or subtract it with negate."""
        ints = u.ints[start:] if start else u.ints
        t = sum(map(mul, ints, v.ints))
        if t:
            self.add_term(-t if negate else t, u.exp + v.exp)
        if u.odd or v.odd:
            size = min(len(ints), len(v.ints))
            at = {p - start for p in u.odd or ()} | set(v.odd or ())
            for p in at:
                if 0 <= p < size:
                    t = mpf_mul(u.value(p + start), v.value(p))
                    self._add_odd(mpf_neg(t) if negate else t)

    def rounded(self, prec: int, rnd: str) -> tuple:
        """The sum rounded once; exact at prec 0."""
        if self.odd is not None:
            return self.odd
        return _round_int(self.man, self.exp, prec, rnd)

    def over(self, pivot: tuple, prec: int, rnd: str) -> tuple:
        """The exact sum divided once by the raw pivot."""
        return mpf_div(self.rounded(0, rnd), pivot, prec, rnd)


def unit_lower_inverse(l: Matrix) -> Matrix:
    """Invert a unit lower triangular matrix by forward substitution: entry
    (i, j) of the inverse S is -sum_{j <= p < i} l_ip s_pj, one exact sum
    rounded once, column by column."""
    n = len(l)
    prec, rnd = mp._prec_rounding
    low = [_Exact.of(map(_raw, row[:i])) for i, row in enumerate(l)]
    out = [[fone if i == j else fzero for j in range(n)] for i in range(n)]
    for j in range(n):
        col = _Exact()
        col.push(1, 0)
        for i in range(j + 1, n):
            s = _Sum()
            s.add_dot(low[i], col, True, j)
            out[i][j] = x = s.rounded(prec, rnd)
            col.push_raw(x)
    return [[mp.make_mpf(v) for v in row] for row in out]


def _ldl_series(coeffs: list, floor: tuple) -> tuple:
    """The Crout LDL of the truncated Taylor series whose coefficient k is
    the raw matrix coeffs[k]: rows of L (below the diagonal) and D, each
    entry the list of its coefficients.

    Row i is formed left to right. With W = L D kept exact,

        l_ij,k = (a_ij,k - sum_{m <= k} L_i,m . W_j,k-m - sum_{m < k} l_ij,m d_j,k-m) / d_j,0
        d_i,k = a_ii,k - sum_{m <= k} L_i,m . W_i,k-m

    each one exact sum, divided once or rounded once; coefficient 0 is the
    plain elimination's. d_i,0 takes the pivot test once its row is formed.
    """
    n, r = len(coeffs[0]), len(coeffs)
    prec, rnd = mp._prec_rounding
    ws, d, out = [], [], []
    for i in range(n):
        li = [_Exact() for _ in range(r)]
        wi = [_Exact() for _ in range(r)]
        row = []
        for j in range(i):
            dj, wj = d[j], ws[j]
            q = []
            for k in range(r):
                s = _Sum(coeffs[k][i][j])
                for m in range(k + 1):
                    s.add_dot(li[m], wj[k - m], True)
                for m in range(k):
                    s.add_product(q[m], dj[k - m], True)
                q.append(s.over(dj[0], prec, rnd))
            for k in range(r):
                li[k].push_raw(q[k])
                w = _Sum()
                for m in range(k + 1):
                    w.add_product(q[m], dj[k - m])
                wi[k].push_sum(w)
            row.append(q)
        di = []
        for k in range(r):
            s = _Sum(coeffs[k][i][i])
            for m in range(k + 1):
                s.add_dot(li[m], wi[k - m], True)
            di.append(s.rounded(prec, rnd))
        if di[0] == fzero or mpf_lt(mpf_abs(di[0]), floor):
            raise SingularTruncation(i)
        ws.append(wi)
        d.append(di)
        out.append(row)
    return out, d


def ldl_no_pivot(a: Matrix, pivot_floor, *pencil: Matrix) -> tuple:
    """A = L D L^T for symmetric A, unit lower L, no row exchanges.

    Crout order: each d_j = a_jj - sum_p l_jp (l_jp d_p) is one exact sum
    rounded once, and each l_ij the exact a_ij - sum_p l_ip (l_jp d_p)
    divided once by d_j; l_jp d_p is kept exact. Only the lower triangle of
    A is read. Raises SingularTruncation at the first pivot that is an exact
    zero or has |pivot| < pivot_floor. Row exchanges are deliberately not
    attempted: they would break the triangular correspondence this
    factorization exists to expose.

    ``pencil`` optionally gives A' and A'', derivatives of a symmetric A(t)
    at t = 0. The elimination then runs on the truncated Taylor series of
    A + t A' + (t^2 / 2) A'' (Griewank and Walther, Evaluating Derivatives,
    ch. 13), with the same pivot test, and returns L, D, dL, dD and, with
    A'', d2L, d2D: the factorization's derivatives up to rounding. Each
    Taylor coefficient of each entry is one exact sum, and coefficient 0 is
    the plain kernel's L and D. Without it, (L, D).
    """
    n = len(a)
    # the second derivative's Taylor coefficient is half of it, exactly
    coeffs = [
        [[mpf_shift(_raw(x), -(k // 2)) for x in row[: i + 1]] for i, row in enumerate(c)]
        for k, c in enumerate((a,) + pencil)
    ]
    low, d = _ldl_series(coeffs, _raw(pivot_floor))
    make = mp.make_mpf
    out = []
    for k in range(len(coeffs)):
        unit = fone if k == 0 else fzero
        out.append([
            [make(mpf_shift(x[k], k // 2)) for x in row]
            + [make(unit)] + [make(fzero)] * (n - i - 1)
            for i, row in enumerate(low)
        ])
        out.append([make(mpf_shift(x[k], k // 2)) for x in d])
    return tuple(out)


@dataclass
class LUFactors:
    """P A = L U of a square matrix by partial pivoting, in Crout order.

    Column j pivots on the first entry of largest magnitude among its
    candidates, a_ij - sum_{p < j} l_ip u_pj for the rows i >= j not yet
    pivoted, each one exact sum rounded once; the pivot is its rounded
    candidate, each multiplier l_ij the exact candidate divided once by it,
    and each u_jq (q > j) one exact sum rounded once. ``perm[i]`` is the row
    of A that became row i. ``pivots`` holds the diagonal of U as raw
    ``libmp`` values, ``lower[i]`` row i of L left of the diagonal and
    ``upper[q]`` column q of U above it, as ``_Exact`` vectors for the
    solves. ``det`` is the product of the pivots, negated at each row
    exchange, in step order. A pivot column that is zero stops the
    elimination: ``complete`` is False, and ``det`` is 0, or nan while a nan
    is left in the remaining block, since a nan never wins the pivot search
    and can sit beside a column that is zero in the finite rows.
    """

    perm: list
    complete: bool
    det: mpf
    pivots: list
    lower: list
    upper: list


def _nan_left(a: Matrix, f: LUFactors, column: list) -> bool:
    """Whether an LU stopped at column j = len(f.pivots) leaves a nan in
    its remaining block, whose column j is ``column`` (as ``_Sum``s). Only a
    term that meets a nan or an infinity can make an entry nan, so only such
    entries are summed."""
    if any(s.odd == fnan for s in column):
        return True
    j, n = len(f.pivots), len(a)
    for i in range(j, n):
        row, low = a[f.perm[i]], f.lower[i]
        for q in range(j + 1, n):
            x = _raw(row[q])
            if _finite(x) and not low.odd and not f.upper[q].odd:
                continue
            s = _Sum(x)
            s.add_dot(low, f.upper[q], True)
            if s.odd == fnan:
                return True
    return False


def lu_factor(a: Matrix) -> LUFactors:
    """The partially pivoted LU of a, at the precision of the call."""
    prec, rnd = mp._prec_rounding
    n = len(a)
    f = LUFactors(perm=list(range(n)), complete=True, det=mpf(1), pivots=[],
                  lower=[_Exact() for _ in range(n)], upper=[_Exact() for _ in range(n)])
    perm, lower, upper = f.perm, f.lower, f.upper
    det = fone
    for j in range(n):
        sums, values, best, k = [], [], None, 0
        for i in range(j, n):
            s = _Sum(_raw(a[perm[i]][j]))
            s.add_dot(lower[i], upper[j], True)
            c = s.rounded(prec, rnd)
            sums.append(s)
            values.append(c)
            v = mpf_abs(c)
            if best is None:
                best = v
            elif mpf_gt(v, best):
                best, k = v, i - j
        if best == fzero:
            f.complete, f.det = False, mp.make_mpf(fnan if _nan_left(a, f, sums) else fzero)
            return f
        if k:
            for seq in (perm, lower):
                seq[j], seq[j + k] = seq[j + k], seq[j]
            sums[0], sums[k] = sums[k], sums[0]
            det = mpf_neg(det)
        pivot = values[k]
        f.pivots.append(pivot)
        det = mpf_mul(det, pivot, prec, rnd)
        for i in range(j + 1, n):
            lower[i].push_raw(sums[i - j].over(pivot, prec, rnd))
        a_j, l_j = a[perm[j]], lower[j]
        for q in range(j + 1, n):
            s = _Sum(_raw(a_j[q]))
            s.add_dot(l_j, upper[q], True)
            upper[q].push_raw(s.rounded(prec, rnd))
    f.det = mp.make_mpf(det)
    return f


def lu_determinant(a: Matrix) -> mpf:
    """Determinant by LU with partial pivoting: ``lu_factor(a).det``. A 1 x 1
    matrix is its entry rounded once, which is that LU's pivot and det."""
    if len(a) == 1:
        prec, rnd = mp._prec_rounding
        return mp.make_mpf(_Sum(_raw(a[0][0])).rounded(prec, rnd))
    return lu_factor(a).det


def lu_row_solve(f: LUFactors, b: list) -> _Exact:
    """y with y U = b, U the upper factor of a complete f: each y_j the
    exact b_j - sum_{i < j} y_i u_ij divided once by u_jj."""
    prec, rnd = mp._prec_rounding
    y = _Exact()
    for j, x in enumerate(b):
        s = _Sum(_raw(x))
        s.add_dot(y, f.upper[j], True)
        y.push_raw(s.over(f.pivots[j], prec, rnd))
    return y


def lu_column_solve(f: LUFactors, a: list) -> _Exact:
    """z = L^-1 P a, L and P the lower factor and row order of f: each z_i
    the exact a_perm(i) - sum_{l < i} l_il z_l rounded once."""
    prec, rnd = mp._prec_rounding
    z = _Exact()
    for i, r in enumerate(f.perm):
        s = _Sum(_raw(a[r]))
        s.add_dot(f.lower[i], z, True)
        z.push_raw(s.rounded(prec, rnd))
    return z


def schur_complement(b: Matrix, ys: list, zs: list) -> Matrix:
    """Entries b[i][j] - ys[i] . zs[j], each one exact sum rounded once.

    With ys from ``lu_row_solve`` and zs from ``lu_column_solve`` of G = P^T L U,
    this is B - C G^-1 A for the rows C and columns A those solves read.
    """
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    out = []
    for row, y in zip(b, ys):
        out_row = []
        for x, z in zip(row, zs):
            s = _Sum(_raw(x))
            s.add_dot(y, z, True)
            out_row.append(make(s.rounded(prec, rnd)))
        out.append(out_row)
    return out


def _three_term(z, beta: list, gamma: list, count: int) -> list:
    """``three_term_values`` as raw values. While z, beta_j and gamma_j are
    finite, each p_{j+1} is one integer sum rounded once; from the first nan
    or infinity on, libmp forms it at precision 0, which gives that nan or
    infinity, as in every kernel here."""
    prec, rnd = mp._prec_rounding
    zr = _raw(z)
    zs, zi, ze, _ = zr
    zi = -zi if zs else zi
    out, finite = [fone], _finite(zr)
    pi, pe, qi, qe = 1, 0, 0, 0  # p_j and p_{j-1}, ints at their exponents
    for j in range(count - 1):
        b, g = _raw(beta[j]), _raw(gamma[j - 1]) if j else fzero
        finite = finite and _finite(b) and _finite(g)
        if not finite:
            q = out[j - 1] if j else fzero
            out.append(mpf_sub(mpf_mul(mpf_sub(zr, b), out[j]), mpf_mul(g, q)))
            continue
        bs, bi, be, _ = b
        bi = -bi if bs else bi
        d, de = ((zi << ze - be) - bi, be) if ze > be else (zi - (bi << be - ze), ze)
        man, exp = d * pi, de + pe
        gs, gi, ge, _ = g
        if gi and qi:
            t, te = (-gi if gs else gi) * qi, ge + qe
            man, exp = (man - (t << te - exp), exp) if te > exp else ((man << exp - te) - t, te)
        x = _round_int(man, exp, prec, rnd)
        out.append(x)
        qi, qe, pi, pe = pi, pe, -x[1] if x[0] else x[1], x[2]
    return out


def three_term_values(z, beta: list, gamma: list, count: int) -> list:
    """p_0(z) .. p_{count-1}(z) of the monic recurrence, as mpfs: p_0 = 1 and
    p_{j+1} = (z - beta_j) p_j - gamma_j p_{j-1}, gamma_0 = 0 (``gamma[i]`` is
    gamma_{i+1}), each one exact sum with z - beta_j exact, rounded once."""
    return [mp.make_mpf(x) for x in _three_term(z, beta, gamma, count)]


class GramSums:
    """Sums S[n][m] of p_n p_m w over lattice points, for m <= n < count, each
    rounded once.

    The sums stay exact between points, as one ``_Exact`` vector (row n at
    offset n (n + 1) / 2). A point adds its finite terms as integers at the
    point's smallest exponent, into sums kept at the exponent common to all
    points, lowered with 64 bits to spare when a point's falls below it. A
    term that meets a nan or an infinity is summed by libmp at precision 0, as
    in every kernel here, so the sums the operator loop leaves nan or infinite
    are so here, with the same bits. ``lower()`` rounds each sum once, at the
    precision in effect when it is called.
    """

    def __init__(self, count: int):
        self._count = count
        self._sums = _Exact.of([fzero] * (count * (count + 1) // 2))

    def add(self, pvec: list, weight) -> None:
        """Add the point's terms p_n p_m weight."""
        self._add([_raw(x) for x in pvec[: self._count]], _raw(weight))

    def add_point(self, z, beta: list, gamma: list, weight) -> None:
        """``add`` of the point z's ``three_term_values``, kept raw."""
        self._add(_three_term(z, beta, gamma, self._count), _raw(weight))

    def _add(self, p: list, w: tuple) -> None:
        point = _Exact.of(p)
        if point.odd or not _finite(w):
            self._add_odd(p, w)
        if w[1] and point.exp is not None:
            self._add_ints(point, w)

    def _add_ints(self, point: _Exact, w: tuple) -> None:
        """Add the finite terms of the point (its nan and infinities read 0)."""
        sums = self._sums
        point_exp = 2 * point.exp + w[2]
        if sums.exp is None or point_exp < sums.exp:
            sums.lower_to(point_exp - 64)
        wq = (-w[1] if w[0] else w[1]) << (point_exp - sums.exp)
        ints, acc, off = point.ints, sums.ints, 0
        for n, pn in enumerate(ints):
            end = off + n + 1
            if pn:
                acc[off:end] = map(add, acc[off:end], map((pn * wq).__mul__, ints))
            off = end

    def _add_odd(self, p: list, w: tuple) -> None:
        """Add the terms of the point that meet a nan or an infinity."""
        off = 0
        for n, pn in enumerate(p):
            for m in range(n + 1):
                if not (_finite(pn) and _finite(p[m]) and _finite(w)):
                    self._sums.add_odd(off + m, mpf_mul(mpf_mul(pn, w), p[m]))
            off += n + 1

    def lower(self) -> Matrix:
        """Row n holds S[n][0..n], each sum rounded once."""
        prec, rnd = mp._prec_rounding
        make, value = mp.make_mpf, self._sums.value
        out, off = [], 0
        for n in range(self._count):
            out.append([make(value(off + m, prec, rnd)) for m in range(n + 1)])
            off += n + 1
        return out


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
        (x, None)
        for i, row in enumerate(a[:window])
        for j, x in enumerate(row[:window])
        if not lo <= j - i <= hi
    )
