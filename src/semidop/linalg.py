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
rounded once (Ogita, Rump and Oishi, SIAM J. Sci. Comput. 26, 2005):
``product_sum``, the one kernel for a signed sum of matrix products, which
``mat_mul``, ``mat_vec`` and ``commutator`` call and every other sum of
products in the package goes through (``tests/test_lint.py`` holds that too),
formed only on a leading window where a check reads no more; ``scalar_sum``,
the one kernel of a scalar residual row, since every scalar row of the
checks is one exact sum rounded once, a quotient entering it as one rounded
factor; ``GramSums`` (the accumulator of the orthogonality sums), the
eliminations ``ldl_no_pivot`` (with its Taylor series, which can be seeded with the
plain factors), ``unit_lower_inverse``,
``lu_factor`` with its solves and ``schur_complement``, and the polynomial
recurrence ``three_term_values``. A sum is one integer at one binary exponent
(``_Sum``, or a row's lists of them in ``product_sum``), where an operator
loop would round each product and each addition; a quotient is its exact
numerator divided once by the rounded pivot. Exact zeros, which J
(tridiagonal), S and Pi (triangular) hold by theorem, add nothing. The
eliminations run in left-looking (Crout) order, so that each entry is one
sum: the factors formed so far are held as ``_Exact`` vectors, ints at one
shared exponent, and each dot product is one ``sum(map(mul, ...))``.

Each kernel reads its operands once and tests them in that read. If one is a
nan or an infinity, every value the kernel forms is nan (``_nan``), and it
forms nothing else: no pivot is tested and no sum is formed. The objects the
package factors are finite, and no finite input leads a kernel to form a nan
or an infinity: mpmath raises on a division by zero, an mpf exponent does not
overflow, and every pivot is tested nonzero before it divides.
``product_sum``'s one scan of each operand also decides whether the result
stays an int. The entrywise ``mat_add``, ``mat_sub`` and ``mat_scale`` call
``mpf_add``, ``mpf_sub`` and ``mpf_mul`` on two mpfs, at the precision in
effect, with the operators' bits.

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
check.
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


def relative_row(diff, scale, worst: mpf | None, digits: int) -> tuple:
    """One named row of a residual check: |diff| / scale on raw values, as
    ``ResidualAccumulator`` reads it, rendered to ``digits`` significant
    digits, with (quotient, scale) as mpfs if the quotient ``exceeds`` the
    running maximum worst or there is none yet (worst is None), else None.

    The operators' bits: each operand is rounded at the precision in effect
    as ``mpf()`` rounds it, diff then read by its magnitude, a scale <= 0 (a
    nan is not) reads as 1, and the quotient is one ``mpf_div``, or nan
    against a scale that is not finite, whose diff is then not read. The
    string is ``mp.nstr``'s ``to_str``.
    """
    prec, rnd = mp._prec_rounding
    s = _operand(scale, prec, rnd)
    if s[0] or s == fzero:
        s = fone
    q = mpf_div(mpf_abs(_operand(diff, prec, rnd)), s, prec, rnd) if _finite(s) else fnan
    worse = None
    if worst is None or q == fnan or mpf_gt(q, worst._mpf_):
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


def product_sum(*terms, window: int | None = None) -> Matrix:
    """sum_t c_t a_t b_t over the terms (c_t, a_t, b_t), each c_t a nonzero
    int and every a_t b_t of one shape: each entry the exact sum of all its
    products, rounded once. The one product kernel: ``mat_mul``, ``mat_vec``
    and ``commutator`` call it. With a ``window``, only the leading
    window x window block is formed, each entry with the bits it has in the
    whole product; a check that reads a product on a window asks for that.

    With an mpf in any factor every entry is an mpf, ``mpf(0)`` for an exact
    zero; int factors alone give exact ints. Each operand is read once, in
    one scan that also decides that rule, and only the nonzero products are
    summed (J is tridiagonal and S and Pi triangular by theorem), each entry
    as one int at one binary exponent in its row's lists. If a factor holds
    a nan or an infinity, every entry is nan.
    """
    parsed, ints = {}, True
    for _, a, b in terms:
        for m in (a, b):
            if id(m) not in parsed:
                parsed[id(m)], m_ints = _terms(m)
                ints = ints and m_ints
    _, a0, b0 = terms[0]
    height, width = len(a0), len(b0[0]) if b0 else 0
    if window is not None:
        height, width = min(height, window), min(width, window)
    if any(rows is None for rows in parsed.values()):
        nan = _nan()
        return [[nan] * width for _ in range(height)]
    cut = {}
    if window is not None:
        # a right factor's entries past the window's last column add to no entry formed
        for _, _, b in terms:
            cut[id(b)] = [[t for t in row if t[0] < width] for row in parsed[id(b)]]
    pairs = [
        (parsed[id(a)] if c == 1 else [[(l, c * m, e) for l, m, e in row] for row in parsed[id(a)]],
         cut.get(id(b), parsed[id(b)]))
        for c, a, b in terms
    ]
    prec, rnd = mp._prec_rounding
    make, zero = mp.make_mpf, mpf(0)
    out = []
    for i in range(height):
        mans, exps = [0] * width, [0] * width
        for rows_a, rows_b in pairs:
            for l, ma, ea in rows_a[i]:
                for j, mb, eb in rows_b[l]:
                    t, e, s = ma * mb, ea + eb, mans[j]
                    if not s:
                        mans[j], exps[j] = t, e
                    elif e >= exps[j]:
                        mans[j] = s + (t << e - exps[j])
                    else:
                        mans[j], exps[j] = (s << exps[j] - e) + t, e
        if ints:
            out.append([m << e for m, e in zip(mans, exps)])
        else:
            out.append([make(_round_int(m, e, prec, rnd)) if m else zero
                        for m, e in zip(mans, exps)])
    return out


def mat_mul(a: Matrix, b: Matrix, window: int | None = None) -> Matrix:
    """a b, each entry the exact sum of its products, rounded once
    (``product_sum``); with a window, its leading window x window block."""
    return product_sum((1, a, b), window=window)


def mat_add(a: Matrix, b: Matrix) -> Matrix:
    """a + b entrywise, with the operator's bits: two mpfs through ``mpf_add``
    at the precision in effect, any other pair through ``+``."""
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    return [
        [make(mpf_add(x._mpf_, y._mpf_, prec, rnd)) if type(x) is mpf and type(y) is mpf
         else x + y for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def mat_sub(a: Matrix, b: Matrix) -> Matrix:
    """a - b entrywise, as ``mat_add`` forms a + b (``mpf_sub``)."""
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    return [
        [make(mpf_sub(x._mpf_, y._mpf_, prec, rnd)) if type(x) is mpf and type(y) is mpf
         else x - y for x, y in zip(ra, rb)]
        for ra, rb in zip(a, b)
    ]


def mat_scale(a: Matrix, c) -> Matrix:
    """c a entrywise, with the operator's bits: an mpf entry and an mpf c
    through ``mpf_mul`` at the precision in effect, any other pair through
    ``*``."""
    if type(c) is not mpf:
        return [[x * c for x in row] for row in a]
    prec, rnd = mp._prec_rounding
    make, t = mp.make_mpf, c._mpf_
    return [[make(mpf_mul(x._mpf_, t, prec, rnd)) if type(x) is mpf else x * c for x in row]
            for row in a]


def mat_vec(a: Matrix, v) -> list:
    """a v, as ``mat_mul`` computes a times the column v; it calls
    ``product_sum``, not ``mat_mul``, so the benchmark's span of that name
    counts matrix products only."""
    return [row[0] for row in product_sum((1, a, [[x] for x in v]))]


def commutator(a: Matrix, b: Matrix, window: int | None = None) -> Matrix:
    """a b - b a, each entry one exact sum rounded once (``product_sum``), so
    commutator(b, a) is its exact negation; with a window, its leading
    window x window block."""
    return product_sum((1, a, b), (-1, b, a), window=window)


def scalar_sum(*terms) -> mpf:
    """sum_t c_t x_t1 ... x_tr over the terms (c_t, x_t1, ..., x_tr): the
    exact sum of the signed products, rounded once at the precision in
    effect. Each c_t is an int and each factor an int or an mpf; a term of
    the int alone (r = 0) is that int. The one kernel of a scalar residual
    row: its lhs - rhs is one call, a quotient entering as one rounded
    factor. A term with a zero factor adds nothing. If a factor is a nan or
    an infinity, the sum is nan.
    """
    man = exp = 0
    for term in terms:
        t, e = 1, 0
        for x in term:
            if type(x) is int:
                t *= x
                continue
            sign, m, xe, bc = x._mpf_ if type(x) is mpf else _raw(x)
            if bc < 0:
                return _nan()
            t *= -m if sign else m
            e += xe
        if not t:
            continue
        if not man:
            man, exp = t, e
        elif e >= exp:
            man += t << e - exp
        else:
            man, exp = (man << exp - e) + t, e
    prec, rnd = mp._prec_rounding
    return mp.make_mpf(_round_int(man, exp, prec, rnd))


def negated_terms(terms) -> tuple:
    """The terms (c, x_1, ..., x_r) of ``scalar_sum`` with each c negated: the
    terms of minus their sum."""
    return tuple((-t[0],) + t[1:] for t in terms)


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
    """Whether the raw value t is neither a nan nor an infinity: libmp gives
    those three values, and only them, a negative bit count."""
    return t[3] >= 0


def _finite_raws(values: list) -> list | None:
    """values as raw values, or None if one of them is a nan or an infinity
    (``_finite``): a kernel's one read of its operands, and its one test."""
    raws = [t for x in values if (t := x._mpf_ if type(x) is mpf else _raw(x))[3] >= 0]
    return raws if len(raws) == len(values) else None


def _nan() -> mpf:
    """The value of every entry a kernel forms once it has read a nan or an
    infinity; each kernel's one branch for such an operand calls this."""
    return mp.make_mpf(fnan)


def _nan_lower(n: int, diagonal: mpf) -> Matrix:
    """The n x n triangular factor of a kernel that read a nan or an
    infinity: nan below the diagonal, ``diagonal`` on it, exact zeros above."""
    nan, zero = _nan(), mpf(0)
    return [[nan] * i + [diagonal] + [zero] * (n - i - 1) for i in range(n)]


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
    """A vector of finite exact values: each one int at the shared binary
    exponent ``exp``, the smallest of the nonzero values (None while there
    are none)."""

    __slots__ = ("ints", "exp")

    def __init__(self):
        self.ints, self.exp = [], None

    @classmethod
    def of(cls, raws: list) -> "_Exact":
        """The vector of the finite raw values raws."""
        v = cls()
        v.exp = low = min((t[2] for t in raws if t[1]), default=None)
        v.ints = [(-m if s else m) << (e - low) if m else 0 for s, m, e, _ in raws]
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
        """Append the finite raw value t."""
        sign, man, exp, _ = t
        self.push(-man if sign else man, exp)

    def value(self, p: int, prec: int = 0, rnd: str = round_nearest) -> tuple:
        """Value p as a raw value, rounded once at prec; exact at prec 0."""
        return _round_int(self.ints[p], self.exp, prec, rnd)


class _Sum:
    """One exact sum of finite terms: the signed int ``man`` at the binary
    exponent ``exp``."""

    __slots__ = ("man", "exp")

    def __init__(self, c: tuple = fzero):
        sign, man, exp, _ = c
        self.man, self.exp = -man if sign else man, exp

    def add_term(self, t: int, e: int) -> None:
        """Add t 2^e."""
        s = self.man
        if not s:
            self.man, self.exp = t, e
        elif e >= self.exp:
            self.man = s + (t << (e - self.exp))
        else:
            self.man, self.exp = (s << (self.exp - e)) + t, e

    def add_product(self, x: tuple, y: tuple, c: int = 1) -> None:
        """Add c x y for finite raw x and y and a nonzero int c."""
        if x[1] and y[1]:
            t = c * x[1] * y[1]
            self.add_term(-t if x[0] ^ y[0] else t, x[2] + y[2])

    def add_dot(self, u: _Exact, v: _Exact, negate: bool = False, start: int = 0) -> None:
        """Add the dot product of u[start:] and v, or subtract it with negate."""
        ints = u.ints[start:] if start else u.ints
        t = sum(map(mul, ints, v.ints))
        if t:
            self.add_term(-t if negate else t, u.exp + v.exp)

    def rounded(self, prec: int, rnd: str) -> tuple:
        """The sum rounded once; exact at prec 0."""
        return _round_int(self.man, self.exp, prec, rnd)

    def over(self, pivot: tuple, prec: int, rnd: str) -> tuple:
        """The exact sum divided once by the raw pivot."""
        return mpf_div(self.rounded(0, rnd), pivot, prec, rnd)


def unit_lower_inverse(l: Matrix) -> Matrix:
    """Invert a unit lower triangular matrix by forward substitution: entry
    (i, j) of the inverse S is -sum_{j <= p < i} l_ip s_pj, one exact sum
    rounded once, column by column. Only the entries below the diagonal are
    read; if one is a nan or an infinity, every entry of S below the diagonal
    is nan."""
    n = len(l)
    rows = [_finite_raws(row[:i]) for i, row in enumerate(l)]
    if None in rows:
        return _nan_lower(n, mpf(1))
    prec, rnd = mp._prec_rounding
    low = [_Exact.of(row) for row in rows]
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


def _ldl_series(coeffs: list, floor: tuple, seed: tuple | None = None) -> tuple:
    """The Crout LDL of the truncated Taylor series whose coefficient k is
    the raw matrix coeffs[k]: rows of L (below the diagonal) and D, each
    entry the list of its coefficients.

    Row i is formed left to right. With W = L D kept exact,

        l_ij,k = (a_ij,k - sum_{m <= k} L_i,m . W_j,k-m - sum_{m < k} l_ij,m d_j,k-m) / d_j,0
        d_i,k = a_ii,k - sum_{m <= k} L_i,m . W_i,k-m

    each one exact sum, divided once or rounded once; coefficient 0 is the
    plain elimination's. d_i,0 takes the pivot test once its row is formed.
    A seed, coefficient 0 as (rows of L below the diagonal, D) of raw values,
    is read in its place: coeffs[0] is not read and no pivot is tested.
    """
    n, r = len(coeffs[-1]), len(coeffs)
    prec, rnd = mp._prec_rounding
    first = 1 if seed else 0
    ws, d, out = [], [], []
    for i in range(n):
        li = [_Exact() for _ in range(r)]
        wi = [_Exact() for _ in range(r)]
        row = []
        for j in range(i):
            dj, wj = d[j], ws[j]
            q = [seed[0][i][j]] if seed else []
            for k in range(first, r):
                s = _Sum(coeffs[k][i][j])
                for m in range(k + 1):
                    s.add_dot(li[m], wj[k - m], True)
                for m in range(k):
                    s.add_product(q[m], dj[k - m], -1)
                q.append(s.over(dj[0], prec, rnd))
            for k in range(r):
                li[k].push_raw(q[k])
                w = _Sum()
                for m in range(k + 1):
                    w.add_product(q[m], dj[k - m])
                wi[k].push(w.man, w.exp)
            row.append(q)
        di = [seed[1][i]] if seed else []
        for k in range(first, r):
            s = _Sum(coeffs[k][i][i])
            for m in range(k + 1):
                s.add_dot(li[m], wi[k - m], True)
            di.append(s.rounded(prec, rnd))
        if not seed and (di[0] == fzero or mpf_lt(mpf_abs(di[0]), floor)):
            raise SingularTruncation(i)
        ws.append(wi)
        d.append(di)
        out.append(row)
    return out, d


def ldl_no_pivot(a: Matrix, pivot_floor, *pencil: Matrix, seed: tuple | None = None) -> tuple:
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
    the plain kernel's L and D. Without it, (L, D). A ``seed``, (L, D) of
    A or of a matrix A leads (the leading rows of L and entries of D are
    read), is taken as coefficient 0 instead of forming it again: A is not
    read, no pivot is tested, and every coefficient has the bits of the
    call without it that accepts A. If an entry read, of A, the pencil or
    the seed, is a nan or an infinity, no pivot is tested, and in every
    coefficient each entry below the diagonal of L and each entry of D is
    nan.
    """
    n, first = len(a), 1 if seed else 0
    coeffs = [None] * first + [
        [_finite_raws(row[: i + 1]) for i, row in enumerate(c)] for c in ((a,) + pencil)[first:]
    ]
    read = coeffs[first:]
    if seed:
        l0, d0 = seed
        seed = [_finite_raws(row[:i]) for i, row in enumerate(l0[:n])], _finite_raws(d0[:n])
        read += [seed[0], [seed[1]]]
    if any(None in rows for rows in read):
        units = [mpf(1)] + [mpf(0)] * (len(coeffs) - 1)
        return tuple(m for unit in units for m in (_nan_lower(n, unit), [_nan()] * n))
    if len(coeffs) > 2:
        # the second derivative's Taylor coefficient is half of it, exactly
        coeffs[2] = [[mpf_shift(t, -1) for t in row] for row in coeffs[2]]
    low, d = _ldl_series(coeffs, _raw(pivot_floor), seed)
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
    elimination: ``complete`` is False and ``det`` is 0. If an entry of A is
    a nan or an infinity, nothing is formed: ``complete`` is False and
    ``det`` is nan.
    """

    perm: list
    complete: bool
    det: mpf
    pivots: list
    lower: list
    upper: list


def lu_factor(a: Matrix) -> LUFactors:
    """The partially pivoted LU of a, at the precision of the call."""
    prec, rnd = mp._prec_rounding
    n = len(a)
    f = LUFactors(perm=list(range(n)), complete=True, det=mpf(1), pivots=[],
                  lower=[_Exact() for _ in range(n)], upper=[_Exact() for _ in range(n)])
    rows = [_finite_raws(row) for row in a]
    if None in rows:
        f.complete, f.det = False, _nan()
        return f
    perm, lower, upper = f.perm, f.lower, f.upper
    det = fone
    for j in range(n):
        sums, values, best, k = [], [], None, 0
        for i in range(j, n):
            s = _Sum(rows[perm[i]][j])
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
            f.complete, f.det = False, mpf(0)
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
        a_j, l_j = rows[perm[j]], lower[j]
        for q in range(j + 1, n):
            s = _Sum(a_j[q])
            s.add_dot(l_j, upper[q], True)
            upper[q].push_raw(s.rounded(prec, rnd))
    f.det = mp.make_mpf(det)
    return f


def lu_determinant(a: Matrix) -> mpf:
    """Determinant by LU with partial pivoting: ``lu_factor(a).det``. A 1 x 1
    matrix of a finite entry is that entry rounded once, which is that LU's
    pivot and det."""
    if len(a) == 1 and (row := _finite_raws(a[0])):
        prec, rnd = mp._prec_rounding
        return mp.make_mpf(_Sum(row[0]).rounded(prec, rnd))
    return lu_factor(a).det


def lu_row_solve(f: LUFactors, b: list) -> _Exact | None:
    """y with y U = b, U the upper factor of a complete f: each y_j the
    exact b_j - sum_{i < j} y_i u_ij divided once by u_jj. None if b holds
    a nan or an infinity."""
    raws = _finite_raws(b)
    if raws is None:
        return None
    prec, rnd = mp._prec_rounding
    y = _Exact()
    for j, x in enumerate(raws):
        s = _Sum(x)
        s.add_dot(y, f.upper[j], True)
        y.push_raw(s.over(f.pivots[j], prec, rnd))
    return y


def lu_column_solve(f: LUFactors, a: list) -> _Exact | None:
    """z = L^-1 P a, L and P the lower factor and row order of f: each z_i
    the exact a_perm(i) - sum_{l < i} l_il z_l rounded once. None if a holds
    a nan or an infinity."""
    raws = _finite_raws(a)
    if raws is None:
        return None
    prec, rnd = mp._prec_rounding
    z = _Exact()
    for i, r in enumerate(f.perm):
        s = _Sum(raws[r])
        s.add_dot(f.lower[i], z, True)
        z.push_raw(s.rounded(prec, rnd))
    return z


def schur_complement(b: Matrix, ys: list, zs: list) -> Matrix:
    """Entries b[i][j] - ys[i] . zs[j], each one exact sum rounded once.

    With ys from ``lu_row_solve`` and zs from ``lu_column_solve`` of G = P^T L U,
    this is B - C G^-1 A for the rows C and columns A those solves read. If b
    holds a nan or an infinity, or a solve read one (it is None), every entry
    is nan.
    """
    rows = [_finite_raws(row) for row in b]
    if None in rows or None in ys or None in zs:
        nan = _nan()
        return [[nan] * len(zs) for _ in b]
    prec, rnd = mp._prec_rounding
    make = mp.make_mpf
    out = []
    for row, y in zip(rows, ys):
        out_row = []
        for x, z in zip(row, zs):
            s = _Sum(x)
            s.add_dot(y, z, True)
            out_row.append(make(s.rounded(prec, rnd)))
        out.append(out_row)
    return out


def _recurrence(beta: list, gamma: list, count: int) -> list | None:
    """The coefficients of ``_three_term``, each read once: (beta_j, gamma_j)
    for j < count - 1 as signed ints at their exponents, gamma_0 = 0
    (``gamma[i]`` is gamma_{i+1}); None if one is a nan or an infinity."""
    ints = []
    for j in range(count - 1):
        b, g = _raw(beta[j]), _raw(gamma[j - 1]) if j else fzero
        if not (_finite(b) and _finite(g)):
            return None
        ints.append((-b[1] if b[0] else b[1], b[2], -g[1] if g[0] else g[1], g[2]))
    return ints


def _three_term(z, ints: list | None) -> list | None:
    """``three_term_values`` as raw values, from the coefficients
    ``_recurrence`` read, each p_{j+1} one integer sum rounded once; None if
    z, where a p_j reads it, or a coefficient is a nan or an infinity."""
    zr = _raw(z)
    if ints is None or ints and not _finite(zr):
        return None
    prec, rnd = mp._prec_rounding
    zs, zi, ze, _ = zr
    zi = -zi if zs else zi
    out = [fone]
    pi, pe, qi, qe = 1, 0, 0, 0  # p_j and p_{j-1}, ints at their exponents
    for bi, be, gi, ge in ints:
        d, de = ((zi << ze - be) - bi, be) if ze > be else (zi - (bi << be - ze), ze)
        man, exp = d * pi, de + pe
        if gi and qi:
            t, te = gi * qi, ge + qe
            man, exp = (man - (t << te - exp), exp) if te > exp else ((man << exp - te) - t, te)
        x = _round_int(man, exp, prec, rnd)
        out.append(x)
        qi, qe, pi, pe = pi, pe, -x[1] if x[0] else x[1], x[2]
    return out


def three_term_values(z, beta: list, gamma: list, count: int) -> list:
    """p_0(z) .. p_{count-1}(z) of the monic recurrence, as mpfs: p_0 = 1 and
    p_{j+1} = (z - beta_j) p_j - gamma_j p_{j-1}, gamma_0 = 0 (``gamma[i]`` is
    gamma_{i+1}), each one exact sum with z - beta_j exact, rounded once. If
    z or a coefficient read is a nan or an infinity, p_1 onward are nan."""
    p = _three_term(z, _recurrence(beta, gamma, count))
    if p is None:
        return [mpf(1)] + [_nan()] * (count - 1)
    return [mp.make_mpf(x) for x in p]


class GramSums:
    """Sums S[n][m] of p_n p_m w over lattice points, for m <= n < count, each
    rounded once.

    The sums stay exact between points, as one ``_Exact`` vector (row n at
    offset n (n + 1) / 2). A point adds its terms as integers at the point's
    smallest exponent, into sums kept at the exponent common to all points,
    lowered with 64 bits to spare when a point's falls below it. Once a point
    carries a nan or an infinity, every sum is nan. ``lower()`` rounds each
    sum once, at the precision in effect when it is called.
    """

    def __init__(self, count: int):
        self._count = count
        self._sums = _Exact.of([fzero] * (count * (count + 1) // 2))

    def add(self, pvec: list, weight) -> None:
        """Add the point's terms p_n p_m weight."""
        self._add(_finite_raws(pvec[: self._count]), _raw(weight))

    def add_points(self, points, beta: list, gamma: list) -> None:
        """``add`` of each point z's ``three_term_values`` against its weight,
        for the pairs (z, weight) of points, kept raw; beta and gamma are
        read once for all of them."""
        coefficients = _recurrence(beta, gamma, self._count)
        for z, weight in points:
            self._add(_three_term(z, coefficients), _raw(weight))

    def _add(self, p: list | None, w: tuple) -> None:
        """Add the terms of the point whose raw values are p, None if one of
        them is a nan or an infinity, weighted by the raw w."""
        if p is None or not _finite(w):
            self._sums = None
        elif self._sums is not None and w[1]:
            point = _Exact.of(p)
            if point.exp is not None:
                self._add_ints(point, w)

    def _add_ints(self, point: _Exact, w: tuple) -> None:
        """Add the point's terms."""
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

    def lower(self) -> Matrix:
        """Row n holds S[n][0..n], each sum rounded once."""
        if self._sums is None:
            nan = _nan()
            return [[nan] * (n + 1) for n in range(self._count)]
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
