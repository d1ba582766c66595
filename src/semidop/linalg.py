"""Small dense linear algebra over mpmath numbers.

Truncations in this package are tiny (k <= ~32), so dense row-major lists are
the only representation; matrices that are banded by theorem are read by
diagonal offset (``diagonal_of``) and their band is checked, not stored.
Products skip exact zeros, which J (tridiagonal), S and Pi (triangular) hold
by theorem, and keep the bits of the dense sum; a factor with a non-finite
entry, or with both int and mpf entries, takes the dense sum. All elimination
routines use fixed pivoting rules so results are bit-stable.

Every check takes the maximum of its residuals through ``max_abs``,
``window_diff`` or ``out_of_band_max`` here, or through ``exceeds`` (which
``ResidualAccumulator`` uses for named parts). These maxima keep a nan, where
Python's ``max(mpf(0), nan)`` is 0, so a nan residual fails its check.
"""

from __future__ import annotations

from mpmath import mpf
from mpmath.libmp import finf, fnan, fninf

from .errors import SingularTruncation
from .weights import to_mpf

Matrix = list  # list[list[number]]
_NON_FINITE = (fnan, finf, fninf)


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


def _entry_type(a: Matrix):
    """int or mpf when every entry of a is a finite value of that one type, else None."""
    types = {type(x) for row in a for x in row}
    if types == {int}:
        return int
    if types == {mpf} and not any(x._mpf_ in _NON_FINITE for row in a for x in row):
        return mpf
    return None


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    """a b, multiplying only the pairs of nonzero entries.

    Each entry starts from its first nonzero product and adds the others in
    ascending inner index. Adding an exact zero returns the other operand
    unchanged, so every entry has the bits and the type of the dense sum
    ``sum(a[i][l] * b[l][j] for l)``; one with no nonzero product is ``0``
    when a and b hold only ints and ``mpf(0)`` otherwise. When either factor
    holds a non-finite entry or mixes types, the dense sum itself is taken:
    ``nan * 0`` is ``nan``, and the type of a sum follows its products.
    """
    k, m = len(b), len(b[0])
    type_a, type_b = _entry_type(a), _entry_type(b)
    if type_a is None or type_b is None:
        bt = list(zip(*b))
        return [[sum(row_a[l] * bt_j[l] for l in range(k)) for bt_j in bt] for row_a in a]
    zero = mpf(0) if mpf in (type_a, type_b) else 0
    rows_b = [[(j, y) for j, y in enumerate(row) if y] for row in b]
    out = []
    for row_a in a:
        acc = [zero] * m
        for x, row_b in zip(row_a, rows_b):
            if x:
                for j, y in row_b:
                    p = x * y
                    acc[j] = p if acc[j] is zero else acc[j] + p
        out.append(acc)
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


def max_abs(a: Matrix, window: int | None = None) -> mpf:
    n = len(a) if window is None else min(window, len(a))
    best = mpf(0)
    for i in range(n):
        for j in range(n if window is not None else len(a[i])):
            v = abs(a[i][j])
            if exceeds(v, best):
                best = v
    return best


def window_diff(a: Matrix, b: Matrix, window: int):
    """(max |a-b|, max(|a|,|b|)) over the leading window x window block."""
    scale = max_abs([[max_abs(a, window), max_abs(b, window)]])
    return max_abs(mat_sub(a, b), window), scale


def poly_of_matrix(coeffs, a: Matrix) -> Matrix:
    """Evaluate a polynomial (ascending coefficients) at a square matrix by Horner."""
    n = len(a)
    acc = mat_scale(identity(n), to_mpf(coeffs[-1]))
    for c in reversed(coeffs[:-1]):
        acc = mat_mul(acc, a)
        cm = to_mpf(c)
        for i in range(n):
            acc[i][i] = acc[i][i] + cm
    return acc


def unit_lower_inverse(l: Matrix) -> Matrix:
    """Invert a unit lower triangular matrix by forward substitution."""
    n = len(l)
    inv = identity(n)
    for j in range(n):
        col = inv  # solve L x = e_j in place
        for i in range(j + 1, n):
            s = mpf(0)
            for p in range(j, i):
                s += l[i][p] * col[p][j]
            col[i][j] = -s
    return inv


def ldl_no_pivot(a: Matrix, pivot_floor) -> tuple[Matrix, list]:
    """A = L D L^T for symmetric A, unit lower L, no row exchanges.

    Raises SingularTruncation at the first pivot with |pivot| < pivot_floor.
    Row exchanges are deliberately not attempted: they would break the
    triangular correspondence this factorization exists to expose.
    """
    n = len(a)
    l = identity(n)
    d = [mpf(0)] * n
    for j in range(n):
        acc = a[j][j]
        for p in range(j):
            acc = acc - l[j][p] * l[j][p] * d[p]
        if abs(acc) < pivot_floor:
            raise SingularTruncation(j)
        d[j] = acc
        for i in range(j + 1, n):
            s = a[i][j]
            for p in range(j):
                s = s - l[i][p] * l[j][p] * d[p]
            l[i][j] = s / d[j]
    return l, d


def lu_determinant(a: Matrix) -> mpf:
    """Determinant by LU with partial pivoting (first maximal pivot)."""
    n = len(a)
    if n == 0:
        return mpf(1)
    work = [list(map(mpf, row)) for row in a]
    det = mpf(1)
    for j in range(n):
        pivot_row = j
        best = abs(work[j][j])
        for i in range(j + 1, n):
            v = abs(work[i][j])
            if v > best:
                best = v
                pivot_row = i
        if best == 0:
            return mpf(0)
        if pivot_row != j:
            work[j], work[pivot_row] = work[pivot_row], work[j]
            det = -det
        pivot = work[j][j]
        det *= pivot
        for i in range(j + 1, n):
            factor = work[i][j] / pivot
            if factor:
                row_i = work[i]
                row_j = work[j]
                for p in range(j + 1, n):
                    row_i[p] = row_i[p] - factor * row_j[p]
    return det


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
    worst = mpf(0)
    for i in range(window):
        for j in range(window):
            d = j - i
            if lo <= d <= hi:
                continue
            v = abs(a[i][j])
            if exceeds(v, worst):
                worst = v
    return worst
