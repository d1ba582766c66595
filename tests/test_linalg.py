from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import inf, isfinite, isnan, ldexp, mpf, nan, workprec

from semidop import MomentTable, PrecisionContext, SingularTruncation, pascal_matrix
from semidop.linalg import (
    GramSums,
    exceeds,
    identity,
    ldl_no_pivot,
    lu_determinant,
    mat_mul,
    mat_vec,
    max_abs,
    out_of_band_max,
    three_term_values,
    transpose,
    unit_lower_inverse,
    window_diff,
)
from semidop.result import ResidualAccumulator
from semidop.weights import to_mpf

from conftest import FAMILIES

TOL = mpf(2) ** -100


def dense_mat_mul(a, b):
    """The operator dense sum: every product, summed by ``sum``."""
    k = len(b)
    bt = list(zip(*b))
    return [[sum(row_a[l] * bt_j[l] for l in range(k)) for bt_j in bt] for row_a in a]


def bits(m):
    """Each entry as (type, exact value): mpf by its raw tuple, so 0 != mpf(0)."""
    return [[(type(x), x._mpf_ if isinstance(x, mpf) else x) for x in row] for row in m]


def exact(x):
    """An int or a finite mpf as the Fraction it holds."""
    if type(x) is int:
        return Fraction(x)
    sign, man, exp, _ = x._mpf_
    return Fraction(-man if sign else man) * Fraction(2) ** exp


@st.composite
def matrices(draw, rows: int, cols: int):
    """Exact zeros (two in three entries of a sparse draw, one in six
    otherwise); ints, mpfs of up to 512 bits or both, their exponents within
    8, 600 or 5000 binades of 1; now and then a nan or inf."""
    kind = draw(st.sampled_from(["int", "mpf", "mixed"]))
    span = draw(st.sampled_from([8, 600, 5000]))
    sparse = draw(st.booleans())
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            t = draw(st.sampled_from(["int", "mpf"])) if kind == "mixed" else kind
            if draw(st.integers(0, 5)) < (4 if sparse else 1):
                row.append(0 if t == "int" else mpf(0))
            elif t == "int":
                row.append(draw(st.integers(-(2**600), 2**600)))
            else:
                man = draw(st.integers(-(2**512) + 1, 2**512 - 1))
                with workprec(512):
                    row.append(ldexp(mpf(man), draw(st.integers(-span, span))))
        out.append(row)
    if draw(st.integers(0, 9)) == 0:
        out[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from([nan, inf, -inf])
        )
    return out


def exact_mat_mul(a, b):
    """``mat_mul``'s contract: each entry the exact Fraction sum of its
    products, rounded once to nearest at the working precision; exact ints
    when neither factor holds an mpf. A factor with a nan or an infinity
    takes the operator dense sum."""
    if not all(isfinite(x) for m in (a, b) for row in m for x in row):
        return dense_mat_mul(a, b)
    ints = all(type(x) is int for m in (a, b) for row in m for x in row)
    bt = list(zip(*b))
    sums = [[sum(exact(x) * exact(y) for x, y in zip(row_a, bt_j)) for bt_j in bt] for row_a in a]
    return [[int(s) if ints else to_mpf(s) for s in row] for row in sums]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_are_the_exact_sums_rounded_once(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrices(n, k))
    b = data.draw(matrices(k, m))
    with workprec(data.draw(st.sampled_from([53, 256, 512, 600]))):
        assert bits(mat_mul(a, b)) == bits(exact_mat_mul(a, b))
        # a vector is one column: mat_vec sums as mat_mul does
        v = [row[0] for row in b]
        assert bits([mat_vec(a, v)]) == bits(transpose(exact_mat_mul(a, [[x] for x in v])))


def test_mat_mul_entry_types():
    # int factors give exact ints, zeros included; an mpf factor makes every entry an mpf
    prod = mat_mul(pascal_matrix(4), pascal_matrix(4, -1))
    assert bits(prod) == bits([[int(i == j) for j in range(4)] for i in range(4)])
    prod = mat_mul(pascal_matrix(3), identity(3))
    assert all(type(x) is mpf for row in prod for x in row)
    # a factor mixing ints and mpfs: every entry an mpf, an exact zero mpf(0)
    mixed = [[1, mpf(0)], [0, mpf(3)]]
    for prod in (mat_mul(mixed, [[2, 0], [0, 0]]), mat_mul([[2, 0], [0, 0]], mixed)):
        assert all(type(x) is mpf for row in prod for x in row)
        assert prod[1] == [mpf(0), mpf(0)] and prod[0][0] == 2
    assert bits([mat_vec(mixed, [2, 1])]) == bits([[mpf(2), mpf(3)]])
    assert bits([mat_vec(pascal_matrix(3), [1, 1, 1])]) == bits([[1, 2, 4]])


def test_mat_mul_spreads_nan_through_zeros():
    # nan * 0 is nan: a non-finite entry reaches every entry its row or column meets
    a = [[nan, mpf(0)], [mpf(0), mpf(1)]]
    prod = mat_mul(a, identity(2))
    assert isnan(prod[0][0]) and isnan(prod[0][1])
    assert prod[1] == [mpf(0), mpf(1)]
    prod = mat_mul(identity(2), [[inf, mpf(0)], [mpf(0), mpf(1)]])
    assert prod[0][0] == inf and isnan(prod[1][0])
    assert isnan(mat_vec(identity(2), [mpf(0), nan])[0])


def test_nan_residual_fails_its_check():
    all_nan = [[nan] * 3 for _ in range(3)]
    diff, scale = window_diff(all_nan, identity(3), 3)
    assert isnan(diff)
    acc = ResidualAccumulator()
    acc.add("x", diff, scale)
    res = acc.result("x", TOL, "3x3")
    assert not res.passed and isnan(res.max_residual)
    # a nan stays the worst whatever comes after it
    acc = ResidualAccumulator()
    acc.add("ok", 0, 1)
    acc.add("y", nan, 1)
    acc.add("later", TOL / 2, 1)
    assert not acc.result("y", TOL, "1x1").passed


def test_residual_against_infinite_scale_fails():
    acc = ResidualAccumulator()
    acc.add("x", mpf(0), inf)
    assert not acc.result("x", TOL, "1x1").passed


def test_maxima_keep_nan():
    m = [[mpf(1), mpf(0)], [nan, mpf(2)]]
    assert isnan(max_abs(m))
    assert isnan(out_of_band_max(m, 0, 0, 2))
    assert max_abs([[mpf(1), mpf(-3)], [mpf(2), mpf(0)]]) == 3


@st.composite
def with_nan(draw, n: int):
    """An n x n matrix of small mpf values, with a nan at a random position half the time."""
    a = [[mpf(draw(st.integers(-1000, 1000))) for _ in range(n)] for _ in range(n)]
    if draw(st.booleans()):
        a[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = nan
    return a


def brute_max_abs(values):
    """nan if any value is nan, else the builtin maximum of |value| (0 when empty)."""
    values = list(values)
    if any(isnan(v) for v in values):
        return nan
    return max((abs(v) for v in values), default=mpf(0))


def same(x, y):
    return (isnan(x) and isnan(y)) or x == y


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_maxima_match_brute_force_with_a_nan_anywhere(data):
    n = data.draw(st.integers(1, 5))
    a, b = data.draw(with_nan(n)), data.draw(with_nan(n))
    w = data.draw(st.integers(0, n))
    lo = data.draw(st.integers(-n, n))
    hi = data.draw(st.integers(lo, n))
    block = [(i, j) for i in range(w) for j in range(w)]
    assert same(max_abs(a), brute_max_abs(x for row in a for x in row))
    assert same(max_abs(a, w), brute_max_abs(a[i][j] for i, j in block))
    diff, scale = window_diff(a, b, w)
    assert same(diff, brute_max_abs(a[i][j] - b[i][j] for i, j in block))
    assert same(scale, brute_max_abs([a[i][j] for i, j in block] + [b[i][j] for i, j in block]))
    band = brute_max_abs(a[i][j] for i, j in block if not lo <= j - i <= hi)
    assert same(out_of_band_max(a, lo, hi, w), band)


# -- the operator kernels the raw-value ones replaced, kept as oracles -----------

def op_max_abs(entries):
    best = mpf(0)
    for x in entries:
        v = abs(x)
        if exceeds(v, best):
            best = v
    return best


def op_unit_lower_inverse(l):
    n = len(l)
    inv = identity(n)
    for j in range(n):
        for i in range(j + 1, n):
            s = mpf(0)
            for p in range(j, i):
                s += l[i][p] * inv[p][j]
            inv[i][j] = -s
    return inv


def op_ldl_no_pivot(a, pivot_floor):
    n = len(a)
    l = identity(n)
    d = [mpf(0)] * n
    for j in range(n):
        acc = a[j][j]
        for p in range(j):
            acc = acc - l[j][p] * l[j][p] * d[p]
        if acc == 0 or abs(acc) < pivot_floor:
            raise SingularTruncation(j)
        d[j] = acc
        for i in range(j + 1, n):
            s = a[i][j]
            for p in range(j):
                s = s - l[i][p] * l[j][p] * d[p]
            l[i][j] = s / d[j]
    return l, d


def op_lu_determinant(a):
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
            return nan if any(isnan(v) for row in work[j:] for v in row[j:]) else mpf(0)
        if pivot_row != j:
            work[j], work[pivot_row] = work[pivot_row], work[j]
            det = -det
        pivot = work[j][j]
        det *= pivot
        for i in range(j + 1, n):
            factor = work[i][j] / pivot
            if factor:
                for p in range(j + 1, n):
                    work[i][p] = work[i][p] - factor * work[j][p]
    return det


def op_gram_sums(points, count):
    """The orthogonality walk's per-point loop on the operators: the lower sums."""
    sums = [[mpf(0)] * count for _ in range(count)]
    for pvec, value in points:
        for n in range(count):
            for m in range(n + 1):
                sums[n][m] += pvec[n] * pvec[m] * value
    return [row[: n + 1] for n, row in enumerate(sums)]


def exact_gram_sums(points, count):
    """``GramSums.lower()``'s contract: each sum of the exact products p_n p_m w,
    as a Fraction, rounded once at the working precision. A sum the operator
    loop leaves nan or infinite keeps the operators' bits."""
    op_sums = op_gram_sums(points, count)

    def exact(x):
        sign, man, exp, _ = x._mpf_
        return Fraction(-man if sign else man) * Fraction(2) ** exp

    out = []
    for n in range(count):
        row = []
        for m in range(n + 1):
            if isfinite(op_sums[n][m]):
                row.append(to_mpf(sum(exact(p[n]) * exact(p[m]) * exact(w) for p, w in points)))
            else:
                row.append(op_sums[n][m])
        out.append(row)
    return out


def op_polynomial_vector(z, beta, gamma, count):
    """The recurrence loop of ``structure.polynomial_vector`` on the operators."""
    out = [mpf(1)]
    p_prev, p = mpf(0), mpf(1)
    for j in range(count - 1):
        gamma_j = gamma[j - 1] if j >= 1 else mpf(0)
        p_prev, p = p, (z - beta[j]) * p - gamma_j * p_prev
        out.append(p)
    return out


def raw(x):
    return bits([[x]])[0][0]


def outcome(kernel, *args):
    """The kernel's result in bits, or the index of the singular pivot it raised."""
    try:
        l, d = kernel(*args)
    except SingularTruncation as exc:
        return ("singular", exc.index)
    return bits(l), bits([d])


@st.composite
def wide_matrices(draw, n: int):
    """n x n, about half exact zeros, the rest 512-bit mpfs between 2^-8 and 2^12.

    Now and then a nan, inf or -inf is planted: at a random position, at the
    first pivot, or at the first pivot with row 2 twice row 1, whose remainder
    is singular once row 2 pivots the first column.
    """
    out = []
    for _ in range(n):
        row = []
        for _ in range(n):
            if draw(st.booleans()):
                row.append(mpf(0))
            else:
                man = draw(st.integers(-(2**512) + 1, 2**512 - 1))
                with workprec(512):
                    row.append(ldexp(mpf(man), draw(st.integers(-520, -500))))
        out.append(row)
    plant = draw(st.sampled_from(["none", "none", "anywhere", "pivot", "singular_pivot"]))
    if plant == "none":
        return out
    bad = draw(st.sampled_from([nan, nan, inf, -inf]))
    if plant == "anywhere":
        out[draw(st.integers(0, n - 1))][draw(st.integers(0, n - 1))] = bad
        return out
    out[0][0] = bad
    if plant == "singular_pivot" and n >= 3:
        out[2] = [ldexp(x, 1) for x in out[1]]
    return out


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_raw_kernels_match_operator_kernels_bit_for_bit(data):
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    n = data.draw(st.integers(1, 5))
    a = data.draw(wide_matrices(n))
    lo = data.draw(st.integers(-n, n))
    hi = data.draw(st.integers(lo, n))
    w = data.draw(st.integers(0, n))
    floor = data.draw(st.sampled_from([mpf(0), mpf(2) ** -8, mpf(1), mpf(2) ** 10]))
    with workprec(prec):
        assert raw(lu_determinant(a)) == raw(op_lu_determinant(a))
        assert outcome(ldl_no_pivot, a, floor) == outcome(op_ldl_no_pivot, a, floor)
        assert bits(unit_lower_inverse(a)) == bits(op_unit_lower_inverse(a))
        assert raw(max_abs(a)) == raw(op_max_abs(x for row in a for x in row))
        block = [a[i][j] for i in range(w) for j in range(w)]
        assert raw(max_abs(a, w)) == raw(op_max_abs(block))
        band = [a[i][j] for i in range(w) for j in range(w) if not lo <= j - i <= hi]
        assert raw(out_of_band_max(a, lo, hi, w)) == raw(op_max_abs(band))
        # each row of a as one lattice point's polynomial values, weighted by its last entry
        points = [(row, row[-1]) for row in a]
        gram = GramSums(n)
        for pvec, value in points:
            gram.add(pvec, value)
        assert bits(gram.lower()) == bits(exact_gram_sums(points, n))


def test_raw_kernels_keep_a_nan_as_the_operators_do():
    # the operators compare by mpf_gt and mpf_lt, which keep a nan; mpf_cmp(1, nan) is 1
    with workprec(128):
        # a nan after a finite maximum stays the maximum
        assert isnan(max_abs([[mpf(1), nan, mpf(2)]]))
        # a nan pivot stays the pivot: nan, where pivoting on the 2 would give 0
        a = [[nan, mpf(1), mpf(1)], [mpf(1), mpf(1), mpf(0)], [mpf(2), mpf(2), mpf(0)]]
        assert isnan(op_lu_determinant(a)) and isnan(lu_determinant(a))
        # a nan pivot is not below the floor
        assert isnan(ldl_no_pivot([[nan]], mpf(1))[1][0])


def test_leading_hankel_determinants_match_the_operator_lu_bit_for_bit():
    # tau_p = det_rows(range(p)) is the pivot product of the table's cached
    # factorization of G_p, the bits the operator LU gives for G_p
    for w in FAMILIES.values():
        table = MomentTable(w, 30, PrecisionContext(mantissa_bits=512))
        for p in range(1, 16):
            dense = [table.values[i : i + p] for i in range(p)]
            with workprec(512):
                want = op_lu_determinant(dense)
            assert raw(table.det_rows(tuple(range(p)))) == raw(want)


def test_lu_determinant_is_nan_beside_a_zero_column():
    # column 1 is zero in the finite rows once row 0 pivots; the nan row is left
    with workprec(128):
        for a in (
            [[mpf(1), mpf(2), mpf(0)], [mpf(1), mpf(2), mpf(0)], [nan, mpf(1), mpf(1)]],
            [[mpf(1), mpf(2), mpf(0)], [mpf(1), mpf(2), mpf(0)], [mpf(0), mpf(0), nan]],
        ):
            assert isnan(lu_determinant(a))
        finite = [[mpf(1), mpf(2), mpf(0)], [mpf(1), mpf(2), mpf(0)], [mpf(5), mpf(1), mpf(1)]]
        assert raw(lu_determinant(finite)) == raw(mpf(0))


def test_ldl_exact_zero_pivot_is_singular_at_zero_floor():
    # a zero floor admits every pivot but an exact zero, which nothing can divide by
    with workprec(128):
        for a, index in (
            ([[mpf(0), mpf(0)], [mpf(0), mpf(0)]], 0),
            ([[mpf(0)]], 0),
            ([[mpf(1), mpf(1)], [mpf(1), mpf(1)]], 1),
        ):
            with pytest.raises(SingularTruncation) as err:
                ldl_no_pivot(a, mpf(0))
            assert err.value.index == index


def test_int_maximum_stays_int():
    # as max(|x|) on the operators: the winning entry's own abs
    assert type(max_abs([[mpf(1), -3]])) is int
    assert type(max_abs([[mpf(5), -3]])) is mpf


@st.composite
def lattice_points(draw, count: int):
    """(p_0 .. p_{count-1}, w): 512-bit mpfs over a wide range of binades, about a
    third of them exact zeros, and now and then a nan planted in p or in w."""

    def entry():
        if not draw(st.integers(0, 2)):
            return mpf(0)
        man = draw(st.integers(-(2**512) + 1, 2**512 - 1))
        with workprec(512):
            return ldexp(mpf(man), draw(st.integers(-700, -300)))

    pvec, weight = [entry() for _ in range(count)], entry()
    plant = draw(st.sampled_from(["none", "none", "p", "w"]))
    if plant == "p":
        pvec[draw(st.integers(0, count - 1))] = nan
    elif plant == "w":
        weight = nan
    return pvec, weight


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_gram_sums_are_exact_and_keep_the_operators_nans(data):
    # the sums are exact and rounded once, and a nan p_n or w leaves nan in
    # exactly the sums the operator loop makes nan
    prec = data.draw(st.sampled_from([53, 256, 512]))
    count = data.draw(st.integers(1, 9))
    points = data.draw(st.lists(lattice_points(count), min_size=1, max_size=4))
    with workprec(prec):
        gram = GramSums(count)
        for pvec, weight in points:
            assert gram.add(pvec, weight) is None
        sums = gram.lower()
        want_sums = exact_gram_sums(points, count)
        op_sums = op_gram_sums(points, count)
    assert bits(sums) == bits(want_sums)
    assert [[isnan(x) for x in row] for row in sums] == [[isnan(x) for x in row] for row in op_sums]


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_raw_recurrence_matches_operator_recurrence_bit_for_bit(data):
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    count = data.draw(st.integers(1, 9))
    # beta and gamma as vectors of lattice_points, zeros and a planted nan included
    beta, _ = data.draw(lattice_points(count))
    gamma, _ = data.draw(lattice_points(count))
    z = data.draw(st.sampled_from([mpf(0), mpf(3), mpf(-2), ldexp(mpf(5), -600), nan]))
    with workprec(prec):
        got = three_term_values(z, beta, gamma, count)
        want = op_polynomial_vector(z, beta, gamma, count)
    assert bits([got]) == bits([want])


def exact_taylor_ldl(coeffs):
    """The LDL of A0 + t A1 + t^2 A2 on exact truncated series (Fractions):
    each entry the list of its Taylor coefficients, L and D as such lists."""
    n, r = len(coeffs[0]), len(coeffs)

    def mul(x, y):
        return [sum(x[i] * y[k - i] for i in range(k + 1)) for k in range(r)]

    def div(s, d):
        q = []
        for k in range(r):
            q.append((s[k] - sum(q[i] * d[k - i] for i in range(k))) / d[0])
        return q

    a = [[[c[i][j] for c in coeffs] for j in range(n)] for i in range(n)]
    l = [[[Fraction(int(i == j))] + [Fraction(0)] * (r - 1) for j in range(n)] for i in range(n)]
    d = []
    for j in range(n):
        acc = a[j][j]
        for p in range(j):
            acc = [x - y for x, y in zip(acc, mul(mul(l[j][p], l[j][p]), d[p]))]
        d.append(acc)
        for i in range(j + 1, n):
            s = a[i][j]
            for p in range(j):
                s = [x - y for x, y in zip(s, mul(mul(l[i][p], l[j][p]), d[p]))]
            l[i][j] = div(s, acc)
    return l, d


@st.composite
def symmetric_pencils(draw):
    """(A, A', A''): A diagonally dominant, so every pivot is far from zero;
    small rationals, so the exact series stay cheap."""
    n = draw(st.integers(1, 5))
    order = draw(st.sampled_from([1, 2]))
    entries = st.fractions(min_value=-4, max_value=4, max_denominator=8)
    out = []
    for q in range(order + 1):
        m = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i + 1):
                m[i][j] = m[j][i] = draw(entries)
        if q == 0:
            for i in range(n):
                m[i][i] = 4 * n + abs(m[i][i])
        out.append(m)
    return out


@settings(max_examples=60, deadline=None)
@given(pencil=symmetric_pencils(), prec=st.sampled_from([64, 256]))
def test_taylor_ldl_matches_exact_series_arithmetic(pencil, prec):
    # L, D are the plain kernel's bits; dL, dD (and d2L, d2D) agree with the
    # exact truncated-series LDL of the rational pencil to rounding
    n = len(pencil[0])
    with workprec(prec):
        mats = [[[to_mpf(x) for x in row] for row in m] for m in pencil]
        out = ldl_no_pivot(mats[0], mpf(0), *mats[1:])
        plain = ldl_no_pivot(mats[0], mpf(0))
    assert len(out) == 2 * len(pencil)
    assert bits(out[0]) == bits(plain[0]) and bits([out[1]]) == bits([plain[1]])
    # the exact series take the second derivative's Taylor coefficient A''/2
    taylor = pencil[:2] + [[[x / 2 for x in row] for row in m] for m in pencil[2:]]
    l_exact, d_exact = exact_taylor_ldl(taylor)
    with workprec(prec + 64):
        for k in range(len(pencil)):
            factorial = 2 if k == 2 else 1
            got_l, got_d = out[2 * k], out[2 * k + 1]
            for i in range(n):
                want = to_mpf(d_exact[i][k] * factorial)
                assert abs(got_d[i] - want) <= mpf(2) ** (20 - prec) * max(abs(want), 1)
                for j in range(i):
                    want = to_mpf(l_exact[i][j][k] * factorial)
                    assert abs(got_l[i][j] - want) <= mpf(2) ** (20 - prec) * max(abs(want), 1)


def test_taylor_ldl_refuses_the_plain_kernels_pivots():
    # the pencil goes through the same pivot test: a zero or a below-floor
    # pivot raises at the same index, whatever the derivatives
    with workprec(128):
        one, zero = mpf(1), mpf(0)
        a = [[one, one], [one, one]]
        da = [[one, zero], [zero, one]]
        for floor in (zero, mpf(2) ** -8):
            with pytest.raises(SingularTruncation) as err:
                ldl_no_pivot(a, floor, da)
            assert err.value.index == 1
        with pytest.raises(SingularTruncation) as err:
            ldl_no_pivot([[mpf(2) ** -10]], mpf(2) ** -8, [[one]], [[one]])
        assert err.value.index == 0
