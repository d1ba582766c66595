import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import inf, isnan, ldexp, mpf, nan, workprec

from semidop import MomentTable, PrecisionContext, SingularTruncation, pascal_matrix
from semidop.linalg import (
    GramSums,
    exceeds,
    identity,
    ldl_no_pivot,
    lu_determinant,
    mat_mul,
    max_abs,
    out_of_band_max,
    unit_lower_inverse,
    window_diff,
)
from semidop.result import ResidualAccumulator

from conftest import FAMILIES

TOL = mpf(2) ** -100


def dense_mat_mul(a, b):
    """The dense kernel mat_mul replaced: every product, summed by ``sum``."""
    k = len(b)
    bt = list(zip(*b))
    return [[sum(row_a[l] * bt_j[l] for l in range(k)) for bt_j in bt] for row_a in a]


def bits(m):
    """Each entry as (type, exact value): mpf by its raw tuple, so 0 != mpf(0)."""
    return [[(type(x), x._mpf_ if isinstance(x, mpf) else x) for x in row] for row in m]


@st.composite
def matrices(draw, rows: int, cols: int):
    """Mostly exact zeros; ints, 512-bit mpfs or both; now and then a nan or inf."""
    kind = draw(st.sampled_from(["int", "mpf", "mixed"]))
    out = []
    for _ in range(rows):
        row = []
        for _ in range(cols):
            t = draw(st.sampled_from(["int", "mpf"])) if kind == "mixed" else kind
            if draw(st.integers(0, 2)):
                row.append(0 if t == "int" else mpf(0))
            elif t == "int":
                row.append(draw(st.integers(-(2**600), 2**600)))
            else:
                man = draw(st.integers(-(2**512) + 1, 2**512 - 1))
                with workprec(512):
                    row.append(ldexp(mpf(man), draw(st.integers(-600, 600))))
        out.append(row)
    if draw(st.integers(0, 9)) == 0:
        out[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from([nan, inf, -inf])
        )
    return out


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_mat_mul_matches_dense_sum_bit_for_bit(data):
    n, k, m = (data.draw(st.integers(1, 5)) for _ in range(3))
    a = data.draw(matrices(n, k))
    b = data.draw(matrices(k, m))
    with workprec(data.draw(st.sampled_from([53, 256, 512, 600]))):
        assert bits(mat_mul(a, b)) == bits(dense_mat_mul(a, b))


def test_mat_mul_entry_types():
    # int factors give exact ints, zeros included; an mpf factor makes every entry an mpf
    prod = mat_mul(pascal_matrix(4), pascal_matrix(4, -1))
    assert bits(prod) == bits([[int(i == j) for j in range(4)] for i in range(4)])
    prod = mat_mul(pascal_matrix(3), identity(3))
    assert all(type(x) is mpf for row in prod for x in row)


def test_mat_mul_spreads_nan_through_zeros():
    # nan * 0 is nan: a non-finite entry reaches every entry its row or column meets
    a = [[nan, mpf(0)], [mpf(0), mpf(1)]]
    prod = mat_mul(a, identity(2))
    assert isnan(prod[0][0]) and isnan(prod[0][1])
    assert prod[1] == [mpf(0), mpf(1)]
    prod = mat_mul(identity(2), [[inf, mpf(0)], [mpf(0), mpf(1)]])
    assert prod[0][0] == inf and isnan(prod[1][0])


def test_nan_residual_fails_its_check():
    all_nan = [[nan] * 3 for _ in range(3)]
    diff, scale = window_diff(all_nan, identity(3), 3)
    assert isnan(diff)
    acc = ResidualAccumulator(64)
    acc.add("x", diff, scale)
    res = acc.result("x", TOL, "3x3")
    assert not res.passed and isnan(res.max_residual)
    # a nan stays the worst whatever comes after it
    acc = ResidualAccumulator(64)
    acc.add("ok", 0, 1)
    acc.add("y", nan, 1)
    acc.add("later", TOL / 2, 1)
    assert not acc.result("y", TOL, "1x1").passed


def test_residual_against_infinite_scale_fails():
    acc = ResidualAccumulator(64)
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
# (mat_mul's oracle is dense_mat_mul above)

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
    """The orthogonality walk's per-point loop: lower sums and each point's max |term|."""
    sums = [[mpf(0)] * count for _ in range(count)]
    contribs = []
    for pvec, value in points:
        contrib = mpf(0)
        for n in range(count):
            for m in range(n + 1):
                term = pvec[n] * pvec[m] * value
                sums[n][m] += term
                if abs(term) > contrib:
                    contrib = abs(term)
        contribs.append(contrib)
    return [row[: n + 1] for n, row in enumerate(sums)], contribs


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
        contribs = [gram.add(pvec, value) for pvec, value in points]
        want_sums, want_contribs = op_gram_sums(points, n)
        assert bits(gram.lower()) == bits(want_sums)
        assert bits([contribs]) == bits([want_contribs])


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
