from fractions import Fraction
from math import prod

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from mpmath import fsub, inf, isfinite, isnan, ldexp, mp, mpf, nan, workprec
from mpmath.libmp import from_man_exp

from semidop import MomentTable, PrecisionContext, SingularTruncation, pascal_matrix
from semidop.linalg import (
    GramSums,
    commutator,
    diag,
    exceeds,
    identity,
    ldl_no_pivot,
    lu_column_solve,
    lu_determinant,
    lu_factor,
    lu_row_solve,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    max_abs,
    out_of_band_max,
    poly_of_matrix,
    product_sum,
    schur_complement,
    three_term_values,
    transpose,
    unit_lower_inverse,
    window_diff,
    zeros,
)
from semidop.result import ResidualAccumulator
from semidop.weights import to_mpf

from conftest import FAMILIES
from oracles import OperatorAccumulator

TOL = mpf(2) ** -100


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
def matrices(draw, rows: int, cols: int, kind: str | None = None):
    """Exact zeros (two in three entries of a sparse draw, one in six
    otherwise); ints, mpfs of up to 512 bits or both (``kind``, drawn if not
    given), their exponents within 8, 600 or 5000 binades of 1; now and then
    a nan or inf, unless the kind is int."""
    kind = kind or draw(st.sampled_from(["int", "mpf", "mixed"]))
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
    if kind != "int" and draw(st.integers(0, 9)) == 0:
        out[draw(st.integers(0, rows - 1))][draw(st.integers(0, cols - 1))] = draw(
            st.sampled_from([nan, inf, -inf])
        )
    return out


def exact_product_sum(terms):
    """``product_sum``'s contract for terms (c, a, b): each entry the exact
    Fraction sum of c a_il b_lj over the terms, rounded once to nearest at
    the working precision; exact ints when no factor holds an mpf. An entry
    with a product that meets a nan or an infinity is the sum of those
    products times their c, which is then a nan or an infinity whatever the
    precision (inf - inf is nan)."""
    ints = all(type(x) is int for _, a, b in terms for m in (a, b) for row in m for x in row)

    def entry(i, j):
        triples = [(c, x, row[j]) for c, a, b in terms for x, row in zip(a[i], b)]
        odd = [c * (x * y) for c, x, y in triples if not (isfinite(x) and isfinite(y))]
        if odd:
            return sum(odd[1:], odd[0])
        s = sum(c * exact(x) * exact(y) for c, x, y in triples)
        return int(s) if ints else to_mpf(s)

    _, a, b = terms[0]
    return [[entry(i, j) for j in range(len(b[0]))] for i in range(len(a))]


def exact_mat_mul(a, b):
    """``mat_mul``'s contract: ``product_sum``'s for the one term a b."""
    return exact_product_sum([(1, a, b)])


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


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_signed_product_sums_are_the_exact_sums_rounded_once(data):
    # one to three terms c a b, c a nonzero int; all-int draws, mpfs across
    # thousands of binades, nans and infinities; a term repeated with -c
    # cancels exactly, to 0 where nothing else is left and to nan at an
    # infinity (inf - inf)
    n, k, m = (data.draw(st.integers(1, 4)) for _ in range(3))
    kind = data.draw(st.sampled_from([None, None, "int"]))
    terms = [
        (data.draw(st.sampled_from([1, -1, 2, -3])),
         data.draw(matrices(n, k, kind)), data.draw(matrices(k, m, kind)))
        for _ in range(data.draw(st.integers(1, 3)))
    ]
    if data.draw(st.booleans()):
        c, a, b = data.draw(st.sampled_from(terms))
        terms.append((-c, a, b))
    with workprec(data.draw(st.sampled_from([53, 256, 512, 600]))):
        assert bits(product_sum(*terms)) == bits(exact_product_sum(terms))


def test_product_sums_cancel_exactly_and_keep_the_int_rule():
    a, b = [[mpf(3), mpf(1) / 3]], [[mpf(5)], [mpf(7)]]
    assert bits(product_sum((2, a, b), (-2, a, b))) == bits([[mpf(0)]])
    ints = [[2**600 + 1, -3]], [[5], [7]]
    assert bits(product_sum((1, *ints), (-1, *ints))) == bits([[0]])
    assert bits(product_sum((2, *ints), (-1, *ints))) == bits([[5 * 2**600 + 5 - 21]])
    # opposite infinities sum to nan; one infinity is kept with its sign
    inf_row = [[inf, mpf(1)]]
    assert isnan(product_sum((1, inf_row, b), (-1, inf_row, b))[0][0])
    assert product_sum((-2, inf_row, b), (1, a, b))[0][0] == -inf


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_commutators_are_exact_and_antisymmetric_bit_for_bit(data):
    n = data.draw(st.integers(1, 4))
    a, b = data.draw(matrices(n, n)), data.draw(matrices(n, n))
    with workprec(data.draw(st.sampled_from([53, 256, 512]))):
        ab = commutator(a, b)
        assert bits(ab) == bits(exact_product_sum([(1, a, b), (-1, b, a)]))
        assert bits(ab) == bits([[-x for x in row] for row in commutator(b, a)])


@st.composite
def same_shape_pairs(draw):
    """Two matrices of one shape: the sparse draws of ``matrices``, or dense
    512-bit mantissas within a few binades of one another (``wide_matrices``),
    whose sums and products round at every drawn precision."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    if draw(st.booleans()):
        return draw(matrices(n, m)), draw(matrices(n, m))
    return draw(wide_matrices(n)), draw(wide_matrices(n))


with workprec(512):
    THIRD, SEVENTH = mpf(1) / 3, mpf(1) / 7


@settings(max_examples=200, deadline=None)
@given(
    pair=same_shape_pairs(),
    c=st.sampled_from([-1, 2, mpf(-1), THIRD, mpf(0), nan, inf]),
    prec=st.sampled_from([53, 256, 512, 600]),
)
@example(pair=([[THIRD, SEVENTH]], [[SEVENTH, -THIRD]]), c=SEVENTH, prec=53)
def test_raw_entrywise_ops_match_the_operator_loops_bit_for_bit(pair, c, prec):
    a, b = pair
    with workprec(prec):
        pairs = [list(zip(ra, rb)) for ra, rb in zip(a, b)]
        assert bits(mat_add(a, b)) == bits([[x + y for x, y in row] for row in pairs])
        assert bits(mat_sub(a, b)) == bits([[x - y for x, y in row] for row in pairs])
        assert bits(mat_scale(a, c)) == bits([[x * c for x in row] for row in a])


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


def test_a_check_whose_rows_all_read_0_reports_its_first_scale():
    # the first of equal residuals is the worst, so an all-zero check says
    # what its zero is relative to; a later larger row still replaces it
    acc = ResidualAccumulator()
    with workprec(512):
        acc.add("first", mpf(0), mpf(3))
        acc.add("second", 0, mpf(5))
        res = acc.result("x", TOL, "1x1")
        assert res.max_residual == 0 and res.scale == 3
        acc.add("third", mpf(1), mpf(7))
        assert acc.result("x", TOL, "1x1").scale == 7


RESIDUAL_PRECISIONS = (53, 256, 512, 600)


@st.composite
def row_operands(draw):
    """An operand of a residual row: an int short or longer than every
    working precision, an mpf of up to 700 bits (a tie at one of the drawn
    precisions now and then), a zero of either type, either sign, an infinity,
    a nan, or a Fraction, which ``mpf()`` refuses."""
    kind = draw(st.sampled_from(["int", "long", "mpf", "tie", "zero", "inf", "nan", "fraction"]))
    sign = draw(st.sampled_from([1, -1]))
    if kind == "int":
        return sign * draw(st.integers(1, 2**64))
    if kind == "long":
        return sign * draw(st.integers(2**600, 2**700))
    if kind in ("mpf", "tie"):
        if kind == "mpf":
            man = draw(st.integers(1, 2**700))
        else:
            # prec + 1 bits ending in 1: halfway between two values at prec
            prec = draw(st.sampled_from(RESIDUAL_PRECISIONS))
            man = (draw(st.integers(2 ** (prec - 1), 2**prec - 1)) << 1) | 1
        with workprec(800):
            return mpf((sign * man, draw(st.integers(-2000, 2000))))
    if kind == "zero":
        return draw(st.sampled_from([0, mpf(0)]))
    if kind == "inf":
        return sign * inf
    if kind == "nan":
        return nan
    return Fraction(sign, draw(st.integers(1, 9)))


@settings(max_examples=300, deadline=None)
@given(
    prec=st.sampled_from(RESIDUAL_PRECISIONS),
    rows=st.lists(st.tuples(row_operands(), row_operands()), min_size=1, max_size=8),
)
@example(prec=512, rows=[(nan, mpf(3)), (mpf(1), mpf(2)), (nan, mpf(5)), (mpf(7), inf)])
def test_residual_rows_match_the_operator_accumulator_bit_for_bit(prec, rows):
    # every part, the worst row and its scale as the operators form them; a
    # later nan row replaces an earlier one, scale and all; an operand that
    # mpf() refuses raises TypeError in both, and leaves both as they were
    acc, oracle = ResidualAccumulator(), OperatorAccumulator()
    with workprec(prec):
        for i, (diff, scale) in enumerate(rows):
            raised = []
            for a in (acc, oracle):
                try:
                    a.add(f"row[{i}]", diff, scale)
                    raised.append(None)
                except TypeError:
                    raised.append(TypeError)
            assert raised[0] == raised[1]
            assert acc.parts == oracle.parts
            for got, want in ((acc.worst, oracle.worst), (acc.worst_scale, oracle.worst_scale)):
                assert type(got) is type(want) is mpf and got._mpf_ == want._mpf_


def test_a_fraction_scale_raises_as_mpf_does():
    for acc in (ResidualAccumulator(), OperatorAccumulator()):
        with workprec(512), pytest.raises(TypeError):
            acc.add("x", mpf(1), Fraction(1, 3))
        assert acc.parts == {}


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


# -- the operator kernels the maxima keep, and the operator LU, kept as oracles -

def op_max_abs(entries):
    best = mpf(0)
    for x in entries:
        v = abs(x)
        if exceeds(v, best):
            best = v
    return best


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


def raw(x):
    return bits([[x]])[0][0]


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
    with workprec(prec):
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


@st.composite
def partners(draw, a):
    """(a', b) for a square a. a' is a with now and then an entry replaced by
    an int of up to 700 bits. Entry by entry, b is a''s own entry (an exactly
    zero difference), an int, a fresh 512-bit mpf, or a' less D + u 2^-e, D
    shared and u a few units far below D's last bit: those differences carry
    more bits than any working precision drawn and agree in their leading
    bits, so they round to ties the exact ranking must break as the operators
    do."""
    d = ldexp(mpf(draw(st.integers(1, 2**512 - 1))), draw(st.integers(-530, -490)))
    a = [
        [draw(st.integers(-(2**700), 2**700)) if not draw(st.integers(0, 5)) else x for x in row]
        for row in a
    ]
    b = []
    for row in a:
        out = []
        for x in row:
            kind = draw(st.sampled_from(["same", "int", "fresh", "tie", "tie"]))
            if kind == "same":
                out.append(x)
            elif kind == "int":
                out.append(draw(st.integers(-(2**700), 2**700)))
            elif kind == "fresh":
                man = draw(st.integers(-(2**512) + 1, 2**512 - 1))
                out.append(ldexp(mpf(man), draw(st.integers(-520, -500))))
            else:
                units = draw(st.integers(-3, 3))
                with workprec(4096):
                    out.append(x - (d + ldexp(mpf(units), draw(st.integers(-1200, -1100)))))
        b.append(out)
    return a, b


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_window_diff_matches_the_operators_bit_for_bit(data):
    # each a_ij - b_ij formed exactly and only the winner rounded: the bits,
    # and the type, of the operators' maximum of the rounded differences
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    n = data.draw(st.integers(1, 5))
    a, b = data.draw(partners(data.draw(wide_matrices(n))))
    w = data.draw(st.integers(0, n + 2))
    lo = data.draw(st.integers(-n, n))
    hi = data.draw(st.integers(lo, n))
    block = [(i, j) for i in range(min(w, n)) for j in range(min(w, n))]
    with workprec(prec):
        diff, scale = window_diff(a, b, w)
        assert raw(diff) == raw(op_max_abs(a[i][j] - b[i][j] for i, j in block))
        entries = [a[i][j] for i, j in block] + [b[i][j] for i, j in block]
        assert raw(scale) == raw(op_max_abs(entries))
        assert raw(max_abs(a, w)) == raw(op_max_abs(a[i][j] for i, j in block))
        band = (a[i][j] for i, j in block if not lo <= j - i <= hi)
        assert raw(out_of_band_max(a, lo, hi, w)) == raw(op_max_abs(band))


def test_maxima_clamp_a_window_past_the_matrix():
    a = [[1, 2], [3, 4]]
    assert out_of_band_max(a, 0, 0, 5) == 3 and type(out_of_band_max(a, 0, 0, 5)) is int
    assert max_abs(a, 5) == 4 and window_diff(a, [[1, 2], [3, 5]], 5) == (1, 5)


# -- the eliminations: each entry exact from the kernel's own outputs, rounded once


def once(c, terms, divisor=None):
    """c minus the sum of the terms' products (each term a tuple of factors,
    multiplied from the right), as the eliminations form an entry: the exact
    Fraction rounded once at the working precision, or divided by divisor and
    then rounded once. A term or a c that is a nan or an infinity makes the
    entry the operators' sum, which is then that nan or infinity."""
    if all(isfinite(x) for x in (c, *(x for t in terms for x in t))):
        num = exact(c) - sum(prod(exact(x) for x in t) for t in terms)
        if divisor is None:
            return to_mpf(num)
        return to_mpf(num / exact(divisor)) if isfinite(divisor) else to_mpf(num) / divisor
    s = c
    for t in terms:
        p = t[-1]
        for x in reversed(t[:-1]):
            p = x * p
        s = s - p
    return s if divisor is None else s / divisor


def unit_lower_shape(l):
    """Ones on the diagonal and exact zeros above it, all mpfs."""
    return [[raw(x) for x in row[i:]] for i, row in enumerate(l)] == [
        [raw(mpf(1))] + [raw(mpf(0))] * (len(l) - i - 1) for i in range(len(l))
    ]


def check_ldl(a, floor):
    """ldl_no_pivot(a, floor) against its contract. Past a singular pivot,
    the rows before it are the factorization of the leading block, and the
    pivot formed from them fails the test."""
    n = len(a)
    try:
        l, d = ldl_no_pivot(a, floor)
        done = n
    except SingularTruncation as exc:
        done = exc.index
        l, d = ldl_no_pivot([row[:done] for row in a[:done]], floor) if done else ([], [])
    assert len(d) == done and unit_lower_shape(l)
    for i in range(min(done + 1, n)):
        li = []
        for j in range(i):
            want = once(a[i][j], [(li[p], l[j][p], d[p]) for p in range(j)], d[j])
            if i < done:
                assert raw(l[i][j]) == raw(want)
            li.append(l[i][j] if i < done else want)
        pivot = once(a[i][i], [(li[p], li[p], d[p]) for p in range(i)])
        assert (pivot == 0 or abs(pivot) < floor) == (i == done)
        if i < done:
            assert raw(d[i]) == raw(pivot)


def check_unit_lower_inverse(l):
    s = unit_lower_inverse(l)
    assert unit_lower_shape(s)
    for j in range(len(l)):
        for i in range(j + 1, len(l)):
            want = once(mpf(0), [(l[i][p], s[p][j]) for p in range(j, i)])
            assert raw(s[i][j]) == raw(want)


def lu_rows(f):
    """The factors of f as one matrix of mpfs in pivoted order: U on and
    above the diagonal, the multipliers of L below it; None where a stopped
    elimination formed nothing."""
    n, done = len(f.perm), len(f.pivots)
    m = [[None] * n for _ in range(n)]
    for p, pivot in enumerate(f.pivots):
        m[p][p] = mp.make_mpf(pivot)
    for i in range(n):
        for p in range(min(i, done)):
            m[i][p] = mp.make_mpf(f.lower[i].value(p))
            m[p][i] = mp.make_mpf(f.upper[i].value(p))
    return m


def check_lu(a):
    """lu_factor(a) against its contract, replaying its pivot search from its
    own outputs; then its solves and a Schur complement entry."""
    n = len(a)
    f = lu_factor(a)
    m = lu_rows(f)
    assert sorted(f.perm) == list(range(n))
    at = {r: i for i, r in enumerate(f.perm)}

    def entry(r, q, j, divisor=None):
        # row r's multipliers travel with it; u_pq sits at its final row p
        return once(a[r][q], [(m[at[r]][p], m[p][q]) for p in range(j)], divisor)

    order, det = list(range(n)), mpf(1)
    for j in range(n):
        candidates = [entry(r, j, j) for r in order[j:]]
        best, k = abs(candidates[0]), 0
        for t, c in enumerate(candidates[1:], 1):
            if abs(c) > best:
                best, k = abs(c), t
        if best == 0:
            # the elimination stops; det reads whether a nan is left in the
            # remaining block
            block = [[entry(r, q, j) for q in range(j, n)] for r in order[j:]]
            assert order == f.perm and not f.complete and len(f.pivots) == j
            nan_left = any(isnan(x) for row in block for x in row)
            assert raw(f.det) == raw(nan if nan_left else mpf(0))
            return
        if k:
            order[j], order[j + k] = order[j + k], order[j]
            det = -det
        pivot = candidates[k]
        det = det * pivot
        assert raw(m[j][j]) == raw(pivot)
        for r in order[j + 1 :]:
            assert raw(m[at[r]][j]) == raw(entry(r, j, j, pivot))
        for q in range(j + 1, n):
            assert raw(m[j][q]) == raw(entry(order[j], q, j))
    assert order == f.perm and f.complete and raw(f.det) == raw(det)
    # y U = b and z = L^-1 P c, each entry one exact sum; then e - y . z
    b, c, e = a[-1], [row[0] for row in a], a[0][-1]
    y, z = lu_row_solve(f, b), lu_column_solve(f, c)
    ys = [mp.make_mpf(y.value(p)) for p in range(n)]
    zs = [mp.make_mpf(z.value(p)) for p in range(n)]
    for j in range(n):
        assert raw(ys[j]) == raw(once(b[j], [(ys[i], m[i][j]) for i in range(j)], m[j][j]))
        assert raw(zs[j]) == raw(once(c[f.perm[j]], [(m[j][p], zs[p]) for p in range(j)]))
    schur = schur_complement([[e]], [y], [z])
    assert raw(schur[0][0]) == raw(once(e, list(zip(ys, zs))))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_eliminations_are_exact_sums_rounded_once(data):
    # every entry of L, D, L^-1 and the LU factors, and the solves, is the
    # exact value of its sum over the kernel's own earlier outputs, rounded
    # once; a quotient is the exact numerator divided once by the pivot
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    n = data.draw(st.integers(1, 5))
    a = data.draw(wide_matrices(n))
    floor = data.draw(st.sampled_from([mpf(0), mpf(2) ** -8, mpf(1), mpf(2) ** 10]))
    with workprec(prec):
        check_ldl(a, floor)
        check_unit_lower_inverse(a)
        check_lu(a)


# -- invariants of the kernels that no report row checks ----------------------


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_inverse_first_subdiagonal_is_the_negated_factor(data):
    # (L^-1)_{n+1,n} = -L_{n+1,n}: its sum is one exact product by 1, rounded
    # once, so the s_inverse check reports subdiagonals 2..4 only
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    n = data.draw(st.integers(2, 6))
    l = data.draw(wide_matrices(n))
    with workprec(prec):
        s = unit_lower_inverse(l)
        for i in range(n - 1):
            assert raw(s[i + 1][i]) == raw(-l[i + 1][i])


@st.composite
def finite_values(draw, count: int):
    """count 512-bit mpfs between 2^-520 and 2^12, now and then an exact zero."""
    out = []
    for _ in range(count):
        man = draw(st.integers(-(2**512) + 1, 2**512 - 1)) if draw(st.integers(0, 5)) else 0
        with workprec(512):
            out.append(ldexp(mpf(man), draw(st.integers(-520, -500))))
    return out


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_banded_products_factor_inside_their_band(data):
    # H theta(J^T) and sigma(J) H, as structure_cholesky forms them from a
    # finite tridiagonal J: mat_mul skips exact zeros, so outside the band of
    # the degree the product holds exact zeros, and the Crout LDL sums only
    # zero products there. So that check reports no band rows of its factors
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    n = data.draw(st.integers(2, 7))
    degree = data.draw(st.integers(0, 3))
    beta, gamma, h = (data.draw(finite_values(n)) for _ in range(3))
    coeffs = data.draw(st.lists(st.fractions(max_denominator=7), min_size=degree + 1, max_size=degree + 1))
    j = zeros(n)
    for i in range(n):
        j[i][i] = beta[i]
        if i:
            j[i][i - 1], j[i - 1][i] = gamma[i], mpf(1)
    with workprec(prec):
        p = poly_of_matrix(coeffs, j)
        a = data.draw(st.sampled_from([mat_mul(diag(h), transpose(p)), mat_mul(p, diag(h))]))
        try:
            l, _ = ldl_no_pivot(a, mpf(0))
        except SingularTruncation as exc:
            m = exc.index
            l, _ = ldl_no_pivot([row[:m] for row in a[:m]], mpf(0)) if m else ([], [])
    outside = [(r, c) for r in range(n) for c in range(r - degree)]
    assert all(raw(a[r][c]) == raw(mpf(0)) for r, c in outside)
    assert all(raw(l[r][c]) == raw(mpf(0)) for r, c in outside if r < len(l))


def canonical(x):
    """Whether the mpf x holds libmp's normal form of its value, the form
    that ``==`` and ``hash`` compare."""
    sign, man, exp, _ = x._mpf_
    return x._mpf_ == from_man_exp(-man if sign else man, exp)


def test_quotients_over_power_of_two_pivots_are_canonical():
    # dividing by a pivot 2^e is exact, and libmp then keeps the numerator's
    # mantissa as it is: an even numerator must be normalized first
    pascal = mat_mul(pascal_matrix(3), transpose(pascal_matrix(3)))
    assert pascal == [[1, 1, 1], [1, 2, 3], [1, 3, 6]]
    with workprec(512):
        l, d = ldl_no_pivot(pascal, mpf(0))
        f = lu_factor(pascal)
        y = lu_row_solve(f, [2, 4, 6])
        doubled = lu_factor([[2 * x for x in row] for row in pascal])
    assert d == [1, 1, 1] and [l[1][0], l[2][0], l[2][1]] == [1, 1, 2]
    assert raw(l[2][1]) == raw(mpf(2)) and hash(l[2][1]) == hash(2)
    assert f.perm == [0, 2, 1] and f.det == 1
    assert [mp.make_mpf(y.value(p)) for p in range(3)] == [2, 1, 2]
    assert [doubled.lower[i].value(0) for i in (1, 2)] == [mpf(1)._mpf_] * 2
    values = [x for row in l for x in row] + d
    for g in (f, doubled):
        values += [mp.make_mpf(x) for x in g.pivots]
        values += [mp.make_mpf(v.value(p)) for v in g.lower + g.upper for p in range(len(v.ints))]
    values += [mp.make_mpf(y.value(p)) for p in range(3)]
    assert all(canonical(x) for x in values)


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


def exact_det(a):
    """The determinant of a matrix of Fractions, by exact elimination."""
    a, det = [list(row) for row in a], Fraction(1)
    for j in range(len(a)):
        k = next(i for i in range(j, len(a)) if a[i][j])
        if k != j:
            a[j], a[k], det = a[k], a[j], -det
        det *= a[j][j]
        for i in range(j + 1, len(a)):
            f = a[i][j] / a[j][j]
            a[i] = [x - f * y for x, y in zip(a[i], a[j])]
    return det


def test_leading_hankel_determinants_are_the_pivot_products():
    # tau_p = det_rows(range(p)) is the pivot product of the table's cached
    # factorization of G_p: the bits of lu_factor(G_p).det. Against the exact
    # determinant of the same 512-bit moments it errs at most twice as much
    # as the operator-order LU, whose error grows with the conditioning of G_p
    floor = Fraction(1, 2**512)
    for w in FAMILIES.values():
        table = MomentTable(w, 30, PrecisionContext(mantissa_bits=512))
        for p in range(1, 16):
            dense = [table.values[i : i + p] for i in range(p)]
            with workprec(512):
                want = lu_factor(dense).det
                op = op_lu_determinant(dense)
            tau = table.det_rows(tuple(range(p)))
            assert raw(tau) == raw(want)
            ref = exact_det([[exact(x) for x in row] for row in dense])
            err, op_err = (max(abs(exact(x) - ref) / abs(ref), floor) for x in (tau, op))
            assert err <= 2 * op_err


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
    # an mpf is ranked by its rounded |x|: 2^60 + 2^50 + 1 rounds at 10 bits
    # to 2^60 + 2^51, past the int between the two; of two entries whose
    # ranked values tie, the first wins
    with workprec(128):
        above, tie = mpf(2**60 + 2**50 + 1), mpf(2**60 + 1)
    with workprec(10):
        assert raw(max_abs([[above, 2**60 + 2**50 + 2]])) == raw(mpf(2**60 + 2**51))
        assert type(max_abs([[tie, 2**60]])) is mpf and type(max_abs([[2**60, tie]])) is int


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


@st.composite
def recurrence_coefficients(draw, count: int):
    """count values: exact zeros, and mpfs of up to 600 bits whose exponents
    reach above the binary point as well as far below it; now and then a nan,
    an inf or a -inf."""
    out = []
    for _ in range(count):
        if not draw(st.integers(0, 4)):
            out.append(mpf(0))
        else:
            man = draw(st.integers(-(2**600) + 1, 2**600 - 1))
            out.append(ldexp(mpf(man), draw(st.integers(-1200, 300))))
    if not draw(st.integers(0, 3)):
        out[draw(st.integers(0, count - 1))] = draw(st.sampled_from([nan, inf, -inf]))
    return out


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_recurrence_values_are_exact_sums_rounded_once(data):
    # p_{j+1} = (z - beta_j) p_j - gamma_j p_{j-1}, z - beta_j exact, one exact
    # sum of the kernel's own p_j and p_{j-1}, rounded once
    prec = data.draw(st.sampled_from([53, 256, 512, 600]))
    count = data.draw(st.integers(1, 9))
    beta = data.draw(recurrence_coefficients(count))
    gamma = data.draw(recurrence_coefficients(count))
    # an int point of the orthogonality walk; a Fraction rounded and shifted
    # by one, as psi_shift forms z - 1 and z + 1; beta_0, so that p_1 is an
    # exact zero; or a fixed value
    kind = data.draw(st.sampled_from(["walk", "shifted", "beta_0", "fixed"]))
    with workprec(prec):
        if kind == "walk":
            z = data.draw(st.integers(0, 1000))
        elif kind == "shifted":
            fraction = data.draw(st.fractions(min_value=-50, max_value=50, max_denominator=1000))
            z = to_mpf(fraction) + data.draw(st.sampled_from([-1, 1]))
        elif kind == "beta_0":
            z = beta[0]
        else:
            z = data.draw(st.sampled_from([mpf(0), mpf(3), mpf(-2), ldexp(mpf(5), -600), nan, inf]))
        got = three_term_values(z, beta, gamma, count)
        assert len(got) == count and raw(got[0]) == raw(mpf(1))
        for j in range(count - 1):
            terms = [(fsub(beta[j], z, exact=True), got[j])]
            terms += [(gamma[j - 1], got[j - 1])] if j else []
            assert raw(got[j + 1]) == raw(once(mpf(0), terms))
        # the orthogonality walk adds a point's values as the kernel leaves them
        weight = data.draw(recurrence_coefficients(1))[0]
        walked, added = GramSums(count), GramSums(count)
        walked.add_points([(z, weight)], beta, gamma)
        added.add(got, weight)
        assert bits(walked.lower()) == bits(added.lower())


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
    # each Taylor coefficient is one exact sum over the kernel's own earlier
    # coefficients (W = L D expanded into its products), divided once by d_j,0
    # or rounded once; coefficient 2 is half the second derivative, exactly
    r = len(pencil)
    l = [[[ldexp(out[2 * k][i][j], -(k // 2)) for k in range(r)] for j in range(n)] for i in range(n)]
    d = [[ldexp(out[2 * k + 1][i], -(k // 2)) for k in range(r)] for i in range(n)]
    a = [[[ldexp(mats[k][i][j], -(k // 2)) for k in range(r)] for j in range(n)] for i in range(n)]

    def updates(i, j, k):
        # coefficient k of sum_p l_ip (l_jp d_p)
        return [
            (l[i][p][m], l[j][p][u], d[p][k - m - u])
            for p in range(j) for m in range(k + 1) for u in range(k - m + 1)
        ]

    with workprec(prec):
        for i in range(n):
            for k in range(r):
                assert raw(d[i][k]) == raw(once(a[i][i][k], updates(i, i, k)))
                for j in range(i):
                    terms = updates(i, j, k) + [(l[i][j][m], d[j][k - m]) for m in range(k)]
                    assert raw(l[i][j][k]) == raw(once(a[i][j][k], terms, d[j][0]))
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
