import io
from math import isnan
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, polylog, workprec

from semidop import (
    DivergentSeries,
    HypergeometricWeight,
    IndexOutOfTable,
    MomentTable,
    PrecisionContext,
    TermBudgetExceeded,
    TruncationTooLarge,
    cholesky,
    gram_truncation,
    hankel_determinant,
    moment,
    moments_to_csv,
)
import semidop.moments as moments_module
from semidop.flows import tau_derivative
from semidop.weights import parse_weight_spec, to_mpf

from conftest import BITS, CHARLIER, FAMILIES, MEIXNER
from oracles import (
    charlier_reduced_moments,
    hankel_determinant_reduced,
    meixner_reduced_moments,
    recurrence_from_moments,
)

REF_BITS = 2048


def test_moment_trivial_cases(ctx):
    with workprec(BITS):
        zero_eta = HypergeometricWeight(eta=0)
        assert moment(zero_eta, 0, ctx) == 1
        geo = HypergeometricWeight(a=(1,), eta=Fraction(1, 2))
        assert abs(moment(geo, 0, ctx) - 2) < mpf(2) ** -(BITS - 40)


def test_moment_charlier_exponential(ctx):
    w = HypergeometricWeight(eta=1)
    with workprec(BITS):
        val = moment(w, 0, ctx)
        assert abs(val - mp.e) < mpf(2) ** -(BITS - 40)


def test_moment_errors(ctx, monkeypatch):
    with pytest.raises(DivergentSeries):
        moment(HypergeometricWeight(a=(Fraction(1, 2),), eta=2), 0, ctx)
    monkeypatch.setattr(moments_module, "MAX_TERMS", 40)
    with pytest.raises(TermBudgetExceeded):
        moment(HypergeometricWeight(a=(2,), eta=Fraction(99, 100)), 0, ctx)


def test_flow_shifted_moments(ctx):
    # the mixed flow derivative of rho_m is the moment at the shifted index
    # (flow l shifts the index by l), read within the table's depth
    table = MomentTable(CHARLIER, 12, ctx)
    assert tau_derivative(table, 1, (0, 1, 0)) == table.moment(2)
    assert tau_derivative(table, 1, (1, 1, 1)) == table.moment(6)
    with pytest.raises(IndexOutOfTable):
        table.moment(13)
    # first flow derivative of the zeroth moment at eta = 1 is e
    w = HypergeometricWeight(eta=1)
    t1 = MomentTable(w, 4, ctx)
    with workprec(BITS):
        d1 = tau_derivative(t1, 1, (1, 0, 0))
        assert abs(d1 - mp.e) < mpf(2) ** -(BITS - 40)


def test_gram_truncation_structure(ctx):
    table = MomentTable(CHARLIER, 12, ctx)
    g1 = gram_truncation(table, 1)
    assert g1.to_dense() == [[table.moment(0)]]
    g2 = gram_truncation(table, 2)
    assert g2.to_dense() == [
        [table.moment(0), table.moment(1)],
        [table.moment(1), table.moment(2)],
    ]
    # Hankel shift holds exactly: shared storage, identical objects
    dense = gram_truncation(table, 5).to_dense()
    for n in range(4):
        for m in range(4):
            assert dense[n + 1][m] is dense[n][m + 1]
    with pytest.raises(IndexOutOfTable):
        gram_truncation(table, 8)


def test_charlier_eta1_gram_entries(ctx):
    w = HypergeometricWeight(eta=1)
    table = MomentTable(w, 4, ctx)
    with workprec(BITS):
        tol = mpf(2) ** -(BITS - 40)
        # rho_2 = (eta + eta^2) e^eta = 2 e at eta = 1
        assert abs(table.moment(2) - 2 * mp.e) < tol
        g = gram_truncation(table, 2).to_dense()
        assert abs(g[1][1] - 2 * mp.e) < tol


def test_finite_support_cap(ctx):
    w = HypergeometricWeight(a=(-3,), eta=Fraction(1, 2))
    table = MomentTable(w, 12, ctx)
    gram_truncation(table, 4)
    with pytest.raises(TruncationTooLarge):
        gram_truncation(table, 5)
    with pytest.raises(TruncationTooLarge):
        hankel_determinant(table, 5)


def test_hankel_determinants_against_oracle(ctx):
    table = MomentTable(CHARLIER, 16, ctx)
    assert hankel_determinant(table, 0) == 1
    assert hankel_determinant(table, 1) == table.moment(0)
    reduced = charlier_reduced_moments(Fraction(7, 10), 16)
    with workprec(BITS):
        e_eta = mp.exp(to_mpf(Fraction(7, 10)))
        for k in range(1, 7):
            expect = to_mpf(hankel_determinant_reduced(reduced, k)) * e_eta**k
            got = hankel_determinant(table, k)
            assert got > 0
            assert abs(got - expect) / expect < mpf(2) ** -(BITS - 60)


def test_charlier_eta1_delta3(ctx):
    # closed form: Delta_k = e^(k eta) eta^(k(k-1)/2) prod_{j<k} j! -> 2 e^3 at k=3
    w = HypergeometricWeight(eta=1)
    table = MomentTable(w, 8, ctx)
    with workprec(BITS):
        got = hankel_determinant(table, 3)
        assert abs(got - 2 * mp.e**3) / got < mpf(2) ** -(BITS - 60)


def test_shifted_determinant_matches_flow_derivative(ctx):
    table = MomentTable(MEIXNER, 14, ctx)
    for k in range(1, 6):
        # det G[k] with the last row's moment indices raised by one
        assert table.det_rows(tuple(range(k - 1)) + (k,)) == tau_derivative(
            table, k, (1, 0, 0)
        )


def test_cholesky_reconstruction(ctx):
    from semidop.linalg import mat_mul, transpose, window_diff

    table = MomentTable(MEIXNER, 20, ctx)
    g = gram_truncation(table, 8)
    ch = cholesky(g)
    assert ch.s[0][0] == 1 and len(ch.h) == 8
    with workprec(BITS):
        l = ch.s_inv
        ldlt = mat_mul(l, mat_mul([[ch.h[i] if i == j else mpf(0) for j in range(8)] for i in range(8)], transpose(l)))
        diff, scale = window_diff(ldlt, g.to_dense(), 8)
        assert diff / scale < mpf(2) ** -(BITS - 60)
    assert ch.confirmed_bits >= BITS - 64


def test_confirmed_bits_keep_a_nan_error(ctx):
    # a nan norm agrees with nothing: its error ranks above every finite one
    ch = cholesky(gram_truncation(MomentTable(CHARLIER, 20, ctx), 8))
    ch.h[3] = mpf("nan")
    assert isnan(ch.confirmed_bits)


def test_cholesky_h_against_determinant_ratios(ctx):
    table = MomentTable(CHARLIER, 20, ctx)
    ch = cholesky(gram_truncation(table, 8))
    with workprec(BITS):
        for n in range(8):
            expect = hankel_determinant(table, n + 1) / hankel_determinant(table, n)
            assert abs(ch.h[n] - expect) / expect < mpf(2) ** -(BITS - 60)
            assert ch.h[n] > 0


def test_cholesky_against_rational_oracle(ctx):
    reduced = charlier_reduced_moments(Fraction(7, 10), 20)
    beta_o, gamma_o, _ = recurrence_from_moments(reduced, 9)
    table = MomentTable(CHARLIER, 20, ctx)
    ch = cholesky(gram_truncation(table, 9))
    with workprec(BITS):
        for n in range(8):
            beta = ch.p(1, n) - ch.p(1, n + 1)
            assert abs(beta - to_mpf(beta_o[n])) < mpf(2) ** -200
        for n in range(1, 8):
            gamma = ch.h[n] / ch.h[n - 1]
            assert abs(gamma - to_mpf(gamma_o[n - 1])) < mpf(2) ** -200
        # closed forms
        for n in range(8):
            assert abs((ch.p(1, n) - ch.p(1, n + 1)) - (n + to_mpf(Fraction(7, 10)))) < mpf(2) ** -200


def test_determinism_bit_identical(ctx):
    t1 = MomentTable(MEIXNER, 10, ctx)
    t2 = MomentTable(MEIXNER, 10, ctx)
    assert t1.values == t2.values
    c1 = cholesky(gram_truncation(t1, 5))
    c2 = cholesky(gram_truncation(t2, 5))
    assert c1.h == c2.h and c1.s == c2.s


def test_moment_table_positivity_invariant(ctx):
    for w in FAMILIES.values():
        table = MomentTable(w, 12, ctx)
        for k in range(1, 6):
            assert hankel_determinant(table, k) > 0


def test_csv_export(ctx):
    table = MomentTable(CHARLIER, 6, ctx)
    buf = io.StringIO()
    moments_to_csv(table, buf)
    lines = buf.getvalue().strip().splitlines()
    assert lines[0].split(",")[0] == "m"
    assert len(lines) == 8
    m, rho = lines[1].split(",")
    assert m == "0"
    with workprec(BITS):
        assert abs(mp.mpmathify(rho) - table.moment(0)) < mpf(2) ** -(BITS - 40)


# -- the one-pass lattice kernel against independent oracles --------------------

def _assert_both_tables(table, reference, ctx):
    """Verify table to verify_bits - 32 bits; working table within one rounding."""
    verify = table.rebuilt(ctx.verify_bits)
    with workprec(REF_BITS):
        for m, ref in enumerate(reference):
            assert abs(verify.moment(m) - ref) <= mpf(2) ** -(ctx.verify_bits - 32) * abs(ref), m
            assert abs(table.moment(m) - ref) <= mpf(2) ** -(ctx.mantissa_bits - 1) * abs(ref), m


def _li(m: int, z: Fraction):
    """Li_{-m}(z); a negative argument goes through the duplication formula
    Li_s(-x) = 2^(1-s) Li_s(x^2) - Li_s(x), far faster in mpmath at 2048 bits."""
    if z < 0:
        return 2 ** (1 + m) * polylog(-m, to_mpf(z * z)) - polylog(-m, to_mpf(-z))
    return polylog(-m, to_mpf(z))


@pytest.mark.parametrize("eta", [Fraction(9, 10), Fraction(-9, 10)])
def test_kernel_geometric_against_polylog(ctx, eta):
    # a=1,1; b=1 is w(k) = eta^k, so rho_m = Li_{-m}(eta) plus the k=0 term 0^m
    w = HypergeometricWeight(a=(1, 1), b=(1,), eta=eta)
    table = MomentTable(w, 16, ctx)
    with workprec(REF_BITS):
        reference = [_li(m, eta) + (1 if m == 0 else 0) for m in range(17)]
    _assert_both_tables(table, reference, ctx)


def test_kernel_charlier_against_exact_oracle(ctx):
    eta = Fraction(7, 10)
    table = MomentTable(CHARLIER, 24, ctx)
    with workprec(REF_BITS):
        e_eta = mp.exp(to_mpf(eta))
        reference = [to_mpf(r) * e_eta for r in charlier_reduced_moments(eta, 24)]
    _assert_both_tables(table, reference, ctx)


def test_kernel_rising_terms_against_exact_oracle(ctx):
    # (5)_k 0.9^k / k! grows until k ~ 36 before it decays: the tail bound must
    # hold for the supremum of later ratios, not the ratio at one point
    eta = Fraction(9, 10)
    w = HypergeometricWeight(a=(5,), eta=eta)
    table = MomentTable(w, 16, ctx)
    with workprec(REF_BITS):
        prefactor = to_mpf(1 - eta) ** -5
        reference = [to_mpf(r) * prefactor for r in meixner_reduced_moments(Fraction(5), eta, 16)]
    _assert_both_tables(table, reference, ctx)


def test_kernel_term_budget(ctx, monkeypatch):
    monkeypatch.setattr(moments_module, "MAX_TERMS", 40)
    with pytest.raises(TermBudgetExceeded):
        MomentTable(HypergeometricWeight(a=(5,), eta=Fraction(9, 10)), 4, ctx)


def _count_passes(monkeypatch) -> list:
    calls = []
    real = moments_module._fixed_point_pass

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(moments_module, "_fixed_point_pass", counted)
    return calls


def test_kernel_sums_lattice_once(ctx, monkeypatch):
    # a table sums the lattice once, at its working precision; reading
    # confirmed_bits adds exactly one pass, that of the verify table
    calls = _count_passes(monkeypatch)
    table = MomentTable(MEIXNER, 20, ctx)
    chol = cholesky(gram_truncation(table, 8))
    assert len(calls) == 1
    assert chol.confirmed_bits > 0
    assert len(calls) == 2
    verify = table.rebuilt(ctx.verify_bits)
    assert verify is table.rebuilt(ctx.verify_bits)
    assert len(calls) == 2
    assert verify.ctx.mantissa_bits == ctx.verify_bits
    with workprec(ctx.mantissa_bits):
        for m in range(21):
            assert +verify.moment(m) == table.moment(m)


def _raw(values) -> list:
    return [v._mpf_ for v in values]


@pytest.mark.parametrize("bits", [1000, 1024])
def test_rebuilt_table_equals_a_fresh_table(bits):
    # a rebuilt table is the table a fresh pass gives at its mantissa, bit for
    # bit, however few bits the working pass certified
    for spec in ("a=2; eta=1/2", "eta=7/10", "a=3/2; b=5/2; eta=1/3"):
        w = parse_weight_spec(spec)
        table = MomentTable(w, 16, PrecisionContext(mantissa_bits=512))
        fresh = MomentTable(w, 16, PrecisionContext(mantissa_bits=bits))
        assert _raw(table.rebuilt(bits).values) == _raw(fresh.values), spec


@settings(max_examples=20, deadline=None)
@given(
    a=st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
    b=st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
    eta=st.fractions(min_value=Fraction(-7, 8), max_value=Fraction(7, 8), max_denominator=16),
)
def test_tables_are_correctly_rounded_at_any_depth(a, b, eta):
    # each entry is the moment correctly rounded: a 2048-bit pass rounded to
    # 512 bits, whatever the depth of the table that holds it
    w = HypergeometricWeight(a=(a,), b=(b,), eta=eta)
    ctx = PrecisionContext(mantissa_bits=512)
    shallow, deep = MomentTable(w, 6, ctx), MomentTable(w, 14, ctx)
    reference = moments_module._lattice_sums(w, deep.classification, 14, 2048).rounded(512)
    assert _raw(deep.values) == _raw(reference)
    assert _raw(shallow.values) == _raw(reference[:7])


def test_straddled_rounding_takes_the_fallback_pass(monkeypatch):
    # column 1 sits on a 512-bit midpoint, so its certified interval holds
    # values that round both ways: the table must sum again at verify_bits
    ctx = PrecisionContext(mantissa_bits=512)
    midpoint = (2 * (2**511 + 12345) + 1) << 187
    straddled = moments_module._LatticeSums((1 << 700, midpoint), 700, 608)
    assert straddled.correctly_rounded(512) is None
    # an offset past the interval radius 2^124 decides the rounding
    decided = moments_module._LatticeSums((1 << 700, midpoint + (1 << 150)), 700, 608)
    assert decided.correctly_rounded(512) is not None
    real = moments_module._lattice_sums
    requested = []

    def first_pass_straddles(w, classification, m_max, bits):
        requested.append(bits)
        if len(requested) == 1:
            return straddled
        return real(w, classification, m_max, bits)

    monkeypatch.setattr(moments_module, "_lattice_sums", first_pass_straddles)
    table = MomentTable(MEIXNER, 1, ctx)
    assert requested == [608, ctx.verify_bits]
    fallback = real(MEIXNER, table.classification, 1, ctx.verify_bits)
    assert table._sums == fallback
    assert _raw(table.values) == _raw(fallback.rounded(512))
    requested.clear()
    assert moment(MEIXNER, 1, ctx) == table.moment(1)
    assert requested == [608, ctx.verify_bits]


BOUNDARY = parse_weight_spec("a=1,1; b=3; eta=1")  # w(k) ~ 2 / k^2


def test_boundary_weight_refused_before_summing(ctx, monkeypatch):
    calls = _count_passes(monkeypatch)
    # rho_0 converges, but only polynomially: no geometric tail certifies it
    with pytest.raises(TermBudgetExceeded, match="geometric"):
        MomentTable(BOUNDARY, 0, ctx)
    with pytest.raises(TermBudgetExceeded, match="geometric"):
        moment(BOUNDARY, 0, ctx)
    # rho_1 = sum 2k / ((k+1)(k+2)) diverges
    for depth in (1, 2, 24):
        with pytest.raises(DivergentSeries):
            MomentTable(BOUNDARY, depth, ctx)
    assert calls == []
