import io
from collections import Counter
from math import comb, isnan
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, polylog, workprec
from mpmath.libmp import from_man_exp, round_down, round_nearest, round_up, to_int

from semidop import (
    DivergentSeries,
    HypergeometricWeight,
    IndexOutOfTable,
    MomentTable,
    PrecisionContext,
    SuiteConfig,
    TermBudgetExceeded,
    TruncationTooLarge,
    cholesky,
    clear_cache,
    hankel_determinant,
    moment,
    moments_to_csv,
    run_suite,
)
import semidop.moments as moments_module
from semidop import pipeline
from semidop.pipeline import get_pipeline
from semidop.flows import flow_scaled_weight, tau_derivative
from semidop.linalg import lu_determinant
from semidop.weights import classify_convergence, is_nonpositive_integer, parse_weight_spec, to_mpf

from conftest import BITS, CHARLIER, FAMILIES, GEN_MEIXNER, MEIXNER
from oracles import (
    charlier_reduced_moments,
    exact_term_ratio,
    hankel_determinant_reduced,
    meixner_reduced_moments,
    per_column_pass,
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
    assert moments_module._hankel_block(table, 1) == [[table.moment(0)]]
    assert moments_module._hankel_block(table, 2) == [
        [table.moment(0), table.moment(1)],
        [table.moment(1), table.moment(2)],
    ]
    # Hankel shift holds exactly: shared storage, identical objects
    dense = moments_module._hankel_block(table, 5)
    for n in range(4):
        for m in range(4):
            assert dense[n + 1][m] is dense[n][m + 1]
    with pytest.raises(IndexOutOfTable):
        cholesky(table, 8)
    with pytest.raises(ValueError):
        cholesky(table, 0)


def test_charlier_eta1_gram_entries(ctx):
    w = HypergeometricWeight(eta=1)
    table = MomentTable(w, 4, ctx)
    with workprec(BITS):
        tol = mpf(2) ** -(BITS - 40)
        # rho_2 = (eta + eta^2) e^eta = 2 e at eta = 1
        assert abs(table.moment(2) - 2 * mp.e) < tol
        g = moments_module._hankel_block(table, 2)
        assert abs(g[1][1] - 2 * mp.e) < tol


def test_finite_support_cap(ctx):
    w = HypergeometricWeight(a=(-3,), eta=Fraction(1, 2))
    table = MomentTable(w, 12, ctx)
    assert cholesky(table, 4).size == 4
    with pytest.raises(TruncationTooLarge):
        cholesky(table, 5)
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
    ch = cholesky(table, 8)
    assert ch.s[0][0] == 1 and len(ch.h) == 8
    with workprec(BITS):
        l = ch.s_inv
        ldlt = mat_mul(l, mat_mul([[ch.h[i] if i == j else mpf(0) for j in range(8)] for i in range(8)], transpose(l)))
        diff, scale = window_diff(ldlt, moments_module._hankel_block(table, 8), 8)
        assert diff / scale < mpf(2) ** -(BITS - 60)
    assert ch.confirmed_bits >= BITS - 64


def test_confirmed_bits_keep_a_nan_error(ctx):
    # a nan norm agrees with nothing: its error ranks above every finite one
    ch = cholesky(MomentTable(CHARLIER, 20, ctx), 8)
    ch.h[3] = mpf("nan")
    assert isnan(ch.confirmed_bits)


def test_cholesky_h_against_determinant_ratios(ctx):
    table = MomentTable(CHARLIER, 20, ctx)
    ch = cholesky(table, 8)
    with workprec(BITS):
        for n in range(8):
            expect = hankel_determinant(table, n + 1) / hankel_determinant(table, n)
            assert abs(ch.h[n] - expect) / expect < mpf(2) ** -(BITS - 60)
            assert ch.h[n] > 0


def test_cholesky_against_rational_oracle(ctx):
    reduced = charlier_reduced_moments(Fraction(7, 10), 20)
    beta_o, gamma_o, _ = recurrence_from_moments(reduced, 9)
    table = MomentTable(CHARLIER, 20, ctx)
    ch = cholesky(table, 9)
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
    c1 = cholesky(t1, 5)
    c2 = cholesky(t2, 5)
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
    chol = cholesky(table, 8)
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


def _rounded(values, bits: int) -> list:
    with workprec(bits):
        return [+v for v in values]


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
    reference = _rounded(deep.rebuilt(REF_BITS).values, 512)
    assert _raw(deep.values) == _raw(reference)
    assert _raw(shallow.values) == _raw(reference[:7])


def _planted_passes(monkeypatch, planted: int, columns) -> list:
    """Record the bits of every pass; the first ``planted`` passes return
    ``columns(scale)`` as their walked sums, with no floor-division error."""
    requested = []
    real = moments_module._fixed_point_pass

    def fixed_point_pass(w, last, m_max, bits, scale, derived=()):
        requested.append(bits)
        if len(requested) <= planted:
            sums = columns(scale)
            return moments_module.LatticePass(sums, [0] * len(sums), scale, bits, 1)
        return real(w, last, m_max, bits, scale, derived)

    monkeypatch.setattr(moments_module, "_fixed_point_pass", fixed_point_pass)
    return requested


# an odd 513-bit mantissa: the midpoint between two 512-bit values
MIDPOINT = 2 * (2**511 + 12345) + 1


def test_straddled_rounding_takes_the_fallback_pass(monkeypatch):
    # column 1 of a table that walks both columns sits on a 512-bit midpoint,
    # so its certified interval holds values that round both ways: the table
    # must sum again, first at the middle rung and, when that straddles too,
    # at verify_bits
    ctx = PrecisionContext(mantissa_bits=512)

    def straddled(scale):
        return [1 << scale, MIDPOINT << (scale - 514)]

    requested = _planted_passes(monkeypatch, 1, straddled)
    table = MomentTable(MEIXNER, 1, ctx, walk_all=True)
    assert requested == [608, 736]
    fresh = MomentTable(MEIXNER, 1, PrecisionContext(mantissa_bits=512))
    assert _raw(table.values) == _raw(fresh.values)

    requested = _planted_passes(monkeypatch, 3, straddled)
    table = MomentTable(MEIXNER, 1, ctx, walk_all=True)
    assert requested == [608, 736, ctx.verify_bits]
    # no rung proves it: the verify_bits pass is rounded as it stands (to even)
    with workprec(512):
        assert _raw(table.values) == _raw([mpf(1), mpf((MIDPOINT, -514))])

    # a derived table whose walked rho_0 straddles at every rung (so does
    # rho_1 = 2 rho_0) is built again by walking both columns, which the
    # real pass proves at the first rung; moment() takes the same route
    requested = _planted_passes(monkeypatch, 3, lambda scale: [MIDPOINT << (scale - 514)])
    assert moment(MEIXNER, 1, ctx) == fresh.moment(1)
    assert requested == [608, 736, ctx.verify_bits, 608]

    # an offset past the interval radius, about 2^-(608 - 31) of the column,
    # decides the rounding at the first rung
    def decided(scale):
        return [1 << scale, (MIDPOINT << (scale - 514)) + (1 << (scale - 560))]

    requested = _planted_passes(monkeypatch, 1, decided)
    MomentTable(MEIXNER, 1, ctx, walk_all=True)
    assert requested == [608]

    # a finite support has no tail, and a column with every division exact
    # has radius 0: the midpoint itself rounds (to even)
    requested = _planted_passes(monkeypatch, 1, straddled)
    table = MomentTable(HypergeometricWeight(a=(-3,), eta=Fraction(1, 2)), 1, ctx, walk_all=True)
    assert requested == [608]
    with workprec(512):
        assert _raw(table.values) == _raw([mpf(1), mpf((MIDPOINT, -514))])


BOUNDARY = parse_weight_spec("a=1,1; b=3; eta=1")  # w(k) ~ 2 / k^2


@pytest.mark.parametrize(
    ("spec", "first"),
    [("a=1,1; b=3; eta=1", 1), ("a=1,1; b=7/2; eta=1", 2), ("a=1,1; b=7/2; eta=-1", 3)],
)
def test_divergence_names_the_first_divergent_moment(spec, first, ctx):
    # rho_m converges for m < sum b - sum a (one more when eta = -1): the
    # refusal names the first divergent moment at every depth that reaches it
    w = parse_weight_spec(spec)
    for depth in (first, first + 1, 24):
        with pytest.raises(DivergentSeries, match=rf"moment rho_{first} diverges"):
            MomentTable(w, depth, ctx)
    with pytest.raises(TermBudgetExceeded):
        MomentTable(w, first - 1, ctx)


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


# eta (1 + 2^-128): a flow-1 witness of the finite-difference checks
WITNESS = flow_scaled_weight(MEIXNER, 1, 1 + Fraction(1, 2**128))


@pytest.mark.parametrize("depth", [16, 32])
def test_flow_witness_moments_round_below_verify_bits(monkeypatch, depth):
    # the witness moments sit within 2^-128 ulp of a 512-bit rounding midpoint:
    # the first tier's interval straddles it, the middle tier's does not
    calls = _count_passes(monkeypatch)
    table = MomentTable(WITNESS, depth, PrecisionContext(mantissa_bits=512))
    assert [args[3] for args in calls] == [608, 736]
    assert _raw(table.values) == _raw(_rounded(table.rebuilt(REF_BITS).values, 512))


positive_params = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)


@st.composite
def lattice_weights(draw):
    """Convergent weights: a series with |eta| < 1, a finite support or a deformation."""
    kind = draw(st.sampled_from(["series", "finite", "deformed"]))
    b = tuple(draw(st.lists(positive_params, max_size=2)))
    a = tuple(draw(st.lists(positive_params, max_size=len(b) + 1)))
    eta = draw(
        st.fractions(min_value=Fraction(-7, 8), max_value=Fraction(7, 8), max_denominator=16)
        .filter(bool)
    )
    eta2 = eta3 = Fraction(1)
    if kind == "finite":
        a += (-draw(st.integers(0, 12)),)
        eta = draw(st.fractions(min_value=-4, max_value=4, max_denominator=8).filter(bool))
    elif kind == "deformed":
        deformation = st.fractions(min_value=Fraction(1, 2), max_value=1, max_denominator=16)
        eta2, eta3 = draw(deformation), draw(deformation)
        eta = draw(st.fractions(min_value=-3, max_value=3, max_denominator=8).filter(bool))
        if eta2 == eta3 == 1:
            eta2 = Fraction(15, 16)
    return HypergeometricWeight(a=a, b=b, eta=eta, eta2=eta2, eta3=eta3)


def _decided(sums, errors, scale: int, bits: int, target: int) -> list:
    """Each column rounded to ``target`` bits where its certified interval decides it.

    Column m of a pass at ``bits`` is within its error bound plus the tail
    bound 2^-(bits - 31) |sums[m]| of rho_m 2^scale; None where the ends of
    that interval round apart.
    """
    out = []
    for s, e in zip(sums, errors):
        radius = e + (abs(s) >> (bits - 31)) + 1
        low = from_man_exp(s - radius, -scale, target, round_nearest)
        out.append(low if low == from_man_exp(s + radius, -scale, target, round_nearest) else None)
    return out


@settings(max_examples=60, deadline=None)
@given(w=lattice_weights(), m_max=st.integers(0, 8), bits=st.sampled_from([96, 160]))
def test_pass_matches_the_per_column_oracle(w, m_max, bits):
    # one error bound per pass against the pass with an error sum per column:
    # the same sums at the same stop, a bound no smaller than the exact error
    # sums, the same exact columns, and the same moments where the stop moved
    q = classify_convergence(w).q
    scale = bits + 64 + 14 * m_max
    try:
        lattice = moments_module._fixed_point_pass(w, q, m_max, bits, scale)
    except TermBudgetExceeded:
        # both passes share the relative stop rule, so a column that cancels
        # to zero keeps both from stopping (test_zero_moments_are_certified)
        with pytest.raises(TermBudgetExceeded):
            per_column_pass(w, q, m_max, bits, scale)
        return
    sums, errors, stop = lattice.sums, lattice.errors, lattice.last
    o_sums, o_errors, o_stop = per_column_pass(w, stop, m_max, bits, scale)
    assert o_stop == stop
    assert sums == o_sums
    assert all(e >= o for e, o in zip(errors, o_errors))
    assert [e == 0 for e in errors] == [o == 0 for o in o_errors]
    p_sums, p_errors, p_stop = per_column_pass(w, q, m_max, bits, scale)
    if p_stop == stop:
        assert p_sums == sums
    target = bits - 64
    for new, old in zip(
        _decided(sums, errors, scale, bits, target),
        _decided(p_sums, p_errors, scale, bits, target),
    ):
        assert new is None or old is None or new == old


@pytest.mark.parametrize("spec", ["a=1/2,3/2; eta=1/2; eta2=1/2", "a=1,2,3; b=1/2; eta=1/3; eta3=1/2"])
@pytest.mark.parametrize("bits", [96, 160, 512])
def test_unpaired_numerator_factors_are_bounded_by_the_deformation(spec, bits):
    # M > N + 1: a numerator factor a_i + j has no denominator partner, and
    # the deformation absorbs it (the unpaired branch of moments._ratio_sup).
    # The pass against the oracle's walk, as in the per-column property; the
    # bound it stopped on holds for the exact term ratios past its stop
    w = parse_weight_spec(spec)
    assert len(w.a) > len(w.b) + 1
    m_max = 12
    scale = bits + 64 + 14 * m_max
    lattice = moments_module._fixed_point_pass(w, None, m_max, bits, scale)
    stop = lattice.last
    o_sums, o_errors, _ = per_column_pass(w, stop, m_max, bits, scale)
    assert lattice.sums == o_sums
    assert all(e >= o for e, o in zip(lattice.errors, o_errors))
    p_sums, p_errors, _ = per_column_pass(w, None, m_max, bits, scale)
    target = bits - 64
    for new, old in zip(
        _decided(lattice.sums, lattice.errors, scale, bits, target),
        _decided(p_sums, p_errors, scale, bits, target),
    ):
        assert new is not None and new == old
    bound = moments_module._ratio_sup(w, stop)
    assert bound is not None and bound < 1
    assert all(abs(exact_term_ratio(w, j)) <= bound for j in range(stop, stop + 400))


def test_an_unpaired_numerator_factor_waits_for_the_deformation():
    # the slope bound 1 / (2 + k) + 2 (99/100 - 1) stays positive below
    # k = 48: no ratio bound is known there
    w = parse_weight_spec("a=1,2; eta=1/2; eta2=99/100")
    assert [moments_module._ratio_sup(w, k) is None for k in (0, 40, 60)] == [True, True, False]


@pytest.mark.parametrize(("spec", "m_max", "bits"), [("a=4/3; eta=-3/4", 2, 96), ("eta=-1", 24, 512)])
def test_zero_moments_are_certified(spec, m_max, bits):
    # rho_2 = 0 for both: a eta = -1 makes rho_2 = a eta (1 + a eta) / (1 - eta)^(a + 2)
    # vanish, and Charlier's rho_2 is e^-1 T_2(-1) = 0 (T the Touchard polynomial).
    # The Pearson relations give rho_2 an all-zero coefficient vector, so it
    # is exactly 0 and stays out of the tail test; a walk of every column
    # still cannot certify it (ROADMAP item 1)
    w = parse_weight_spec(spec)
    ctx = PrecisionContext(mantissa_bits=bits)
    assert moments_module._pearson_columns(w, m_max)[1] == ((0,), 1)
    table = MomentTable(w, m_max, ctx)
    assert table.values[2] == 0
    with pytest.raises(TermBudgetExceeded):
        MomentTable(w, m_max, ctx, walk_all=True)


SLOW_DECAY = ("a=1,1; b=1; eta=9/10", "a=1; eta=9/10", "a=1,1; b=1; eta=-9/10")


def test_exact_tail_test_runs_only_near_the_stop(monkeypatch):
    # the exact test opens within 64 bits of the stop and then waits the terms
    # it predicts: a handful of calls per pass, not one per term of the last
    # 64 bits (468-472 for these weights at depth 24)
    per_pass = []
    real_pass, real_test = moments_module._fixed_point_pass, moments_module._tail_shortfall

    def counted_pass(*args):
        per_pass.append(0)
        return real_pass(*args)

    def counted_test(*args):
        per_pass[-1] += 1
        return real_test(*args)

    monkeypatch.setattr(moments_module, "_fixed_point_pass", counted_pass)
    monkeypatch.setattr(moments_module, "_tail_shortfall", counted_test)
    for spec in SLOW_DECAY:
        MomentTable(parse_weight_spec(spec), 24, PrecisionContext(mantissa_bits=512))
    assert len(per_pass) == len(SLOW_DECAY)
    assert all(1 <= calls <= 100 for calls in per_pass), per_pass


CONTRACT_MIX = (
    ("eta=7/10", 12),
    ("a=2; eta=1/2", 12),
    ("b=3/2; eta=1/2", 12),
    ("a=3/2; b=5/2; eta=1/3", 12),
    ("eta=1/2; eta2=9/10; eta3=9/10", 8),
)


def test_contract_mix_passes_by_bits_without_widening(monkeypatch):
    # the per-pass error bound certifies every column at the base guard: one
    # contract mix at 512 bits sums 23 passes at 608 bits and 1 at 736. Of
    # them 12 are the moment witnesses, two per feasible flow; one Meixner
    # witness sits near a rounding midpoint and climbs to the 736-bit rung.
    # Generalized Meixner runs no Nijhoff-Capel pair, so its doubly shifted
    # weight a=5/2; b=3/2 is not summed
    passes = []
    real = moments_module._fixed_point_pass

    def recorded(w, last, m_max, bits, scale, *derived):
        passes.append((bits, scale - bits - 64 - 14 * m_max))
        return real(w, last, m_max, bits, scale, *derived)

    monkeypatch.setattr(moments_module, "_fixed_point_pass", recorded)
    for spec, size in CONTRACT_MIX:
        clear_cache()
        run_suite(SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512))
    clear_cache()
    assert Counter(passes) == {(608, 0): 23, (736, 0): 1}


def test_tiny_moments_widen_the_guard(monkeypatch):
    # eta = -2^-300 makes rho_m ~ -2^-300 for m >= 1, far below the
    # floor-division error the base guard allows for: a walk of every column
    # widens its first rung's guard once by the measured shortfall, and the
    # widened pass proves every rounding. The Pearson route walks rho_0 ~ 1
    # alone and derives the rest, so it proves every rounding in one pass
    w = HypergeometricWeight(eta=Fraction(-1, 2**300))
    ctx = PrecisionContext(mantissa_bits=512)
    calls = _count_passes(monkeypatch)
    walked = MomentTable(w, 16, ctx, walk_all=True)
    widened = [(bits, scale - bits - 64 - 14 * m_max) for _, _, m_max, bits, scale, _ in calls]
    assert widened == [(608, 0), (608, 42)]
    assert _raw(walked.values) == _raw(_rounded(walked.rebuilt(REF_BITS).values, 512))
    calls.clear()
    assert _raw(MomentTable(w, 16, ctx).values) == _raw(walked.values)
    assert len(calls) == 1


@pytest.mark.parametrize("depth", [8, 16])
@pytest.mark.parametrize(
    "eta", [Fraction(1, 2**280), Fraction(1, 2**292), Fraction(1, 2**300), Fraction(-1, 2**280)]
)
def test_underflowed_terms_open_the_tail_test(eta, depth):
    # a tiny eta underflows the fixed-point term W_k to 0 after a few points,
    # while the last column stays below the bit-length gate's threshold; the
    # gate opens once the term is within its own error bound, the exact tail
    # test certifies the tail, and the widened guard proves every rounding
    table = MomentTable(HypergeometricWeight(eta=eta), depth, PrecisionContext(mantissa_bits=512))
    assert _raw(table.values) == _raw(_rounded(table.rebuilt(REF_BITS).values, 512))


def _fubini(n: int) -> int:
    """Ordered Bell number: a(n) = sum_{k=1}^n C(n, k) a(n - k), a(0) = 1."""
    a = [1]
    for j in range(1, n + 1):
        a.append(sum(comb(j, k) * a[j - k] for k in range(1, j + 1)))
    return a[n]


def test_unprovable_midpoint_rounds_the_top_rung(monkeypatch):
    # w(k) = 2^-k: rho_31 = 2 Fubini(31) is an exact 128-bit rounding midpoint,
    # so no interval of an infinite series proves it, derived from rho_0 or
    # walked. The rungs run in increasing order, mantissa + 96, verify_bits,
    # mantissa + 224, once for the derived table and once for the walk of
    # every column it falls back to, whose last pass is rounded as it stands.
    # This is `semidop moments --weight "a=1; eta=1/2" --bits 128 --max-m 31`.
    exact = 2 * _fubini(31)
    lower, upper = (from_man_exp(exact, 0, 128, rnd) for rnd in (round_down, round_up))
    assert to_int(upper) - exact == exact - to_int(lower) > 0
    real = moments_module._fixed_point_pass
    calls = _count_passes(monkeypatch)
    table = MomentTable(parse_weight_spec("a=1; eta=1/2"), 31, PrecisionContext(mantissa_bits=128))
    assert [args[3] for args in calls] == [224, 256, 352] * 2
    assert [len(args[5]) for args in calls] == [31] * 3 + [0] * 3
    assert table.values[31]._mpf_ in (lower, upper)
    sums = real(*calls[-1]).sums
    scale = calls[-1][4]
    assert table.values[31]._mpf_ == from_man_exp(sums[31], -scale, 128, round_nearest)


def test_exactly_zero_moments_sum_once(monkeypatch):
    # eta = 0 puts the whole weight at k = 0, so rho_m = 0 for m >= 1; an exact
    # column has no interval around zero to straddle it
    calls = _count_passes(monkeypatch)
    table = MomentTable(HypergeometricWeight(eta=0), 6, PrecisionContext(mantissa_bits=512))
    assert len(calls) == 1
    assert table.values[0] == 1 and all(v == 0 for v in table.values[1:])


@st.composite
def bordered_rows(draw):
    """(0, ..., p-1) followed by a tail of s rows past p, as a flow derivative leaves them."""
    p = draw(st.integers(1, 12))
    s = draw(st.integers(1, 4))
    tail = draw(st.sets(st.integers(p + 1, p + 8), min_size=s, max_size=s))
    return tuple(range(p)) + tuple(sorted(tail))


@settings(max_examples=40, deadline=None)
@given(
    a=st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
    b=st.fractions(min_value=Fraction(1, 8), max_value=6, max_denominator=8),
    eta=st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16),
    rows=bordered_rows(),
)
def test_schur_determinants_are_as_accurate_as_a_full_lu(a, b, eta, rows):
    # against a 2048-bit LU of the same 512-bit entries, tau_p times the Schur
    # complement loses at most a few bits more than one 512-bit LU of the matrix
    k = len(rows)
    ctx = PrecisionContext(mantissa_bits=512)
    table = MomentTable(HypergeometricWeight(a=(a,), b=(b,), eta=eta), rows[-1] + k - 1, ctx)
    dense = [[table.values[r + j] for j in range(k)] for r in rows]
    got = table.det_rows(rows)
    with workprec(512):
        full = lu_determinant(dense)
    with workprec(REF_BITS):
        ref = lu_determinant(dense)
        floor = mpf(2) ** -512
        assert abs(got - ref) / abs(ref) <= 2**10 * max(abs(full - ref) / abs(ref), floor)


def test_singular_leading_block_takes_the_full_lu(monkeypatch):
    # rho_0 = rho_1 = rho_2 = 1 makes G_2 singular: rows (0, 1, 3) take one
    # 3 x 3 LU, while (0, 3) borders the regular G_1 with a 1 x 1 complement
    values = [mpf(v) for v in (1, 1, 1, 2, 3, 5, 8)]
    table = MomentTable.__new__(MomentTable)
    table._fill(None, len(values) - 1, PrecisionContext(mantissa_bits=BITS), None, values, None)
    sizes = []
    real = moments_module.lu_determinant

    def counted(a):
        sizes.append(len(a))
        return real(a)

    monkeypatch.setattr(moments_module, "lu_determinant", counted)
    assert table.det_rows((0, 1)) == 0
    assert table.det_rows((0, 1, 3)) == -1
    assert sizes == [3]
    assert table.det_rows((0, 3)) == 1
    assert sizes == [3, 1]


def test_one_leading_factorization_per_table_and_size(monkeypatch):
    # across a whole suite, each table factors each leading block G_p once
    tables, factored = [], []
    real_fill, real_factor = MomentTable._fill, moments_module.lu_factor

    def fill(self, *args):
        tables.append(self)
        real_fill(self, *args)

    def factor(a):
        factored.append(len(a))
        return real_factor(a)

    monkeypatch.setattr(MomentTable, "_fill", fill)
    monkeypatch.setattr(moments_module, "lu_factor", factor)
    clear_cache()
    run_suite(SuiteConfig(weight=GEN_MEIXNER, size=8, mantissa_bits=BITS))
    clear_cache()
    assert factored
    assert len(factored) == sum(len(t._leading) for t in tables)
    # and the determinants bordering them outnumber the factorizations
    assert sum(len(t._det_cache) for t in tables) > 2 * len(factored)


# -- moment-witness tables -------------------------------------------------------


def _witness_and_walked(base, l, mult):
    """The moment witness the base pipeline builds, whether its table walked
    the lattice, and the same weight's table built on its own."""
    with pytest.MonkeyPatch.context() as patch:
        calls = _count_passes(patch)
        witness = base.flow_scaled(l, mult)
    return witness, bool(calls), MomentTable(witness.weight, witness.m_max, base.ctx, walk_all=True)


@pytest.mark.parametrize(
    "witness",
    [
        HypergeometricWeight(a=(3,), eta=Fraction(1, 2)),  # a differs
        HypergeometricWeight(a=(2,), b=(2,), eta=Fraction(1, 2)),  # b differs
        flow_scaled_weight(WITNESS, 2, Fraction(9, 10)),  # eta and eta2 differ
    ],
)
def test_a_weight_that_is_no_flow_witness_is_walked(witness, monkeypatch):
    # a table walks its own lattice from the first rung, whatever table of a
    # related weight was built before it: tables share no passes
    ctx = PrecisionContext(mantissa_bits=512)
    MomentTable(MEIXNER, 32, ctx)
    calls = _count_passes(monkeypatch)
    table = MomentTable(witness, 8, ctx)
    assert [args[3] for args in calls] == [608]
    assert _raw(table.values) == _raw(MomentTable(witness, 8, ctx).values)


@pytest.mark.parametrize(
    ("spec", "l", "parent_depth", "depth"),
    [
        ("b=3/2; eta=-1/2", 1, 32, 24),  # a signed weight
        ("a=3/2; b=5/2; eta=1/3", 1, 24, 24),  # the generalized Meixner witness
        ("eta=1/2; eta2=9/10; eta3=9/10", 2, 24, 16),  # the deformed flow-2 witness
    ],
)
def test_witness_tables_outside_the_rules_are_walked(spec, l, parent_depth, depth):
    # every moment witness walks its lattice: built by its base pipeline at
    # the base's size, its table stops at rho_2k and holds the bits of the
    # same weight's table built on its own, with the same last point
    base = get_pipeline(parse_weight_spec(spec), depth // 2, PrecisionContext(mantissa_bits=512))
    assert base.depth <= parent_depth
    witness, walked_here, alone = _witness_and_walked(base, l, 1 + Fraction(1, 2**128))
    assert walked_here and witness.m_max == depth
    assert _raw(witness.values) == _raw(alone.values)
    assert witness.last_point == alone.last_point


def test_meixner_suite_walks_only_what_cannot_be_derived(monkeypatch):
    # the flow jets derive every derivative of the factorization from the
    # base table, so the Meixner suite at size 12 sums the lattice for its
    # base table, its shifted table a=3 and the two flow-1 moment witnesses,
    # each at depth 24, the one whose moments sit near a 512-bit rounding
    # midpoint walked again at 736 bits. The base and shifted tables walk
    # rho_0 alone and derive rho_1 .. rho_24; the witnesses walk all 25 columns
    passes = []
    real = moments_module._fixed_point_pass

    def recorded(w, last, m_max, bits, scale, derived):
        walked = m_max + 1 - len(derived)
        passes.append((w.spec_string() if w.eta == Fraction(1, 2) else "witness", walked, bits))
        return real(w, last, m_max, bits, scale, derived)

    monkeypatch.setattr(moments_module, "_fixed_point_pass", recorded)
    clear_cache()
    run_suite(SuiteConfig(weight=MEIXNER, size=12, mantissa_bits=512))
    clear_cache()
    assert Counter(passes) == {
        ("a=2; eta=1/2", 1, 608): 1,
        ("a=3; eta=1/2", 1, 608): 1,
        ("witness", 25, 608): 2,
        ("witness", 25, 736): 1,
    }


# -- Pearson-derived columns ------------------------------------------------------

signed_params = st.fractions(min_value=-4, max_value=4, max_denominator=8)


@st.composite
def pearson_weights(draw):
    """Undeformed weights whose moments converge: signed a_i and b_j with
    M, N <= 2 and |eta| < 1, M <= N + 1 unless an a_i is a nonpositive
    integer (a finite support)."""
    defined = signed_params.filter(lambda x: not is_nonpositive_integer(x))
    b = tuple(draw(st.lists(defined, max_size=2)))
    a = draw(st.lists(signed_params, max_size=2))
    if draw(st.booleans()):
        a = a[:1] + [Fraction(-draw(st.integers(0, 20)))]
    if not any(is_nonpositive_integer(x) for x in a):
        a = a[: len(b) + 1]
    eta = draw(
        st.fractions(min_value=Fraction(-15, 16), max_value=Fraction(15, 16), max_denominator=16)
        .filter(bool)
    )
    return HypergeometricWeight(a=tuple(a), b=b, eta=eta)


@settings(max_examples=40, deadline=None)
@given(w=pearson_weights(), size=st.integers(4, 16))
def test_derived_tables_equal_the_walk_of_every_column(w, size):
    # both routes round correctly, so a table that walks rho_0 .. rho_B and
    # derives the rest by the Pearson relations holds the bits of the walk of
    # all 2 size + 1 columns; where that walk is refused, the derived table
    # proves a column exactly zero, or is refused the same way
    ctx = PrecisionContext(mantissa_bits=256)
    m_max = 2 * size
    try:
        walked = MomentTable(w, m_max, ctx, walk_all=True)
    except TermBudgetExceeded:
        try:
            derived = MomentTable(w, m_max, ctx)
        except TermBudgetExceeded:
            return
        zeros = [not any(nums) for nums, _ in moments_module._pearson_columns(w, m_max)]
        assert any(zeros)
        tail = derived.values[m_max + 1 - len(zeros) :]
        assert all(v == 0 for v, zero in zip(tail, zeros) if zero)
        return
    assert _raw(MomentTable(w, m_max, ctx).values) == _raw(walked.values)


@pytest.mark.parametrize(
    ("spec", "walked"),
    [
        ("eta=7/10", 1),  # N + 1 > M
        ("a=1/2,3/2; b=5/2,7/2; eta=1/3", 3),  # M = N + 1, eta != 1
        ("a=1,2,-6; eta=-1/2", 3),  # M > N + 1, a finite support
        ("a=3/2,-8; b=-19/2; eta=1", 1),  # M = N + 1 and eta = 1: rho_0 alone
        ("a=-3; eta=1", 4),  # (-3)_k / k!: the relation of rho_3 vanishes
    ],
)
def test_pearson_relations_leave_the_base_columns(spec, walked):
    # the columns no relation derives are walked; every other column is an
    # exact rational combination of them, here checked against the moments
    # the walk of every column gives
    w = parse_weight_spec(spec)
    derived = moments_module._pearson_columns(w, 16)
    assert len(derived) == 17 - walked
    ctx = PrecisionContext(mantissa_bits=512)
    table = MomentTable(w, 16, ctx, walk_all=True)
    with workprec(1024):
        for m, (nums, den) in enumerate(derived, start=walked):
            value = sum(n * table.values[b] for b, n in enumerate(nums)) / den
            assert abs(value - table.values[m]) <= mpf(2) ** -480 * max(abs(table.values[m]), 1)


def test_a_derivation_no_rung_proves_walks_every_column(monkeypatch):
    # eta = 1 - 2^-64 with M = N + 1: each relation divides by 1 - eta, and the
    # signed coefficients cancel, so the derived columns of this finite
    # support lose bits at every step and no rung of a 256-bit table proves
    # them; the table walks every column instead and holds the walk's bits
    w = HypergeometricWeight(a=(Fraction(3, 2), -8), b=(Fraction(-19, 2),), eta=1 - Fraction(1, 2**64))
    ctx = PrecisionContext(mantissa_bits=256)
    calls = _count_passes(monkeypatch)
    table = MomentTable(w, 12, ctx)
    assert [(args[3], len(args[5])) for args in calls] == [(352, 11), (480, 11), (512, 11), (352, 0)]
    assert _raw(table.values) == _raw(MomentTable(w, 12, ctx, walk_all=True).values)


def _walked_columns(monkeypatch) -> list:
    """Record (weight, depth, walked columns) of every pass."""
    walks = []
    real = moments_module._fixed_point_pass

    def recorded(w, last, m_max, bits, scale, derived):
        walks.append((w, m_max, m_max + 1 - len(derived)))
        return real(w, last, m_max, bits, scale, derived)

    monkeypatch.setattr(moments_module, "_fixed_point_pass", recorded)
    return walks


def test_tables_walk_only_their_pearson_base_columns(monkeypatch):
    # over one contract mix, an undeformed base or shifted table walks its
    # N + 1 base columns, while the 12 moment witnesses and the deformed
    # weight's tables walk all 2k + 1; the slow-decay weights walk 2, 1 and 2
    walks = _walked_columns(monkeypatch)
    witnesses = set()
    real_scaled = pipeline.WeightPipeline.flow_scaled

    def flow_scaled(self, l, mult):
        witness = real_scaled(self, l, mult)
        witnesses.add(witness.weight)
        return witness

    monkeypatch.setattr(pipeline.WeightPipeline, "flow_scaled", flow_scaled)
    for spec, size in CONTRACT_MIX:
        clear_cache()
        run_suite(SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512))
    clear_cache()
    assert len(witnesses) == 12
    full = [w for w, m_max, walked in walks if walked == m_max + 1]
    assert set(full) == witnesses | {w for w, _, _ in walks if w.deformed}
    assert all(walked == w.n_degree + 1 for w, _, walked in walks if w not in full)
    assert {w for w in full if not w.deformed} == witnesses - {w for w in witnesses if w.deformed}
    walks.clear()
    ctx = PrecisionContext(mantissa_bits=512)
    for spec in SLOW_DECAY:
        get_pipeline(parse_weight_spec(spec), 8, ctx).jac
    clear_cache()
    assert [walked for _, _, walked in walks] == [2, 1, 2]


def test_moment_witnesses_are_tables_that_no_pipeline_holds(monkeypatch):
    # over one contract mix get_pipeline builds 11 pipelines, none of them a
    # witness's: the 12 moment witnesses are bare tables of rho_0 .. rho_2k
    # at their base's size, each walking every column, and every cache key
    # is (weight, size, context)
    walks = _walked_columns(monkeypatch)
    built, witnesses, keys = [], [], set()
    real_init, real_scaled = pipeline.WeightPipeline.__init__, pipeline.WeightPipeline.flow_scaled

    def init(self, weight, k, ctx):
        built.append(weight)
        real_init(self, weight, k, ctx)

    def flow_scaled(self, l, mult):
        table = real_scaled(self, l, mult)
        witnesses.append((table, self.depth))
        return table

    monkeypatch.setattr(pipeline.WeightPipeline, "__init__", init)
    monkeypatch.setattr(pipeline.WeightPipeline, "flow_scaled", flow_scaled)
    for spec, size in CONTRACT_MIX:
        clear_cache()
        run_suite(SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512))
        keys.update(pipeline._CACHE)
    clear_cache()
    assert len(built) == 11
    assert len(witnesses) == 12 and not {t.weight for t, _ in witnesses} & set(built)
    for table, depth in witnesses:
        assert isinstance(table, MomentTable) and table.m_max == depth
        assert len(table.values) == depth + 1
        passes = [walked for w, _, walked in walks if w == table.weight]
        assert passes and all(walked == depth + 1 for walked in passes)
    assert keys and all(len(key) == 3 for key in keys)
