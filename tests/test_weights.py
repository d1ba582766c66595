from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec
from mpmath.libmp import from_rational, round_nearest

from semidop import (
    InvalidShift,
    Shift,
    UndefinedWeight,
    classify_convergence,
    parse_weight_spec,
    pearson_polynomials,
    pochhammer,
    shift_parameter,
    weight_value,
)
from semidop.weights import HypergeometricWeight, fixed_point_terms, to_mpf

from conftest import CHARLIER, DEFORMED, FAMILIES, GEN_MEIXNER, MEIXNER
from oracles import weight_sequence


def test_pochhammer_values():
    assert pochhammer(Fraction(5), 0) == 1
    assert pochhammer(3, 4) == 360
    assert pochhammer(-2, 4) == 0
    assert pochhammer(Fraction(1, 2), 3) == Fraction(1, 2) * Fraction(3, 2) * Fraction(5, 2)
    with workprec(64):
        assert pochhammer(mpf(0.5), 3) == mpf(1.875) and pochhammer(mpf(0.5), 0) == 1


@given(st.fractions(min_value=-5, max_value=5), st.integers(min_value=0, max_value=12))
def test_pochhammer_recurrence(alpha, k):
    assert pochhammer(alpha, k + 1) == pochhammer(alpha, k) * (alpha + k)


def test_weight_values():
    with workprec(128):
        charlier1 = HypergeometricWeight(eta=1)
        assert abs(weight_value(charlier1, 3) - mpf(1) / 6) < mpf(2) ** -120
        assert abs(weight_value(MEIXNER, 2) - mpf(3) / 4) < mpf(2) ** -120
        gen_charlier_b1 = HypergeometricWeight(b=(1,), eta=Fraction(2, 3))
        for k in range(5):
            expect = to_mpf(Fraction(2, 3) ** k) / (mp.factorial(k) ** 2)
            assert abs(weight_value(gen_charlier_b1, k) - expect) < mpf(2) ** -115


def test_weight_rejects_bad_b():
    with pytest.raises(UndefinedWeight):
        HypergeometricWeight(b=(0,), eta=1)
    with pytest.raises(UndefinedWeight):
        HypergeometricWeight(b=(-3,), eta=1)


def test_classification_cases():
    assert classify_convergence(GEN_MEIXNER).kind == "all_eta"
    # any eta when M <= N
    big = HypergeometricWeight(a=(Fraction(3, 2),), b=(Fraction(5, 2),), eta=5)
    assert classify_convergence(big).kind == "all_eta"
    fin = HypergeometricWeight(a=(-3,), eta=2)
    cls = classify_convergence(fin)
    assert cls.kind == "finite_support" and cls.q == 3 and cls.support_cap == 4
    div = HypergeometricWeight(a=(Fraction(1, 2),), eta=2)
    assert classify_convergence(div).kind == "divergent"
    assert classify_convergence(MEIXNER).kind == "unit_disk"
    bound = HypergeometricWeight(a=(Fraction(1, 2),), b=(), eta=1)
    assert classify_convergence(bound).kind == "divergent"
    bound2 = HypergeometricWeight(a=(Fraction(1, 2), Fraction(1, 3)), b=(3,), eta=-1)
    assert classify_convergence(bound2).kind == "boundary"
    assert classify_convergence(HypergeometricWeight(eta=0)).kind == "finite_support"
    # eta2 = 0 or eta3 = 0 makes w(k) = 0 for k >= 1, as eta = 0 does
    for field in ("eta2", "eta3"):
        cls = classify_convergence(HypergeometricWeight(eta=Fraction(1, 2), **{field: 0}))
        assert cls.kind == "finite_support" and cls.q == 0
    deformed = HypergeometricWeight(a=(Fraction(1, 2),), eta=2, eta2=Fraction(9, 10))
    assert classify_convergence(deformed).kind == "all_eta"


@pytest.mark.parametrize(
    "w, count",
    [
        (MEIXNER, 80),
        (GEN_MEIXNER, 80),
        # eta3^(k^3) makes exact values huge; 24 points reach below 2^-1000
        (DEFORMED, 24),
        (parse_weight_spec("a=-1/2,3; b=-3/2; eta=-2; eta2=-4/5"), 40),
    ],
)
def test_weight_sequence_matches_weight_value(w, count):
    # the oracle's exact walk reproduces the Pochhammer definition bit for bit,
    # and every fixed-point term lies within its stated error of it, the
    # underflowed terms of DEFORMED included; that error stays a few units
    scale = 256
    with workprec(192):
        walk = zip(range(count), weight_sequence(w), fixed_point_terms(w, scale))
        for k, exact, (value, err) in walk:
            assert to_mpf(exact) == weight_value(w, k)
            assert abs(value - exact * 2**scale) <= err, k
            assert err.bit_length() <= 8, k


def test_shifts():
    shifted = shift_parameter(GEN_MEIXNER, Shift.a(1))
    assert shifted.a == (Fraction(5, 2),) and shifted.b == (Fraction(5, 2),)
    shifted = shift_parameter(GEN_MEIXNER, Shift.b(1))
    assert shifted.b == (Fraction(3, 2),)
    total = shift_parameter(HypergeometricWeight(a=(1,), b=(2,), eta=1), Shift.total())
    assert total.a == (Fraction(2),) and total.b == (Fraction(3),)
    with pytest.raises(InvalidShift):
        shift_parameter(GEN_MEIXNER, Shift.a(2))
    with pytest.raises(InvalidShift):
        shift_parameter(HypergeometricWeight(b=(1,), eta=1), Shift.b(1))


@given(st.integers(min_value=1, max_value=1))
def test_shift_roundtrip(i):
    shifted = shift_parameter(GEN_MEIXNER, Shift.a(i))
    back = HypergeometricWeight(
        tuple(x - 1 if j == i - 1 else x for j, x in enumerate(shifted.a)),
        shifted.b,
        shifted.eta,
    )
    assert back == GEN_MEIXNER


def test_pearson_polynomials():
    pp = pearson_polynomials(CHARLIER)
    assert pp.theta_coeffs == (Fraction(0), Fraction(1))
    assert pp.sigma_coeffs == (Fraction(7, 10),)
    pp = pearson_polynomials(GEN_MEIXNER)
    # theta = z^2 + (b-1) z, sigma = eta z + eta a
    assert pp.theta_coeffs == (Fraction(0), Fraction(3, 2), Fraction(1))
    assert pp.sigma_coeffs == (Fraction(1, 2), Fraction(1, 3))
    gen_charlier = HypergeometricWeight(b=(3,), eta=Fraction(1, 4))
    pp = pearson_polynomials(gen_charlier)
    assert pp.theta_coeffs == (Fraction(0), Fraction(2), Fraction(1))
    assert pp.sigma_coeffs == (Fraction(1, 4),)
    # theta(0) = 0 exactly, monic theta, sigma leads with eta
    for w in FAMILIES.values():
        pp = pearson_polynomials(w)
        assert pp.theta_coeffs[0] == 0
        assert pp.theta_coeffs[-1] == 1
        assert pp.sigma_coeffs[-1] == w.eta


@settings(deadline=None, max_examples=25)
@given(
    st.fractions(min_value=Fraction(1, 4), max_value=4),
    st.fractions(min_value=Fraction(1, 4), max_value=4),
    st.fractions(min_value=Fraction(1, 10), max_value=Fraction(9, 10)),
    st.integers(min_value=0, max_value=20),
)
def test_weight_positive_for_positive_parameters(a, b, eta, k):
    w = HypergeometricWeight(a=(a,), b=(b,), eta=eta)
    with workprec(96):
        assert weight_value(w, k) > 0


@settings(deadline=None, max_examples=200)
@given(st.binary(min_size=25, max_size=25), st.binary(min_size=19, max_size=19), st.booleans())
def test_to_mpf_rounds_once(num_bytes, den_bytes, negative):
    # a numerator wider than the mantissa must not be rounded before dividing;
    # raw bytes give full-width 200/150-bit operands with random low bits
    p = int.from_bytes(num_bytes, "big") | 1 << 199
    q = int.from_bytes(den_bytes, "big") | 1 << 149
    x = Fraction(-p if negative else p, q)
    with workprec(64):
        assert to_mpf(x) == mpf(from_rational(x.numerator, x.denominator, 64, round_nearest))


def test_spec_grammar_roundtrip():
    spec = "a=3/2,1; b=5/2; eta=1/3; eta2=9/10; eta3=9/10"
    w = parse_weight_spec(spec)
    assert w.a == (Fraction(3, 2), Fraction(1))
    assert w.b == (Fraction(5, 2),)
    assert w.eta == Fraction(1, 3)
    assert w.eta2 == Fraction(9, 10)
    assert parse_weight_spec(w.spec_string()) == w
    assert parse_weight_spec("eta=0.7") == parse_weight_spec("eta=7/10")


RATIONALS = st.fractions(min_value=-20, max_value=20, max_denominator=1000)
DEFORMATIONS = st.fractions(min_value=-1, max_value=1, max_denominator=1000)


@settings(deadline=None, max_examples=100)
@given(
    st.lists(RATIONALS, max_size=3),
    st.lists(RATIONALS, max_size=3),
    RATIONALS,
    DEFORMATIONS,
    DEFORMATIONS,
)
def test_spec_string_roundtrips_through_the_grammar(a, b, eta, eta2, eta3):
    try:
        w = HypergeometricWeight(a=tuple(a), b=tuple(b), eta=eta, eta2=eta2, eta3=eta3)
    except UndefinedWeight:
        assume(False)
    assert parse_weight_spec(w.spec_string()) == w


def test_spec_grammar_errors():
    with pytest.raises(ValueError):
        parse_weight_spec("frobnicate=1")
    with pytest.raises(ValueError):
        parse_weight_spec("eta")
    with pytest.raises(ValueError):
        parse_weight_spec("eta=1; eta=2")
