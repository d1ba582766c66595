import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest
from mpmath import ldexp, mpf, workprec

from semidop import (
    MomentTable,
    PrecisionContext,
    SuiteConfig,
    pascal_matrix,
    pascal_subdiagonal,
    run_suite,
)
from semidop.linalg import GramSums, diag, diagonal_of, mat_mul, mat_vec, poly_of_matrix, transpose
from semidop.moments import cholesky
from semidop.pipeline import get_pipeline
from semidop.structure import (
    ROUTE_NAMES,
    coefficient_sum_check,
    d_vector,
    gram_pearson_residual,
    gram_pearson_window,
    jacobi_matrix,
    orthogonality_check,
    pi_closed_form_check,
    polynomial_shift_identity,
    polynomial_vector,
    psi_extreme_diagonals,
    psi_jacobi_identities,
    psi_routes,
    psi_window,
    s_inverse_expansion_check,
    structure_cholesky_check,
    structure_shift_residual,
)
from semidop.weights import (
    HypergeometricWeight,
    parse_weight_spec,
    pearson_polynomials,
    fixed_point_terms,
    to_mpf,
)

from conftest import BITS, CHARLIER, FAMILIES, GEN_MEIXNER, MEIXNER
from oracles import meixner_reduced_moments, recurrence_from_moments, weight_sequence


def test_pascal_matrix_rows_and_inverse():
    b = pascal_matrix(6)
    assert b[4] == [1, 4, 6, 4, 1, 0]
    assert b[5] == [1, 5, 10, 10, 5, 1]
    b_inv = pascal_matrix(6, -1)
    assert b_inv[3] == [-1, 3, -3, 1, 0, 0]
    prod = mat_mul(b, b_inv)
    identity = [[1 if i == j else 0 for j in range(6)] for i in range(6)]
    assert prod == identity  # exact integer arithmetic


def test_pascal_shift_action_on_monomials():
    # chi(z+1) = B chi(z) at z = 2: powers of 3
    b = pascal_matrix(5)
    chi2 = [2**j for j in range(5)]
    assert mat_vec(b, chi2) == [1, 3, 9, 27, 81]


def test_pascal_subdiagonal_profiles():
    assert d_vector(1, 5) == [1, 2, 3, 4, 5]
    assert pascal_subdiagonal(2, 0) == 1
    for n in range(8):
        assert 3 * pascal_subdiagonal(3, n) == 2 * pascal_subdiagonal(2, n) * (n + 3)
    # 2 D^[2] = (T_- D) D entrywise
    dv = d_vector(1, 8)
    d2 = d_vector(2, 8)
    shifted = dv[1:]
    for n in range(7):
        assert 2 * d2[n] == shifted[n] * dv[n]


def test_dressed_pascal_first_subdiagonals(charlier_pipe):
    pi = charlier_pipe.pi
    pi_inv = charlier_pipe.pi_inv
    with workprec(BITS):
        tol = mpf(2) ** -(BITS - 60)
        for n in range(8):
            assert abs(diagonal_of(pi, -1)[n] - (n + 1)) < tol
            assert abs(diagonal_of(pi_inv, -1)[n] + (n + 1)) < tol


def test_dressed_pascal_action(meixner_pipe):
    # P(z plus/minus 1) = Pi^{plus/minus 1} P(z) on the full truncation
    pipe = meixner_pipe
    size = pipe.k + 1
    with workprec(BITS):
        z = mpf(3) / 7
        p_at = polynomial_vector(pipe.jac, z, size)
        p_up = polynomial_vector(pipe.jac, z + 1, size)
        p_dn = polynomial_vector(pipe.jac, z - 1, size)
        tol = mpf(2) ** -(BITS - 80)
        up = mat_vec([row[:size] for row in pipe.pi[:size]], p_at)
        dn = mat_vec([row[:size] for row in pipe.pi_inv[:size]], p_at)
        scale = max(abs(x) for x in p_up)
        for n in range(size):
            assert abs(up[n] - p_up[n]) < tol * scale
            assert abs(dn[n] - p_dn[n]) < tol * scale


def test_pi_closed_forms_all_families(ctx, tol):
    from semidop.pipeline import get_pipeline

    for w in FAMILIES.values():
        pipe = get_pipeline(w, 12, ctx)
        res = pi_closed_form_check(pipe, tol)
        assert res.passed, (w.spec_string(), res.components)


def test_s_inverse_expansion(ctx, tol):
    from semidop.pipeline import get_pipeline

    pipe = get_pipeline(MEIXNER, 10, ctx)
    res = s_inverse_expansion_check(pipe, tol)
    assert res.passed


def test_s_inverse_trivial_identity(ctx, tol):
    # a pipeline holding a synthetic factorization with S = I has all
    # expansion terms zero
    from semidop.moments import CholeskyFactorization

    n = 6
    eye = [[mpf(1) if i == j else mpf(0) for j in range(n)] for i in range(n)]
    table = MomentTable(CHARLIER, 10, ctx)
    fake = CholeskyFactorization(
        s=eye, s_inv=eye, h=[mpf(1)] * n, size=n, table=table,
    )
    fake_pipe = SimpleNamespace(chol=fake, bits=ctx.mantissa_bits)
    res = s_inverse_expansion_check(fake_pipe, tol)
    assert res.passed and res.max_residual == 0


def test_jacobi_closed_forms_charlier(charlier_pipe):
    # tight bounds at the working precision; the 2^-200 contract is exercised
    # by the acceptance suite at 512 bits
    with workprec(BITS):
        eta = to_mpf(Fraction(7, 10))
        tol = mpf(2) ** -(BITS - 80)
        for n in range(10):
            assert abs(charlier_pipe.jac.beta[n] - (n + eta)) < tol * (n + 1)
            if n >= 1:
                assert abs(charlier_pipe.gamma(n) - n * eta) < tol * (n + 1)


def test_gamma_index_zero_and_below(ctx):
    # gamma_0 = 0 by convention, not the last entry of the recurrence data
    from semidop import IndexOutOfTable
    from semidop.pipeline import get_pipeline

    pipe = get_pipeline(CHARLIER, 6, ctx)
    assert pipe.gamma(0) == 0
    with pytest.raises(IndexOutOfTable):
        pipe.gamma(-1)


def test_jacobi_closed_forms_meixner(meixner_pipe):
    a, eta = mpf(2), mpf(1) / 2
    with workprec(BITS):
        tol = mpf(2) ** -180
        for n in range(10):
            expect_beta = (n + (n + a) * eta) / (1 - eta)
            assert abs(meixner_pipe.jac.beta[n] - expect_beta) < tol * max(1, expect_beta)
            if n >= 1:
                expect_gamma = n * (n + a - 1) * eta / (1 - eta) ** 2
                assert abs(meixner_pipe.gamma(n) - expect_gamma) < tol * expect_gamma


def test_jacobi_against_rational_oracle(meixner_pipe):
    reduced = meixner_reduced_moments(Fraction(2), Fraction(1, 2), 26)
    beta_o, gamma_o, _ = recurrence_from_moments(reduced, 13)
    with workprec(BITS):
        tol = mpf(2) ** -(BITS - 90)
        for n in range(12):
            assert abs(meixner_pipe.jac.beta[n] - to_mpf(beta_o[n])) < tol * max(
                1, abs(to_mpf(beta_o[n]))
            )
        for n in range(1, 12):
            assert (
                abs(meixner_pipe.gamma(n) - to_mpf(gamma_o[n - 1]))
                < tol * to_mpf(gamma_o[n - 1])
            )


def test_polynomial_eval_and_coefficients(meixner_pipe):
    jac = meixner_pipe.jac
    chol = meixner_pipe.chol
    with workprec(BITS):
        assert polynomial_vector(jac, mpf(3), 1)[0] == 1
        # P_1(z) = z - rho_1/rho_0
        z = mpf(5) / 3
        rho0, rho1 = chol.table.moment(0), chol.table.moment(1)
        assert abs(polynomial_vector(jac, z, 2)[1] - (z - rho1 / rho0)) < mpf(2) ** -(BITS - 40)
        # evaluation by recurrence matches the coefficient rows of S
        for n in range(6):
            by_coeff = sum(chol.s[n][m] * z**m for m in range(n + 1))
            p_n = polynomial_vector(jac, z, n + 1)[n]
            assert abs(p_n - by_coeff) < mpf(2) ** -(BITS - 60) * max(1, abs(by_coeff))


def test_three_term_recurrence_residual(gen_meixner_pipe):
    jac = gen_meixner_pipe.jac
    with workprec(BITS):
        for z in (mpf(0), mpf(1) / 3, mpf(2)):
            pv = polynomial_vector(jac, z, 8)
            for n in range(1, 7):
                resid = z * pv[n] - (pv[n + 1] + jac.beta[n] * pv[n] + gen_meixner_pipe.gamma(n) * pv[n - 1])
                assert abs(resid) < mpf(2) ** -(BITS - 60) * max(1, abs(z * pv[n]))


def test_orthogonality_direct_sums(ctx, tol, meixner_pipe):
    res = orthogonality_check(meixner_pipe, tol)
    assert res.passed, res.components


def _gram_over(pipe, nmax: int, weights) -> list:
    """Gram sums of the polynomials against ``weights``, one per lattice point 0, 1, ..."""
    gram = GramSums(nmax + 1)
    for k, weight in enumerate(weights):
        gram.add(polynomial_vector(pipe.jac, k, nmax + 1), weight)
    return gram.lower()


def _exact_weights(pipe, points: int) -> list:
    """The oracle's exact w(0) .. w(points - 1), each rounded once."""
    return [to_mpf(weight) for _, weight in zip(range(points), weight_sequence(pipe.weight))]


TAIL_CASES = (
    ("eta=7/10", 12),
    ("a=2; eta=1/2", 12),
    ("b=3/2; eta=1/2", 12),
    ("a=3/2; b=5/2; eta=1/3", 12),
    ("eta=1/2; eta2=9/10; eta3=9/10", 8),
)


@pytest.mark.parametrize(
    ("spec", "size", "witness"),
    [pytest.param(spec, size, False, id=f"{spec}-{size}") for spec, size in TAIL_CASES]
    + [pytest.param("eta=7/10", 12, True, id="eta=7/10-12-derived witness")],
)
def test_orthogonality_tail_is_within_its_certificate(spec, size, witness):
    # the walk stops at K, the last point of the moment table's pass; the
    # points K + 1 .. 2K move each exact-weight Gram sum by at most
    # 2^-(bits - 31) sum_{i,j} |c_{n,i}| |c_{m,j}| |rho_{i+j}|. The case id
    # "derived witness" names a moment witness of the flow-scaled weight,
    # a table its base pipeline builds at its own size, which walks every
    # column; no pipeline factors it, so the test factors it with cholesky
    bits = 512
    pipe = get_pipeline(parse_weight_spec(spec), size, PrecisionContext(mantissa_bits=bits))
    if witness:
        table = pipe.flow_scaled(1, 1 - Fraction(1, 2**128))
        assert table.m_max == 2 * size and table.weight.eta < pipe.weight.eta
        chol = cholesky(table, size + 1)
        pipe = SimpleNamespace(weight=table.weight, table=table, chol=chol, jac=jacobi_matrix(chol))
    nmax = min(8, pipe.jac.size - 1)
    table = pipe.table
    last = table.last_point
    c, rho = pipe.chol.s, table.values
    with workprec(bits):
        exact = _exact_weights(pipe, 2 * last + 1)
        walked = _gram_over(pipe, nmax, exact[: last + 1])
        longer = _gram_over(pipe, nmax, exact)
        for n in range(nmax + 1):
            for m in range(n + 1):
                terms = (abs(c[n][i] * c[m][j] * rho[i + j]) for i in range(n + 1) for j in range(m + 1))
                bound = ldexp(sum(terms, mpf(0)), -(bits - 31))
                assert abs(longer[n][m] - walked[n][m]) <= bound, (n, m)
        # the check's own sums read the generator's weights W_k 2^-s, each
        # within e_k 2^-s of w(k); beyond one rounding of each weight and of
        # each sum, they lie within 2^-s sum_k |p_n(k) p_m(k)| e_k of the
        # exact-weight sums over the same points
        generated = list(table.lattice_weights(2 * nmax))
        assert len(generated) == last + 1
        checked = _gram_over(pipe, nmax, generated)
        scale = table.walk_scale(2 * nmax)
        slack = [[mpf(0)] * (nmax + 1) for _ in range(nmax + 1)]
        terms = zip(generated, exact, fixed_point_terms(pipe.weight, scale))
        for k, (ours, theirs, (_, err)) in enumerate(terms):
            p = polynomial_vector(pipe.jac, k, nmax + 1)
            with workprec(2 * bits):
                room = ldexp(err, -scale)
                if ours != theirs:
                    room += ldexp(abs(ours) + abs(theirs), -(bits - 1))
                for n in range(nmax + 1):
                    for m in range(n + 1):
                        slack[n][m] += abs(p[n] * p[m]) * room
        for n in range(nmax + 1):
            for m in range(n + 1):
                rounding = ldexp(abs(checked[n][m]) + abs(walked[n][m]), -bits)
                assert abs(checked[n][m] - walked[n][m]) <= slack[n][m] + rounding, (n, m)


def test_orthogonality_walk_reaches_the_rounding_floor():
    # Meixner's sums stop where the moment pass certified its tails, far past
    # the truncation error of 2^-530 a norm-relative stop rule left in cross[8, 7]
    report = run_suite(SuiteConfig(weight=MEIXNER, size=12, checks=("orthogonality",)))
    (res,) = report.checks
    assert res.passed and res.max_residual < mpf(2) ** -600, res.components


def test_orthogonality_walks_a_finite_support_to_its_last_point():
    # w(k) = 0 past q = 5: the moment pass ends at q and the walk sums q + 1 points
    pipe = get_pipeline(parse_weight_spec("a=-5; eta=1/2"), 5, PrecisionContext(mantissa_bits=512))
    assert pipe.table.last_point == 5
    res = orthogonality_check(pipe, Fraction(1, 2**128))
    assert res.passed, res.components
    assert res.window == "degrees up to 4, 6 lattice points"


def test_orthogonality_walk_of_a_slow_decay_finishes():
    # 46,546 lattice points at term ratio near 99/100: a walk of exact
    # fractions, growing some 6.6 bits a point, ran for minutes here; the
    # fixed-point terms take seconds
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "semidop.cli", "verify", "--weight", "a=1; eta=99/100",
         "--size", "8", "--checks", "orthogonality"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    row = proc.stdout.splitlines()[0].split()
    assert row[0] == "orthogonality" and row[-1] == "PASS", proc.stdout


def test_orthogonality_of_a_signed_slow_decay_passes():
    # alternating terms with ratio near -9/10, 5,531 lattice points
    w = parse_weight_spec("a=1,1; b=1; eta=-9/10")
    (res,) = run_suite(SuiteConfig(weight=w, size=12, checks=("orthogonality",))).checks
    assert res.passed, res.components


def test_coefficient_sums(ctx, tol, deformed_pipe):
    from semidop.pipeline import get_pipeline

    gen_charlier = HypergeometricWeight(b=(Fraction(3, 2),), eta=Fraction(1, 2))
    pipe = get_pipeline(gen_charlier, 12, ctx)
    # J = S Lambda S^-1 and the symmetry of J H are reported for every weight,
    # the deformed one included
    for checked in [pipe, deformed_pipe] + [get_pipeline(w, 8, ctx) for w in FAMILIES.values()]:
        res = coefficient_sum_check(checked, tol)
        assert res.passed, res.components
        assert {"j_conjugation", "jh_symmetry"} <= set(res.components)
    # explicit small cases: p1_1 = -beta_0 = -rho_1/rho_0 and the Charlier
    # constant coefficient p2_2 = eta^2 (= -gamma_1 + beta_1 beta_0)
    with workprec(BITS):
        rho0, rho1 = pipe.table.moment(0), pipe.table.moment(1)
        assert abs(pipe.chol.p(1, 1) + rho1 / rho0) < mpf(2) ** -(BITS - 40)
    from semidop.pipeline import get_pipeline as gp

    ch = gp(CHARLIER, 8, ctx)
    with workprec(BITS):
        eta = to_mpf(Fraction(7, 10))
        assert abs(ch.chol.p(2, 2) - eta * eta) < mpf(2) ** -(BITS - 50)


def test_gram_pearson_entrywise_charlier(ctx, tol):
    # theta = z, sigma = eta: the symmetry reads rho_{n+m+1} = eta (B G B^T)_{nm}
    from semidop.pipeline import get_pipeline

    pipe = get_pipeline(CHARLIER, 6, ctx)
    table = pipe.table
    res = gram_pearson_residual(pipe, tol)
    assert res.passed
    b = pascal_matrix(6)
    with workprec(BITS):
        g = [[table.moment(n + m) for m in range(6)] for n in range(6)]
        rhs = mat_mul(mat_mul(b, g), [list(r) for r in zip(*b)])
        eta = to_mpf(Fraction(7, 10))
        for n in range(6):
            for m in range(6):
                assert abs(table.moment(n + m + 1) - eta * rhs[n][m]) < mpf(2) ** -(
                    BITS - 60
                ) * abs(table.moment(n + m + 1))


def test_gram_pearson_scalar_window(ctx, tol):
    # the (0,0) entry says sum_p theta_p rho_p = sum_q sigma_q rho_q
    from semidop import pearson_polynomials

    table = MomentTable(GEN_MEIXNER, 12, ctx)
    pp = pearson_polynomials(GEN_MEIXNER)
    with workprec(BITS):
        lhs = sum(to_mpf(c) * table.moment(p) for p, c in enumerate(pp.theta_coeffs))
        rhs = sum(to_mpf(c) * table.moment(q) for q, c in enumerate(pp.sigma_coeffs))
        assert abs(lhs - rhs) < mpf(2) ** -(BITS - 40) * abs(lhs)


def test_gram_pearson_rejects_deformed(ctx, tol):
    from conftest import DEFORMED
    from semidop import PreconditionError
    from semidop.pipeline import get_pipeline

    with pytest.raises(PreconditionError):
        gram_pearson_residual(get_pipeline(DEFORMED, 4, ctx), tol)


def test_gram_pearson_window_reads_inside_rho_2k(tol):
    # theta of degree N + 1 = 3 times G reads rho_{n+m+3}: the 8 x 8 window
    # of a size-8 table would read rho_17, so one row and column are trimmed
    from semidop import PreconditionError

    w = parse_weight_spec("a=3/2,1; b=5/2,7/2; eta=1/3")
    res = gram_pearson_residual(get_pipeline(w, 8, PrecisionContext(mantissa_bits=512)), tol)
    assert res.passed
    assert res.window.startswith("leading 7x7 window")
    assert set(res.components) == {f"G[{n},{m}]" for n in range(7) for m in range(n + 1)}
    # degrees up to 2 (N <= 1, M <= 2) keep the whole window; M = 3 trims one
    for spec, win in (
        ("eta=7/10", 8),
        ("a=3/2; b=5/2; eta=1/3", 8),
        ("a=1/2,3/2; eta=1/3", 8),
        ("a=1/2,3/2,5/2; eta=1/3", 7),
    ):
        assert gram_pearson_window(parse_weight_spec(spec), 8) == win
    # N = 6 trims three rows and columns: at size 3 the window is empty and
    # the declaration refuses it
    wide = parse_weight_spec("b=3/2,5/2,7/2,9/2,11/2,13/2; eta=1/3")
    assert gram_pearson_window(wide, 4) == 1
    with pytest.raises(PreconditionError, match="Gram-Pearson symmetry"):
        gram_pearson_window(wide, 3)


def test_gram_pearson_all_families(ctx, tol):
    from semidop.pipeline import get_pipeline

    for w in FAMILIES.values():
        res = gram_pearson_residual(get_pipeline(w, 12, ctx), tol)
        assert res.passed, w.spec_string()


def test_psi_structure_and_diagonals(ctx, tol, gen_meixner_pipe):
    res = gen_meixner_pipe.psi_check(tol)
    assert res.passed
    psi = gen_meixner_pipe.psi
    window = psi_window(GEN_MEIXNER, gen_meixner_pipe.jac.size)
    with workprec(BITS):
        # M = 1 subdiagonal and N+1 = 2 superdiagonals; the next ones are round-off
        scale = max(abs(x) for row in psi[:window] for x in row[:window])
        for d in (-1, 2):
            assert min(abs(x) for x in diagonal_of(psi, d)[: window - abs(d)]) > scale * 2**-64
        for d in (-2, 3):
            assert max(abs(x) for x in diagonal_of(psi, d)[: window - abs(d)]) < scale * 2**-(BITS - 64)
    res2 = psi_extreme_diagonals(gen_meixner_pipe, tol)
    assert res2.passed, res2.components


def test_psi_is_the_reference_route_bit_for_bit(gen_meixner_pipe):
    # M = N = 1, outside the golden Charlier report: the cached matrix is
    # route 1 of the six-route check and sigma(J) H Pi^T in that order
    pipe = gen_meixner_pipe
    routes = psi_routes(pipe, psi_window(GEN_MEIXNER, pipe.k))
    assert pipe.psi == routes[ROUTE_NAMES[1]]
    kj = pipe.jac.size
    with workprec(BITS):
        sigma_j = poly_of_matrix(pearson_polynomials(GEN_MEIXNER).sigma_coeffs, pipe.jac.dense)
        h = diag(pipe.chol.h[:kj])
        pi_t = transpose([row[:kj] for row in pipe.pi[:kj]])
        assert pipe.psi == mat_mul(sigma_j, mat_mul(h, pi_t))


def test_psi_window_trims_the_band(ctx):
    from semidop import PreconditionError

    assert psi_window(GEN_MEIXNER, 12) == 8
    assert psi_window(CHARLIER, 4) == 2
    with pytest.raises(PreconditionError, match=r"structure check \(window 1\)"):
        psi_window(GEN_MEIXNER, 5)


def test_psi_charlier_diagonal_closed_forms(ctx, tol, charlier_pipe):
    assert charlier_pipe.psi_check(tol).passed
    window = psi_window(CHARLIER, charlier_pipe.jac.size)
    with workprec(BITS):
        eta = to_mpf(Fraction(7, 10))
        d0 = diagonal_of(charlier_pipe.psi, 0)
        d1 = diagonal_of(charlier_pipe.psi, 1)
        for n in range(window - 1):
            assert abs(d0[n] - eta * charlier_pipe.chol.h[n]) < mpf(2) ** -(BITS - 60) * abs(d0[n])
            # psi^(1)_n = H_n gamma_{n+1} = H_{n+1}
            assert abs(d1[n] - charlier_pipe.chol.h[n + 1]) < mpf(2) ** -(BITS - 60) * abs(d1[n])


def test_structure_shift_equations(ctx, tol, gen_meixner_pipe):
    res = structure_shift_residual(
        gen_meixner_pipe, [Fraction(0), Fraction(1), Fraction(7, 5)], tol
    )
    assert res.passed, res.components


def test_structure_shift_at_zero_annihilates(ctx, tol, charlier_pipe):
    # theta(0) = 0 forces Psi H^{-1} P(0) ~ 0
    dense = charlier_pipe.psi
    window = psi_window(CHARLIER, charlier_pipe.jac.size)
    with workprec(BITS):
        kj = charlier_pipe.jac.size
        p0 = polynomial_vector(charlier_pipe.jac, mpf(0), kj)
        scaled = [p0[i] / charlier_pipe.chol.h[i] for i in range(kj)]
        out = mat_vec(dense, scaled)
        scale = max(abs(x) for x in p0)
        for i in range(window):
            assert abs(out[i]) < mpf(2) ** -(BITS - 80) * scale


def test_psi_jacobi_identities(ctx, tol):
    from semidop.pipeline import get_pipeline

    for spec in ("eta=7/10", "b=2; eta=1/4"):
        from semidop import parse_weight_spec

        pipe = get_pipeline(parse_weight_spec(spec), 12, ctx)
        res = psi_jacobi_identities(pipe, tol)
        assert res.passed, (spec, res.components)


def test_structure_cholesky_identities(ctx, tol, gen_meixner_pipe):
    res = structure_cholesky_check(gen_meixner_pipe, tol)
    assert res.passed, res.components


def test_structure_cholesky_charlier_sigma_factor_trivial(ctx, tol, charlier_pipe):
    # with constant sigma the second factor is the identity, so the dressed
    # Pascal matrix coincides with the inverse of the first factor
    res = structure_cholesky_check(charlier_pipe, tol)
    assert res.passed, res.components


def test_window_monotonicity(ctx, tol):
    # enlarging the truncation with the comparison window held fixed must not
    # grow the interior residual: edge effects stay confined to trimmed rows
    from semidop.linalg import window_diff
    from semidop.pipeline import get_pipeline

    small = get_pipeline(GEN_MEIXNER, 8, ctx)
    large = get_pipeline(GEN_MEIXNER, 12, ctx)
    window = 8 - 4  # interior window of the small truncation
    with workprec(BITS):
        res = []
        for pipe in (small, large):
            routes = psi_routes(pipe, window)
            diff, scale = window_diff(routes[ROUTE_NAMES[0]], routes[ROUTE_NAMES[1]], window)
            res.append(diff / scale)
        assert res[1] <= res[0] * 4  # no growth beyond round-off wiggle


def test_polynomial_shift_identity(ctx, tol, meixner_pipe):
    res = polynomial_shift_identity(meixner_pipe, (Fraction(1),), tol)
    assert res.passed and res.max_residual == 0
    assert res.name == "poly_shift_constant"
    for coeffs, name in (
        ((Fraction(0), Fraction(1)), "poly_shift_linear"),
        ((Fraction(0), Fraction(0), Fraction(1)), "poly_shift_quadratic"),
    ):
        res = polynomial_shift_identity(meixner_pipe, coeffs, tol)
        assert res.passed and res.name == name
