"""Acceptance suite: every criterion at its stated precision and tolerance.

Defaults: 512-bit mantissa, relative tolerance 2^-128, sizes as stated per
criterion. One pass/fail line is printed per criterion (run with -s to see
them). Oracles are exact-rational and independent of the mpf pipeline.
"""

from fractions import Fraction

from mpmath import mpf, workprec

from semidop import PrecisionContext, Shift, parse_weight_spec
from semidop.integrable import (
    contiguous_check,
    kp_check,
    nijhoff_capel_check,
    pearson_toda_check,
    sato_wilson_check,
    tau_route_check,
    toda_check,
)
from semidop.flows import (
    FD_HALVINGS,
    derivative_fd_crosscheck,
    fd_convergence_study,
    flow_scaled_weight,
)
from semidop.moments import decimal_str
from semidop.pipeline import get_pipeline
from semidop.report import _z_samples, SuiteConfig
from semidop.structure import (
    pi_closed_form_check,
    psi_extreme_diagonals,
    psi_jacobi_identities,
    s_inverse_expansion_check,
    structure_cholesky_check,
    structure_shift_residual,
    gram_pearson_residual,
)
from semidop.weights import to_mpf

from oracles import charlier_reduced_moments, meixner_reduced_moments, recurrence_from_moments

BITS = 512
CTX = PrecisionContext(mantissa_bits=BITS)
TOL = CTX.default_tolerance()  # 2^-128

FOUR_FAMILIES = {
    "charlier": parse_weight_spec("eta=7/10"),
    "meixner": parse_weight_spec("a=2; eta=1/2"),
    "gen_charlier": parse_weight_spec("b=3/2; eta=1/2"),
    "gen_meixner": parse_weight_spec("a=3/2; b=5/2; eta=1/3"),
}
DEFORMED = parse_weight_spec("eta=1/2; eta2=9/10; eta3=9/10")


def report(num: int, ok: bool, desc: str) -> None:
    print(f"acceptance {num:02d}: {'PASS' if ok else 'FAIL'} - {desc}")
    assert ok, f"criterion {num} failed: {desc}"


def test_criterion_01_charlier_recurrence_oracle():
    ok = True
    for eta in (Fraction(3, 10), Fraction(7, 10), Fraction(1)):
        reduced = charlier_reduced_moments(eta, 36)
        beta_o, gamma_o, _ = recurrence_from_moments(reduced, 18)
        # the exact elimination reproduces the closed forms exactly
        assert all(beta_o[n] == n + eta for n in range(17))
        assert all(gamma_o[n - 1] == n * eta for n in range(1, 17))
        pipe = get_pipeline(parse_weight_spec(f"eta={eta}"), 17, CTX)
        with workprec(BITS):
            bound = mpf(2) ** -200
            for n in range(17):
                ref = to_mpf(beta_o[n])
                ok = ok and abs(pipe.jac.beta[n] - ref) <= bound * max(1, abs(ref))
            for n in range(1, 17):
                ref = to_mpf(gamma_o[n - 1])
                ok = ok and abs(pipe.gamma(n) - ref) <= bound * ref
    report(1, ok, "Charlier recurrence data vs exact-rational oracle at 2^-200")


def test_criterion_02_meixner_recurrence_oracle():
    ok = True
    for a in (Fraction(2), Fraction(3, 2)):
        for eta in (Fraction(1, 3), Fraction(1, 2)):
            reduced = meixner_reduced_moments(a, eta, 28)
            beta_o, gamma_o, _ = recurrence_from_moments(reduced, 14)
            for n in range(13):
                assert beta_o[n] == (n + (n + a) * eta) / (1 - eta)
            for n in range(1, 13):
                assert gamma_o[n - 1] == n * (n + a - 1) * eta / (1 - eta) ** 2
            pipe = get_pipeline(parse_weight_spec(f"a={a}; eta={eta}"), 13, CTX)
            with workprec(BITS):
                bound = mpf(2) ** -200
                for n in range(13):
                    ref = to_mpf(beta_o[n])
                    ok = ok and abs(pipe.jac.beta[n] - ref) <= bound * max(1, abs(ref))
                for n in range(1, 13):
                    ref = to_mpf(gamma_o[n - 1])
                    ok = ok and abs(pipe.gamma(n) - ref) <= bound * ref
    report(2, ok, "Meixner recurrence data vs exact-rational oracle at 2^-200")


def test_criterion_03_gram_pearson_symmetry():
    ok = True
    for w in FOUR_FAMILIES.values():
        pipe = get_pipeline(w, 12, CTX)
        res = gram_pearson_residual(pipe, TOL)
        ok = ok and res.passed
    report(3, ok, "moment-matrix Pearson symmetry, four families, k=12")


def test_criterion_04_structure_matrix():
    cfg = SuiteConfig(weight=FOUR_FAMILIES["charlier"], size=14, mantissa_bits=BITS)
    zs = _z_samples(cfg, 10)
    ok = True
    for w in FOUR_FAMILIES.values():
        pipe = get_pipeline(w, 14, CTX)
        routes = pipe.psi_check(TOL)
        diag = psi_extreme_diagonals(pipe, TOL)
        shift = structure_shift_residual(pipe, zs, TOL)
        ok = ok and routes.passed and diag.passed and shift.passed
    report(4, ok, "six structure-matrix routes, band, extreme diagonals, shift equations, k=14")


def test_criterion_05_pascal_forms_and_inverse_expansion():
    ok = True
    for w in FOUR_FAMILIES.values():
        pipe = get_pipeline(w, 12, CTX)
        res1 = pi_closed_form_check(pipe, TOL)
        res2 = s_inverse_expansion_check(pipe, TOL)
        ok = ok and res1.passed and res2.passed
    report(5, ok, "dressed-Pascal closed forms and inverse-factor expansion, k=12")


def test_criterion_06_compatibility_and_products():
    ok = True
    for w in FOUR_FAMILIES.values():
        pipe = get_pipeline(w, 14, CTX)
        res = psi_jacobi_identities(pipe, TOL)
        ok = ok and res.passed
    report(6, ok, "compatibility commutators and product factorizations, k=14")


def test_criterion_07_contiguous_relations():
    ok = True
    for w in FOUR_FAMILIES.values():
        pipe = get_pipeline(w, 10, CTX)
        res = contiguous_check(pipe, TOL)
        ok = ok and res.passed
    report(7, ok, "contiguous-parameter relations, all valid shifts, k=10")


def test_criterion_08_lattice_equation():
    gm = get_pipeline(FOUR_FAMILIES["gen_meixner"], 10, CTX)
    res1 = nijhoff_capel_check(gm, Shift.a(1), Shift.b(1), [1, 2, 3, 4, 5, 6], TOL)
    two_a = get_pipeline(parse_weight_spec("a=1,2; b=3; eta=1/4"), 10, CTX)
    res2 = nijhoff_capel_check(two_a, Shift.a(1), Shift.a(2), [1, 2, 3, 4, 5, 6], TOL)
    report(8, res1.passed and res2.passed, "octahedral lattice equation, n=1..6, both weights")


def test_criterion_09_toda_stack():
    ok = True
    for name in ("charlier", "gen_meixner"):
        pipe = get_pipeline(FOUR_FAMILIES[name], 10, CTX)
        ok = ok and tau_route_check(pipe, 8, TOL).passed
        ok = ok and toda_check(pipe, 8, [Fraction(1, 2)], TOL).passed
    for name in ("charlier", "gen_meixner"):
        pipe = get_pipeline(FOUR_FAMILIES[name], 12, CTX)
        res = structure_cholesky_check(pipe, TOL)
        ok = ok and res.passed
    report(9, ok, "tau-function cross-checks, first-flow system, bilinear form, structure factorizations")


def test_criterion_10_flow_equations_with_fd_convergence():
    ok = True
    for w, flows in ((FOUR_FAMILIES["charlier"], (1,)), (DEFORMED, (1, 2))):
        pipe = get_pipeline(w, 8, CTX)
        res = sato_wilson_check(pipe, TOL)
        ok = ok and res.passed
        for l in (1, 2):
            # the dressing factor from the exact flow jet reads rounding
            ok = ok and mpf(res.components[f"phi_{l}"]) <= mpf(2) ** -400
        for l in flows:
            # the moment witness of the index shift converges at second order:
            # rho_0 .. rho_{16-l} of the witnesses against rho_l .. rho_16
            def residual(step, l=l):
                def moments(mult):
                    return get_pipeline(flow_scaled_weight(w, l, mult), 8, CTX).table.values[: 17 - l]

                return derivative_fd_crosscheck(moments, pipe.table.values[l:], step, BITS)

            steps = fd_convergence_study(residual, BITS)
            ok = ok and len(steps) == FD_HALVINGS + 1
            # the suite's row is the study's first step
            ok = ok and res.components[f"moment_flow_{l}"] == decimal_str(steps[0], 64)
            for a, b in zip(steps, steps[1:]):
                ok = ok and (b <= mpf("0.3") * a or b < mpf(10) ** -100)
    report(10, ok, "dressing/Lax/zero-curvature equations; FD witness second-order over 3 halvings")


def test_criterion_11_pearson_flow_compatibility():
    ok = True
    for name in ("charlier", "gen_meixner"):
        pipe = get_pipeline(FOUR_FAMILIES[name], 12, CTX)
        res = pearson_toda_check(pipe, TOL)
        ok = ok and res.passed
        # judged at the tolerance itself; the exact flow jet reads rounding
        ok = ok and res.max_residual <= mpf(2) ** -400
    report(11, ok, "Pearson/first-flow compatibility, all four equations, at the tolerance")


def test_criterion_12_kp_relation():
    pipe = get_pipeline(DEFORMED, 6, CTX)
    res = kp_check(pipe, [1, 2, 3, 4], TOL)
    doubled = get_pipeline(DEFORMED, 6, PrecisionContext(mantissa_bits=CTX.verify_bits))
    res2 = kp_check(doubled, [1, 2, 3, 4], TOL)
    with workprec(BITS):
        stable = abs(res.max_residual - res2.max_residual) <= mpf(2) ** -64
    report(12, res.passed and res2.passed and stable,
           "KP relation for the deformed weight, n=1..4, stable under mantissa doubling")
