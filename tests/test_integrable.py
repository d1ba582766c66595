from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import inf, isnan, mp, mpf, nan, workprec

from semidop import (
    HypergeometricWeight,
    InvalidShift,
    MomentTable,
    PrecisionContext,
    PreconditionError,
    Shift,
    cholesky,
    parse_weight_spec,
)
from semidop import flows
from semidop.flows import log_tau_jet
from semidop.integrable import (
    contiguous_check,
    fd_feasible_flows,
    kp_check,
    nijhoff_capel_check,
    omega_connection_check,
    pearson_toda_check,
    sato_wilson_check,
    tau_route_check,
    toda_check,
    uv_system_check,
    valid_single_shifts,
)
from semidop import integrable as integrable_module
from semidop import linalg as linalg_module
from semidop import moments as moments_module
from semidop import structure
from semidop.linalg import ldl_no_pivot
from semidop.moments import ldl_pivot_floor
from semidop.pipeline import WeightPipeline, clear_cache, get_pipeline
from semidop.report import SuiteConfig, run_suite
from semidop.weights import to_mpf

from conftest import BITS, CHARLIER, DEFORMED, FAMILIES, GEN_MEIXNER
from test_moments import CONTRACT_MIX


def test_contiguous_meixner_entry_zero(ctx):
    # at a = 1, eta = 1/2: rho_1 + rho_0 = rho_0 at the raised parameter,
    # i.e. 2 + 2 = 4, both sides from closed forms of the geometric family
    w = parse_weight_spec("a=1; eta=1/2")
    table = MomentTable(w, 4, ctx)
    shifted = MomentTable(parse_weight_spec("a=2; eta=1/2"), 4, ctx)
    with workprec(BITS):
        lhs = table.moment(1) + table.moment(0)
        assert abs(lhs - 4) < mpf(2) ** -(BITS - 40)
        assert abs(lhs - shifted.moment(0)) < mpf(2) ** -(BITS - 40)


def test_contiguous_total_shift_entry(ctx, tol):
    # the (0,0) window entry of the total-shift relation: rho_1 = eta kappa (TG)_00
    w = GEN_MEIXNER
    table = MomentTable(w, 4, ctx)
    total = parse_weight_spec("a=5/2; b=7/2; eta=1/3")
    shifted = MomentTable(total, 4, ctx)
    with workprec(BITS):
        kappa = to_mpf(Fraction(3, 2) / Fraction(5, 2))
        lhs = table.moment(1)
        rhs = to_mpf(Fraction(1, 3)) * kappa * shifted.moment(0)
        assert abs(lhs - rhs) < mpf(2) ** -(BITS - 40) * abs(lhs)


def test_contiguous_all_families(ctx, tol):
    for w in FAMILIES.values():
        pipe = get_pipeline(w, 10, ctx)
        res = contiguous_check(pipe, tol)
        assert res.passed, (w.spec_string(), res.components)


def test_omega_connection(ctx, tol, gen_meixner_pipe):
    for sh in valid_single_shifts(gen_meixner_pipe.weight):
        res = omega_connection_check(
            gen_meixner_pipe, sh, [Fraction(1, 2), Fraction(2)], tol
        )
        assert res.passed, (sh.label(), res.components)


def test_omega_zero_constant_rejected(ctx, tol):
    # shifting b = 1 gives constant b - 1 = 0, which the connection rejects
    w = parse_weight_spec("b=1; eta=1/2")
    pipe = get_pipeline(w, 6, ctx)
    with pytest.raises(InvalidShift):
        omega_connection_check(pipe, Shift.b(1), [Fraction(1)], tol)


def test_nijhoff_capel_gen_meixner(ctx, tol, gen_meixner_pipe):
    res = nijhoff_capel_check(
        gen_meixner_pipe, Shift.a(1), Shift.b(1), [1, 2, 3, 4, 5, 6], tol
    )
    assert res.passed, res.components


def test_nijhoff_capel_two_a_weight(ctx, tol):
    pipe = get_pipeline(parse_weight_spec("a=1,2; b=3; eta=1/4"), 10, ctx)
    res = nijhoff_capel_check(pipe, Shift.a(1), Shift.a(2), [1, 2, 3, 4, 5, 6], tol)
    assert res.passed, res.components


def test_nijhoff_capel_nondegenerate_mixed_directions(ctx, tol):
    # with b != a+1 the two shifted weights are genuinely different, so the
    # lattice equation is verified with nonzero ingredients on both sides
    pipe = get_pipeline(parse_weight_spec("a=3/2; b=7/2; eta=1/3"), 10, ctx)
    res = nijhoff_capel_check(pipe, Shift.a(1), Shift.b(1), [1, 2, 3, 4], tol)
    assert res.passed, res.components
    assert res.max_residual > 0


def test_nijhoff_capel_rejects_equal_directions(ctx, tol, gen_meixner_pipe):
    with pytest.raises(InvalidShift):
        nijhoff_capel_check(gen_meixner_pipe, Shift.a(1), Shift.a(1), [1], tol)


def test_uv_system(ctx, tol, gen_meixner_pipe):
    res = uv_system_check(gen_meixner_pipe, Shift.a(1), [1, 2, 3, 4], tol)
    assert res.passed, res.components
    # the engine's ratio derivative agrees with the flow jets' to rounding
    witness = [mpf(v) for k, v in res.components.items() if k.startswith("ratio_witness[")]
    assert len(witness) == 4 and max(witness) < mpf(2) ** -(BITS - 64)


def test_uv_boundary_identity(ctx, gen_meixner_pipe):
    # v-hat_1 (u-hat_1/u_1) = v_1 (u-hat_1/u_1) + u-bar_1/u_1
    rp = gen_meixner_pipe.shifted(Shift.a(1))
    with workprec(BITS):
        a_hat = to_mpf(Fraction(3, 2))
        h = gen_meixner_pipe.chol.h
        hr = rp.chol.h
        lhs = rp.jac.beta[0] * (a_hat * hr[0] / h[0])
        rhs = gen_meixner_pipe.jac.beta[0] * (a_hat * hr[0] / h[0]) + h[1] / h[0]
        assert abs(lhs - rhs) < mpf(2) ** -(BITS - 60) * abs(lhs)


def test_tau_routes(ctx, tol):
    for spec in ("eta=7/10", "b=3/2; eta=1/2"):
        pipe = get_pipeline(parse_weight_spec(spec), 10, ctx)
        res = tau_route_check(pipe, 8, tol)
        assert res.passed, (spec, res.components)


@pytest.mark.parametrize(("spec", "size"), CONTRACT_MIX, ids=[spec for spec, _ in CONTRACT_MIX])
def test_tau_routes_stay_independent(spec, size):
    # the norms H come from the LDL and the taus from the determinant
    # engine's LU: one exact-sum kernel, two eliminations. A row that reads
    # exactly 0 would mean the routes merged. At n = 1 each route rounds one
    # update of rho_2, which agree to the last bit at 512 bits
    clear_cache()
    cfg = SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512, checks=("tau_routes",))
    (res,) = run_suite(cfg).checks
    clear_cache()
    assert res.max_residual > 0
    ratios = {k: mpf(v) for k, v in res.components.items() if k.startswith("norm_ratio")}
    assert len(ratios) == min(8, size - 1)
    assert all(v > 0 for k, v in ratios.items() if k != "norm_ratio[1]"), ratios


def test_tau_routes_trivial_base(ctx):
    from semidop import tau_derivative

    table = MomentTable(CHARLIER, 10, ctx)
    assert tau_derivative(table, 0, (1, 0, 0)) == 0
    jet = log_tau_jet(table, 0, [(1, 0, 0)])
    assert jet[(1, 0, 0)] == 0


def test_toda_closed_form_charlier(ctx, charlier_pipe):
    # d/dt log gamma_1 = 1 = beta_1 - beta_0, engine value on the left
    table = charlier_pipe.table
    with workprec(BITS):
        jets = [log_tau_jet(table, n, [(1, 0, 0)]) for n in range(3)]
        dlog_gamma1 = jets[2][(1, 0, 0)] + jets[0][(1, 0, 0)] - 2 * jets[1][(1, 0, 0)]
        assert abs(dlog_gamma1 - 1) < mpf(2) ** -(BITS - 60)
        # n = 0 system line: d/dt beta_0 = gamma_1
        jets2 = [log_tau_jet(table, n, [(2, 0, 0)]) for n in range(2)]
        dbeta0 = jets2[1][(2, 0, 0)] - jets2[0][(2, 0, 0)]
        assert abs(dbeta0 - charlier_pipe.gamma(1)) < mpf(2) ** -(BITS - 60)


def test_toda_all_families(ctx, tol):
    for spec in ("eta=7/10", "a=3/2; b=5/2; eta=1/3"):
        pipe = get_pipeline(parse_weight_spec(spec), 10, ctx)
        res = toda_check(pipe, 6, [Fraction(1, 2)], tol)
        assert res.passed, (spec, res.components)


def test_sato_wilson_engine_and_fd(ctx, tol, deformed_pipe):
    res = sato_wilson_check(deformed_pipe, tol)
    assert res.passed, res.components
    # the dressing factor from the flow jet reads rounding; the moment witness
    # of each flow, one central difference, its step^2 truncation error
    step = to_mpf(flows.default_fd_step(BITS))
    for flow in (1, 2):
        assert mpf(res.components[f"phi_{flow}"]) < mpf(2) ** -(BITS - 64)
        assert 0 < mpf(res.components[f"moment_flow_{flow}"]) < 100 * step**2


def test_sato_wilson_j_squared_diagonal(ctx, deformed_pipe):
    # (J^2)_nn = beta_n^2 + gamma_n + gamma_{n+1}
    from semidop.linalg import mat_mul

    jac = deformed_pipe.jac
    with workprec(BITS):
        j = jac.dense
        j2 = mat_mul(j, j)
        for n in range(1, jac.size - 1):
            expect = jac.beta[n] ** 2 + deformed_pipe.gamma(n) + deformed_pipe.gamma(n + 1)
            assert abs(j2[n][n] - expect) < mpf(2) ** -(BITS - 60) * abs(expect)


def test_fd_feasible_flows(ctx, deformed_pipe, charlier_pipe):
    assert fd_feasible_flows(deformed_pipe) == (1, 2)
    assert fd_feasible_flows(charlier_pipe) == (1,)
    # eta2 = 1 - 2^-200 is inside the unit disk, but eta2 (1 + 2^-(bits/4))
    # is not a weight: flow 2 has no witness, while flow 1 has
    w = parse_weight_spec(f"eta=1/2; eta2={2**200 - 1}/{2**200}")
    for bits in (256, 512):
        pipe = get_pipeline(w, 8, PrecisionContext(mantissa_bits=bits))
        assert fd_feasible_flows(pipe) == (1,)


def test_sato_wilson_undeformed_engine_flows(ctx, tol, charlier_pipe):
    # flow-2 engine and jet identities hold at unit deformation; only the
    # moment witness, which perturbs eta2, is skipped
    res = sato_wilson_check(charlier_pipe, tol)
    assert res.passed
    assert "phi_1" in res.components and "phi_2" in res.components
    assert "moment_flow_1" in res.components and "moment_flow_2" not in res.components
    assert "lax_2" in res.components and "zero_curvature_12" in res.components


def test_pearson_toda(ctx, tol):
    for spec in ("eta=7/10", "a=3/2; b=5/2; eta=1/3"):
        pipe = get_pipeline(parse_weight_spec(spec), 12, ctx)
        res = pearson_toda_check(pipe, tol)
        assert res.passed, (spec, res.components)
        gap = abs(float(res.components["compat_1a"]) - float(res.components["compat_1b"]))
        assert gap <= float(to_mpf(tol))


def test_pearson_toda_rejects_deformed(ctx, tol, deformed_pipe):
    with pytest.raises(PreconditionError):
        pearson_toda_check(deformed_pipe, tol)


def test_kp_trivial_and_deformed(ctx, tol, deformed_pipe):
    res = kp_check(deformed_pipe, [0], tol)
    assert res.passed and res.max_residual == 0
    res = kp_check(deformed_pipe, [1, 2], tol)
    assert res.passed, res.components


def test_kp_rejects_undeformed(ctx, tol, charlier_pipe):
    with pytest.raises(PreconditionError):
        kp_check(charlier_pipe, [1], tol)


# -- a nan residual fails wherever a check takes its maximum -------------------


# -- leading blocks: smaller factorizations, jets and windows -------------------

positive_params = st.fractions(min_value=Fraction(1, 8), max_value=4, max_denominator=8)


@st.composite
def positive_weights(draw):
    """An undeformed weight positive at every point, M, N <= 2, eta < 1 where M = N + 1."""
    b = tuple(draw(st.lists(positive_params, max_size=2)))
    a = tuple(draw(st.lists(positive_params, max_size=min(2, len(b) + 1))))
    top = 4 if len(a) <= len(b) else Fraction(7, 8)
    eta = draw(st.fractions(min_value=Fraction(1, 16), max_value=top, max_denominator=16))
    return HypergeometricWeight(a=a, b=b, eta=eta)


def _block_bits(rows, m: int) -> list:
    return [[x._mpf_ for x in row[:m]] for row in rows[:m]]


@settings(max_examples=25, deadline=None)
@given(w=positive_weights(), k=st.integers(2, 12), data=st.data())
def test_leading_blocks_of_a_factorization_are_the_smaller_one(w, k, data):
    # what the jet cache rests on: the unpivoted LDL of a leading block of a
    # Hankel matrix is the leading block of the full LDL, and S = L^-1 by
    # forward substitution, bit for bit
    m = data.draw(st.integers(1, k - 1))
    table = MomentTable(w, 2 * k - 2, PrecisionContext(mantissa_bits=512))
    full, lead = cholesky(table, k), cholesky(table, m)
    assert _block_bits(lead.s, m) == _block_bits(full.s, m)
    assert _block_bits(lead.s_inv, m) == _block_bits(full.s_inv, m)
    assert [x._mpf_ for x in lead.h] == [x._mpf_ for x in full.h[:m]]


@settings(max_examples=15, deadline=None)
@given(w=positive_weights(), data=st.data())
def test_psi_h_inverse_on_the_compatibility_window_reads_two_rows_less(w, data):
    # pearson_toda's derivatives are built on a smaller block than kj: on
    # its window, Psi H^-1 and Psi^T H^-1 of size kj - 2 are those of size
    # kj, bit for bit
    kj = data.draw(st.integers(w.m_degree + w.n_degree + 5, 12))
    win = structure.compatibility_window(w, kj)
    ctx = PrecisionContext(mantissa_bits=512)
    full, small = WeightPipeline(w, kj, ctx), WeightPipeline(w, kj - 2, ctx)
    for a, b in zip(full.psi_h_inv, small.psi_h_inv):
        assert _block_bits(a, win) == _block_bits(b, win)


def _nan_in_shifted_table(pipe, tol, monkeypatch):
    # the A(1)-shifted moments are read only by the single-shift block
    pipe.shifted(Shift.a(1)).table.values[0] = nan
    return contiguous_check(pipe, tol)


def _nan_in_s_for_j_conjugation(pipe, tol, monkeypatch):
    # S[k-2][0] reaches only the direct route S Lambda S^-1 inside J's window
    chol = pipe.chol
    chol.s[chol.size - 2][0] = nan
    res = structure.coefficient_sum_check(pipe, tol)
    assert isnan(res.max_residual) and res.components["j_conjugation"] == "nan"
    return res


def _nan_in_last_norm_for_omega(pipe, tol, monkeypatch):
    # once both J are built, H_k is read only by the subdiagonal closed form
    assert pipe.jac and pipe.shifted(Shift.a(1)).jac
    pipe.chol.h[pipe.k] = nan
    return omega_connection_check(pipe, Shift.a(1), [Fraction(1, 2)], tol)


def _minus_inf_in_last_norm_for_omega(pipe, tol, monkeypatch):
    # -inf, what mp.log(0) returns, in the same norm: the closed form's row
    # reads nan
    assert pipe.jac and pipe.shifted(Shift.a(1)).jac
    pipe.chol.h[pipe.k] = -inf
    res = omega_connection_check(pipe, Shift.a(1), [Fraction(1, 2)], tol)
    assert res.components["subdiagonal_closed_form"] == "nan", res.components
    return res


def _nan_in_s_inverse_for_sato_wilson(pipe, tol, monkeypatch):
    # dS^-1 = dL of the flow-1 jet is read only by the dressing factor
    # phi = -S dL; row kj - 2 lies inside its window
    pipe.flow_jet(1).ds_inv[pipe.k - 2][0] = nan
    return sato_wilson_check(pipe, tol)


def _nan_in_theta_factor_band(pipe, tol, monkeypatch):
    # l_10 lies in the theta factor's band, inside both factorization
    # windows; a nan there reaches the dressed Pascal and structure-matrix
    # factorizations, and no other row
    real = structure.ldl_no_pivot
    calls = []

    def planted(a, floor):
        l, d = real(a, floor)
        if not calls:
            l[1][0] = nan
        calls.append(a)
        return l, d

    monkeypatch.setattr(structure, "ldl_no_pivot", planted)
    res = structure.structure_cholesky_check(pipe, tol)
    nans = sorted(k for k, v in res.components.items() if v == "nan")
    assert nans == ["pascal_factorization", "psi_factorization"], res.components
    return res


@pytest.fixture
def fresh_pipelines():
    # planted nans must not reach the cached pipelines of other tests
    clear_cache()
    yield
    clear_cache()


@pytest.mark.parametrize(
    "plant",
    [
        _nan_in_shifted_table,
        _nan_in_s_for_j_conjugation,
        _nan_in_last_norm_for_omega,
        _minus_inf_in_last_norm_for_omega,
        _nan_in_s_inverse_for_sato_wilson,
        _nan_in_theta_factor_band,
    ],
)
def test_planted_nan_fails(plant, ctx, tol, fresh_pipelines, monkeypatch):
    # each plant, a nan or an infinity, is read by rewritten maxima only: the
    # theta factor's by two rows, each other plant by one
    res = plant(get_pipeline(GEN_MEIXNER, 8, ctx), tol, monkeypatch)
    assert not res.passed, res.components


@settings(max_examples=10, deadline=None)
@given(w=positive_weights(), data=st.data())
def test_flow_jet_leading_blocks_are_the_smaller_jet(w, data):
    # one jet per (flow, order) serves every size up to its own: the Taylor
    # elimination of a leading block reads only that block
    k = data.draw(st.integers(3, 8))
    m = data.draw(st.integers(1, k - 1))
    l, order = data.draw(st.sampled_from([(1, 1), (2, 1), (1, 2), (2, 2)]))
    ctx = PrecisionContext(mantissa_bits=512)
    pipe = WeightPipeline(w, k, ctx)
    small = pipe.flow_jet(l, order, m)
    size = (pipe.depth - order * l) // 2 + 1
    if size > k:
        size = k
    big = pipe.flow_jet(l, order, size)
    assert pipe.flow_jet(l, order, m) is big
    pairs = [(small.ds, big.ds), (small.ds_inv, big.ds_inv), (small.s, big.s)]
    if order == 2:
        pairs.append((small.d2s, big.d2s))
    for a, b in pairs:
        assert _block_bits(a, m) == _block_bits(b, m)
    assert [x._mpf_ for x in small.dh] == [x._mpf_ for x in big.dh[:m]]


@settings(max_examples=15, deadline=None)
@given(w=positive_weights(), data=st.data())
def test_a_seeded_flow_jet_is_the_full_taylor_elimination(w, data):
    # a flow jet reads chol's L and H as its coefficient 0; the Taylor
    # elimination of the block and its pencil from scratch, under the block's
    # own pivot floor, forms the same bits and refuses none of its pivots
    k = data.draw(st.integers(3, 8))
    l, order = data.draw(st.sampled_from([1, 2, 3])), data.draw(st.sampled_from([1, 2]))
    pipe = WeightPipeline(w, k, PrecisionContext(mantissa_bits=512))
    chol = pipe.chol
    size = data.draw(st.integers(1, min(chol.size - 1, (pipe.depth - order * l) // 2 + 1)))
    vals = pipe.table.values
    pencil = [[vals[i + q * l : i + q * l + size] for i in range(size)] for q in range(order + 1)]
    with workprec(512):
        scale = max(abs(x) for row in pencil[0] for x in row)
        full = ldl_no_pivot(pencil[0], ldl_pivot_floor(scale, 512), *pencil[1:])
        seeded = ldl_no_pivot(pencil[0], 0, *pencil[1:], seed=(chol.s_inv, chol.h))
    jet = moments_module.flow_jet(chol, l, order, size)
    assert _block_bits(full[0], size) == _block_bits(chol.s_inv, size)
    assert [_block_bits(m if isinstance(m[0], list) else [m], size) for m in seeded] == [
        _block_bits(m if isinstance(m[0], list) else [m], size) for m in full
    ]
    assert _block_bits([jet.h, jet.dh], size) == _block_bits([full[1], full[3]], size)
    assert _block_bits(jet.ds_inv, size) == _block_bits(full[2], size)


@settings(max_examples=15, deadline=None)
@given(
    w=st.sampled_from([CHARLIER, GEN_MEIXNER, DEFORMED]),
    reads=st.lists(
        st.tuples(st.integers(0, 6), st.sampled_from([(1, 0, 0), (2, 0, 0), (0, 1, 0), (1, 1, 0), (2, 0, 1)])),
        min_size=1,
        max_size=12,
    ),
)
def test_lazily_read_log_jets_are_the_requested_jets(w, reads):
    # a check forms each log-tau entry on its first read, in whatever order
    # it reads them; each has the bits of the jet requested whole, over every
    # order read at its k, from a table with no memo
    pipe = WeightPipeline(w, 8, PrecisionContext(mantissa_bits=512))
    got = [integrable_module._log_tau(pipe.table, k, alpha)._mpf_ for k, alpha in reads]
    table = MomentTable(w, pipe.depth, pipe.ctx)
    whole = {k: log_tau_jet(table, k, [a for n, a in reads if n == k]) for k, _ in reads}
    assert got == [whole[k][alpha]._mpf_ for k, alpha in reads]


def test_a_contract_pass_forms_only_what_its_rows_read(monkeypatch):
    # per pass of the contract mix: no log tau_k (no row reads one), no jet
    # entry past the ones the rows read, no call for the jet of tau_0 = 1
    # (every entry 0), no flow jet that forms its coefficient 0 again
    # rather than reading chol's L and H, and no kernel that reads a nan or
    # an infinity (each one's branch for it forms its values through _nan)
    logs, fresh, series, jet_ks, nans = [], [], [], [], []
    real_log, real_det, real_series = type(mp).log, MomentTable.det_rows, linalg_module._ldl_series
    real_jet, real_nan = integrable_module.log_tau_jet, linalg_module._nan

    def log_tau_jet(table, k, alphas):
        jet_ks.append(k)
        return real_jet(table, k, alphas)

    def det_rows(table, rows):
        if rows not in table._det_cache:
            fresh.append(rows)
        return real_det(table, rows)

    def ldl_series(coeffs, floor, seed=None):
        series.append((len(coeffs), seed is not None))
        return real_series(coeffs, floor, seed)

    monkeypatch.setattr(type(mp), "log", lambda ctx, *a, **kw: logs.append(a) or real_log(ctx, *a, **kw))
    monkeypatch.setattr(MomentTable, "det_rows", det_rows)
    monkeypatch.setattr(linalg_module, "_ldl_series", ldl_series)
    monkeypatch.setattr(integrable_module, "log_tau_jet", log_tau_jet)
    monkeypatch.setattr(linalg_module, "_nan", lambda: nans.append(1) or real_nan())
    for spec, size in CONTRACT_MIX:
        clear_cache()
        run_suite(SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512))
    clear_cache()
    assert logs == [] and nans == []
    assert jet_ks and 0 not in jet_ks
    assert len(fresh) <= 353
    jets = [seeded for count, seeded in series if count > 1]
    assert jets and all(jets)


# -- identities the report does not check: they hold by construction ----------


def raw(x) -> tuple:
    return x._mpf_


@settings(max_examples=15, deadline=None)
@given(w=positive_weights(), k=st.integers(3, 8))
def test_the_routes_meet_by_construction_below_n_2(w, k):
    # the rows tau_routes, coefficient_sums and toda do not report, bit for
    # bit: tau_0 = 1 and h_0 = rho_0 = tau_1 / tau_0 (norm_ratio[0]); d tau_0
    # = p^1_0 = 0 (subleading[0]); p^1_1 = -beta_0 = -rho_1 / rho_0 is the
    # LDL's one rounded division, which d log tau_1 repeats (subleading[1],
    # beta[0], p1[1]); and -d^2 log tau_0 = 0 = -gamma_0 (subleading_flow[0])
    pipe = WeightPipeline(w, k, PrecisionContext(mantissa_bits=512))
    with workprec(512):
        tau_jets = [flows.tau_jet(pipe.table, n, [(2, 0, 0)]) for n in range(2)]
        taus = [t[(0, 0, 0)] for t in tau_jets]
        jets = [log_tau_jet(pipe.table, n, [(2, 0, 0)]) for n in range(2)]
        chol, beta = pipe.chol, pipe.jac.beta
        assert raw(taus[0]) == raw(mpf(1))
        assert raw(chol.h[0]) == raw(taus[1] / taus[0]) == raw(pipe.table.moment(0))
        assert raw(chol.p(1, 0)) == raw(tau_jets[0][(1, 0, 0)]) == raw(mpf(0))
        assert raw(chol.p(1, 1)) == raw(-(tau_jets[1][(1, 0, 0)] / taus[1]))
        assert raw(beta[0]) == raw(jets[1][(1, 0, 0)] - jets[0][(1, 0, 0)])
        assert raw(chol.p(1, 1)) == raw(-sum(beta[:1], mpf(0)))
        assert raw(-jets[0][(2, 0, 0)]) == raw(pipe.gamma(0)) == raw(mpf(0))


@settings(max_examples=15, deadline=None)
@given(w=positive_weights(), k=st.integers(3, 10))
def test_the_toda_beta_line_is_equation_q_from_n_1(w, k):
    # gamma_n is H_n / H_{n-1} bit for bit, so for n >= 1 the system's beta
    # line d^2 log H_n = gamma_{n+1} - gamma_n has equation_q[n]'s residual,
    # at a scale max(|gamma_{n+1}|, |gamma_n|, 1) never below equation_q's
    # max(|H_{n+1} / H_n|, |H_n / H_{n-1}|): it can never be toda's worst row
    pipe = WeightPipeline(w, k, PrecisionContext(mantissa_bits=512))
    nmax = min(8, k - 2)
    with workprec(512):
        h = pipe.chol.h
        for n in range(1, nmax + 1):
            gamma_next, gamma_n = pipe.gamma(n + 1), pipe.gamma(n)
            assert raw(gamma_n) == raw(h[n] / h[n - 1])
            d2q = integrable_module._dlog_h(pipe.table, n, (2, 0, 0))
            beta_line = abs(d2q - (gamma_next - gamma_n))
            equation_q = abs(d2q - (h[n + 1] / h[n] - h[n] / h[n - 1]))
            assert raw(beta_line) == raw(equation_q)
            assert max(abs(gamma_next), abs(gamma_n), mpf(1)) >= max(abs(h[n + 1] / h[n]), abs(h[n] / h[n - 1]))


# -- mutation tests: each jet-fed row and the moment witness can fail ----------

MUTATION_CTX = PrecisionContext(mantissa_bits=512)
NUDGE = 1 + Fraction(1, 2**100)
# shift constants a_1 = 2/3 and b_1 - 1 = 2/5, neither dyadic
NON_DYADIC = parse_weight_spec("a=2/3; b=7/5; eta=3/7")


def _nudged(x):
    with workprec(MUTATION_CTX.mantissa_bits):
        return x * to_mpf(NUDGE)


def _pencil_column(monkeypatch, pipe, q, column):
    # the q-th derivative matrix of every flow-jet pencil has its entries on
    # the antidiagonal i + j = column, one moment rho_{column + q l}, nudged;
    # a jet seeds its elimination with chol's factors, so the pencil is all
    # it reads of the moments
    real = moments_module.ldl_no_pivot

    def planted(a, floor, *pencil, seed=None):
        if pencil:
            assert seed is not None
            pencil = list(pencil)
            pencil[q - 1] = [
                [_nudged(x) if i + j == column else x for j, x in enumerate(row)]
                for i, row in enumerate(pencil[q - 1])
            ]
        return real(a, floor, *pencil, seed=seed)

    monkeypatch.setattr(moments_module, "ldl_no_pivot", planted)


def _table_column(monkeypatch, pipe, m):
    pipe.table.values[m] = _nudged(pipe.table.values[m])


def _beta(monkeypatch, pipe, n):
    pipe.jac.beta[n] = _nudged(pipe.jac.beta[n])


def _norm(monkeypatch, pipe, n):
    assert pipe.jac
    pipe.chol.h[n] = _nudged(pipe.chol.h[n])


def _jacobi_diagonal(monkeypatch, pipe, n):
    # beta_n of the dense J, once the structure matrix, which reads J, is built
    assert pipe.psi_h_inv
    pipe.jac.dense[n][n] = _nudged(pipe.jac.dense[n][n])


def _pascal_entry(monkeypatch, pipe, i, j):
    pipe.pi[i][j] = _nudged(pipe.pi[i][j])


def _structure_entry(monkeypatch, pipe, i, j):
    pipe.psi[i][j] = _nudged(pipe.psi[i][j])


def _inverse_factor_entry(monkeypatch, pipe, i, j):
    pipe.chol.s_inv[i][j] = _nudged(pipe.chol.s_inv[i][j])


def _weight_value(monkeypatch, pipe, k):
    # w(k) of the Pochhammer closed form, which only the Pearson check reads
    real = structure.weight_value
    monkeypatch.setattr(structure, "weight_value", lambda w, n: _nudged(real(w, n)) if n == k else real(w, n))


def _shifted_identity(monkeypatch, pipe):
    # the I of R(J + I) and R(J - I), once Pi, which reads S, is built
    assert pipe.pi and pipe.pi_inv
    real = structure.identity
    monkeypatch.setattr(structure, "identity", lambda n: [[_nudged(x) for x in row] for row in real(n)])


def _shift_constant(monkeypatch, pipe, kind):
    # the constant of the one shift of this kind: nudging both constants of a
    # lattice pair scales both sides of the Nijhoff-Capel equation alike
    real = integrable_module._shift_constant

    def planted(p, shift):
        c = real(p, shift)
        return _nudged(c) if shift.kind == kind else c

    monkeypatch.setattr(integrable_module, "_shift_constant", planted)


def _run(check, pipe):
    tol = MUTATION_CTX.default_tolerance()
    if check == "orthogonality":
        return structure.orthogonality_check(pipe, 6, tol)
    if check == "psi_shift":
        return structure.structure_shift_residual(pipe, [Fraction(1, 2), Fraction(3)], tol)
    if check == "omega":
        return omega_connection_check(pipe, Shift.a(1), [Fraction(1, 2)], tol)
    if check == "tau_routes":
        return tau_route_check(pipe, 6, tol)
    if check == "uv_system":
        return uv_system_check(pipe, Shift.a(1), [1, 2, 3, 4], tol)
    if check == "nijhoff_capel":
        return nijhoff_capel_check(pipe, Shift.a(1), Shift.b(1), [1, 2, 3, 4], tol)
    if check == "toda":
        return toda_check(pipe, 4, [Fraction(1, 2)], tol)
    if check == "kp":
        return kp_check(pipe, [1, 2, 3, 4], tol)
    if check == "poly_shift_linear":
        return structure.polynomial_shift_identity(pipe, (Fraction(0), Fraction(1)), tol, check)
    return {
        "sato_wilson": sato_wilson_check,
        "pearson_toda": pearson_toda_check,
        "coefficient_sums": structure.coefficient_sum_check,
        "structure_cholesky": structure.structure_cholesky_check,
        "psi_jacobi": structure.psi_jacobi_identities,
        "pearson": structure.pearson_check,
        "gram_pearson": structure.gram_pearson_residual,
        "pascal_forms": structure.pi_closed_form_check,
        "s_inverse": structure.s_inverse_expansion_check,
        "psi_routes": structure.psi_structure_check,
        "psi_diagonals": structure.psi_extreme_diagonals,
        "contiguous": contiguous_check,
    }[check](pipe, tol)


@pytest.mark.parametrize(
    ("weight", "check", "row", "mutate", "arg"),
    [
        (GEN_MEIXNER, "sato_wilson", "phi_1", _pencil_column, (1, 4)),
        (GEN_MEIXNER, "sato_wilson", "phi_2", _pencil_column, (1, 6)),
        (GEN_MEIXNER, "sato_wilson", "moment_flow_1", _table_column, (5,)),
        (DEFORMED, "sato_wilson", "moment_flow_2", _table_column, (9,)),
        (GEN_MEIXNER, "toda", "poly_flow", _pencil_column, (1, 3)),
        (GEN_MEIXNER, "toda", "poly_flow", _beta, (1,)),
        (GEN_MEIXNER, "uv_system", "ratio_witness", _pencil_column, (1, 2)),
        (GEN_MEIXNER, "uv_system", "ratio_witness", _norm, (2,)),
        (GEN_MEIXNER, "pearson_toda", "compat", _pencil_column, (1, 2)),
        (CHARLIER, "pearson_toda", "compat", _norm, (1,)),
        (DEFORMED, "kp", "d22p", _pencil_column, (2, 2)),
        # product-fed rows: the nudged input enters one side of the identity
        (GEN_MEIXNER, "coefficient_sums", "j_conjugation", _jacobi_diagonal, (3,)),
        (GEN_MEIXNER, "structure_cholesky", "pascal_factorization", _pascal_entry, (2, 1)),
        (GEN_MEIXNER, "psi_jacobi", "commutator_down", _jacobi_diagonal, (1,)),
        (GEN_MEIXNER, "poly_shift_linear", "plus", _shifted_identity, ()),
        # a 2^-54 error in a shift constant passed every row before the
        # constants were rounded at the working precision
        (NON_DYADIC, "nijhoff_capel", "n=", _shift_constant, ("a",)),
        (NON_DYADIC, "uv_system", "difference_v_bar", _shift_constant, ("a",)),
        # one row of each check that had none
        (GEN_MEIXNER, "pearson", "k=", _weight_value, (7,)),
        (GEN_MEIXNER, "gram_pearson", "G[", _table_column, (4,)),
        # first_subdiag reads 0 on the pinned positive weights, and rounding
        # on a=4/3; eta=-1/3: not an identity of the kernels
        (GEN_MEIXNER, "pascal_forms", "first_subdiag[2]", _pascal_entry, (3, 2)),
        (GEN_MEIXNER, "s_inverse", "d2", _inverse_factor_entry, (4, 2)),
        (GEN_MEIXNER, "orthogonality", "norm", _norm, (3,)),
        (GEN_MEIXNER, "psi_routes", "routes", _pascal_entry, (2, 1)),
        (GEN_MEIXNER, "psi_diagonals", "low", _structure_entry, (2, 1)),
        (GEN_MEIXNER, "psi_shift", "down", _structure_entry, (1, 1)),
        (GEN_MEIXNER, "contiguous", "shift A", _table_column, (3,)),
        (GEN_MEIXNER, "omega", "subdiagonal_closed_form", _norm, (2,)),
        # tau_2 comes from a pivoted LU, h_1 from the LDL
        (GEN_MEIXNER, "tau_routes", "norm_ratio[1]", _norm, (1,)),
        # the moment witness reads the table through its last column rho_2k
        (GEN_MEIXNER, "sato_wilson", "moment_flow_1", _table_column, (16,)),
        (DEFORMED, "sato_wilson", "moment_flow_2", _table_column, (16,)),
    ],
)
def test_a_nudged_input_fails_the_row(weight, check, row, mutate, arg, fresh_pipelines, monkeypatch):
    # scaling one input of the identity by 1 + 2^-100 fails the row at the
    # suite tolerance 2^-128, where the unmutated row passes
    def worst(res):
        return max(mpf(v) for k, v in res.components.items() if k.startswith(row))

    tol = to_mpf(MUTATION_CTX.default_tolerance())
    assert worst(_run(check, get_pipeline(weight, 8, MUTATION_CTX))) <= tol
    clear_cache()
    pipe = get_pipeline(weight, 8, MUTATION_CTX)
    with monkeypatch.context() as patched:
        mutate(patched, pipe, *arg)
        res = _run(check, pipe)
    assert worst(res) > tol, res.components
    assert not res.passed
