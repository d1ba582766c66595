from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from mpmath import mp, mpf, workprec

from semidop import MomentTable, tau_derivative
from semidop.pipeline import get_pipeline
from semidop.flows import (
    FD_HALVINGS,
    apply_flow,
    default_fd_step,
    derivative_fd_crosscheck,
    eval_expr,
    fd_convergence_study,
    fd_flow_derivative,
    _log_entries,
    flow_scaled_weight,
    log_tau_jet,
    tau_expr,
    tau_jet,
)
from semidop.weights import to_mpf

from conftest import BITS, CHARLIER, DEFORMED, GEN_MEIXNER, MEIXNER


def test_apply_flow_combinatorics():
    # shifting any but the last row collides with its neighbor and vanishes
    assert apply_flow(tau_expr(3), 1) == {(0, 1, 3): 1}
    # a second-flow shift of the middle row lands past its neighbor: odd sign
    assert apply_flow(tau_expr(3), 2) == {(0, 1, 4): 1, (0, 2, 3): -1}
    # a second first-flow derivative branches
    twice = apply_flow(apply_flow(tau_expr(3), 1), 1)
    assert twice == {(0, 1, 4): 1, (0, 2, 3): 1}
    assert apply_flow(tau_expr(0), 1) == {}


def test_mixed_partials_commute_bit_for_bit(ctx):
    table = MomentTable(MEIXNER, 16, ctx)
    route_a = apply_flow(apply_flow(tau_expr(3), 1), 2)
    route_b = apply_flow(apply_flow(tau_expr(3), 2), 1)
    assert route_a == route_b
    assert eval_expr(route_a, table) == eval_expr(route_b, table)


def fresh_table(ctx, w=GEN_MEIXNER):
    """A table with nothing memoized, deep enough for tau_6 under the orders
    (3, 2, 1): rows up to 15, moments up to 20."""
    return MomentTable(w, 20, ctx)


ORDERS = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=1),
)


def _log_tau(table, k, alpha, closure):
    """d^alpha log tau_k from the jet over ``closure``; log tau_k itself,
    which the jet never forms, as mp.log of tau_k under the table's precision."""
    if alpha == (0, 0, 0):
        with workprec(table.ctx.mantissa_bits):
            return mp.log(tau_derivative(table, k, alpha))
    return log_tau_jet(table, k, closure)[alpha]


@settings(max_examples=40, deadline=None)
@given(k=st.integers(min_value=0, max_value=6), alpha=ORDERS, data=st.data())
def test_flow_order_and_closure_leave_bits_unchanged(ctx, k, alpha, data):
    # the canonical expression does not depend on the order the flows are
    # applied in, and a log-tau jet entry not on the closure it was computed
    # in; each call reads a fresh table, so no memo answers for another call
    flows = [l for l, order in zip((1, 2, 3), alpha) for _ in range(order)]
    expr = tau_expr(k)
    for l in data.draw(st.permutations(flows)):
        expr = apply_flow(expr, l)
    engine = tau_derivative(fresh_table(ctx), k, alpha)
    assert engine._mpf_ == eval_expr(expr, fresh_table(ctx))._mpf_
    alone = _log_tau(fresh_table(ctx), k, alpha, [alpha])
    assert alone._mpf_ == _log_tau(fresh_table(ctx), k, alpha, [(3, 2, 1)])._mpf_


JETS = {"tau": tau_jet, "log": log_tau_jet}


@settings(max_examples=40, deadline=None)
@given(
    w=st.sampled_from([MEIXNER, GEN_MEIXNER, DEFORMED]),
    requests=st.lists(
        st.tuples(
            st.sampled_from(sorted(JETS)),
            st.integers(min_value=0, max_value=6),
            st.lists(ORDERS, min_size=1, max_size=3),
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_jets_read_through_one_table_match_a_fresh_table_each(ctx, w, requests):
    # the checks ask one table for tau and log-tau jets in their own order and
    # over their own closures; whatever its memo holds by then, each jet has
    # the keys, order and bits of the same request to a table with no memo
    shared = fresh_table(ctx, w)
    for kind, k, alphas in requests:
        got = JETS[kind](shared, k, alphas)
        want = JETS[kind](fresh_table(ctx, w), k, alphas)
        assert list(got) == list(want)
        assert [v._mpf_ for v in got.values()] == [v._mpf_ for v in want.values()]


def test_a_jet_entry_is_evaluated_once_per_table(ctx, monkeypatch):
    table = fresh_table(ctx)
    log_tau_jet(table, 4, [(2, 1, 0)])
    calls, real = [], table.det_rows

    def counted(rows):
        calls.append(rows)
        return real(rows)

    monkeypatch.setattr(table, "det_rows", counted)
    tau_jet(table, 4, [(1, 1, 0)])
    log_tau_jet(table, 4, [(2, 0, 0)])
    tau_derivative(table, 4, (2, 1, 0))
    assert calls == []
    # a new entry evaluates its own expression, and only that
    tau_derivative(table, 4, (3, 0, 0))
    assert calls and len(calls) == len(set(calls))


def test_tau_derivative_base_cases(ctx):
    table = MomentTable(CHARLIER, 14, ctx)
    from semidop import hankel_determinant

    for k in range(5):
        assert tau_derivative(table, k, (0, 0, 0)) == hankel_determinant(table, k)
    for n in range(5):
        assert tau_derivative(table, 1, (n, 0, 0)) == table.moment(n)
    # k=2 single derivative expands to rho_0 rho_3 - rho_1 rho_2
    with workprec(BITS):
        expect = table.moment(0) * table.moment(3) - table.moment(1) * table.moment(2)
        got = tau_derivative(table, 2, (1, 0, 0))
        assert abs(got - expect) <= mpf(2) ** -(BITS - 20) * abs(expect)


def test_log_jet_on_synthetic_exponential():
    # f = exp(c1 t1 + c2 t2) has log-jet equal to c1^a1 c2^a2 at order 1, 0
    # beyond; log f itself is never formed
    with workprec(192):
        c1, c2 = mpf(3), mpf(5)
        alphas = [(a, b, 0) for a in range(4) for b in range(3)]
        tjet = {a: (c1 ** a[0]) * (c2 ** a[1]) * mp.exp(mpf(2)) for a in alphas}
        g = {}
        _log_entries(tjet, g, sorted(tjet, key=lambda t: (sum(t), t)), 192)
        assert (0, 0, 0) not in g and len(g) == len(alphas) - 1
        assert abs(g[(1, 0, 0)] - c1) < mpf(2) ** -180
        assert abs(g[(0, 1, 0)] - c2) < mpf(2) ** -180
        for a in alphas:
            if sum(a) >= 2:
                assert abs(g[a]) < mpf(2) ** -170


def test_fd_crosschecks_on_moment_and_tau(ctx):
    table = MomentTable(CHARLIER, 16, ctx)
    step = Fraction(1, 2 ** (BITS // 4))

    def rho0(mult):
        return MomentTable(flow_scaled_weight(CHARLIER, 1, mult), 2, ctx).moment(0)

    res = derivative_fd_crosscheck(rho0, table.moment(1), step, BITS)
    assert res < to_mpf(step) ** 2 * 100

    def tau3(mult):
        return tau_derivative(
            MomentTable(flow_scaled_weight(CHARLIER, 1, mult), 8, ctx), 3, (0, 0, 0)
        )

    engine = tau_derivative(table, 3, (1, 0, 0))
    res = derivative_fd_crosscheck(tau3, engine, step, BITS)
    assert res < to_mpf(step) ** 2 * 100


def test_fd_second_order_convergence(ctx):
    # residual must shrink by at least 0.3 per halving while above the floor
    def log_h2(mult):
        t = MomentTable(flow_scaled_weight(MEIXNER, 1, mult), 10, ctx)
        with workprec(BITS):
            from semidop import hankel_determinant

            return mp.log(hankel_determinant(t, 3) / hankel_determinant(t, 2))

    table = MomentTable(MEIXNER, 10, ctx)
    engine = (
        log_tau_jet(table, 3, [(1, 0, 0)])[(1, 0, 0)]
        - log_tau_jet(table, 2, [(1, 0, 0)])[(1, 0, 0)]
    )
    residuals = fd_convergence_study(
        lambda step: derivative_fd_crosscheck(log_h2, engine, step, BITS), BITS
    )
    for a, b in zip(residuals, residuals[1:]):
        assert b <= a * mpf("0.3")


def _hankel_quantity(ctx, size: int):
    """The size x size moment matrix of Meixner with eta scaled by mult, built once per mult."""
    tables = {}

    def quantity(mult):
        if mult not in tables:
            tables[mult] = MomentTable(flow_scaled_weight(MEIXNER, 1, mult), 2 * size - 2, ctx)
        vals = tables[mult].values
        return [[vals[i + j] for j in range(size)] for i in range(size)]

    return quantity


def test_fd_of_a_matrix_is_the_entrywise_scalar_difference(ctx):
    size = 4
    quantity = _hankel_quantity(ctx, size)
    step = default_fd_step(BITS)
    matrix = fd_flow_derivative(quantity, step, BITS)
    for i in range(size):
        for j in range(size):
            scalar = fd_flow_derivative(lambda m: quantity(m)[i][j], step, BITS)
            assert matrix[i][j]._mpf_ == scalar._mpf_
    # the central difference has one order
    with pytest.raises(TypeError):
        fd_flow_derivative(quantity, step, BITS, 2)


def test_crosscheck_of_a_vector_is_its_worst_entry(ctx):
    # the moment witness compares a column vector: the worst entry's relative
    # residual, each against max(|engine|, |FD|, 1), bit for bit the scalar one
    table = MomentTable(CHARLIER, 12, ctx)
    step = default_fd_step(BITS)
    tables = {}

    def moments(mult):
        if mult not in tables:
            tables[mult] = MomentTable(flow_scaled_weight(CHARLIER, 1, mult), 8, ctx)
        return tables[mult].values[:9]

    shifted = table.values[1:10]
    worst = derivative_fd_crosscheck(moments, shifted, step, BITS)
    scalars = [
        derivative_fd_crosscheck(lambda m, i=i: moments(m)[i], shifted[i], step, BITS)
        for i in range(9)
    ]
    assert worst._mpf_ == max(scalars)._mpf_
    assert 0 < worst < to_mpf(step) ** 2 * 100
    with workprec(BITS):
        planted = shifted[:4] + [shifted[4] * (1 + mpf(2) ** -100)] + shifted[5:]
    assert derivative_fd_crosscheck(moments, planted, step, BITS) > mpf(2) ** -110
    # vectors of unequal length are refused, not compared over the shorter one
    with pytest.raises(ValueError):
        derivative_fd_crosscheck(moments, shifted[:8], step, BITS)


@pytest.mark.parametrize("weight", [CHARLIER, GEN_MEIXNER], ids=["charlier", "gen_meixner"])
def test_fd_of_s_converges_to_the_flow_jet(weight, ctx):
    # the convergence evidence of the finite differences, once in tier 1: the
    # central difference of S between two walked tables of the flow-scaled
    # weight converges to the flow jet's exact dS, its residual shrinking
    # about 4x per halving of the step
    size = 12
    pipe = get_pipeline(weight, size, ctx)
    ds = pipe.flow_jet(1).ds

    def s_entries(mult):
        s = get_pipeline(flow_scaled_weight(weight, 1, mult), size, ctx).chol.s
        return [x for row in s[:size] for x in row[:size]]

    exact = [x for row in ds for x in row]
    residuals = fd_convergence_study(
        lambda step: derivative_fd_crosscheck(s_entries, exact, step, BITS), BITS
    )
    assert len(residuals) == FD_HALVINGS + 1
    for a, b in zip(residuals, residuals[1:]):
        assert mpf("0.2") * a <= b <= mpf("0.3") * a, residuals


def test_fd_of_a_matrix_scales_by_the_reciprocal_step_bit_for_bit(ctx):
    # at a power-of-two step, (x - y) / (2 s) and (x - y) (1 / (2 s)) round alike
    quantity = _hankel_quantity(ctx, 4)
    assert default_fd_step(BITS) == Fraction(1, 2**64)
    for i in range(FD_HALVINGS + 1):
        step = Fraction(1, 2**64) / 2**i
        plus, minus = quantity(1 + step), quantity(1 - step)
        with workprec(BITS):
            inv_2s = 1 / (2 * to_mpf(step))
            expect = [[(x - y) * inv_2s for x, y in zip(rp, rm)] for rp, rm in zip(plus, minus)]
        got = fd_flow_derivative(quantity, step, BITS)
        assert [[x._mpf_ for x in row] for row in got] == [[x._mpf_ for x in row] for row in expect]


def test_third_flow_fd_on_deformed(ctx):
    table = MomentTable(DEFORMED, 12, ctx)
    step = Fraction(1, 2**40)

    def tau2(mult):
        t = MomentTable(flow_scaled_weight(DEFORMED, 3, mult), 12, ctx)
        return tau_derivative(t, 2, (0, 0, 0))

    engine = tau_derivative(table, 2, (0, 0, 1))
    res = derivative_fd_crosscheck(tau2, engine, step, BITS)
    assert res < to_mpf(step) ** 2 * 100


def test_second_flow_fd_on_deformed(ctx):
    # the second flow derivative of log H_2 equals (J^2)_{22}; here just check
    # engine vs FD for the mixed jet machinery on a deformed weight
    table = MomentTable(DEFORMED, 12, ctx)
    step = Fraction(1, 2**40)

    def logtau2(mult):
        t = MomentTable(flow_scaled_weight(DEFORMED, 2, mult), 12, ctx)
        with workprec(t.ctx.mantissa_bits):
            return mp.log(tau_derivative(t, 2, (0, 0, 0)))

    engine = log_tau_jet(table, 2, [(0, 1, 0)])[(0, 1, 0)]
    res = derivative_fd_crosscheck(logtau2, engine, step, BITS)
    assert res < to_mpf(step) ** 2 * 100


def test_log_tau_derivative_trivial(ctx):
    table = MomentTable(CHARLIER, 10, ctx)
    assert log_tau_jet(table, 0, [(2, 0, 0)])[(2, 0, 0)] == 0
    with workprec(BITS):
        # log tau_1 = log rho_0; first derivative is rho_1/rho_0
        got = log_tau_jet(table, 1, [(1, 0, 0)])[(1, 0, 0)]
        expect = table.moment(1) / table.moment(0)
        assert abs(got - expect) < mpf(2) ** -(BITS - 30)


def test_flow_scaled_weight_guardrails():
    assert flow_scaled_weight(CHARLIER, 1, Fraction(2)).eta == Fraction(7, 5)
    with pytest.raises(Exception):
        flow_scaled_weight(CHARLIER, 4, Fraction(1))
    assert default_fd_step(512) == Fraction(1, 2**128)


def test_tau_jet_downward_closure(ctx):
    table = MomentTable(DEFORMED, 14, ctx)
    jet = tau_jet(table, 2, [(1, 1, 0)])
    assert set(jet) == {(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)}
