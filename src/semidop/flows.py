"""Exact flow-derivative engine for Hankel determinants, plus FD witnesses.

A flow multi-index is a tuple (o1, o2, o3) of derivative orders in the first
three flows. A flow derivative of order l maps rho_m to rho_{m+l}, so by
multilinearity a mixed derivative of tau_k = det[rho_{i+j}] is a finite signed
sum of generalized Hankel determinants det[rho_{r_i + j}]. Expressions are
kept as integer combinations keyed by sorted row-index tuples; rows are
canonicalized with the permutation sign and dropped when two coincide. The
flows commute, so the canonical expression does not depend on the order in
which they are applied, and evaluation sums it in sorted key order.

Each derivative of order alpha moves at most s = o1 + 2 o2 + 3 o3 rows of
tau_k off (0, ..., k-1), so every key is (0, ..., p-1) followed by a tail of
at most s rows, p >= k - s. ``MomentTable.det_rows`` evaluates such a key as
tau_p times an s x s Schur complement over the leading block G_p, whose
pivoted LU it factors once per table and p; a whole jet, and the jets of
every tau_k on one table, share those factorizations.

``tau_jet`` is the one expression builder: it walks the downward closure of
the requested orders, each expression one flow away from a lower one.
``tau_derivative`` reads one entry of it, ``log_tau_jet`` the jet of
log tau_k, from which every derivative of log H_n = log tau_{n+1} - log tau_n
is a difference.

Finite differences in the flow parameters serve as an independent second
witness: central differences at exact rational multipliers eta_l (1 +- step).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Callable, Iterable

from mpmath import mp, mpf, workprec

from .errors import PreconditionError
from .moments import MomentTable
from .weights import HypergeometricWeight, to_mpf

DetExpr = dict  # dict[tuple[int, ...], int]
Alpha = tuple  # (o1, o2, o3)


def _canonical(rows: tuple[int, ...]):
    """Sort row indices, tracking the permutation sign; None when two coincide."""
    lst = list(rows)
    sign = 1
    for i in range(1, len(lst)):
        j = i
        while j > 0 and lst[j - 1] > lst[j]:
            lst[j - 1], lst[j] = lst[j], lst[j - 1]
            sign = -sign
            j -= 1
    for i in range(len(lst) - 1):
        if lst[i] == lst[i + 1]:
            return None, 0
    return tuple(lst), sign


def tau_expr(k: int) -> DetExpr:
    return {tuple(range(k)): 1}


def apply_flow(expr: DetExpr, l: int) -> DetExpr:
    """One derivative in flow l: shift each row index by l, summed over rows."""
    out: DetExpr = {}
    for rows, coeff in expr.items():
        for i in range(len(rows)):
            shifted = rows[:i] + (rows[i] + l,) + rows[i + 1 :]
            canon, sign = _canonical(shifted)
            if canon is None:
                continue
            out[canon] = out.get(canon, 0) + coeff * sign
    return {rows: c for rows, c in out.items() if c != 0}


def eval_expr(expr: DetExpr, table: MomentTable) -> mpf:
    """Evaluate an expression against one moment table, summing in sorted key order.

    Each key's determinant comes from ``table.det_rows``, memoized per table.
    """
    with workprec(table.ctx.mantissa_bits):
        total = mpf(0)
        for rows in sorted(expr):
            total += expr[rows] * table.det_rows(rows)
        return total


def tau_derivative(table: MomentTable, k: int, alpha: Alpha) -> mpf:
    """Mixed flow derivative of the k-th Hankel determinant, engine-exact."""
    return tau_jet(table, k, [alpha])[alpha]


def _sub_indices(beta: Alpha):
    for i in range(beta[0] + 1):
        for j in range(beta[1] + 1):
            for l in range(beta[2] + 1):
                yield (i, j, l)


def _downward_closure(alphas: Iterable[Alpha]) -> list[Alpha]:
    need = {d for a in alphas for d in _sub_indices(a)}
    return sorted(need, key=lambda t: (sum(t), t))


def tau_jet(table: MomentTable, k: int, alphas: Iterable[Alpha]) -> dict:
    """All mixed tau derivatives for the downward closure of the given orders."""
    order = _downward_closure(alphas)
    exprs: dict[Alpha, DetExpr] = {}
    jet: dict[Alpha, mpf] = {}
    for a in order:
        if a == (0, 0, 0):
            exprs[a] = tau_expr(k)
        else:
            i = next(idx for idx, o in enumerate(a) if o > 0)
            prev = list(a)
            prev[i] -= 1
            exprs[a] = apply_flow(exprs[tuple(prev)], i + 1)
        jet[a] = eval_expr(exprs[a], table)
    return jet


def _multinom(beta: Alpha, delta: Alpha) -> int:
    out = 1
    for b, d in zip(beta, delta):
        out *= comb(b, d)
    return out


def log_jet(tjet: dict, bits: int) -> dict:
    """Jet of log f from the jet of f over a downward-closed index set.

    Uses the Leibniz inversion of f * (d_i log f) = d_i f, resolving each order
    from strictly lower ones; requires f(0) != 0.
    """
    order = sorted(tjet, key=lambda t: (sum(t), t))
    with workprec(bits):
        g: dict[Alpha, mpf] = {}
        f0 = tjet[(0, 0, 0)]
        for a in order:
            if a == (0, 0, 0):
                g[a] = mp.log(f0)
                continue
            i = next(idx for idx, o in enumerate(a) if o > 0)
            beta = list(a)
            beta[i] -= 1
            beta = tuple(beta)
            shift = lambda t: (t[0] + (i == 0), t[1] + (i == 1), t[2] + (i == 2))
            acc = tjet[shift(beta)]
            for delta in _sub_indices(beta):
                if delta == (0, 0, 0):
                    continue
                rest = (beta[0] - delta[0], beta[1] - delta[1], beta[2] - delta[2])
                acc -= _multinom(beta, delta) * tjet[delta] * g[shift(rest)]
            g[a] = acc / f0
        return g


def log_tau_jet(table: MomentTable, k: int, alphas: Iterable[Alpha]) -> dict:
    """Mixed derivatives of log tau_k; tau_0 = 1 gives the all-zero jet."""
    if k == 0:
        return {a: mpf(0) for a in _downward_closure(alphas)}
    return log_jet(tau_jet(table, k, alphas), table.ctx.mantissa_bits)


# -- finite-difference witnesses ----------------------------------------------

def flow_scaled_weight(w: HypergeometricWeight, l: int, mult: Fraction) -> HypergeometricWeight:
    """Copy of the weight with eta_l multiplied by an exact rational factor."""
    if l == 1:
        return HypergeometricWeight(w.a, w.b, w.eta * mult, w.eta2, w.eta3)
    if l == 2:
        return HypergeometricWeight(w.a, w.b, w.eta, w.eta2 * mult, w.eta3)
    if l == 3:
        return HypergeometricWeight(w.a, w.b, w.eta, w.eta2, w.eta3 * mult)
    raise PreconditionError(f"flows beyond the third are not supported (got {l})")


def default_fd_step(bits: int) -> Fraction:
    return Fraction(1, 2 ** (bits // 4))


def fd_flow_derivative(
    quantity: Callable[[Fraction], mpf],
    step: Fraction,
    bits: int,
    order: int = 1,
) -> mpf:
    """Central finite difference of (eta d/d eta) applied ``order`` times.

    ``quantity(mult)`` must evaluate the target with eta_l scaled by the exact
    rational ``mult``. Both orders are second-order accurate in ``step``.
    """
    if order not in (1, 2):
        raise ValueError("only first and second flow derivatives are supported")
    f_plus = quantity(1 + step)
    f_minus = quantity(1 - step)
    with workprec(bits):
        s = to_mpf(step)
        first = (f_plus - f_minus) / (2 * s)
        if order == 1:
            return first
        f_mid = quantity(Fraction(1))
        second = (f_plus - 2 * f_mid + f_minus) / (s * s)
        return second + first


def derivative_fd_crosscheck(
    quantity: Callable[[Fraction], mpf],
    engine_value: mpf,
    step: Fraction,
    bits: int,
) -> mpf:
    """|engine - central FD| / scale, the second witness for engine derivatives."""
    fd = fd_flow_derivative(quantity, step, bits)
    with workprec(bits):
        scale = max(abs(engine_value), abs(fd), mpf(1))
        return abs(engine_value - fd) / scale


def fd_convergence_study(
    residual: Callable[[Fraction], mpf],
    step0: Fraction,
    halvings: int,
) -> list:
    """``residual(step)`` at step0 and under each of ``halvings`` successive halvings."""
    return [residual(step0 / 2**i) for i in range(halvings + 1)]


def central_difference(plus: list, minus: list, step: Fraction) -> list:
    """Entrywise central difference (plus - minus) * (1 / (2 step)) of two
    matrices, at the working precision."""
    inv_2s = 1 / (2 * to_mpf(step))
    return [[(x - y) * inv_2s for x, y in zip(rp, rm)] for rp, rm in zip(plus, minus)]
