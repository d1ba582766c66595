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

``tau_jet`` walks the downward closure of the requested orders, each
expression one flow away from a lower one and built once per (k, alpha)
for every table. Each entry is evaluated once per table and kept in its memo
(``MomentTable.tau_derivatives``), as each log-tau entry is
(``log_tau_derivatives``): an entry's bits do not depend on the closure it
is requested in, so later requests read it. ``tau_derivative`` reads one
entry, ``log_tau_jet`` the jet of log tau_k, from which every derivative of
log H_n = log tau_{n+1} - log tau_n is a difference. No derivative reads
log tau_k itself, so it is formed only when a caller reads that entry.

The factorization's own derivatives come from ``moments.flow_jet``, which
seeds its Taylor elimination with the factorization. What
both routes assume, that flow l maps rho_m to rho_{m+l}, is witnessed by a
central finite difference at exact rational multipliers eta_l (1 +- step),
entrywise over vectors and matrices (``fd_flow_derivative``), compared by
``derivative_fd_crosscheck``. This module owns the FD policy: the step
2^-(bits/4) (``default_fd_step``), halved FD_HALVINGS times by a study.
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction
from functools import lru_cache
from math import comb
from typing import Callable, Iterable

from mpmath import mp, mpf, workprec

from .errors import PreconditionError
from .linalg import exceeds
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


def _lower(a: Alpha) -> tuple[int, Alpha]:
    """The first flow i with a nonzero order in a, and a one order lower in it."""
    i = next(idx for idx, o in enumerate(a) if o > 0)
    return i, a[:i] + (a[i] - 1,) + a[i + 1 :]


@lru_cache(maxsize=None)
def _derivative_expr(k: int, a: Alpha) -> DetExpr:
    """The expression of d^a tau_k, built once per (k, a): one flow applied to
    the expression one order lower. Shared by every table; read only."""
    if a == (0, 0, 0):
        return tau_expr(k)
    i, prev = _lower(a)
    return apply_flow(_derivative_expr(k, prev), i + 1)


def _tau_values(table: MomentTable, k: int, order: list[Alpha]) -> dict:
    """The table's memo of the derivatives of tau_k, holding d^a tau_k for
    each a in order: each one evaluated once per table, in the order given."""
    memo = table.tau_derivatives.setdefault(k, {})
    for a in order:
        if a not in memo:
            memo[a] = eval_expr(_derivative_expr(k, a), table)
    return memo


def tau_jet(table: MomentTable, k: int, alphas: Iterable[Alpha]) -> dict:
    """All mixed tau derivatives for the downward closure of the given orders.

    Each entry is evaluated once per table and kept in its memo: its bits do
    not depend on the closure it is requested in."""
    order = _downward_closure(alphas)
    memo = _tau_values(table, k, order)
    return {a: memo[a] for a in order}


def _multinom(beta: Alpha, delta: Alpha) -> int:
    out = 1
    for b, d in zip(beta, delta):
        out *= comb(b, d)
    return out


def _log_entries(tjet: dict, g: dict, order: list[Alpha], bits: int) -> None:
    """Fill g[a] with d^a log f for each a other than (0, 0, 0) of a
    downward-closed order, from tjet[a] = d^a f; entries already in g are
    kept. log f itself, which no derivative reads, is left to the caller.

    Uses the Leibniz inversion of f * (d_i log f) = d_i f, resolving each order
    from strictly lower ones; requires f(0) != 0.
    """
    with workprec(bits):
        f0 = tjet[(0, 0, 0)]
        for a in order:
            if a in g or a == (0, 0, 0):
                continue
            i, beta = _lower(a)
            shift = lambda t: (t[0] + (i == 0), t[1] + (i == 1), t[2] + (i == 2))
            acc = tjet[shift(beta)]
            for delta in _sub_indices(beta):
                if delta == (0, 0, 0):
                    continue
                rest = (beta[0] - delta[0], beta[1] - delta[1], beta[2] - delta[2])
                acc -= _multinom(beta, delta) * tjet[delta] * g[shift(rest)]
            g[a] = acc / f0


def log_jet(tjet: dict, bits: int) -> dict:
    """Jet of log f from the jet of f over a downward-closed index set."""
    with workprec(bits):
        g = {(0, 0, 0): mp.log(tjet[(0, 0, 0)])}
    _log_entries(tjet, g, sorted(tjet, key=lambda t: (sum(t), t)), bits)
    return g


class _LogTauJet(Mapping):
    """The jet of log tau_k over a downward closure, read from the table's
    memo; log tau_k itself, which no derivative reads, is formed on its
    first read and kept there."""

    def __init__(self, table: MomentTable, k: int, order: list[Alpha]):
        self._table, self._k, self._order = table, k, order

    def __getitem__(self, a: Alpha) -> mpf:
        if a not in self._order:
            raise KeyError(a)
        table, k = self._table, self._k
        memo = table.log_tau_derivatives[k]
        if a not in memo:
            with workprec(table.ctx.mantissa_bits):
                memo[a] = mp.log(_tau_values(table, k, [a])[a])
        return memo[a]

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)


def log_tau_jet(table: MomentTable, k: int, alphas: Iterable[Alpha]) -> Mapping:
    """Mixed derivatives of log tau_k over the downward closure of the given
    orders; tau_0 = 1 gives the all-zero jet.

    Like ``tau_jet``, each entry is formed once per table and kept in its
    memo, log tau_k only when it is read."""
    order = _downward_closure(alphas)
    if k == 0:
        return {a: mpf(0) for a in order}
    memo = table.log_tau_derivatives.setdefault(k, {})
    if any(a not in memo for a in order if a != (0, 0, 0)):
        _log_entries(_tau_values(table, k, order), memo, order, table.ctx.mantissa_bits)
    return _LogTauJet(table, k, order)


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


# Successive step halvings of an FD convergence study.
FD_HALVINGS = 3


def default_fd_step(bits: int) -> Fraction:
    """The FD step at a working precision: 2^-(bits/4), an exact power of two."""
    return Fraction(1, 2 ** (bits // 4))


def _entrywise(op, *args):
    """op over corresponding scalars of equally nested lists (or of scalars)."""
    if isinstance(args[0], list):
        return [_entrywise(op, *xs) for xs in zip(*args)]
    return op(*args)


def fd_flow_derivative(
    quantity: Callable[[Fraction], mpf | list],
    step: Fraction,
    bits: int,
) -> mpf | list:
    """Central finite difference of eta d/d eta, second-order accurate in ``step``.

    ``quantity(mult)`` must evaluate the target with eta_l scaled by the exact
    rational ``mult``: a scalar, or a vector or matrix (nested lists)
    differenced entrywise.
    """
    f_plus = quantity(1 + step)
    f_minus = quantity(1 - step)
    with workprec(bits):
        two_s = 2 * to_mpf(step)
        return _entrywise(lambda p, m: (p - m) / two_s, f_plus, f_minus)


def derivative_fd_crosscheck(
    quantity: Callable[[Fraction], mpf | list],
    engine_value: mpf | list,
    step: Fraction,
    bits: int,
) -> mpf:
    """max |engine - central FD| / max(|engine|, |FD|, 1), over the entries of
    a scalar or a vector: the comparator of a derivative with its FD witness.
    A nan entry makes the result nan."""
    fd = fd_flow_derivative(quantity, step, bits)
    pairs = zip(engine_value, fd) if isinstance(fd, list) else [(engine_value, fd)]
    with workprec(bits):
        worst = mpf(0)
        for e, f in pairs:
            res = abs(e - f) / max(abs(e), abs(f), mpf(1))
            if exceeds(res, worst):
                worst = res
        return worst


def fd_convergence_study(residual: Callable[[Fraction], mpf], bits: int) -> list:
    """``residual(step)`` at ``default_fd_step(bits)`` and under each of
    FD_HALVINGS successive halvings."""
    step = default_fd_step(bits)
    return [residual(step / 2**i) for i in range(FD_HALVINGS + 1)]
