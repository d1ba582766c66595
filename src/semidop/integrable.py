"""Integrable-systems verification layer.

Each function verifies one family of identities as numerical residuals on
truncations: contiguous-parameter relations of the moment matrix, bidiagonal
connection matrices for shifted parameters, the octahedral lattice equation
satisfied by the squared norms, the first-flow Toda stack (tau-function
cross-checks, Toda system and equation, factorization/operator/compatibility
forms), the Pearson/first-flow compatibility, and the KP relation for triply
deformed weights.

A check takes the pipeline, then only what callers vary (shifts, sample
points), then the tolerance; it derives its window from the truncation size
k: the lattice checks keep the n of ``LATTICE_N`` their factorizations hold
(n + 1 <= k for ``nijhoff_capel``, n + 2 <= k for ``uv_system``, n <=
min(4, k - 2) for ``kp``), ``tau_routes`` runs n <= min(8, k - 1) and
``toda`` n <= min(8, k - 2). A check on parameter shifts is named by them
(``omega_A(1)``, ``nijhoff_capel_A(1)_B(1)``, ``uv_system_A(1)``).

Two exact routes carry the flow identities. The determinant engine
(``flows``) differentiates tau_n by moment-index shifts; the Taylor-mode
factorization (``WeightPipeline.flow_jet``) differentiates S, S^-1 and H
themselves, wherever the triangular factor or a matrix built from it is
differentiated. The engine's derivatives of log tau_k are read one entry at
a time from the table's memo (``_log_tau``), which ``flows.log_tau_jet``
fills on a miss. Both routes rest on one assumption, that flow l maps rho_m
to rho_{m+l}; ``sato_wilson``'s ``moment_flow_{l}`` rows witness it
independently, by a central finite difference at the ``flows`` step of the
moments of two walked tables of the flow-scaled weight
(``WeightPipeline.flow_scaled``), which nothing factors.

Every scalar row is one exact sum rounded once (``linalg.scalar_sum``), as
in ``structure``: a ratio of norms or of tau values is one rounded quotient
entering the sum as a factor, a log-tau derivative of H_n or gamma_n enters
as its terms (``_dlog_h``, ``_dlog_gamma``), and a scale is a ``max_abs``.
The Lax, zero-curvature and compatibility products are formed only on the
window their rows read.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb

from mpmath import mp, mpf, workprec

from . import flows
from .errors import InvalidShift, PreconditionError
from .flows import (
    default_fd_step,
    derivative_fd_crosscheck,
    fd_convergence_study,  # noqa: F401  -- unused here; perfbench/tracer.py wraps this name
    fd_flow_derivative,  # noqa: F401  -- unused here; perfbench/tracer.py wraps this name
    flow_scaled_weight,
    log_tau_jet,
    tau_derivative,  # noqa: F401  -- unused here; perfbench/tracer.py wraps this name
)
from .linalg import (
    Matrix,
    commutator,
    diag,
    diagonal_of,
    identity,
    mat_mul,
    mat_scale,
    mat_vec,
    max_abs,
    max_diff,
    negated_terms,
    out_of_band_max,
    product_sum,
    scalar_sum,
    strict_lower,
    transpose,
    upper_with_diagonal,
    window_diff,
    zeros,
)
from .pipeline import WeightPipeline, get_pipeline
from .result import CheckResult, ResidualAccumulator
from .structure import compatibility_window, pascal_matrix, pearson_weight, trimmed_window
from .weights import (
    HypergeometricWeight,
    Shift,
    classify_convergence,
    pearson_polynomials,
    shift_parameter,
    to_mpf,
)

# Lattice indices n of the octahedral, u-v and KP checks; each check keeps
# those its truncation admits.
LATTICE_N = (1, 2, 3, 4, 5, 6)


def _shift_constant(pipe: WeightPipeline, shift: Shift) -> mpf:
    """The constant attached to a parameter shift, a_i or b_j - 1, rounded
    once at the pipeline's precision."""
    if shift.kind not in ("a", "b"):
        raise InvalidShift("lattice shifts select a single a or b parameter")
    w = pipe.weight
    c = w.a[shift.index - 1] if shift.kind == "a" else w.b[shift.index - 1] - 1
    with workprec(pipe.bits):
        return to_mpf(c)


def valid_single_shifts(w: HypergeometricWeight) -> list[Shift]:
    """All A(i)/B(j) shifts that keep the weight defined: a b_j already at 1
    has no contiguous companion."""
    out = []
    for i in range(1, w.m_degree + 1):
        out.append(Shift.a(i))
    for j in range(1, w.n_degree + 1):
        try:
            shift_parameter(w, Shift.b(j))
        except InvalidShift:
            continue
        out.append(Shift.b(j))
    return out


def lattice_shifts(w: HypergeometricWeight, size: int, count: int = 1) -> list[Shift]:
    """Declaration of omega and uv_system: shifts whose weight holds the size + 1 factorization."""
    pearson_weight(w, size)
    shifts = [sh for sh in valid_single_shifts(w)
              if classify_convergence(shift_parameter(w, sh)).holds(size + 1)]
    if len(shifts) < count:
        raise PreconditionError(f"requires at least {count} shiftable parameters at size {size}")
    return shifts


def _cancelled(w: HypergeometricWeight) -> tuple:
    """The weight w as a value: its a_i and b_j as multisets, each a_i equal
    to some b_j cancelled against it, and its etas."""
    a, b = sorted(w.a), sorted(w.b)
    for x in list(a):
        if x in b:
            a.remove(x)
            b.remove(x)
    return tuple(a), tuple(b), w.eta, w.eta2, w.eta3


def lattice_pairs(w: HypergeometricWeight, size: int) -> list[tuple[Shift, Shift]]:
    """Declaration of nijhoff_capel: pairs of ``lattice_shifts``, whose double
    shifts hold too. A pair whose two shifted weights are one weight once
    common a_i and b_j cancel is dropped: its equation compares a
    factorization with itself and holds identically."""
    shifts = lattice_shifts(w, size, 2)
    pairs = [
        (r, s) for i, r in enumerate(shifts) for s in shifts[i + 1 :]
        if _cancelled(shift_parameter(w, r)) != _cancelled(shift_parameter(w, s))
    ]
    if not pairs:
        raise PreconditionError(
            "every pair of shiftable parameters gives one weight twice once common a_i and b_j cancel"
        )
    return pairs


# -- contiguous relations of the moment matrix ---------------------------------

def contiguous_check(
    pipe: WeightPipeline,
    tolerance: Fraction,
) -> CheckResult:
    """Single-parameter and total-shift relations between the moment matrix and
    its contiguous companions, on the leading (k-1) window.

    The single shifts read (shift + c) G = c * G_shifted entrywise; the total
    shift reads  shift(G) = eta * kappa * B G_total B^T  with kappa the ratio
    of parameter products (the eta factor follows from converting the plain
    eta-derivative of the defining series to the logarithmic one).
    """
    w = pipe.weight
    pearson_weight(w, pipe.k)
    k = pipe.k
    win = k - 1
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        rho = pipe.table.moment

        # entry (n, m) of each relation reads index t = n + m alone, so its
        # rows over the window are those over t < 2 win - 1
        top = 2 * win - 1
        for sh in valid_single_shifts(w):
            sp = pipe.shifted(sh)
            c = _shift_constant(pipe, sh)
            rho_s = sp.table.moment
            # rho_{t+1} + c rho_t - c rho^shifted_t, one exact sum per index
            lhs = [scalar_sum((1, rho(t + 1)), (1, c, rho(t))) for t in range(top)]
            rhs, edge = mat_scale([[rho_s(t) for t in range(top)], [rho_s(2 * win)]], c)
            diffs = [
                scalar_sum((1, rho(t + 1)), (1, c, rho(t)), (-1, c, rho_s(t))) for t in range(top)
            ]
            # the scale: rho_{2 win}, c rho^shifted_{2 win} and 1 at the edge, and either side
            scale = max_abs([[rho(2 * win)], edge, [1], lhs, rhs])
            acc.add(f"shift {sh.label()}", max_abs([diffs]), scale)

        # the total shift: B G_total B^T is Hankel too, its entry t being
        # sum_s C(t, s) rho^total_s (Vandermonde, as in gram_pearson), so row
        # t is rho_{t+1} - eta kappa sum_s C(t, s) rho^total_s, one exact sum
        # with eta kappa a factor rounded once
        total = shift_parameter(w, Shift.total())
        rho_t = get_pipeline(total, k, pipe.ctx).table.moment
        kappa = Fraction(1)
        for ai in w.a:
            kappa *= ai
        for bj in w.b:
            kappa /= bj
        factor = to_mpf(w.eta * kappa)
        sides, diffs = [], []
        for t in range(top):
            rhs = [(comb(t, s), factor, rho_t(s)) for s in range(t + 1)]
            sides += [rho(t + 1), scalar_sum(*rhs)]
            diffs.append(scalar_sum((1, rho(t + 1)), *negated_terms(rhs)))
        acc.add("shift T", max_abs([diffs]), max_abs([sides, [1]]))

        return acc.result(
            "contiguous",
            tolerance,
            window=f"leading {win}x{win} window",
        )


# -- connection matrices for contiguous parameters ------------------------------

def omega_connection_check(
    pipe: WeightPipeline,
    shift: Shift,
    z_samples: list,
    tolerance: Fraction,
) -> CheckResult:
    """The connection matrix S (S_shifted)^{-1}: bidiagonality, the closed form
    of its subdiagonal in norm ratios, and its action gluing the shifted
    polynomial vector back to the original."""
    c = _shift_constant(pipe, shift)
    sp = pipe.shifted(shift)
    bits = pipe.bits
    size = pipe.k + 1
    with workprec(bits):
        acc = ResidualAccumulator()
        omega = mat_mul(pipe.chol.s, sp.chol.s_inv)
        scale = max(max_abs(omega), mpf(1))
        acc.add("off_bidiagonal", out_of_band_max(omega, -1, size, size), scale)

        expected = [pipe.chol.h[n + 1] / (c * sp.chol.h[n]) for n in range(size - 1)]
        errors = max_diff([diagonal_of(omega, -1)], [expected], size)
        acc.add("subdiagonal_closed_form", errors, max(scale, max_abs([expected])))

        for z in z_samples:
            p_base = pipe.p_vector(z, size)
            glued = mat_vec(omega, sp.p_vector(z, size))
            acc.add(
                f"action[z={mp.nstr(to_mpf(z), 6)}]",
                max_diff([glued], [p_base], size),
                max_abs([p_base, [1]]),
            )

        return acc.result(
            f"omega_{shift.label()}",
            tolerance,
            window=f"full {size} truncation, shift {shift.label()}",
        )


# -- the octahedral lattice equation for squared norms ---------------------------

def nijhoff_capel_check(
    pipe: WeightPipeline,
    r: Shift,
    s: Shift,
    tolerance: Fraction,
) -> CheckResult:
    """Squared norms under two distinct parameter shifts satisfy the octahedral
    lattice equation at the n of ``LATTICE_N`` with n + 1 <= k; all
    ingredients come from independent factorizations at base, singly shifted,
    and doubly shifted parameters."""
    if (r.kind, r.index) == (s.kind, s.index):
        raise InvalidShift("the two lattice directions must be distinct parameters")
    n_values = [n for n in LATTICE_N if n + 1 <= pipe.k]
    bits = pipe.bits
    rp = pipe.shifted(r)
    sp = pipe.shifted(s)
    rs = rp.shifted(s)
    a_hat = _shift_constant(pipe, r)
    a_til = _shift_constant(pipe, s)
    with workprec(bits):
        acc = ResidualAccumulator()
        h, hr, hs, hrs = pipe.chol.h, rp.chol.h, sp.chol.h, rs.chol.h
        for n in n_values:
            # with u = h_n, u-hat = a-hat hr_{n-1}, u-tilde = a-tilde hs_{n-1},
            # u-hat-tilde = a-hat a-tilde hrs_{n-1} and a bar shifting n, the
            # equation (u-hat-bar - u-tilde-bar) / u-bar = u-hat-tilde
            # (1 / u-tilde - 1 / u-hat) reads as four ratios of norms, each
            # one rounded quotient, with the shift constants as factors
            terms = (
                (1, a_hat, hr[n] / h[n]),
                (-1, a_til, hs[n] / h[n]),
                (-1, a_hat, hrs[n - 1] / hs[n - 1]),
                (1, a_til, hrs[n - 1] / hr[n - 1]),
            )
            acc.add(f"n={n}", scalar_sum(*terms), max_abs([[scalar_sum(t) for t in terms]]))
        return acc.result(
            f"nijhoff_capel_{r.label()}_{s.label()}",
            tolerance,
            window=f"n in {n_values}, shifts ({r.label()}, {s.label()})",
        )


def uv_system_check(
    pipe: WeightPipeline,
    r: Shift,
    tolerance: Fraction,
) -> CheckResult:
    """The coupled difference system for squared norms and recurrence diagonal
    under one parameter shift at the n of ``LATTICE_N`` with n + 2 <= k, the
    boundary identity, and the flow derivative of the norm ratio: the
    determinant engine's value against the shifted data, and against the flow
    jets of both factorizations."""
    n_values = [n for n in LATTICE_N if n + 2 <= pipe.k]
    bits = pipe.bits
    rp = pipe.shifted(r)
    a_hat = _shift_constant(pipe, r)
    with workprec(bits):
        acc = ResidualAccumulator()
        h, hr = pipe.chol.h, rp.chol.h
        beta, beta_r = pipe.jac.beta, rp.jac.beta
        jet, jet_r = pipe.flow_jet(1), rp.flow_jet(1, size=max(n_values))

        for n in n_values:
            # ratios of norms are one rounded quotient each, the shift
            # constant a factor; every row is one exact sum rounded once
            q_next, q = h[n + 1] / (a_hat * hr[n]), h[n] / (a_hat * hr[n - 1])
            res1 = (1, beta_r[n]), (-1, beta[n]), (-1, q_next), (1, q)
            scale1 = max_abs([[beta_r[n], beta[n], q_next, 1]])
            acc.add(f"difference_v_bar[n={n}]", scalar_sum(*res1), scale1)

            ratio_prev, ratio_n = hr[n - 1] / h[n - 1], hr[n] / h[n]
            res2 = (1, beta_r[n - 1]), (-1, beta[n]), (-1, a_hat, ratio_prev), (1, a_hat, ratio_n)
            scale2 = max_abs([[beta_r[n - 1], beta[n], scalar_sum((1, a_hat, ratio_prev)), 1]])
            acc.add(f"difference_v_hat[n={n}]", scalar_sum(*res2), scale2)

            # flow derivative of the norm ratio: engine via log-tau jets.
            # The commutator derivation gives gamma_shifted - gamma, i.e.
            # u-hat-bar/u-hat - u-bar/u (the jet witness below confirms the sign).
            # engine = q (d log H_n - d log H^shifted_{n-1})
            engine = _dlog_h(pipe.table, n, (1, 0, 0), q)
            engine += _dlog_h(rp.table, n - 1, (1, 0, 0), -1, q)
            shifted_gamma, gamma_n = hr[n] / hr[n - 1], h[n] / h[n - 1]
            engine_value = scalar_sum(*engine)
            scale3 = max_abs([[engine_value, gamma_n, shifted_gamma, 1]])
            flow = scalar_sum(*engine, (-1, shifted_gamma), (1, gamma_n))
            acc.add(f"ratio_flow[n={n}]", flow, scale3)
            # and against the factorization jets' d log H = dH / H of both
            witness = (1, q, jet.dh[n] / h[n]), (-1, q, jet_r.dh[n - 1] / hr[n - 1])
            scale = max_abs([[engine_value, scalar_sum(*witness), 1]])
            acc.add(f"ratio_witness[n={n}]", scalar_sum(*engine, *negated_terms(witness)), scale)

        # boundary identity at n = 1, with the ratio hr_0 / h_0 one quotient
        ratio = hr[0] / h[0]
        lhs = ((1, a_hat, ratio, beta_r[0]),)
        rhs = (1, a_hat, ratio, beta[0]), (1, h[1] / h[0])
        scale = max_abs([[scalar_sum(*lhs), scalar_sum(*rhs), 1]])
        acc.add("boundary", scalar_sum(*lhs, *negated_terms(rhs)), scale)

        return acc.result(
            f"uv_system_{r.label()}",
            tolerance,
            window=f"n in {n_values}, shift {r.label()}",
        )


def _log_tau(table, k: int, alpha) -> mpf:
    """d^alpha log tau_k on the table, alpha other than (0, 0, 0): the
    table's memo entry, or the entry of ``log_tau_jet`` over alpha's closure
    alone. An entry's bits do not depend on the closure it is requested in,
    so the order of reads moves no value. tau_0 = 1, so every entry of k = 0
    is 0, read without a call."""
    if k == 0:
        return mpf(0)
    memo = table.log_tau_derivatives.get(k, {})
    if alpha in memo:
        return memo[alpha]
    # the module's name, read at call time, so a tracer patching it sees it
    return log_tau_jet(table, k, [alpha])[alpha]


def _dlog_h(table, n: int, alpha, *factors) -> tuple:
    """The terms of the product of factors with d^alpha log H_n, for
    ``scalar_sum``, with H_n = tau_{n+1} / tau_n; since beta_n = d/dt1 log H_n,
    alpha + (1, 0, 0) gives d^alpha beta_n."""
    return (1, *factors, _log_tau(table, n + 1, alpha)), (-1, *factors, _log_tau(table, n, alpha))


def _dlog_gamma(table, n: int, alpha, *factors) -> tuple:
    """The terms of the product of factors with d^alpha log gamma_n (n >= 1),
    with gamma_n = H_n / H_{n-1}."""
    return (
        (1, *factors, _log_tau(table, n + 1, alpha)),
        (1, *factors, _log_tau(table, n - 1, alpha)),
        (-2, *factors, _log_tau(table, n, alpha)),
    )


# -- tau-function cross-checks and the Toda stack --------------------------------

def tau_route_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Factorization data against determinant data for n <= min(8, k - 1):
    norms as determinant ratios, subleading coefficients as logarithmic
    derivatives, the recurrence coefficients as second derivatives, and the
    bilinear (Hirota) form. The routes meet by construction at h_0, p^1_0, p^1_1 and beta_0 (tau_0 = 1,
    h_0 = tau_1, p^1_1 = -rho_1 / rho_0 on both), so the rows start past them;
    ``tests/test_integrable.py`` pins those."""
    nmax = min(8, pipe.k - 1)
    bits = pipe.bits
    table = pipe.table
    with workprec(bits):
        acc = ResidualAccumulator()
        # one tau jet per n gives tau_n and its first derivative, which the
        # log-tau entries read from the table's memo; flows.tau_jet is read at
        # call time, so a tracer patching it sees it
        tau_jets = [flows.tau_jet(table, n, [(1, 0, 0)]) for n in range(nmax + 2)]
        taus = [t[(0, 0, 0)] for t in tau_jets]
        h = pipe.chol.h
        for n in range(1, nmax + 1):
            norm_ratio = scalar_sum((1, h[n]), (-1, taus[n + 1] / taus[n]))
            acc.add(f"norm_ratio[{n}]", norm_ratio, max_abs([[h[n]]]))
            if n >= 2:
                dtau = tau_jets[n][(1, 0, 0)]
                p1 = pipe.chol.p(1, n)
                subleading = scalar_sum((1, p1), (1, dtau / taus[n]))
                acc.add(f"subleading[{n}]", subleading, max_abs([[p1, 1]]))
            d2_log_tau = _log_tau(table, n, (2, 0, 0))
            beta_n, gamma_n = pipe.jac.beta[n], pipe.gamma(n)
            beta_row = scalar_sum((1, beta_n), *_dlog_h(table, n, (1, 0, 0), -1))
            acc.add(f"beta[{n}]", beta_row, max_abs([[beta_n, 1]]))
            acc.add(f"gamma[{n}]", scalar_sum((1, gamma_n), (-1, d2_log_tau)), max_abs([[gamma_n]]))
            # tau_{n+1} tau_{n-1} / tau_n^2: each product rounded once, then one quotient
            hirota = scalar_sum((1, taus[n + 1], taus[n - 1])) / scalar_sum((1, taus[n], taus[n]))
            acc.add(f"hirota[{n}]", scalar_sum((1, d2_log_tau), (-1, hirota)), max_abs([[hirota]]))
        return acc.result(
            "tau_routes",
            tolerance,
            window=f"n <= {nmax}",
        )


def toda_check(pipe: WeightPipeline, z_samples: list, tolerance: Fraction) -> CheckResult:
    """First-flow Toda system and equation for the recurrence data for
    n <= min(8, k - 2), with engine
    derivatives on one side and factorization data on the other; the polynomial
    flow relation dp_n = -gamma_n p_{n-1} reads dp_n from the flow-1 jet. The
    beta line of the system is equation_q's by construction for n >= 1
    (gamma_n = H_n / H_{n-1}), as subleading_flow[0] is 0 = 0; both are pinned
    in ``tests/test_integrable.py``."""
    nmax = min(8, pipe.k - 2)
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        table = pipe.table
        h = pipe.chol.h
        beta = pipe.jac.beta
        gamma_1 = pipe.gamma(1)
        acc.add("system_beta[0]", scalar_sum(*_dlog_h(table, 0, (2, 0, 0)), (-1, gamma_1)),
                max_abs([[gamma_1, 1]]))

        for n in range(1, nmax + 1):
            gamma_next = pipe.gamma(n + 1)
            gamma_n = pipe.gamma(n)
            beta_prev = beta[n - 1]
            system = _dlog_gamma(table, n, (1, 0, 0)) + ((-1, beta[n]), (1, beta_prev))
            acc.add(f"system_gamma[{n}]", scalar_sum(*system), max_abs([[beta[n], beta_prev, 1]]))
            ratios = h[n + 1] / h[n], h[n] / h[n - 1]
            equation_q = _dlog_h(table, n, (2, 0, 0)) + ((-1, ratios[0]), (1, ratios[1]))
            acc.add(f"equation_q[{n}]", scalar_sum(*equation_q), max_abs([ratios]))
            equation_gamma = _dlog_gamma(table, n, (2, 0, 0)) + (
                (2, gamma_n), (-1, gamma_next), (-1, pipe.gamma(n - 1))
            )
            acc.add(f"equation_gamma[{n}]", scalar_sum(*equation_gamma),
                    max_abs([[gamma_n, gamma_next, 1]]))

            # flow derivative of the subleading coefficient, dp1 = -d^2 log tau_n
            d2_log_tau = _log_tau(table, n, (2, 0, 0))
            acc.add(f"subleading_flow[{n}]", scalar_sum((-1, d2_log_tau), (1, gamma_n)),
                    max_abs([[d2_log_tau, 1]]))

        # polynomial flow relation: dp_n(z) = sum_i dS[n][i] z^i from the
        # flow-1 jet, against -gamma_n p_{n-1}(z); one exact sum in powers of z,
        # at n = 2 and 4 clamped to the window, each n once
        ds = pipe.flow_jet(1).ds
        for z in z_samples:
            zm = to_mpf(z)
            for n in dict.fromkeys((min(2, nmax), min(4, nmax))):
                if n < 1:
                    continue
                dp = tuple((1, c, *[zm] * i) for i, c in enumerate(ds[n][: n + 1]))
                # the engine's -gamma_n p_{n-1}(z), negated
                gamma_p = (1, pipe.gamma(n), pipe.p_vector(z, n)[n - 1])
                scale = max_abs([[scalar_sum(gamma_p), scalar_sum(*dp), 1]])
                acc.add(f"poly_flow[n={n},z={mp.nstr(zm, 6)}]", scalar_sum(*dp, gamma_p), scale)

        return acc.result(
            "toda",
            tolerance,
            window=f"n <= {nmax}",
        )


def zero_curvature_window(w: HypergeometricWeight, kj: int) -> int:
    """Declaration of sato_wilson: its narrowest windows, kj - 4 rows (size 5 or more)."""
    return trimmed_window(kj, 4, "the flow equations", least=1)


def fd_feasible_flows(pipe: WeightPipeline) -> tuple[int, ...]:
    """The flows among 1 and 2 whose moment witnesses exist: both weights with
    eta_l scaled by 1 +- default_fd_step(bits) construct, and neither is
    divergent or on the convergence boundary, where no table is certified.
    Smaller steps move eta_l less, so their witnesses exist too."""
    step = default_fd_step(pipe.bits)
    out = []
    for l in (1, 2):
        try:
            witnesses = [flow_scaled_weight(pipe.weight, l, 1 + s) for s in (step, -step)]
        except PreconditionError:
            continue
        if all(classify_convergence(w).kind not in ("boundary", "divergent") for w in witnesses):
            out.append(l)
    return tuple(out)


def sato_wilson_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Factorization-level, operator-level, and compatibility-level forms of the
    flow equations: diagonal norm derivatives against powers of the recurrence
    matrix, the strictly-lower dressing factor against the flow jet of the
    triangular factor, the Lax equation entrywise, the (1,2) zero-curvature
    equation assembled by the chain rule on engine derivatives, and the
    moment witness of the index shift.

    The engine and jet parts run for flows 1 and 2 (the derivative at a unit
    deformation parameter is still an index shift); the moment witness
    ``moment_flow_{l}``, one central difference at the ``flows`` step, runs
    only for flows whose parameter can actually be perturbed
    (``fd_feasible_flows``).
    """
    bits = pipe.bits
    kj = pipe.k
    zc_win = zero_curvature_window(pipe.weight, kj)
    flows = (1, 2)
    fd_flows = fd_feasible_flows(pipe)
    with workprec(bits):
        acc = ResidualAccumulator()
        j = pipe.jac.dense
        powers = {0: identity(kj), 1: j, 2: mat_mul(j, j)}
        table = pipe.table
        h_floor = pipe.chol.h_floor

        for l in flows:
            jl = powers[l]
            alpha = (1, 0, 0) if l == 1 else (0, 1, 0)
            up_alpha = (alpha[0] + 1, alpha[1], alpha[2])

            # (a) diagonal norm derivatives
            jl_diag = diagonal_of(jl, 0)[: kj - l]
            errors = [scalar_sum(*_dlog_h(table, n, alpha), (-1, x)) for n, x in enumerate(jl_diag)]
            acc.add(f"diag_flow_{l}", max_abs([errors]), max_abs([[h_floor], jl_diag, [1]]))

            # (b) dressing factor dS S^-1 = -S dL against -(J^l)_-, with dL
            # from the flow-l jet of the size-kj block; the strictly lower
            # part of the truncated J^l is exact for l <= 2. S dL - J J^(l-1)
            # is one exact sum per entry, of which the strictly lower part is read
            jet = pipe.flow_jet(l)
            scale = max_abs(strict_lower(jl) + [[1]])
            phi = product_sum((1, jet.s, jet.ds_inv), (-1, j, powers[l - 1]))
            acc.add(f"phi_{l}", out_of_band_max(phi, 0, kj, kj), scale)

            # (c) the index shift both routes rest on: the central difference
            # of rho_0 .. rho_{2k-l} of two walked tables of the flow-scaled
            # weight against rho_l .. rho_{2k} of this table
            if l in fd_flows:
                top = pipe.depth - l
                res = derivative_fd_crosscheck(
                    lambda mult: pipe.flow_scaled(l, mult).values[: top + 1],
                    table.values[l:],
                    default_fd_step(bits),
                    bits,
                )
                acc.add(f"moment_flow_{l}", res, mpf(1))

            # (d) Lax equation entrywise on the interior window, each engine
            # entry one exact sum of log-tau derivatives rounded once
            win = kj - (l + 2)
            lax_rhs = commutator(upper_with_diagonal(jl), j, win)
            engine = zeros(win)
            for n in range(win):
                engine[n][n] = scalar_sum(*_dlog_h(table, n, up_alpha))
                if n:
                    engine[n][n - 1] = scalar_sum(*_dlog_gamma(table, n, alpha, pipe.gamma(n)))
            diff = max_diff(engine, lax_rhs, win)
            acc.add(f"lax_{l}", diff, max_abs(lax_rhs + [[1]]))

        # (e) zero-curvature for the (1, 2) pair on its window, each entry of
        # d1 J2+ and d2 J+ one exact sum of log-tau derivatives rounded once
        d1_j2_plus, d2_j_plus = zeros(zc_win), zeros(zc_win)
        for n in range(zc_win):
            d1_j2_plus[n][n] = scalar_sum(
                *_dlog_h(table, n, (2, 0, 0), 2, pipe.jac.beta[n]),
                *(_dlog_gamma(table, n, (1, 0, 0), pipe.gamma(n)) if n else ()),
                *_dlog_gamma(table, n + 1, (1, 0, 0), pipe.gamma(n + 1)),
            )
            if n + 1 < zc_win:
                d1_j2_plus[n][n + 1] = scalar_sum(
                    *_dlog_h(table, n, (2, 0, 0)), *_dlog_h(table, n + 1, (2, 0, 0))
                )
            d2_j_plus[n][n] = scalar_sum(*_dlog_h(table, n, (1, 1, 0)))
        # d1 J2+ - d2 J+ - [J+, J2+], each entry one exact sum rounded once
        j_plus, j2_plus = upper_with_diagonal(j), upper_with_diagonal(powers[2])
        zs = product_sum(
            (1, d1_j2_plus, powers[0]),
            (-1, d2_j_plus, powers[0]),
            (-1, j_plus, j2_plus),
            (1, j2_plus, j_plus),
            window=zc_win,
        )
        acc.add("zero_curvature_12", max_abs(zs), max_abs(d1_j2_plus + [[1]]))

        return acc.result(
            "sato_wilson",
            tolerance,
            window=f"flows {flows}, matrix size {kj}",
        )


def _jet_mul(a: Matrix, da: Matrix, b: Matrix, db: Matrix) -> tuple[Matrix, Matrix]:
    """The matrix-jet product (A, dA)(B, dB) = (AB, dA B + A dB), each
    entry of dA B + A dB one exact sum rounded once."""
    return mat_mul(a, b), product_sum((1, da, b), (1, a, db))


def _structure_jets(pipe: WeightPipeline) -> list:
    """The flow-1 derivatives of Psi^T H^-1 / eta, Psi H^-1, Psi^T H^-1 and
    Psi H^-1 / eta, on the n x n block the flow-1 jet holds J for (n = kj - 1).

    dJ comes from dS and dH as J from S and H; Pi = S B S^-1, sigma(J) by
    Horner (each coefficient is proportional to eta, so it is its own flow-1
    derivative) and Psi = sigma(J) H Pi^T by matrix-jet products. On the
    compatibility window these blocks are the size-kj matrices' derivatives.
    Call under workprec(pipe.bits).
    """
    jet = pipe.flow_jet(1)
    n = jet.size - 1
    block = lambda m: [row[:n] for row in m[:n]]
    h, dh, ds = jet.h, jet.dh, jet.ds
    j = block(pipe.jac.dense)
    dj = zeros(n)
    for i in range(n):
        dj[i][i] = scalar_sum((1, ds[i][i - 1] if i else 0), (-1, ds[i + 1][i]))
        if i:
            dj[i][i - 1] = scalar_sum((1, dh[i]), (-1, pipe.gamma(i), dh[i - 1])) / h[i - 1]
    b = pascal_matrix(n, 1)
    sb, dsb = mat_mul(block(jet.s), b), mat_mul(block(ds), b)
    pi, dpi = _jet_mul(sb, dsb, block(pipe.chol.s_inv), block(jet.ds_inv))
    coeffs = [to_mpf(c) for c in pearson_polynomials(pipe.weight).sigma_coeffs]
    sigma = dsigma = mat_scale(identity(n), coeffs[-1])
    for c in reversed(coeffs[:-1]):
        sigma, dsigma = _jet_mul(sigma, dsigma, j, dj)
        for i in range(n):
            sigma[i][i] += c
            dsigma[i][i] += c
    x, dx = _jet_mul(diag(h[:n]), diag(dh[:n]), transpose(pi), transpose(dpi))
    psi, dpsi = _jet_mul(sigma, dsigma, x, dx)
    # A = Psi H^-1 as the pipeline forms it, and dA = dPsi H^-1 - A dH H^-1,
    # each entry one exact sum rounded once; 1 / H_m and dH_m / H_m are one
    # quotient each
    h_inv = diag([1 / x for x in h[:n]])
    dlog_h = diag([d / x for d, x in zip(dh[:n], h[:n])])
    psi_t, dpsi_t = transpose(psi), transpose(dpsi)
    a, at = mat_mul(psi, h_inv), mat_mul(psi_t, h_inv)
    da = product_sum((1, dpsi, h_inv), (-1, a, dlog_h))
    dat = product_sum((1, dpsi_t, h_inv), (-1, at, dlog_h))
    # d(X / eta) = (dX - X) / eta along flow 1, with 1 / eta one quotient
    eta_inv = diag([1 / to_mpf(pipe.weight.eta)] * n)
    return [
        product_sum((1, dat, eta_inv), (-1, at, eta_inv)),
        da,
        dat,
        product_sum((1, da, eta_inv), (-1, a, eta_inv)),
    ]


def pearson_toda_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Compatibility of the structure matrix with the first flow: the four
    commutator equations, with the matrices' flow derivatives from the
    flow-1 jet of the factorization (``_structure_jets``) and the dressing
    factors from J."""
    bits = pipe.bits
    kj = pipe.k
    win = compatibility_window(pipe.weight, kj)
    with workprec(bits):
        acc = ResidualAccumulator()
        eta_inv = 1 / to_mpf(pipe.weight.eta)
        a, at = pipe.psi_h_inv
        base = [mat_scale(at, eta_inv), a, at, mat_scale(a, eta_inv)]
        derivatives = _structure_jets(pipe)
        j = pipe.jac.dense
        phi = mat_scale(strict_lower(j), mpf(-1))
        j_plus = upper_with_diagonal(j)
        h_floor = pipe.chol.h_floor
        for name, dm, mat, gauge in zip(
            ("1a", "1b", "2a", "2b"), derivatives, base, (phi, phi, j_plus, j_plus)
        ):
            diff, scale = window_diff(dm, commutator(gauge, mat, win), win)
            acc.add(f"compat_{name}", diff, max(scale, h_floor))
        return acc.result("pearson_toda", tolerance, window=f"leading {win} of {kj}")


def active_deformation(w: HypergeometricWeight, size: int) -> None:
    """The declaration of kp: both deformations active."""
    if not (abs(w.eta2) < 1 and abs(w.eta3) < 1):
        raise PreconditionError("KP check needs an active deformation with |eta2|, |eta3| < 1")


def kp_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """The KP relation for the subleading coefficient of a triply deformed
    weight at the n of ``LATTICE_N`` with n <= min(4, k - 2), with every mixed
    derivative taken by the exact determinant engine, and the second-flow
    second derivative d22p read again from the order-2 flow-2 jet of the
    factorization."""
    active_deformation(pipe.weight, pipe.k)
    # the order-2 flow-2 jet of the size-(n+1) block reads up to rho_{2n+4}
    # and the fifth-order tau jets up to rho_{2n+3}, so n <= k - 2 keeps
    # both inside the table's rho_0 .. rho_{2k}
    n_values = [n for n in LATTICE_N if n <= min(4, pipe.k - 2)]
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        table = pipe.table
        # p_n = S[n][n-1]: its second flow-2 derivative from the order-2 jet
        d2s = pipe.flow_jet(2, order=2, size=max(n_values) + 1).d2s
        for n in n_values:
            # with L(alpha) = d^alpha log tau_n: d1 p = -L(2,0,0), d1^2 p =
            # -L(3,0,0), d1^4 p = -L(5,0,0), d1 d3 p = -L(2,0,1) and d2^2 p =
            # -L(1,2,0). The first-flow derivative of (4 d3 p + 6 (d1 p)^2 -
            # d1^3 p) equals 3 d2^2 p: the factor 3 is forced by the bilinear
            # identity (D1^4 - 4 D1 D3 + 3 D2^2) tau . tau = 0 in the log eta_l
            # times. The row 4 d1 d3 p + 12 d1 p d1^2 p - d1^4 p - 3 d2^2 p is
            # one exact sum rounded once
            d22 = _log_tau(table, n, (1, 2, 0))
            terms = (
                (-4, _log_tau(table, n, (2, 0, 1))),
                (12, _log_tau(table, n, (2, 0, 0)), _log_tau(table, n, (3, 0, 0))),
                (1, _log_tau(table, n, (5, 0, 0))),
                (3, d22),
            )
            scale = max_abs([[scalar_sum(t) for t in terms], [1]])
            acc.add(f"kp[n={n}]", scalar_sum(*terms), scale)
            d22p_row = scalar_sum((1, d2s[n][n - 1]), (1, d22))
            acc.add(f"d22p[n={n}]", d22p_row, max_abs([[d22, 1]]))
        return acc.result(
            "kp",
            tolerance,
            window=f"n in {n_values}",
        )
