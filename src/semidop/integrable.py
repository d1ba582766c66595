"""Integrable-systems verification layer.

Each function verifies one family of identities as numerical residuals on
truncations: contiguous-parameter relations of the moment matrix, bidiagonal
connection matrices for shifted parameters, the octahedral lattice equation
satisfied by the squared norms, the first-flow Toda stack (tau-function
cross-checks, Toda system and equation, factorization/operator/compatibility
forms), the Pearson/first-flow compatibility, and the KP relation for triply
deformed weights.

Two exact routes carry the flow identities. The determinant engine
(``flows``) differentiates tau_n by moment-index shifts; the Taylor-mode
factorization (``WeightPipeline.flow_jet``) differentiates S, S^-1 and H
themselves, wherever the triangular factor or a matrix built from it is
differentiated. Both rest on one assumption, that flow l maps rho_m to
rho_{m+l}; ``sato_wilson``'s ``moment_flow_{l}`` rows witness it
independently, by a central finite difference at the ``flows`` step of the
moments of two walked tables of the flow-scaled weight.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf, workprec

from . import flows
from .errors import DivergentSeries, InvalidShift, PreconditionError
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
    mat_sub,
    mat_vec,
    max_abs,
    max_diff,
    out_of_band_max,
    product_sum,
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

        def hankel(entry):
            return [[entry(n + m) for m in range(win)] for n in range(win)]

        for sh in valid_single_shifts(w):
            try:
                sp = pipe.shifted(sh)
            except DivergentSeries:
                continue
            c = _shift_constant(pipe, sh)
            rho_s = sp.table.moment
            edge = max(abs(rho(2 * win)), abs(c) * abs(rho_s(2 * win)), mpf(1))
            diff, scale = window_diff(
                hankel(lambda i: rho(i + 1) + c * rho(i)), hankel(lambda i: c * rho_s(i)), win
            )
            acc.add(f"shift {sh.label()}", diff, max(edge, scale))

        total = shift_parameter(w, Shift.total())
        tp = get_pipeline(total, k, pipe.ctx)
        kappa = Fraction(1)
        for ai in w.a:
            kappa *= ai
        for bj in w.b:
            kappa /= bj
        factor = to_mpf(w.eta * kappa)
        b = pascal_matrix(win, 1)
        rhs = mat_scale(mat_mul(mat_mul(b, hankel(tp.table.moment)), transpose(b)), factor)
        diff, scale = window_diff(hankel(lambda i: rho(i + 1)), rhs, win)
        acc.add("shift T", diff, max(scale, mpf(1)))

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
        errors = [x - e for x, e in zip(diagonal_of(omega, -1), expected)]
        acc.add("subdiagonal_closed_form", max_abs([errors]), max(scale, max_abs([expected])))

        for z in z_samples:
            p_base = pipe.p_vector(z, size)
            glued = mat_vec(omega, sp.p_vector(z, size))
            errors = [g - p for g, p in zip(glued, p_base)]
            acc.add(
                f"action[z={mp.nstr(to_mpf(z), 6)}]",
                max_abs([errors]),
                max(max_abs([p_base]), mpf(1)),
            )

        return acc.result(
            "omega",
            tolerance,
            window=f"full {size} truncation, shift {shift.label()}",
        )


# -- the octahedral lattice equation for squared norms ---------------------------

def nijhoff_capel_check(
    pipe: WeightPipeline,
    r: Shift,
    s: Shift,
    n_values: list[int],
    tolerance: Fraction,
) -> CheckResult:
    """Squared norms under two distinct parameter shifts satisfy the octahedral
    lattice equation; all ingredients come from independent factorizations at
    base, singly shifted, and doubly shifted parameters."""
    if (r.kind, r.index) == (s.kind, s.index):
        raise InvalidShift("the two lattice directions must be distinct parameters")
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
            u_bar = h[n]
            u_hat = a_hat * hr[n - 1]
            u_til = a_til * hs[n - 1]
            u_hat_bar = a_hat * hr[n]
            u_til_bar = a_til * hs[n]
            u_hat_til = a_hat * a_til * hrs[n - 1]
            lhs = (u_hat_bar - u_til_bar) / u_bar
            rhs = u_hat_til * (1 / u_til - 1 / u_hat)
            scale = max(
                abs(u_hat_bar / u_bar),
                abs(u_til_bar / u_bar),
                abs(u_hat_til / u_til),
                abs(u_hat_til / u_hat),
            )
            acc.add(f"n={n}", abs(lhs - rhs), scale)
        return acc.result(
            "nijhoff_capel",
            tolerance,
            window=f"n in {n_values}, shifts ({r.label()}, {s.label()})",
        )


def uv_system_check(
    pipe: WeightPipeline,
    r: Shift,
    n_values: list[int],
    tolerance: Fraction,
) -> CheckResult:
    """The coupled difference system for squared norms and recurrence diagonal
    under one parameter shift, the boundary identity, and the flow derivative
    of the norm ratio: the determinant engine's value against the shifted
    data, and against the flow jets of both factorizations."""
    bits = pipe.bits
    rp = pipe.shifted(r)
    a_hat = _shift_constant(pipe, r)
    with workprec(bits):
        acc = ResidualAccumulator()
        h, hr = pipe.chol.h, rp.chol.h
        beta, beta_r = pipe.jac.beta, rp.jac.beta
        jets = _log_jets(pipe, max(n_values) + 2)
        jets_r = _log_jets(rp, max(n_values) + 1)
        jet, jet_r = pipe.flow_jet(1), rp.flow_jet(1, size=max(n_values))

        for n in n_values:
            res1 = (beta_r[n] - beta[n]) - (
                h[n + 1] / (a_hat * hr[n]) - h[n] / (a_hat * hr[n - 1])
            )
            scale1 = max(abs(beta_r[n]), abs(beta[n]), abs(h[n + 1] / (a_hat * hr[n])), mpf(1))
            acc.add(f"difference_v_bar[n={n}]", abs(res1), scale1)

            res2 = (beta_r[n - 1] - beta[n]) - (
                a_hat * hr[n - 1] / h[n - 1] - a_hat * hr[n] / h[n]
            )
            scale2 = max(abs(beta_r[n - 1]), abs(beta[n]), abs(a_hat * hr[n - 1] / h[n - 1]), mpf(1))
            acc.add(f"difference_v_hat[n={n}]", abs(res2), scale2)

            # flow derivative of the norm ratio: engine via log-tau jets.
            # The commutator derivation gives gamma_shifted - gamma, i.e.
            # u-hat-bar/u-hat - u-bar/u (the jet witness below confirms the sign).
            ratio = h[n] / (a_hat * hr[n - 1])
            engine = ratio * (
                _dlog_h(jets, n, (1, 0, 0)) - _dlog_h(jets_r, n - 1, (1, 0, 0))
            )
            rhs = hr[n] / hr[n - 1] - h[n] / h[n - 1]
            scale3 = max(abs(engine), abs(h[n] / h[n - 1]), abs(hr[n] / hr[n - 1]), mpf(1))
            acc.add(f"ratio_flow[n={n}]", abs(engine - rhs), scale3)
            # and against the factorization jets' d log H = dH / H of both
            witness = ratio * (jet.dh[n] / h[n] - jet_r.dh[n - 1] / hr[n - 1])
            scale = max(abs(engine), abs(witness), mpf(1))
            acc.add(f"ratio_witness[n={n}]", abs(engine - witness), scale)

        # boundary identity at n = 1
        lhs = beta_r[0] * (a_hat * hr[0] / h[0])
        rhs = beta[0] * (a_hat * hr[0] / h[0]) + h[1] / h[0]
        acc.add("boundary", abs(lhs - rhs), max(abs(lhs), abs(rhs), mpf(1)))

        return acc.result(
            "uv_system",
            tolerance,
            window=f"n in {n_values}, shift {r.label()}",
        )


class _LogJet:
    """The derivatives of log tau_k on one table, each formed on its first
    read: ``[alpha]`` reads the table's memo, or asks ``log_tau_jet`` for
    that entry's closure alone. An entry's bits do not depend on the closure
    it is requested in, so the order of reads moves no value."""

    __slots__ = ("table", "k")

    def __init__(self, table, k: int):
        self.table, self.k = table, k

    def __getitem__(self, alpha) -> mpf:
        memo = self.table.log_tau_derivatives.get(self.k, {})
        if alpha in memo:
            return memo[alpha]
        # the module's name, read at call time, so a tracer patching it sees it
        return log_tau_jet(self.table, self.k, [alpha])[alpha]


def _log_jets(pipe: WeightPipeline, count: int) -> list[_LogJet]:
    """The log-tau jets of tau_0 .. tau_{count-1}, each entry formed on first read."""
    return [_LogJet(pipe.table, n) for n in range(count)]


def _dlog_h(jets: list, n: int, alpha) -> mpf:
    """d^alpha log H_n, with H_n = tau_{n+1} / tau_n; since beta_n = d/dt1 log H_n,
    alpha + (1, 0, 0) gives d^alpha beta_n."""
    return jets[n + 1][alpha] - jets[n][alpha]


def _dlog_gamma(jets: list, n: int, alpha) -> mpf:
    """d^alpha log gamma_n (n >= 1), with gamma_n = H_n / H_{n-1}."""
    return jets[n + 1][alpha] + jets[n - 1][alpha] - 2 * jets[n][alpha]


# -- tau-function cross-checks and the Toda stack --------------------------------

def tau_route_check(
    pipe: WeightPipeline,
    nmax: int,
    tolerance: Fraction,
) -> CheckResult:
    """Factorization data against determinant data: norms as determinant ratios,
    subleading coefficients as logarithmic derivatives, the recurrence
    coefficients as second derivatives, and the bilinear (Hirota) form. The
    routes meet by construction at h_0, p^1_0, p^1_1 and beta_0 (tau_0 = 1,
    h_0 = tau_1, p^1_1 = -rho_1 / rho_0 on both), so the rows start past them;
    ``tests/test_integrable.py`` pins those."""
    bits = pipe.bits
    table = pipe.table
    with workprec(bits):
        acc = ResidualAccumulator()
        # one tau jet per n gives tau_n and its first derivative, which the
        # log jets read from the table's memo; flows.tau_jet is read at call
        # time, so a tracer patching it sees it
        tau_jets = [flows.tau_jet(table, n, [(1, 0, 0)]) for n in range(nmax + 2)]
        taus = [t[(0, 0, 0)] for t in tau_jets]
        jets = _log_jets(pipe, nmax + 2)
        h = pipe.chol.h
        for n in range(1, nmax + 1):
            acc.add(
                f"norm_ratio[{n}]",
                abs(h[n] - taus[n + 1] / taus[n]),
                abs(h[n]),
            )
            if n >= 2:
                dtau = tau_jets[n][(1, 0, 0)]
                p1 = pipe.chol.p(1, n)
                acc.add(
                    f"subleading[{n}]",
                    abs(p1 + dtau / taus[n]),
                    max(abs(p1), mpf(1)),
                )
            dlog = _dlog_h(jets, n, (1, 0, 0))
            beta_n, gamma_n = pipe.jac.beta[n], pipe.gamma(n)
            acc.add(f"beta[{n}]", abs(beta_n - dlog), max(abs(beta_n), mpf(1)))
            acc.add(f"gamma[{n}]", abs(gamma_n - jets[n][(2, 0, 0)]), abs(gamma_n))
            hirota = taus[n + 1] * taus[n - 1] / (taus[n] * taus[n])
            acc.add(f"hirota[{n}]", abs(jets[n][(2, 0, 0)] - hirota), abs(hirota))
        return acc.result(
            "tau_routes",
            tolerance,
            window=f"n <= {nmax}",
        )


def toda_check(
    pipe: WeightPipeline,
    nmax: int,
    z_samples: list,
    tolerance: Fraction,
) -> CheckResult:
    """First-flow Toda system and equation for the recurrence data, with engine
    derivatives on one side and factorization data on the other; the polynomial
    flow relation dp_n = -gamma_n p_{n-1} reads dp_n from the flow-1 jet. The
    beta line of the system is equation_q's by construction for n >= 1
    (gamma_n = H_n / H_{n-1}), as subleading_flow[0] is 0 = 0; both are pinned
    in ``tests/test_integrable.py``."""
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        jets = _log_jets(pipe, nmax + 3)
        h = pipe.chol.h
        beta = pipe.jac.beta
        d2q, gamma_1 = _dlog_h(jets, 0, (2, 0, 0)), pipe.gamma(1)
        acc.add("system_beta[0]", abs(d2q - gamma_1), max(abs(gamma_1), mpf(1)))

        for n in range(1, nmax + 1):
            gamma_next = pipe.gamma(n + 1)
            gamma_n = pipe.gamma(n)
            d2q = _dlog_h(jets, n, (2, 0, 0))
            dlog_gamma = _dlog_gamma(jets, n, (1, 0, 0))
            d2log_gamma = _dlog_gamma(jets, n, (2, 0, 0))
            beta_prev = beta[n - 1]
            acc.add(
                f"system_gamma[{n}]",
                abs(dlog_gamma - (beta[n] - beta_prev)),
                max(abs(beta[n]), abs(beta_prev), mpf(1)),
            )
            acc.add(
                f"equation_q[{n}]",
                abs(d2q - (h[n + 1] / h[n] - h[n] / h[n - 1])),
                max(abs(h[n + 1] / h[n]), abs(h[n] / h[n - 1])),
            )
            acc.add(
                f"equation_gamma[{n}]",
                abs(d2log_gamma + 2 * gamma_n - gamma_next - pipe.gamma(n - 1)),
                max(abs(gamma_n), abs(gamma_next), mpf(1)),
            )

            # flow derivative of the subleading coefficient
            dp1 = -jets[n][(2, 0, 0)]
            acc.add(
                f"subleading_flow[{n}]",
                abs(dp1 + gamma_n),
                max(abs(dp1), mpf(1)),
            )

        # polynomial flow relation: dp_n(z) from the flow-1 jet's dS
        ds = pipe.flow_jet(1).ds
        for z in z_samples:
            zm = to_mpf(z)
            for n in (min(2, nmax), min(4, nmax)):
                if n < 1:
                    continue
                dp = mpf(0)
                for c in reversed(ds[n][: n + 1]):
                    dp = dp * zm + c
                engine = -pipe.gamma(n) * pipe.p_vector(z, n)[n - 1]
                scale = max(abs(engine), abs(dp), mpf(1))
                acc.add(f"poly_flow[n={n},z={mp.nstr(zm, 6)}]", abs(dp - engine), scale)

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
        jets = _log_jets(pipe, kj)
        h_floor = pipe.chol.h_floor()

        for l in flows:
            jl = powers[l]
            alpha = (1, 0, 0) if l == 1 else (0, 1, 0)
            up_alpha = (alpha[0] + 1, alpha[1], alpha[2])

            # (a) diagonal norm derivatives
            jl_diag = diagonal_of(jl, 0)[: kj - l]
            errors = [_dlog_h(jets, n, alpha) - x for n, x in enumerate(jl_diag)]
            acc.add(f"diag_flow_{l}", max_abs([errors]), max(h_floor, max_abs([jl_diag]), mpf(1)))

            # (b) dressing factor dS S^-1 = -S dL against -(J^l)_-, with dL
            # from the flow-l jet of the size-kj block; the strictly lower
            # part of the truncated J^l is exact for l <= 2. S dL - J J^(l-1)
            # is one exact sum per entry, of which the strictly lower part is read
            jet = pipe.flow_jet(l)
            scale = max(max_abs(strict_lower(jl)), mpf(1))
            phi = product_sum((1, jet.s, jet.ds_inv), (-1, j, powers[l - 1]))
            acc.add(f"phi_{l}", out_of_band_max(phi, 0, kj, kj), scale)

            # (c) the index shift both routes rest on: the central difference
            # of the moments of two walked tables of the flow-scaled weight
            # against the shifted columns of this table
            if l in fd_flows:
                top = min(2 * kj, pipe.depth - l)
                res = derivative_fd_crosscheck(
                    lambda mult: pipe.flow_scaled(l, mult).table.values[: top + 1],
                    pipe.table.values[l : top + l + 1],
                    default_fd_step(bits),
                    bits,
                )
                acc.add(f"moment_flow_{l}", res, mpf(1))

            # (d) Lax equation entrywise on the interior window
            win = kj - (l + 2)
            lax_rhs = commutator(upper_with_diagonal(jl), j)
            engine = zeros(win)
            for n in range(win):
                engine[n][n] = _dlog_h(jets, n, up_alpha)
                if n:
                    engine[n][n - 1] = pipe.gamma(n) * _dlog_gamma(jets, n, alpha)
            diff = max_diff(engine, lax_rhs, win)
            acc.add(f"lax_{l}", diff, max(max_abs(lax_rhs, win), mpf(1)))

        # (e) zero-curvature for the (1, 2) pair
        d1_j2_plus = zeros(kj)
        d2_j_plus = zeros(kj)
        for n in range(zc_win + 1):
            db1 = _dlog_h(jets, n, (2, 0, 0))
            d1_gamma_n = pipe.gamma(n) * _dlog_gamma(jets, n, (1, 0, 0)) if n else mpf(0)
            d1_gamma_next = pipe.gamma(n + 1) * _dlog_gamma(jets, n + 1, (1, 0, 0))
            d1_j2_plus[n][n] = 2 * pipe.jac.beta[n] * db1 + d1_gamma_n + d1_gamma_next
            d1_j2_plus[n][n + 1] = db1 + _dlog_h(jets, n + 1, (2, 0, 0))
            d2_j_plus[n][n] = _dlog_h(jets, n, (1, 1, 0))
        # d1 J2+ - d2 J+ - [J+, J2+], each entry one exact sum rounded once
        j_plus, j2_plus = upper_with_diagonal(j), upper_with_diagonal(powers[2])
        zs = product_sum(
            (1, d1_j2_plus, powers[0]),
            (-1, d2_j_plus, powers[0]),
            (-1, j_plus, j2_plus),
            (1, j2_plus, j_plus),
        )
        acc.add("zero_curvature_12", max_abs(zs, zc_win), max(max_abs(d1_j2_plus, zc_win), mpf(1)))

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
        dj[i][i] = (ds[i][i - 1] if i else mpf(0)) - ds[i + 1][i]
        if i:
            dj[i][i - 1] = (dh[i] - pipe.gamma(i) * dh[i - 1]) / h[i - 1]
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
    a = [[psi[i][m] / h[m] for m in range(n)] for i in range(n)]
    at = [[psi[m][i] / h[m] for m in range(n)] for i in range(n)]
    da = [[(dpsi[i][m] - a[i][m] * dh[m]) / h[m] for m in range(n)] for i in range(n)]
    dat = [[(dpsi[m][i] - at[i][m] * dh[m]) / h[m] for m in range(n)] for i in range(n)]
    # d(X / eta) = (dX - X) / eta along flow 1
    eta_inv = 1 / to_mpf(pipe.weight.eta)
    return [mat_scale(mat_sub(dat, at), eta_inv), da, dat, mat_scale(mat_sub(da, a), eta_inv)]


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
        h_floor = pipe.chol.h_floor()
        for name, dm, mat, gauge in zip(
            ("1a", "1b", "2a", "2b"), derivatives, base, (phi, phi, j_plus, j_plus)
        ):
            diff, scale = window_diff(dm, commutator(gauge, mat), win)
            acc.add(f"compat_{name}", diff, max(scale, h_floor))
        return acc.result("pearson_toda", tolerance, window=f"leading {win} of {kj}")


def active_deformation(w: HypergeometricWeight, size: int) -> None:
    """The declaration of kp: both deformations active."""
    if not (abs(w.eta2) < 1 and abs(w.eta3) < 1):
        raise PreconditionError("KP check needs an active deformation with |eta2|, |eta3| < 1")


def kp_check(
    pipe: WeightPipeline,
    n_values: list[int],
    tolerance: Fraction,
) -> CheckResult:
    """The KP relation for the subleading coefficient of a triply deformed
    weight, with every mixed derivative taken by the exact determinant engine,
    and the second-flow second derivative d22p read again from the order-2
    flow-2 jet of the factorization."""
    active_deformation(pipe.weight, pipe.k)
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        jets = _log_jets(pipe, max(n_values) + 1)
        # p_n = S[n][n-1]: its second flow-2 derivative from the order-2 jet,
        # for the n the size-(k+1) factorization holds
        top = min(max(n_values), pipe.k)
        d2s = pipe.flow_jet(2, order=2, size=top + 1).d2s
        for n in n_values:
            jet = jets[n]
            d1p = -jet[(2, 0, 0)]
            d11p = -jet[(3, 0, 0)]
            d1111p = -jet[(5, 0, 0)]
            d13p = -jet[(2, 0, 1)]
            d22p = -jet[(1, 2, 0)]
            # first-flow derivative of (4 d3 p + 6 (d1 p)^2 - d1^3 p) equals
            # 3 d2^2 p: the factor 3 is forced by the bilinear identity
            # (D1^4 - 4 D1 D3 + 3 D2^2) tau . tau = 0 in the log eta_l times
            lhs = 4 * d13p + 12 * d1p * d11p - d1111p
            scale = max(abs(4 * d13p), abs(12 * d1p * d11p), abs(d1111p), abs(3 * d22p), mpf(1))
            acc.add(f"kp[n={n}]", abs(lhs - 3 * d22p), scale)
            if 1 <= n <= top:
                acc.add(f"d22p[n={n}]", abs(d2s[n][n - 1] - d22p), max(abs(d22p), mpf(1)))
        return acc.result(
            "kp",
            tolerance,
            window=f"n in {n_values}",
        )
