"""Integrable-systems verification layer.

Each function verifies one family of identities as numerical residuals on
truncations: contiguous-parameter relations of the moment matrix, bidiagonal
connection matrices for shifted parameters, the octahedral lattice equation
satisfied by the squared norms, the first-flow Toda stack (tau-function
cross-checks, Toda system and equation, factorization/operator/compatibility
forms), the Pearson/first-flow compatibility, and the KP relation for triply
deformed weights.

Engine derivatives (exact moment-index shifts) carry the identities; central
finite differences at rational steps act as the independent second witness
wherever the triangular factor itself is differentiated.
"""

from __future__ import annotations

from fractions import Fraction

from mpmath import mp, mpf, workprec

from . import flows
from .errors import DivergentSeries, InvalidShift, PreconditionError
from .flows import (
    central_difference,
    derivative_fd_crosscheck,
    fd_convergence_study,
    fd_flow_derivative,
    log_jet,
    log_tau_jet,
    tau_derivative,  # noqa: F401  -- unused here; perfbench/tracer.py wraps this name
)
from .linalg import (
    commutator,
    diagonal_of,
    mat_add,
    mat_mul,
    mat_scale,
    mat_sub,
    mat_vec,
    max_abs,
    out_of_band_max,
    strict_lower,
    transpose,
    upper_with_diagonal,
    window_diff,
    zeros,
)
from .pipeline import WeightPipeline, get_pipeline
from .result import CheckResult, ResidualAccumulator
from .structure import pascal_matrix, psi_window
from .weights import HypergeometricWeight, Shift, shift_parameter, to_mpf


def _shift_constant(pipe: WeightPipeline, shift: Shift) -> Fraction:
    """The constant attached to a parameter shift: a_i, or b_j - 1."""
    w = pipe.weight
    if shift.kind == "a":
        return w.a[shift.index - 1]
    if shift.kind == "b":
        return w.b[shift.index - 1] - 1
    raise InvalidShift("lattice shifts select a single a or b parameter")


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
    if w.deformed:
        raise PreconditionError("contiguous relations apply to undeformed weights only")
    k = pipe.k
    win = k - 1
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        rho = pipe.table.moment

        def hankel(entry):
            return [[entry(n + m) for m in range(win)] for n in range(win)]

        for sh in valid_single_shifts(w):
            try:
                sp = pipe.shifted(sh)
            except DivergentSeries:
                continue
            c = to_mpf(_shift_constant(pipe, sh))
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
    w = pipe.weight
    c_frac = _shift_constant(pipe, shift)
    if c_frac == 0:
        raise InvalidShift(f"shift constant vanishes for {shift.label()}")
    sp = pipe.shifted(shift)
    bits = pipe.bits
    size = pipe.k + 1
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        c = to_mpf(c_frac)
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
    a_hat = to_mpf(_shift_constant(pipe, r))
    a_til = to_mpf(_shift_constant(pipe, s))
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        h, hr, hs, hrs = pipe.chol.h, rp.chol.h, sp.chol.h, rs.chol.h
        for n in n_values:
            if n < 1 or n + 1 > pipe.k:
                raise PreconditionError(f"lattice index {n} outside truncation")
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
    fd_step: Fraction,
    halvings: int,
) -> CheckResult:
    """The coupled difference system for squared norms and recurrence diagonal
    under one parameter shift, the boundary identity, and the flow derivative
    of the norm ratio (engine value with a finite-difference witness)."""
    bits = pipe.bits
    rp = pipe.shifted(r)
    a_hat_frac = _shift_constant(pipe, r)
    if a_hat_frac == 0:
        raise InvalidShift(f"shift constant vanishes for {r.label()}")
    a_hat = to_mpf(a_hat_frac)
    for n in n_values:
        if n < 1 or n + 2 > pipe.k:
            raise PreconditionError(f"lattice index {n} outside truncation")
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        h, hr = pipe.chol.h, rp.chol.h
        beta, beta_r = pipe.jac.beta, rp.jac.beta
        jets = _log_jets(pipe, max(n_values) + 2, [(1, 0, 0)])
        jets_r = _log_jets(rp, max(n_values) + 1, [(1, 0, 0)])
        engines = {}

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
            # u-hat-bar/u-hat - u-bar/u (FD witness below confirms the sign).
            ratio = h[n] / (a_hat * hr[n - 1])
            engine = engines[n] = ratio * (
                _dlog_h(jets, n, (1, 0, 0)) - _dlog_h(jets_r, n - 1, (1, 0, 0))
            )
            rhs = hr[n] / hr[n - 1] - h[n] / h[n - 1]
            scale3 = max(abs(engine), abs(h[n] / h[n - 1]), abs(hr[n] / hr[n - 1]), mpf(1))
            acc.add(f"ratio_flow[n={n}]", abs(engine - rhs), scale3)

        # boundary identity at n = 1
        lhs = beta_r[0] * (a_hat * hr[0] / h[0])
        rhs = beta[0] * (a_hat * hr[0] / h[0]) + h[1] / h[0]
        acc.add("boundary", abs(lhs - rhs), max(abs(lhs), abs(rhs), mpf(1)))

        # FD witness with step halving for the first requested index; it reads
        # only h[n0] and h[n0 - 1], so its pipelines are built at size n0 + 1
        n0 = n_values[0]

        def ratio_quantity(mult: Fraction):
            pb = pipe.flow_scaled(1, mult, n0 + 1)
            pr = rp.flow_scaled(1, mult, n0 + 1)
            return pb.chol.h[n0] / (a_hat * pr.chol.h[n0 - 1])

        residuals = fd_convergence_study(
            lambda step: derivative_fd_crosscheck(ratio_quantity, engines[n0], step, bits),
            fd_step,
            halvings,
        )
        for i, res in enumerate(residuals):
            acc.parts[f"fd_step_{i}"] = mp.nstr(res, 8)
        acc.add("fd_final", residuals[-1], mpf(1))

        return acc.result(
            "uv_system",
            tolerance,
            window=f"n in {n_values}, shift {r.label()}",
        )


def _log_jets(pipe: WeightPipeline, count: int, alphas) -> list[dict]:
    """The log-tau jets of tau_0 .. tau_{count-1}, each over the closure of alphas."""
    return [log_tau_jet(pipe.table, n, alphas) for n in range(count)]


def _dlog_h(jets: list[dict], n: int, alpha) -> mpf:
    """d^alpha log H_n, with H_n = tau_{n+1} / tau_n; since beta_n = d/dt1 log H_n,
    alpha + (1, 0, 0) gives d^alpha beta_n."""
    return jets[n + 1][alpha] - jets[n][alpha]


def _dlog_gamma(jets: list[dict], n: int, alpha) -> mpf:
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
    coefficients as second derivatives, and the bilinear (Hirota) form."""
    if nmax + 1 > pipe.k:
        raise PreconditionError("tau cross-check range exceeds truncation")
    bits = pipe.bits
    table = pipe.table
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        # one tau jet per n gives tau_n, its first derivative and its log jet;
        # flows.tau_jet is read at call time, so a tracer patching it sees it
        tau_jets = [flows.tau_jet(table, n, [(2, 0, 0)]) for n in range(nmax + 2)]
        taus = [t[(0, 0, 0)] for t in tau_jets]
        jets = [log_jet(t, bits) for t in tau_jets]
        h = pipe.chol.h
        for n in range(nmax + 1):
            acc.add(
                f"norm_ratio[{n}]",
                abs(h[n] - taus[n + 1] / taus[n]),
                abs(h[n]),
            )
            dtau = tau_jets[n][(1, 0, 0)]
            p1 = pipe.chol.p(1, n)
            acc.add(
                f"subleading[{n}]",
                abs(p1 + dtau / taus[n]),
                max(abs(p1), mpf(1)),
            )
            dlog = _dlog_h(jets, n, (1, 0, 0))
            beta_n = pipe.jac.beta[n] if n < len(pipe.jac.beta) else None
            if beta_n is not None:
                acc.add(f"beta[{n}]", abs(beta_n - dlog), max(abs(beta_n), mpf(1)))
            if n >= 1:
                gamma_n = pipe.gamma(n)
                acc.add(
                    f"gamma[{n}]",
                    abs(gamma_n - jets[n][(2, 0, 0)]),
                    abs(gamma_n),
                )
                hirota = taus[n + 1] * taus[n - 1] / (taus[n] * taus[n])
                acc.add(
                    f"hirota[{n}]",
                    abs(jets[n][(2, 0, 0)] - hirota),
                    abs(hirota),
                )
        return acc.result(
            "tau_routes",
            tolerance,
            window=f"n <= {nmax}",
        )


def toda_check(
    pipe: WeightPipeline,
    nmax: int,
    z_samples: list,
    fd_step: Fraction,
    tolerance: Fraction,
) -> CheckResult:
    """First-flow Toda system and equation for the recurrence data, with engine
    derivatives on one side and factorization data on the other; the polynomial
    flow relation is witnessed by finite differences."""
    if nmax + 2 > pipe.k:
        raise PreconditionError("Toda range exceeds truncation")
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        jets = _log_jets(pipe, nmax + 3, [(2, 0, 0)])
        h = pipe.chol.h
        beta = pipe.jac.beta

        for n in range(nmax + 1):
            gamma_next = pipe.gamma(n + 1)
            gamma_n = pipe.gamma(n)
            d2q = _dlog_h(jets, n, (2, 0, 0))
            scale = max(abs(gamma_next), abs(gamma_n), mpf(1))
            acc.add(f"system_beta[{n}]", abs(d2q - (gamma_next - gamma_n)), scale)

            if n >= 1:
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

        # polynomial flow relation, FD-witnessed
        for z in z_samples:
            for n in (min(2, nmax), min(4, nmax)):
                if n < 1:
                    continue

                def poly_quantity(mult: Fraction, z=z, n=n):
                    return pipe.flow_scaled(1, mult).p_vector(z, n + 1)[n]

                engine = -pipe.gamma(n) * pipe.p_vector(z, n)[n - 1]
                res = derivative_fd_crosscheck(poly_quantity, engine, fd_step, bits)
                acc.add(f"poly_flow[n={n},z={mp.nstr(to_mpf(z), 6)}]", res, mpf(1))

        return acc.result(
            "toda",
            tolerance,
            window=f"n <= {nmax}",
        )


def fd_feasible_flows(pipe: WeightPipeline) -> tuple[int, ...]:
    """The flows among 1 and 2 whose parameter can be nudged by (1 +- step)
    without losing convergence: flow 1 away from the unit circle, flow 2 only
    when its deformation is strictly inside it."""
    from .weights import classify_convergence

    w = pipe.weight
    kind = classify_convergence(w).kind
    out = []
    if kind in ("all_eta", "finite_support") or (kind == "unit_disk" and abs(w.eta) < 1):
        out.append(1)
    if abs(w.eta2) < 1:
        out.append(2)
    return tuple(out)


def sato_wilson_check(
    pipe: WeightPipeline,
    fd_step: Fraction,
    halvings: int,
    tolerance: Fraction,
) -> CheckResult:
    """Factorization-level, operator-level, and compatibility-level forms of the
    flow equations: diagonal norm derivatives against powers of the recurrence
    matrix, the strictly-lower dressing factor against the FD-differentiated
    triangular factor, the Lax equation entrywise, and the (1,2) zero-curvature
    equation assembled by the chain rule on engine derivatives.

    Engine parts run for flows 1 and 2 (the derivative at a unit deformation
    parameter is still an index shift); the FD witness runs only for flows
    whose parameter can actually be perturbed.
    """
    bits = pipe.bits
    kj = pipe.jac.size
    flows = (1, 2)
    fd_flows = fd_feasible_flows(pipe)
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        j = pipe.jac.dense
        powers = {1: j, 2: mat_mul(j, j)}
        jets = _log_jets(pipe, kj + 1, [(2, 1, 0)])
        h_floor = pipe.chol.h_floor()

        for l in flows:
            jl = powers[l]
            alpha = (1, 0, 0) if l == 1 else (0, 1, 0)
            up_alpha = (alpha[0] + 1, alpha[1], alpha[2])

            # (a) diagonal norm derivatives
            jl_diag = diagonal_of(jl, 0)[: kj - l]
            errors = [_dlog_h(jets, n, alpha) - x for n, x in enumerate(jl_diag)]
            acc.add(f"diag_flow_{l}", max_abs([errors]), max(h_floor, max_abs([jl_diag]), mpf(1)))

            # (b) dressing factor against FD of the triangular factor
            if l in fd_flows:
                win = kj - l
                jl_minus = strict_lower(jl)
                scale = max(max_abs(jl_minus, win), mpf(1))

                def phi_residual(step: Fraction) -> mpf:
                    ds = central_difference(
                        pipe.flow_scaled(l, 1 + step).chol.s,
                        pipe.flow_scaled(l, 1 - step).chol.s,
                        step,
                    )
                    phi = mat_mul(ds, pipe.chol.s_inv)
                    return out_of_band_max(mat_add(phi, jl_minus), 0, win, win) / scale

                fd_residuals = fd_convergence_study(phi_residual, fd_step, halvings)
                for i, res in enumerate(fd_residuals):
                    acc.parts[f"phi_fd_{l}_step_{i}"] = mp.nstr(res, 8)
                acc.add(f"phi_fd_{l}", fd_residuals[-1], mpf(1))

            # (c) Lax equation entrywise on the interior window
            win = kj - (l + 2)
            lax_rhs = commutator(upper_with_diagonal(jl), j)
            engine = zeros(win)
            for n in range(win):
                engine[n][n] = _dlog_h(jets, n, up_alpha)
                if n:
                    engine[n][n - 1] = pipe.gamma(n) * _dlog_gamma(jets, n, alpha)
            diff, _ = window_diff(engine, lax_rhs, win)
            acc.add(f"lax_{l}", diff, max(max_abs(lax_rhs, win), mpf(1)))

        # (d) zero-curvature for the (1, 2) pair
        win = kj - 4
        d1_j2_plus = zeros(kj)
        d2_j_plus = zeros(kj)
        for n in range(win + 1):
            db1 = _dlog_h(jets, n, (2, 0, 0))
            d1_gamma_n = pipe.gamma(n) * _dlog_gamma(jets, n, (1, 0, 0)) if n else mpf(0)
            d1_gamma_next = pipe.gamma(n + 1) * _dlog_gamma(jets, n + 1, (1, 0, 0))
            d1_j2_plus[n][n] = 2 * pipe.jac.beta[n] * db1 + d1_gamma_n + d1_gamma_next
            d1_j2_plus[n][n + 1] = db1 + _dlog_h(jets, n + 1, (2, 0, 0))
            d2_j_plus[n][n] = _dlog_h(jets, n, (1, 1, 0))
        zs = mat_sub(
            mat_sub(d1_j2_plus, d2_j_plus),
            mat_scale(commutator(upper_with_diagonal(powers[2]), upper_with_diagonal(j)), -1),
        )
        acc.add("zero_curvature_12", max_abs(zs, win), max(max_abs(d1_j2_plus, win), mpf(1)))

        return acc.result(
            "sato_wilson",
            tolerance,
            window=f"flows {flows}, matrix size {kj}",
        )


def pearson_toda_check(
    pipe: WeightPipeline,
    fd_step: Fraction,
    tolerance: Fraction,
) -> CheckResult:
    """Compatibility of the structure matrix with the first flow: the four
    commutator equations, with matrix flow derivatives taken by central finite
    differences of the full pipeline and the dressing factors taken exactly."""
    w = pipe.weight
    if w.deformed:
        raise PreconditionError("Pearson/flow compatibility applies to undeformed weights")
    bits = pipe.bits
    kj = pipe.jac.size
    win = psi_window(w, kj) - 1
    if win < 2:
        raise PreconditionError("truncation too small for the compatibility check")

    def matrices(p: WeightPipeline) -> dict:
        a, at = p.psi_h_inv
        with workprec(bits):
            eta_inv = 1 / to_mpf(p.weight.eta)
            return {
                "1a": mat_scale(at, eta_inv),
                "1b": a,
                "2a": at,
                "2b": mat_scale(a, eta_inv),
            }

    base = matrices(pipe)
    plus = matrices(pipe.flow_scaled(1, 1 + fd_step))
    minus = matrices(pipe.flow_scaled(1, 1 - fd_step))
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        effective_tol = max(Fraction(tolerance), 10 * fd_step * fd_step)
        j = pipe.jac.dense
        phi = mat_scale(strict_lower(j), mpf(-1))
        j_plus = upper_with_diagonal(j)
        gauges = {"1a": phi, "1b": phi, "2a": j_plus, "2b": j_plus}
        h_floor = pipe.chol.h_floor()
        for name in ("1a", "1b", "2a", "2b"):
            dm = central_difference(plus[name], minus[name], fd_step)
            rhs = commutator(gauges[name], base[name])
            diff, scale = window_diff(dm, rhs, win)
            acc.add(f"compat_{name}", diff, max(scale, h_floor))
        return acc.result(
            "pearson_toda",
            effective_tol,
            window=f"leading {win} of {kj}; fd step 2^{fd_step.denominator.bit_length() - 1}",
        )


def kp_check(
    pipe: WeightPipeline,
    n_values: list[int],
    fd_step: Fraction,
    tolerance: Fraction,
) -> CheckResult:
    """The KP relation for the subleading coefficient of a triply deformed
    weight, with every mixed derivative taken by the exact determinant engine
    and the second-flow second derivative witnessed by finite differences."""
    w = pipe.weight
    if not (abs(w.eta2) < 1 and abs(w.eta3) < 1):
        raise PreconditionError("KP check needs an active deformation with |eta2|, |eta3| < 1")
    bits = pipe.bits
    needed = [(2, 0, 0), (3, 0, 0), (5, 0, 0), (2, 0, 1), (1, 2, 0)]
    with workprec(bits):
        acc = ResidualAccumulator(bits)
        jets = _log_jets(pipe, max(n_values) + 1, needed)
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

            if n >= 1:
                def p_quantity(mult: Fraction, n=n):
                    scaled = pipe.flow_scaled(2, mult)
                    return -log_tau_jet(scaled.table, n, [(1, 0, 0)])[(1, 0, 0)]

                fd = fd_flow_derivative(p_quantity, fd_step, bits, order=2)
                acc.add(
                    f"fd_witness_d22p[n={n}]",
                    abs(fd - d22p),
                    max(abs(d22p), mpf(1)),
                )
        return acc.result(
            "kp",
            tolerance,
            window=f"n in {n_values}",
        )
