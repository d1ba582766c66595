"""Structure matrices and their identity checks on finite truncations.

Covers the binomial (Pascal) matrix and its dressed conjugates, the tridiagonal
recurrence matrix, the banded shift-structure matrix of a Pearson weight, and
the residual checks tying them together. Identities that hold for semi-infinite
matrices are verified on a leading window of the truncation; trimmed rows and
columns absorb the artificial boundary, with the trim width set by the
polynomial degrees involved. The structure matrix is kept dense, as its
reference route sigma(J) H Pi^T builds it; its band, offsets -M .. N+1, is
checked and read by diagonal, not stored.

Every check has one signature, ``check(pipe, ..., tolerance)``: the
``WeightPipeline`` first, then only what callers vary (``z_samples`` or
``r_coeffs``), then the tolerance. A check derives its window and its name
from the pipeline and its arguments: ``orthogonality_check`` sums degrees up
to min(8, k - 1), and ``polynomial_shift_identity`` names itself by the
degree of R. The dense ingredients
are built here, once per pipeline, and read from the pipeline's
properties: J from ``pipe.jac.dense``; sigma(J), theta(J), theta(J+I) and
sigma(J-I) from ``pipe.sigma_j``, ``pipe.theta_j``, ``pipe.theta_j_plus``
and ``pipe.sigma_j_minus`` (``poly_of_jacobi``); Psi from ``pipe.psi``
(``psi_matrix``); Psi H^-1 and Psi^T H^-1 from ``pipe.psi_h_inv``
(``psi_h_inverse``). No check writes into them, and no builder checks them;
J = S Lambda S^-1 and J H = (J H)^T are components of ``coefficient_sum_check``.
Each check calls its declaration (``report.CheckSpec``), defined here, at entry.

Every scalar row is one exact sum rounded once (``linalg.scalar_sum``): a
closed form's terms are signed products of the row's values, its integer
coefficients exact and each quotient one rounded factor; a scale is a
``max_abs``. A matrix product that a row reads only on a leading window is
formed only on that window.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb
from typing import TYPE_CHECKING

from mpmath import mp, mpf, workprec

from .errors import PreconditionError
from .linalg import (
    GramSums,
    Matrix,
    commutator,
    diag,
    diagonal_of,
    exceeds,
    identity,
    ldl_no_pivot,
    mat_add,
    mat_mul,
    mat_sub,
    max_abs,
    max_diff,
    negated_terms,
    out_of_band_max,
    poly_of_matrix,
    product_sum,
    scalar_sum,
    shift_matrix,
    three_term_values,
    transpose,
    unit_lower_inverse,
    window_diff,
    zeros,
)
from .moments import CholeskyFactorization, ldl_pivot_floor
from .result import CheckResult, ResidualAccumulator
from .weights import (
    HypergeometricWeight,
    pearson_polynomials,
    to_mpf,
    weight_values,
)

if TYPE_CHECKING:
    from .pipeline import WeightPipeline


# -- what each check requires of the weight and the truncation size -------------

def pearson_weight(w: HypergeometricWeight, size: int) -> None:
    """Declaration of pearson and contiguous: an undeformed weight."""
    if w.deformed:
        raise PreconditionError("requires an undeformed weight")


def trimmed_window(size: int, trim: int, what: str, least: int = 2) -> int:
    """size - trim, the entries an identity compares; refused below ``least``."""
    if size - trim < least:
        raise PreconditionError(f"truncation too small for {what} (window {size - trim})")
    return size - trim


def gram_pearson_window(w: HypergeometricWeight, size: int) -> int:
    """Declaration of gram_pearson: the leading window whose theta(shift) G
    reads no moment past rho_{2 size}. Entry (n, m) of a Pearson polynomial
    of degree d times G reads rho_{n+m+d}, so a degree past 2 trims
    (d - 1) // 2 rows and columns (d = max(N + 1, M)); an empty window is refused."""
    pearson_weight(w, size)
    trim = (max(w.n_degree + 1, w.m_degree) - 1) // 2
    return trimmed_window(size, trim, "the Gram-Pearson symmetry", least=1)


def subdiagonal_window(w: HypergeometricWeight, size: int) -> int:
    """Declaration of pascal_forms and s_inverse: n < size - 3 (size 5 or more)."""
    return trimmed_window(size, 3, "the subdiagonal checks")


def poly_shift_window(w: HypergeometricWeight, kj: int, degree: int = 2) -> int:
    """Declaration of poly_shift, whose R reach degree 2 (size 6 or more)."""
    return trimmed_window(kj, degree + 2, "the polynomial shift identity")


# -- Pascal matrices and falling-factorial diagonals ---------------------------

def pascal_matrix(k: int, sign: int = 1) -> list:
    """Lower binomial matrix (sign=+1) or its inverse (sign=-1), exact integers."""
    if sign not in (1, -1):
        raise ValueError("sign must be +1 or -1")
    out = [[0] * k for _ in range(k)]
    for n in range(k):
        for m in range(n + 1):
            c = comb(n, m)
            out[n][m] = c if sign == 1 else (-1) ** (n + m) * c
    return out


def pascal_subdiagonal(k_index: int, n: int) -> int:
    """Falling-factorial diagonal profile (n+k)(n+k-1)...(n+1)/k, exact.

    Coincides with the k-th subdiagonal of the binomial matrix for k <= 2;
    beyond that it is (k-1)! times the binomial entry C(n+k,k). The closed-form
    identities that genuinely involve the binomial matrix use C(n+k,k) instead.
    """
    if k_index < 1:
        raise ValueError("subdiagonal index must be >= 1")
    num = 1
    for j in range(n + 1, n + k_index + 1):
        num *= j
    assert num % k_index == 0
    return num // k_index


def d_vector(k_index: int, length: int) -> list:
    return [pascal_subdiagonal(k_index, n) for n in range(length)]


def dressed_pascal(s: Matrix, s_inv: Matrix, sign: int, bits: int) -> Matrix:
    """S B^(sign) S^{-1}; lower unitriangular, window-exact at any truncation."""
    with workprec(bits):
        b = pascal_matrix(len(s), sign)
        return mat_mul(mat_mul(s, b), s_inv)


# -- recurrence data ------------------------------------------------------------

@dataclass
class JacobiMatrix:
    """Tridiagonal recurrence data: diagonal beta_0..beta_{size-1}, subdiagonal
    gamma_1..gamma_{size-1}, unit superdiagonal."""

    beta: list
    gamma: list  # gamma[i] = gamma_{i+1}
    size: int
    bits: int

    @cached_property
    def dense(self) -> Matrix:
        """J as a dense size x size matrix, built once and only read."""
        j = zeros(self.size)
        for n in range(self.size):
            j[n][n] = self.beta[n]
            if n + 1 < self.size:
                j[n][n + 1] = mpf(1)
                j[n + 1][n] = self.gamma[n]
        return j


def jacobi_matrix(chol: CholeskyFactorization) -> JacobiMatrix:
    """Recurrence coefficients from the factorization: beta_n as the difference
    of consecutive first-subdiagonal coefficients of S, gamma_n as H_n/H_{n-1}.

    Builds only; ``coefficient_sum_check`` reports J against the direct
    conjugation route S Lambda S^{-1} and the symmetry of J H.
    """
    k = chol.size
    bits = chol.table.ctx.mantissa_bits
    with workprec(bits):
        # beta_n = p1_n - p1_{n+1} with p1_n = S[n][n-1], p1_0 = 0
        beta = [
            (chol.s[n][n - 1] if n else mpf(0)) - chol.s[n + 1][n] for n in range(k - 1)
        ]
        gamma = [chol.h[n] / chol.h[n - 1] for n in range(1, k - 1)]
    return JacobiMatrix(beta=beta, gamma=gamma, size=k - 1, bits=bits)


def poly_of_jacobi(coeffs, jac: JacobiMatrix, shift: int = 0) -> Matrix:
    """The polynomial with ascending coefficients coeffs at J + shift I, dense;
    shift is -1, 0 or 1."""
    with workprec(jac.bits):
        j = jac.dense
        if shift:
            eye = identity(jac.size)
            j = mat_add(j, eye) if shift > 0 else mat_sub(j, eye)
        return poly_of_matrix(coeffs, j)


def polynomial_vector(jac: JacobiMatrix, z, count: int) -> list:
    """P_0(z) .. P_{count-1}(z) by the three-term recurrence of J."""
    with workprec(jac.bits):
        zm = to_mpf(z) if isinstance(z, Fraction) else mpf(z)
        return three_term_values(zm, jac.beta, jac.gamma, count)


# -- dressed-Pascal subdiagonal closed forms ------------------------------------

def _residual(x, expect) -> mpf:
    """x minus the closed form whose terms (c, factors...) are expect: one
    exact sum rounded once (``scalar_sum``)."""
    return scalar_sum((1, x), *negated_terms(expect))


def pi_closed_form_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Subdiagonals of the dressed Pascal pair against their closed forms in
    polynomial coefficients and recurrence data, plus the sum/difference
    identities relating them to the integer diagonals. Each row is one exact
    sum rounded once; the binomial and falling-factorial diagonals enter as
    exact ints."""
    subdiagonal_window(pipe.weight, pipe.k)
    chol, pi, pi_inv = pipe.chol, pipe.pi, pipe.pi_inv
    k = len(pi)
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        p1 = [chol.p(1, n) for n in range(k)]
        p2 = [chol.p(2, n) for n in range(k)]
        beta = pipe.jac.beta

        pi1 = diagonal_of(pi, -1)
        pim1 = diagonal_of(pi_inv, -1)
        pi2 = diagonal_of(pi, -2)
        pim2 = diagonal_of(pi_inv, -2)
        pi3 = diagonal_of(pi, -3)
        pim3 = diagonal_of(pi_inv, -3)

        def closed2(n: int, sgn: int) -> tuple:
            return (comb(n + 2, 2),), (-sgn * (n + 1), beta[n + 1]), (-sgn, p1[n + 1])

        def closed3(n: int, sgn: int) -> tuple:
            # leading term is the third subdiagonal of the binomial matrix,
            # C(n+3,3); the falling-factorial profile D^[3] is twice that
            return (
                (sgn * comb(n + 3, 3),),
                (comb(n + 2, 2), p1[n + 3]),
                (-comb(n + 3, 2), p1[n + 1]),
                (sgn * (n + 1), p2[n + 3]),
                (-sgn * (n + 3), p2[n + 2]),
                (sgn * (n + 3), p1[n + 2], p1[n + 1]),
                (-sgn * (n + 2), p1[n + 3], p1[n + 1]),
            )

        scale1 = max_abs([pi1, [1]])
        for n in range(k - 1):
            acc.add(f"first_subdiag[{n}]", _residual(pi1[n], [(n + 1,)]), scale1)
            acc.add(f"first_subdiag_inv[{n}]", _residual(pim1[n], [(-(n + 1),)]), scale1)
        scale2 = max_abs([pi2, [1]])
        for n in range(k - 3):
            acc.add(f"second_subdiag[{n}]", _residual(pi2[n], closed2(n, 1)), scale2)
            acc.add(f"second_subdiag_inv[{n}]", _residual(pim2[n], closed2(n, -1)), scale2)
        scale3 = max_abs([pi3, [1]])
        for n in range(k - 4):
            acc.add(f"third_subdiag[{n}]", _residual(pi3[n], closed3(n, 1)), scale3)
            acc.add(f"third_subdiag_inv[{n}]", _residual(pim3[n], closed3(n, -1)), scale3)

        # sum and difference identities against the integer diagonal profiles
        s1 = diagonal_of(chol.s, -1)
        s2 = diagonal_of(chol.s, -2)
        dv = d_vector(1, k)
        d2 = d_vector(2, k)
        for n in range(k - 1):
            acc.add(f"sum1[{n}]", scalar_sum((1, pi1[n]), (1, pim1[n])), scale1)
            acc.add(f"diff1[{n}]", scalar_sum((1, pi1[n]), (-1, pim1[n]), (-2 * dv[n],)), scale1)
        for n in range(k - 3):
            acc.add(f"sum2[{n}]", scalar_sum((1, pi2[n]), (1, pim2[n]), (-2 * d2[n],)), scale2)
            rhs = (2 * dv[n], s1[n + 1]), (-2 * dv[n + 1], s1[n])
            acc.add(f"diff2[{n}]", _residual(pi2[n], ((1, pim2[n]),) + rhs), scale2)
        for n in range(k - 4):
            rhs_sum = (2 * d2[n], s1[n + 2]), (-2 * d2[n + 1], s1[n])
            acc.add(f"sum3[{n}]", _residual(pi3[n], ((-1, pim3[n]),) + rhs_sum), scale3)
            rhs_diff = (
                (1, pim3[n]),
                (2 * comb(n + 3, 3),),
                (2 * dv[n], s2[n + 1]),
                (-2 * dv[n + 2], s2[n]),
                (2 * dv[n + 2], s1[n + 1], s1[n]),
                (-2 * dv[n + 1], s1[n + 2], s1[n]),
            )
            acc.add(f"diff3[{n}]", _residual(pi3[n], rhs_diff), scale3)

        return acc.result(
            "pascal_forms",
            tolerance,
            window=f"subdiagonals 1..3 over n < {k - 4}",
        )


def s_inverse_expansion_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Subdiagonals 2..4 of S^{-1} against their expansion in subdiagonals of S;
    the first is -S_{n+1,n} by construction (pinned in ``tests/test_linalg.py``)."""
    chol = pipe.chol
    k = chol.size
    subdiagonal_window(chol.table.weight, k - 1)
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        s = [diagonal_of(chol.s, -d) for d in range(0, 5)]
        si = [diagonal_of(chol.s_inv, -d) for d in range(0, 5)]
        scale = max_abs(chol.s + [[1]])

        for n in range(k - 2):
            expect = (-1, s[2][n]), (1, s[1][n + 1], s[1][n])
            acc.add(f"d2[{n}]", _residual(si[2][n], expect), scale)
        for n in range(k - 3):
            expect = (
                (-1, s[3][n]),
                (1, s[2][n + 1], s[1][n]),
                (1, s[1][n + 2], s[2][n]),
                (-1, s[1][n + 2], s[1][n + 1], s[1][n]),
            )
            acc.add(f"d3[{n}]", _residual(si[3][n], expect), scale)
        for n in range(k - 4):
            expect = (
                (-1, s[4][n]),
                (1, s[3][n + 1], s[1][n]),
                (1, s[2][n + 2], s[2][n]),
                (-1, s[2][n + 2], s[1][n + 1], s[1][n]),
                (1, s[1][n + 3], s[3][n]),
                (-1, s[1][n + 3], s[2][n + 1], s[1][n]),
                (-1, s[1][n + 3], s[1][n + 2], s[2][n]),
                (1, s[1][n + 3], s[1][n + 2], s[1][n + 1], s[1][n]),
            )
            acc.add(f"d4[{n}]", _residual(si[4][n], expect), scale)

        return acc.result(
            "s_inverse",
            tolerance,
            window=f"subdiagonals 2..4 over n < {k - 4}",
        )


def coefficient_sum_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Nonlocal expressions for polynomial coefficients in recurrence data:
    the telescoped sums for p^1 and p^2 and the third-coefficient recursion;
    J against the direct route S Lambda S^{-1} and J H against (J H)^T. The p^1
    sum starts at p^1_2: p^1_1 = -beta_0 by construction (``tests/test_integrable.py``)."""
    chol = pipe.chol
    k = chol.size
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        beta = pipe.jac.beta
        gamma = pipe.jac.gamma  # gamma[i] = gamma_{i+1}
        p = chol.p
        scale = max_abs(chol.s + [[1]])

        for n in range(1, min(k - 1, len(beta))):
            # p^1_{n+1} = -(beta_0 + ... + beta_n)
            expect = [(-1, b) for b in beta[: n + 1]]
            acc.add(f"p1[{n + 1}]", _residual(p(1, n + 1), expect), scale)
            # p^2_{n+1} = -(gamma_1 + ... + gamma_n) + sum_{l < j <= n} beta_j beta_l
            expect = [(-1, g) for g in gamma[:n]]
            expect += [(1, beta[j], beta[l]) for j in range(1, n + 1) for l in range(j)]
            acc.add(f"p2[{n + 1}]", _residual(p(2, n + 1), expect), scale)

        # telescoped third-coefficient recursion; equivalent to reading the
        # z^(n-1) coefficient off the three-term recurrence
        for n in range(k - 4):
            expect = (1, p(3, n + 3)), (1, gamma[n + 1], p(1, n + 1)), (1, beta[n + 2], p(2, n + 2))
            acc.add(f"p3[{n}]", _residual(p(3, n + 2), expect), scale)

        direct = mat_mul(mat_mul(chol.s, shift_matrix(k)), chol.s_inv, k - 1)
        j = pipe.jac.dense
        jh = mat_mul(j, diag(chol.h[: k - 1]))
        route_scale = max(max_abs(direct, k - 1), chol.h_floor)
        acc.add("j_conjugation", max_diff(direct, j, k - 1), route_scale)
        acc.add("jh_symmetry", max_diff(jh, transpose(jh), k - 1), route_scale)

        return acc.result(
            "coefficient_sums",
            tolerance,
            window=f"coefficients up to degree {k - 1}",
        )


# -- orthogonality by direct summation ------------------------------------------

def orthogonality_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Direct weighted lattice sums of P_n P_m w against the factorization
    norms, for degrees n, m <= nmax = min(8, size - 1) of the recurrence.

    This is the independent witness for the whole Hankel/elimination path: the
    polynomials are evaluated pointwise by recurrence and summed against the
    weight itself over the points 0 .. K of the pass that built the moment
    table (``MomentTable.last_point``). A finite support ends there. Otherwise
    that pass proved sum_{k > K} k^j |w(k)| <= 2^-(bits - 31) |rho_j| for every
    column j of the table, which reaches past rho_{2 nmax}, the columns the
    pass derived from the Pearson relations included; so with
    p_n(z) = sum_i c_{n,i} z^i, each sum misses at most

        |sum_{k > K} p_n(k) p_m(k) w(k)| <= 2^-(bits - 31) sum_{i,j} |c_{n,i}| |c_{m,j}| |rho_{i+j}|,

    a bound that does not read the norms under test. Where rho_{i+j} is an
    exactly zero derived column, its tail is bounded instead by that of the
    next nonzero column above it (k^j <= k^(j+1) for k >= 1). The walk runs
    to the table's K, which certifies all 2k + 1 columns, rather than to the
    earlier point that certifies only the columns 0 .. 2 nmax it reads: at
    size 12 that point cuts Meixner's walk from 720 to 682 points and lifts
    its worst row from 2^-607.6 to 2^-570.9, above the rounding floor
    (ROADMAP item 9 gives the walk a stop of its own). The weights are the
    table's ``lattice_weights(2 nmax)``: fixed-point terms W_k at scale s with
    |W_k - w(k) 2^s| <= e_k, each rounded once to the working precision. So,
    beyond that rounding of each weight and of each sum, a sum over 0 .. K
    differs from the exact-weight sum by at most 2^-s sum_k |p_n(k) p_m(k)| e_k.
    """
    jac, h = pipe.jac, pipe.chol.h
    nmax = min(8, jac.size - 1)
    bits = pipe.bits
    points = pipe.table.last_point + 1
    with workprec(bits):
        acc = ResidualAccumulator()
        gram = GramSums(nmax + 1)
        gram.add_points(enumerate(pipe.table.lattice_weights(2 * nmax)), jac.beta, jac.gamma)

        sums = gram.lower()
        for n in range(nmax + 1):
            for m in range(n + 1):
                if n == m:
                    acc.add(f"norm[{n}]", abs(sums[n][n] - h[n]), abs(h[n]))
                else:
                    acc.add(f"cross[{n},{m}]", abs(sums[n][m]), mp.sqrt(abs(h[n] * h[m])))

        return acc.result(
            "orthogonality",
            tolerance,
            window=f"degrees up to {nmax}, {points} lattice points",
        )


# -- the Pearson equation and the Pearson symmetry of the moment matrix ----------

def pearson_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """The difference equation theta(k+1) w(k+1) = sigma(k) w(k) at the lattice
    points k <= 50, with each w(k) from its Pochhammer closed form
    (``weight_values``), which does not read the term ratio, and theta and
    sigma from the coefficients of ``pearson_polynomials``, each value exact
    in integers and rounded once."""
    w = pipe.weight
    pearson_weight(w, pipe.k)
    bits = pipe.bits
    pp = pearson_polynomials(w)
    with workprec(bits):
        acc = ResidualAccumulator()
        values = weight_values(w, 52)
        for k in range(51):
            theta_k, sigma_k = pp.theta(k + 1), pp.sigma(k)
            lhs, rhs = (1, theta_k, values[k + 1]), (1, sigma_k, values[k])
            diff = scalar_sum(lhs, (-1, sigma_k, values[k]))
            acc.add(f"k={k}", diff, max_abs([[scalar_sum(lhs), scalar_sum(rhs)]]))
        return acc.result("pearson", tolerance, window="lattice points k <= 50")


def gram_pearson_residual(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """theta(shift) G versus B sigma(shift) G B^T on the leading window
    (``gram_pearson_window``).

    Both sides are Hankel. With t = n + m, entry (n, m) of theta(shift) G is
    sum_p theta_p rho_{t+p}, and since sum_{i+j=s} C(n, i) C(m, j) = C(t, s)
    (Vandermonde), that of B sigma(shift) G B^T is sum_s C(t, s) sum_q
    sigma_q rho_{s+q}. So row ``G[n,m]`` (m <= n) is the moment relation t:
    one exact sum, each Pearson coefficient a factor rounded once, relative
    to the largest entry of either side; rows of one t read one value. Both
    sides come from the shared moment table (each consumes its polynomial's
    degree in extra indices), so the residual reflects round-off and the
    Pearson property only, not truncation artifacts.
    """
    w, table = pipe.weight, pipe.table
    win = gram_pearson_window(w, pipe.k)
    bits = pipe.bits
    pp = pearson_polynomials(w)
    with workprec(bits):
        rho = table.moment
        theta_c, sigma_c = ([to_mpf(c) for c in cs] for cs in (pp.theta_coeffs, pp.sigma_coeffs))
        sides, relations = [], []
        for t in range(2 * win - 1):
            lhs = [(1, c, rho(t + p)) for p, c in enumerate(theta_c)]
            rhs = [(comb(t, s), c, rho(s + q)) for s in range(t + 1) for q, c in enumerate(sigma_c)]
            sides += [scalar_sum(*lhs), scalar_sum(*rhs)]
            relations.append(scalar_sum(*lhs, *negated_terms(rhs)))
        scale = max_abs([sides, [1]])
        acc = ResidualAccumulator()
        for n in range(win):
            for m in range(n + 1):
                acc.add(f"G[{n},{m}]", relations[n + m], scale)
        return acc.result(
            "gram_pearson",
            tolerance,
            window=f"leading {win}x{win} window (entrywise exact construction)",
        )


# -- the banded shift-structure matrix -------------------------------------------

ROUTE_NAMES = (
    "Pi^-1 H theta(J^T)",
    "sigma(J) H Pi^T",
    "Pi^-1 theta(J) H",
    "H sigma(J^T) Pi^T",
    "theta(J+I) Pi^-1 H",
    "H Pi^T sigma(J^T - I)",
)


def psi_window(w: HypergeometricWeight, kj: int, margin: int = 0) -> int:
    """Rows and columns of a size-kj structure matrix free of truncation effects,
    kj less M + N + 2 (+ margin); declaration of the psi checks and structure_cholesky."""
    pearson_weight(w, kj)
    return trimmed_window(kj, w.m_degree + w.n_degree + 2 + margin, "the structure check")


def compatibility_window(w: HypergeometricWeight, kj: int) -> int:
    """Declaration of psi_jacobi and pearson_toda, whose products with J reach a row further."""
    return psi_window(w, kj, margin=1)


def psi_matrix(pipe: WeightPipeline) -> Matrix:
    """The structure matrix by its reference route sigma(J) H Pi^T, dense."""
    kj = pipe.jac.size
    with workprec(pipe.bits):
        h = diag(pipe.chol.h[:kj])
        pi_t = transpose([row[:kj] for row in pipe.pi[:kj]])
        return mat_mul(pipe.sigma_j, mat_mul(h, pi_t))


def psi_h_inverse(pipe: WeightPipeline) -> tuple[Matrix, Matrix]:
    """A = Psi H^{-1} and its mate Psi^T H^{-1}, dense."""
    kj = pipe.jac.size
    with workprec(pipe.bits):
        h_inv = diag([1 / x for x in pipe.chol.h[:kj]])
        return mat_mul(pipe.psi, h_inv), mat_mul(transpose(pipe.psi), h_inv)


def psi_routes(pipe: WeightPipeline, window: int) -> dict:
    """The six assembly routes for the shift-structure matrix, each outer
    product formed on the leading window only; the reference route is the
    pipeline's own Psi."""
    kj = pipe.jac.size
    with workprec(pipe.bits):
        h = diag(pipe.chol.h[:kj])
        pi_t = transpose([row[:kj] for row in pipe.pi[:kj]])
        pi_inv_k = [row[:kj] for row in pipe.pi_inv[:kj]]
        theta_j = pipe.theta_j
        return {
            ROUTE_NAMES[0]: mat_mul(pi_inv_k, mat_mul(h, transpose(theta_j)), window),
            ROUTE_NAMES[1]: pipe.psi,
            ROUTE_NAMES[2]: mat_mul(pi_inv_k, mat_mul(theta_j, h), window),
            ROUTE_NAMES[3]: mat_mul(h, mat_mul(transpose(pipe.sigma_j), pi_t), window),
            ROUTE_NAMES[4]: mat_mul(pipe.theta_j_plus, mat_mul(pi_inv_k, h), window),
            ROUTE_NAMES[5]: mat_mul(h, mat_mul(pi_t, transpose(pipe.sigma_j_minus)), window),
        }


def psi_structure_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Pairwise agreement of the six routes and confinement of the reference
    route to its band (subdiagonals M, superdiagonals N+1)."""
    mdeg, ndeg = pipe.weight.m_degree, pipe.weight.n_degree
    kj = pipe.k
    window = psi_window(pipe.weight, kj)
    bits = pipe.bits
    routes = psi_routes(pipe, window)
    with workprec(bits):
        acc = ResidualAccumulator()
        blocks = list(routes.values())
        h_floor = pipe.chol.h_floor
        # a pair's scale is the larger of its routes' maxima, keeping a nan
        tops = [max_abs(b, window) for b in blocks]
        for i in range(len(blocks)):
            for j_idx in range(i + 1, len(blocks)):
                diff = max_diff(blocks[i], blocks[j_idx], window)
                scale = tops[j_idx] if exceeds(tops[j_idx], tops[i]) else tops[i]
                acc.add(f"routes {i}~{j_idx}", diff, max(scale, h_floor))
        # the reference route, sigma(J) H Pi^T, is route 1
        band = out_of_band_max(blocks[1], -mdeg, ndeg + 1, window)
        acc.add("band confinement", band, max(tops[1], h_floor))
        return acc.result(
            "psi_routes",
            tolerance,
            window=f"leading {window} of {kj} (trim {ndeg + mdeg + 2})",
        )


def psi_extreme_diagonals(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Lowest subdiagonal and highest superdiagonal of the structure matrix
    against their product closed forms in the norms and recurrence data."""
    window = psi_window(pipe.weight, pipe.k)
    w, chol = pipe.weight, pipe.chol
    mdeg, ndeg = w.m_degree, w.n_degree
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        eta = to_mpf(w.eta)
        gamma = pipe.jac.gamma  # gamma[i] = gamma_{i+1}
        low = diagonal_of(pipe.psi, -mdeg)
        high = diagonal_of(pipe.psi, ndeg + 1)
        h_floor = chol.h_floor
        scale_low = max_abs([low[:window], [h_floor]])
        scale_high = max_abs([high[:window], [h_floor]])
        for n in range(window):
            # eta H_n gamma_{n+1} ... gamma_{n+M}, one exact product
            expect = (1, eta, chol.h[n], *gamma[n : n + mdeg])
            acc.add(f"low[{n}]", _residual(low[n], [expect]), scale_low)
        for n in range(window):
            # H_n gamma_{n+1} ... gamma_{n+N+1}
            expect = (1, chol.h[n], *gamma[n : n + ndeg + 1])
            acc.add(f"high[{n}]", _residual(high[n], [expect]), scale_high)
        return acc.result(
            "psi_diagonals",
            tolerance,
            window=f"extreme diagonals over n < {window}",
        )


def structure_shift_residual(
    pipe: WeightPipeline, z_samples: list, tolerance: Fraction
) -> CheckResult:
    """theta(z) P(z-1) = Psi H^{-1} P(z) and sigma(z) P(z+1) = Psi^T H^{-1} P(z)
    at sample points, on the interior window. Each row is one exact sum
    rounded once, of theta(z) p_i(z-1) and the products of row i of the
    pipeline's Psi H^{-1} (or Psi^T H^{-1}) with P(z)."""
    bits = pipe.bits
    kj = pipe.k
    window = psi_window(pipe.weight, kj)
    jac = pipe.jac
    pp = pearson_polynomials(pipe.weight)
    with workprec(bits):
        acc = ResidualAccumulator()
        a, at = pipe.psi_h_inv
        h_floor = pipe.chol.h_floor
        zs = [to_mpf(z) if isinstance(z, Fraction) else mpf(z) for z in z_samples]
        # column j of each matrix below belongs to the sample z_j
        p_at = transpose([polynomial_vector(jac, zf, kj) for zf in zs])
        sides = []
        for poly, step, m in ((pp.theta, -1, a), (pp.sigma, 1, at)):
            p_side = transpose([polynomial_vector(jac, zf + step, window) for zf in zs])
            values = diag([poly(zf) for zf in zs])
            # entry (i, j): theta(z_j) p_i(z_j - 1) rounded once, for the
            # scale, and row i at z_j, theta(z_j) p_i(z_j - 1) - (Psi H^-1
            # P(z_j))_i, one exact sum; sigma(z_j) p_i(z_j + 1) against
            # Psi^T H^-1 likewise
            rows = product_sum((1, p_side, values), (-1, m, p_at))
            sides.append((product_sum((1, p_side, values)), rows))
        (lhs_dn, down), (lhs_up, up) = sides
        for j, zf in enumerate(zs):
            scale = max_abs([[row[j] for row in lhs_dn], [row[j] for row in lhs_up], [h_floor]])
            at_z = mp.nstr(zf, 6)
            for i in range(window):
                acc.add(f"down[z={at_z}][{i}]", down[i][j], scale)
                acc.add(f"up[z={at_z}][{i}]", up[i][j], scale)
        return acc.result(
            "psi_shift",
            tolerance,
            window=f"entries 0..{window - 1} at {len(z_samples)} sample points",
        )


def psi_jacobi_identities(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Compatibility commutators and the two product factorizations linking the
    structure matrix with the recurrence matrix."""
    mdeg, ndeg = pipe.weight.m_degree, pipe.weight.n_degree
    kj = pipe.k
    window = compatibility_window(pipe.weight, kj)
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        j = pipe.jac.dense
        a, at = pipe.psi_h_inv
        h_floor = pipe.chol.h_floor

        lhs = commutator(a, j, window)
        diff, scale = window_diff(lhs, a, window)
        acc.add("commutator_down", diff, max(scale, h_floor))

        lhs = commutator(j, at, window)
        diff, scale = window_diff(lhs, at, window)
        acc.add("commutator_up", diff, max(scale, h_floor))

        up_down = mat_mul(pipe.sigma_j, pipe.theta_j_plus, window)
        diff, scale = window_diff(up_down, mat_mul(a, at, window), window)
        acc.add("product_up_down", diff, max(scale, h_floor))
        down_up = mat_mul(pipe.theta_j, pipe.sigma_j_minus, window)
        diff, scale = window_diff(down_up, mat_mul(at, a, window), window)
        acc.add("product_down_up", diff, max(scale, h_floor))

        return acc.result(
            "psi_jacobi",
            tolerance,
            window=f"leading {window} of {kj} (trim {ndeg + mdeg + 3})",
        )


def structure_cholesky_check(pipe: WeightPipeline, tolerance: Fraction) -> CheckResult:
    """Triangular factorizations of H theta(J^T) and sigma(J) H: symmetry
    prechecks, the shared diagonal, the dressed-Pascal factorization, and the
    structure-matrix factorization. The factors keep the band by construction
    (pinned in ``tests/test_linalg.py``)."""
    mdeg, ndeg = pipe.weight.m_degree, pipe.weight.n_degree
    kj = pipe.k
    window = psi_window(pipe.weight, kj)  # lies inside the factored block kf below
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        h = diag(pipe.chol.h[:kj])
        win_theta = kj - (ndeg + 2)
        win_sigma = kj - (mdeg + 1)
        a_theta = mat_mul(h, transpose(pipe.theta_j), win_theta)
        a_sigma = mat_mul(pipe.sigma_j, h, win_sigma)
        h_floor = pipe.chol.h_floor

        for name, mat, win in (("theta", a_theta, win_theta), ("sigma", a_sigma, win_sigma)):
            sym = max_diff(mat, transpose(mat), win)
            acc.add(f"symmetry_{name}", sym, max(max_abs(mat, win), h_floor))

        kf = min(win_theta, win_sigma)
        scale_pivot = max(max_abs(a_theta, kf), max_abs(a_sigma, kf))
        floor = ldl_pivot_floor(scale_pivot, bits)
        l_theta, d_theta = ldl_no_pivot([row[:kf] for row in a_theta[:kf]], floor)
        l_sigma, d_sigma = ldl_no_pivot([row[:kf] for row in a_sigma[:kf]], floor)

        # shared diagonal
        d_scale = max(max(abs(x) for x in d_theta[:window]), h_floor)
        for n in range(window):
            acc.add(f"shared_diag[{n}]", abs(d_theta[n] - d_sigma[n]), d_scale)

        # dressed Pascal factorization
        sigma_factor = unit_lower_inverse([row[:kf] for row in l_sigma[:kf]])
        pi_fact = mat_mul(l_theta, sigma_factor, window)
        diff, scale = window_diff([row[:kf] for row in pipe.pi[:kf]], pi_fact, window)
        acc.add("pascal_factorization", diff, max(scale, mpf(1)))

        # structure-matrix factorization
        psi_fact = mat_mul(l_sigma, mat_mul(diag(d_theta), transpose(l_theta)), window)
        diff, scale = window_diff([row[:kf] for row in pipe.psi[:kf]], psi_fact, window)
        acc.add("psi_factorization", diff, max(scale, h_floor))

        return acc.result(
            "structure_cholesky",
            tolerance,
            window=f"factored block {kf}, identity window {window}",
        )


_DEGREE_NAMES = ("constant", "linear", "quadratic")


def polynomial_shift_identity(pipe: WeightPipeline, r_coeffs: tuple, tolerance: Fraction) -> CheckResult:
    """R(J) Pi^{+-1} = Pi^{+-1} R(J +- I) for a polynomial R of degree at
    most 2, named by that degree (``poly_shift_linear`` for degree 1)."""
    deg = len(r_coeffs) - 1
    kj = pipe.k
    window = poly_shift_window(pipe.weight, kj, deg)
    jac = pipe.jac
    bits = pipe.bits
    with workprec(bits):
        acc = ResidualAccumulator()
        pi_k = [row[:kj] for row in pipe.pi[:kj]]
        pi_inv_k = [row[:kj] for row in pipe.pi_inv[:kj]]
        r_j = poly_of_jacobi(r_coeffs, jac)
        r_jp = poly_of_jacobi(r_coeffs, jac, 1)
        r_jm = poly_of_jacobi(r_coeffs, jac, -1)
        diff, scale = window_diff(mat_mul(r_j, pi_k, window), mat_mul(pi_k, r_jp, window), window)
        acc.add("plus", diff, max(scale, mpf(1)))
        diff, scale = window_diff(
            mat_mul(r_j, pi_inv_k, window), mat_mul(pi_inv_k, r_jm, window), window
        )
        acc.add("minus", diff, max(scale, mpf(1)))
        return acc.result(
            f"poly_shift_{_DEGREE_NAMES[deg]}",
            tolerance,
            window=f"leading {window} of {kj} (degree {deg})",
        )
