"""Shared assembly line: weight -> moments -> factorization -> structure data.

A pipeline owns one weight at one precision and truncation size and lazily
builds the derived objects, so independent checks reuse the same moment table,
factorization and structure matrix (built once, by its reference route; the
six-route check runs only when asked for). Pipelines are cached per (weight,
size, precision context, engine flag); the finite-difference (FD) witnesses
and the shifted pipelines obtain theirs through the same cache. This module
alone sets the depth of a moment table (``moment_depth``). By default a table
holds exactly rho_0 .. rho_{2k}, what the size-(k+1) factorization and so
chol -> jac -> psi read; the determinant engine's jets read inside it too. An
engine pipeline, which only the suite's base pipeline asks for, keeps slack
past rho_{2k} for ``gram_pearson``, which reads rho_{2k+N-1}, and for the
columns its FD witnesses' moments are derived from; a default request finds a
cached engine pipeline of the same weight, size and context before it builds
a table of its own. The one other read of a default table, ``kp``'s
first-order jets of tau_n, reaches rho_{2n-1}, inside the table of a witness
of size n or more. Moment values, correctly rounded, depend on the weight
alone, so every table of a weight holds the same moments.

An FD witness is built by ``flow_scaled`` at the size its reader names: a
flow-l witness of a size-k suite at k - l - 1, the window of ``sato_wilson``
that every other reader of the flow reads inside (``uv_system`` builds its
own at n0 + 1). The unpivoted LDL of a leading block of a Hankel matrix is
the leading block of the full LDL, so the witness carries the bits a size-k
one would there. It hands ``MomentTable`` its parent's table, whose lattice
pass the witness's moments are derived from when the parent holds the
columns the series reads (the engine slack holds them for the base
pipeline's witnesses); otherwise the witness walks the lattice. The values
are the same either way.

Every identity check takes the pipeline as its first argument and reads each
shared ingredient from the one property that owns it. The moment table
(``table``) and the factorization S, S^-1, H (``chol``) come from
``moments``; the rest is built once, on first use, by a builder in
``structure``:

- ``jac``: the recurrence data, with dense J as ``jac.dense``;
- ``pi`` and ``pi_inv``: the dressed Pascal pair S B^(+-1) S^-1;
- ``sigma_j``, ``theta_j``, ``theta_j_plus``, ``sigma_j_minus``: sigma(J),
  theta(J), theta(J+I) and sigma(J-I);
- ``psi``: the structure matrix sigma(J) H Pi^T;
- ``psi_h_inv``: the pair Psi H^-1, Psi^T H^-1.

Checks only read these objects; none writes into them.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from mpmath import mpf

from .errors import IndexOutOfTable, PreconditionError
from .flows import flow_scaled_weight
from .linalg import Matrix
from .moments import (
    CholeskyFactorization,
    MomentTable,
    PrecisionContext,
    check_support,
    cholesky,
)
from .structure import (
    JacobiMatrix,
    dressed_pascal,
    jacobi_matrix,
    poly_of_jacobi,
    polynomial_vector,
    psi_h_inverse,
    psi_matrix,
    psi_structure_check,
)
from .result import CheckResult
from .weights import HypergeometricWeight, Shift, pearson_polynomials, shift_parameter

# Engine depth past rho_{2k}, the deepest entry of the size-(k+1)
# factorization, which the determinant engine's jets read inside. The slack
# holds gram_pearson's rho_{2k+N-1} and the columns the binomial series of the
# base pipeline's FD witnesses reads (``MomentTable``'s parent): a flow-l
# witness at size k - l - 1 stops at rho_{2k - 2l - 2}, so its series has
# 2l + 2 + 8 columns to read, l (J + 1) of them for J + 1 terms.
_DEPTH_SLACK = 8


def moment_depth(weight: HypergeometricWeight, k: int, engine: bool = False) -> int:
    """Moment-table depth of a size-k pipeline.

    A default pipeline reads rho_0 .. rho_{2k}, the entries of its size-(k+1)
    factorization, and its table stops there; the determinant engine reads
    no further. An engine pipeline keeps the slack past rho_{2k}, its depth
    rounded up to a multiple of 8, for two readers: the Pearson-symmetry
    assembly theta(shift) G on the k x k window reads moments up to
    2k + N - 1, so a weight with N > 8 needs more than the slack, and the
    base pipeline's FD witnesses derive their moments from the columns past
    their own depth.
    """
    if not engine:
        return 2 * k
    depth = 2 * k + max(_DEPTH_SLACK, weight.n_degree)
    return (depth + 7) // 8 * 8


class WeightPipeline:
    def __init__(
        self,
        weight: HypergeometricWeight,
        k: int,
        ctx: PrecisionContext,
        engine: bool = False,
        parent: MomentTable | None = None,
    ):
        if k < 2:
            raise PreconditionError("pipeline needs truncation size >= 2")
        self.weight = weight
        self.k = k
        self.ctx = ctx
        self.depth = moment_depth(weight, k, engine)
        self.table = MomentTable(weight, self.depth, ctx, parent)

    @property
    def bits(self) -> int:
        return self.ctx.mantissa_bits

    @cached_property
    def chol(self) -> CholeskyFactorization:
        """The size-(k+1) factorization; a size past a finite support is refused by k."""
        check_support(self.table.classification, self.k, extra_rows=1)
        return cholesky(self.table, self.k + 1)

    @cached_property
    def jac(self) -> JacobiMatrix:
        """Recurrence data through degree k, checked only by ``coefficient_sums``."""
        return jacobi_matrix(self.chol)

    @cached_property
    def pi(self) -> Matrix:
        return dressed_pascal(self.chol.s, self.chol.s_inv, 1, self.bits)

    @cached_property
    def pi_inv(self) -> Matrix:
        return dressed_pascal(self.chol.s, self.chol.s_inv, -1, self.bits)

    @cached_property
    def sigma_j(self) -> Matrix:
        return poly_of_jacobi(pearson_polynomials(self.weight).sigma_coeffs, self.jac)

    @cached_property
    def theta_j(self) -> Matrix:
        return poly_of_jacobi(pearson_polynomials(self.weight).theta_coeffs, self.jac)

    @cached_property
    def theta_j_plus(self) -> Matrix:
        """theta(J + I)."""
        return poly_of_jacobi(pearson_polynomials(self.weight).theta_coeffs, self.jac, 1)

    @cached_property
    def sigma_j_minus(self) -> Matrix:
        """sigma(J - I)."""
        return poly_of_jacobi(pearson_polynomials(self.weight).sigma_coeffs, self.jac, -1)

    @cached_property
    def psi(self) -> Matrix:
        """The structure matrix sigma(J) H Pi^T, dense, k x k."""
        return psi_matrix(self)

    @cached_property
    def psi_h_inv(self) -> tuple[Matrix, Matrix]:
        """(Psi H^-1, Psi^T H^-1)."""
        return psi_h_inverse(self)

    def psi_check(self, tolerance: Fraction) -> CheckResult:
        """Six-route agreement and band confinement of the structure matrix."""
        return psi_structure_check(self, tolerance)

    def p_vector(self, z, count: int) -> list:
        return polynomial_vector(self.jac, z, count)

    def gamma(self, n: int):
        """gamma_n, with gamma_0 = 0."""
        if n < 0:
            raise IndexOutOfTable(f"gamma index {n} is negative")
        return self.jac.gamma[n - 1] if n else mpf(0)

    def shifted(self, shift: Shift) -> "WeightPipeline":
        return get_pipeline(shift_parameter(self.weight, shift), self.k, self.ctx)

    def flow_scaled(self, l: int, mult: Fraction, k: int) -> "WeightPipeline":
        """The FD witness of the flow-scaled weight at size k, the size its
        reader's window reads. At mult 1 the weight is unchanged, and this
        pipeline itself serves any k up to its own: the leading blocks of its
        factorization are those of a size-k one (an unpivoted LDL of a leading
        block is the leading block of the full LDL). A witness built here is
        handed this pipeline's table, from which ``MomentTable`` derives its
        moments where it can."""
        weight = flow_scaled_weight(self.weight, l, mult)
        if weight == self.weight and k <= self.k:
            return self
        return get_pipeline(weight, k, self.ctx, parent=self.table)

    def provenance(self) -> dict:
        return {
            "weight": self.weight.spec_string(),
            "size": str(self.k),
            "mantissa_bits": str(self.bits),
            "depth": str(self.depth),
        }


_CACHE: dict = {}


def get_pipeline(
    weight: HypergeometricWeight,
    k: int,
    ctx: PrecisionContext,
    engine: bool = False,
    parent: MomentTable | None = None,
) -> WeightPipeline:
    """The cached pipeline of the weight at size k. An engine pipeline (the
    suite's base pipeline) is cached apart from a default one; a default
    request is served by a cached engine pipeline before it builds its own.
    A pipeline built here is handed ``parent``, the table its moments may be
    derived from; a cached one ignores it."""
    pipe = _CACHE.get((weight, k, ctx, engine))
    if pipe is None and not engine:
        pipe = _CACHE.get((weight, k, ctx, True))
    if pipe is None:
        pipe = _CACHE[weight, k, ctx, engine] = WeightPipeline(weight, k, ctx, engine, parent)
    return pipe


def clear_cache() -> None:
    _CACHE.clear()
