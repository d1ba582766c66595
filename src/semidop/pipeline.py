"""Shared assembly line: weight -> moments -> factorization -> structure data.

A pipeline owns one weight at one precision and truncation size and lazily
builds the derived objects, so independent checks reuse the same moment table,
factorization and structure matrix (built once, by its reference route; the
six-route check runs only when asked for). Pipelines are cached per (weight,
size, precision context, engine flag); the shifted pipelines and the moment
witnesses obtain theirs through the same cache. This module alone sets the
depth of a moment table (``moment_depth``). By default a table holds exactly
rho_0 .. rho_{2k}, what the size-(k+1) factorization and so chol -> jac ->
psi read; the determinant engine's jets and the order-1 flow jets of the
size-k block read inside it too. An engine pipeline, which only the suite's
base pipeline asks for, keeps slack past rho_{2k} for ``gram_pearson``, which
reads rho_{2k+N-1}, and for the moment witness, which reads rho_{2k+l}; a
default request finds a cached engine pipeline of the same weight, size and
context before it builds a table of its own. Moment values, correctly
rounded, depend on the weight alone, so every table of a weight holds the
same moments.

Flow derivatives of the factorization come from ``flow_jet``, one
``moments.flow_jet`` per (flow, order) at the largest size asked for. Their
assumption, that flow l maps rho_m to rho_{m+l}, is witnessed by the walked
tables of ``flow_scaled``, the weight with eta_l scaled by an exact rational.

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
    FlowJet,
    MomentTable,
    PrecisionContext,
    check_support,
    cholesky,
    flow_jet,
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
# holds gram_pearson's rho_{2k+N-1}, the moment witness's rho_{2k+l} (l <= 2)
# and, below size 6, kp's reads up to rho_12 (the fifth-order tau jets and the
# order-2 flow-2 jet for n <= 4).
_DEPTH_SLACK = 8


def moment_depth(weight: HypergeometricWeight, k: int, engine: bool = False) -> int:
    """Moment-table depth of a size-k pipeline.

    A default pipeline reads rho_0 .. rho_{2k}, the entries of its size-(k+1)
    factorization, and its table stops there; the determinant engine reads
    no further. An engine pipeline keeps the slack past rho_{2k}, its depth
    rounded up to a multiple of 8, for three readers: the Pearson-symmetry
    assembly theta(shift) G on the k x k window reads moments up to
    2k + N - 1, so a weight with N > 8 needs more than the slack; the moment
    witness of flow l compares the columns rho_0 .. rho_{2k} of its scaled
    weights with rho_l .. rho_{2k+l}; and kp reads up to rho_12 at any size.
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
    ):
        if k < 2:
            raise PreconditionError("pipeline needs truncation size >= 2")
        self.weight = weight
        self.k = k
        self.ctx = ctx
        self.depth = moment_depth(weight, k, engine)
        self.table = MomentTable(weight, self.depth, ctx)
        self._jets: dict[tuple[int, int], FlowJet] = {}

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

    def flow_jet(self, l: int, order: int = 1, size: int | None = None) -> FlowJet:
        """The flow-l jet of order 1 or 2 of the factorization's leading
        block of ``size`` (default k), the one jet per (flow, order): a
        cached jet of at least that size serves the request, since its
        leading blocks are those of a smaller one."""
        size = self.k if size is None else size
        jet = self._jets.get((l, order))
        if jet is None or jet.size < size:
            jet = self._jets[l, order] = flow_jet(self.chol, l, order, size)
        return jet

    def flow_scaled(self, l: int, mult: Fraction) -> "WeightPipeline":
        """The pipeline at this size of the weight with eta_l times the exact
        rational mult: a witness of the flow's index shift, whose table is
        walked."""
        return get_pipeline(flow_scaled_weight(self.weight, l, mult), self.k, self.ctx)

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
) -> WeightPipeline:
    """The cached pipeline of the weight at size k. An engine pipeline (the
    suite's base pipeline) is cached apart from a default one; a default
    request is served by a cached engine pipeline before it builds its own."""
    pipe = _CACHE.get((weight, k, ctx, engine))
    if pipe is None and not engine:
        pipe = _CACHE.get((weight, k, ctx, True))
    if pipe is None:
        pipe = _CACHE[weight, k, ctx, engine] = WeightPipeline(weight, k, ctx, engine)
    return pipe


def clear_cache() -> None:
    _CACHE.clear()
