"""Shared assembly line: weight -> moments -> factorization -> structure data.

A pipeline owns one weight at one precision and truncation size and lazily
builds the derived objects, so independent checks reuse the same moment table,
factorization and structure matrix (built once, by its reference route; the
six-route check runs only when asked for). Pipelines are cached per (weight,
size, precision context); the shifted pipelines obtain theirs through the
same cache. A size-k pipeline factors G[k+1], so its table holds exactly
rho_0 .. rho_{2k}: chol -> jac -> psi, the determinant engine's jets and the
flow jets of the size-k block all read inside it, and every check reads no
further. This module sets that depth for every table the checks read.
Moment values, correctly rounded, depend on the weight alone, so every table
of a weight holds the same moments.

Flow derivatives of the factorization come from ``flow_jet``, one
``moments.flow_jet`` per (flow, order) at the largest size asked for. Their
assumption, that flow l maps rho_m to rho_{m+l}, is witnessed by the tables
of ``flow_scaled``, rho_0 .. rho_{2k} of the weight with eta_l scaled by an
exact rational. Each is a bare moment table, built where it is asked for and
cached nowhere (each witness is read once), that walks every column, where
every other table of an undeformed weight walks its Pearson base columns and
derives the rest.

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

class WeightPipeline:
    def __init__(self, weight: HypergeometricWeight, k: int, ctx: PrecisionContext):
        if k < 2:
            raise PreconditionError("pipeline needs truncation size >= 2")
        self.weight = weight
        self.k = k
        self.ctx = ctx
        self.depth = 2 * k
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

    def flow_scaled(self, l: int, mult: Fraction) -> MomentTable:
        """rho_0 .. rho_2k of the weight with eta_l times the exact rational
        mult: a witness of the flow's index shift. It walks every column, so
        that no moment it is compared on comes from the Pearson relations;
        nothing factors it, so it is a table, not a pipeline."""
        witness = flow_scaled_weight(self.weight, l, mult)
        return MomentTable(witness, self.depth, self.ctx, walk_all=True)

    def provenance(self) -> dict:
        return {
            "weight": self.weight.spec_string(),
            "size": str(self.k),
            "mantissa_bits": str(self.bits),
            "depth": str(self.depth),
        }


_CACHE: dict = {}


def get_pipeline(weight: HypergeometricWeight, k: int, ctx: PrecisionContext) -> WeightPipeline:
    """The cached pipeline of the weight at size k."""
    key = (weight, k, ctx)
    pipe = _CACHE.get(key)
    if pipe is None:
        pipe = _CACHE[key] = WeightPipeline(weight, k, ctx)
    return pipe


def clear_cache() -> None:
    _CACHE.clear()
