"""Suite orchestration: check registry, configuration, reports, serialization.

The registry maps stable check names to runners and to declarations of what
each needs of the weight and the size. A suite selects by the declarations
before it builds anything, then builds one shared pipeline, whose table holds
rho_0 .. rho_{2k} as every pipeline's does, and its base factorization, runs
the selected checks in registry order, stamps every result with that
pipeline's provenance and the seed, and aggregates them. Reports are
deterministic.
"""

from __future__ import annotations

import csv
import io
import json
import random
from contextlib import contextmanager
from dataclasses import dataclass
from fractions import Fraction

from mpmath import workprec

from . import flows, integrable, structure
from .errors import PreconditionError, SemidopError
from .moments import PrecisionContext, check_support, decimal_str
from .pipeline import WeightPipeline, get_pipeline
from .result import CheckResult
from .weights import HypergeometricWeight, classify_convergence, to_mpf

DEFAULT_SEED = 20260808


# Caps on the truncation size and the mantissa bits of a suite and of every CLI
# command, refused as usage errors before anything is built. The checks are
# meant for truncations k <= ~32, and 8192 bits is sixteen times the default.
# Cost grows fast past them: on a 2-vCPU Xeon, recurrence took 17 s at size 64
# and 8192 bits, and 38 s at size 128 and 4096 bits. The dense kernels cost
# about size^3 operations on bits-wide numbers, so the two are also capped
# jointly: size^3 * bits may not pass MAX_WORK, its value at size 64 and the
# default 512 bits. Each at its cap with the other at its default stays
# accepted.
MAX_SIZE = 64
MAX_BITS = 8192
MAX_WORK = MAX_SIZE**3 * 512


def refuse_over_caps(size: int, bits: int, size_name: str, bits_name: str) -> None:
    """Raise PreconditionError, naming the two values as given, when size or
    bits passes its cap or size^3 * bits passes MAX_WORK."""
    for name, value, cap in ((size_name, size, MAX_SIZE), (bits_name, bits, MAX_BITS)):
        if value > cap:
            raise PreconditionError(f"{name} {value} exceeds the cap {cap}")
    if size**3 * bits > MAX_WORK:
        raise PreconditionError(
            f"{size_name} {size} with {bits_name} {bits} exceeds the joint cap "
            f"size^3 * bits <= {MAX_SIZE}^3 * 512"
        )


def tolerance_in_range(tol) -> bool:
    """Whether a relative tolerance is in (0, 1); 1 or more passes every residual."""
    return 0 < tol < 1


@dataclass(frozen=True)
class SuiteConfig:
    """What to verify: weight, truncation size, precision, tolerance (None
    for the precision's default), the selected checks (None selects every
    check that fits the weight and size) and the seed of the sample points.

    The FD step of the moment witness follows from the precision inside
    ``flows``, which the report echoes; series use the default term budget.
    Size and mantissa bits are capped as the CLI's --size and --bits are
    (``refuse_over_caps``)."""

    weight: HypergeometricWeight
    size: int = 12
    mantissa_bits: int = 512
    tolerance: Fraction | None = None
    checks: tuple[str, ...] | None = None
    seed: int = DEFAULT_SEED

    def __post_init__(self):
        if self.size < 3:
            raise PreconditionError("suite size must be at least 3")
        refuse_over_caps(self.size, self.mantissa_bits, "size", "mantissa_bits")
        try:
            self.context()
        except ValueError as exc:
            raise PreconditionError(str(exc)) from None
        if self.tolerance is not None and not tolerance_in_range(self.tolerance):
            raise PreconditionError(f"tolerance {self.tolerance} must be positive and below 1")
        if self.checks is not None and not self.checks:
            raise PreconditionError("selected checks must be nonempty")

    def context(self) -> PrecisionContext:
        return PrecisionContext(mantissa_bits=self.mantissa_bits)

    def tol(self) -> Fraction:
        return self.tolerance if self.tolerance is not None else self.context().default_tolerance()


@dataclass
class Report:
    config: dict
    checks: list
    passed: bool
    mantissa_bits: int

    def to_json(self) -> str:
        payload = {
            "suite": self.config,
            "checks": [c.to_json_dict(self.mantissa_bits) for c in self.checks],
            "pass": self.passed,
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["name", "max_residual", "scale", "tolerance", "pass"])
        for c in self.checks:
            writer.writerow(
                [
                    c.name,
                    decimal_str(c.max_residual, self.mantissa_bits),
                    decimal_str(c.scale, self.mantissa_bits),
                    decimal_str(c.tolerance, self.mantissa_bits),
                    c.passed,
                ]
            )
        return buf.getvalue()


# -- individual check runners ----------------------------------------------------

def _z_samples(cfg: SuiteConfig, count: int = 10) -> list[Fraction]:
    rng = random.Random(cfg.seed)
    return [Fraction(rng.randint(0, 5_000_000), 1_000_000) for _ in range(count)]


def _tolerance_only(check):
    """The runner of a check whose one varying argument is the tolerance."""
    return lambda pipe, cfg: check(pipe, cfg.tol())


def _run_psi_shift(pipe: WeightPipeline, cfg: SuiteConfig) -> CheckResult:
    return structure.structure_shift_residual(pipe, _z_samples(cfg), cfg.tol())


def _run_poly_shift(pipe: WeightPipeline, cfg: SuiteConfig) -> list[CheckResult]:
    return [
        structure.polynomial_shift_identity(pipe, coeffs, cfg.tol())
        for coeffs in ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0), Fraction(1)))
    ]


def _run_omega(pipe: WeightPipeline, cfg: SuiteConfig) -> list[CheckResult]:
    zs = _z_samples(cfg, 3)
    return [
        integrable.omega_connection_check(pipe, sh, zs, cfg.tol())
        for sh in integrable.lattice_shifts(pipe.weight, pipe.k)
    ]


def _run_nijhoff_capel(pipe: WeightPipeline, cfg: SuiteConfig) -> list[CheckResult]:
    return [
        integrable.nijhoff_capel_check(pipe, r, s, cfg.tol())
        for r, s in integrable.lattice_pairs(pipe.weight, pipe.k)
    ]


def _run_uv_system(pipe: WeightPipeline, cfg: SuiteConfig) -> list[CheckResult]:
    return [
        integrable.uv_system_check(pipe, sh, cfg.tol())
        for sh in integrable.lattice_shifts(pipe.weight, pipe.k)[:2]
    ]


def _run_toda(pipe: WeightPipeline, cfg: SuiteConfig) -> CheckResult:
    return integrable.toda_check(pipe, _z_samples(cfg, 2), cfg.tol())


@dataclass(frozen=True)
class CheckSpec:
    """A registry entry. ``requires``, beside the check, is a function of (weight, size) that
    raises PreconditionError naming what the check lacks; the check calls it at entry. None
    declares a check that fits every weight at every suite size."""

    name: str
    description: str
    runner: object
    requires: object = None


REGISTRY: dict[str, CheckSpec] = {
    spec.name: spec
    for spec in (
        CheckSpec(
            "pearson",
            "difference equation theta(k+1) w(k+1) = sigma(k) w(k) on the lattice",
            _tolerance_only(structure.pearson_check),
            requires=structure.pearson_weight,
        ),
        CheckSpec(
            "gram_pearson",
            "moment-matrix symmetry theta(shift) G = B sigma(shift) G B^T",
            _tolerance_only(structure.gram_pearson_residual),
            requires=structure.gram_pearson_window,
        ),
        CheckSpec(
            "pascal_forms",
            "dressed Pascal subdiagonals: closed forms and sum/difference identities",
            _tolerance_only(structure.pi_closed_form_check),
            requires=structure.subdiagonal_window,
        ),
        CheckSpec(
            "s_inverse",
            "subdiagonal expansion of the inverse triangular factor",
            _tolerance_only(structure.s_inverse_expansion_check),
            requires=structure.subdiagonal_window,
        ),
        CheckSpec(
            "coefficient_sums",
            "nonlocal sums for polynomial coefficients in recurrence data",
            _tolerance_only(structure.coefficient_sum_check),
        ),
        CheckSpec(
            "orthogonality",
            "direct weighted lattice sums against factorization norms",
            _tolerance_only(structure.orthogonality_check),
        ),
        CheckSpec(
            "psi_routes",
            "six assembly routes and band confinement of the shift-structure matrix",
            _tolerance_only(WeightPipeline.psi_check),
            requires=structure.psi_window,
        ),
        CheckSpec(
            "psi_diagonals",
            "extreme diagonals of the structure matrix as norm/recurrence products",
            _tolerance_only(structure.psi_extreme_diagonals),
            requires=structure.psi_window,
        ),
        CheckSpec(
            "psi_shift",
            "structure equations theta(z) P(z-1) = Psi H^-1 P(z) and its transpose mate",
            _run_psi_shift,
            requires=structure.psi_window,
        ),
        CheckSpec(
            "psi_jacobi",
            "compatibility commutators and product factorizations with the recurrence matrix",
            _tolerance_only(structure.psi_jacobi_identities),
            requires=structure.compatibility_window,
        ),
        CheckSpec(
            "structure_cholesky",
            "triangular factorizations of H theta(J^T) and sigma(J) H and their identities",
            _tolerance_only(structure.structure_cholesky_check),
            requires=structure.psi_window,
        ),
        CheckSpec(
            "poly_shift",
            "R(J) Pi = Pi R(J+-I) intertwining for small polynomials R",
            _run_poly_shift,
            requires=structure.poly_shift_window,
        ),
        CheckSpec(
            "contiguous",
            "contiguous-parameter relations of the moment matrix",
            _tolerance_only(integrable.contiguous_check),
            requires=structure.pearson_weight,
        ),
        CheckSpec(
            "omega",
            "bidiagonal connection matrices for single parameter shifts",
            _run_omega,
            requires=integrable.lattice_shifts,
        ),
        CheckSpec(
            "nijhoff_capel",
            "octahedral lattice equation for squared norms under two parameter shifts",
            _run_nijhoff_capel,
            requires=integrable.lattice_pairs,
        ),
        CheckSpec(
            "uv_system",
            "coupled difference system for norms and recurrence diagonal under one shift",
            _run_uv_system,
            requires=integrable.lattice_shifts,
        ),
        CheckSpec(
            "tau_routes",
            "factorization data against determinant derivatives, including the bilinear form",
            _tolerance_only(integrable.tau_route_check),
        ),
        CheckSpec(
            "toda",
            "first-flow system and second-order equation for the recurrence data",
            _run_toda,
        ),
        CheckSpec(
            "sato_wilson",
            "dressing-factor, Lax, and zero-curvature forms of the flow equations",
            _tolerance_only(integrable.sato_wilson_check),
            requires=integrable.zero_curvature_window,
        ),
        CheckSpec(
            "pearson_toda",
            "compatibility of the structure matrix with the first flow",
            _tolerance_only(integrable.pearson_toda_check),
            requires=structure.compatibility_window,
        ),
        CheckSpec(
            "kp",
            "KP relation for the subleading coefficient of a triply deformed weight",
            _tolerance_only(integrable.kp_check),
            requires=integrable.active_deformation,
        ),
    )
}

CHECK_ORDER = tuple(REGISTRY)


def applicable(spec: CheckSpec, w: HypergeometricWeight, size: int) -> tuple[bool, str]:
    """Whether the check's declaration admits the weight at this size, and why not."""
    if spec.requires is not None:
        try:
            spec.requires(w, size)
        except PreconditionError as exc:
            return False, str(exc)
    return True, ""


def select_checks(cfg: SuiteConfig) -> list[str]:
    """Select by the declarations, building nothing: automatic selection drops a
    check that does not fit; an explicit request for one is a configuration error."""
    w, size = cfg.weight, cfg.size
    if cfg.checks is None:
        return [name for name in CHECK_ORDER if applicable(REGISTRY[name], w, size)[0]]
    unknown = [name for name in cfg.checks if name not in REGISTRY]
    if unknown:
        raise PreconditionError(f"unknown checks: {', '.join(unknown)}")
    for name in cfg.checks:
        ok, reason = applicable(REGISTRY[name], w, size)
        if not ok:
            raise PreconditionError(f"check {name!r} not applicable at size {size}: {reason}")
    return [name for name in CHECK_ORDER if name in cfg.checks]


@contextmanager
def _stage(name: str):
    """Prefix a SemidopError raised inside once with ``[name]``: the same
    exception, its type and fields kept."""
    try:
        yield
    except SemidopError as exc:
        exc.args = (f"[{name}] {exc}",)
        raise


def run_suite(cfg: SuiteConfig) -> Report:
    """Refuse a base factorization past a finite support, build it (a refusal
    names the ``factorization`` stage, not the first check that reads it),
    then run the selected checks against one shared pipeline and aggregate."""
    check_support(classify_convergence(cfg.weight), cfg.size, extra_rows=1)
    selected = select_checks(cfg)
    pipe = get_pipeline(cfg.weight, cfg.size, cfg.context())
    with _stage("factorization"):
        pipe.chol
    results: list[CheckResult] = []
    for name in selected:
        with _stage(name):
            outcome = REGISTRY[name].runner(pipe, cfg)
        if isinstance(outcome, list):
            results.extend(outcome)
        else:
            results.append(outcome)
    for res in results:
        res.provenance = {**pipe.provenance(), "seed": str(cfg.seed)}
    with workprec(cfg.mantissa_bits):
        tolerance = to_mpf(cfg.tol())
        fd_step = to_mpf(flows.default_fd_step(cfg.mantissa_bits))
    config_echo = {
        "weight": cfg.weight.spec_string(),
        "size": str(cfg.size),
        "mantissa_bits": str(cfg.mantissa_bits),
        "tolerance": decimal_str(tolerance, 64),
        "checks": list(selected),
        "lattice_n": [str(n) for n in integrable.LATTICE_N],
        "fd_step": decimal_str(fd_step, 64),
        "seed": str(cfg.seed),
    }
    passed = all(r.passed for r in results)
    return Report(config_echo, results, passed, cfg.mantissa_bits)


def emit_report(report: Report, fmt: str, path) -> None:
    """Write the report as JSON (full-precision decimal strings) or CSV."""
    if fmt not in ("json", "csv"):
        raise ValueError(f"unknown report format {fmt!r}")
    text = report.to_json() if fmt == "json" else report.to_csv()
    if hasattr(path, "write"):
        path.write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
