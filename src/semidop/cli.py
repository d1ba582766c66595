"""Command-line interface.

Subcommands: moments, recurrence, psi (structure-matrix diagonals), verify
(run the residual suite), lattice, toda, kp (suite subsets). Exit codes:
0 all selected checks pass, 1 computational failure or failing check,
2 usage/configuration error, including a --size, --bits or --max-m above its
cap: --size and --bits follow the caps of ``report.refuse_over_caps``, and
--max-m is capped at 2 * MAX_SIZE - 2, the depth of `moments --size 64`.

Each command accepts only the flags it reads. Every command takes --weight,
--config, --size and --bits; moments adds --max-m and --out (the table as
CSV), psi adds --tol, and the suite commands add --tol, --out, --format,
--checks and --seed. Any other flag is an argparse usage error (exit 2).
"""

from __future__ import annotations

import argparse
import re
import sys
from fractions import Fraction

from mpmath import mp, workprec

from .errors import PreconditionError, SemidopError
from .linalg import diagonal_of
from .moments import MomentTable, PrecisionContext, decimal_str, moments_to_csv
from .pipeline import get_pipeline
from .report import (
    DEFAULT_SEED,
    MAX_SIZE,
    REGISTRY,
    SuiteConfig,
    applicable,
    emit_report,
    refuse_over_caps,
    run_suite,
    tolerance_in_range,
)
from .weights import HypergeometricWeight, parse_weight_spec

_DISPLAY_DIGITS = 30

def parse_tolerance(text: str) -> Fraction:
    """Accept 2^-128 style, rationals like 1/1024, or decimal literals.

    Raises ValueError unless the value is a finite number in (0, 1): a
    relative tolerance of 1 or more passes every residual.
    """
    stripped = text.strip()
    m = re.fullmatch(r"2\^(-?\d+)", stripped)
    try:
        tol = Fraction(2) ** int(m.group(1)) if m else Fraction(stripped)
    except (ValueError, ZeroDivisionError):
        raise ValueError(f"--tol {text!r} is not a number") from None
    if not tolerance_in_range(tol):
        raise ValueError(f"--tol {text!r} must be positive and below 1")
    return tol


def _tolerance(args, default: Fraction | None) -> Fraction | None:
    """The --tol value, or ``default`` when absent; a bad value is a usage error."""
    if args.tol is None:
        return default
    try:
        return parse_tolerance(args.tol)
    except ValueError as exc:
        raise PreconditionError(str(exc)) from None


def _context(args) -> PrecisionContext:
    """The precision context of --bits; a value below the floor is a usage error."""
    try:
        return PrecisionContext(mantissa_bits=args.bits)
    except ValueError as exc:
        raise PreconditionError(f"--bits {args.bits}: {exc}") from None


def _load_weight(args) -> HypergeometricWeight:
    """The weight of --config or --weight; a config file that cannot be read
    as UTF-8 text, or a spec the grammar or the weight refuses, is a usage
    error naming the flag."""
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                lines = [line.split("#", 1)[0].strip() for line in fh]
        except (OSError, UnicodeDecodeError) as exc:
            raise PreconditionError(f"--config: {exc}") from None
        flag, spec = "--config", "; ".join(line for line in lines if line)
    elif args.weight:
        flag, spec = "--weight", args.weight
    else:
        raise PreconditionError("a weight is required (--weight or --config)")
    try:
        return parse_weight_spec(spec)
    except (ValueError, SemidopError) as exc:
        raise PreconditionError(f"{flag}: {exc}") from None


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--weight", help="weight spec, e.g. 'a=3/2; b=5/2; eta=1/3'")
    parser.add_argument("--config", help="file containing a weight spec")
    parser.add_argument("--size", type=int, default=12, help="truncation size k")
    parser.add_argument("--bits", type=int, default=512, help="mantissa bits")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semidop",
        description="high-precision identity verification for semiclassical discrete "
        "orthogonal polynomials",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("moments", help="print the moment table")
    _add_common(p)
    p.add_argument("--max-m", type=int, default=None, help="highest moment index")
    p.add_argument("--out", help="also write the table as CSV to this path")

    p = sub.add_parser("recurrence", help="print recurrence data (beta, gamma, H, p1)")
    _add_common(p)

    p = sub.add_parser("psi", help="print the structure-matrix diagonals")
    _add_common(p)
    p.add_argument("--tol", help="residual tolerance (default 2^-(bits/4))")

    for name, help_text in (
        ("verify", "run the residual suite"),
        ("lattice", "lattice checks: octahedral equation and the u-v system"),
        ("toda", "first-flow checks: tau routes, system, dressing/Lax forms"),
        ("kp", "KP residuals for a deformed weight"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        p.add_argument("--tol", help="residual tolerance (default 2^-(bits/4))")
        p.add_argument("--out", help="write the report to this path")
        p.add_argument("--format", choices=("json", "csv"), default="json", help="report format")
        p.add_argument("--checks", help="comma-separated subset of the registry")
        p.add_argument("--seed", type=int, default=DEFAULT_SEED, help="sample seed")
    return parser


_SUBSETS = {
    "lattice": ("nijhoff_capel", "uv_system"),
    "toda": ("tau_routes", "toda", "sato_wilson", "pearson_toda"),
    "kp": ("kp",),
}


def _suite_config(args, w: HypergeometricWeight) -> SuiteConfig:
    checks = None
    if args.checks:
        checks = tuple(name.strip() for name in args.checks.split(",") if name.strip())
    elif args.command in _SUBSETS:
        group = _SUBSETS[args.command]
        checks = tuple(name for name in group if applicable(REGISTRY[name], w, args.size)[0])
        if not checks:
            raise PreconditionError(
                f"no {args.command!r} checks are applicable to this weight and size"
            )
    return SuiteConfig(
        weight=w,
        size=args.size,
        mantissa_bits=_context(args).mantissa_bits,
        tolerance=_tolerance(args, None),
        checks=checks,
        seed=args.seed,
    )


def _cmd_moments(args) -> int:
    w = _load_weight(args)
    ctx = _context(args)
    if args.max_m is not None and not 0 <= args.max_m <= 2 * MAX_SIZE - 2:
        raise PreconditionError(f"--max-m {args.max_m} must be between 0 and {2 * MAX_SIZE - 2}")
    if args.max_m is None and args.size < 1:
        raise PreconditionError(f"--size {args.size} must be at least 1")
    m_max = args.max_m if args.max_m is not None else 2 * args.size - 2
    table = MomentTable(w, m_max, ctx)
    for m, value in enumerate(table.values):
        print(f"{m}\t{decimal_str(value, args.bits)}")
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            moments_to_csv(table, fh)
    return 0


def _cmd_recurrence(args) -> int:
    w = _load_weight(args)
    pipe = get_pipeline(w, args.size, _context(args))
    jac = pipe.jac
    print("n\tbeta_n\tgamma_n\tH_n\tp1_n")
    with workprec(args.bits):
        for n in range(args.size):
            beta = mp.nstr(jac.beta[n], _DISPLAY_DIGITS)
            gamma = mp.nstr(pipe.gamma(n), _DISPLAY_DIGITS) if n >= 1 else "-"
            h_n = mp.nstr(pipe.chol.h[n], _DISPLAY_DIGITS)
            p1 = mp.nstr(pipe.chol.p(1, n), _DISPLAY_DIGITS)
            print(f"{n}\t{beta}\t{gamma}\t{h_n}\t{p1}")
    return 0


def _cmd_psi(args) -> int:
    w = _load_weight(args)
    window = REGISTRY["psi_routes"].requires(w, args.size)
    ctx = _context(args)
    tol = _tolerance(args, ctx.default_tolerance())
    pipe = get_pipeline(w, args.size, ctx)
    result = pipe.psi_check(tol)
    if not result.passed:
        print(f"error: structure-matrix routes disagree ({result.name})", file=sys.stderr)
        return 1
    for d in range(-w.m_degree, w.n_degree + 2):
        vals = diagonal_of(pipe.psi, d)[: max(0, window - abs(d))]
        print(f"offset {d}: " + " ".join(mp.nstr(v, 36) for v in vals))
    print(f"# valid window: {window}")
    return 0


def _cmd_suite(args) -> int:
    w = _load_weight(args)
    cfg = _suite_config(args, w)
    report = run_suite(cfg)
    width = max((len(c.name) for c in report.checks), default=10)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(
            f"{c.name:<{width}}  residual {mp.nstr(c.max_residual, 8):<14} "
            f"tol {mp.nstr(c.tolerance, 6):<10} {status}"
        )
    print(f"overall: {'PASS' if report.passed else 'FAIL'}")
    if args.out:
        emit_report(report, args.format, args.out)
    return 0 if report.passed else 1


HANDLERS = {
    "moments": _cmd_moments,
    "recurrence": _cmd_recurrence,
    "psi": _cmd_psi,
    "verify": _cmd_suite,
    "lattice": _cmd_suite,
    "toda": _cmd_suite,
    "kp": _cmd_suite,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        refuse_over_caps(args.size, args.bits, "--size", "--bits")
        return HANDLERS[args.command](args)
    except PreconditionError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except SemidopError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
