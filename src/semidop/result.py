"""Named residual results produced by every identity check."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from mpmath import mpf

from .linalg import relative_row
from .moments import decimal_digits, decimal_str
from .weights import to_mpf


@dataclass
class CheckResult:
    """One verified identity: its worst residual, the scale it is relative to,
    the tolerance it was judged against, and the window it was computed on.

    components holds named sub-residuals (decimal strings) for multi-part
    checks; pass is true iff max_residual <= tolerance. provenance (the base
    pipeline and the seed) is stamped by the suite that ran the check.
    """

    name: str
    max_residual: mpf
    scale: mpf
    tolerance: mpf
    passed: bool
    window: str
    provenance: dict = field(default_factory=dict)
    components: dict = field(default_factory=dict)

    def to_json_dict(self, bits: int) -> dict:
        return {
            "name": self.name,
            "max_residual": decimal_str(self.max_residual, bits),
            "scale": decimal_str(self.scale, bits),
            "tolerance": decimal_str(self.tolerance, bits),
            "pass": self.passed,
            "window": self.window,
            "provenance": dict(sorted(self.provenance.items())),
            "components": dict(sorted(self.components.items())),
        }


def make_result(
    name: str,
    residual,
    scale,
    tolerance,
    window: str,
    components: dict | None = None,
) -> CheckResult:
    """A check's result; a Fraction scale or tolerance is rounded at the
    precision in effect. Call under workprec."""
    residual = mpf(residual) if not isinstance(residual, mpf) else residual
    scale_m = to_mpf(scale) if isinstance(scale, Fraction) else mpf(scale)
    if scale_m <= 0:
        scale_m = mpf(1)
    tol_m = to_mpf(tolerance) if isinstance(tolerance, Fraction) else mpf(tolerance)
    return CheckResult(
        name=name,
        max_residual=residual,
        scale=scale_m,
        tolerance=tol_m,
        passed=bool(residual <= tol_m),
        window=window,
        components=components or {},
    )


# a named part is rendered as ``decimal_str(part, 64)`` renders it
_PART_DIGITS = decimal_digits(64)


class ResidualAccumulator:
    """Collects named relative residuals and reports the worst one; a nan
    residual, or any residual against a non-finite scale, is the worst. Of
    equal residuals the first is the worst, so a check whose rows all read
    0 reports its first row's scale.

    Each row is formed on raw values by ``linalg.relative_row``, which wraps
    a residual and its scale only when they become the worst."""

    def __init__(self):
        self.worst = mpf(0)
        self.worst_scale = mpf(1)
        self.parts: dict[str, str] = {}

    def add(self, label: str, diff, scale) -> None:
        """Add |diff| / scale, a scale <= 0 read as 1, as the row ``label``:
        each operand rounded as ``mpf()`` rounds it, so a signed difference,
        as ``linalg.scalar_sum`` forms a row, is read by its magnitude; the
        quotient rounded once, the row kept as its 64-bit decimal string.
        Call under workprec."""
        worst = self.worst if self.parts else None
        self.parts[label], worse = relative_row(diff, scale, worst, _PART_DIGITS)
        if worse is not None:
            self.worst, self.worst_scale = worse

    def result(self, name: str, tolerance, window: str) -> CheckResult:
        """The worst residual as a check's result. Call under workprec."""
        return make_result(name, self.worst, self.worst_scale, tolerance, window, self.parts)
