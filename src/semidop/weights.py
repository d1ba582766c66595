"""Discrete weights of hypergeometric Pearson type.

A weight on the lattice {0, 1, 2, ...} is specified by parameter lists
``a``, ``b``, a leading coefficient ``eta`` and optional flow deformations
``eta2``, ``eta3``:

    w(k) = (a_1)_k ... (a_M)_k / (k! (b_1)_k ... (b_N)_k)
           * eta^k * eta2^(k^2) * eta3^(k^3)

Undeformed weights (eta2 = eta3 = 1) satisfy the difference equation
theta(k+1) w(k+1) = sigma(k) w(k) with theta(z) = z (z+b_1-1)...(z+b_N-1)
monic and sigma(z) = eta (z+a_1)...(z+a_M).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count
from math import factorial, prod
from typing import Iterable, Iterator, Sequence

from mpmath import mp, mpf
from mpmath.libmp import from_rational, round_nearest

from .errors import InvalidShift, PreconditionError, UndefinedWeight


def _frac(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(x).limit_denominator(10**12)
    return Fraction(str(x))


def to_mpf(x) -> mpf:
    """Convert int/Fraction/mpf to mpf with a single rounding at current precision."""
    if isinstance(x, Fraction):
        return mpf(from_rational(x.numerator, x.denominator, mp.prec, round_nearest))
    return mpf(x)


def is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def pochhammer(alpha, k: int):
    """Rising factorial alpha (alpha+1) ... (alpha+k-1); equals 1 for k = 0.

    Exact for int/Fraction input, mpf otherwise.
    """
    if k < 0:
        raise ValueError("pochhammer order must be nonnegative")
    if isinstance(alpha, (int, Fraction)):
        num, den = alpha.numerator, alpha.denominator
        return Fraction(prod(num + j * den for j in range(k)), den**k)
    return prod((alpha + j for j in range(k)), start=mpf(1))


@dataclass(frozen=True)
class RatioFactors:
    """The term ratio w(k+1)/w(k) of one weight with every rational cleared.

    num(k) = num prod(c + k d for (c, d) in rising) n2^(2k+1) n3^(3k^2+3k+1)
    den(k) = den (k + 1) prod(c + k d for (c, d) in falling) d2^(2k+1) d3^(3k^2+3k+1)

    (c, d) are the numerator and denominator of each a_i (rising) and b_j
    (falling); num is eta's numerator times the b_j denominators, den is
    eta's denominator times the a_i denominators; eta2 = (n2, d2) and
    eta3 = (n3, d3), or None where that parameter is 1.
    """

    num: int
    den: int
    rising: tuple[tuple[int, int], ...]
    falling: tuple[tuple[int, int], ...]
    eta2: tuple[int, int] | None
    eta3: tuple[int, int] | None


@dataclass(frozen=True)
class HypergeometricWeight:
    """Parameters of a hypergeometric Pearson weight, all exact rationals.

    eta2 = eta3 = 1 means undeformed; the Pearson-specific operations reject
    deformed weights by precondition.
    """

    a: tuple[Fraction, ...] = ()
    b: tuple[Fraction, ...] = ()
    eta: Fraction = Fraction(1)
    eta2: Fraction = Fraction(1)
    eta3: Fraction = Fraction(1)

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(_frac(x) for x in self.a))
        object.__setattr__(self, "b", tuple(_frac(x) for x in self.b))
        for name in ("eta", "eta2", "eta3"):
            object.__setattr__(self, name, _frac(getattr(self, name)))
        for bj in self.b:
            if is_nonpositive_integer(bj):
                raise UndefinedWeight(f"b parameter {bj} is a nonpositive integer")
        if abs(self.eta2) > 1 or abs(self.eta3) > 1:
            raise PreconditionError("deformation parameters must satisfy |eta2|, |eta3| <= 1")

    @cached_property
    def ratio_factors(self) -> RatioFactors:
        """The cleared integer factors of ``term_ratio``, computed once per weight."""
        num, den = self.eta.numerator, self.eta.denominator
        for bj in self.b:
            num *= bj.denominator
        for ai in self.a:
            den *= ai.denominator

        def pair(x: Fraction):
            return None if x == 1 else (x.numerator, x.denominator)

        return RatioFactors(
            num,
            den,
            tuple((ai.numerator, ai.denominator) for ai in self.a),
            tuple((bj.numerator, bj.denominator) for bj in self.b),
            pair(self.eta2),
            pair(self.eta3),
        )

    @property
    def m_degree(self) -> int:
        """M, the degree of sigma."""
        return len(self.a)

    @property
    def n_degree(self) -> int:
        """N, so that theta has degree N + 1."""
        return len(self.b)

    @property
    def deformed(self) -> bool:
        return self.eta2 != 1 or self.eta3 != 1

    def spec_string(self) -> str:
        """Canonical form of the CLI weight grammar."""
        parts = []
        if self.a:
            parts.append("a=" + ",".join(str(x) for x in self.a))
        if self.b:
            parts.append("b=" + ",".join(str(x) for x in self.b))
        parts.append(f"eta={self.eta}")
        if self.eta2 != 1:
            parts.append(f"eta2={self.eta2}")
        if self.eta3 != 1:
            parts.append(f"eta3={self.eta3}")
        return "; ".join(parts)


def parse_weight_spec(text: str) -> HypergeometricWeight:
    """Parse the weight grammar, e.g. ``a=3/2,1; b=5/2; eta=1/3; eta2=0.9``.

    Values are rationals or decimals; lists are comma separated; every field
    except ``eta`` is optional (eta defaults to 1 if omitted). A value that is
    not a finite rational raises ValueError naming its field.
    """
    fields: dict[str, str] = {}
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk:
            raise ValueError(f"malformed weight field {chunk!r} (expected key=value)")
        key, _, value = chunk.partition("=")
        key = key.strip().lower()
        if key in fields:
            raise ValueError(f"duplicate weight field {key!r}")
        fields[key] = value.strip()
    known = {"a", "b", "eta", "eta2", "eta3"}
    unknown = set(fields) - known
    if unknown:
        raise ValueError(f"unknown weight fields: {sorted(unknown)}")

    def value_of(key: str, text: str) -> Fraction:
        try:
            return Fraction(text)
        except (ValueError, ZeroDivisionError):
            raise ValueError(f"weight field {key!r}: {text!r} is not a rational number") from None

    def frac_list(key: str) -> tuple[Fraction, ...]:
        return tuple(value_of(key, p.strip()) for p in fields.get(key, "").split(",") if p.strip())

    return HypergeometricWeight(
        a=frac_list("a"),
        b=frac_list("b"),
        eta=value_of("eta", fields.get("eta", "1")),
        eta2=value_of("eta2", fields.get("eta2", "1")),
        eta3=value_of("eta3", fields.get("eta3", "1")),
    )


@dataclass(frozen=True)
class Shift:
    """Selector for a parameter shift: a_i -> a_i + 1, b_j -> b_j - 1, or the
    total shift raising every a and every b by one. Indices are 1-based."""

    kind: str  # "a" | "b" | "total"
    index: int = 0

    @classmethod
    def a(cls, i: int) -> "Shift":
        return cls("a", i)

    @classmethod
    def b(cls, j: int) -> "Shift":
        return cls("b", j)

    @classmethod
    def total(cls) -> "Shift":
        return cls("total", 0)

    def label(self) -> str:
        if self.kind == "total":
            return "T"
        return f"{self.kind.upper()}({self.index})"


def shift_parameter(w: HypergeometricWeight, shift: Shift) -> HypergeometricWeight:
    """Apply a parameter shift, returning a new weight.

    Raises InvalidShift when the index is out of range or a b-shift would land
    on a nonpositive integer.
    """
    if shift.kind == "a":
        if not 1 <= shift.index <= w.m_degree:
            raise InvalidShift(f"no a parameter with index {shift.index}")
        a = list(w.a)
        a[shift.index - 1] += 1
        return HypergeometricWeight(tuple(a), w.b, w.eta, w.eta2, w.eta3)
    if shift.kind == "b":
        if not 1 <= shift.index <= w.n_degree:
            raise InvalidShift(f"no b parameter with index {shift.index}")
        b = list(w.b)
        b[shift.index - 1] -= 1
        if is_nonpositive_integer(b[shift.index - 1]):
            raise InvalidShift(f"shift would make b_{shift.index} = {b[shift.index - 1]} nonpositive integer")
        return HypergeometricWeight(w.a, tuple(b), w.eta, w.eta2, w.eta3)
    if shift.kind == "total":
        a = tuple(x + 1 for x in w.a)
        b = tuple(x + 1 for x in w.b)
        return HypergeometricWeight(a, b, w.eta, w.eta2, w.eta3)
    raise InvalidShift(f"unknown shift kind {shift.kind!r}")


@dataclass(frozen=True)
class PearsonPolynomials:
    """Coefficient lists (ascending powers, exact rationals) of the Pearson pair.

    theta is monic of degree N+1 with theta(0) = 0 identically; sigma has
    leading coefficient eta and degree M.
    """

    theta_coeffs: tuple[Fraction, ...]
    sigma_coeffs: tuple[Fraction, ...]

    def theta(self, z):
        return _poly_eval(self.theta_coeffs, z)

    def sigma(self, z):
        return _poly_eval(self.sigma_coeffs, z)


def _poly_eval(coeffs: Sequence[Fraction], z):
    """The polynomial at z: exact at a rational z, else in mpf arithmetic.
    Call under workprec for an mpf z."""
    if isinstance(z, (int, Fraction)):
        acc = Fraction(0)
        for c in reversed(coeffs):
            acc = acc * z + c
        return acc
    acc = mpf(0)
    for c in reversed(coeffs):
        acc = acc * z + to_mpf(c)
    return acc


def _poly_from_roots(roots: Iterable[Fraction], lead: Fraction) -> tuple[Fraction, ...]:
    # prod (z - r) with r = -root_offset, expanded by convolution
    coeffs = [Fraction(1)]
    for r in roots:
        # multiply by (z + r)
        nxt = [Fraction(0)] * (len(coeffs) + 1)
        for i, c in enumerate(coeffs):
            nxt[i + 1] += c
            nxt[i] += c * r
        coeffs = nxt
    return tuple(c * lead for c in coeffs)


def pearson_polynomials(w: HypergeometricWeight) -> PearsonPolynomials:
    """theta(z) = z prod (z + b_j - 1), sigma(z) = eta prod (z + a_i)."""
    theta = _poly_from_roots([bj - 1 for bj in w.b], Fraction(1))
    theta = (Fraction(0),) + theta  # multiply by z
    sigma = _poly_from_roots(list(w.a), w.eta)
    return PearsonPolynomials(theta, sigma)


def weight_value(w: HypergeometricWeight, k: int) -> mpf:
    """Evaluate w(k) at a lattice point, rounded once. Call under workprec."""
    if k < 0:
        raise ValueError("lattice points are nonnegative integers")
    value = w.eta**k * w.eta2 ** (k * k) * w.eta3 ** (k * k * k) / factorial(k)
    for ai in w.a:
        value *= pochhammer(ai, k)
    for bj in w.b:  # (b)_k != 0: no b is a nonpositive integer
        value /= pochhammer(bj, k)
    return to_mpf(value)


def term_ratio(w: HypergeometricWeight, k: int) -> tuple[int, int]:
    """w(k+1)/w(k) as an unreduced integer pair (numerator, positive denominator).

    The ratio is eta (a_1+k)...(a_M+k) / ((k+1) (b_1+k)...(b_N+k)) times
    eta2^(2k+1) eta3^(3k^2+3k+1), read from the weight's cleared integer
    factors (``ratio_factors``).
    """
    f = w.ratio_factors
    num, den = f.num, f.den * (k + 1)
    for c, d in f.rising:
        num *= c + k * d
    for c, d in f.falling:
        den *= c + k * d
    if f.eta2:
        e = 2 * k + 1
        num *= f.eta2[0] ** e
        den *= f.eta2[1] ** e
    if f.eta3:
        e = 3 * k * k + 3 * k + 1
        num *= f.eta3[0] ** e
        den *= f.eta3[1] ** e
    return (-num, -den) if den < 0 else (num, den)


def fixed_point_terms(w: HypergeometricWeight, scale: int) -> Iterator[tuple[int, int]]:
    """(W_k, e_k) for k = 0, 1, ...: W_k ~ w(k) 2^scale with |W_k - w(k) 2^scale| <= e_k.

    W_{k+1} = floor(W_k num_k / den_k) by the exact term ratio, and
    e_{k+1} = ceil(e_k |num_k| / den_k) + 1, the 1 only for an inexact division;
    every lattice walk of the package reads its terms here.
    """
    value, err = 1 << scale, 0
    for k in count():
        yield value, err
        num, den = term_ratio(w, k)
        value, rem = divmod(value * num, den)
        err = -(-err * abs(num) // den) + (1 if rem else 0)


@dataclass(frozen=True)
class ConvergenceClass:
    """Moment-convergence classification.

    kind is one of "all_eta", "finite_support", "unit_disk", "boundary",
    "divergent"; q is the last supported lattice point for finite support.
    """

    kind: str
    q: int | None = None

    @property
    def converges(self) -> bool:
        return self.kind != "divergent"

    @property
    def support_cap(self) -> int | None:
        """Maximum usable truncation size (q+1) for finite support, else None."""
        return None if self.q is None else self.q + 1

    def holds(self, k: int) -> bool:
        """Whether a size-k truncation fits: at most q + 1 for finite support."""
        return self.q is None or k <= self.support_cap


def classify_convergence(w: HypergeometricWeight) -> ConvergenceClass:
    """Classify the weight by the standard convergence cases.

    Finite support wins whenever some a_i is a nonpositive integer, or when
    eta, eta2 or eta3 is 0: then w(k) = 0 for every k >= 1, so the support is
    {0}. A deformation with |eta2| < 1 or |eta3| < 1 forces superexponential
    decay, so those weights converge for every eta.
    """
    qs = [int(-ai) for ai in w.a if is_nonpositive_integer(ai)]
    if 0 in (w.eta, w.eta2, w.eta3):
        qs.append(0)
    if qs:
        return ConvergenceClass("finite_support", min(qs))
    if abs(w.eta2) < 1 or abs(w.eta3) < 1:
        return ConvergenceClass("all_eta")
    m, n = w.m_degree, w.n_degree
    if m <= n:
        return ConvergenceClass("all_eta")
    if m == n + 1:
        if abs(w.eta) < 1:
            return ConvergenceClass("unit_disk")
        if abs(w.eta) == 1 and sum(w.b) - sum(w.a) > 0:
            return ConvergenceClass("boundary")
    return ConvergenceClass("divergent")
