"""Workload items, their oracles, and the agreement measure the output gate uses.

An item is one user-visible request: either a full ``run_suite`` (what
``semidop verify`` does) or the recurrence data of one pipeline (what
``semidop recurrence`` does). Items are listed in the fixed order a pass runs
them. Every weight runs at 512 bits and the default tolerance 2^-128.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

BITS = 512
# An item fails its oracle when (beta_n, gamma_n) agree to fewer bits than this.
MIN_AGREEMENT_BITS = 200
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")


@dataclass(frozen=True)
class Item:
    kind: str  # "suite" or "recurrence"
    spec: str
    size: int
    oracle: str | None = None  # "charlier", "meixner", "reference" or None
    refusal: bool = False  # correct outcome is a typed refusal

    @property
    def item_id(self) -> str:
        return f"{self.kind}:{self.spec}@{self.size}"


DEFORMED = "eta=1/2; eta2=9/10; eta3=9/10"

WORKLOADS: dict[str, tuple[Item, ...]] = {
    "suite_contract": (
        Item("suite", "eta=7/10", 12, oracle="charlier"),
        Item("suite", "a=2; eta=1/2", 12, oracle="meixner"),
        Item("suite", "b=3/2; eta=1/2", 12),
        Item("suite", "a=3/2; b=5/2; eta=1/3", 12),
        Item("suite", DEFORMED, 8),
    ),
    "series_slow_decay": (
        Item("recurrence", "a=1,1; b=1; eta=9/10", 8, oracle="reference"),
        Item("recurrence", "a=1; eta=9/10", 8, oracle="meixner"),
        Item("recurrence", "a=1,1; b=1; eta=-9/10", 8, oracle="reference"),
        Item("recurrence", "a=1,1; b=3; eta=1", 8, refusal=True),
    ),
}


def closed_form(oracle: str, spec: str, count: int) -> tuple[list, list]:
    """Exact (beta_0..beta_{count-1}, gamma_1..gamma_{count-1}) as Fractions."""
    from semidop.weights import parse_weight_spec

    w = parse_weight_spec(spec)
    eta = w.eta
    if oracle == "charlier":
        beta = [n + eta for n in range(count)]
        gamma = [n * eta for n in range(1, count)]
    elif oracle == "meixner":
        (a,) = w.a
        beta = [(n + (n + a) * eta) / (1 - eta) for n in range(count)]
        gamma = [n * (n + a - 1) * eta / (1 - eta) ** 2 for n in range(1, count)]
    else:
        raise ValueError(f"no closed form named {oracle!r}")
    return beta, gamma


def load_reference(spec: str) -> tuple[list, list]:
    """Stored high-precision (beta, gamma) for a weight without a closed form."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        entry = json.load(fh)["weights"][spec]
    return entry["beta"], entry["gamma"]


def agreement_bits(values: list, expected: list, bits: int) -> float:
    """Worst-component agreement in bits, capped at ``bits`` for exact equality.

    ``expected`` entries may be Fractions or decimal strings; they are
    converted at ``bits`` + 64 so that the reference adds no rounding of its own.
    """
    from mpmath import mpf, workprec
    from semidop.weights import to_mpf

    worst = 0
    with workprec(bits + 64):
        for x, ref in zip(values, expected, strict=True):
            ref = to_mpf(ref)
            err = abs(x - ref) / max(abs(ref), mpf(2) ** -bits)
            worst = max(worst, err)
        if worst == 0:
            return float(bits)
        return min(float(bits), -math.log2(worst))


def item_accuracy(item: Item, beta: list, gamma: list) -> float | None:
    """Agreement bits of (beta, gamma) with the item's oracle, or None without one."""
    if item.oracle is None:
        return None
    if item.oracle == "reference":
        exp_beta, exp_gamma = load_reference(item.spec)
    else:
        exp_beta, exp_gamma = closed_form(item.oracle, item.spec, len(beta))
    return agreement_bits(beta + gamma, exp_beta + exp_gamma, BITS)
