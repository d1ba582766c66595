"""Regenerate reference.json: (beta, gamma) for the weights without a closed form.

Each weight's recurrence data is computed at REF_BITS and again at twice that
precision; the stored values are the REF_BITS ones, and the script refuses to
write them unless the two runs agree to MIN_REF_BITS, well beyond what the
benchmark's own BITS can resolve.

Run from the repository root:  python3 perfbench/make_reference.py
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

from semidop.moments import PrecisionContext, decimal_str  # noqa: E402
from semidop.pipeline import get_pipeline  # noqa: E402
from semidop.weights import parse_weight_spec  # noqa: E402
from workloads import BITS, REFERENCE_PATH, WORKLOADS, agreement_bits  # noqa: E402

REF_BITS = 1024
MIN_REF_BITS = BITS + 128


def recurrence(spec: str, size: int, bits: int) -> tuple[list, int]:
    jac = get_pipeline(parse_weight_spec(spec), size, PrecisionContext(mantissa_bits=bits)).jac
    return jac.beta + jac.gamma, len(jac.beta)


def main() -> int:
    items = [i for items in WORKLOADS.values() for i in items if i.oracle == "reference"]
    out = {}
    for item in items:
        t0 = time.perf_counter()
        values, nbeta = recurrence(item.spec, item.size, REF_BITS)
        check, _ = recurrence(item.spec, item.size, 2 * REF_BITS)
        agree = agreement_bits(values, [decimal_str(v, 2 * REF_BITS) for v in check], REF_BITS)
        if agree < MIN_REF_BITS:
            print(f"{item.spec}: only {agree:.1f} bits agree at {2 * REF_BITS}", file=sys.stderr)
            return 1
        strs = [decimal_str(v, REF_BITS) for v in values]
        out[item.spec] = {
            "size": item.size,
            "beta": strs[:nbeta],
            "gamma": strs[nbeta:],
            "agreement_bits_vs_double": round(agree, 1),
        }
        print(f"{item.spec}: {agree:.1f} bits agree ({time.perf_counter() - t0:.1f} s)")
    payload = {"bits": REF_BITS, "check_bits": 2 * REF_BITS, "weights": out}
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
