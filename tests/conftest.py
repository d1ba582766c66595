import sys
from fractions import Fraction
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from semidop import PrecisionContext, parse_weight_spec
from semidop.pipeline import get_pipeline

BITS = 256

CHARLIER = parse_weight_spec("eta=7/10")
MEIXNER = parse_weight_spec("a=2; eta=1/2")
GEN_CHARLIER = parse_weight_spec("b=3/2; eta=1/2")
GEN_MEIXNER = parse_weight_spec("a=3/2; b=5/2; eta=1/3")
DEFORMED = parse_weight_spec("eta=1/2; eta2=9/10; eta3=9/10")

FAMILIES = {
    "charlier": CHARLIER,
    "meixner": MEIXNER,
    "gen_charlier": GEN_CHARLIER,
    "gen_meixner": GEN_MEIXNER,
}


@pytest.fixture(scope="session")
def ctx():
    return PrecisionContext(mantissa_bits=BITS)


@pytest.fixture(scope="session")
def charlier_pipe(ctx):
    return get_pipeline(CHARLIER, 12, ctx)


@pytest.fixture(scope="session")
def meixner_pipe(ctx):
    return get_pipeline(MEIXNER, 12, ctx)


@pytest.fixture(scope="session")
def gen_meixner_pipe(ctx):
    return get_pipeline(GEN_MEIXNER, 12, ctx)


@pytest.fixture(scope="session")
def deformed_pipe(ctx):
    # the deformation concentrates the weight on few lattice points, so norms
    # decay superexponentially; size 8 keeps every pivot above the 256-bit floor
    return get_pipeline(DEFORMED, 8, ctx)


@pytest.fixture(scope="session")
def tol():
    return Fraction(1, 2 ** (BITS // 4))
