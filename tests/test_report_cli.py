import functools
import hashlib
import json
import os
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import Phase, given, settings
from hypothesis import strategies as st
from mpmath import mpf

from semidop import (
    DivergentSeries,
    HypergeometricWeight,
    IndexOutOfTable,
    MomentTable,
    PrecisionContext,
    PreconditionError,
    SemidopError,
    SingularTruncation,
    TermBudgetExceeded,
    parse_weight_spec,
)
from semidop import integrable as integrable_module
from semidop import pipeline
import semidop.cli as cli_module
from semidop.cli import main as cli_main
from semidop.cli import parse_tolerance
from semidop.flows import tau_derivative
from semidop.moments import decimal_str
from semidop.pipeline import clear_cache, get_pipeline, moment_depth
import semidop.report as report_module
from semidop.report import (
    DEFAULT_SEED,
    MAX_BITS,
    MAX_SIZE,
    REGISTRY,
    Report,
    SuiteConfig,
    emit_report,
    run_suite,
    select_checks,
)
from semidop.result import make_result

from conftest import BITS, CHARLIER, DEFORMED, GEN_MEIXNER, MEIXNER
from test_integrable import positive_params
from test_moments import CONTRACT_MIX, SLOW_DECAY

DATA = Path(__file__).parent / "data"

SMALL = dict(size=8, mantissa_bits=BITS)


def test_check_result_invariant():
    res = make_result("x", mpf(2) ** -40, mpf(1), Fraction(1, 2**30), "w")
    assert res.passed
    res = make_result("x", mpf(2) ** -20, mpf(1), Fraction(1, 2**30), "w")
    assert not res.passed
    assert res.scale > 0


def test_select_checks_auto_charlier():
    cfg = SuiteConfig(weight=CHARLIER, **SMALL)
    names = select_checks(cfg)
    assert "gram_pearson" in names and "kp" not in names
    # no shiftable parameters: the lattice checks drop out
    assert "nijhoff_capel" not in names and "omega" not in names


def test_select_checks_auto_deformed():
    cfg = SuiteConfig(weight=DEFORMED, **SMALL)
    names = select_checks(cfg)
    assert "kp" in names and "gram_pearson" not in names


def test_explicit_inapplicable_check_is_config_error():
    cfg = SuiteConfig(weight=DEFORMED, checks=("gram_pearson",), **SMALL)
    with pytest.raises(PreconditionError):
        select_checks(cfg)
    cfg = SuiteConfig(weight=CHARLIER, checks=("no_such_check",), **SMALL)
    with pytest.raises(PreconditionError):
        select_checks(cfg)


@pytest.mark.parametrize(
    "spec, check",
    [
        ("b=1; eta=1/2", "omega"),
        ("b=1; eta=1/2", "uv_system"),
        ("a=1/2; b=1; eta=1/2", "nijhoff_capel"),
    ],
)
def test_check_needing_unavailable_shifts_is_not_applicable(spec, check, capsys):
    # b = 1 cannot be lowered, so its B(1) shift does not count
    w = parse_weight_spec(spec)
    assert check not in select_checks(SuiteConfig(weight=w, **SMALL))
    with pytest.raises(PreconditionError, match="shiftable"):
        select_checks(SuiteConfig(weight=w, checks=(check,), **SMALL))
    argv = ["verify", "--weight", spec, "--size", "8", "--bits", "128", "--checks", check]
    assert cli_main(argv) == 2
    assert "shiftable" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("spec", "pairs"),
    [
        # A(1) and B(1) both give the weight eta=1/3 once 5/2 or 3/2 cancels
        ("a=3/2; b=5/2; eta=1/3", []),
        # A(2) and B(1) both give a=1/2; b=7/2
        (
            "a=1/2,3/2; b=5/2,7/2; eta=1/3",
            ["A(1)_A(2)", "A(1)_B(1)", "A(1)_B(2)", "A(2)_B(2)", "B(1)_B(2)"],
        ),
        ("a=2/3; b=7/5; eta=3/7", ["A(1)_B(1)"]),
    ],
)
def test_a_lattice_pair_of_one_weight_has_no_row(spec, pairs, capsys):
    # a pair whose two shifted weights are one weight once common a_i and b_j
    # cancel compares a factorization with itself: its row read exactly 0
    w = parse_weight_spec(spec)
    names = select_checks(SuiteConfig(weight=w, **SMALL))
    argv = ["verify", "--weight", spec, "--size", "8", "--bits", "128", "--checks", "nijhoff_capel"]
    if not pairs:
        assert "nijhoff_capel" not in names and "omega" in names
        with pytest.raises(PreconditionError, match="one weight twice"):
            integrable_module.lattice_pairs(w, 8)
        assert cli_main(argv) == 2
        assert "one weight twice" in capsys.readouterr().err
        return
    assert "nijhoff_capel" in names
    got = [f"{r.label()}_{s.label()}" for r, s in integrable_module.lattice_pairs(w, 8)]
    assert got == pairs


HAHN_SPEC = "a=3/2,-8; b=-19/2; eta=1"  # support 0..8: sizes up to 8
KRAWTCHOUK_SPEC = "a=-10; eta=-1/2"  # support 0..10: sizes up to 10
SIZE_SWEEP = [
    (GEN_MEIXNER, range(3, 13)),
    (parse_weight_spec(HAHN_SPEC), range(3, 9)),
    (parse_weight_spec(KRAWTCHOUK_SPEC), range(3, 11)),
    (DEFORMED, range(3, 9)),
]
# checks whose only requirement is a size floor, whatever the weight
SIZE_ONLY = ("pascal_forms", "s_inverse", "poly_shift", "sato_wilson")


def _size_floors(w) -> dict:
    """The smallest size at which each check compares nonempty windows: the
    structure matrix's band trims M + N + 2, the compatibility checks one more."""
    band = w.m_degree + w.n_degree
    return {
        "pascal_forms": 5, "s_inverse": 5, "poly_shift": 6, "sato_wilson": 5,
        **dict.fromkeys(("psi_routes", "psi_diagonals", "psi_shift", "structure_cholesky"), band + 4),
        **dict.fromkeys(("psi_jacobi", "pearson_toda"), band + 5),
    }


def _no_pipeline(*args, **kwargs):
    raise AssertionError("a pipeline was built")


@pytest.mark.parametrize(
    ("weight", "sizes"), SIZE_SWEEP, ids=[w.spec_string() for w, _ in SIZE_SWEEP]
)
def test_every_size_writes_a_report_and_refuses_what_does_not_fit(weight, sizes, monkeypatch):
    selected_at = {}
    for size in sizes:
        clear_cache()
        cfg = SuiteConfig(weight=weight, size=size, mantissa_bits=BITS)
        selected = selected_at[size] = select_checks(cfg)
        rep = run_suite(cfg)
        assert rep.passed, (size, [c.name for c in rep.checks if not c.passed])
        assert all(any(c.name.startswith(n) for c in rep.checks) for n in selected)
        # every other check, requested explicitly, is refused before a pipeline exists
        with monkeypatch.context() as patched:
            patched.setattr(report_module, "get_pipeline", _no_pipeline)
            for name in set(REGISTRY) - set(selected):
                explicit = SuiteConfig(weight=weight, size=size, mantissa_bits=BITS, checks=(name,))
                with pytest.raises(PreconditionError, match=rf"'{name}' not applicable at size {size}"):
                    run_suite(explicit)
    clear_cache()
    # each floor is tight: the check runs at its floor and is refused one below
    for name, floor in _size_floors(weight).items():
        if floor in sizes and (name in SIZE_ONLY or not weight.deformed):
            assert name in selected_at[floor] and name not in selected_at[floor - 1], name


def test_lattice_checks_take_only_the_shifts_that_hold_the_size():
    # at size 8 the Hahn shift A(2), a = -8 -> -7, leaves 8 points for the
    # size-9 factorization; contiguous reads only moments and keeps it
    clear_cache()
    rep = run_suite(SuiteConfig(weight=parse_weight_spec(HAHN_SPEC), size=8, mantissa_bits=BITS))
    names = [c.name for c in rep.checks]
    assert [n for n in names if n.startswith("omega")] == ["omega_A(1)", "omega_B(1)"]
    assert "nijhoff_capel_A(1)_B(1)" in names and "uv_system_A(2)" not in names
    contiguous = next(c for c in rep.checks if c.name == "contiguous")
    assert "shift A(2)" in contiguous.components
    clear_cache()


def test_size_past_the_support_is_refused_before_any_check_runs(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(report_module, "get_pipeline", _no_pipeline)
    out = tmp_path / "rep.json"
    argv = ["verify", "--weight", HAHN_SPEC, "--size", "9", "--bits", str(BITS), "--out", str(out)]
    assert cli_main(argv) == 1
    assert "TruncationTooLarge" in capsys.readouterr().err and not out.exists()


@pytest.mark.parametrize("command", ["recurrence", "verify"])
def test_support_refusal_names_the_requested_size(command, tmp_path, capsys):
    # the Hahn weight's support 0..8 holds sizes up to 8 (a size-k request
    # factors G[k + 1]); the refusal names the size asked for, not k + 1
    argv = [command, "--weight", HAHN_SPEC, "--size", "9", "--bits", str(BITS)]
    if command == "verify":
        argv += ["--out", str(tmp_path / "rep.json")]
    assert cli_main(argv) == 1
    err = capsys.readouterr().err
    assert "admits truncations up to 8, requested 9" in err
    clear_cache()


@pytest.mark.parametrize(
    ("spec", "size"), [("a=3/2; b=5/2; eta=1/3", 5), ("eta=1/2; eta2=9/10; eta3=9/10", 8)]
)
def test_cli_psi_asks_the_declaration_before_building(spec, size, monkeypatch, capsys):
    monkeypatch.setattr(cli_module, "get_pipeline", _no_pipeline)
    assert cli_main(["psi", "--weight", spec, "--size", str(size), "--bits", str(BITS)]) == 2
    assert capsys.readouterr().err.startswith("configuration error:")


def test_empty_selection_rejected():
    with pytest.raises(PreconditionError):
        SuiteConfig(weight=CHARLIER, checks=(), **SMALL)


def test_run_suite_divergent_weight():
    cfg = SuiteConfig(weight=parse_weight_spec("a=1; eta=2"), **SMALL)
    with pytest.raises(DivergentSeries):
        run_suite(cfg)


def test_run_suite_names_the_check_of_a_builder_error(monkeypatch, capsys):
    # the builder's exception comes back with its type and fields, its message
    # prefixed once with the check that read the builder
    def singular(chol):
        raise SingularTruncation(3)

    monkeypatch.setattr(pipeline, "jacobi_matrix", singular)
    clear_cache()
    with pytest.raises(SingularTruncation) as err:
        run_suite(SuiteConfig(weight=CHARLIER, checks=("orthogonality",), **SMALL))
    assert err.value.index == 3
    assert str(err.value) == "[orthogonality] singular or near-singular pivot at index 3"
    clear_cache()
    argv = ["verify", "--weight", "eta=7/10", "--size", "8", "--bits", str(BITS)]
    assert cli_main(argv + ["--checks", "orthogonality"]) == 1
    err_text = capsys.readouterr().err
    assert err_text == (
        "error: SingularTruncation: [orthogonality] singular or near-singular pivot at index 3\n"
    )
    clear_cache()


def test_route_disagreement_is_reported_not_raised(monkeypatch, tmp_path, capsys):
    # move S[k-1][0] of the base factorization: J does not read it, the direct
    # route S Lambda S^-1 does, so the two disagree inside J's window
    real = pipeline.cholesky
    k = SMALL["size"]

    def planted(table, size):
        chol = real(table, size)
        if table.weight == CHARLIER and size == k + 1:
            chol.s[k - 1][0] += 1
        return chol

    monkeypatch.setattr(pipeline, "cholesky", planted)
    clear_cache()
    cfg = SuiteConfig(weight=CHARLIER, **SMALL)
    rep = run_suite(cfg)
    # every selected check reports; poly_shift reports under labelled names
    assert all(any(c.name.startswith(n) for c in rep.checks) for n in select_checks(cfg))
    sums = next(c for c in rep.checks if c.name == "coefficient_sums")
    assert not sums.passed and not rep.passed
    assert sums.components["j_conjugation"] == decimal_str(sums.max_residual, 64)
    assert mpf(sums.components["jh_symmetry"]) <= sums.tolerance
    out = tmp_path / "rep.json"
    argv = ["verify", "--weight", "eta=7/10", "--size", str(k), "--bits", str(BITS)]
    assert cli_main(argv + ["--out", str(out)]) == 1
    assert out.read_text() == rep.to_json()
    assert "overall: FAIL" in capsys.readouterr().out
    clear_cache()


@pytest.mark.parametrize("tolerance", [Fraction(2), Fraction(0), Fraction(-1)])
def test_suite_config_refuses_tolerance_outside_unit_interval(tolerance):
    with pytest.raises(PreconditionError, match="tolerance"):
        SuiteConfig(weight=CHARLIER, tolerance=tolerance, **SMALL)


def test_suite_config_refuses_mantissa_below_the_precision_floor():
    # PrecisionContext's floor is 64 bits; the config refuses below it up front
    for bits in (16, 63):
        with pytest.raises(PreconditionError, match="mantissa_bits"):
            SuiteConfig(weight=CHARLIER, size=6, mantissa_bits=bits)
    assert SuiteConfig(weight=CHARLIER, size=6, mantissa_bits=64).context().mantissa_bits == 64


def test_suite_config_refuses_what_the_cli_caps_refuse():
    # the CLI's caps on --size, --bits and size^3 * bits hold for a config too
    for size, bits in ((500, 100000), (MAX_SIZE + 1, 512), (12, MAX_BITS + 1), (MAX_SIZE, 513), (32, 4097)):
        with pytest.raises(PreconditionError, match="cap"):
            SuiteConfig(weight=CHARLIER, size=size, mantissa_bits=bits)
    for size, bits in ((MAX_SIZE, 512), (12, MAX_BITS), (32, 4096)):
        assert SuiteConfig(weight=CHARLIER, size=size, mantissa_bits=bits).size == size


def test_run_suite_and_roundtrip(tmp_path):
    cfg = SuiteConfig(weight=CHARLIER, checks=("pearson", "tau_routes"), **SMALL)
    rep = run_suite(cfg)
    assert rep.passed and len(rep.checks) == 2
    out = tmp_path / "r.json"
    emit_report(rep, "json", out)
    parsed = json.loads(out.read_text())
    assert parsed["pass"] is True
    assert [c["name"] for c in parsed["checks"]] == ["pearson", "tau_routes"]
    # numbers serialize as decimal strings and survive the round trip verbatim
    emitted = rep.to_json()
    assert json.loads(emitted)["checks"][0]["max_residual"] == parsed["checks"][0]["max_residual"]
    for c in parsed["checks"]:
        assert isinstance(c["max_residual"], str)
        assert isinstance(c["tolerance"], str)


def test_report_csv_shape(tmp_path):
    cfg = SuiteConfig(weight=CHARLIER, checks=("pearson",), **SMALL)
    rep = run_suite(cfg)
    out = tmp_path / "r.csv"
    emit_report(rep, "csv", out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "name,max_residual,scale,tolerance,pass"
    assert lines[1].startswith("pearson,") and lines[1].endswith(",True")


def test_empty_report_serializes():
    rep = Report({}, [], True, BITS)
    parsed = json.loads(rep.to_json())
    assert parsed["checks"] == [] and parsed["pass"] is True


def test_reports_deterministic():
    cfg = SuiteConfig(weight=CHARLIER, checks=("pearson", "toda"), **SMALL)
    first = run_suite(cfg).to_json()
    clear_cache()
    second = run_suite(cfg).to_json()
    assert first == second


def test_kp_only_suite_on_deformed():
    cfg = SuiteConfig(weight=DEFORMED, size=6, mantissa_bits=BITS, checks=("kp",))
    rep = run_suite(cfg)
    assert rep.passed and rep.checks[0].name == "kp"


def test_suite_stamps_base_provenance_on_every_result():
    # multi-result checks build shifted and FD pipelines; every result still
    # names the base pipeline the suite ran on
    checks = ("psi_routes", "omega", "uv_system")
    rep = run_suite(SuiteConfig(weight=GEN_MEIXNER, checks=checks, **SMALL))
    assert [c.name for c in rep.checks] == [
        "psi_routes", "omega_A(1)", "omega_B(1)", "uv_system_A(1)", "uv_system_B(1)",
    ]
    base = {
        "weight": "a=3/2; b=5/2; eta=1/3",
        "size": "8",
        "mantissa_bits": str(BITS),
        "depth": "24",
        "seed": str(DEFAULT_SEED),
    }
    assert all(c.provenance == base for c in rep.checks)


def test_cli_verify_spec_example():
    # `verify --weight "a=3/2; b=5/2; eta=1/3" --size 12` exits 0
    code = cli_main(["verify", "--weight", "a=3/2; b=5/2; eta=1/3", "--size", "12"])
    assert code == 0


def test_non_dyadic_shift_constants_hold_at_the_working_precision():
    # a = 2/3 and b - 1 = 2/5 are not dyadic: rounded at 53 bits they broke
    # nijhoff_capel_A(1)_B(1) (4.3e-17) and uv_system (3.6e-17, 3.1e-17)
    code = cli_main(["verify", "--weight", "a=2/3; b=7/5; eta=3/7", "--size", "12"])
    assert code == 0
    clear_cache()
    rep = run_suite(SuiteConfig(weight=parse_weight_spec("a=2/3; b=7/5; eta=3/7"), size=12))
    lattice = [c for c in rep.checks if c.name.startswith(("nijhoff_capel", "uv_system"))]
    assert len(lattice) == 3 and all(c.max_residual < mpf(2) ** -400 for c in lattice)
    clear_cache()


@st.composite
def positive_weights(draw):
    """M, N <= 2 with M <= N + 1, positive a_i and b_j, 0 < eta < 1: a weight
    positive at every point, so no moment vanishes."""
    b = tuple(draw(st.lists(positive_params, max_size=2)))
    a = tuple(draw(st.lists(positive_params, max_size=min(2, len(b) + 1))))
    eta = draw(st.fractions(min_value=Fraction(1, 16), max_value=Fraction(15, 16), max_denominator=16))
    return HypergeometricWeight(a=a, b=b, eta=eta)


# The checks that build shifted weights. A positive weight can have a shift
# whose moment is exactly zero, which no relative tail test certifies
# (ROADMAP item 1), so the shift's table is refused inside the check.
SHIFTING_CHECKS = ("contiguous", "omega", "uv_system", "nijhoff_capel")
ZERO_SHIFT_MOMENT = "ROADMAP item 1: a shifted weight's moment is exactly zero"


# Shrinking a draw costs a suite per attempt, about 280 of them after an
# item-1 xfail, so the phases leave it out; a failure reports its draw as drawn.
@settings(max_examples=20, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate))
@given(w=positive_weights(), size=st.integers(6, 8))
def test_a_positive_weight_passes_every_row_or_is_refused_before_its_checks(w, size):
    clear_cache()
    try:
        rep = run_suite(SuiteConfig(weight=w, size=size, mantissa_bits=256))
    except SemidopError as exc:
        in_shift = str(exc).startswith(tuple(f"[{name}]" for name in SHIFTING_CHECKS))
        if isinstance(exc, TermBudgetExceeded) and in_shift:
            pytest.xfail(f"{ZERO_SHIFT_MOMENT}: {exc}")
        # run_suite prefixes an error raised inside a check with the check's name
        assert not str(exc).startswith("["), exc
        return
    finally:
        clear_cache()
    assert rep.passed, [c.name for c in rep.checks if not c.passed]


@pytest.mark.xfail(strict=True, raises=TermBudgetExceeded, reason=ZERO_SHIFT_MOMENT)
def test_a_positive_weight_whose_shift_has_a_zero_moment_passes_every_row():
    # the draw that made the property fail: its B(2) shift b=1/8,-1/3 is
    # w(k) = (1 - 3k) eta^k / k!, so rho_0 = e^(1/3) (1 - 3 eta) = 0 at eta = 1/3
    w = parse_weight_spec("a=1/8,2/3; b=1/8,2/3; eta=1/3")
    clear_cache()
    try:
        rep = run_suite(SuiteConfig(weight=w, size=6, mantissa_bits=256))
    finally:
        clear_cache()
    assert rep.passed


def test_config_echo_holds_the_tolerance_at_the_working_precision():
    # the echo rounds at the suite's bits, not at mpmath's default 53
    w = parse_weight_spec("eta=7/10")
    rep = run_suite(SuiteConfig(weight=w, size=6, tolerance=Fraction(1, 3), checks=("pearson",)))
    assert rep.config["tolerance"] == "0.3333333333333333333333"
    assert rep.config["fd_step"] == decimal_str(mpf(2) ** -128, 64)
    assert "fd_halvings" not in rep.config


def test_golden_default_charlier_suite():
    cfg = SuiteConfig(weight=CHARLIER)
    rep = run_suite(cfg)
    golden = (DATA / "golden_charlier.json").read_text()
    assert rep.to_json() == golden


CONTRACT_DIGESTS = [
    ("a=2; eta=1/2", 12, "19afff37297e2176"),
    ("b=3/2; eta=1/2", 12, "4923aa4ef3323193"),
    ("a=3/2; b=5/2; eta=1/3", 12, "4e4c99abcf63ef6e"),
    ("eta=1/2; eta2=9/10; eta3=9/10", 8, "1b870d38c0ddd200"),
    # two b parameters: contiguous and omega run through B(1) and B(2)
    ("a=1/2,3/2; b=5/2,7/2; eta=1/3", 10, "140536346734cd20"),
    # the only recorded case whose determinants border a 24 x 24 leading block
    ("a=3/2; b=5/2; eta=1/3", 24, "c6352282e1fba712"),
    # shift constants 2/3 and 2/5, not dyadic: a lattice pair whose two
    # shifted weights differ, so its Nijhoff-Capel row compares two routes
    ("a=2/3; b=7/5; eta=3/7", 12, "15c9a9b5564607ea"),
]


@functools.cache
def contract_report(spec: str, size: int) -> str:
    """The suite's JSON report of the weight at 512 bits, computed once per run."""
    cfg = SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512)
    return run_suite(cfg).to_json()


# ids leave the digest out, so a regenerated digest keeps the test's name
@pytest.mark.parametrize(
    ("spec", "size", "digest"),
    CONTRACT_DIGESTS,
    ids=[f"{spec}-{size}" for spec, size, _ in CONTRACT_DIGESTS],
)
def test_contract_reports_byte_identical(spec, size, digest):
    # the golden file pins Charlier, where sigma and theta are trivial; these
    # weights carry nontrivial Pearson polynomials through every product
    emitted = contract_report(spec, size).encode()
    assert hashlib.sha256(emitted).hexdigest()[:16] == digest


def row_family(check: str, label: str) -> tuple:
    """A row's family: its check without the shifts in its name, and its
    label without indices (``d2[3]``, ``k=12``, ``down[z=0.5][3]``)."""
    return re.sub(r"(_[AB]\(\d+\))+$", "", check), re.sub(r"\[[^\]]*\]|=[^\]\s]*$", "", label)


def test_every_row_family_can_fail():
    # a family that reads exactly 0 on every row of these reports compares a
    # value with itself: its identity belongs in a kernel test, not in every
    # report. Beside the pinned weights, a=4/3; eta=-1/3, whose dressed Pascal
    # first subdiagonal reads rounding where theirs read 0
    weights = [(spec, size) for spec, size, _ in CONTRACT_DIGESTS] + [("a=4/3; eta=-1/3", 10)]
    readings = {}
    for spec, size in weights:
        for check in json.loads(contract_report(spec, size))["checks"]:
            for label, value in check["components"].items():
                family = row_family(check["name"], label)
                readings[family] = readings.get(family, False) or mpf(value) != 0
    assert len(readings) > 90
    assert [family for family, moved in readings.items() if not moved] == []


def test_suite_leaves_confirmation_unread():
    clear_cache()
    run_suite(SuiteConfig(weight=CHARLIER))
    chols = [p.__dict__["chol"] for p in pipeline._CACHE.values() if "chol" in p.__dict__]
    assert chols
    assert all("confirmed_bits" not in chol.__dict__ for chol in chols)
    # read afterwards, the golden pipeline's confirmation still runs
    golden = get_pipeline(CHARLIER, 12, PrecisionContext(mantissa_bits=512)).chol
    assert golden.confirmed_bits >= 512 - 64


def test_suite_runs_the_psi_route_check_once(monkeypatch):
    # the six-route check runs where psi_routes reports it; pearson_toda
    # differentiates the structure matrix through the flow jet, and the
    # moment witnesses read only their tables
    real = pipeline.psi_structure_check
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "psi_structure_check", counted)
    clear_cache()
    run_suite(SuiteConfig(weight=CHARLIER))
    assert len(calls) == 1
    others = [p for p in pipeline._CACHE.values() if p.weight != CHARLIER]
    witnesses = [p for p in others if (p.weight.a, p.weight.b) == ((), ())]
    assert len(witnesses) == 2
    assert all("chol" not in p.__dict__ for p in witnesses)
    assert all("psi" not in p.__dict__ and "pi_inv" not in p.__dict__ for p in others)


# the dense matrices a pipeline builds once and every check reads
SHARED = ("pi", "pi_inv", "sigma_j", "theta_j", "theta_j_plus", "sigma_j_minus", "psi", "psi_h_inv")


def _entry_bits(value):
    if isinstance(value, tuple):
        return tuple(_entry_bits(m) for m in value)
    return [[getattr(x, "_mpf_", x) for x in row] for row in value]


def test_suite_leaves_every_shared_matrix_as_built():
    # a check that wrote into J, sigma(J), Psi H^-1 or the like would hand
    # every later check a wrong matrix; each must equal a fresh build's bits
    clear_cache()
    run_suite(SuiteConfig(weight=GEN_MEIXNER))
    base = get_pipeline(GEN_MEIXNER, 12, PrecisionContext(mantissa_bits=512))
    assert all(name in base.__dict__ for name in SHARED) and "dense" in base.jac.__dict__
    compared = 0
    for pipe in list(pipeline._CACHE.values()):
        fresh = pipeline.WeightPipeline(pipe.weight, pipe.k, pipe.ctx)
        if "jac" in pipe.__dict__ and "dense" in pipe.jac.__dict__:
            assert _entry_bits(pipe.jac.dense) == _entry_bits(fresh.jac.dense)
            compared += 1
        for name in SHARED:
            if name in pipe.__dict__:
                assert _entry_bits(getattr(pipe, name)) == _entry_bits(getattr(fresh, name)), name
                compared += 1
        # the flow jets are shared too: each check reads dS, dS^-1 and dH
        for (l, order), jet in pipe._jets.items():
            again = fresh.flow_jet(l, order, jet.size)
            for name in ("s", "ds", "ds_inv", "d2s"):
                if getattr(jet, name) is not None:
                    assert _entry_bits(getattr(jet, name)) == _entry_bits(getattr(again, name))
            assert _entry_bits([jet.dh]) == _entry_bits([again.dh])
            compared += 1
    # the base's flow-1 and flow-2 jets and the shifted pipelines' flow-1 jets
    assert compared > len(SHARED) + 1 + 2


@pytest.mark.parametrize(
    ("weight", "size", "witnesses"),
    [
        # the moment witnesses of flow 1 at 1 +- step, at the base's size
        (MEIXNER, 12, {(12, 1): 2}),
        # and of flow 2, whose eta2 = 9/10 can move
        (DEFORMED, 8, {(8, 1): 2, (8, 2): 2}),
    ],
    ids=["meixner", "deformed"],
)
def test_fd_witnesses_are_built_at_the_size_their_window_reads(weight, size, witnesses, monkeypatch):
    # every (flow, mult) has one witness pipeline, at the size of the base,
    # whose rho_0 .. rho_2k the moment witness differences
    built = {}
    real = pipeline.WeightPipeline.flow_scaled

    def recorded(self, l, mult):
        pipe = real(self, l, mult)
        built[id(pipe)] = (pipe.k, l)
        return pipe

    monkeypatch.setattr(pipeline.WeightPipeline, "flow_scaled", recorded)
    clear_cache()
    assert run_suite(SuiteConfig(weight=weight, size=size, mantissa_bits=512)).passed
    clear_cache()
    assert Counter(built.values()) == witnesses


@pytest.mark.parametrize(
    ("weight", "flow", "size"),
    [(MEIXNER, 1, 12), (MEIXNER, 1, 2), (DEFORMED, 2, 8)],
    ids=["meixner-flow1-12", "meixner-flow1-2", "deformed-flow2-8"],
)
def test_witness_table_stops_at_rho_2k(weight, flow, size):
    # a moment witness is a default pipeline: its table holds exactly
    # rho_0 .. rho_2k, the bits of its weight's engine table, and is cached
    # apart from that engine pipeline
    clear_cache()
    ctx = PrecisionContext(mantissa_bits=BITS)
    base = get_pipeline(weight, size, ctx, engine=True)
    witness = base.flow_scaled(flow, 1 + Fraction(1, 2**64))
    assert witness is not base and witness.k == size
    full = get_pipeline(witness.weight, size, ctx, engine=True)
    assert full is not witness and full.table.m_max > 2 * size
    assert base.flow_scaled(flow, 1 + Fraction(1, 2**64)) is witness
    assert get_pipeline(witness.weight, size, ctx) is witness
    assert witness.table.m_max == 2 * size and len(witness.table.values) == 2 * size + 1
    assert [x._mpf_ for x in witness.table.values] == [
        x._mpf_ for x in full.table.values[: 2 * size + 1]
    ]
    assert witness.chol.h[size] == full.chol.h[size]
    # the determinant engine reads rho_{2k+1} for d tau_{k+1}: past the table
    with pytest.raises(IndexOutOfTable):
        tau_derivative(witness.table, size + 1, (1, 0, 0))
    assert tau_derivative(full.table, size + 1, (1, 0, 0)) != 0


def _bits(values) -> list:
    return [x._mpf_ for x in values]


@pytest.mark.parametrize(
    ("spec", "size"), [*CONTRACT_MIX, *((spec, 8) for spec in SLOW_DECAY)]
)
def test_default_pipeline_matches_the_engine_pipeline(spec, size):
    # a default table stops at rho_2k; the moments are correctly rounded, so
    # beta, gamma, H and S agree bit for bit with the engine pipeline's
    clear_cache()
    ctx = PrecisionContext(mantissa_bits=512)
    w = parse_weight_spec(spec)
    default = get_pipeline(w, size, ctx)
    engine = get_pipeline(w, size, ctx, engine=True)
    assert default is not engine
    assert default.depth == 2 * size < engine.depth == moment_depth(w, size, engine=True)
    assert _bits(default.jac.beta) == _bits(engine.jac.beta)
    assert _bits(default.jac.gamma) == _bits(engine.jac.gamma)
    assert _bits(default.chol.h) == _bits(engine.chol.h)
    assert [_bits(row) for row in default.chol.s] == [_bits(row) for row in engine.chol.s]
    clear_cache()


def test_default_request_is_served_by_a_cached_engine_pipeline():
    clear_cache()
    ctx = PrecisionContext(mantissa_bits=BITS)
    engine = get_pipeline(MEIXNER, 6, ctx, engine=True)
    assert get_pipeline(MEIXNER, 6, ctx) is engine
    assert get_pipeline(MEIXNER, 6, ctx, engine=True) is engine
    # not across sizes or contexts
    assert get_pipeline(MEIXNER, 5, ctx).depth == 10
    assert get_pipeline(MEIXNER, 6, PrecisionContext(mantissa_bits=BITS + 64)).depth == 12
    # an engine request after a default build builds a deeper pipeline of its own
    default = get_pipeline(GEN_MEIXNER, 6, ctx)
    deeper = get_pipeline(GEN_MEIXNER, 6, ctx, engine=True)
    assert deeper is not default and (default.depth, deeper.depth) == (12, 24)
    assert get_pipeline(GEN_MEIXNER, 6, ctx) is default
    clear_cache()


def test_suite_base_pipeline_needs_the_engine_depth(monkeypatch):
    # gram_pearson's theta(shift) G reads moments up to 2k + N - 1, past rho_2k
    # when N >= 2: a suite whose base pipeline stops at rho_2k is refused, so
    # run_suite must ask for the engine depth
    weight = parse_weight_spec("a=3/2,1; b=5/2,7/2; eta=1/3")
    clear_cache()
    assert run_suite(SuiteConfig(weight=weight, size=8, mantissa_bits=BITS)).passed
    clear_cache()
    monkeypatch.setattr(
        report_module, "get_pipeline", lambda w, k, ctx, engine=False: get_pipeline(w, k, ctx)
    )
    with pytest.raises(IndexOutOfTable, match=r"\[gram_pearson\]"):
        run_suite(SuiteConfig(weight=weight, size=8, mantissa_bits=BITS))
    clear_cache()


def test_kp_builds_witnesses_at_the_size_its_jets_read():
    # at size 3 the fifth-order tau jets read up to rho_11 of the engine
    # table, and the order-2 flow-2 jet is the size-4 factorization's, the
    # largest it holds: d22p is read for n <= 3
    rep = run_suite(SuiteConfig(weight=DEFORMED, size=3, mantissa_bits=BITS, checks=("kp",)))
    assert rep.passed
    [kp] = rep.checks
    assert sorted(k for k in kp.components if k.startswith("d22p")) == [
        f"d22p[n={n}]" for n in (1, 2, 3)
    ]


def test_confirmation_reads_low_on_ill_conditioned_truncation():
    chol = get_pipeline(GEN_MEIXNER, 24, PrecisionContext(mantissa_bits=512)).chol
    assert chol.confirmed_bits < 512 - 64


def test_parse_tolerance_forms():
    assert parse_tolerance("2^-128") == Fraction(1, 2**128)
    assert parse_tolerance("1/1024") == Fraction(1, 1024)
    assert parse_tolerance("0.25") == Fraction(1, 4)


@pytest.mark.parametrize("text", ["0", "-1", "nan", "inf", "garbage", "1/0", "", "1", "2", "1e400"])
def test_parse_tolerance_rejects_nonpositive_and_nonfinite(text):
    with pytest.raises(ValueError, match="--tol"):
        parse_tolerance(text)


# -- command-line interface -----------------------------------------------------

@pytest.mark.parametrize("command", ["verify", "lattice", "toda", "kp", "psi"])
@pytest.mark.parametrize("text", ["0", "-1", "nan", "inf", "garbage", "1", "2", "1e400"])
def test_cli_bad_tol_is_usage_error(command, text, capsys):
    argv = [command, "--weight", "eta=0.7", "--size", "6", "--bits", "128", "--tol", text]
    if command != "psi":
        argv += ["--checks", "pearson"]
    code = cli_main(argv)
    assert code == 2
    assert "--tol" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, names",
    [
        (["moments", "--weight", "eta=1/2", "--size", "0"], "--size"),
        (["moments", "--weight", "eta=1/2", "--max-m", "-1"], "--max-m"),
        (["moments", "--weight", "a=1/0; eta=1/2"], "'a'"),
        (["moments", "--weight", "eta="], "'eta'"),
        (["moments", "--weight", "eta=1/2", "--bits", "10"], "--bits"),
        (["verify", "--weight", "eta=1/2", "--bits", "10"], "--bits"),
        (["psi", "--weight", "eta=1/2", "--bits", "10"], "--bits"),
        # parsed by the grammar, refused by the weight
        (["verify", "--weight", "b=-1; eta=1/2"], "--weight"),
        (["verify", "--weight", "b=0; eta=1/2"], "--weight"),
        (["verify", "--weight", "eta=1/2; eta2=2"], "--weight"),
    ],
)
def test_cli_bad_input_is_usage_error(argv, names, capsys):
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and names in err


@pytest.mark.parametrize("command", ["moments", "recurrence", "psi", "verify"])
@pytest.mark.parametrize(("flag", "cap"), [("--size", MAX_SIZE), ("--bits", MAX_BITS)])
def test_cli_caps_refuse_before_building(command, flag, cap, monkeypatch, capsys):
    def built(*args, **kwargs):
        raise AssertionError("a moment table was built")

    monkeypatch.setattr(MomentTable, "__init__", built)
    assert cli_main([command, "--weight", "eta=1/2", flag, str(cap + 1)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and flag in err


def test_cli_joint_cap_refuses_before_building(monkeypatch, capsys):
    # size^3 * bits is capped at its value for --size MAX_SIZE at the default 512 bits;
    # 32^3 * 4096 is that value, so 4097 bits at size 32 is one past it
    def built(*args, **kwargs):
        raise AssertionError("a moment table was built")

    monkeypatch.setattr(MomentTable, "__init__", built)
    for command in ("moments", "recurrence", "psi", "verify"):
        for size, bits in ((MAX_SIZE, MAX_BITS), (MAX_SIZE, 513), (32, 4097)):
            argv = [command, "--weight", "eta=7/10", "--size", str(size), "--bits", str(bits)]
            assert cli_main(argv) == 2
            err = capsys.readouterr().err
            assert err.startswith("configuration error:") and "--size" in err and "--bits" in err
    # each flag at its cap with the other at its default gets as far as building
    for flags in (["--size", str(MAX_SIZE)], ["--bits", str(MAX_BITS)]):
        with pytest.raises(AssertionError, match="built"):
            cli_main(["verify", "--weight", "eta=7/10", *flags])


def test_cli_max_m_cap_refuses_before_building(monkeypatch, capsys):
    # the cap is the depth that `moments --size MAX_SIZE` prints
    def built(*args, **kwargs):
        raise AssertionError("a moment table was built")

    monkeypatch.setattr(MomentTable, "__init__", built)
    argv = ["moments", "--weight", "eta=1/2", "--max-m", str(2 * MAX_SIZE - 1)]
    assert cli_main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error:") and "--max-m" in err


@pytest.mark.parametrize("field", ["eta2", "eta3"])
def test_cli_zero_deformation_is_one_point_support(field, capsys):
    # w(k) = 0 for k >= 1: moments are exact and a size-4 window is refused
    weight = f"eta=1/2; {field}=0"
    assert cli_main(["moments", "--weight", weight, "--max-m", "3"]) == 0
    rows = capsys.readouterr().out.strip().splitlines()
    assert [float(row.split("\t")[1]) for row in rows] == [1, 0, 0, 0]
    assert cli_main(["recurrence", "--weight", weight, "--size", "4"]) == 1
    assert "TruncationTooLarge" in capsys.readouterr().err


def test_cli_recurrence_charlier(capsys):
    code = cli_main(["recurrence", "--weight", "eta=0.7", "--size", "6", "--bits", "192"])
    assert code == 0
    out = capsys.readouterr().out.strip().splitlines()
    row1 = out[2].split("\t")
    assert abs(float(row1[1]) - 1.7) < 1e-12
    assert abs(float(row1[2]) - 0.7) < 1e-12


def test_cli_moments_divergent(capsys):
    code = cli_main(["moments", "--weight", "a=1; eta=2"])
    err = capsys.readouterr().err
    assert code == 1
    assert "DivergentSeries" in err


@pytest.mark.parametrize("command", ["recurrence", "verify"])
def test_cli_boundary_divergence_names_the_first_divergent_moment(command, capsys):
    # rho_m converges only for m < sum b - sum a = 1: the refusal names rho_1,
    # not the depth of the table the command happens to build
    assert cli_main([command, "--weight", "a=1,1; b=3; eta=1"]) == 1
    err = capsys.readouterr().err
    assert "DivergentSeries" in err and "moment rho_1 diverges" in err


def test_cli_verify_small(capsys, tmp_path):
    out = tmp_path / "rep.json"
    code = cli_main(
        [
            "verify", "--weight", "a=3/2; b=5/2; eta=1/3", "--size", "8",
            "--bits", "192", "--checks", "pearson,gram_pearson,psi_routes",
            "--out", str(out),
        ]
    )
    assert code == 0
    text = capsys.readouterr().out
    assert "overall: PASS" in text
    parsed = json.loads(out.read_text())
    assert parsed["pass"] is True and len(parsed["checks"]) == 3


@pytest.mark.parametrize("eta3", ["1", "9/10"])
def test_cli_verify_a_deformation_at_the_disk_edge(capsys, eta3):
    # eta2 = 1 - 2^-200: a flow-2 witness at eta2 (1 + 2^-(bits/4)) is no
    # weight, so sato_wilson witnesses flow 1 alone and kp (which runs when
    # eta3 < 1 too) takes no flow-2 witness, instead of refusing
    weight = f"eta=1/2; eta2={2**200 - 1}/{2**200}; eta3={eta3}"
    for bits in ("256", "512"):
        code = cli_main(["verify", "--weight", weight, "--size", "8", "--bits", bits])
        assert code == 0
        text = capsys.readouterr().out
        assert "sato_wilson" in text and "overall: PASS" in text
        assert ("kp " in text) == (eta3 != "1")


def test_cli_unknown_check_is_usage_error(capsys):
    code = cli_main(["verify", "--weight", "eta=0.7", "--checks", "bogus"])
    assert code == 2


def test_cli_lattice_inapplicable(capsys):
    code = cli_main(["lattice", "--weight", "eta=0.7", "--size", "6", "--bits", "192"])
    assert code == 2


def test_cli_kp_subcommand(capsys):
    code = cli_main(
        ["kp", "--weight", "eta=1/2; eta2=9/10; eta3=9/10", "--size", "6", "--bits", "256"]
    )
    assert code == 0
    assert "kp" in capsys.readouterr().out


def test_cli_config_file(tmp_path, capsys):
    cfg = tmp_path / "weight.cfg"
    cfg.write_text("# generalized family\na=3/2; b=5/2\neta=1/3\n")
    code = cli_main(
        ["verify", "--config", str(cfg), "--size", "8", "--bits", "192",
         "--checks", "pearson"]
    )
    assert code == 0


def test_cli_missing_weight(capsys):
    code = cli_main(["verify", "--size", "8"])
    assert code == 2


def test_cli_psi_dump(capsys):
    code = cli_main(["psi", "--weight", "eta=0.7", "--size", "8", "--bits", "192"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("offset 0:")
    assert any(line.startswith("offset 1:") for line in out)


def test_cli_psi_route_mismatch(capsys):
    code = cli_main(
        ["psi", "--weight", "eta=0.7", "--size", "8", "--bits", "192", "--tol", "2^-1000"]
    )
    assert code == 1
    assert "structure-matrix routes disagree" in capsys.readouterr().err


def test_cli_entry_point_runs():
    # the child finds the package in src/ with or without an install
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "semidop.cli", "recurrence", "--weight", "eta=1/2",
         "--size", "4", "--bits", "128"],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n\tbeta_n")


def test_package_runs_as_a_module():
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "semidop", "--help"], capture_output=True, text=True, env=env
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("usage: semidop") and "verify" in proc.stdout


def test_registry_descriptions_name_identities():
    for spec in REGISTRY.values():
        assert spec.description and len(spec.description) > 10
