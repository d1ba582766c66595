import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from mpmath import mpf

from semidop import (
    DivergentSeries,
    MomentTable,
    PrecisionContext,
    PreconditionError,
    parse_weight_spec,
)
from semidop import pipeline
from semidop.cli import main as cli_main
from semidop.cli import MAX_BITS, MAX_SIZE, parse_tolerance
from semidop.pipeline import clear_cache, get_pipeline
from semidop.report import (
    DEFAULT_SEED,
    REGISTRY,
    Report,
    SuiteConfig,
    emit_report,
    run_suite,
    select_checks,
)
from semidop.result import make_result

from conftest import BITS, CHARLIER, DEFORMED, GEN_MEIXNER

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


def test_empty_selection_rejected():
    with pytest.raises(PreconditionError):
        SuiteConfig(weight=CHARLIER, checks=(), **SMALL)


def test_run_suite_divergent_weight():
    cfg = SuiteConfig(weight=parse_weight_spec("a=1; eta=2"), **SMALL)
    with pytest.raises(DivergentSeries):
        run_suite(cfg)


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
    checks = ("psi_routes", "omega", "nijhoff_capel", "uv_system")
    rep = run_suite(SuiteConfig(weight=GEN_MEIXNER, checks=checks, **SMALL))
    assert [c.name for c in rep.checks] == [
        "psi_routes", "omega_A(1)", "omega_B(1)", "nijhoff_capel_A(1)_B(1)",
        "uv_system_A(1)", "uv_system_B(1)",
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


def test_golden_default_charlier_suite():
    cfg = SuiteConfig(weight=CHARLIER)
    rep = run_suite(cfg)
    golden = (DATA / "golden_charlier.json").read_text()
    assert rep.to_json() == golden


CONTRACT_DIGESTS = [
    ("a=2; eta=1/2", 12, "f869b6ae17429a3f"),
    ("b=3/2; eta=1/2", 12, "dd4eb9c327fa14ba"),
    ("a=3/2; b=5/2; eta=1/3", 12, "a112158d901a17b6"),
    ("eta=1/2; eta2=9/10; eta3=9/10", 8, "1db26eb56153d010"),
    # two b parameters: contiguous and omega run through B(1) and B(2)
    ("a=1/2,3/2; b=5/2,7/2; eta=1/3", 10, "f0cb5d500240e8a1"),
    # the only recorded case whose determinants border a 24 x 24 leading block
    ("a=3/2; b=5/2; eta=1/3", 24, "80e4db8c44563893"),
]


# ids leave the digest out, so a regenerated digest keeps the test's name
@pytest.mark.parametrize(
    ("spec", "size", "digest"),
    CONTRACT_DIGESTS,
    ids=[f"{spec}-{size}" for spec, size, _ in CONTRACT_DIGESTS],
)
def test_contract_reports_byte_identical(spec, size, digest):
    # the golden file pins Charlier, where sigma and theta are trivial; these
    # weights carry nontrivial Pearson polynomials through every product
    cfg = SuiteConfig(weight=parse_weight_spec(spec), size=size, mantissa_bits=512)
    emitted = run_suite(cfg).to_json().encode()
    assert hashlib.sha256(emitted).hexdigest()[:16] == digest


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
    # the six-route check runs where psi_routes reports it; the FD witnesses of
    # pearson_toda read the cached structure matrix and never build Pi^-1
    real = pipeline.psi_structure_check
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(pipeline, "psi_structure_check", counted)
    clear_cache()
    run_suite(SuiteConfig(weight=CHARLIER))
    assert len(calls) == 1
    witnesses = [p for p in pipeline._CACHE.values() if p.weight != CHARLIER]
    assert any("psi" in p.__dict__ for p in witnesses)
    assert all("pi_inv" not in p.__dict__ for p in witnesses)


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
    # the FD witnesses of pearson_toda share Psi and Psi H^-1 too
    assert compared > len(SHARED) + 1


def test_confirmation_reads_low_on_ill_conditioned_truncation():
    chol = get_pipeline(GEN_MEIXNER, 24, PrecisionContext(mantissa_bits=512)).chol
    assert chol.confirmed_bits < 512 - 64


def test_parse_tolerance_forms():
    assert parse_tolerance("2^-128") == Fraction(1, 2**128)
    assert parse_tolerance("1/1024") == Fraction(1, 1024)
    assert parse_tolerance("0.25") == Fraction(1, 4)


@pytest.mark.parametrize("text", ["0", "-1", "nan", "inf", "garbage", "1/0", ""])
def test_parse_tolerance_rejects_nonpositive_and_nonfinite(text):
    with pytest.raises(ValueError, match="--tol"):
        parse_tolerance(text)


# -- command-line interface -----------------------------------------------------

@pytest.mark.parametrize("command", ["verify", "lattice", "toda", "kp", "psi"])
@pytest.mark.parametrize("text", ["0", "-1", "nan", "inf", "garbage"])
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


def test_registry_descriptions_name_identities():
    for spec in REGISTRY.values():
        assert spec.description and len(spec.description) > 10
