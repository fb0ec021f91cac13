from __future__ import annotations

import gc
import hashlib
import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from diracq.checks import run_checks
from diracq.cli import main
from diracq.dsl import SUITES, parse_model

from helpers import perfbench_module

MODELS = Path(__file__).resolve().parent.parent / "models"
GOLDEN = Path(__file__).resolve().parent / "golden"


def run_cli(capsys, *args) -> tuple[int, str]:
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


def test_standard_model_all_pass(capsys):
    code, out = run_cli(capsys, "check", str(MODELS / "standard_r2.dq"),
                        "--seed", "7")
    assert code == 0
    assert "FAIL" not in out and "ERROR" not in out


def test_json_schema(capsys):
    code, out = run_cli(capsys, "check", str(MODELS / "foliation.dq"),
                        "--json", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    assert set(payload) == {"model", "seed", "checks"}
    assert payload["seed"] == 7
    assert isinstance(payload["model"], str)
    for record in payload["checks"]:
        assert set(record) == {"name", "status", "witness", "millis"}
        assert record["status"] in ("pass", "fail", "error", "skipped")
        assert record["witness"] is None or isinstance(record["witness"], str)
        assert isinstance(record["millis"], int)


def test_obstruction_model_fails(capsys):
    code, out = run_cli(capsys, "check", str(MODELS / "cech_obstruction.dq"),
                        "--json", "--seed", "7")
    assert code == 1
    payload = json.loads(out)
    statuses = {c["name"]: c for c in payload["checks"]}
    record = statuses["prequant/atlas"]
    assert record["status"] == "fail"
    assert "1/3" in record["witness"]
    # quantize needs the obstructed atlas: a skip that cites the witness
    code, out = run_cli(capsys, "check", str(MODELS / "cech_obstruction.dq"),
                        "--json", "--seed", "7", "--suite", "quantize")
    record = {c["name"]: c for c in json.loads(out)["checks"]}["quantize"]
    assert record["status"] != "error"
    assert "1/3" in record["witness"]


# atlases on the standard plane that the constructor rejects, with the
# start of the witness: with the constant transition 1, compatibility needs
# sigma_1 = sigma_2; a zero transition; g12 g21 = 4; g12 g23 = 1 != g13
BAD_ATLASES = {
    "incompatible": ("patch U1\npatch U2\n"
                     "sigma U1 = pull(-p*dq)\nsigma U2 = pull(-p*dq + dq)\n"
                     "transition U1 U2 = 1\n", "connection 1-sections"),
    "zero": ("patch U1\npatch U2\n"
             "sigma U1 = pull(-p*dq)\nsigma U2 = pull(-p*dq)\n"
             "transition U1 U2 = 0\n", "transition g[U1,U2]"),
    "non-inverse": ("patch U1\npatch U2\n"
                    "sigma U1 = pull(-p*dq)\nsigma U2 = pull(-p*dq)\n"
                    "transition U1 U2 = 2\ntransition U2 U1 = 2\n",
                    "transitions (U1,U2) and (U2,U1)"),
    "broken-triple": ("patch U1\npatch U2\npatch U3\n"
                      "sigma U1 = pull(-p*dq)\nsigma U2 = pull(-p*dq)\n"
                      "sigma U3 = pull(-p*dq)\n"
                      "transition U1 U2 = 1\ntransition U2 U3 = 1\n"
                      "transition U1 U3 = 2\n", "cocycle fails"),
}


def test_incompatible_transition_atlas_fails(tmp_path, capsys):
    for atlas, (declarations, witness) in BAD_ATLASES.items():
        model = tmp_path / f"{atlas}.dq"
        model.write_text("chart M dim 2 coords q p\n"
                         "form omega = dq /\\ dp\n"
                         "dirac D = graph_presymplectic(omega)\n"
                         "complement H = auto\n" + declarations)
        code, out = run_cli(capsys, "check", str(model), "--json",
                            "--suite", "prequant")
        assert code == 1, atlas
        checks = json.loads(out)["checks"]
        prequant = [c for c in checks if c["name"].startswith("prequant")]
        assert [(c["name"], c["status"]) for c in prequant] == \
            [("prequant/atlas", "fail")], atlas
        assert prequant[0]["witness"].startswith(witness), atlas


# cochain atlases the cocycle construction rejects after the integrality
# test: sigma whose curvature 2 dq/\dp is not Lambda (the compatibility
# d_D q = sigma_1 - sigma_2 holds), and sigma_1 - sigma_2 = 0 != d_D q
BAD_COCHAINS = {
    "not-primitives": ("pull(-2*p*dq)", "pull(-2*p*dq - dq)",
                       "the connection 1-sections are not local primitives"),
    "unmatched-cochain": ("pull(-p*dq)", "pull(-p*dq)",
                          "connection 1-sections incompatible on overlap "
                          "(U1,U2)"),
}


@pytest.mark.parametrize("atlas", BAD_COCHAINS)
def test_invalid_cochain_atlas_fails(tmp_path, capsys, atlas):
    sigma1, sigma2, witness = BAD_COCHAINS[atlas]
    model = tmp_path / f"{atlas}.dq"
    model.write_text("chart M dim 2 coords q p\n"
                     "form omega = dq /\\ dp\n"
                     "dirac D = graph_presymplectic(omega)\n"
                     "complement H = auto\n"
                     "patch U1\npatch U2\n"
                     f"sigma U1 = {sigma1}\nsigma U2 = {sigma2}\n"
                     "cochain U1 U2 = q\n")
    code, out = run_cli(capsys, "check", str(model), "--json",
                        "--suite", "all", "--seed", "7")
    assert code == 1
    records = {c["name"]: c for c in json.loads(out)["checks"]}
    assert records["prequant/atlas"]["status"] == "fail"
    assert records["prequant/atlas"]["witness"].startswith(witness)
    assert not any(c["status"] == "error" for c in records.values())


# non-Dirac inputs on R^3, one per constructor: the graph of the non-closed
# x1 dx2^dx3 as a frame and as a form, the graph of the bivector of
# v = (x2, x3, x1) (v . curl v != 0), and span(d_x1, d_x2 + x1 d_x3)
NON_DIRAC = {
    "frame": "section s1 = (d_x1, 0*dx1)\n"
             "section s2 = (d_x2, (x1)*dx3)\n"
             "section s3 = (d_x3, (-x1)*dx2)\n"
             "dirac D = frame(s1, s2, s3)\n",
    "graph_presymplectic": "form omega = x1*dx2/\\dx3\n"
                           "dirac D = graph_presymplectic(omega)\n",
    "graph_poisson": "bivector W = x1*d_x1/\\d_x2 - x3*d_x1/\\d_x3"
                     " + x2*d_x2/\\d_x3\n"
                     "dirac D = graph_poisson(W)\n",
    "regular_distribution": "vector X1 = d_x1\n"
                            "vector X2 = d_x2 + x1*d_x3\n"
                            "dirac D = regular_distribution(X1, X2)\n",
}


@pytest.mark.parametrize("constructor", NON_DIRAC)
def test_non_closed_frame_skips_the_dirac_only_checks(tmp_path, capsys,
                                                      constructor):
    # an atlas and a polarization, so that every other suite reaches the
    # Dirac prerequisite
    model = tmp_path / "negative.dq"
    model.write_text("chart M dim 3 coords x1 x2 x3\n"
                     + NON_DIRAC[constructor]
                     + "scalar f = x1\n"
                     "patch U1\n"
                     "sigma U1 = pull(x1*dx2)\n"
                     "polarization P = span((d_x1, 0*dx1))\n"
                     "halfdensity v = 1\n")
    code, out = run_cli(capsys, "check", str(model), "--json",
                        "--suite", "all")
    assert code == 1
    checks = json.loads(out)["checks"]
    statuses = {c["name"]: c for c in checks}
    assert statuses["dirac/D3-closure"]["status"] == "fail"
    for name in ("dirac/omega-cocycle", "dirac/pi-sharp-morphism"):
        assert statuses[name]["status"] == "skipped"
        assert statuses[name]["witness"] == "not a Dirac structure"
    others = [c for c in checks if not c["name"].startswith("dirac/")]
    assert [(c["name"], c["status"], c["witness"]) for c in others] == [
        (suite, "skipped", "not a Dirac structure")
        for suite in ("poisson", "prequant", "polarize", "quantize",
                      "poincare")]
    assert not any(c["status"] == "error" for c in checks)


def test_rational_negatives_match_the_oracle():
    """The benchmark's fixed non-Dirac inputs report the truth of Courant's
    characterizations, and no suite reports an error on them."""
    families = perfbench_module("families")
    oracle = perfbench_module("oracle")
    for op in families.rational_negatives():
        model = parse_model(op["text"], name=op["name"])
        report = run_checks(model, suites=op["suites"], seed=7, trials=6)
        assert oracle.judge(report.to_dict()["checks"],
                            oracle.expect_generated(op)) is None, op["name"]
        report = run_checks(model, suites=list(SUITES), seed=7, trials=6)
        assert not any(c.status == "error" for c in report.checks), op["name"]


@settings(max_examples=6, deadline=None, derandomize=True)
@given(seed=st.integers(0, 2**16), round_index=st.integers(0, 9))
def test_generated_rational_round_matches_the_oracle(seed, round_index):
    """Generated rounds of the benchmark's rational Dirac structures, each
    judged against the truth the oracle derives without diracq."""
    families = perfbench_module("families")
    oracle = perfbench_module("oracle")
    for op in families.rational_round(seed, round_index):
        model = parse_model(op["text"], name=op["name"])
        report = run_checks(model, suites=op["suites"], seed=7, trials=2)
        checks = report.to_dict()["checks"]
        assert not any(c["status"] == "error" for c in checks), op["name"]
        assert oracle.judge(checks, oracle.expect_generated(op)) is None, \
            op["name"]


def test_perturbed_sigma_fails_only_prequant(capsys):
    code, out = run_cli(capsys, "check", str(MODELS / "perturbed_sigma.dq"),
                        "--json", "--seed", "7")
    assert code == 1
    payload = json.loads(out)
    failing = {c["name"] for c in payload["checks"] if c["status"] == "fail"}
    assert failing == {"prequant/condition", "prequant/commutator"}
    passing = {c["name"] for c in payload["checks"] if c["status"] == "pass"}
    assert any(name.startswith("dirac/") for name in passing)
    assert any(name.startswith("poisson/") for name in passing)


def test_empty_directives_all_skipped(tmp_path, capsys):
    model = tmp_path / "bare.dq"
    model.write_text("chart M dim 2 coords q p\n"
                     "form omega = dq/\\dp\n"
                     "dirac D = graph_presymplectic(omega)\n")
    code, out = run_cli(capsys, "check", str(model), "--json")
    assert code == 0
    payload = json.loads(out)
    assert all(c["status"] == "skipped" for c in payload["checks"])


def test_parse_error_exit_code(tmp_path, capsys):
    model = tmp_path / "broken.dq"
    model.write_text("chart M dim 2 coords q p\nscalar f = q +\n")
    assert main(["check", str(model)]) == 2


@pytest.mark.parametrize("seed", ["1", "2", "3"])
def test_non_constant_cech_sum_has_one_witness(tmp_path, capsys, seed):
    # x2 is constant along D = span(d_x1) but not a constant: no seed may
    # turn it into a sampled value
    model = tmp_path / "cechsum.dq"
    model.write_text("chart F dim 2 coords x1 x2\n"
                     "vector X = d_x1\n"
                     "dirac D = regular_distribution(X)\n"
                     "patch U1\npatch U2\npatch U3\n"
                     "sigma U1 = dcoeffs(0, 0)\n"
                     "sigma U2 = dcoeffs(0, 0)\n"
                     "sigma U3 = dcoeffs(0, 0)\n"
                     "cochain U1 U2 = x2\n"
                     "cochain U2 U3 = 0\n"
                     "cochain U1 U3 = 0\n")
    code, out = run_cli(capsys, "check", str(model), "--json",
                        "--suite", "prequant", "--seed", seed)
    assert code == 1
    prequant = [c for c in json.loads(out)["checks"]
                if c["name"].startswith("prequant")]
    assert [(c["name"], c["status"], c["witness"]) for c in prequant] == [
        ("prequant/atlas", "fail", "integrality obstruction: x2")]


def test_non_hermitian_atlas_skips_the_selfadjoint_integrand(tmp_path, capsys):
    model = tmp_path / "nometric.dq"
    model.write_text("chart M dim 2 coords q p\n"
                     "form omega = dq/\\dp\n"
                     "dirac D = graph_presymplectic(omega)\n"
                     "scalar f = q*p\n"
                     "patch U1\n"
                     "sigma U1 = pull(-p*dq)\n"
                     "polarization P = span((d_p, -dq))\n"
                     "halfdensity v = 1\n")
    code, out = run_cli(capsys, "check", str(model), "--json",
                        "--suite", "quantize")
    assert code == 0
    records = {c["name"]: c for c in json.loads(out)["checks"]}
    assert (records["quantize/selfadjoint-integrand"]["status"],
            records["quantize/selfadjoint-integrand"]["witness"]) == (
        "skipped", "Hermitian data required")
    assert records["quantize/lemma51"]["status"] == "pass"
    assert not any(c["status"] == "error" for c in records.values())


# a frame outside D_C (containment fails) and a non-isotropic frame
@pytest.mark.parametrize("frame", ["(d_p, dq)", "(d_p, -dq), (d_q, dp)"],
                         ids=["outside-D", "not-isotropic"])
def test_quantize_skips_what_is_not_a_polarization_of_d(tmp_path, capsys,
                                                        frame):
    model = tmp_path / "notpolar.dq"
    model.write_text("chart M dim 2 coords q p\n"
                     "form omega = dq /\\ dp\n"
                     "dirac D = graph_presymplectic(omega)\n"
                     "complement H = auto\n"
                     "scalar f = q*p\n"
                     "patch U\n"
                     "sigma U = pull(-p*dq)\n"
                     "hermitian\n"
                     f"polarization P = span({frame})\n"
                     "halfdensity v = 1\n")
    code, out = run_cli(capsys, "check", str(model), "--json", "--seed", "7",
                        "--suite", "all")
    assert code == 1
    records = {c["name"]: c for c in json.loads(out)["checks"]}
    assert (records["quantize"]["status"], records["quantize"]["witness"]) \
        == ("skipped", "not a polarization of D")
    assert not any(c["status"] == "error" for c in records.values())


def test_lemma51_exercises_the_bracket_term(tmp_path, capsys):
    """A half-density that is not flat along P, so the bracket term of
    Lemma 5.1 is nonzero for f = q*p."""
    model = tmp_path / "bracket.dq"
    model.write_text((MODELS / "standard_r2.dq").read_text()
                     + "halfdensity v3 = p\n")
    code, out = run_cli(capsys, "check", str(model), "--json", "--seed", "7",
                        "--suite", "quantize")
    assert code == 0
    records = {c["name"]: c for c in json.loads(out)["checks"]}
    assert records["quantize/lemma51"]["status"] == "pass"


def test_undeclared_structure_name_exit_code(tmp_path, capsys):
    model = tmp_path / "typo.dq"
    model.write_text("chart M dim 2 coords q p\nform omega = dq/\\dp\n"
                     "dirac D = graph_presymplectic(omegb)\n")
    assert main(["check", str(model), "--suite", "all"]) == 2
    err = capsys.readouterr().err
    assert "line 3:31:" in err and "'omegb' is not a declared form" in err


@pytest.mark.parametrize("decl, where, message", [
    ("form omega = dq\ndirac D = graph_presymplectic(omega)", "line 3:31:",
     "'omega' has degree 1, not 2"),
    ("section s1 = (d_q, dp)\nsection s2 = (d_p, -dq)\n"
     "section s3 = (0*d_q, 0*dq)\ndirac D = frame(s1, s2, s3)", "line 5:11:",
     "a Dirac frame on M needs 2 sections, got 3"),
], ids=["one-form-graph", "frame-length"])
def test_malformed_dirac_constructor_exit_code(tmp_path, capsys, decl, where,
                                               message):
    model = tmp_path / "constructor.dq"
    model.write_text(f"chart M dim 2 coords q p\n{decl}\n")
    assert main(["check", str(model), "--suite", "all"]) == 2
    err = capsys.readouterr().err
    assert where in err and message in err


def test_repeated_scalar_exit_code(tmp_path, capsys):
    model = tmp_path / "rebound.dq"
    model.write_text("chart M dim 2 coords q p\nscalar f = q\nscalar f = p\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert "line 3:8:" in err and "'f' is already declared" in err


def test_builtin_coordinate_name_exit_code(tmp_path, capsys):
    model = tmp_path / "chartnames.dq"
    model.write_text("chart M dim 2 coords q dq\nscalar f = q\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert "line 1:24:" in err and "'dq' is a built-in name" in err


def test_half_density_operand_exit_code(tmp_path, capsys):
    model = tmp_path / "operand.dq"
    model.write_text("chart M dim 2 coords q p\nhalfdensity v = q\n"
                     "scalar g = v*p\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert "line 3:12:" in err and "the half-density 'v' is not an operand" in err


def test_undeclared_patch_exit_code(tmp_path, capsys):
    model = tmp_path / "patches.dq"
    model.write_text("chart M dim 2 coords q p\nform omega = dq/\\dp\n"
                     "dirac D = graph_presymplectic(omega)\n"
                     "patch U1\npatch U2\ncochain U1 U9 = 0\n")
    assert main(["check", str(model), "--suite", "prequant"]) == 2
    err = capsys.readouterr().err
    assert "line 6:12:" in err and "'U9' is not a declared patch" in err


def test_tensor_arithmetic_error_exit_code(tmp_path, capsys):
    model = tmp_path / "degrees.dq"
    model.write_text("chart M dim 2 coords q p\nform omega = dq + dq/\\dp\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert "line 2:" in err and "degree mismatch" in err


@pytest.mark.parametrize("scalar, where", [
    ("1/(q - q)", "line 2:21:"),
    ("1/((q + 1)^2 - q^2 - 2*q - 1)", "line 2:41:"),
])
def test_zero_denominator_exit_code(tmp_path, capsys, scalar, where):
    model = tmp_path / "pole.dq"
    model.write_text(f"chart M dim 2 coords q p\nscalar f = {scalar}\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert where in err and "division by the zero expression" in err


@pytest.mark.parametrize("scalar", ["(" * 3000 + "q" + ")" * 3000,
                                    "-" * 3000 + "q"],
                         ids=["parentheses", "unary-minus"])
def test_deeply_nested_scalar_exit_code(tmp_path, capsys, scalar):
    model = tmp_path / "deep.dq"
    model.write_text(f"chart M dim 2 coords q p\nscalar f = {scalar}\n")
    assert main(["check", str(model)]) == 2
    err = capsys.readouterr().err
    assert "line 2:" in err and "expression nested too deeply" in err


def test_unknown_suite_is_rejected():
    model = parse_model((MODELS / "standard_r2.dq").read_text())
    with pytest.raises(ValueError, match="unknown suite 'poison'"):
        run_checks(model, suites=["dirac", "poison"])


def test_corpus_reports_survive_field_growth(capsys):
    """Values met by earlier models do not change later reports: running
    the corpus forward and then in reverse in one process still gives every
    golden report byte for byte."""
    paths = sorted(MODELS.glob("*.dq"))
    for order in (paths, paths[::-1]):
        for path in order:
            _, out = run_cli(capsys, "check", str(path), "--suite", "all",
                             "--seed", "7", "--json")
            assert out.encode() == (GOLDEN / f"{path.stem}.json").read_bytes(), \
                path.name


GENERATED_DIGEST = GOLDEN / "generated_reports.sha256"


def generated_report_digests() -> dict[str, str]:
    """The sha256 of each generated operation's JSON report, keyed by
    ``workload/seed/name``: round 0 of the benchmark's Cech atlases (seeds
    1-12) and rational families (seeds 1-3), and both negative sets, checked
    at the benchmark's seed and trials."""
    families = perfbench_module("families")
    ops = {}
    for seed in range(1, 13):
        ops.update((f"cech-atlases/{seed}/{op['name']}", op)
                   for op in families.cech_round(seed, 0))
    for seed in range(1, 4):
        ops.update((f"rational-families/{seed}/{op['name']}", op)
                   for op in families.rational_round(seed, 0))
    ops.update((f"negatives/{op['name']}", op)
               for op in families.rational_negatives()
               + families.cech_negatives())
    digests = {}
    for key, op in ops.items():
        report = run_checks(parse_model(op["text"], name=op["name"]),
                            suites=op["suites"], seed=7, trials=6)
        digests[key] = hashlib.sha256(report.to_json().encode()).hexdigest()
    return digests


def test_generated_reports_match_the_digest():
    """Every generated report is byte-identical to the one pinned in
    ``golden/generated_reports.sha256`` (regenerate it with
    ``PYTHONPATH=src python tests/test_cli.py``, for a deliberate report
    change only)."""
    pinned = dict(line.split() for line in
                  GENERATED_DIGEST.read_text().splitlines())
    digests = generated_report_digests()
    differ = sorted(key for key in digests.keys() | pinned.keys()
                    if digests.get(key) != pinned.get(key))
    assert differ == [], f"reports differ: {', '.join(differ)}"


def test_missing_file_exit_code():
    assert main(["check", "/nonexistent/model.dq"]) == 2


def test_undecodable_file_exit_code(tmp_path, capsys):
    model = tmp_path / "latin1.dq"
    model.write_bytes("chart M dim 2 coords q p\n# caf\xe9\n".encode("latin-1"))
    assert main(["check", str(model)]) == 2
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("trials", ["0", "-1"])
def test_nonpositive_trials_exit_code(capsys, trials):
    code, out = run_cli(capsys, "check", str(MODELS / "standard_r2.dq"),
                        "--suite", "all", "--trials", trials)
    assert code == 2
    assert out == ""


def test_suite_flag_overrides(capsys):
    code, out = run_cli(capsys, "check", str(MODELS / "standard_r2.dq"),
                        "--suite", "dirac", "--json", "--seed", "7")
    assert code == 0
    payload = json.loads(out)
    ran = {c["name"] for c in payload["checks"] if c["status"] != "skipped"}
    assert ran and all(name.startswith("dirac/") for name in ran)


def test_deterministic_json(capsys):
    outs = []
    for _ in range(2):
        code, out = run_cli(capsys, "check", str(MODELS / "poisson_g.dq"),
                            "--suite", "all", "--seed", "7", "--json")
        outs.append(out)
    assert outs[0] == outs[1]


NON_REAL_CURVATURE = """\
chart M dim 2 coords q p
form omega = dq /\\ dp
dirac D = graph_presymplectic(omega)
complement H = auto
patch U
sigma U = dcoeffs(0, i*q)
hermitian
polarization P = span((d_p, -dq))
halfdensity v1 = 1
"""


def test_non_real_curvature_is_a_fail_not_an_error():
    """A Hermitian atlas whose curvature is not real fails every row that
    needs the curvature, with the reason as its witness."""
    model = parse_model(NON_REAL_CURVATURE)
    checks = run_checks(model, suites=list(SUITES), seed=7, trials=6).checks
    records = {c.name: c for c in checks}
    for name in ("prequant/curvature-patch-independent", "prequant/condition",
                 "quantize/prequantizable"):
        assert (records[name].status, records[name].witness) == \
            ("fail", "Hermitian atlas produced a non-real curvature"), name
    assert not any(c.status == "error" for c in checks)


@pytest.mark.parametrize("path", sorted(MODELS.glob("*.dq")),
                         ids=lambda path: path.stem)
def test_checks_leave_no_cyclic_garbage(path):
    """The memos on an atlas keep coefficients and no reference back to the
    atlas, so a run leaves nothing for the cycle collector."""
    model = parse_model(path.read_text(), name=path.stem)
    gc.collect()
    gc.disable()             # no automatic pass may collect a cycle first
    try:
        run_checks(model, seed=7, trials=6)
    finally:
        gc.enable()
    assert gc.collect() == 0


if __name__ == "__main__":
    GENERATED_DIGEST.write_text("".join(
        f"{key} {digest}\n"
        for key, digest in sorted(generated_report_digests().items())))
