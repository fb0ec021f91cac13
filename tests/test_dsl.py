from __future__ import annotations

import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from diracq.checks import Resolver
from diracq.dsl import DslError, format_model, parse_model
from diracq.expr import ComplexExpr, Expr, ZERO, as_expr, equal, is_zero, symbol
from diracq.hamiltonian import hamiltonian_H

MODELS = Path(__file__).resolve().parent.parent / "models"


class TestParse:
    def test_minimal_graph_model(self):
        text = ("chart M dim 2 coords q p\n"
                "form omega = dq/\\dp\n"
                "dirac D = graph_presymplectic(omega)\n")
        model = parse_model(text)
        assert model.chart.dim == 2
        dirac = Resolver(model).dirac()
        assert dirac.verify().passed

    def test_unknown_symbol_diagnostic(self):
        text = ("chart M dim 2 coords q p\n"
                "scalar f = q^2 + k*(p)\n")
        with pytest.raises(DslError, match="unknown symbol 'k'"):
            parse_model(text)

    def test_params_declared(self):
        text = ("chart M dim 2 coords q p params k\n"
                "scalar f = q^2 + k*(p)\n")
        model = parse_model(text)
        assert "f" in model.scalars

    def test_dimension_mismatch(self):
        with pytest.raises(DslError, match="dimension mismatch"):
            parse_model("chart M dim 3 coords q p\n")

    def test_line_and_column_in_errors(self):
        text = "chart M dim 1 coords x\nscalar f = x +\n"
        with pytest.raises(DslError) as err:
            parse_model(text)
        assert err.value.line == 2

    def test_wedge_precedence(self):
        text = ("chart M dim 2 coords q p\n"
                "form omega = q*dq /\\ p*dp\n")
        model = parse_model(text)
        omega = model.forms["omega"]
        q, p = Expr(symbol("q")), Expr(symbol("p"))
        assert equal(omega.coeff((0, 1)), q * p)

    def test_integer_exponents_only(self):
        text = "chart M dim 1 coords x\nscalar f = x^x\n"
        with pytest.raises(DslError, match="integer"):
            parse_model(text)

    def test_complex_sections_in_polarization(self):
        text = ("chart M dim 2 coords q p\n"
                "form omega = dq/\\dp\n"
                "dirac D = graph_presymplectic(omega)\n"
                "complement H = auto\n"
                "polarization P = span((d_q - i*d_p, dp + i*dq))\n")
        model = parse_model(text)
        resolver = Resolver(model)
        pol = resolver.polarization()
        assert pol.check().isotropy_ok

    def test_unknown_suite_rejected(self):
        text = "chart M dim 1 coords x\ncheck everything\n"
        with pytest.raises(DslError, match="unknown check suite"):
            parse_model(text)

    def test_frame_constructor(self):
        text = ("chart M dim 2 coords q p\n"
                "section s1 = (d_q, dp)\n"
                "section s2 = (d_p, -dq)\n"
                "dirac D = frame(s1, s2)\n")
        model = parse_model(text)
        dirac = Resolver(model).dirac()
        assert dirac.verify().passed

    def test_poincare_suite_with_t_coordinate(self):
        from diracq.checks import run_checks
        text = ("chart M dim 2 coords t s\n"
                "form omega = dt/\\ds\n"
                "dirac D = graph_presymplectic(omega)\n"
                "check poincare\n")
        model = parse_model(text)
        report = run_checks(model, seed=3, trials=4)
        assert all(c.status in ("pass", "skipped") for c in report.checks)

    def test_example_presymplectic_file_reproduces_hamiltonian(self):
        model = parse_model((MODELS / "presymplectic_r4.dq").read_text(),
                            name="presymplectic_r4")
        resolver = Resolver(model)
        dirac = resolver.dirac()
        complement = resolver.complement()
        f = model.scalars["f"].re
        h_f, _ = hamiltonian_H(dirac, complement, f)
        k = Expr(symbol("k"))
        x1 = Expr(symbol("x1"))
        assert equal(h_f.components[0], k)
        assert is_zero(h_f.components[1]) and is_zero(h_f.components[2])
        assert equal(h_f.components[3], -2 * x1)


    @pytest.mark.parametrize("decl, what", [
        ("form omega = i*dq/\\dp\ndirac D = graph_presymplectic(omega)",
         "presymplectic form"),
        ("bivector W = d_q/\\(q + i)*d_p\ndirac D = graph_poisson(W)",
         "bivector"),
        ("vector X = d_q + i*d_p\ndirac D = regular_distribution(X)",
         "distribution field"),
        ("section s1 = (d_q, dp)\nsection s2 = (d_p, -i*dq)\n"
         "dirac D = frame(s1, s2)", "frame section"),
    ])
    def test_complex_structure_data_skips(self, decl, what):
        from diracq.checks import run_checks
        model = parse_model(f"chart M dim 2 coords q p\n{decl}\n")
        [record] = run_checks(model, suites=["dirac"]).checks[:1]
        assert (record.status, record.witness) == ("skipped",
                                                   f"{what} must be real")


@pytest.mark.parametrize("decl, name, message", [
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omegb)",
     "omegb", "'omegb' is not a declared form"),
    ("vector X = d_q\ndirac D = graph_presymplectic(X)",
     "X)", "'X' is not a declared form"),
    ("form omega = dq/\\dp\ndirac D = graph_poisson(omega)",
     "omega)", "'omega' is not a declared bivector"),
    ("vector X = d_q\ndirac D = regular_distribution(X, Y)",
     "Y", "'Y' is not a declared vector"),
    ("section s = (d_q, dp)\ndirac D = frame(s, t)",
     "t)", "'t' is not a declared section"),
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omega)\n"
     "complement H = sections(zz)", "zz", "'zz' is not a declared section"),
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omega, omega)",
     "omega)", "expected one form"),
    ("form omega = dq\ndirac D = graph_presymplectic(omega)",
     "omega)", "'omega' has degree 1, not 2"),
    ("section s = (d_q, dp)\ndirac D = frame(s)",
     "frame", "a Dirac frame on M needs 2 sections, got 1"),
    ("patch U1\npatch U2\ncochain U1 U9 = 0", "U9",
     "'U9' is not a declared patch"),
    ("cochain U1 U2 = q\npatch U1\npatch U2", "U1",
     "'U1' is not a declared patch"),
    ("patch U1\nsigma U7 = pull(-p*dq)", "U7",
     "'U7' is not a declared patch"),
    ("patch U2\ntransition U1 U2 = 1", "U1",
     "'U1' is not a declared patch"),
    ("patch U\npatch U", "U", "'U' is already a declared patch"),
    ("patch U\nsigma U = pull(-p*dq)\nsigma U = pull(p*dq)", "U",
     "sigma U is already declared"),
    ("patch U1\npatch U2\ntransition U1 U2 = 1\ntransition U1 U2 = 2",
     "U1 U2", "transition U1 U2 is already declared"),
    ("patch U1\npatch U2\ncochain U1 U2 = q\ncochain U1 U2 = 0",
     "U1 U2", "cochain U1 U2 is already declared"),
    ("patch U\ntransition U U = -1", "U",
     "transition U U needs two distinct patches"),
    ("patch U\ncochain U U = 1/2", "U", "cochain U U needs two distinct patches"),
    ("scalar f = q\nscalar f = p", "f =", "'f' is already declared"),
    ("section s = (d_q, dp)\nsection s = (d_p, -dq)", "s =",
     "'s' is already declared"),
    ("halfdensity v = 1\nhalfdensity v = q", "v =", "'v' is already declared"),
    ("scalar f = q\nform f = dq", "f =", "'f' is already declared"),
    ("scalar q = p", "q =", "'q' is a coordinate or parameter"),
    ("scalar pi = 3", "pi =", "'pi' is a built-in name"),
    ("scalar i = 1", "i =", "'i' is a built-in name"),
    ("vector dq = d_p", "dq =", "'dq' is a built-in name"),
    ("form d_p = dq", "d_p =", "'d_p' is a built-in name"),
    ("scalar exp = q", "exp =", "'exp' is a built-in name"),
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omega)\n"
     "dirac E = graph_presymplectic(omega)", "E", "only one dirac per model"),
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omega)\n"
     "complement H = auto\ncomplement K = auto", "K",
     "only one complement per model"),
    ("polarization P = span((d_p, -dq))\npolarization Q = span((d_q, dp))",
     "Q", "only one polarization per model"),
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omega)\n"
     "scalar D = q", "D =", "'D' is already declared"),
    ("form omega = dq/\\dp\ndirac D = graph_presymplectic(omega)\n"
     "complement omega = auto", "omega =", "'omega' is already declared"),
    ("vector X = d_q\npolarization X = span((d_p, -dq))", "X =",
     "'X' is already declared"),
    ("dirac dp = graph_presymplectic(omega)", "dp =",
     "'dp' is a built-in name"),
    ("halfdensity v = q\nscalar g = v*p", "v*p",
     "the half-density 'v' is not an operand"),
    ("section s = (d_q, dp)\nform a = p*dq + s", "s",
     "the section 's' is not an operand"),
    ("chart M dim 2 coords pi p", "pi", "'pi' is a built-in name"),
    ("chart M dim 2 coords q dq", "dq", "'dq' is a built-in name"),
    ("chart M dim 2 coords dq q", "dq", "'dq' is a built-in name"),
    ("chart M dim 2 coords q p params d_p", "d_p", "'d_p' is a built-in name"),
    ("chart M dim 1 coords x params i", "i", "'i' is a built-in name"),
    ("chart M dim 2 coords sin cos", "sin", "'sin' is a built-in name"),
    ("chart M dim 2 coords q q", "q",
     "'q' is already a coordinate or parameter"),
    ("chart M dim 2 coords q p params q", "q",
     "'q' is already a coordinate or parameter"),
])
def test_structure_names_are_resolved_at_parse_time(decl, name, message):
    text = decl + "\n" if decl.startswith("chart ") \
        else f"chart M dim 2 coords q p\n{decl}\n"
    with pytest.raises(DslError, match=message) as err:
        parse_model(text)
    line = text.splitlines()[err.value.line - 1]
    assert err.value.column == line.rindex(name) + 1


def test_a_parameter_is_not_rebound():
    text = "chart M dim 2 coords q p params k\nscalar k = q\n"
    with pytest.raises(DslError, match="'k' is a coordinate or parameter") \
            as err:
        parse_model(text)
    assert (err.value.line, err.value.column) == (2, 8)


class TestRoundTrip:
    @pytest.mark.parametrize("name", sorted(p.stem for p in MODELS.glob("*.dq")))
    def test_format_parse_round_trip(self, name):
        text = (MODELS / f"{name}.dq").read_text()
        model = parse_model(text, name=name)
        printed = format_model(model)
        reparsed = parse_model(printed, name=name)
        assert reparsed == model
        assert format_model(reparsed) == printed

    def test_complex_values_round_trip(self):
        text = ("chart M dim 2 coords q p\n"
                "form omega = dq/\\dp\n"
                "form theta = (q + i*p)*dq - i*dp\n"
                "vector Z = d_q - i*q*d_p\n"
                "dirac D = graph_presymplectic(omega)\n"
                "complement H = auto\n"
                "polarization P = span((d_q - i*d_p, dp + i*dq))\n")
        model = parse_model(text)
        theta = model.forms["theta"]
        assert theta.coeff((0,)) == ComplexExpr(Expr(symbol("q")),
                                                Expr(symbol("p")))
        assert theta.coeff((1,)) == ComplexExpr(ZERO, as_expr(-1))
        printed = format_model(model)
        reparsed = parse_model(printed)
        assert reparsed == model
        assert format_model(reparsed) == printed

    @pytest.mark.parametrize("scalar, text", [("1/q^2", "q^(-2)"),
                                              ("exp(1)", "exp(1)")])
    def test_printed_scalar_reparses(self, scalar, text):
        model = parse_model(f"chart M dim 2 coords q p\nscalar c = {scalar}\n")
        printed = format_model(model)
        assert printed.splitlines()[1] == f"scalar c = {text}"
        assert parse_model(printed) == model


@pytest.mark.parametrize("limit", [600, 2000])
@pytest.mark.parametrize("scalar", ["(" * 3000 + "q" + ")" * 3000,
                                    "-" * 3000 + "q"],
                         ids=["parentheses", "unary-minus"])
def test_deep_nesting_is_reported_where_it_starts(scalar, limit):
    """The column of "nested too deeply" does not depend on the
    interpreter's recursion limit."""
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(limit)
    try:
        with pytest.raises(DslError, match="nested too deeply") as err:
            parse_model(f"chart M dim 2 coords q p\nscalar f = {scalar}\n")
    finally:
        sys.setrecursionlimit(old)
    assert (err.value.line, err.value.column) == (2, 12)


# tokens of the DSL, and a little of what is not
_TOKENS = ["q", "p", "dq", "dp", "d_q", "d_p", "f", "omega", "X", "s", "i",
           "pi", "exp", "sin", "cos", "0", "1", "2", "3", "+", "-", "*", "/",
           "^", "(", ")", ",", "=", "/\\", "span", "pull", "dcoeffs", "auto",
           "graph_presymplectic", "frame", "U1", "U2"]
_KEYWORDS = ["scalar", "form", "vector", "bivector", "section", "dirac",
             "complement", "patch", "transition", "sigma", "cochain",
             "hermitian", "polarization", "halfdensity", "check", "chart"]


@settings(max_examples=300, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.lists(st.tuples(st.sampled_from(_KEYWORDS),
                          st.lists(st.sampled_from(_TOKENS), max_size=12)),
                max_size=5))
def test_parse_model_is_total(statements):
    """Any token stream either parses or ends in a ``DslError``."""
    lines = ["chart M dim 2 coords q p",
             "scalar f = q", "form omega = dq/\\dp", "vector X = d_q",
             "section s = (d_q, dp)"]
    lines += [" ".join([keyword, *tokens]) for keyword, tokens in statements]
    try:
        model = parse_model("\n".join(lines))
    except DslError:
        return
    assert model.chart.coord_names == ("q", "p")
    assert parse_model(format_model(model)) == model
