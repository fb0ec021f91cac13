"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance is pinned here.
"""

from __future__ import annotations

import itertools
import json
import random
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
import sympy as sp

from diracq.algebroid import (
    AForm,
    aform_equal,
    cotangent_algebroid,
    d_A,
    d_D_pair,
    dirac_presentation,
    homotopy_S,
    iota_restrict,
    pr_pullback,
    pullback_over_line,
    rho_pullback_form,
    tangent_algebroid,
    wedge,
)
from diracq.chart import Chart, KForm, KVector
from diracq.dirac import (
    Section,
    graph_poisson,
    graph_presymplectic,
    regular_distribution,
)
from diracq.expr import (
    ComplexExpr,
    Expr,
    as_expr,
    equal,
    is_zero,
    normalize,
    symbol,
)
from diracq.expr import _probabilistic_equal
from diracq.hamiltonian import (
    ComplementH,
    admissible_vector_field,
    bracket_omega,
    default_complement,
    hamiltonian_H,
)
from diracq.prequant import (
    BundleAtlas,
    IntegralityError,
    build_prequantization,
    line_section_from_patch,
    prequant_condition,
    prequant_operator,
    transition_exp,
)
from diracq.quantize import (
    Polarization,
    half_density_section,
    hzero_invariance_probe,
    lemma51_residual,
    selfadjoint_integrand,
)
from diracq.randgen import (
    random_kform,
    random_kvector,
    random_mixed_expr,
    random_polynomial,
    random_rational_expr,
    rng_for,
)

from helpers import fd_matches

MODELS = Path(__file__).resolve().parent.parent / "models"
# byte-exact `check --suite all --seed 7 --json` reports of the corpus
GOLDEN = Path(__file__).resolve().parent / "golden"


def _structures():
    """The five stock structures with their admissible-polynomial makers."""
    r2 = Chart("M", ("q", "p"))
    std = graph_presymplectic(r2.basis_covector(0).wedge(r2.basis_covector(1)))

    r4 = Chart("R4", ("x1", "x2", "x3", "x4"), ("k",))
    pres4 = graph_presymplectic(KForm(r4, 2, {(0, 1): 1, (0, 3): 1}))

    poisson_std = graph_poisson(KVector(r2, 2, {(0, 1): 1}))

    gchart = Chart("P", ("x1", "x2"))
    g1, g2 = (Expr(s) for s in gchart.coords)
    poisson_g = graph_poisson(KVector(gchart, 2, {(0, 1): g1 ** 2 + g2 ** 2}))

    fol_chart = Chart("F", ("x1", "x2"))
    foliation = regular_distribution([fol_chart.basis_vector(0)])

    fol3_chart = Chart("F3", ("x1", "x2", "x3"))
    foliation3 = regular_distribution([fol3_chart.basis_vector(0),
                                       fol3_chart.basis_vector(1)])

    def any_poly(rng, chart):
        return random_polynomial(rng, chart, degree=3, terms=2)

    def r4_poly(rng, chart):
        # admissible functions are generated by x1 and x2 + x4
        s = sp.Symbol("_s", real=True)
        poly = random_polynomial(rng, Chart("aux", ("x1", "_s")), 3, 2).node
        return Expr(sp.expand(poly.subs(s, symbol("x2").tree
                                        + symbol("x4").tree)))

    def x2_poly(rng, chart):
        return Expr(random_polynomial(
            rng, Chart("aux1", ("x2",)), 3, 2).node)

    def x3_poly(rng, chart):
        return Expr(random_polynomial(
            rng, Chart("aux2", ("x3",)), 3, 2).node)

    return [
        ("standard symplectic", std, any_poly),
        ("degenerate presymplectic 4d", pres4, r4_poly),
        ("constant poisson", poisson_std, any_poly),
        ("quadratic poisson", poisson_g, any_poly),
        ("line foliation", foliation, x2_poly),
        ("plane foliation", foliation3, x3_poly),
    ]


def test_criterion_1_dirac_axioms():
    start = time.monotonic()
    for label, dirac, _maker in _structures():
        report = dirac.verify()
        assert report.d1_ok, f"{label}: D1 fails ({report.d1_witness})"
        assert report.d2_ok, f"{label}: D2 fails (rank {report.d2_rank})"
        assert report.d3_ok, f"{label}: D3 fails ({report.d3_witness})"
        assert report.lemma_ok, f"{label}: integrability identity fails"
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"axiom suite took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 1 (Dirac axioms, {elapsed:.2f}s): PASS")


def test_criterion_2_poisson_algebra():
    for label, dirac, maker in _structures():
        rng = rng_for(2024, f"criterion2:{label}")
        complement = default_complement(dirac)
        pool = []
        attempts = 0
        while len(pool) < 8 and attempts < 200:
            attempts += 1
            f = maker(rng, dirac.chart)
            if admissible_vector_field(dirac, f).ok:
                pool.append(f)
        assert len(pool) >= 8, f"{label}: admissible pool too small"
        triples = list(itertools.islice(itertools.combinations(pool, 3), 20))
        assert len(triples) >= 20
        for f, g, h in triples:
            fg = bracket_omega(dirac, complement, f, g)
            gf = bracket_omega(dirac, complement, g, f)
            assert is_zero(fg + gf), f"{label}: antisymmetry fails"
            lhs = bracket_omega(dirac, complement, f, g * h)
            rhs = fg * h + g * bracket_omega(dirac, complement, f, h)
            assert is_zero(lhs - rhs), f"{label}: Leibniz fails"
            gh = bracket_omega(dirac, complement, g, h)
            hf = bracket_omega(dirac, complement, h, f)
            jac = bracket_omega(dirac, complement, fg, h) \
                + bracket_omega(dirac, complement, gh, f) \
                + bracket_omega(dirac, complement, hf, g)
            assert is_zero(jac), f"{label}: Jacobi fails"
            h_f, _ = hamiltonian_H(dirac, complement, f)
            h_g, _ = hamiltonian_H(dirac, complement, g)
            h_fg, _ = hamiltonian_H(dirac, complement, fg)
            assert (h_f.lie_bracket(h_g) + h_fg).is_zero_field(), \
                f"{label}: field identity fails"
    # the pinned closed-form Hamiltonian field on the 4d example
    r4 = Chart("R4", ("x1", "x2", "x3", "x4"), ("k",))
    pres4 = graph_presymplectic(KForm(r4, 2, {(0, 1): 1, (0, 3): 1}))
    k, x1 = Expr(symbol("k")), Expr(symbol("x1"))
    f = x1 ** 2 + k * (Expr(symbol("x2")) + Expr(symbol("x4")))
    complement = ComplementH(pres4, [
        Section(r4.basis_vector(0), r4.basis_covector(1) + r4.basis_covector(3)),
        Section(-r4.basis_vector(3), r4.basis_covector(0))])
    h_f, _ = hamiltonian_H(pres4, complement, f)
    assert equal(h_f.components[0], k)
    assert is_zero(h_f.components[1]) and is_zero(h_f.components[2])
    assert equal(h_f.components[3], -2 * x1)
    print("\nACCEPTANCE 2 (Poisson algebra of admissible functions): PASS")


def test_criterion_3_algebroid_calculus():
    r2 = Chart("M", ("q", "p"))
    std = graph_presymplectic(r2.basis_covector(0).wedge(r2.basis_covector(1)))
    gchart = Chart("P", ("x1", "x2"))
    g1, g2 = (Expr(s) for s in gchart.coords)
    pi_g = KVector(gchart, 2, {(0, 1): g1 ** 2 + g2 ** 2})
    presentations = [
        tangent_algebroid(Chart("T3", ("x1", "x2", "x3"))),
        cotangent_algebroid(r2, KVector(r2, 2, {(0, 1): 1})),
        cotangent_algebroid(gchart, pi_g),
        dirac_presentation(std),
    ]
    rng = rng_for(2024, "criterion3")
    checked = 0
    while checked < 50:
        pres = presentations[checked % len(presentations)]
        degree = rng.randint(0, max(0, pres.rank - 2))
        coeffs = {key: random_polynomial(rng, pres.chart, 3, 2)
                  for key in itertools.combinations(range(pres.rank), degree)}
        theta = AForm(pres, degree, coeffs)
        assert d_A(d_A(theta)).is_zero_form(), "d_A squared fails"
        other_deg = rng.randint(0, 1)
        other = AForm(pres, other_deg,
                      {key: random_polynomial(rng, pres.chart, 2, 2)
                       for key in itertools.combinations(range(pres.rank),
                                                         other_deg)})
        lhs = d_A(wedge(theta, other))
        sign = -1 if degree % 2 else 1
        rhs = wedge(d_A(theta), other) + wedge(theta, d_A(other)).scale(sign)
        assert aform_equal(lhs, rhs), "graded Leibniz fails"
        checked += 1
    # the pair decomposition agrees with the direct formula
    r4 = Chart("R4", ("x1", "x2", "x3", "x4"), ("k",))
    pres4 = graph_presymplectic(KForm(r4, 2, {(0, 1): 1, (0, 3): 1}))
    gdirac = graph_poisson(pi_g)
    diracs = [std, gdirac, pres4]
    pairs_checked = 0
    while pairs_checked < 20:
        dirac = diracs[pairs_checked % len(diracs)]
        degree = rng.randint(0, 2)
        phi = random_kform(rng, dirac.chart, degree)
        q = random_kvector(rng, dirac.chart, degree)
        d_D_pair(phi, q, dirac)  # raises on disagreement
        pairs_checked += 1
    print("\nACCEPTANCE 3 (Lie algebroid calculus, 50 forms + 20 pairs): PASS")


def test_criterion_4_poincare_homotopy():
    r2 = Chart("M", ("q", "p"))
    std = graph_presymplectic(r2.basis_covector(0).wedge(r2.basis_covector(1)))
    line = pullback_over_line(std)
    t = symbol("t").tree
    rng = rng_for(2024, "criterion4")
    for trial in range(20):
        degree = rng.randint(1, 3)
        coeffs = {}
        for key in itertools.combinations(range(3), degree):
            base = random_polynomial(rng, r2, 2, 2).node
            tpart = sum(rng.randint(0, 4) * t ** j for j in range(4))
            coeffs[key] = Expr(sp.expand(base * tpart))
        omega = AForm(line, degree, coeffs)
        lhs = d_A(homotopy_S(omega)) + homotopy_S(d_A(omega))
        rhs = omega - pr_pullback(iota_restrict(omega), line)
        assert aform_equal(lhs, rhs), f"homotopy identity fails on trial {trial}"
    print("\nACCEPTANCE 4 (chart-level Poincare homotopy, 20 forms): PASS")


def test_criterion_5_prequantization():
    r2 = Chart("M", ("q", "p"))
    std = graph_presymplectic(r2.basis_covector(0).wedge(r2.basis_covector(1)))
    complement = default_complement(std)
    p = Expr(r2.coords[1])
    sigma = rho_pullback_form(r2.basis_covector(0).scale(-p), std)
    atlas = BundleAtlas(std, ("U",), {}, {"U": sigma}, hermitian=True)
    atlas.validate()
    assert prequant_condition(atlas).ok
    rng = rng_for(2024, "criterion5")
    section = line_section_from_patch(atlas, "U", 1)
    for _ in range(20):
        f = random_polynomial(rng, r2, 3, 2)
        g = random_polynomial(rng, r2, 3, 2)
        fg = bracket_omega(std, complement, f, g)
        lhs = prequant_operator(
            f, atlas, complement,
            prequant_operator(g, atlas, complement, section)) \
            - prequant_operator(
                g, atlas, complement,
                prequant_operator(f, atlas, complement, section))
        rhs = prequant_operator(fg, atlas, complement, section)
        assert (lhs - rhs).is_zero_section(), "commutator residual nonzero"
    doubled = BundleAtlas(std, ("U",), {},
                          {"U": sigma.scale(as_expr(2))}, hermitian=True)
    result = prequant_condition(doubled)
    assert not result.ok
    assert not result.residual.is_zero_form()
    q = Expr(r2.coords[0])
    fg = bracket_omega(std, complement, q, p)
    lhs = prequant_operator(
        q, doubled, complement,
        prequant_operator(p, doubled, complement, section)) \
        - prequant_operator(
            p, doubled, complement,
            prequant_operator(q, doubled, complement, section))
    rhs = prequant_operator(fg, doubled, complement, section)
    assert not (lhs - rhs).is_zero_section(), \
        "perturbed connection should break the commutator identity"
    print("\nACCEPTANCE 5 (prequantization condition and representation): PASS")


def test_criterion_6_cocycle_construction():
    r2 = Chart("M", ("q", "p"))
    std = graph_presymplectic(r2.basis_covector(0).wedge(r2.basis_covector(1)))
    pres = dirac_presentation(std)
    q, p = (Expr(s) for s in r2.coords)
    base = rho_pullback_form(r2.basis_covector(0).scale(-p), std)
    sigma = {"U1": base, "U2": base - d_A(q, pres), "U3": base}
    w = {("U1", "U2"): q, ("U2", "U3"): -q, ("U1", "U3"): as_expr(0)}
    atlas = build_prequantization(std, ["U1", "U2", "U3"], sigma, w)
    # the transitions satisfy the cocycle law and the 1-section relation
    atlas.validate()
    product = atlas.transition("U1", "U2") * atlas.transition("U2", "U3")
    assert is_zero(product - atlas.transition("U1", "U3"))
    assert is_zero(atlas.transition("U1", "U2") - transition_exp(q))
    with pytest.raises(IntegralityError) as err:
        build_prequantization(
            std, ["U1", "U2", "U3"],
            {"U1": base, "U2": base, "U3": base},
            {("U1", "U2"): as_expr(1) / 3, ("U2", "U3"): as_expr(0),
             ("U1", "U3"): as_expr(0)})
    assert str(err.value.witness) == "1/3"
    print("\nACCEPTANCE 6 (Cech cocycle construction and integrality): PASS")


def test_criterion_7_quantization_layer():
    r2 = Chart("M", ("q", "p"))
    std = graph_presymplectic(r2.basis_covector(0).wedge(r2.basis_covector(1)))
    complement = default_complement(std)
    p = Expr(r2.coords[1])
    q = Expr(r2.coords[0])
    sigma = rho_pullback_form(r2.basis_covector(0).scale(-p), std)
    atlas = BundleAtlas(std, ("U",), {}, {"U": sigma}, hermitian=True)
    atlas.validate()
    vertical = Polarization(std, complement, (std.frame[1],))
    assert vertical.check().passed
    rng = rng_for(2024, "criterion7")
    functions = [q, p, q + p, as_expr(3), as_expr(Fraction(-1, 2))]
    densities = []
    for _ in range(10):
        coeff = ComplexExpr(random_polynomial(rng, r2, 2, 2),
                            random_polynomial(rng, r2, 2, 2))
        densities.append(half_density_section(atlas, coeff))
    psi = vertical.frame[0]
    for f in functions:
        for v in densities:
            residual = lemma51_residual(psi, f, v, atlas, complement)
            assert residual.is_zero_section(), f"commutation residual for f={f}"
    for f in functions:
        for v1, v2 in zip(densities, densities[1:]):
            density = selfadjoint_integrand(f, v1, v2, atlas, complement)
            assert is_zero(density.coeff), \
                f"self-adjointness integrand nonzero for f={f}"
    flat = half_density_section(atlas, ComplexExpr.of(q ** 2 + 1))
    for f in (q, p, q + p):
        is_flat, invariant = hzero_invariance_probe(vertical, atlas,
                                                    complement, f, flat)
        assert is_flat and invariant
    print("\nACCEPTANCE 7 (half-density quantization identities): PASS")


def test_criterion_8_kernel_soundness():
    rng = random.Random(818)
    names = ["x", "y"]
    checked = 0
    while checked < 100:
        e = random_mixed_expr(rng, names, depth=3)
        if not e.free_symbols:
            continue
        name = rng.choice(sorted(str(s) for s in e.free_symbols))
        assert fd_matches(e, name, rng, points=5, rel_tol=1e-6), \
            f"finite differences disagree for {e}"
        checked += 1
    pair_rng = random.Random(819)
    agreements = 0
    while agreements < 1000:
        e1 = random_rational_expr(pair_rng, names, depth=3)
        if agreements % 2 == 0:
            disguise = random_rational_expr(pair_rng, names, depth=2)
            try:
                e2 = (e1 * disguise + e1) / (disguise + 1)
            except Exception:
                continue
        else:
            e2 = random_rational_expr(pair_rng, names, depth=3)
        canonical = normalize(e1 - e2).node == 0
        probabilistic = _probabilistic_equal(e1.node, e2.node, trials=20,
                                             seed=7, tolerance=1e-9)
        if canonical:
            assert probabilistic, f"false negative on {e1} vs {e2}"
        else:
            assert not probabilistic, f"false positive on {e1} vs {e2}"
        agreements += 1
    print("\nACCEPTANCE 8 (kernel derivative and equality soundness): PASS")


def test_criterion_9_cli_determinism():
    model_files = sorted(MODELS.glob("*.dq"))
    assert model_files, "model corpus missing"
    runs: list[dict[str, bytes]] = []
    elapsed = 0.0
    for _ in range(2):
        outputs = {}
        start = time.monotonic()
        for path in model_files:
            proc = subprocess.run(
                [sys.executable, "-m", "diracq.cli", "check", str(path),
                 "--suite", "all", "--seed", "7", "--json"],
                capture_output=True, check=False)
            assert proc.returncode in (0, 1), proc.stderr.decode()
            assert proc.stdout, proc.stderr.decode()  # a report was written
            json.loads(proc.stdout)  # well-formed
            outputs[path.name] = proc.stdout
        elapsed = time.monotonic() - start
        runs.append(outputs)
    for path in model_files:
        golden = (GOLDEN / f"{path.stem}.json").read_bytes()
        assert runs[0][path.name] == golden, f"{path.name} differs from golden"
    assert runs[0] == runs[1], "CLI reports differ between runs"
    assert elapsed < 60.0, f"corpus run took {elapsed:.1f}s"
    print(f"\nACCEPTANCE 9 (CLI determinism, corpus in {elapsed:.1f}s): PASS")
