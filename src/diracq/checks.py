"""Verification suites over parsed models, and the deterministic report.

Reports are byte-identical across runs with the same seed and inputs; the
``millis`` field is kept at zero so serialization stays reproducible.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from fractions import Fraction

from .algebroid import (
    AForm,
    aform_equal,
    d_A,
    dirac_presentation,
    homotopy_S,
    iota_restrict,
    pr_pullback,
    pullback_over_line,
    rho_pullback_form,
)
from .chart import AlphaDensity, exterior_derivative, real_part
from .dirac import (
    DiracStructure,
    graph_poisson,
    graph_presymplectic,
    omega_on_frame,
    pi_sharp_on_frame,
    regular_distribution,
)
from .dsl import SUITES, Model
from .expr import ComplexExpr, Expr, complex_is_zero, equality_config, is_zero
from .hamiltonian import (
    ComplementH,
    admissible_vector_field,
    bracket_omega,
    bracket_prime,
    default_complement,
    hamiltonian_H,
)
from .prequant import (
    AtlasError,
    BundleAtlas,
    IntegralityError,
    build_prequantization,
    curvature_2section,
    hermitian_check,
    lambda_Dform,
    line_section_from_patch,
    prequant_condition,
    prequant_operator,
)
from .quantize import (
    HalfDensitySection,
    Polarization,
    half_density_section,
    hzero_invariance_probe,
    integrate_density,
    lemma51_residual,
    polarization_check,
    projectability_probe,
    q_bundle,
    selfadjoint_integrand,
    sp_membership,
)
from .randgen import random_polynomial, rng_for

__all__ = ["CheckRecord", "Report", "run_checks", "Resolver", "SkipSuite"]


@dataclass
class CheckRecord:
    name: str
    status: str                    # pass | fail | error | skipped
    witness: str | None = None
    millis: int = 0

    def to_dict(self) -> dict:
        return {"name": self.name, "status": self.status,
                "witness": self.witness, "millis": self.millis}


@dataclass
class Report:
    model: str
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {"model": self.model, "seed": self.seed,
                "checks": [c.to_dict() for c in self.checks]}

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    def to_text(self) -> str:
        width = max((len(c.name) for c in self.checks), default=0)
        lines = [f"model {self.model} (seed {self.seed})"]
        for c in self.checks:
            line = f"  {c.name.ljust(width)}  {c.status.upper()}"
            if c.witness:
                line += f"  [{c.witness}]"
            lines.append(line)
        counts = {}
        for c in self.checks:
            counts[c.status] = counts.get(c.status, 0) + 1
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"  -- {summary}")
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        bad = any(c.status in ("fail", "error") for c in self.checks)
        return 1 if bad else 0


class SkipSuite(Exception):
    """Raised when a suite's prerequisites are not declared in the model."""


class Resolver:
    """Lazy construction of runtime objects from model declarations."""

    def __init__(self, model: Model):
        self.model = model
        self._dirac: DiracStructure | None = None
        self._complement: ComplementH | None = None
        self._atlas: BundleAtlas | AtlasError | None = None
        self._polarization: Polarization | None = None

    # -- coercions ----------------------------------------------------------

    @staticmethod
    def real(value, what: str):
        """``value`` (a tensor or section) when all its coefficients are
        real; otherwise the suite is skipped."""
        if value.map_coeffs(real_part) != value:
            raise SkipSuite(f"{what} must be real")
        return value

    def real_scalars(self) -> dict[str, Expr]:
        out = {}
        for name, z in self.model.scalars.items():
            if z.im.node == 0:
                out[name] = z.re
        return out

    # -- objects ------------------------------------------------------------

    def dirac(self) -> DiracStructure:
        if self._dirac is not None:
            return self._dirac
        decl = self.model.dirac_decl
        if decl is None:
            raise SkipSuite("no Dirac structure declared")
        _, kind, args = decl
        model = self.model
        if kind == "graph_presymplectic":
            form = self.real(model.forms[args[0]], "presymplectic form")
            self._dirac = graph_presymplectic(form)
        elif kind == "graph_poisson":
            bivector = self.real(model.bivectors[args[0]], "bivector")
            self._dirac = graph_poisson(bivector)
        elif kind == "regular_distribution":
            fields = [self.real(model.vectors[a], "distribution field")
                      for a in args]
            self._dirac = regular_distribution(fields)
        else:
            sections = [self.real(model.sections[a], "frame section")
                        for a in args]
            self._dirac = DiracStructure(model.chart, sections)
        return self._dirac

    def complement(self) -> ComplementH:
        if self._complement is not None:
            return self._complement
        decl = self.model.complement_decl
        dirac = self.dirac()
        if decl is None or decl[1] == "auto":
            self._complement = default_complement(dirac)
        else:
            sections = [self.real(self.model.sections[a], "complement section")
                        for a in decl[2]]
            self._complement = ComplementH(dirac, sections)
        return self._complement

    def sigma_forms(self) -> dict[str, AForm]:
        dirac = self.dirac()
        pres = dirac_presentation(dirac)
        out = {}
        for patch, (kind, payload) in self.model.sigmas.items():
            if kind == "pull":
                out[patch] = rho_pullback_form(payload[0], dirac)
            else:
                if len(payload) != dirac.dim:
                    raise SkipSuite(
                        f"sigma on {patch} needs {dirac.dim} coefficients")
                out[patch] = AForm(pres, 1, {(i,): z
                                             for i, z in enumerate(payload)})
        return out

    def atlas(self) -> BundleAtlas:
        """The declared atlas; an ``AtlasError`` met while building it is
        kept and raised again on every later call."""
        if isinstance(self._atlas, AtlasError):
            raise self._atlas
        if self._atlas is not None:
            return self._atlas
        model = self.model
        if not model.patches or not model.sigmas:
            raise SkipSuite("no atlas declared (patches + sigma required)")
        sigma = self.sigma_forms()
        try:
            if model.cochain:
                atlas = build_prequantization(self.dirac(), model.patches,
                                              sigma, model.cochain)
            else:
                atlas = BundleAtlas(self.dirac(), tuple(model.patches),
                                    dict(model.transitions), sigma,
                                    hermitian=model.hermitian)
                atlas.validate()
        except AtlasError as err:
            self._atlas = err
            raise
        self._atlas = atlas
        return atlas

    def polarization(self) -> Polarization:
        if self._polarization is not None:
            return self._polarization
        decl = self.model.polarization_decl
        if decl is None:
            raise SkipSuite("no polarization declared")
        self._polarization = Polarization(self.dirac(), self.complement(),
                                          decl[1])
        return self._polarization

    def halfdensity_sections(self) -> dict[str, HalfDensitySection]:
        if not self.model.halfdensities:
            raise SkipSuite("no half-density sections declared")
        atlas = self.atlas()
        return {name: half_density_section(atlas, coeff)
                for name, coeff in self.model.halfdensities.items()}


def _atlas_failure(err: AtlasError) -> str:
    """The witness of an atlas that could not be built."""
    if isinstance(err, IntegralityError):
        return f"integrality obstruction: {err.witness}"
    return str(err)


def _unit(records: list[CheckRecord], name: str, fn) -> None:
    try:
        outcome = fn()
    except SkipSuite as skip:
        records.append(CheckRecord(name, "skipped", str(skip)))
        return
    except Exception as err:  # surfaced as a record, not a crash
        records.append(CheckRecord(name, "error", f"{type(err).__name__}: {err}"))
        return
    if outcome is True or outcome is None:
        records.append(CheckRecord(name, "pass"))
    elif outcome is False:
        records.append(CheckRecord(name, "fail"))
    else:
        ok, witness = outcome
        records.append(CheckRecord(name, "pass" if ok else "fail", witness))


# ---------------------------------------------------------------------------
# suites


def _suite_dirac(resolver: Resolver, ctx) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    dirac = resolver.dirac()
    report = dirac.verify()
    _unit(records, "dirac/D1-isotropy", lambda: (report.d1_ok, report.d1_witness))
    _unit(records, "dirac/D2-rank",
          lambda: (report.d2_ok, f"rank {report.d2_rank}"))
    _unit(records, "dirac/D3-closure", lambda: (report.d3_ok, report.d3_witness))
    _unit(records, "dirac/integrability-identity",
          lambda: (report.lemma_ok, report.lemma_witness))
    _unit(records, "dirac/kernel-equations", lambda: (
        report.kernel_ok,
        f"dim rho_TM(D)={report.dim_characteristic}, "
        f"dim D^T*M={report.dim_cotangent_kernel}, "
        f"dim rho_T*M(D)={report.dim_admissible_covectors}, "
        f"dim D^TM={report.dim_tangent_kernel}"))
    _unit(records, "dirac/annihilator-duality",
          lambda: report.annihilator_ok)
    # the cocycle and the morphism law are only defined on a Dirac structure
    for name, check in (
            ("dirac/omega-cocycle", lambda: omega_on_frame(dirac) is not None),
            ("dirac/pi-sharp-morphism",
             lambda: pi_sharp_on_frame(dirac).verify_morphism())):
        if report.passed:
            _unit(records, name, check)
        else:
            records.append(CheckRecord(name, "skipped",
                                       "not a Dirac structure"))
    return records


def _admissible_pool(resolver: Resolver, ctx, count: int) -> list[Expr]:
    dirac = resolver.dirac()
    rng = rng_for(ctx.seed, f"{resolver.model.name}:poisson-pool")
    pool: list[Expr] = []
    for f in resolver.real_scalars().values():
        if admissible_vector_field(dirac, f).ok:
            pool.append(f)
    attempts = 0
    while len(pool) < count and attempts < 12 * count:
        attempts += 1
        f = random_polynomial(rng, dirac.chart, degree=3, terms=2)
        if admissible_vector_field(dirac, f).ok:
            pool.append(f)
    return pool


def _suite_poisson(resolver: Resolver, ctx) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    dirac = resolver.dirac()
    complement = resolver.complement()
    non_admissible = [name for name, f in resolver.real_scalars().items()
                      if not admissible_vector_field(dirac, f).ok]
    _unit(records, "poisson/admissible-scalars",
          lambda: (True, ("non-admissible: " + ", ".join(non_admissible))
                   if non_admissible else None))
    pool = _admissible_pool(resolver, ctx, max(4, min(ctx.trials // 3, 8)))
    if len(pool) < 3:
        records.append(CheckRecord("poisson/laws", "skipped",
                                   "fewer than three admissible functions found"))
        return records
    triples = list(itertools.islice(itertools.combinations(pool, 3), ctx.trials))

    def antisymmetry():
        for f, g, _ in triples:
            if not is_zero(bracket_omega(dirac, complement, f, g)
                           + bracket_omega(dirac, complement, g, f)):
                return (False, f"{{f,g}}+{{g,f}} != 0 for f={f}, g={g}")
        return True

    def leibniz():
        for f, g, h in triples:
            lhs = bracket_omega(dirac, complement, f, g * h)
            rhs = (bracket_omega(dirac, complement, f, g) * h
                   + g * bracket_omega(dirac, complement, f, h))
            if not is_zero(lhs - rhs):
                return (False, f"Leibniz fails for f={f}, g={g}, h={h}")
        return True

    def jacobi():
        for f, g, h in triples:
            def br(a, b):
                return bracket_omega(dirac, complement, a, b)
            total = br(br(f, g), h) + br(br(g, h), f) + br(br(h, f), g)
            if not is_zero(total):
                return (False, f"Jacobi fails: residual {total}")
        return True

    def field_identity():
        for f, g, _ in triples:
            h_f, _c = hamiltonian_H(dirac, complement, f)
            h_g, _c = hamiltonian_H(dirac, complement, g)
            h_fg, _c = hamiltonian_H(dirac, complement,
                                     bracket_omega(dirac, complement, f, g))
            residual = h_f.lie_bracket(h_g) + h_fg
            if not residual.is_zero_field():
                return (False, f"[H_f,H_g]+H_{{f,g}} != 0 for f={f}, g={g}")
        return True

    def prime_matches():
        for f, g, _ in triples:
            if not is_zero(bracket_prime(dirac, f, g)
                           - bracket_omega(dirac, complement, f, g)):
                return (False, f"{{f,g}}' != {{f,g}} for f={f}, g={g}")
        return True

    def kernel_shift():
        kernel = dirac.tangent_kernel_fields()
        for f, _g, _h in triples:
            dform = exterior_derivative(resolver.dirac().chart.scalar_form(f))
            for v in kernel:
                if not is_zero(dform.evaluate([v])):
                    return (False, f"df does not kill D^TM for f={f}")
        return True

    _unit(records, "poisson/antisymmetry", antisymmetry)
    _unit(records, "poisson/leibniz", leibniz)
    _unit(records, "poisson/jacobi", jacobi)
    _unit(records, "poisson/field-identity", field_identity)
    _unit(records, "poisson/prime-matches-omega", prime_matches)
    _unit(records, "poisson/kernel-shift-invariance", kernel_shift)
    return records


def _suite_prequant(resolver: Resolver, ctx) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    try:
        atlas = resolver.atlas()
    except AtlasError as err:
        records.append(CheckRecord("prequant/atlas", "fail",
                                   _atlas_failure(err)))
        return records
    _unit(records, "prequant/atlas", lambda: True)
    _unit(records, "prequant/curvature-patch-independent",
          lambda: curvature_2section(atlas) is not None)
    _unit(records, "prequant/lambda-closed",
          lambda: lambda_Dform(resolver.dirac()) is not None)
    condition = prequant_condition(atlas)
    witness = None if condition.ok else \
        "; ".join(f"tau-Lambda[{k}] = {v}" for k, v in
                  condition.residual.coeffs.items())
    _unit(records, "prequant/condition", lambda: (condition.ok, witness))

    def commutator():
        dirac = resolver.dirac()
        complement = resolver.complement()
        pool = _admissible_pool(resolver, ctx, 5)
        if len(pool) < 2:
            raise SkipSuite("not enough admissible functions")
        section = line_section_from_patch(atlas, atlas.patches[0], 1)
        pairs = list(itertools.islice(itertools.combinations(pool, 2),
                                      max(1, ctx.trials // 2)))
        for f, g in pairs:
            fg = bracket_omega(dirac, complement, f, g)
            lhs = prequant_operator(
                f, atlas, complement,
                prequant_operator(g, atlas, complement, section)) \
                - prequant_operator(
                    g, atlas, complement,
                    prequant_operator(f, atlas, complement, section))
            rhs = prequant_operator(fg, atlas, complement, section)
            if not (lhs - rhs).is_zero_section():
                return (False, f"[fhat,ghat] != {{f,g}}hat for f={f}, g={g}")
        return True

    _unit(records, "prequant/commutator", commutator)

    if atlas.hermitian:
        def hermitian():
            dirac = resolver.dirac()
            complement = resolver.complement()
            rng = rng_for(ctx.seed, f"{resolver.model.name}:hermitian")
            pool = _admissible_pool(resolver, ctx, 3)
            if not pool:
                raise SkipSuite("no admissible functions")
            for f in pool[:3]:
                z1 = ComplexExpr(random_polynomial(rng, dirac.chart, 2, 2),
                                 random_polynomial(rng, dirac.chart, 2, 2))
                z2 = ComplexExpr(random_polynomial(rng, dirac.chart, 2, 2),
                                 random_polynomial(rng, dirac.chart, 2, 2))
                s1 = line_section_from_patch(atlas, atlas.patches[0], z1)
                s2 = line_section_from_patch(atlas, atlas.patches[0], z2)
                residuals = hermitian_check(atlas, complement, f, s1, s2)
                for patch, value in residuals.items():
                    if not complex_is_zero(value):
                        return (False, f"residual on {patch} for f={f}: {value}")
            return True

        _unit(records, "prequant/hermitian-identity", hermitian)
    return records


def _suite_polarize(resolver: Resolver, ctx) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    pol = resolver.polarization()
    report = polarization_check(pol)
    _unit(records, "polarize/isotropy",
          lambda: (report.isotropy_ok, report.isotropy_witness))
    _unit(records, "polarize/involutivity",
          lambda: (report.involutive_ok, report.involutive_witness))
    _unit(records, "polarize/containment",
          lambda: (report.containment_ok, report.containment_witness))

    def sp_closure():
        outsiders = []
        for name, f in resolver.real_scalars().items():
            if not admissible_vector_field(resolver.dirac(), f).ok:
                continue
            ok, _ = sp_membership(f, pol)
            if not ok:
                outsiders.append(name)
        return (True, ("outside S(P): " + ", ".join(outsiders))
                if outsiders else None)

    _unit(records, "polarize/sp-closure", sp_closure)

    def q_probe():
        members = [f for f in resolver.real_scalars().values()
                   if admissible_vector_field(resolver.dirac(), f).ok
                   and sp_membership(f, pol)[0]]
        sections = q_bundle(pol, probe=False)
        ok, witness = projectability_probe(pol, sections, members)
        return (ok, witness or f"rank {len(sections)}")

    _unit(records, "polarize/q-bundle", q_probe)
    return records


def _suite_quantize(resolver: Resolver, ctx) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    try:
        atlas = resolver.atlas()
    except AtlasError as err:
        raise SkipSuite(_atlas_failure(err)) from err
    pol = resolver.polarization()
    densities = resolver.halfdensity_sections()
    complement = resolver.complement()
    dirac = resolver.dirac()
    if not prequant_condition(atlas).ok:
        records.append(CheckRecord("quantize/prequantizable", "fail",
                                   "prequantization condition fails"))
        return records
    _unit(records, "quantize/prequantizable", lambda: True)
    members = [f for f in resolver.real_scalars().values()
               if admissible_vector_field(dirac, f).ok
               and sp_membership(f, pol)[0]]
    if not members:
        records.append(CheckRecord("quantize/lemma51", "skipped",
                                   "no declared functions in S(P)"))
        return records

    def lemma():
        for f in members:
            for psi in pol.frame:
                for v in densities.values():
                    residual = lemma51_residual(psi, f, v, atlas, complement)
                    if not residual.is_zero_hsection():
                        return (False, f"residual for f={f}")
        return True

    def selfadjoint():
        names = list(densities)
        for f in members:
            for a in names:
                for b in names:
                    density = selfadjoint_integrand(f, densities[a],
                                                    densities[b], atlas,
                                                    complement)
                    if not complex_is_zero(density.coeff):
                        return (False, f"nonzero integrand for f={f}, "
                                       f"v1={a}, v2={b}")
        return True

    def hzero():
        flat_found = False
        for name, v in densities.items():
            for f in members:
                flat, invariant = hzero_invariance_probe(pol, atlas,
                                                         complement, f, v)
                if flat:
                    flat_found = True
                    if not invariant:
                        return (False, f"fhat leaves the flat space on {name}")
        if not flat_found:
            raise SkipSuite("no declared half-density is flat along P")
        return True

    def quadrature():
        chart = dirac.chart
        unit = AlphaDensity(chart, Fraction(1), ComplexExpr.of(1))
        box = {name: (Fraction(0), Fraction(1)) for name in chart.coord_names}
        value = integrate_density(unit, box)
        return (abs(float(value) - 1.0) < 1e-8, f"volume {value}")

    _unit(records, "quantize/lemma51", lemma)
    _unit(records, "quantize/selfadjoint-integrand", selfadjoint)
    _unit(records, "quantize/hzero-invariance", hzero)
    _unit(records, "quantize/quadrature", quadrature)
    return records


def _suite_poincare(resolver: Resolver, ctx) -> list[CheckRecord]:
    records: list[CheckRecord] = []
    dirac = resolver.dirac()
    t_name = "t"
    while t_name in dirac.chart.coord_names + dirac.chart.param_names:
        t_name += "_"
    line = pullback_over_line(dirac, t_name)
    n = dirac.dim
    _unit(records, "poincare/pullback-rank",
          lambda: (line.rank == n + 1, f"rank {line.rank}"))

    def anchor_t():
        anchor = line.anchors[-1]
        expected = line.chart.basis_vector(n)
        return all(is_zero(a - b) for a, b in
                   zip(anchor.components, expected.components))

    _unit(records, "poincare/anchor-t", anchor_t)

    def structure_inherited():
        base = dirac_presentation(dirac)
        for key, coeffs in base.structure.items():
            lifted = line.structure.get(key, ())
            for a, b in zip(coeffs, lifted):
                if not is_zero(a - b):
                    return False
            if len(lifted) != n + 1 or not is_zero(lifted[-1]):
                return False
        return True

    _unit(records, "poincare/structure-inherited", structure_inherited)

    def homotopy():
        import sympy as sp
        from .expr import symbol
        rng = rng_for(ctx.seed, f"{resolver.model.name}:poincare")
        t = symbol(line.chart.coord_names[-1])
        for trial in range(ctx.trials):
            degree = rng.randint(1, min(3, line.rank))
            coeffs = {}
            for key in itertools.combinations(range(line.rank), degree):
                poly = random_polynomial(rng, dirac.chart, degree=2, terms=2)
                tpart = sum(rng.randint(0, 3) * t ** k for k in range(3))
                coeffs[key] = Expr(sp.expand(poly.node * tpart)) \
                    if rng.random() < 0.8 else poly
            omega = AForm(line, degree, coeffs)
            lhs = d_A(homotopy_S(omega)) + homotopy_S(d_A(omega))
            rhs = omega - pr_pullback(iota_restrict(omega), line)
            if not aform_equal(lhs, rhs):
                return (False, f"homotopy identity fails on trial {trial}")
        return True

    _unit(records, "poincare/homotopy-identity", homotopy)

    def pullback_commutes():
        rng = rng_for(ctx.seed, f"{resolver.model.name}:poincare-pr")
        for _ in range(max(3, ctx.trials // 4)):
            degree = rng.randint(0, n - 1)
            if degree == 0:
                theta = AForm(dirac_presentation(dirac), 0,
                              {(): random_polynomial(rng, dirac.chart, 2, 2)})
            else:
                coeffs = {key: random_polynomial(rng, dirac.chart, 2, 2)
                          for key in itertools.combinations(range(n), degree)}
                theta = AForm(dirac_presentation(dirac), degree, coeffs)
            lhs = pr_pullback(d_A(theta), line)
            rhs = d_A(pr_pullback(theta, line))
            if not aform_equal(lhs, rhs):
                return False
        return True

    _unit(records, "poincare/pullback-commutes", pullback_commutes)
    return records


_SUITE_RUNNERS = {
    "dirac": _suite_dirac,
    "poisson": _suite_poisson,
    "prequant": _suite_prequant,
    "polarize": _suite_polarize,
    "quantize": _suite_quantize,
    "poincare": _suite_poincare,
}


@dataclass
class _Context:
    seed: int
    trials: int


def run_checks(model: Model, suites: list[str] | None = None,
               seed: int = 0, trials: int = 20) -> Report:
    """Run the requested suites; unrequested suites appear as skipped, and
    missing prerequisites skip a suite with the reason."""
    requested = suites if suites is not None else list(model.checks)
    report = Report(model=model.name, seed=seed)
    resolver = Resolver(model)
    ctx = _Context(seed=seed, trials=trials)
    with equality_config(seed=seed):
        for suite in SUITES:
            if suite not in requested:
                report.checks.append(CheckRecord(suite, "skipped",
                                                 "not requested"))
                continue
            try:
                report.checks.extend(_SUITE_RUNNERS[suite](resolver, ctx))
            except SkipSuite as skip:
                report.checks.append(CheckRecord(suite, "skipped", str(skip)))
            except Exception as err:
                report.checks.append(CheckRecord(
                    suite, "error", f"{type(err).__name__}: {err}"))
    return report
