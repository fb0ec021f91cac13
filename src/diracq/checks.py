"""Verification suites over parsed models, and the deterministic report.

Each suite is a table of rows, and one runner turns every row's outcome,
skip or exception into a record.  Reports are byte-identical across runs
with the same seed and inputs; the ``millis`` field is kept at zero so
serialization stays reproducible.
"""

from __future__ import annotations

import functools
import itertools
import json
from collections import Counter
from dataclasses import asdict, dataclass, field
from fractions import Fraction
from typing import Callable

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
from .chart import AlphaDensity, real_part
from .dirac import (
    DiracStructure,
    graph_poisson,
    graph_presymplectic,
    omega_on_frame,
    pi_sharp_morphism,
    regular_distribution,
)
from .dsl import SUITES, Model
from .expr import ComplexExpr, Expr, ZERO, equality_config, is_zero, symbol
from .hamiltonian import (
    ComplementH,
    admissible_vector_field,
    bracket_omega,
    bracket_prime,
    default_complement,
    field_residual,
    jacobiator,
    kills_tangent_kernel,
)
from .prequant import (
    AtlasError,
    BundleAtlas,
    IntegralityError,
    build_prequantization,
    hermitian_check,
    lambda_Dform,
    line_section_from_patch,
    prequant_condition,
    prequant_operator,
)
from .quantize import (
    Polarization,
    half_density_section,
    hzero_invariance_probe,
    integrate_density,
    lemma51_residual,
    projectability_probe,
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
        return asdict(self)


@dataclass
class Report:
    model: str
    seed: int
    checks: list[CheckRecord] = field(default_factory=list)

    def to_dict(self) -> dict:
        return asdict(self)

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
        counts = Counter(c.status for c in self.checks)
        summary = ", ".join(f"{v} {k}" for k, v in sorted(counts.items()))
        lines.append(f"  -- {summary}")
        return "\n".join(lines) + "\n"

    @property
    def exit_code(self) -> int:
        bad = any(c.status in ("fail", "error") for c in self.checks)
        return 1 if bad else 0


class SkipSuite(Exception):
    """Raised when a suite's prerequisites are not declared in the model."""


@dataclass(frozen=True)
class _Context:
    seed: int
    trials: int


def _once(method):
    """Keep a resolver method's value (an exception is raised anew)."""
    @functools.wraps(method)
    def cached(self):
        if method.__name__ not in self._cache:
            self._cache[method.__name__] = method(self)
        return self._cache[method.__name__]
    return cached


class Resolver:
    """Lazy construction of runtime objects from model declarations.  Every
    object but ``structure()`` and ``dirac_report()`` skips with "not a
    Dirac structure" unless ``verify()`` passes."""

    def __init__(self, model: Model):
        self.model = model
        self._cache: dict = {}

    # -- coercions ----------------------------------------------------------

    @staticmethod
    def real(value, what: str):
        """``value`` (a tensor or section) when all its coefficients are
        real; otherwise the suite is skipped."""
        if value.map_coeffs(real_part) != value:
            raise SkipSuite(f"{what} must be real")
        return value

    def real_scalars(self) -> dict[str, Expr]:
        return {name: z.re for name, z in self.model.scalars.items()
                if z.im == ZERO}

    # -- objects ------------------------------------------------------------

    @_once
    def structure(self) -> DiracStructure:
        """The declared frame, not yet judged."""
        decl = self.model.dirac_decl
        if decl is None:
            raise SkipSuite("no Dirac structure declared")
        _, kind, args = decl
        model = self.model
        if kind == "graph_presymplectic":
            return graph_presymplectic(
                self.real(model.forms[args[0]], "presymplectic form"))
        if kind == "graph_poisson":
            return graph_poisson(self.real(model.bivectors[args[0]], "bivector"))
        if kind == "regular_distribution":
            return regular_distribution([
                self.real(model.vectors[a], "distribution field") for a in args])
        return DiracStructure(model.chart, [
            self.real(model.sections[a], "frame section") for a in args])

    def dirac_report(self):
        return self.structure().verify()

    def dirac(self) -> DiracStructure:
        if not self.dirac_report().passed:
            raise SkipSuite("not a Dirac structure")
        return self.structure()

    @_once
    def complement(self) -> ComplementH:
        decl = self.model.complement_decl
        dirac = self.dirac()
        if decl is None or decl[1] == "auto":
            return default_complement(dirac)
        return ComplementH(dirac, [
            self.real(self.model.sections[a], "complement section")
            for a in decl[2]])

    @_once
    def admissible(self) -> dict[str, Expr]:
        """The declared real scalars that are admissible."""
        return {name: f for name, f in self.real_scalars().items()
                if admissible_vector_field(self.dirac(), f).ok}

    def pool(self, ctx: _Context, count: int) -> list[Expr]:
        """The admissible declared scalars, then admissible random
        polynomials up to ``count`` (at most ``12 * count`` draws)."""
        key = ("pool", ctx.seed, count)
        if key not in self._cache:
            dirac = self.dirac()
            rng = rng_for(ctx.seed, f"{self.model.name}:poisson-pool")
            pool = list(self.admissible().values())
            attempts = 0
            while len(pool) < count and attempts < 12 * count:
                attempts += 1
                f = random_polynomial(rng, dirac.chart, degree=3, terms=2)
                if admissible_vector_field(dirac, f).ok:
                    pool.append(f)
            self._cache[key] = pool
        return self._cache[key]

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

    @_once
    def atlas_or_failure(self) -> BundleAtlas | str:
        """The declared atlas, or the witness of why it cannot be built."""
        model = self.model
        if not model.patches or not model.sigmas:
            raise SkipSuite("no atlas declared (patches + sigma required)")
        sigma = self.sigma_forms()
        try:
            if model.cochain:
                return build_prequantization(self.dirac(), model.patches,
                                             sigma, model.cochain)
            return BundleAtlas(self.dirac(), tuple(model.patches),
                               dict(model.transitions), sigma,
                               hermitian=model.hermitian)
        except IntegralityError as err:
            return f"integrality obstruction: {err.witness}"
        except AtlasError as err:
            return str(err)

    def atlas(self) -> BundleAtlas:
        """The declared atlas; one that cannot be built skips with why."""
        atlas = self.atlas_or_failure()
        if isinstance(atlas, str):
            raise SkipSuite(atlas)
        return atlas

    @_once
    def polarization(self) -> Polarization:
        decl = self.model.polarization_decl
        if decl is None:
            raise SkipSuite("no polarization declared")
        return Polarization(self.dirac(), self.complement(), decl[1])

    def polarization_report(self):
        return self.polarization().check()

    def polarization_of_d(self) -> Polarization:
        """The declared polarization, once polarize's rows on it pass."""
        if not self.polarization_report().passed:
            raise SkipSuite("not a polarization of D")
        return self.polarization()

    @_once
    def sp_members(self) -> dict[str, Expr]:
        """The admissible declared scalars in S(P)."""
        return {name: f for name, f in self.admissible().items()
                if sp_membership(f, self.polarization())[0]}

    @_once
    def halfdensity_sections(self) -> dict:
        if not self.model.halfdensities:
            raise SkipSuite("no half-density sections declared")
        return {name: half_density_section(self.atlas(), coeff)
                for name, coeff in self.model.halfdensities.items()}

    @_once
    def line(self):
        """The pull-back over a line whose coordinate is a fresh name."""
        chart = self.dirac().chart
        t_name = "t"
        while t_name in chart.coord_names + chart.param_names:
            t_name += "_"
        return pullback_over_line(self.dirac(), t_name)


# ---------------------------------------------------------------------------
# the runner


@dataclass(frozen=True)
class Row:
    """A check: ``check(resolver, ctx)`` returns ``(ok, witness)``, a bare
    ``ok``, or ``None`` for no record, or raises ``SkipSuite``.  A row that
    ``ends`` stops its suite on any record but a pass."""

    name: str
    check: Callable[[Resolver, _Context], object]
    ends: bool = False


def _needs(suite: str, *objects: str) -> Row:
    """A suite's first row: a skip or an error while it resolves
    ``objects``, in order, is the suite's one record."""
    def resolve(r, ctx):
        for name in objects:
            getattr(r, name)()
    return Row(suite, resolve, ends=True)


def _run_suite(rows, r: Resolver, ctx: _Context) -> list[CheckRecord]:
    records = []
    for row in rows:
        try:
            outcome = row.check(r, ctx)
            if outcome is None:
                continue
            ok, witness = outcome if isinstance(outcome, tuple) \
                else (outcome, None)
            record = CheckRecord(row.name, "pass" if ok else "fail", witness)
        except SkipSuite as skip:
            record = CheckRecord(row.name, "skipped", str(skip))
        except Exception as err:  # surfaced as a record, not a crash
            record = CheckRecord(row.name, "error",
                                 f"{type(err).__name__}: {err}")
        records.append(record)
        if row.ends and record.status != "pass":
            break
    return records


# ---------------------------------------------------------------------------
# the suites


def _on_report(fn) -> Callable:
    return lambda r, ctx: fn(r.dirac_report())


_DIRAC = (
    _needs("dirac", "dirac_report"),
    Row("dirac/D1-isotropy", _on_report(lambda d: (d.d1_ok, d.d1_witness))),
    Row("dirac/D2-rank", _on_report(lambda d: (d.d2_ok, f"rank {d.d2_rank}"))),
    Row("dirac/D3-closure", _on_report(lambda d: (d.d3_ok, d.d3_witness))),
    Row("dirac/integrability-identity",
        _on_report(lambda d: (d.lemma_ok, d.lemma_witness))),
    Row("dirac/kernel-equations", _on_report(lambda d: (d.kernel_ok, (
        f"dim rho_TM(D)={d.dim_characteristic}, "
        f"dim D^T*M={d.dim_cotangent_kernel}, "
        f"dim rho_T*M(D)={d.dim_admissible_covectors}, "
        f"dim D^TM={d.dim_tangent_kernel}")))),
    Row("dirac/annihilator-duality", _on_report(lambda d: d.annihilator_ok)),
    # the cocycle and the morphism law are only defined on a Dirac structure
    Row("dirac/omega-cocycle",
        lambda r, ctx: omega_on_frame(r.dirac()) is not None),
    Row("dirac/pi-sharp-morphism",
        lambda r, ctx: pi_sharp_morphism(r.dirac())),
)


def _law_pool(r, ctx) -> list[Expr]:
    return r.pool(ctx, max(4, min(ctx.trials // 3, 8)))


def _law_triples(r, ctx) -> list[tuple[Expr, Expr, Expr]]:
    return list(itertools.islice(itertools.combinations(_law_pool(r, ctx), 3),
                                 ctx.trials))


def _br(r, f, g) -> Expr:
    return bracket_omega(r.dirac(), r.complement(), f, g)


def _listing(prefix: str, names, kept) -> tuple[bool, str | None]:
    """A pass that lists the ``names`` not ``kept``, if any."""
    outside = [name for name in names if name not in kept]
    return True, (prefix + ", ".join(outside)) if outside else None


def _three_functions(r, ctx) -> None:
    if len(_law_pool(r, ctx)) < 3:
        raise SkipSuite("fewer than three admissible functions found")


def _law(residual, witness: str) -> Callable:
    """A row whose ``residual(r, f, g, h)`` is zero on every law triple; the
    ``witness`` template is filled in on the first triple where it is not."""
    def check(r, ctx):
        for f, g, h in _law_triples(r, ctx):
            value = residual(r, f, g, h)
            if not is_zero(value):
                return False, witness.format(f=f, g=g, h=h, residual=value)
        return True
    return check


def _field_identity(r, ctx):
    for f, g, _ in _law_triples(r, ctx):
        if not field_residual(r.dirac(), r.complement(), f, g).is_zero_field():
            return False, f"[H_f,H_g]+H_{{f,g}} != 0 for f={f}, g={g}"
    return True


def _kernel_shift(r, ctx):
    for f, _g, _h in _law_triples(r, ctx):
        if not kills_tangent_kernel(r.dirac(), f):
            return False, f"df does not kill D^TM for f={f}"
    return True


_POISSON = (
    _needs("poisson", "complement"),
    Row("poisson/admissible-scalars", lambda r, ctx: _listing(
        "non-admissible: ", r.real_scalars(), r.admissible())),
    Row("poisson/laws", _three_functions, ends=True),  # skips all six laws
    Row("poisson/antisymmetry", _law(
        lambda r, f, g, h: _br(r, f, g) + _br(r, g, f),
        "{{f,g}}+{{g,f}} != 0 for f={f}, g={g}")),
    Row("poisson/leibniz", _law(
        lambda r, f, g, h: _br(r, f, g * h) - (_br(r, f, g) * h
                                               + g * _br(r, f, h)),
        "Leibniz fails for f={f}, g={g}, h={h}")),
    Row("poisson/jacobi", _law(
        lambda r, f, g, h: jacobiator(r.dirac(), r.complement(), f, g, h),
        "Jacobi fails: residual {residual}")),
    Row("poisson/field-identity", _field_identity),
    Row("poisson/prime-matches-omega", _law(
        lambda r, f, g, h: bracket_prime(r.dirac(), f, g) - _br(r, f, g),
        "{{f,g}}' != {{f,g}} for f={f}, g={g}")),
    Row("poisson/kernel-shift-invariance", _kernel_shift),
)


def _atlas_built(r, ctx):
    atlas = r.atlas_or_failure()
    return (False, atlas) if isinstance(atlas, str) else (True, None)


def _curvature_fails(check) -> Callable:
    """A row that fails, with the error as its witness, when the atlas has
    no curvature 2-section (it differs between patches, or it is not real
    on a Hermitian atlas)."""
    def row(r, ctx):
        try:
            return check(r, ctx)
        except AtlasError as err:
            return False, str(err)
    return row


def _condition(r, ctx):
    condition = prequant_condition(r.atlas())
    return condition.ok, None if condition.ok else "; ".join(
        f"tau-Lambda[{k}] = {v}" for k, v in condition.residual.coeffs.items())


def _commutator(r, ctx):
    atlas, complement = r.atlas(), r.complement()
    pool = r.pool(ctx, 5)
    if len(pool) < 2:
        raise SkipSuite("not enough admissible functions")
    section = line_section_from_patch(atlas, atlas.patches[0], 1)

    def hat(f, s):
        return prequant_operator(f, atlas, complement, s)

    for f, g in itertools.islice(itertools.combinations(pool, 2),
                                 max(1, ctx.trials // 2)):
        fg = _br(r, f, g)
        lhs = hat(f, hat(g, section)) - hat(g, hat(f, section))
        if not (lhs - hat(fg, section)).is_zero_section():
            return False, f"[fhat,ghat] != {{f,g}}hat for f={f}, g={g}"
    return True


def _hermitian(r, ctx):
    atlas = r.atlas()
    if not atlas.hermitian:  # the row exists on hermitian atlases only
        return None
    chart = r.dirac().chart
    rng = rng_for(ctx.seed, f"{r.model.name}:hermitian")
    pool = r.pool(ctx, 3)
    if not pool:
        raise SkipSuite("no admissible functions")
    for f in pool[:3]:
        s1, s2 = (line_section_from_patch(atlas, atlas.patches[0], ComplexExpr(
            random_polynomial(rng, chart, 2, 2),
            random_polynomial(rng, chart, 2, 2))) for _ in range(2))
        residuals = hermitian_check(atlas, r.complement(), f, s1, s2)
        for patch, value in residuals.items():
            if not is_zero(value):
                return False, f"residual on {patch} for f={f}: {value}"
    return True


_PREQUANT = (
    _needs("prequant", "atlas_or_failure"),
    Row("prequant/atlas", _atlas_built, ends=True),
    Row("prequant/curvature-patch-independent", _curvature_fails(
        lambda r, ctx: r.atlas().curvature is not None)),
    Row("prequant/lambda-closed",
        lambda r, ctx: lambda_Dform(r.dirac()) is not None),
    Row("prequant/condition", _curvature_fails(_condition)),
    Row("prequant/commutator", _commutator),
    Row("prequant/hermitian-identity", _hermitian),
)


def _q_probe(r, ctx):
    members = list(r.sp_members().values())
    pol = r.polarization()
    ok, witness = projectability_probe(pol, members)
    return ok, witness or f"rank {len(pol.q_bundle)}"


def _on_polarization(fn) -> Callable:
    return lambda r, ctx: fn(r.polarization_report())


_POLARIZE = (
    _needs("polarize", "polarization_report"),
    Row("polarize/isotropy",
        _on_polarization(lambda p: (p.isotropy_ok, p.isotropy_witness))),
    Row("polarize/involutivity",
        _on_polarization(lambda p: (p.involutive_ok, p.involutive_witness))),
    Row("polarize/containment",
        _on_polarization(lambda p: (p.containment_ok, p.containment_witness))),
    Row("polarize/sp-closure", lambda r, ctx: _listing(
        "outside S(P): ", r.admissible(), r.sp_members())),
    Row("polarize/q-bundle", _q_probe),
)


def _prequantizable(r, ctx):
    ok = prequant_condition(r.atlas()).ok
    return ok, None if ok else "prequantization condition fails"


def _some_member(r, ctx) -> None:
    if not r.sp_members():
        raise SkipSuite("no declared functions in S(P)")


def _lemma51(r, ctx):
    for f in r.sp_members().values():
        for psi in r.polarization().frame:
            for v in r.halfdensity_sections().values():
                if not lemma51_residual(psi, f, v, r.atlas(),
                                        r.complement()).is_zero_section():
                    return False, f"residual for f={f}"
    return True


def _selfadjoint(r, ctx):
    if not r.atlas().hermitian:  # the identity pairs through the metric
        raise SkipSuite("Hermitian data required")
    densities = r.halfdensity_sections()
    for f in r.sp_members().values():
        for a, b in itertools.product(densities, repeat=2):
            density = selfadjoint_integrand(f, densities[a], densities[b],
                                            r.atlas(), r.complement())
            if not is_zero(density.coeff):
                return False, f"nonzero integrand for f={f}, v1={a}, v2={b}"
    return True


def _hzero(r, ctx):
    flat_found = False
    for name, v in r.halfdensity_sections().items():
        for f in r.sp_members().values():
            flat, invariant = hzero_invariance_probe(
                r.polarization(), r.atlas(), r.complement(), f, v)
            flat_found = flat_found or flat
            if flat and not invariant:
                return False, f"fhat leaves the flat space on {name}"
    if not flat_found:
        raise SkipSuite("no declared half-density is flat along P")
    return True


def _quadrature(r, ctx):
    chart = r.dirac().chart
    unit = AlphaDensity(chart, Fraction(1), ComplexExpr.of(1))
    box = {name: (Fraction(0), Fraction(1)) for name in chart.coord_names}
    value = integrate_density(unit, box)
    return value == 1, f"volume {float(value)}"


_QUANTIZE = (
    _needs("quantize", "atlas", "polarization_of_d", "halfdensity_sections",
           "complement"),
    Row("quantize/prequantizable", _curvature_fails(_prequantizable),
        ends=True),
    Row("quantize/lemma51", _some_member, ends=True),  # skips all four
    Row("quantize/lemma51", _lemma51),
    Row("quantize/selfadjoint-integrand", _selfadjoint),
    Row("quantize/hzero-invariance", _hzero),
    Row("quantize/quadrature", _quadrature),
)


def _anchor_t(r, ctx):
    expected = r.line().chart.basis_vector(r.dirac().dim)
    return all(is_zero(a - b) for a, b in
               zip(r.line().anchors[-1].components, expected.components))


def _structure_inherited(r, ctx):
    n = r.dirac().dim
    for key, coeffs in dirac_presentation(r.dirac()).structure.items():
        lifted = r.line().structure.get(key, ())
        if not all(is_zero(a - b) for a, b in zip(coeffs, lifted)) \
                or len(lifted) != n + 1 or not is_zero(lifted[-1]):
            return False
    return True


def _homotopy(r, ctx):
    line, chart = r.line(), r.dirac().chart
    rng = rng_for(ctx.seed, f"{r.model.name}:poincare")
    t = Expr(symbol(line.chart.coord_names[-1]))
    for trial in range(ctx.trials):
        degree = rng.randint(1, min(3, line.rank))
        coeffs = {}
        for key in itertools.combinations(range(line.rank), degree):
            poly = random_polynomial(rng, chart, degree=2, terms=2)
            tpart = sum(rng.randint(0, 3) * t ** k for k in range(3))
            coeffs[key] = poly * tpart if rng.random() < 0.8 else poly
        omega = AForm(line, degree, coeffs)
        lhs = d_A(homotopy_S(omega)) + homotopy_S(d_A(omega))
        rhs = omega - pr_pullback(iota_restrict(omega), line)
        if not aform_equal(lhs, rhs):
            return False, f"homotopy identity fails on trial {trial}"
    return True


def _pullback_commutes(r, ctx):
    line, dirac = r.line(), r.dirac()
    pres, n = dirac_presentation(dirac), dirac.dim
    rng = rng_for(ctx.seed, f"{r.model.name}:poincare-pr")
    for _ in range(max(3, ctx.trials // 4)):
        degree = rng.randint(0, n - 1)
        theta = AForm(pres, degree, {
            key: random_polynomial(rng, dirac.chart, 2, 2)
            for key in itertools.combinations(range(n), degree)})
        if not aform_equal(pr_pullback(d_A(theta), line),
                           d_A(pr_pullback(theta, line))):
            return False
    return True


_POINCARE = (
    _needs("poincare", "line"),
    Row("poincare/pullback-rank", lambda r, ctx: (
        r.line().rank == r.dirac().dim + 1, f"rank {r.line().rank}")),
    Row("poincare/anchor-t", _anchor_t),
    Row("poincare/structure-inherited", _structure_inherited),
    Row("poincare/homotopy-identity", _homotopy),
    Row("poincare/pullback-commutes", _pullback_commutes),
)

_TABLE = {"dirac": _DIRAC, "poisson": _POISSON, "prequant": _PREQUANT,
          "polarize": _POLARIZE, "quantize": _QUANTIZE, "poincare": _POINCARE}


def run_checks(model: Model, suites: list[str] | None = None,
               seed: int = 0, trials: int = 20) -> Report:
    """Run the requested suites; unrequested suites appear as skipped, and
    missing prerequisites skip a suite with the reason."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    requested = suites if suites is not None else list(model.checks)
    for suite in requested:
        if suite not in SUITES:
            raise ValueError(f"unknown suite {suite!r}")
    report = Report(model=model.name, seed=seed)
    resolver = Resolver(model)
    ctx = _Context(seed=seed, trials=trials)
    with equality_config(seed=seed):
        for suite in SUITES:
            if suite in requested:
                report.checks.extend(_run_suite(_TABLE[suite], resolver, ctx))
            else:
                report.checks.append(CheckRecord(suite, "skipped",
                                                 "not requested"))
    return report
