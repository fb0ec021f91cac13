"""Line-bundle atlases over a Dirac chart, D-connections through their
connection 1-sections, curvature 2-sections, the skew pairing as a D-form,
the prequantization condition, the operator assigned to an admissible
function, and the Cech cocycle construction from local primitives.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping, Sequence

from .algebroid import AForm, aform_equal, d_A, dirac_presentation
from .chart import imag_part
from .dirac import DiracStructure, pairing_minus, omega_on_frame, VerificationError
from .expr import (
    ComplexExpr,
    Expr,
    ExprError,
    I,
    ONE,
    PI,
    ZERO,
    as_expr,
    equal,
    is_zero,
)
from .hamiltonian import ComplementH, hamiltonian_H

__all__ = [
    "AtlasError",
    "IntegralityError",
    "BundleAtlas",
    "LineSection",
    "TWO_PI_I",
    "transition_exp",
    "dirac_chern_check",
    "lambda_Dform",
    "prequant_condition",
    "prequant_operator",
    "build_prequantization",
    "hermitian_check",
    "line_section_from_patch",
]

TWO_PI_I = ComplexExpr(ZERO, 2 * PI)


class AtlasError(ExprError):
    pass


class IntegralityError(AtlasError):
    def __init__(self, message: str, witness):
        super().__init__(message)
        self.witness = witness


def transition_exp(w: Expr) -> ComplexExpr:
    """``exp(-2 pi i w)`` kept as its phase ``w``: products, inverses and
    derivatives of transitions act on the exponent, so the cocycle and
    compatibility tests of a cochain atlas stay free of cos/sin atoms."""
    return ComplexExpr(ONE, ZERO, as_expr(w))


@dataclass
class BundleAtlas:
    """Named patches with transition functions and per-patch connection
    1-sections over the Dirac presentation.

    Overlaps exist exactly where a transition is declared; the user asserts
    the cover geometry.  The constructor alone validates an atlas, and one
    that fails is never built: each patch has a D-1-form, transitions are
    nonzero, mutually inverse and a cocycle on declared triples, and
    ``sigma_j - sigma_k = (i/2pi) d_D log g_jk`` on declared overlaps.

    The atlas owns two memos that live as long as it does; only a call that
    returns fills them, so a raise is computed again on the next call:

    - ``curvature``: the curvature 2-section ``d_D sigma_j``;
    - ``operators``: the :class:`PatchOperator` of ``fhat_f`` under
      ``(complement, f)``, of ``delta_psi`` under the section ``psi``, and of
      ``fhat_f`` on half-density coefficients under
      ``("half-density", complement, f)``, each with the coefficients of
      the images it has computed.

    Two atlases never share an operator or an image, even over one structure
    and one complement.  The memos take the atlas as fixed once built.  They
    hold no reference back to the atlas, so an atlas is freed by reference
    counting alone.
    """

    dirac: DiracStructure
    patches: tuple[str, ...]
    transitions: Mapping[tuple[str, str], ComplexExpr]
    sigma: Mapping[str, AForm]
    hermitian: bool = False
    operators: dict = field(default_factory=dict, init=False, repr=False,
                            compare=False)

    def __post_init__(self):
        if not self.patches:
            raise AtlasError("an atlas needs at least one patch")
        if set(self.sigma) != set(self.patches):
            raise AtlasError("each patch needs a connection 1-section")
        pres = dirac_presentation(self.dirac)
        for name, form in self.sigma.items():
            if form.algebroid is not pres or form.degree != 1:
                raise AtlasError(f"sigma[{name}] must be a D-1-form")
        for (j, k) in self.transitions:
            if j not in self.patches or k not in self.patches:
                raise AtlasError(f"transition ({j},{k}) names unknown patches")
        self.validate()

    def transition(self, j: str, k: str) -> ComplexExpr:
        if j == k:
            return ComplexExpr.of(1)
        if (j, k) in self.transitions:
            return self.transitions[(j, k)]
        if (k, j) in self.transitions:
            return ComplexExpr.of(1) / self.transitions[(k, j)]
        raise AtlasError(f"no declared overlap between {j} and {k}")

    def overlaps(self) -> list[tuple[str, str]]:
        seen = set()
        out = []
        for (j, k) in self.transitions:
            if (k, j) not in seen:
                seen.add((j, k))
                out.append((j, k))
        return out

    def validate(self) -> None:
        for (j, k), g in self.transitions.items():
            if is_zero(g):
                raise AtlasError(f"transition g[{j},{k}] is the zero expression")
        for (j, k) in self.overlaps():
            if (k, j) in self.transitions and not equal(
                    self.transitions[(j, k)] * self.transitions[(k, j)], 1):
                raise AtlasError(
                    f"transitions ({j},{k}) and ({k},{j}) are not inverse")
        # Now transition(k, j) is 1/g_jk, so each ordering of a triple states
        # the same identity: one ordering per triple decides it.
        for a, b, c in itertools.combinations(self.patches, 3):
            declared = all(key in self.transitions or key[::-1] in self.transitions
                           for key in ((a, b), (b, c), (a, c)))
            if not declared:
                continue
            product = self.transition(a, b) * self.transition(b, c)
            if not equal(product, self.transition(a, c)):
                raise AtlasError(f"cocycle fails on triple ({a},{b},{c})")
        for (j, k) in self.overlaps():
            lhs = self.sigma[j] - self.sigma[k]
            g = self.transition(j, k)
            dg = d_A(g, dirac_presentation(self.dirac))
            rhs = dg.scale(I / (ComplexExpr.of(2 * PI) * g))
            if not aform_equal(lhs, rhs):
                raise AtlasError(
                    f"connection 1-sections incompatible on overlap ({j},{k})")

    @cached_property
    def curvature(self) -> AForm:
        """``tau = d_D sigma_j``, checked patch-independent (and real when the
        atlas is Hermitian)."""
        taus = {name: d_A(form) for name, form in self.sigma.items()}
        names = list(self.patches)
        first = taus[names[0]]
        for name in names[1:]:
            if not aform_equal(first, taus[name]):
                raise AtlasError(
                    f"curvature differs between patches {names[0]} and {name}")
        if self.hermitian:
            for value in first.coeffs.values():
                if isinstance(value, ComplexExpr) and not is_zero(imag_part(value)):
                    raise AtlasError("Hermitian atlas produced a non-real curvature")
        return first

    def hermitian_product(self, z1: ComplexExpr, z2: ComplexExpr) -> ComplexExpr:
        if not self.hermitian:
            raise AtlasError("no Hermitian metric attached")
        return ComplexExpr.of(z1).conj() * ComplexExpr.of(z2)


@dataclass(frozen=True)
class LineSection:
    """Per-patch coefficients with the gluing ``s_k = g_jk s_j``."""

    atlas: BundleAtlas
    coeffs: Mapping[str, ComplexExpr]

    def __post_init__(self):
        object.__setattr__(self, "coeffs",
                           {p: ComplexExpr.of(z) for p, z in self.coeffs.items()})
        if set(self.coeffs) != set(self.atlas.patches):
            raise AtlasError("a line section needs one coefficient per patch")

    def __getitem__(self, patch: str) -> ComplexExpr:
        return self.coeffs[patch]

    def __add__(self, other: "LineSection") -> "LineSection":
        return LineSection(self.atlas, {p: self.coeffs[p] + other.coeffs[p]
                                        for p in self.coeffs})

    def __sub__(self, other: "LineSection") -> "LineSection":
        return LineSection(self.atlas, {p: self.coeffs[p] - other.coeffs[p]
                                        for p in self.coeffs})

    def is_zero_section(self) -> bool:
        return all(is_zero(z) for z in self.coeffs.values())


def line_section_from_patch(atlas: BundleAtlas, patch: str, z) -> LineSection:
    """Propagate one patch coefficient through the declared transitions."""
    z = ComplexExpr.of(z)
    coeffs = {patch: z}
    frontier = [patch]
    while frontier:
        current = frontier.pop()
        for (j, k) in atlas.transitions:
            for src, dst in ((j, k), (k, j)):
                if src == current and dst not in coeffs:
                    coeffs[dst] = atlas.transition(src, dst) * coeffs[src]
                    frontier.append(dst)
    for name in atlas.patches:
        coeffs.setdefault(name, z)
    return LineSection(atlas, coeffs)


# ---------------------------------------------------------------------------
# curvature and the prequantization condition


def dirac_chern_check(first: BundleAtlas, second: BundleAtlas) -> AForm:
    """The global 1-section relating the curvatures of two connections on
    the same bundle: ``tau' - tau = d_D sigma_hat``."""
    if first.dirac is not second.dirac:
        raise AtlasError("atlases live over different Dirac structures")
    if first.patches != second.patches:
        raise AtlasError("atlases use different covers")
    for key in set(first.transitions) | set(second.transitions):
        if not equal(first.transition(*key), second.transition(*key)):
            raise AtlasError("atlases have different transition functions")
    hats = {p: second.sigma[p] - first.sigma[p] for p in first.patches}
    names = list(first.patches)
    sigma_hat = hats[names[0]]
    for name in names[1:]:
        if not aform_equal(sigma_hat, hats[name]):
            raise AtlasError(
                f"sigma'-sigma disagrees on overlap ({names[0]},{name})")
    difference = second.curvature - first.curvature
    if not aform_equal(difference, d_A(sigma_hat)):
        raise AtlasError("tau' - tau is not the differential of sigma_hat")
    return sigma_hat


def lambda_Dform(dirac: DiracStructure) -> AForm:
    """The skew pairing restricted to D as a D-2-form; closed under d_D and
    equal to the pull-back of the presymplectic 2-cocycle on frame pairs.
    Memoized on the structure once both checks pass."""
    if dirac.lambda_form is not None:
        return dirac.lambda_form
    pres = dirac_presentation(dirac)
    n = dirac.dim
    lam = AForm(pres, 2, {(i, j): pairing_minus(dirac.frame[i], dirac.frame[j])
                          for i, j in itertools.combinations(range(n), 2)})
    if not d_A(lam).is_zero_form():
        raise VerificationError("the skew pairing is not d_D-closed")
    omega = omega_on_frame(dirac)
    for i, j in itertools.combinations(range(n), 2):
        if not is_zero(lam.coeff((i, j)) - omega[(i, j)]):
            raise VerificationError(
                "skew pairing disagrees with the presymplectic 2-cocycle")
    dirac.lambda_form = lam
    return lam


@dataclass(frozen=True)
class PrequantResult:
    ok: bool
    residual: AForm

    def __bool__(self) -> bool:
        return self.ok


def prequant_condition(atlas: BundleAtlas) -> PrequantResult:
    """Rank-1 prequantization test ``tau = Lambda`` on frame pairs; the
    residual D-2-form is returned when it fails."""
    residual = atlas.curvature - lambda_Dform(atlas.dirac)
    return PrequantResult(residual.is_zero_form(), residual)


# ---------------------------------------------------------------------------
# the operator assigned to an admissible function


class PatchOperator:
    """The first-order operator ``z -> rho(z) + m_j z`` on the coefficient of
    patch ``j``: a vector field ``rho`` and one multiplier per patch (in
    patch order), built by :func:`nabla_operator`.

    ``images`` maps coefficients in patch order to the coefficients of their
    images.  It keeps coefficients only, and the operator keeps no reference
    to its atlas: a section in the memo would point back at the atlas that
    holds the operator, and every atlas would become cyclic garbage."""

    __slots__ = ("rho", "multipliers", "images")

    def __init__(self, rho, multipliers: dict):
        self.rho, self.multipliers = rho, multipliers
        self.images: dict = {}

    def image(self, atlas: BundleAtlas, section: LineSection) -> LineSection:
        """The section of ``atlas`` with coefficients ``rho(z) + m_patch z``
        for the coefficients ``z`` of ``section``."""
        coeffs = tuple(section[patch] for patch in self.multipliers)
        out = self.images.get(coeffs)
        if out is None:
            out = self.images[coeffs] = {
                patch: ComplexExpr.of(self.rho.apply(z)) + m * z
                for (patch, m), z in zip(self.multipliers.items(), coeffs)}
        return LineSection(atlas, out)


def nabla_operator(atlas: BundleAtlas, rho, frame_coeffs,
                   shift=ZERO) -> PatchOperator:
    """``nabla_psi + shift``, that is ``z -> rho(z) + (2 pi i sigma_j(psi) +
    shift) z`` on patch ``j``, for a section psi of D given by its anchor
    image ``rho`` and its frame coefficients.  Every quantum operator is
    this with its own psi and shift."""
    return PatchOperator(rho, {
        patch: TWO_PI_I * atlas.sigma[patch].evaluate_coefficients(frame_coeffs)
        + shift for patch in atlas.patches})


def fhat_operator(atlas: BundleAtlas, complement: ComplementH,
                  f: Expr) -> PatchOperator:
    """``fhat_f``: ``nabla`` along ``-(H_f, df)`` shifted by ``-2 pi i f``,
    built once per atlas, complement and ``f``."""
    key = (complement, f)
    op = atlas.operators.get(key)
    if op is None:
        h_f, coeffs = hamiltonian_H(atlas.dirac, complement, f)
        op = atlas.operators[key] = nabla_operator(
            atlas, -h_f, tuple(-c for c in coeffs), -TWO_PI_I * f)
    return op


def prequant_operator(f, atlas: BundleAtlas, complement: ComplementH,
                      section: LineSection) -> LineSection:
    """``fhat s = -nabla_{(H_f, df)} s - 2 pi i f s`` patch by patch, a
    section of ``atlas``; the image is memoized on the atlas."""
    return fhat_operator(atlas, complement, as_expr(f)).image(atlas, section)


def hermitian_check(atlas: BundleAtlas, complement: ComplementH, f,
                    s1: LineSection, s2: LineSection) -> dict[str, ComplexExpr]:
    """Residual of the Hermitian-connection identity
    ``H_f h(s1, s2) - h(nabla s1, s2) - h(s1, nabla s2)`` per patch, with
    ``nabla = nabla_{(H_f, df)}``; zero for a Hermitian atlas with real
    connection 1-sections."""
    if not atlas.hermitian:
        raise AtlasError("no Hermitian metric attached")
    h_f, coeffs = hamiltonian_H(atlas.dirac, complement, as_expr(f))
    nabla = nabla_operator(atlas, h_f, coeffs)
    n1, n2 = nabla.image(atlas, s1), nabla.image(atlas, s2)
    out = {}
    derivatives = {}  # the pairing is often the same value on every patch
    for patch in atlas.patches:
        z1, z2 = s1[patch], s2[patch]
        pairing = atlas.hermitian_product(z1, z2)
        if pairing not in derivatives:
            derivatives[pairing] = h_f.apply(pairing)
        lhs = derivatives[pairing]
        rhs = atlas.hermitian_product(n1[patch], z2) \
            + atlas.hermitian_product(z1, n2[patch])
        out[patch] = ComplexExpr.of(lhs) - rhs
    return out


# ---------------------------------------------------------------------------
# the cocycle construction


def build_prequantization(dirac: DiracStructure, patches: Sequence[str],
                          sigma: Mapping[str, AForm],
                          cochain: Mapping[tuple[str, str], Expr]) -> BundleAtlas:
    """Assemble the Hermitian prequantization atlas from local primitives.

    Each Cech sum ``w_ab + w_bc - w_ac`` on a declared triple must be an
    integer; otherwise :class:`IntegralityError` carries the first
    non-integral sum as its witness (such as ``1/3``, or ``x2``).  The
    transitions ``exp(-2 pi i w_jk)``, kept as phases (:func:`transition_exp`),
    make a :class:`BundleAtlas`, whose constructor checks ``d_D w_jk =
    sigma_j - sigma_k``.  Last, the sigma must be local primitives of the
    skew pairing: the prequantization condition ``d_D sigma_j = Lambda``.
    """
    cochain = {key: as_expr(w) for key, w in cochain.items()}
    for a, b, c in itertools.combinations(patches, 3):
        keys = ((a, b), (b, c), (a, c))
        if not all(key in cochain for key in keys):
            continue
        f_abc = cochain[(a, b)] + cochain[(b, c)] - cochain[(a, c)]
        if not f_abc.is_integer:
            raise IntegralityError(
                f"integrality obstruction on ({a},{b},{c}): "
                f"w[{a},{b}]+w[{b},{c}]-w[{a},{c}] = {f_abc} "
                "is not an integer", f_abc)
    atlas = BundleAtlas(dirac, tuple(patches),
                        {key: transition_exp(w) for key, w in cochain.items()},
                        dict(sigma), hermitian=True)
    if not prequant_condition(atlas).ok:
        raise AtlasError(
            "the connection 1-sections are not local primitives of the skew "
            "pairing")
    return atlas
