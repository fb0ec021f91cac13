"""Admissible functions, their Hamiltonian-type vector fields, the two
Poisson brackets on a Dirac chart, and the Jacobi and field identities.

``X_f`` is any particular solution of ``(X, df) in D`` (free variables zeroed,
lowest-index pivoting); ``H_f`` is the unique solution whose vector part lies
in a fixed complement of the tangent kernel ``V = D n TM`` inside the
characteristic distribution.  Both kernels, V and ``D n T*M``, are read from
the structure, which builds each once; :func:`kills_tangent_kernel` is the
one test that ``df`` vanishes on V.

``X_f`` depends on the structure and ``f`` alone, so the structure memoizes
its :class:`AdmissibleResult` (a negative one too).  Once the complement is
fixed, ``H_f`` depends on ``f`` alone, so each :class:`ComplementH` memoizes
it: ``hamiltonian_H`` keeps the field and frame coefficients under ``f``, and
``bracket_omega`` keeps ``{f, g}`` under the ordered pair ``(f, g)``.  Keys
are values, so equal functions share an entry; only successful results are
kept, and ``{g, f}`` is computed in its own right rather than read off
``{f, g}`` as its negation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from . import linalg
from .chart import KForm, VectorField, exterior_derivative
from .dirac import DiracStructure, Section, covector_components, membership
from .expr import Expr, ExprError, ZERO, as_expr, is_zero

__all__ = [
    "NotAdmissibleError",
    "ComplementError",
    "AdmissibleResult",
    "ComplementH",
    "default_complement",
    "admissible_vector_field",
    "hamiltonian_H",
    "kills_tangent_kernel",
    "bracket_prime",
    "bracket_omega",
    "jacobiator",
    "field_residual",
]


class NotAdmissibleError(ExprError):
    pass


class ComplementError(ExprError):
    pass


def differential(dirac: DiracStructure, f: Expr) -> KForm:
    return exterior_derivative(dirac.chart.scalar_form(as_expr(f)))


@dataclass(frozen=True)
class AdmissibleResult:
    """Particular vector field with ``(X_f, df)`` in the frame span, or an
    inconsistency witness."""

    ok: bool
    vector_field: VectorField | None = None
    coefficients: tuple[Expr, ...] | None = None
    witness: Expr | None = None


def admissible_vector_field(dirac: DiracStructure, f) -> AdmissibleResult:
    """Solve the linear system expressing ``df`` in the frame form parts;
    the negative outcome is data, not an error.  Memoized on the structure
    under ``f``."""
    dirac.require_verified()
    f = as_expr(f)
    known = dirac.admissible.get(f)
    if known is not None:
        return known
    result = linalg.solve(dirac.forms,
                          covector_components(differential(dirac, f)))
    if not result.ok:
        known = AdmissibleResult(False, witness=result.witness)
    else:
        coeffs = tuple(result.solution)
        known = AdmissibleResult(
            True, vector_field=dirac.section_from_coefficients(coeffs).X,
            coefficients=coeffs)
    dirac.admissible[f] = known
    return known


class ComplementH:
    """Sections of D whose vector parts complement V = D n TM inside the
    characteristic distribution; fixed once and reused by every bracket.

    It owns two memos that live as long as it does: ``hamiltonians`` maps
    ``f`` to ``hamiltonian_H``'s ``(field, frame_coeffs)``, and ``brackets``
    maps the ordered pair ``(f, g)`` to ``{f, g}``.  A
    ``NotAdmissibleError`` is never stored, and a pair's reverse is never
    filled in from it.  The operators ``fhat_f`` built from ``H_f`` are kept
    on the line-bundle atlas, under the complement and ``f``
    (``prequant.BundleAtlas.operators``), and live as long as that atlas.
    """

    def __init__(self, dirac: DiracStructure, sections: Sequence[Section]):
        dirac.require_verified()
        self.dirac = dirac
        self.sections = tuple(sections)
        chi_coefficients = []
        for h in self.sections:
            cert = membership(dirac, h)
            if not cert.ok:
                raise ComplementError(
                    f"complement section {h} does not lie in D: {cert.witness}")
            chi_coefficients.append(tuple(cert.solution))
        # the columns [chi | tau]: the complement form parts, then a basis of
        # D n T*M; each column's section of D by its frame coefficients
        self.column_coefficients = (tuple(chi_coefficients)
                                    + dirac.vectors.kernel)
        self.span = linalg.echelon(
            [covector_components(h.xi) for h in self.sections]
            + [covector_components(eta) for eta in dirac.cotangent_kernel],
            dirac.dim)
        # sections of D whose vector parts combine into V are, less that
        # V-section, sections (0, eta) with eta in D n T*M, and conversely:
        # the vector parts meet V exactly when the columns are dependent
        if self.span.rank != len(self.column_coefficients):
            raise ComplementError(
                "complement overlaps the tangent kernel generically")
        if (len(dirac.tangent_kernel) + len(self.sections)
                != dirac.verify().dim_characteristic):
            raise ComplementError(
                "complement does not span the characteristic distribution")
        self.hamiltonians: dict = {}
        self.brackets: dict = {}

    def __len__(self) -> int:
        return len(self.sections)


def default_complement(dirac: DiracStructure) -> ComplementH:
    """Greedy complement: frame sections whose vector parts extend the
    tangent kernel span, in frame order."""
    dirac.require_verified()
    kernel = dirac.tangent_kernel
    span = linalg.echelon([v.components for v in kernel]
                          + [e.X.components for e in dirac.frame], dirac.dim)
    # left-to-right pivoting keeps exactly the sections that raise the rank
    return ComplementH(dirac, [dirac.frame[col - len(kernel)]
                               for _, col in span.pivots
                               if col >= len(kernel)])


def _require_owner(dirac: DiracStructure, complement: ComplementH) -> None:
    if complement.dirac is not dirac:
        raise ComplementError("the complement belongs to a different structure")


def hamiltonian_H(dirac: DiracStructure, complement: ComplementH, f):
    """The unique vector field in the fixed complement with ``(H_f, df)`` a
    section of D.  Returns the field and the frame coefficients of the
    section ``(H_f, df)``, memoized on the complement under ``f``."""
    _require_owner(dirac, complement)
    f = as_expr(f)
    known = complement.hamiltonians.get(f)
    if known is not None:
        return known
    n = dirac.dim
    result = linalg.solve(complement.span,
                          covector_components(differential(dirac, f)))
    if not result.ok:
        raise NotAdmissibleError(f"{f} is not admissible: {result.witness}")
    field = VectorField(dirac.chart, (ZERO,) * n)
    for h, coeff in zip(complement.sections, result.solution):
        field = field + h.X.scale(coeff)
    frame_coeffs = [ZERO] * n
    for combo, coeff in zip(complement.column_coefficients, result.solution):
        for i, c in enumerate(combo):
            frame_coeffs[i] = frame_coeffs[i] + coeff * c
    known = complement.hamiltonians[f] = (field, tuple(frame_coeffs))
    return known


def kills_tangent_kernel(dirac: DiracStructure, f) -> bool:
    """Does ``df`` vanish on the tangent kernel V = D n TM?  Exactly then
    shifting a particular solution by a field of V leaves ``X f`` unchanged,
    so the bracket with ``f`` is well defined."""
    df = differential(dirac, f)
    return all(is_zero(df.evaluate([v])) for v in dirac.tangent_kernel)


def bracket_prime(dirac: DiracStructure, f, g) -> Expr:
    """``{f, g}' = X_g f`` with the particular solution; independence from
    the representative is asserted against the tangent kernel."""
    f, g = as_expr(f), as_expr(g)
    sol = admissible_vector_field(dirac, g)
    if not sol.ok:
        raise NotAdmissibleError(f"{g} is not admissible: {sol.witness}")
    if not kills_tangent_kernel(dirac, f):
        raise NotAdmissibleError(
            "bracket not well-defined: df does not annihilate D n TM")
    return sol.vector_field.apply(f)


def bracket_omega(dirac: DiracStructure, complement: ComplementH, f, g) -> Expr:
    """``{f, g} = H_g f``, cross-checked against the presymplectic pairing of
    the two Hamiltonian fields through the frame expansion; memoized on the
    complement under the ordered pair ``(f, g)``."""
    _require_owner(dirac, complement)
    f, g = as_expr(f), as_expr(g)
    key = (f, g)
    known = complement.brackets.get(key)
    if known is not None:
        return known
    h_g, _ = hamiltonian_H(dirac, complement, g)
    value = h_g.apply(f)
    _, coeffs_f = hamiltonian_H(dirac, complement, f)
    omega_val = ZERO
    for i, c in enumerate(coeffs_f):
        omega_val = omega_val + c * dirac.frame[i].xi.evaluate([h_g])
    if not is_zero(value - omega_val):
        raise NotAdmissibleError("bracket disagrees with Omega(H_f, H_g)")
    complement.brackets[key] = value
    return value


def jacobiator(dirac: DiracStructure, complement: ComplementH, f, g, h) -> Expr:
    """``{{f,g},h} + {{g,h},f} + {{h,f},g}`` for the Omega-compatible
    bracket; zero on a Dirac structure."""
    def br(a, b):
        return bracket_omega(dirac, complement, a, b)

    return br(br(f, g), h) + br(br(g, h), f) + br(br(h, f), g)


def field_residual(dirac: DiracStructure, complement: ComplementH,
                   f, g) -> VectorField:
    """``[H_f, H_g] + H_{f,g}``; zero on a Dirac structure."""
    h_f, _ = hamiltonian_H(dirac, complement, f)
    h_g, _ = hamiltonian_H(dirac, complement, g)
    h_fg, _ = hamiltonian_H(dirac, complement,
                            bracket_omega(dirac, complement, f, g))
    return h_f.lie_bracket(h_g) + h_fg
