"""Expected verdicts, derived without diracq.

Generated structures are judged from the generator's own data with plain
sympy: ranks from ``sympy.Matrix.rank`` on the frame matrices, closedness
from d(omega), the Poisson condition on R^3 as ``v . curl v = 0``, the
Courant tensor of the frame, and Cech sums in ``Fraction``.  The seven
corpus models have a hand-derived table (``CORPUS``).  The theorems of the
paper then fix the rest: on a true Dirac structure the Poisson laws, the
Poincare homotopy identity and the prequantization identities hold.

An expectation is a list of ``Expect(name, statuses, witness)``; ``witness``
is ``None`` (no witness), a string (exact), ``Contains`` or ``ANY``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import sympy as sp

ANY = "<any>"


@dataclass(frozen=True)
class Contains:
    text: str


@dataclass(frozen=True)
class Expect:
    name: str
    statuses: tuple[str, ...]
    witness: object = None


class OracleError(Exception):
    """The generator produced a member the oracle cannot decide."""


def judge(checks: list[dict], expected: list[Expect]) -> str | None:
    """None when the report matches, else the first difference."""
    if len(checks) != len(expected):
        got = ", ".join(f"{c['name']} {c['status']}" for c in checks
                        if c["status"] == "error")
        return (f"{len(checks)} records, expected {len(expected)}"
                + (f" ({got}: {checks_error(checks)})" if got else ""))
    for c, e in zip(checks, expected):
        if c["name"] != e.name and not (
                "/" not in e.name and c["name"].startswith(e.name + "/")):
            return f"record {c['name']!r} where {e.name!r} was expected"
        if c["status"] not in e.statuses:
            return (f"{e.name} {c['status']} [{c['witness']}], expected "
                    f"{'/'.join(e.statuses)}")
        w = e.witness
        if w is ANY:
            continue
        if isinstance(w, Contains):
            if w.text not in (c["witness"] or ""):
                return f"{e.name} witness {c['witness']!r} lacks {w.text!r}"
        elif c["witness"] != w:
            return f"{e.name} witness {c['witness']!r}, expected {w!r}"
    return None


def checks_error(checks: list[dict]) -> str:
    return "; ".join(c["witness"] or "" for c in checks
                     if c["status"] == "error")


def _skip(suite: str) -> Expect:
    return Expect(suite, ("skipped",), "not requested")


# ---------------------------------------------------------------------------
# suite builders


def dirac_records(n: int, stacked_rank: int, dims: tuple, closed: bool,
                  isotropic: bool = True) -> list[Expect]:
    """The eight dirac checks.  A non-Dirac frame has no 2-cocycle and no
    pi-sharp morphism to check: the truth for those two is a skip."""
    dirac = isotropic and closed and stacked_rank == n
    status = ("pass",) if closed else ("fail",)
    after = ("pass",) if dirac else ("skipped",)
    return [
        Expect("dirac/D1-isotropy", ("pass",) if isotropic else ("fail",),
               None if isotropic else ANY),
        Expect("dirac/D2-rank", ("pass",) if stacked_rank == n else ("fail",),
               f"rank {stacked_rank}"),
        Expect("dirac/D3-closure", status, None if closed else ANY),
        Expect("dirac/integrability-identity", status,
               None if closed else ANY),
        Expect("dirac/kernel-equations", ("pass",),
               "dim rho_TM(D)={}, dim D^T*M={}, dim rho_T*M(D)={}, "
               "dim D^TM={}".format(*dims)),
        Expect("dirac/annihilator-duality", ("pass",)),
        Expect("dirac/omega-cocycle", after, None if dirac else ANY),
        Expect("dirac/pi-sharp-morphism", after, None if dirac else ANY),
    ]


POISSON_LAWS = ("antisymmetry", "leibniz", "jacobi", "field-identity",
                "prime-matches-omega", "kernel-shift-invariance")


def poisson_records(non_admissible: list[str]) -> list[Expect]:
    """On a Dirac structure the bracket of admissible functions is a
    Poisson bracket, so every law holds."""
    witness = ("non-admissible: " + ", ".join(non_admissible)) \
        if non_admissible else None
    return [Expect("poisson/admissible-scalars", ("pass",), witness)] + \
        [Expect(f"poisson/{law}", ("pass",)) for law in POISSON_LAWS]


def poincare_records(n: int) -> list[Expect]:
    """The pull-back over the line has rank n + 1 and the homotopy formula
    d S + S d = id - pr* iota holds on every Dirac structure."""
    return [Expect("poincare/pullback-rank", ("pass",), f"rank {n + 1}"),
            Expect("poincare/anchor-t", ("pass",)),
            Expect("poincare/structure-inherited", ("pass",)),
            Expect("poincare/homotopy-identity", ("pass",)),
            Expect("poincare/pullback-commutes", ("pass",))]


def prequant_records(condition: str | None = None,
                     hermitian: bool = True) -> list[Expect]:
    """A valid atlas: tau = Lambda unless ``condition`` gives the residual
    witness, in which case the commutator identity fails with it."""
    out = [Expect("prequant/atlas", ("pass",)),
           Expect("prequant/curvature-patch-independent", ("pass",)),
           Expect("prequant/lambda-closed", ("pass",)),
           Expect("prequant/condition",
                  ("pass",) if condition is None else ("fail",), condition),
           Expect("prequant/commutator",
                  ("pass",) if condition is None else ("fail",),
                  None if condition is None else ANY)]
    if hermitian:
        out.append(Expect("prequant/hermitian-identity", ("pass",)))
    return out


def quantize_records() -> list[Expect]:
    return [Expect("quantize/prequantizable", ("pass",)),
            Expect("quantize/lemma51", ("pass",)),
            Expect("quantize/selfadjoint-integrand", ("pass",)),
            Expect("quantize/hzero-invariance", ("pass",)),
            Expect("quantize/quadrature", ("pass",), "volume 1.0")]


def assemble(suites: list[str], parts: dict) -> list[Expect]:
    order = ("dirac", "poisson", "prequant", "polarize", "quantize",
             "poincare")
    out = []
    for suite in order:
        out += parts[suite] if suite in suites else [_skip(suite)]
    return out


# ---------------------------------------------------------------------------
# generated structures


def _poly(d: dict, xs) -> sp.Expr:
    return sp.Add(*[c * sp.Mul(*[x ** e for x, e in zip(xs, k)])
                    for k, c in d.items()])


def _zero(e) -> bool:
    return sp.cancel(sp.expand(e)) == 0


def _lie_bracket(xs, a, b) -> list:
    n = len(xs)
    return [sp.Add(*[a[j] * sp.diff(b[i], xs[j]) - b[j] * sp.diff(a[i], xs[j])
                     for j in range(n)]) for i in range(n)]


class Frame:
    """Frame sections (X_i, xi_i) as sympy component lists."""

    def __init__(self, xs, vectors, forms):
        self.xs, self.X, self.xi = xs, vectors, forms
        self.n = len(xs)

    def matrix(self, parts) -> sp.Matrix:
        return sp.Matrix(self.n, self.n, lambda r, c: parts[c][r])

    def pair(self, form, vector):
        return sp.Add(*[a * b for a, b in zip(form, vector)])

    def lie_bracket(self, a, b):
        return _lie_bracket(self.xs, a, b)

    def lie_form(self, x, form):
        """(L_X form)_i = X(form_i) + form_j d_i X^j."""
        return [sp.Add(*[x[j] * sp.diff(form[i], self.xs[j])
                         + form[j] * sp.diff(x[j], self.xs[i])
                         for j in range(self.n)]) for i in range(self.n)]

    def isotropic(self) -> bool:
        return all(_zero(self.pair(self.xi[i], self.X[j])
                         + self.pair(self.xi[j], self.X[i]))
                   for i in range(self.n) for j in range(i, self.n))

    def courant_tensor_zero(self) -> bool:
        """<[[e_i, e_j]], e_k>_+ for the Dorfman bracket
        ([X,Y], L_X eta - i_Y d xi), via L_X eta - i_Y d xi = L_X eta
        - L_Y xi + d(xi(Y))."""
        n = self.n
        for i, j, k in itertools.combinations(range(n), 3) if n >= 3 else ():
            xi_, xj = self.X[i], self.X[j]
            form = [a - b + sp.diff(self.pair(self.xi[i], xj), x)
                    for a, b, x in zip(self.lie_form(xi_, self.xi[j]),
                                       self.lie_form(xj, self.xi[i]),
                                       self.xs)]
            value = self.pair(form, self.X[k]) + \
                self.pair(self.xi[k], self.lie_bracket(xi_, xj))
            if not _zero(value):
                return False
        return True

    def dims(self) -> tuple[int, int, int, int]:
        rv = self.matrix(self.X).rank(simplify=True)
        rf = self.matrix(self.xi).rank(simplify=True)
        return rv, self.n - rv, rf, self.n - rf

    def stacked_rank(self) -> int:
        return self.matrix(self.X).col_join(self.matrix(self.xi)).rank(
            simplify=True)

    def tangent_kernel(self) -> list[list]:
        """Vectors of D n TM: X-parts of frame combinations with zero form
        part."""
        out = []
        for z in self.matrix(self.xi).nullspace(simplify=True):
            out.append([sp.cancel(sp.Add(*[z[c] * self.X[c][r]
                                           for c in range(self.n)]))
                        for r in range(self.n)])
        return [v for v in out if any(not _zero(e) for e in v)]


def _frame_from_spec(spec: dict) -> tuple[Frame, dict]:
    """The frame diracq's constructor presents, plus the named facts
    (closedness, the Poisson condition, involutivity)."""
    n = spec["n"]
    xs = sp.symbols(" ".join(f"x{i + 1}" for i in range(n)))
    unit = [[int(r == c) for r in range(n)] for c in range(n)]
    facts = {}
    if spec["kind"] == "form":
        w = {k: _poly(v, xs) for k, v in spec["omega"].items()}

        def om(i, j):
            return 0 if i == j else (w[(i, j)] if i < j else -w[(j, i)])
        forms = [[om(i, j) for j in range(n)] for i in range(n)]
        facts["closed"] = all(
            _zero(sp.diff(om(j, k), xs[i]) - sp.diff(om(i, k), xs[j])
                  + sp.diff(om(i, j), xs[k]))
            for i, j, k in itertools.combinations(range(n), 3))
        return Frame(xs, unit, forms), facts
    if spec["kind"] == "poisson":
        p = {k: _poly(v, xs) for k, v in spec["pi"].items()}

        def pi(i, j):
            return 0 if i == j else (p.get((i, j), 0) if i < j
                                     else -p.get((j, i), 0))
        vectors = [[pi(j, i) for j in range(n)] for i in range(n)]
        if n == 3:
            v = [pi(1, 2), pi(2, 0), pi(0, 1)]
            curl = [sp.diff(v[2], xs[1]) - sp.diff(v[1], xs[2]),
                    sp.diff(v[0], xs[2]) - sp.diff(v[2], xs[0]),
                    sp.diff(v[1], xs[0]) - sp.diff(v[0], xs[1])]
            facts["closed"] = _zero(sum(a * b for a, b in zip(v, curl)))
        return Frame(xs, vectors, unit), facts
    fields = [[_poly(c, xs) for c in comps] for comps in spec["fields"]]
    k = len(fields)
    span = sp.Matrix(fields)
    annihilator = [list(z) for z in span.nullspace(simplify=True)]
    vectors = fields + [[0] * n] * len(annihilator)
    forms = [[0] * n] * k + annihilator
    involutive = True
    for a, b in itertools.combinations(range(k), 2):
        br = _lie_bracket(xs, fields[a], fields[b])
        if span.col_join(sp.Matrix([br])).rank(simplify=True) > span.rank():
            involutive = False
    facts["closed"] = involutive
    return Frame(xs, vectors, forms), facts


def expect_generated(op: dict) -> list[Expect]:
    spec = op["spec"]
    if spec["kind"] == "cech":
        return _expect_cech(op)
    if spec["kind"] == "transition":
        return _expect_transition(op)
    frame, facts = _frame_from_spec(spec)
    n = frame.n
    closed = frame.courant_tensor_zero()
    if facts.get("closed", closed) != closed:
        raise OracleError(f"{op['name']}: the Courant tensor and the named "
                          "integrability condition disagree")
    rank = frame.stacked_rank()
    isotropic = frame.isotropic()
    parts = {"dirac": dirac_records(n, rank, frame.dims(), closed, isotropic)}
    if "poisson" in op["suites"]:
        kernel = frame.tangent_kernel()
        bad, good = [], 0
        for name, poly in spec["scalars"].items():
            f = _poly(poly, frame.xs)
            df = [sp.diff(f, x) for x in frame.xs]
            if all(_zero(frame.pair(df, v)) for v in kernel):
                good += 1
            else:
                bad.append(name)
        if kernel and good < 3:
            raise OracleError(f"{op['name']}: the admissible pool is left "
                              "to the program's random search")
        parts["poisson"] = poisson_records(bad)
    parts["poincare"] = poincare_records(n)
    return assemble(op["suites"], parts)


def cech_sums(m: int, consts: dict) -> list[Fraction]:
    c = {k: Fraction(v) for k, v in consts.items()}
    return [c[(a, b)] + c[(b, d)] - c[(a, d)]
            for a, b, d in itertools.combinations(range(m), 3)]


def _expect_cech(op: dict) -> list[Expect]:
    spec = op["spec"]
    q, p = sp.symbols("q p")
    for u in spec["us"]:
        # sigma = -p dq + du has d(sigma) = dq ^ dp; the polarization
        # (d_p, -dq) sees sigma(d_p) = du/dp, flat for u = u(q)
        sig_q = -p + sp.diff(_poly(u, (q, p)), q)
        sig_p = sp.diff(_poly(u, (q, p)), p)
        if not _zero(sp.diff(sig_p, q) - sp.diff(sig_q, p) - 1):
            raise OracleError(f"{op['name']}: sigma is not a primitive")
        if "quantize" in op["suites"] and not _zero(sig_p):
            raise OracleError(f"{op['name']}: v1 = 1 is not flat along P")
    sums = cech_sums(len(spec["us"]), spec["consts"])
    fractional = [s for s in sums if s.denominator != 1]
    if fractional:
        atlas = [Expect("prequant/atlas", ("fail",),
                        f"integrality obstruction: {fractional[0]}")]
        return assemble(op["suites"], {"prequant": atlas,
                                       "quantize": quantize_records()})
    # the declared scalars q and p are affine in p, hence in S(P)
    return assemble(op["suites"], {"prequant": prequant_records(),
                                   "quantize": quantize_records()})


def _expect_transition(op: dict) -> list[Expect]:
    # with a constant transition g, compatibility needs sigma_1 = sigma_2
    diff = op["spec"]["sigma_diff"]
    assert op["spec"]["g"] == 1 and diff
    atlas = [Expect("prequant/atlas", ("fail",), ANY)]
    return assemble(op["suites"], {"prequant": atlas})


# ---------------------------------------------------------------------------
# the corpus, derived by hand (reasons inline)


def _corpus_table() -> dict[str, list[Expect]]:
    no_pol = [Expect("polarize", ("skipped",), Contains("polarization"))]
    no_atlas = [Expect("prequant", ("skipped",), Contains("atlas"))]
    table = {}
    # standard plane dq^dp: frame (d_q, -dp), (d_p, dq); both projections
    # have rank 2; P = span(d_p, -dq) is Lagrangian, Q = TM/P has rank 1;
    # sigma = -p dq has d sigma = dq^dp = Lambda; f1..f4 are affine in p,
    # so all lie in S(P); v1 = 1 and v2 = q^2 + 1 are flat along d_p
    table["standard_r2"] = (
        dirac_records(2, 2, (2, 0, 2, 0), True) + poisson_records([])
        + prequant_records()
        + [Expect("polarize/isotropy", ("pass",)),
           Expect("polarize/involutivity", ("pass",)),
           Expect("polarize/containment", ("pass",)),
           Expect("polarize/sp-closure", ("pass",)),
           Expect("polarize/q-bundle", ("pass",), "rank 1")]
        + quantize_records() + poincare_records(2))
    # sigma = -2p dq: tau - Lambda = 2 dq^dp - dq^dp = 1 on the frame pair
    table["perturbed_sigma"] = (
        dirac_records(2, 2, (2, 0, 2, 0), True) + poisson_records([])
        + prequant_records("tau-Lambda[(0, 1)] = 1") + no_pol
        + [Expect("quantize", ("skipped",), Contains("polarization"))]
        + poincare_records(2))
    # Cech sums on the one triple: q + (-q) - 0 = 0, integral; the
    # cocycle construction attaches the Hermitian metric
    table["cech_three_patch"] = (
        dirac_records(2, 2, (2, 0, 2, 0), True) + poisson_records([])
        + prequant_records() + no_pol
        + [Expect("quantize", ("skipped",), Contains("polarization"))]
        + poincare_records(2))
    # Cech sum 1/3 + 0 - 0 = 1/3: the integrality obstruction; quantize
    # needs that atlas, so its truth is a fail or skip citing 1/3 (F1)
    table["cech_obstruction"] = (
        dirac_records(2, 2, (2, 0, 2, 0), True) + poisson_records([])
        + [Expect("prequant/atlas", ("fail",),
                  "integrality obstruction: 1/3")] + no_pol
        + [Expect("quantize", ("skipped", "fail"), Contains("1/3"))]
        + poincare_records(2))
    # F = span(d_x1) + its annihilator span(dx2): vector part rank 1,
    # form part rank 1; sigma = 0 and Lambda = 0 on the frame
    table["foliation"] = (
        dirac_records(2, 2, (1, 1, 1, 1), True) + poisson_records([])
        + prequant_records() + no_pol
        + [Expect("quantize", ("skipped",), Contains("polarization"))]
        + poincare_records(2))
    # pi = G d_x1^d_x2 with G = x1^2 + x2^2: rank 2 off the origin
    table["poisson_g"] = (
        dirac_records(2, 2, (2, 0, 2, 0), True) + poisson_records([])
        + no_atlas + no_pol
        + [Expect("quantize", ("skipped",), Contains("atlas"))]
        + poincare_records(2))
    # omega = dx1^(dx2 + dx4) has rank 2, kernel span(d_x3, d_x2 - d_x4);
    # every declared scalar depends on x2, x4 only through x2 + x4
    table["presymplectic_r4"] = (
        dirac_records(4, 4, (4, 0, 2, 2), True) + poisson_records([])
        + no_atlas + no_pol
        + [Expect("quantize", ("skipped",), Contains("atlas"))]
        + poincare_records(4))
    return table


CORPUS = _corpus_table()
CORPUS_FAULTS = {"cech_obstruction": "F1"}


# ---------------------------------------------------------------------------
# the kept faults: what the program reports instead of the truth


def _replace_suite(expected: list[Expect], suite: str,
                   error: Expect) -> list[Expect]:
    """``expected`` with the records of ``suite`` replaced by one record."""
    out = []
    for e in expected:
        if e.name == suite or e.name.startswith(suite + "/"):
            if error not in out:
                out.append(error)
        else:
            out.append(e)
    return out


def under_fault(fault: str, expected: list[Expect],
                frame: bool = False) -> list[Expect]:
    """The report a kept fault gives: the truth everywhere except the
    fault's own ERROR records.  ``frame`` marks a ``frame(...)`` input."""
    if fault == "F1":
        return _replace_suite(expected, "quantize", Expect(
            "quantize", ("error",), Contains("IntegralityError: ")))
    if fault == "F2" and frame:
        return [Expect(e.name, ("error",), Contains("VerificationError: "))
                if e.name in ("dirac/omega-cocycle",
                              "dirac/pi-sharp-morphism") else e
                for e in expected]
    if fault == "F2":
        return _replace_suite(expected, "dirac", Expect(
            "dirac", ("error",), Contains("DiracConstructionError: ")))
    if fault == "F3":
        return _replace_suite(expected, "prequant", Expect(
            "prequant", ("error",), Contains("AtlasError: ")))
    raise ValueError(f"unknown fault {fault}")
