"""Text DSL for chart models.

One statement per line; ``#`` starts a comment.  Scalars use ``+ - * / ^``
with integer exponents (``q^-2`` or ``q^(-2)``) and the atoms ``exp sin
cos``, plus the constants ``pi`` and the imaginary unit ``i``.  For a
coordinate ``q``, the 1-form is spelled ``dq`` and the coordinate vector
field ``d_q``; the wedge is ``/\\`` and binds looser than ``*``.

    chart M dim 2 coords q p [params k ...]
    scalar f = q^2 + p
    form omega = dq /\\ dp
    vector X = d_q + q*d_p
    bivector W = d_q /\\ d_p
    section s = (d_q, dp)
    dirac D = graph_presymplectic(omega) | graph_poisson(W)
            | regular_distribution(X, ...) | frame(s1, ..., sn)
    complement H = auto | sections(s1, ...)
    patch U1
    transition U1 U2 = <scalar>
    sigma U1 = pull(<1-form>) | dcoeffs(<scalar>, ...)
    cochain U1 U2 = <scalar>
    hermitian
    polarization P = span((d_q, dp), ...)
    halfdensity v = <scalar>
    check dirac poisson prequant polarize quantize poincare | all

Names are resolved as they are read: the arguments of ``dirac`` and
``complement sections(...)`` and the patches of ``transition``, ``sigma`` and
``cochain`` must be declared on earlier lines.  A name is bound once: the
name of a ``scalar``, ``form``, ``vector``, ``bivector``, ``section`` or
``halfdensity`` is none of those already declared, no coordinate or
parameter, and, like a coordinate or parameter, none of the built-in names
``i pi exp sin cos``, ``dq`` and ``d_q`` (for a coordinate ``q``).  A patch,
and the ``sigma`` of a patch or the ``transition`` and ``cochain`` of an
ordered pair, are declared once, and so are ``dirac``, ``complement`` and
``polarization``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .chart import Chart, KForm, KVector, VectorField
from .dirac import Section
from .expr import I, PI, ZERO, ComplexExpr, Expr, ExprError, atom, symbol

__all__ = ["DslError", "Model", "parse_model", "format_model", "SUITES"]

SUITES = ("dirac", "poisson", "prequant", "polarize", "quantize", "poincare")


class DslError(Exception):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}:{column}: {message}")
        self.line = line
        self.column = column
        self.message = message


# ---------------------------------------------------------------------------
# values: ComplexExpr scalars, and forms, vector fields, multivectors and
# sections whose coefficients are real or complex


def _vector_to_multi(v: VectorField) -> KVector:
    return KVector(v.chart, 1, {(i,): c for i, c in enumerate(v.components)})


_TENSORS = (KForm, VectorField, KVector)


class _Ops:
    """Type-dispatched arithmetic on parser values."""

    @staticmethod
    def add(a, b, err):
        if type(a) is type(b) and isinstance(a, (ComplexExpr,) + _TENSORS):
            return a + b
        raise err(f"cannot add {_kind(a)} and {_kind(b)}")

    @staticmethod
    def neg(a, err):
        if isinstance(a, (ComplexExpr,) + _TENSORS):
            return -a
        raise err(f"cannot negate {_kind(a)}")

    @staticmethod
    def mul(a, b, err):
        if isinstance(a, ComplexExpr) and isinstance(b, ComplexExpr):
            return a * b
        if isinstance(b, ComplexExpr) and not isinstance(a, ComplexExpr):
            return _Ops.mul(b, a, err)
        if isinstance(a, ComplexExpr) and isinstance(b, _TENSORS):
            return b.scale(a)
        raise err(f"cannot multiply {_kind(a)} and {_kind(b)}")

    @staticmethod
    def div(a, b, err):
        if not isinstance(b, ComplexExpr):
            raise err(f"cannot divide by {_kind(b)}")
        inverse = ComplexExpr.of(1) / b
        return _Ops.mul(inverse, a, err)

    @staticmethod
    def wedge(a, b, err):
        if isinstance(a, VectorField):
            a = _vector_to_multi(a)
        if isinstance(b, VectorField):
            b = _vector_to_multi(b)
        if type(a) is type(b) and isinstance(a, (KForm, KVector)):
            return a.wedge(b)
        raise err(f"cannot wedge {_kind(a)} and {_kind(b)}")

    @staticmethod
    def power(a, n: int, err):
        if not isinstance(a, ComplexExpr):
            raise err(f"cannot raise {_kind(a)} to a power")
        if n < 0:
            return _Ops.div(ComplexExpr.of(1), _Ops.power(a, -n, err), err)
        out = ComplexExpr.of(1)
        for _ in range(n):
            out = out * a
        return out


def _kind(value) -> str:
    return {ComplexExpr: "scalar", KForm: "form", VectorField: "vector",
            KVector: "multivector", Section: "section"}.get(type(value),
                                                            type(value).__name__)


# ---------------------------------------------------------------------------
# tokenizer

_TOKEN_RE = re.compile(r"""
    (?P<ws>\s+)
  | (?P<wedge>/\\)
  | (?P<int>\d+)
  | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*/^(),=])
""", re.VERBOSE)


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    column: int


def _tokenize(text: str, line_no: int) -> list[Token]:
    out = []
    pos = 0
    while pos < len(text):
        match = _TOKEN_RE.match(text, pos)
        if match is None:
            raise DslError(f"unexpected character {text[pos]!r}", line_no, pos + 1)
        pos = match.end()
        kind = match.lastgroup
        if kind == "ws":
            continue
        out.append(Token(kind, match.group(), match.start() + 1))
    return out


class _Stream:
    def __init__(self, tokens: list[Token], line_no: int):
        self.tokens = tokens
        self.index = 0
        self.line = line_no

    def error(self, message: str) -> DslError:
        column = self.tokens[self.index].column if self.index < len(self.tokens) \
            else (self.tokens[-1].column + 1 if self.tokens else 1)
        return DslError(message, self.line, column)

    def peek(self) -> Token | None:
        return self.tokens[self.index] if self.index < len(self.tokens) else None

    def next(self) -> Token:
        token = self.peek()
        if token is None:
            raise self.error("unexpected end of statement")
        self.index += 1
        return token

    def accept(self, text: str) -> bool:
        token = self.peek()
        if token is not None and token.text == text:
            self.index += 1
            return True
        return False

    def expect(self, text: str) -> Token:
        token = self.peek()
        if token is None or token.text != text:
            raise self.error(f"expected {text!r}")
        return self.next()

    def expect_ident(self) -> str:
        token = self.peek()
        if token is None or token.kind != "ident":
            raise self.error("expected an identifier")
        return self.next().text

    def at_end(self) -> bool:
        return self.index >= len(self.tokens)


# ---------------------------------------------------------------------------
# the model


@dataclass
class Model:
    name: str
    chart: Chart
    scalars: dict[str, ComplexExpr] = field(default_factory=dict)
    forms: dict[str, KForm] = field(default_factory=dict)
    vectors: dict[str, VectorField] = field(default_factory=dict)
    bivectors: dict[str, KVector] = field(default_factory=dict)
    sections: dict[str, Section] = field(default_factory=dict)
    dirac_decl: tuple[str, str, tuple[str, ...]] | None = None  # (name, kind, args)
    complement_decl: tuple[str, str, tuple[str, ...]] | None = None
    patches: list[str] = field(default_factory=list)
    transitions: dict[tuple[str, str], ComplexExpr] = field(default_factory=dict)
    sigmas: dict[str, tuple[str, tuple]] = field(default_factory=dict)
    cochain: dict[tuple[str, str], Expr] = field(default_factory=dict)
    hermitian: bool = False
    polarization_decl: tuple[str, tuple[Section, ...]] | None = None
    halfdensities: dict[str, ComplexExpr] = field(default_factory=dict)
    checks: list[str] = field(default_factory=list)


# each value declaration: its keyword, the Model table it fills and the type
# of its value
_VALUES = {"scalar": ("scalars", ComplexExpr), "form": ("forms", KForm),
           "vector": ("vectors", VectorField),
           "bivector": ("bivectors", KVector), "section": ("sections", Section),
           "halfdensity": ("halfdensities", ComplexExpr)}
_BUILTINS = ("i", "pi", "exp", "sin", "cos")


class _ExpressionParser:
    """Recursive descent over one statement's token stream."""

    def __init__(self, stream: _Stream, model: Model):
        self.stream = stream
        self.model = model
        self.chart = model.chart

    def err(self, message: str) -> DslError:
        return self.stream.error(message)

    def expression(self):
        """One expression.  An expression nested deeper than the
        interpreter's stack is reported at its first token, a column that
        does not depend on the recursion limit."""
        start = self.stream.index
        try:
            return self.sum()
        except RecursionError:
            self.stream.index = start
            raise self.err("expression nested too deeply") from None

    # precedence: + -  <  /\  <  * /  <  unary -  <  ^
    def sum(self):
        value = self.wedge_term()
        while True:
            if self.stream.accept("+"):
                value = _Ops.add(value, self.wedge_term(), self.err)
            elif self.stream.accept("-"):
                value = _Ops.add(value, _Ops.neg(self.wedge_term(), self.err),
                                 self.err)
            else:
                return value

    def wedge_term(self):
        value = self.term()
        while True:
            token = self.stream.peek()
            if token is not None and token.kind == "wedge":
                self.stream.next()
                value = _Ops.wedge(value, self.term(), self.err)
            else:
                return value

    def term(self):
        value = self.factor()
        while True:
            if self.stream.accept("*"):
                value = _Ops.mul(value, self.factor(), self.err)
            elif self.stream.accept("/"):
                value = _Ops.div(value, self.factor(), self.err)
            else:
                return value

    def factor(self):
        if self.stream.accept("-"):
            return _Ops.neg(self.factor(), self.err)
        return self.power()

    def power(self):
        base = self.atom()
        if not self.stream.accept("^"):
            return base
        parenthesised = self.stream.accept("(")
        sign = -1 if self.stream.accept("-") else 1
        token = self.stream.next()
        if token.kind != "int" or parenthesised and not self.stream.accept(")"):
            raise self.err("exponents must be integer literals")
        return _Ops.power(base, sign * int(token.text), self.err)

    def atom(self):
        token = self.stream.next()
        if token.kind == "int":
            return ComplexExpr.of(int(token.text))
        if token.text == "(":
            value = self.sum()
            self.stream.expect(")")
            return value
        if token.kind != "ident":
            raise self.err(f"unexpected token {token.text!r}")
        return self.resolve(token)

    def resolve(self, token: Token):
        name = token.text
        if name in ("exp", "sin", "cos") and self.stream.accept("("):
            inner = self.sum()
            self.stream.expect(")")
            if not isinstance(inner, ComplexExpr):
                raise self.err(f"{name} expects a scalar argument")
            if inner.im != ZERO:
                raise self.err(f"{name} of a complex argument is not supported")
            return ComplexExpr.of(atom(name, inner.re))
        model = self.model
        for table in (model.scalars, model.forms, model.vectors,
                      model.bivectors):
            if name in table:
                return table[name]
        chart = self.chart
        if name in chart.coord_names or name in chart.param_names:
            return ComplexExpr.of(Expr(symbol(name)))
        if name == "i":
            return I
        if name == "pi":
            return ComplexExpr.of(PI)
        if name.startswith("d_") and name[2:] in chart.coord_names:
            return chart.basis_vector(chart.coord_names.index(name[2:]))
        if name.startswith("d") and name[1:] in chart.coord_names:
            return chart.basis_covector(chart.coord_names.index(name[1:]))
        # sections and half-densities are not operands
        problem = (f"the section {name!r} is not an operand"
                   if name in model.sections else
                   f"the half-density {name!r} is not an operand"
                   if name in model.halfdensities else
                   f"unknown symbol {name!r}")
        raise DslError(problem, self.stream.line, token.column)

    def pair(self) -> Section:
        self.stream.expect("(")
        vector = self.expression()
        self.stream.expect(",")
        form = self.expression()
        self.stream.expect(")")
        if not isinstance(vector, VectorField):
            raise self.err("the first slot of a section must be a vector field")
        if not isinstance(form, KForm) or form.degree != 1:
            raise self.err("the second slot of a section must be a 1-form")
        return Section(vector, form)


def _require_scalar(value, stream) -> ComplexExpr:
    if not isinstance(value, ComplexExpr):
        raise stream.error(f"expected a scalar, got {_kind(value)}")
    return value


def _require_real(z: ComplexExpr, stream) -> Expr:
    if z.im != ZERO:
        raise stream.error("expected a real expression")
    return z.re


def _two_form(name: str, form: KForm) -> str | None:
    if form.degree != 2:
        return f"{name!r} has degree {form.degree}, not 2"
    return None


# the value keyword each Dirac constructor's arguments name, whether it takes
# exactly one, and what a declared argument must satisfy (a complaint, or
# None); the frame's length is checked against the chart
_DIRAC_ARGS = {"graph_presymplectic": ("form", True, _two_form),
               "graph_poisson": ("bivector", True, None),
               "regular_distribution": ("vector", False, None),
               "frame": ("section", False, None)}


def _declared_name(stream: _Stream, table, what: str, check=None) -> str:
    """One name, which an earlier statement declared as a ``what``;
    ``check(name, value)`` returns a complaint about its value, or None."""
    token = stream.peek()
    name = stream.expect_ident()
    if name not in table:
        problem = f"{name!r} is not a declared {what}"
    else:
        problem = check and check(name, table[name])
    if problem:
        raise DslError(problem, stream.line, token.column)
    return name


def _first_time(stream: _Stream, token, key, table, message: str) -> None:
    """Raise ``message`` at ``token`` when an earlier statement declared
    ``key`` in ``table``."""
    if key in table:
        raise DslError(message, stream.line, token.column)


def _declared_names(stream: _Stream, model: Model, keyword: str,
                    single: bool = False, check=None) -> tuple[str, ...]:
    """``(a, b, ...)``: one or more names (exactly one when ``single``),
    each declared by a ``keyword`` statement and passing ``check``."""
    table = getattr(model, _VALUES[keyword][0])
    stream.expect("(")
    names = []
    while True:
        names.append(_declared_name(stream, table, keyword, check))
        if not stream.accept(","):
            break
        if single:
            raise stream.error(f"expected one {keyword}")
    stream.expect(")")
    return tuple(names)


def _new_name(stream: _Stream, model: Model) -> str:
    """The name a value, ``dirac``, ``complement`` or ``polarization``
    declaration binds, which must not be bound yet."""
    token = stream.peek()
    name = stream.expect_ident()
    chart = model.chart
    coords = chart.coord_names
    structures = (model.dirac_decl, model.complement_decl,
                  model.polarization_decl)
    if any(decl and decl[0] == name for decl in structures) or any(
            name in getattr(model, table) for table, _ in _VALUES.values()):
        problem = "is already declared"
    elif name in coords + chart.param_names:
        problem = "is a coordinate or parameter"
    elif _is_builtin(name, coords):
        problem = "is a built-in name"
    else:
        return name
    raise DslError(f"{name!r} {problem}", stream.line, token.column)


def _is_builtin(name: str, coords) -> bool:
    """``name`` is one of ``i pi exp sin cos``, or the 1-form ``dq`` or the
    vector field ``d_q`` of a coordinate ``q`` in ``coords``."""
    return name in _BUILTINS or name.startswith("d") and (
        name[1:] in coords or name.startswith("d_") and name[2:] in coords)


def parse_model(text: str, name: str = "model") -> Model:
    """Parse a model file; diagnostics carry line and column.  ``name`` is
    ignored: the chart's name is the model's name."""
    model: Model | None = None
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = _tokenize(line, line_no)
        stream = _Stream(tokens, line_no)
        keyword = stream.expect_ident()
        try:
            if keyword == "chart":
                if model is not None:
                    raise stream.error("only one chart per model")
                model = _parse_chart(stream)
            elif model is None:
                raise stream.error("the chart must be declared first")
            else:
                _parse_statement(keyword, stream, model)
        except ExprError as err:  # the tensor arithmetic of the statement
            raise stream.error(str(err)) from err
    if model is None:
        raise DslError("empty model: no chart declared", 1, 1)
    return model


def _parse_chart(stream: _Stream) -> Model:
    chart_name = stream.expect_ident()
    stream.expect("dim")
    dim_token = stream.next()
    if dim_token.kind != "int":
        raise stream.error("expected the dimension")
    dim = int(dim_token.text)
    stream.expect("coords")
    start = stream.index
    coords = []
    while not stream.at_end():
        token = stream.peek()
        if token.text == "params":
            break
        coords.append(stream.expect_ident())
    keyword = stream.index                      # "params", if it is there
    params = []
    if stream.accept("params"):
        while not stream.at_end():
            params.append(stream.expect_ident())
    if len(coords) != dim:
        raise stream.error(
            f"dimension mismatch: dim {dim} but {len(coords)} coordinates")
    names = coords + params
    for i, token in enumerate(stream.tokens[start:keyword]
                              + stream.tokens[keyword + 1:]):
        problem = ("is a built-in name" if _is_builtin(token.text, coords) else
                   "is already a coordinate or parameter"
                   if names.index(token.text) < i else None)
        if problem:
            raise DslError(f"{token.text!r} {problem}", stream.line,
                           token.column)
    return Model(name=chart_name, chart=Chart(chart_name, tuple(coords),
                                              tuple(params)))


def _parse_statement(keyword: str, stream: _Stream, model: Model) -> None:
    parser = _ExpressionParser(stream, model)
    if keyword in ("dirac", "complement", "polarization") \
            and getattr(model, f"{keyword}_decl") is not None:
        raise stream.error(f"only one {keyword} per model")
    if keyword in _VALUES:
        table, kind = _VALUES[keyword]
        name = _new_name(stream, model)
        stream.expect("=")
        value = parser.pair() if kind is Section else parser.expression()
        if not isinstance(value, kind) or kind is KVector and value.degree != 2:
            raise stream.error(f"expected a {keyword}, got {_kind(value)}")
        getattr(model, table)[name] = value
    elif keyword == "dirac":
        name = _new_name(stream, model)
        stream.expect("=")
        kind_token = stream.peek()
        kind = stream.expect_ident()
        if kind not in _DIRAC_ARGS:
            raise stream.error(f"unknown Dirac constructor {kind!r}")
        args = _declared_names(stream, model, *_DIRAC_ARGS[kind])
        dim = model.chart.dim
        if kind == "frame" and len(args) != dim:
            raise DslError(f"a Dirac frame on {model.chart.name} needs {dim} "
                           f"sections, got {len(args)}", stream.line,
                           kind_token.column)
        model.dirac_decl = (name, kind, args)
    elif keyword == "complement":
        name = _new_name(stream, model)
        stream.expect("=")
        kind = stream.expect_ident()
        if kind == "auto":
            model.complement_decl = (name, "auto", ())
        elif kind == "sections":
            model.complement_decl = (name, "sections", _declared_names(
                stream, model, "section"))
        else:
            raise stream.error("complement must be 'auto' or 'sections(...)'")
    elif keyword == "patch":
        token = stream.peek()
        name = stream.expect_ident()
        _first_time(stream, token, name, model.patches,
                    f"{name!r} is already a declared patch")
        model.patches.append(name)
    elif keyword == "transition":
        token = stream.peek()
        j = _declared_name(stream, model.patches, "patch")
        k = _declared_name(stream, model.patches, "patch")
        _first_time(stream, token, (j, k), model.transitions,
                    f"transition {j} {k} is already declared")
        stream.expect("=")
        model.transitions[(j, k)] = _require_scalar(parser.expression(), stream)
    elif keyword == "sigma":
        token = stream.peek()
        patch = _declared_name(stream, model.patches, "patch")
        _first_time(stream, token, patch, model.sigmas,
                    f"sigma {patch} is already declared")
        stream.expect("=")
        kind = stream.expect_ident()
        stream.expect("(")
        if kind == "pull":
            value = parser.expression()
            stream.expect(")")
            if not isinstance(value, KForm) or value.degree != 1:
                raise stream.error("pull(...) expects a 1-form")
            model.sigmas[patch] = ("pull", (value,))
        elif kind == "dcoeffs":
            values = [_require_scalar(parser.expression(), stream)]
            while stream.accept(","):
                values.append(_require_scalar(parser.expression(), stream))
            stream.expect(")")
            model.sigmas[patch] = ("dcoeffs", tuple(values))
        else:
            raise stream.error("sigma must be pull(...) or dcoeffs(...)")
    elif keyword == "cochain":
        token = stream.peek()
        j = _declared_name(stream, model.patches, "patch")
        k = _declared_name(stream, model.patches, "patch")
        _first_time(stream, token, (j, k), model.cochain,
                    f"cochain {j} {k} is already declared")
        stream.expect("=")
        model.cochain[(j, k)] = _require_real(
            _require_scalar(parser.expression(), stream), stream)
    elif keyword == "hermitian":
        model.hermitian = True
    elif keyword == "polarization":
        name = _new_name(stream, model)
        stream.expect("=")
        stream.expect("span")
        stream.expect("(")
        pairs = [parser.pair()]
        while stream.accept(","):
            pairs.append(parser.pair())
        stream.expect(")")
        model.polarization_decl = (name, tuple(pairs))
    elif keyword == "check":
        while not stream.at_end():
            suite = stream.expect_ident()
            if suite == "all":
                model.checks.extend(s for s in SUITES if s not in model.checks)
                continue
            if suite not in SUITES:
                raise stream.error(f"unknown check suite {suite!r}")
            if suite not in model.checks:
                model.checks.append(suite)
    else:
        raise stream.error(f"unknown statement {keyword!r}")
    if not stream.at_end():
        raise stream.error("trailing tokens after statement")


# ---------------------------------------------------------------------------
# pretty printer


def _text(value) -> str:
    """The DSL text of a value: a scalar, a form or multivector (one term per
    stored coefficient), a vector field or a section."""
    if isinstance(value, Expr):
        return str(value).replace("**", "^")
    if isinstance(value, ComplexExpr):
        if value.im == ZERO:
            return _text(value.re)
        return f"({_text(value.re)}) + i*({_text(value.im)})"
    if isinstance(value, Section):
        return f"({_text(value.X)}, {_text(value.xi)})"
    if isinstance(value, VectorField):
        value = _vector_to_multi(value)
    prefix = "d" if isinstance(value, KForm) else "d_"
    names = value.chart.coord_names
    if not value.coeffs:
        return "0*" + "/\\".join(prefix + n
                                  for n in names[:max(value.degree, 1)])
    return " + ".join(
        f"({_text(value.coeffs[key])})*"
        + "/\\".join(prefix + names[i] for i in key)
        for key in sorted(value.coeffs))


def format_model(model: Model) -> str:
    """Canonical text rendering; reparses to a structurally equal model."""
    chart = model.chart
    lines = [f"chart {chart.name} dim {chart.dim} coords "
             + " ".join(chart.coord_names)
             + (" params " + " ".join(chart.param_names)
                if chart.param_names else "")]
    for keyword, (table, _) in _VALUES.items():
        lines += [f"{keyword} {name} = {_text(value)}"
                  for name, value in getattr(model, table).items()]
    if model.dirac_decl:
        name, kind, args = model.dirac_decl
        lines.append(f"dirac {name} = {kind}({', '.join(args)})")
    if model.complement_decl:
        name, kind, args = model.complement_decl
        if kind == "auto":
            lines.append(f"complement {name} = auto")
        else:
            lines.append(f"complement {name} = sections({', '.join(args)})")
    lines += [f"patch {patch}" for patch in model.patches]
    for (j, k), value in model.transitions.items():
        lines.append(f"transition {j} {k} = {_text(value)}")
    for patch, (kind, payload) in model.sigmas.items():
        inner = ", ".join(_text(value) for value in payload)
        lines.append(f"sigma {patch} = {kind}({inner})")
    for (j, k), value in model.cochain.items():
        lines.append(f"cochain {j} {k} = {_text(value)}")
    if model.hermitian:
        lines.append("hermitian")
    if model.polarization_decl:
        name, pairs = model.polarization_decl
        inner = ", ".join(_text(p) for p in pairs)
        lines.append(f"polarization {name} = span({inner})")
    if model.checks:
        lines.append("check " + " ".join(model.checks))
    return "\n".join(lines) + "\n"
