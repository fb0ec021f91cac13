"""In-memory span tracer for calls into diracq's public functions.

Every traced function is replaced by a wrapper at each module binding that
holds it (``from .expr import is_zero`` copies the binding into the
importing module), in dataclass instances stored at module level (such as
``linalg.EXPR_FIELD``), and on its class for methods.  ``sympy.cancel`` is
counted only where ``expr`` and ``linalg`` call it, through a private copy of
the sympy namespace in those two modules.

Each span records its name, its parent span, start and end; spans stay in
memory until :meth:`Tracer.summary` aggregates them.  ``sympy.cancel`` and
the sampled branch of ``equal`` are counted and timed without spans, so
their time stays in the self time of the diracq function that called them.
"""

from __future__ import annotations

import dataclasses
import functools
import sys
import time
import types
from array import array

# metric prefix -> (module, attribute path)
TARGETS = {
    "expr.equal": ("diracq.expr", "equal"),
    "expr.normalize": ("diracq.expr", "normalize"),
    "expr.diff": ("diracq.expr", "Expr.diff"),
    "linalg.echelon": ("diracq.linalg", "echelon"),
    "linalg.solve": ("diracq.linalg", "solve"),
    "chart.exterior_derivative": ("diracq.chart", "exterior_derivative"),
    "chart.contravariant_derivative": ("diracq.chart",
                                       "contravariant_derivative"),
    "chart.lie_derivative_form": ("diracq.chart", "lie_derivative_form"),
    "dirac.verify_dirac": ("diracq.dirac", "verify_dirac"),
    "dirac.membership": ("diracq.dirac", "membership"),
    "hamiltonian.hamiltonian_H": ("diracq.hamiltonian", "hamiltonian_H"),
    "hamiltonian.admissible_vector_field": ("diracq.hamiltonian",
                                            "admissible_vector_field"),
    "algebroid.d_A": ("diracq.algebroid", "d_A"),
    "algebroid.homotopy_S": ("diracq.algebroid", "homotopy_S"),
    "prequant.build_prequantization": ("diracq.prequant",
                                       "build_prequantization"),
    "prequant.atlas_validate": ("diracq.prequant", "BundleAtlas.validate"),
    "prequant.prequant_operator": ("diracq.prequant", "prequant_operator"),
    "quantize.polarization_check": ("diracq.quantize", "polarization_check"),
    "quantize.lemma51_residual": ("diracq.quantize", "lemma51_residual"),
    "dsl.parse_model": ("diracq.dsl", "parse_model"),
}
# counted and timed but not spans, so their time stays in the self time of
# the traced function that called them
COUNTED = {"expr.sampled_equal": ("diracq.expr", "_probabilistic_equal")}
CANCEL = "expr.cancel"
CANCEL_MODULES = ("diracq.expr", "diracq.linalg")
TRANSCENDENTAL = "expr.equal.transcendental"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack: list[int] = []
        self.echelon_blocks: set = set()
        self.echelon_calls = 0
        self.counts: dict[str, list] = {}

    # -- recording ----------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, fn, classify=None):
        name_id = self._id(name)
        alt_id = self._id(TRANSCENDENTAL) if classify else -1
        stack = self._stack
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = name_id
            if classify is not None and classify(args):
                sid = alt_id
            index = len(span_name)
            span_name.append(sid)
            span_parent.append(stack[-1] if stack else -1)
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span_end[index] = clock()
                span_start[index] = start
                stack.pop()

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        """Import diracq and rebind every traced function everywhere."""
        import diracq.checks  # noqa: F401  (loads every module)
        import diracq.cli  # noqa: F401
        import sympy

        from diracq.expr import _ATOM_HEADS

        def transcendental(args) -> bool:
            return any(getattr(a, "node", None) is not None
                       and a.node.has(*_ATOM_HEADS) for a in args[:2])

        modules = [m for name, m in sys.modules.items()
                   if name == "diracq" or name.startswith("diracq.")]
        for metric, (module_name, path) in TARGETS.items():
            owner = sys.modules[module_name]
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(owner, cls_name)
                original = cls.__dict__[attr]
                setattr(cls, attr, self.wrap(metric, original))
                continue
            original = getattr(owner, path)
            classify = transcendental if metric == "expr.equal" else None
            if metric == "linalg.echelon":
                wrapped = self._echelon(self.wrap(metric, original))
            else:
                wrapped = self.wrap(metric, original, classify)
            for module in modules:
                _rebind(module, original, wrapped)
        for metric, (module_name, name) in COUNTED.items():
            original = getattr(sys.modules[module_name], name)
            wrapped = self._counter(metric, original)
            for module in modules:
                _rebind(module, original, wrapped)
        cancel = self._counter(CANCEL, sympy.cancel)
        for module_name in CANCEL_MODULES:
            shadow = types.ModuleType("sympy")
            shadow.__dict__.update(sympy.__dict__)
            shadow.cancel = cancel
            sys.modules[module_name].sp = shadow

    def _echelon(self, traced):
        blocks = self.echelon_blocks

        @functools.wraps(traced)
        def counted(matrix, *args, **kwargs):
            self.echelon_calls += 1
            blocks.add(tuple(tuple(row) for row in matrix))
            return traced(matrix, *args, **kwargs)

        return counted

    def _counter(self, name: str, fn):
        tally = self.counts[name] = [0, 0.0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tally[0] += 1
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                tally[1] += clock() - start

        return counted

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per name: calls, inclusive seconds and self seconds (inclusive
        minus the time covered by child spans)."""
        count = len(self.span_name)
        child = [0.0] * count
        for i in range(count):
            parent = self.span_parent[i]
            if parent >= 0:
                child[parent] += self.span_end[i] - self.span_start[i]
        out = {name: {"calls": 0, "s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(count):
            entry = out[self.names[self.span_name[i]]]
            dur = self.span_end[i] - self.span_start[i]
            entry["calls"] += 1
            entry["s"] += dur
            entry["self_s"] += dur - child[i]
        out["linalg.echelon.blocks"] = {"calls": self.echelon_calls,
                                        "distinct": len(self.echelon_blocks)}
        out["spans"] = {"count": count}
        for name, (calls, seconds) in self.counts.items():
            out[name] = {"calls": calls, "s": seconds}
        return out


def _rebind(module, original, wrapped) -> None:
    for key, value in list(vars(module).items()):
        if value is original:
            setattr(module, key, wrapped)
        elif dataclasses.is_dataclass(value) and not isinstance(value, type):
            for f in dataclasses.fields(value):
                if getattr(value, f.name) is original:
                    object.__setattr__(value, f.name, wrapped)
