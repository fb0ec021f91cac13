"""diracq: exact symbolic calculus for Dirac structures on coordinate charts.

Importing the package builds a long-lived heap: diracq's own modules and
fields.  It does not import sympy or mpmath; a sympy tree, or evaluating
``pi`` or an atom, imports them on first use.  The cyclic garbage collector would walk that
heap again and again while it grows, and once more at interpreter exit, and
it would never find garbage there.  So the import
runs with the collector off and then moves everything alive at that point to
the permanent generation (``gc.freeze()``), which no later collection walks
and which exit neither collects nor frees.  The caller's collector state is
put back afterwards, also when the import fails: a collector that was off
stays off.

One side effect: objects the caller already holds when diracq is first
imported are frozen as well and are never collected.  ``gc.unfreeze()``
returns every frozen object to the collector.
"""

import gc

_collecting = gc.isenabled()
gc.disable()
try:
    from .expr import (
        ComplexExpr,
        Expr,
        ExprError,
        Point,
        SingularPointError,
        UnknownSymbolError,
        equal,
        evaluate,
        differentiate,
        normalize,
    )
    from .chart import (
        AlphaDensity,
        Chart,
        KForm,
        KVector,
        VectorField,
        contravariant_derivative,
        exterior_derivative,
        interior_product,
        lie_derivative_density,
        lie_derivative_form,
    )
    gc.freeze()
finally:
    if _collecting:
        gc.enable()
    del _collecting

__version__ = "0.1.0"
