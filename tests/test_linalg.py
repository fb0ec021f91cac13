from __future__ import annotations

import sympy as sp
from hypothesis import given, settings, strategies as st

from diracq import linalg
from diracq.expr import ComplexExpr, Expr, as_expr, equal, is_zero, symbol

x = symbol("x").tree
k = symbol("k").tree


def E(value) -> Expr:
    return as_expr(value) if not isinstance(value, sp.Expr) else Expr(value)


def apply(columns, vector):
    """``A @ vector`` for the matrix whose columns are given."""
    out = [as_expr(0)] * len(columns[0])
    for col, value in zip(columns, vector):
        out = [acc + entry * value for acc, entry in zip(out, col)]
    return out


def test_solve_with_free_variables_zeroed():
    # the degenerate 4d presymplectic system: solution family has two free slots
    columns = [[E(0), E(1), E(0), E(1)],
               [E(-1), E(0), E(0), E(0)],
               [E(0), E(0), E(0), E(0)],
               [E(-1), E(0), E(0), E(0)]]
    rhs = [Expr(2 * x), Expr(k), E(0), Expr(k)]
    span = linalg.echelon(columns, 4)
    result = linalg.solve(span, rhs)
    assert result.ok
    assert [str(v) for v in result.solution] == ["k", "-2*x", "0", "0"]
    assert span.free_columns == [2, 3]


def test_solve_reports_witness():
    span = linalg.echelon([[E(1), E(1)]], 2)
    result = linalg.solve(span, [E(1), E(2)])
    assert not result.ok
    assert not is_zero(result.witness)


def test_solution_reproduces_rhs_over_function_field():
    columns = [[Expr(x), E(1)], [E(1), Expr(x)]]
    rhs = [Expr(x ** 2 + 1), Expr(2 * x)]
    result = linalg.solve(linalg.echelon(columns, 2), rhs)
    assert result.ok
    for got, b in zip(apply(columns, result.solution), rhs):
        assert equal(got, b)


def test_degeneracy_locus_records_pivots():
    ech = linalg.echelon([[Expr(x), E(0)], [E(0), Expr(x - 1)]], 2)
    locus = {str(p) for p in ech.degeneracy}
    assert "x" in locus
    assert any("x" in entry for entry in locus)


def test_nullspace_basis():
    columns = [[E(1)], [Expr(x)], [E(0)]]
    basis = linalg.echelon(columns, 1).kernel
    assert len(basis) == 2
    for vec in basis:
        assert is_zero(apply(columns, vec)[0])


def test_rank_generic():
    assert linalg.echelon([[Expr(x), E(1)], [Expr(x ** 2), Expr(x)]], 2).rank == 1


def test_complex_solve():
    i = ComplexExpr(as_expr(0), as_expr(1))
    one = ComplexExpr.of(1)
    columns = [[one, i], [i, one]]
    rhs = [ComplexExpr.of(2), i * 2]
    span = linalg.echelon(columns, 2)
    result = linalg.solve(span, rhs)
    assert result.ok
    for b_index, b in enumerate(rhs):
        acc = ComplexExpr.of(0)
        for col, value in zip(columns, result.solution):
            acc = acc + col[b_index] * value
        diff = acc - b
        assert is_zero(diff.re) and is_zero(diff.im)


def test_mixed_columns_match_wrapped_columns():
    """Real and complex entries mix in one elimination; the result is the
    one for the same columns with every entry made complex."""
    i = ComplexExpr(as_expr(0), as_expr(1))
    phased = ComplexExpr(E(1), E(0), Expr(x) / 3)
    a = [E(1), i, Expr(x), phased]
    b = [i * Expr(x), E(2), phased, E(0)]
    c = [ai + bi * Expr(k) for ai, bi in zip(a, b)]      # c = a + k b
    d = [E(0), Expr(x) * i, E(1), E(0)]
    mixed = [a, b, c, d]
    wrapped = [[ComplexExpr.of(e) for e in col] for col in mixed]
    one, other = linalg.echelon(mixed, 4), linalg.echelon(wrapped, 4)
    assert one.rank == other.rank == 3
    assert one.pivots == other.pivots
    assert len(one.kernel) == len(other.kernel) == 1
    for u, v in zip(one.kernel, other.kernel):
        assert all(equal(p, q) for p, q in zip(u, v))
        assert all(is_zero(e) for e in apply(mixed, u))
    rhs = [e * 2 - f for e, f in zip(a, d)]
    for ech in (one, other):
        solution = linalg.solve(ech, rhs).solution
        assert all(equal(e, f) for e, f in zip(apply(mixed, solution), rhs))


def test_cokernel_annihilates_the_span():
    columns = [[Expr(x), E(1), E(0)], [E(0), Expr(x), E(1)]]
    span = linalg.echelon(columns, 3)
    assert len(span.cokernel) == 1
    for col in columns:
        pairing = sum((t * c for t, c in zip(span.cokernel[0], col)), E(0))
        assert is_zero(pairing)


def test_empty_span_witnesses_a_nonzero_rhs():
    span = linalg.echelon([], 2)
    assert span.rank == 0 and span.kernel == ()
    assert linalg.solve(span, [E(0), E(0)]).solution == []
    assert str(linalg.solve(span, [E(0), Expr(x)]).witness) == "x"


# ---------------------------------------------------------------------------
# one factorization against sympy


_entries = st.one_of(
    st.integers(-3, 3).map(sp.Integer),
    st.tuples(st.integers(-2, 2), st.integers(-2, 2), st.integers(0, 1))
    .map(lambda c: c[0] + c[1] * x + c[2] * x ** 2))


@st.composite
def _systems(draw):
    height = draw(st.integers(1, 4))
    ncols = draw(st.integers(1, 4))
    columns = [[draw(_entries) for _ in range(height)] for _ in range(ncols)]
    if ncols >= 2 and draw(st.booleans()):
        # a rank-deficient set: the last column combines the others
        weights = [draw(st.integers(-2, 2)) for _ in range(ncols - 1)]
        columns[-1] = [sp.expand(sum(w * col[r]
                                     for w, col in zip(weights, columns)))
                       for r in range(height)]
    ys = [[draw(_entries) for _ in range(ncols)] for _ in range(2)]
    free_rhs = [[draw(_entries) for _ in range(height)] for _ in range(2)]
    return columns, ys, free_rhs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(_systems())
def test_one_factorization_solves_many(system):
    columns, ys, free_rhs = system
    height = len(columns[0])
    matrix = sp.Matrix(height, len(columns),
                       lambda r, c: columns[c][r])
    rank = matrix.rank(simplify=True)
    span = linalg.echelon([[Expr(e) for e in col] for col in columns], height)
    assert span.rank == rank
    assert len(span.kernel) == len(matrix.nullspace(simplify=True))
    for vec in span.kernel:
        product = matrix * sp.Matrix([v.node for v in vec])
        assert all(sp.cancel(e) == 0 for e in product)

    consistent = [list(matrix * sp.Matrix(y)) for y in ys]
    for b in consistent + free_rhs:
        result = linalg.solve(span, [Expr(sp.expand(e)) for e in b])
        if matrix.row_join(sp.Matrix(b)).rank(simplify=True) > rank:
            assert not result.ok
            assert not is_zero(result.witness)
            continue
        assert result.ok
        solution = sp.Matrix([v.node for v in result.solution])
        assert all(sp.cancel(e) == 0 for e in matrix * solution - sp.Matrix(b))
        assert all(result.solution[c].node == 0 for c in span.free_columns)
