from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import linalg


def naive_rank(rows):
    """Oracle: plain rational Gaussian elimination."""
    m = [row[:] for row in rows]
    rank = 0
    cols = len(m[0]) if m else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                factor = m[i][c] / m[rank][c]
                m[i] = [x - factor * y for x, y in zip(m[i], m[rank])]
        rank += 1
    return rank


def dense_bareiss_rref(rows):
    """Oracle: dense fraction-free (Bareiss) forward elimination with a
    first-nonzero pivot rule, then rational back-substitution."""
    if not rows or not rows[0]:
        return [], []
    m = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        m.append([int(c * scale) for c in row])
    nr, nc = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, nr):
            # the rescale by piv/prev applies to every row, including rows
            # with a zero pivot-column entry: later exact divisions rely on it
            mic = m[i][c]
            for j in range(c + 1, nc):
                m[i][j] = (piv * m[i][j] - mic * m[r][j]) // prev
            m[i][c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    reduced = [[Fraction(x) / m[i][c] for x in m[i]] for i, c in enumerate(pivots)]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        for k in range(i):
            factor = reduced[k][c]
            reduced[k] = [x - factor * y for x, y in zip(reduced[k], reduced[i])]
    return reduced, pivots


def oracle_kernel(rows, ncols):
    reduced, pivots = dense_bareiss_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return basis


def oracle_solve(rows, rhs):
    ncols = len(rows[0])
    reduced, pivots = dense_bareiss_rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x


matrices = st.integers(1, 5).flatmap(
    lambda nc: st.lists(
        st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=4),
                 min_size=nc, max_size=nc),
        min_size=1,
        max_size=6,
    )
)

# sparse 0/+-1 matrices up to 12x12, the shape of the differential matrices
sign_matrices = st.integers(1, 12).flatmap(
    lambda nc: st.lists(
        st.lists(st.sampled_from((0, 0, 0, 0, 1, -1)).map(Fraction), min_size=nc, max_size=nc),
        min_size=1,
        max_size=12,
    )
)

any_matrix = st.one_of(matrices, sign_matrices)


@settings(max_examples=150)
@given(matrices)
def test_bareiss_rank_matches_naive_elimination(rows):
    assert linalg.rank(rows) == naive_rank(rows)


@settings(max_examples=100)
@given(matrices)
def test_kernel_vectors_are_killed(rows):
    ncols = len(rows[0])
    kernel = linalg.kernel_basis(rows, ncols)
    assert len(kernel) == ncols - linalg.rank(rows)
    for vec in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, vec)) == 0


@settings(max_examples=100)
@given(matrices, st.data())
def test_solve_recovers_consistent_systems(rows, data):
    ncols = len(rows[0])
    x = data.draw(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                 min_size=ncols, max_size=ncols)
    )
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    solution = linalg.solve_particular(rows, rhs)
    assert solution is not None
    for row, b in zip(rows, rhs):
        assert sum(a * s for a, s in zip(row, solution)) == b


def test_solve_detects_inconsistency():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert linalg.solve_particular(rows, [Fraction(1), Fraction(3)]) is None


def test_rref_shape():
    rows = [
        [Fraction(0), Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(5)],
    ]
    reduced, pivots = linalg.rref(rows)
    assert pivots == [0, 1]
    assert reduced[0][:2] == [Fraction(1), Fraction(0)]
    assert reduced[1][:2] == [Fraction(0), Fraction(1)]


def test_in_row_span():
    rows = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert linalg.in_row_span(rows, [Fraction(3), Fraction(7)])
    assert not linalg.in_row_span([rows[0]], [Fraction(0), Fraction(1)])
    assert linalg.in_row_span([], [Fraction(0), Fraction(0)])


@settings(max_examples=150)
@given(any_matrix)
def test_rref_matches_dense_bareiss_oracle(rows):
    assert linalg.rref(rows) == dense_bareiss_rref(rows)


@settings(max_examples=150)
@given(any_matrix)
def test_kernel_basis_matches_dense_bareiss_oracle(rows):
    ncols = len(rows[0])
    assert linalg.kernel_basis(rows, ncols) == oracle_kernel(rows, ncols)


@settings(max_examples=150)
@given(any_matrix, st.data())
def test_solve_particular_matches_dense_bareiss_oracle(rows, data):
    rhs = data.draw(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)).map(Fraction),
                 min_size=len(rows), max_size=len(rows))
    )
    assert linalg.solve_particular(rows, rhs) == oracle_solve(rows, rhs)


@settings(max_examples=150)
@given(any_matrix)
def test_echelon_add_reports_rank_growth(rows):
    echelon = linalg.Echelon()
    for i, row in enumerate(rows):
        grew = naive_rank(rows[: i + 1]) > naive_rank(rows[:i]) if i else any(row)
        assert echelon.add(row) == grew
    assert echelon.rank == naive_rank(rows)


def test_echelon_add_refuses_vectors_in_the_span():
    # a vector already in the span is refused, a new direction is kept
    echelon = linalg.Echelon([[Fraction(2), Fraction(4), Fraction(0)]])
    assert not echelon.add([Fraction(-1), Fraction(-2), Fraction(0)])
    assert echelon.add([Fraction(1), Fraction(2), Fraction(1, 3)])
    assert sorted(echelon.rows) == [0, 2]


@settings(max_examples=60, deadline=None)
@given(any_matrix)
def test_rank_and_kernel_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    assert linalg.rank(rows) == m.rank()
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert linalg.kernel_basis(rows, ncols) == expected


@settings(max_examples=150)
@given(any_matrix)
def test_sparse_columns_and_rows_give_the_dense_results(rows):
    nrows, ncols = len(rows), len(rows[0])
    # matrix_of with the dense entries as images: zeros dropped, keys are row numbers
    columns = linalg.matrix_of(({r: row[c] for r, row in enumerate(rows)} for c in range(ncols)),
                               range(nrows))
    assert all(0 not in column.values() for column in columns)
    sparse = linalg.transpose(columns, nrows)
    assert sparse == [{c: x for c, x in enumerate(row) if x} for row in rows]
    assert linalg.rank(sparse) == linalg.rank(columns) == naive_rank(rows)
    assert linalg.kernel_basis(sparse, ncols) == oracle_kernel(rows, ncols)
    for row in rows:
        assert linalg.in_row_span(sparse, row)


@settings(max_examples=150)
@given(any_matrix, st.data())
def test_particular_solution_is_the_last_kernel_vector_of_the_augmented_matrix(rows, data):
    # x solves rows @ x = rhs iff (x, 1) is in the kernel of [rows | -rhs];
    # the multiplication model solves its correction equations this way
    rhs = data.draw(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)).map(Fraction),
                 min_size=len(rows), max_size=len(rows))
    )
    kernel = linalg.kernel_basis([row + [-b] for row, b in zip(rows, rhs)], len(rows[0]) + 1)
    solution = kernel[-1][:-1] if kernel and kernel[-1][-1] else None
    assert solution == linalg.solve_particular(rows, rhs)
