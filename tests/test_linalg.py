from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import linalg

from helpers import dense_bareiss_rref, oracle_kernel, sparse


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


def oracle_solve(rows, rhs):
    ncols = len(rows[0])
    reduced, pivots = dense_bareiss_rref([row + [b] for row, b in zip(rows, rhs)])
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = reduced[i][ncols]
    return x


def kernel_of(rows, ncols):
    """The kernel vector of every free column of the sparse rows, ascending."""
    echelon = linalg.Echelon(rows)
    return echelon.kernel_vectors(f for f in range(ncols) if f not in echelon.rows)


def solve_by_kernel(rows, rhs):
    """x with rows @ x = rhs, read as the multiplication model reads it: the
    last column of [rows | -rhs] is free and (x, 1) is its kernel vector, or
    the system is inconsistent and None is returned."""
    ncols = len(rows[0])
    echelon = linalg.Echelon(sparse([row + [-b] for row, b in zip(rows, rhs)]))
    if ncols in echelon.rows:
        return None
    (solution,) = echelon.kernel_vectors([ncols])
    return [solution.get(c, Fraction(0)) for c in range(ncols)]


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
    assert linalg.rank(sparse(rows)) == naive_rank(rows)


@settings(max_examples=100)
@given(matrices)
def test_kernel_vectors_are_killed(rows):
    ncols = len(rows[0])
    kernel = kernel_of(sparse(rows), ncols)
    assert len(kernel) == ncols - naive_rank(rows)
    _, pivots = dense_bareiss_rref(rows)
    free = [f for f in range(ncols) if f not in pivots]
    assert len(kernel) == len(free)
    for f, vec in zip(free, kernel):
        assert 0 not in vec.values()  # no stored zeros
        assert vec[f] == 1
        assert [c for c in free if c in vec] == [f]  # no other free column
        for row in rows:
            assert sum(row[c] * x for c, x in vec.items()) == 0


@settings(max_examples=100)
@given(matrices, st.data())
def test_solve_recovers_consistent_systems(rows, data):
    ncols = len(rows[0])
    x = data.draw(
        st.lists(st.fractions(min_value=-3, max_value=3, max_denominator=3),
                 min_size=ncols, max_size=ncols)
    )
    rhs = [sum(a * b for a, b in zip(row, x)) for row in rows]
    solution = solve_by_kernel(rows, rhs)
    assert solution is not None
    for row, b in zip(rows, rhs):
        assert sum(a * s for a, s in zip(row, solution)) == b


def test_solve_detects_inconsistency():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_by_kernel(rows, [Fraction(1), Fraction(3)]) is None
    assert oracle_solve(rows, [Fraction(1), Fraction(3)]) is None


def test_rref_shape():
    rows = [
        [Fraction(0), Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(5)],
    ]
    echelon = linalg.Echelon(sparse(rows))
    assert echelon.kernel_vectors([2]) == [{2: Fraction(1), 0: Fraction(1), 1: Fraction(-2)}]
    assert echelon.rows == {0: {0: 1, 2: -1}, 1: {1: 1, 2: 2}}  # reduced by kernel_vectors


def test_echelon_add_is_false_exactly_on_the_row_span():
    rows = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert not linalg.Echelon(rows).add({0: Fraction(3), 1: Fraction(7)})
    assert linalg.Echelon([rows[0]]).add({1: Fraction(1)})
    assert not linalg.Echelon([]).add({})


@settings(max_examples=150)
@given(any_matrix)
def test_rref_matches_dense_bareiss_oracle(rows):
    reduced, pivots = dense_bareiss_rref(rows)
    ncols = len(rows[0])
    echelon = linalg.Echelon(sparse(rows))
    assert sorted(echelon.rows) == pivots
    assert echelon.kernel_vectors(f for f in range(ncols) if f not in pivots) == sparse(oracle_kernel(rows, ncols))
    echelon.reduce()
    unit_rows = {p: {k: Fraction(v, row[p]) for k, v in row.items()} for p, row in echelon.rows.items()}
    assert unit_rows == dict(zip(pivots, sparse(reduced)))


@settings(max_examples=150)
@given(any_matrix)
def test_kernel_basis_matches_dense_bareiss_oracle(rows):
    ncols = len(rows[0])
    assert kernel_of(sparse(rows), ncols) == sparse(oracle_kernel(rows, ncols))


@settings(max_examples=150)
@given(any_matrix, st.data())
def test_solve_particular_matches_dense_bareiss_oracle(rows, data):
    rhs = data.draw(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)).map(Fraction),
                 min_size=len(rows), max_size=len(rows))
    )
    assert solve_by_kernel(rows, rhs) == oracle_solve(rows, rhs)


@settings(max_examples=150)
@given(any_matrix)
def test_echelon_add_reports_rank_growth(rows):
    echelon = linalg.Echelon()
    for i, row in enumerate(sparse(rows)):
        grew = naive_rank(rows[: i + 1]) > naive_rank(rows[:i]) if i else bool(row)
        assert echelon.add(row) == grew
    assert echelon.rank == naive_rank(rows)


def test_echelon_add_refuses_vectors_in_the_span():
    # a vector already in the span is refused, a new direction is kept
    echelon = linalg.Echelon([{0: Fraction(2), 1: Fraction(4)}])
    assert not echelon.add({0: Fraction(-1), 1: Fraction(-2)})
    assert echelon.add({0: Fraction(1), 1: Fraction(2), 2: Fraction(1, 3)})
    assert sorted(echelon.rows) == [0, 2]


@settings(max_examples=60, deadline=None)
@given(any_matrix)
def test_rank_and_kernel_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    assert linalg.rank(sparse(rows)) == m.rank()
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert kernel_of(sparse(rows), ncols) == sparse(expected)


@settings(max_examples=150)
@given(any_matrix)
def test_sparse_columns_and_rows_give_the_dense_results(rows):
    nrows, ncols = len(rows), len(rows[0])
    # matrix_of with the dense entries as images: zeros dropped, keys are row numbers
    columns = linalg.matrix_of(({r: row[c] for r, row in enumerate(rows)} for c in range(ncols)),
                               range(nrows))
    assert all(0 not in column.values() for column in columns)
    sparse_rows = linalg.transpose(columns, nrows)
    assert sparse_rows == sparse(rows)
    assert linalg.rank(sparse_rows) == linalg.rank(columns) == naive_rank(rows)
    assert kernel_of(sparse_rows, ncols) == sparse(oracle_kernel(rows, ncols))
    for row in sparse_rows:
        assert not linalg.Echelon(sparse_rows).add(row)


@settings(max_examples=150)
@given(any_matrix, st.data())
def test_particular_solution_is_the_last_kernel_vector_of_the_augmented_matrix(rows, data):
    # x solves rows @ x = rhs iff (x, 1) is in the kernel of [rows | -rhs];
    # the multiplication model solves its correction equations this way.
    # Independent of the Bareiss oracle: the system is consistent iff the
    # augmented rank equals the rank, and the solution is zero at every free
    # column of rows (the reduced-echelon particular solution).
    rhs = data.draw(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)).map(Fraction),
                 min_size=len(rows), max_size=len(rows))
    )
    solution = solve_by_kernel(rows, rhs)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    assert (solution is not None) == (naive_rank(augmented) == naive_rank(rows))
    if solution is not None:
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, solution)) == b
        pivots = set(linalg.Echelon(sparse(rows)).rows)
        assert all(not x for c, x in enumerate(solution) if c not in pivots)
