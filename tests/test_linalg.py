from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan import linalg

from helpers import dense_bareiss_rref, normalised, oracle_kernel, sparse


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


def columns_of(rows):
    """The sparse columns of the dense rows."""
    return [{r: row[c] for r, row in enumerate(rows) if row[c]} for c in range(len(rows[0]))]


def kernel_of(rows):
    """The relation of every column of the dense rows that reduces to zero,
    in column order, normalised: the kernel vector of each free column."""
    echelon = linalg.Echelon()
    return [normalised(z) for z in map(echelon.add, columns_of(rows)) if z is not None]


def kept_columns(rows):
    """The columns of the dense rows that add a pivot: those independent of earlier ones."""
    echelon = linalg.Echelon()
    return [c for c, column in enumerate(columns_of(rows)) if echelon.add(column) is None]


def solve_by_relation(rows, rhs):
    """x with rows @ x = rhs, read as the multiplication model reads it: -rhs
    reduces to zero against the columns of rows and its relation is (u x, u)
    with u > 0, or the system is inconsistent and None is returned."""
    ncols = len(rows[0])
    relation = linalg.Echelon(columns_of(rows)).add({r: -b for r, b in enumerate(rhs) if b})
    if relation is None:
        return None
    assert relation[ncols] > 0
    x = normalised(relation)
    return [x.get(c, Fraction(0)) for c in range(ncols)]


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
    kernel = kernel_of(rows)
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
    solution = solve_by_relation(rows, rhs)
    assert solution is not None
    for row, b in zip(rows, rhs):
        assert sum(a * s for a, s in zip(row, solution)) == b


def test_solve_detects_inconsistency():
    rows = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(4)]]
    assert solve_by_relation(rows, [Fraction(1), Fraction(3)]) is None
    assert oracle_solve(rows, [Fraction(1), Fraction(3)]) is None


def test_rref_shape():
    rows = [
        [Fraction(0), Fraction(2), Fraction(4)],
        [Fraction(1), Fraction(1), Fraction(1)],
        [Fraction(1), Fraction(3), Fraction(5)],
    ]
    # columns c0 = (0, 1, 1) and c1 = (2, 1, 3) are kept, c1 reduced at the
    # highest key to c1 - 3 c0 = (2, -2, 0); the third reduces to zero, and
    # its relation is the kernel vector (1, -2, 1)
    echelon = linalg.Echelon()
    assert [normalised(echelon.add(column)) for column in columns_of(rows)] == [
        None, None, {2: Fraction(1), 0: Fraction(1), 1: Fraction(-2)}]
    assert echelon.columns == {2: ({1: 1, 2: 1}, {0: 1}), 1: ({0: 2, 1: -2}, {1: 1, 0: -3})}


@settings(max_examples=150)
@given(any_matrix)
def test_relations_are_integer_and_positive_at_their_column(rows):
    # only a caller that reads a relation divides it by its own entry
    echelon = linalg.Echelon()
    for index, column in enumerate(columns_of(rows)):
        z = echelon.add(column)
        if z is not None:
            assert all(type(v) is int and v for v in z.values())
            assert max(z) == index and z[index] > 0


@settings(max_examples=150)
@given(any_matrix)
def test_an_echelon_keeps_the_relations_of_the_columns_it_is_built_from(rows):
    columns = columns_of(rows)
    echelon = linalg.Echelon()
    one_at_a_time = {c: z for c, z in enumerate(map(echelon.add, columns)) if z is not None}
    built = linalg.Echelon(columns)
    assert built.relations == one_at_a_time
    # a later add returns its relation and stores nothing
    kept = dict(built.relations)
    for column in columns:
        assert built.add(column) is not None
    assert built.relations == kept


@settings(max_examples=150)
@given(any_matrix)
def test_kernel_vector_is_one_at_its_column_and_killed_by_the_columns(rows):
    columns = columns_of(rows)
    for index, z in linalg.Echelon(columns).relations.items():
        vector = linalg.kernel_vector(z, index)
        assert vector[index] == 1
        assert all(sum(x * columns[c].get(r, 0) for c, x in vector.items()) == 0
                   for r in range(len(rows)))


def test_kernel_vector_divides_to_an_int_where_the_entry_divides():
    vector = linalg.kernel_vector({0: 2, 1: -4, 2: 3}, 0)
    assert vector == {0: 1, 1: -2, 2: Fraction(3, 2)}
    assert [type(x) for x in vector.values()] == [int, int, Fraction]


def test_echelon_add_returns_a_relation_exactly_on_the_span():
    columns = [{0: Fraction(1)}, {1: Fraction(1)}]
    assert normalised(linalg.Echelon(columns).add({0: Fraction(3), 1: Fraction(7)})) == {
        2: Fraction(1), 0: Fraction(-3), 1: Fraction(-7)}
    assert linalg.Echelon([columns[0]]).add({1: Fraction(1)}) is None
    assert normalised(linalg.Echelon([]).add({})) == {0: Fraction(1)}  # the zero column is its own relation


@settings(max_examples=150)
@given(any_matrix)
def test_rref_matches_dense_bareiss_oracle(rows):
    # the kept columns are the pivot columns, the relations the kernel vectors,
    # and each kept column is the combination of the columns its relation says
    _, pivots = dense_bareiss_rref(rows)
    ncols = len(rows[0])
    assert kept_columns(rows) == pivots
    assert kernel_of(rows) == sparse(oracle_kernel(rows, ncols))
    columns = columns_of(rows)
    for column, relation in linalg.Echelon(columns).columns.values():
        combination = {r: sum(x * columns[c].get(r, 0) for c, x in relation.items())
                       for r in range(len(rows))}
        assert combination == {r: column.get(r, 0) for r in range(len(rows))}


@settings(max_examples=150)
@given(any_matrix)
def test_kernel_basis_matches_dense_bareiss_oracle(rows):
    assert kernel_of(rows) == sparse(oracle_kernel(rows, len(rows[0])))


@settings(max_examples=150)
@given(any_matrix, st.data())
def test_solve_particular_matches_dense_bareiss_oracle(rows, data):
    rhs = data.draw(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)).map(Fraction),
                 min_size=len(rows), max_size=len(rows))
    )
    assert solve_by_relation(rows, rhs) == oracle_solve(rows, rhs)


@settings(max_examples=150)
@given(any_matrix)
def test_echelon_add_reports_rank_growth(rows):
    echelon = linalg.Echelon()
    for i, row in enumerate(sparse(rows)):
        grew = naive_rank(rows[: i + 1]) > naive_rank(rows[:i]) if i else bool(row)
        assert (echelon.add(row) is None) == grew
    assert echelon.rank == naive_rank(rows)


def test_echelon_add_refuses_vectors_in_the_span():
    # a vector already in the span is refused, a new direction is kept
    echelon = linalg.Echelon([{0: Fraction(2), 1: Fraction(4)}])
    assert normalised(echelon.add({0: Fraction(-1), 1: Fraction(-2)})) == {1: Fraction(1), 0: Fraction(1, 2)}
    assert echelon.add({0: Fraction(1), 1: Fraction(2), 2: Fraction(1, 3)}) is None
    assert sorted(echelon.columns) == [1, 2]


@settings(max_examples=60, deadline=None)
@given(any_matrix)
def test_rank_and_kernel_match_sympy(rows):
    sympy = pytest.importorskip("sympy")
    ncols = len(rows[0])
    m = sympy.Matrix([[sympy.Rational(c.numerator, c.denominator) for c in row] for row in rows])
    assert linalg.rank(sparse(rows)) == m.rank()
    expected = [[Fraction(int(x.p), int(x.q)) for x in v] for v in m.nullspace()]
    assert kernel_of(rows) == sparse(expected)


@settings(max_examples=150)
@given(any_matrix)
def test_sparse_columns_and_rows_give_the_dense_results(rows):
    nrows, ncols = len(rows), len(rows[0])
    # matrix_of with the dense entries as images: zeros dropped, keys are row numbers
    columns = linalg.matrix_of(({r: row[c] for r, row in enumerate(rows)} for c in range(ncols)),
                               range(nrows))
    assert all(0 not in column.values() for column in columns)
    assert columns == columns_of(rows)
    assert linalg.rank(sparse(rows)) == linalg.rank(columns) == naive_rank(rows)
    assert kernel_of(rows) == sparse(oracle_kernel(rows, ncols))
    for column in columns:
        assert linalg.Echelon(columns).add(column) is not None


@settings(max_examples=150)
@given(any_matrix, st.data())
def test_particular_solution_is_the_last_kernel_vector_of_the_augmented_matrix(rows, data):
    # x solves rows @ x = rhs iff (x, 1) is in the kernel of [rows | -rhs], the
    # relation of -rhs normalised; the multiplication model solves its corrections this way.
    # Independent of the Bareiss oracle: the system is consistent iff the
    # augmented rank equals the rank, and the solution is zero at every free
    # column of rows (the reduced-echelon particular solution).
    rhs = data.draw(
        st.lists(st.sampled_from((0, 0, 1, -1, 2)).map(Fraction),
                 min_size=len(rows), max_size=len(rows))
    )
    solution = solve_by_relation(rows, rhs)
    augmented = [row + [b] for row, b in zip(rows, rhs)]
    assert (solution is not None) == (naive_rank(augmented) == naive_rank(rows))
    if solution is not None:
        for row, b in zip(rows, rhs):
            assert sum(a * x for a, x in zip(row, solution)) == b
        pivots = set(kept_columns(rows))
        assert all(not x for c, x in enumerate(solution) if c not in pivots)
