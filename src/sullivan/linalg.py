"""Exact rational linear algebra on one incremental sparse integer echelon.

An `Echelon` holds a row space as primitive integer rows keyed by pivot
column, each row a sparse `{column: int}` dict whose lowest column is its
pivot.  `add` scales an incoming rational row to integers once, reduces it
fraction-free (one integer combination per step, as in Bareiss elimination)
against the stored rows at its lowest column until that column is a new
pivot or the row vanishes, divides out the gcd, and keeps the row iff a
residue remains; the return value says whether the rank grew.  `reduce`
back-substitutes to reduced echelon form, which is unique, so `rref`,
`kernel_basis` and `solve_particular` do not depend on row order.

Every linear map becomes a matrix in one place, `matrix_of`: one sparse
column `{row: Fraction}` per source element, rows indexed by any hashable
basis keys.  Rows given to `Echelon`, `rank`, `kernel_basis` and
`in_row_span` may be dense lists of Fractions or such sparse dicts;
`_sparse_integer_row` reads both.  `rref` and `solve_particular` take dense
rows, and every result (RREF rows, kernel vectors, solutions) is dense.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

Row = list[Fraction]
Matrix = list[Row]
SparseVector = dict[int, Fraction]
AnyRow = Sequence[Fraction] | SparseVector  # dense, or sparse {col: value}
SparseRow = dict[int, int]


def matrix_of(images: Iterable[Mapping[Hashable, Fraction]],
              target_basis: Sequence[Hashable]) -> list[SparseVector]:
    """One sparse column per image: `{position of key in target_basis: coefficient}`.

    An image maps basis keys to coefficients (an `Element.terms`, say); a key
    outside the basis raises KeyError, and zero coefficients are not stored.
    """
    index = {key: i for i, key in enumerate(target_basis)}
    return [{index[key]: c for key, c in image.items() if c} for image in images]


def transpose(columns: Iterable[SparseVector], nrows: int) -> list[SparseVector]:
    """The `nrows` sparse rows of the matrix with the given sparse columns."""
    rows: list[SparseVector] = [{} for _ in range(nrows)]
    for c, column in enumerate(columns):
        for r, v in column.items():
            rows[r][c] = v
    return rows


def _sparse_integer_row(row: AnyRow) -> SparseRow:
    """A dense or sparse rational row, scaled to a sparse integer row."""
    items = row.items() if isinstance(row, dict) else enumerate(row)
    entries = {j: c for j, c in items if c}
    scale = lcm(*(c.denominator for c in entries.values())) if entries else 1
    return {j: c.numerator * (scale // c.denominator) for j, c in entries.items()}


def _eliminate(row: SparseRow, pivot_row: SparseRow, col: int) -> None:
    """Clear `row[col]` in place by an integer combination with `pivot_row`."""
    a, b = pivot_row[col], row[col]
    g = gcd(a, b)
    a, b = a // g, b // g
    if a != 1:
        for k in row:
            row[k] *= a
    for k, v in pivot_row.items():
        x = row.get(k, 0) - b * v
        if x:
            row[k] = x
        else:
            del row[k]


def _make_primitive(row: SparseRow, pivot: int) -> None:
    g = gcd(*row.values())
    if row[pivot] < 0:
        g = -g
    if g != 1:
        for k in row:
            row[k] //= g


class Echelon:
    """Row echelon basis of a growing row space: `rows[pivot_col] = {col: int}`."""

    def __init__(self, rows: Iterable[AnyRow] = ()) -> None:
        self.rows: dict[int, SparseRow] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: AnyRow) -> bool:
        """Reduce `row` against the basis; keep it and return True iff it adds a pivot."""
        residue = _sparse_integer_row(row)
        while residue:
            col = min(residue)
            pivot_row = self.rows.get(col)
            if pivot_row is None:
                _make_primitive(residue, col)
                self.rows[col] = residue
                return True
            _eliminate(residue, pivot_row, col)
        return False

    def reduce(self) -> None:
        """Bring the basis to reduced echelon form: each pivot column is zero in the other rows."""
        for col in sorted(self.rows, reverse=True):
            row = self.rows[col]
            above = [k for k in row if k != col and k in self.rows]
            for k in above:
                _eliminate(row, self.rows[k], k)
            if above:
                _make_primitive(row, col)

    def reduced_rows(self) -> list[tuple[int, dict[int, Fraction]]]:
        """Reduced echelon form as (pivot, sparse row with a unit pivot), in pivot order."""
        self.reduce()
        out = []
        for col in sorted(self.rows):
            row = self.rows[col]
            lead = row[col]
            out.append((col, {k: Fraction(v, lead) for k, v in row.items()}))
        return out


def rank(rows: Sequence[AnyRow]) -> int:
    return Echelon(rows).rank


def rref(rows: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form over the rationals, of dense rows."""
    nc = len(rows[0]) if rows else 0
    reduced: Matrix = []
    pivots: list[int] = []
    for col, entries in Echelon(rows).reduced_rows():
        dense = [Fraction(0)] * nc
        for k, v in entries.items():
            dense[k] = v
        reduced.append(dense)
        pivots.append(col)
    return reduced, pivots


def kernel_basis(rows: Sequence[AnyRow], ncols: int) -> Matrix:
    """Basis of the null space, one vector per free column, ascending."""
    reduced = Echelon(rows).reduced_rows()
    pivot_set = {col for col, _ in reduced}
    basis = {f: [Fraction(0)] * ncols for f in range(ncols) if f not in pivot_set}
    for f, v in basis.items():
        v[f] = Fraction(1)
    for p, entries in reduced:
        for k, v in entries.items():
            if k != p:
                basis[k][p] = -v
    return list(basis.values())


def solve_particular(rows: Matrix, rhs: Row) -> Row | None:
    """One solution of rows @ x = rhs with free variables set to zero.

    Returns None when the system is inconsistent.  The solution is the
    deterministic reduced-echelon particular solution.
    """
    if not rows:
        return None if any(rhs) else []
    ncols = len(rows[0])
    reduced = Echelon(row + [b] for row, b in zip(rows, rhs)).reduced_rows()
    if reduced and reduced[-1][0] == ncols:
        return None
    x = [Fraction(0)] * ncols
    for p, entries in reduced:
        x[p] = entries.get(ncols, Fraction(0))
    return x


def in_row_span(rows: Sequence[AnyRow], vector: AnyRow) -> bool:
    return not Echelon(rows).add(vector)
