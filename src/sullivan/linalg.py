"""Exact rational linear algebra on one incremental sparse integer echelon.

An `Echelon` holds a row space as primitive integer rows keyed by pivot
column, each row a sparse `{column: int}` dict whose lowest column is its
pivot.  `add` scales an incoming rational row to integers once, reduces it
fraction-free (one integer combination per step, as in Bareiss elimination)
against the stored rows at its lowest column until that column is a new
pivot or the row vanishes, divides out the gcd, and keeps the row iff a
residue remains; the return value says whether the rank grew.  The columns
that are no pivot are free.  `kernel_vectors` back-substitutes to reduced
echelon form, which is unique and so does not depend on row order, and
builds a kernel vector only for the free columns asked for: only those
vectors hold `Fraction`s.

The one vector type is the sparse `{column: Fraction}` dict, zeros not
stored.  Every linear map becomes a matrix in one place, `matrix_of`: one
sparse column per source element, rows indexed by any hashable basis keys.
`Echelon` and `rank` take such sparse rows, and every kernel vector is
sparse; a caller tests a row against a span by extending its `Echelon`.  A
linear system A x = b is consistent iff the last column of [A | -b] is
free, and then its kernel vector is (x, 1).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import Hashable, Iterable, Mapping, Sequence

SparseVector = dict[int, Fraction]
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


def _sparse_integer_row(row: SparseVector) -> SparseRow:
    """A sparse rational row, scaled to a sparse integer row without zeros."""
    entries = {j: c for j, c in row.items() if c}
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

    def __init__(self, rows: Iterable[SparseVector] = ()) -> None:
        self.rows: dict[int, SparseRow] = {}
        for row in rows:
            self.add(row)

    @property
    def rank(self) -> int:
        return len(self.rows)

    def add(self, row: SparseVector) -> bool:
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

    def kernel_vectors(self, free: Iterable[int]) -> list[SparseVector]:
        """The reduced-echelon kernel vector z_f of each given free column f, in order.

        z_f holds 1 at f, 0 at every other free column, and -R[p][f]/R[p][p]
        at each pivot p of the reduced rows R.
        """
        vectors = {f: {f: Fraction(1)} for f in free}
        if not vectors:
            return []
        self.reduce()
        for p, row in self.rows.items():
            for k, v in row.items():
                z = vectors.get(k)
                if z is not None:
                    z[p] = Fraction(-v, row[p])
        return list(vectors.values())


def rank(rows: Sequence[SparseVector]) -> int:
    return Echelon(rows).rank
