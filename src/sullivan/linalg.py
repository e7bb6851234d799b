"""Exact rational linear algebra on one incremental sparse integer column echelon.

An `Echelon` holds the span of the columns added to it, each kept column a
sparse integer `{key: int}` dict keyed by pivot, its highest key.  `add`
scales an incoming rational column to integers once, by the lcm of its
denominators, and reduces it fraction-free (one integer combination per
step, as in Bareiss elimination) against the kept columns at its highest
key, until that key is a new pivot or the column vanishes.  Every column
carries its relation: the integer combination of the added columns that it
is, the scale folded in.  A column that adds a pivot is kept, made primitive
with its relation, and `add` returns None.  A column that reduces to zero is
dropped, and `add` returns its integer relation z, with z[index] > 0, where
index counts the columns added before it.  An echelon built from columns
keeps those relations as `relations[index]`; a later `add` stores nothing.
z lives on that column and on kept columns only, so `kernel_vector(z,
index)`, z / z[index], is the reduced-echelon kernel vector of that column
in the matrix of all columns added so far, whatever the order of their keys.
It is the one division of the elimination, and it imports `fractions` only
when some entry does not divide, so a run whose relations all divide
exactly never loads it.

The one vector type is the sparse `{key: coefficient}` dict, zeros not
stored.  Every linear map becomes a matrix in one place, `coordinates`: one
sparse column per source element, rows indexed by any hashable basis keys,
built a column at a time or all at once by `matrix_of`.  A caller tests a
vector against a span by adding it to that span's `Echelon`.  A linear
system A x = b is consistent iff b lies in the span of the columns of A.
An echelon seeded with -b as column 0, then given the columns of A in
order, first returns a relation z with z[0] != 0 at the first c_k with b in
span(c_1 .. c_k); `kernel_vector(z, 0)` is then (1, x) with A x = b, the
reduced-echelon solution over all of A.  So a solver adds columns only
until one closes b.
"""

from __future__ import annotations

from math import gcd, lcm
from numbers import Rational
from typing import Callable, Hashable, Iterable, Mapping, Sequence

SparseVector = dict[int, Rational]
IntegerVector = dict[int, int]
Image = Mapping[Hashable, Rational]


def coordinates(target_basis: Iterable[Hashable]) -> Callable[[Image], SparseVector]:
    """The map from an image to its sparse column `{position of key in target_basis: coefficient}`.

    An image maps basis keys to coefficients (an `Element.terms`, say); a key
    outside the basis raises KeyError, and zero coefficients are not stored.
    """
    index = {key: i for i, key in enumerate(target_basis)}
    return lambda image: {index[key]: c for key, c in image.items() if c}


def matrix_of(images: Iterable[Image], target_basis: Iterable[Hashable]) -> list[SparseVector]:
    """One sparse column per image, its `coordinates` in target_basis."""
    return list(map(coordinates(target_basis), images))


def _combine(vector: IntegerVector, a: int, other: IntegerVector, b: int) -> None:
    """vector = a * vector - b * other, in place, without zeros."""
    if a != 1:
        for k in vector:
            vector[k] *= a
    for k, v in other.items():
        x = vector.get(k, 0) - b * v
        if x:
            vector[k] = x
        else:
            del vector[k]


class Echelon:
    """Column echelon with relations: `columns[pivot] = (column, relation)`,
    and `relations[index]` for each column it was built from that reduces to zero."""

    def __init__(self, columns: Iterable[SparseVector] = ()) -> None:
        self.columns: dict[int, tuple[IntegerVector, IntegerVector]] = {}
        self.relations: dict[int, IntegerVector] = {}
        self.added = 0
        for index, column in enumerate(columns):
            z = self.add(column)
            if z is not None:
                self.relations[index] = z

    @property
    def rank(self) -> int:
        return len(self.columns)

    def add(self, column: SparseVector) -> IntegerVector | None:
        """Reduce `column`; keep it and return None iff it adds a pivot, else
        return its integer relation z to the kept columns, with z[index] > 0."""
        index = self.added
        self.added += 1
        scale = lcm(*[c.denominator for c in column.values()])
        residue = {k: c.numerator * (scale // c.denominator) for k, c in column.items() if c}
        relation = {index: scale}
        while residue:
            key = max(residue)
            kept = self.columns.get(key)
            if kept is None:
                g = gcd(*residue.values(), *relation.values())
                if g != 1:
                    residue = {k: v // g for k, v in residue.items()}
                    relation = {k: v // g for k, v in relation.items()}
                self.columns[key] = (residue, relation)
                return None
            pivot_column, pivot_relation = kept
            a, b = pivot_column[key], residue[key]
            g = gcd(a, b) if a > 0 else -gcd(a, b)  # a // g > 0: a pivot entry -1 rescales nothing
            a, b = a // g, b // g
            _combine(residue, a, pivot_column, b)
            _combine(relation, a, pivot_relation, b)
        return relation


def kernel_vector(z: IntegerVector, index: int) -> SparseVector:
    """The relation z of column `index` divided by z[index]: that column's
    reduced-echelon kernel vector.  A quotient that is an integer stays an
    `int`; a `Fraction` is made only where z[index] does not divide."""
    d = z[index]
    if all(x % d == 0 for x in z.values()):
        return {c: x // d for c, x in z.items()}
    from fractions import Fraction

    return {c: Fraction(x, d) if x % d else x // d for c, x in z.items()}


def rank(rows: Sequence[SparseVector]) -> int:
    """The rank of a matrix given by its sparse rows, or as well by its columns."""
    return Echelon(rows).rank
