"""Exact rational cohomology of a model in a degree window.

A window holds monomial bases for degrees 0..N+1 and each differential
d^n as the sparse columns `linalg.matrix_of` builds, from assembly on.
Assembly feeds `on_word` of the differential (or of a chain map) straight to
`matrix_of`, so no `Element` stands between d and a matrix column.
b_N needs the degree-(N+1) piece, so the window extends one degree past
the request.  `DegreeWindowComplex` is the one complex type: Betti numbers
and quasi-isomorphism verdicts (on full windows, or on indecomposables as a
window over one-letter generator words) all read it.  The indecomposables
V of a Sullivan algebra carry the linear part of d, which is the one-letter
part of `on_word` on one-letter words; a chain map's linear part is read the
same way.  Kernels and representatives are sparse; no result is dense
except `matrix(n)`, which writes a differential out for inspection.

A window degree is eliminated once, in `DegreeWindowComplex.cocycles(n)`.
Forward elimination of the rows of d^n gives its free columns F.  The
reduced-echelon kernel vector z_f of a free column f is 1 at f and zero at
every other free column, so a cocycle is fixed by its free coordinates and
H^n is Q^F modulo the boundaries cut to F.  Those (the columns of d^(n-1))
are reduced with each pivot at its highest free column; the classes are the
z_f whose f is no pivot, and only they are built.  Every reader tests
cocycles (images, products) by extending that echelon.  All ranks are exact
(see linalg); the report is a deterministic reduction over independent
degrees.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import DEFAULT_BASIS_CAP, Element, FreeGradedAlgebra, Word, word_length
from .calculus import CDGA, Morphism, _sum_over_words, check_chain_map


class Cocycles(NamedTuple):
    """One window degree, eliminated once: the classes {z_f} ascending, the
    free columns, and the boundaries restricted to the free columns, free
    column f keyed -f so that a pivot is a highest free column."""

    classes: list[linalg.SparseVector]
    free: frozenset[int]
    boundaries: linalg.Echelon

    def add(self, cocycle: linalg.SparseVector) -> bool:
        """Extend the boundary echelon by a cocycle; True iff its class is new."""
        return self.boundaries.add({-c: x for c, x in cocycle.items() if c in self.free})


class DegreeWindowComplex(NamedTuple):
    """Bases for degrees 0..max_degree+1 and each d^n as sparse columns.

    `columns[n][c]` is the differential of the c-th degree-n basis word, as
    a sparse column `{row: coefficient}` over the degree-(n+1) basis, so the
    columns of d^(n-1) are also the boundary vectors in degree n.
    """

    model: CDGA
    max_degree: int
    bases: tuple[tuple[Word, ...], ...]
    columns: tuple[tuple[linalg.SparseVector, ...], ...]

    def dim(self, n: int) -> int:
        if 0 <= n <= self.max_degree + 1:
            return len(self.bases[n])
        return 0

    def matrix(self, n: int) -> list[list[Fraction]]:
        """d^n as dense rows (degree n+1 rows by degree n columns)."""
        if 0 <= n <= self.max_degree:
            return [[col.get(r, Fraction(0)) for col in self.columns[n]]
                    for r in range(self.dim(n + 1))]
        return []

    def cocycles(self, n: int) -> Cocycles:
        """The free columns of d^n, the classes, and the boundary echelon."""
        echelon = linalg.Echelon(linalg.transpose(self.columns[n], self.dim(n + 1)))
        free = frozenset(range(self.dim(n))).difference(echelon.rows)
        boundaries = linalg.Echelon({-c: x for c, x in column.items() if c in free}
                                    for column in (self.columns[n - 1] if n else ()))
        classes = echelon.kernel_vectors(f for f in sorted(free) if -f not in boundaries.rows)
        return Cocycles(classes, free, boundaries)


def _degreewise(image, sources, targets) -> tuple[tuple[linalg.SparseVector, ...], ...]:
    """`matrix_of` in each degree: the image of every source word over the target basis."""
    return tuple(
        tuple(linalg.matrix_of(map(image, source), target))
        for source, target in zip(sources, targets)
    )


def assemble_window(model: CDGA, max_degree: int, cap: int = DEFAULT_BASIS_CAP) -> DegreeWindowComplex:
    """Monomial bases and differential matrices for degrees 0..max_degree+1."""
    algebra = model.algebra
    bases = tuple(algebra.basis_in_degree(n, cap=cap) for n in range(max_degree + 2))
    columns = _degreewise(model.differential.on_word, bases, bases[1:])
    return DegreeWindowComplex(model, max_degree, bases, columns)


class CohomologyReport(NamedTuple):
    """Betti numbers with cocycle representatives for degrees 0..len(betti) - 1."""

    betti: tuple[int, ...]
    representatives: tuple[tuple[Element, ...], ...]


def betti(model: CDGA, max_degree: int, cap: int = DEFAULT_BASIS_CAP) -> CohomologyReport:
    window = assemble_window(model, max_degree, cap=cap)
    return betti_of_window(window)


def betti_of_window(window: DegreeWindowComplex) -> CohomologyReport:
    algebra = window.model.algebra
    reps = []
    rank_below = 0  # rank d^(n-1), read from the forward elimination of degree n-1
    for n in range(window.max_degree + 1):
        basis = window.bases[n]
        cocycles = window.cocycles(n)
        assert len(cocycles.classes) == len(cocycles.free) - rank_below, n
        rank_below = len(basis) - len(cocycles.free)
        reps.append(tuple(Element(algebra, {basis[c]: z[c] for c in sorted(z)})
                          for z in cocycles.classes))
    return CohomologyReport(tuple(map(len, reps)), tuple(reps))


# -- quasi-isomorphism verdicts -----------------------------------------------------


class DegreeVerdict(NamedTuple):
    degree: int
    dim_h_source: int
    dim_h_target: int
    rank_h_map: int

    @property
    def isomorphism(self) -> bool:
        return self.rank_h_map == self.dim_h_source == self.dim_h_target


class QuasiIsoReport(NamedTuple):
    per_degree: tuple[DegreeVerdict, ...]

    @property
    def is_quasi_iso(self) -> bool:
        return all(v.isomorphism for v in self.per_degree)


def _verdicts(source: DegreeWindowComplex, target: DegreeWindowComplex,
              on_word, max_degree: int) -> QuasiIsoReport:
    """Ranks of H(m) in degrees 0..max_degree; on_word is m on a source word.
    Only the source classes are mapped; their images extend the target's
    boundary echelon."""
    verdicts = []
    for n in range(max_degree + 1):
        classes, target_n = source.cocycles(n).classes, target.cocycles(n)
        basis = source.bases[n]
        images = (_sum_over_words(on_word, {basis[c]: x for c, x in z.items()}) for z in classes)
        rank_h = sum(map(target_n.add, linalg.matrix_of(images, target.bases[n])))
        verdicts.append(DegreeVerdict(n, len(classes), len(target_n.classes), rank_h))
    return QuasiIsoReport(tuple(verdicts))


def _require_chain_map(source: CDGA, target: CDGA, m: Morphism) -> None:
    failure = check_chain_map(m, source.differential, target.differential)
    if failure is not None:
        raise ValueError(f"not a chain map at {failure[0].name}: differs by {failure[1]}")


def quasi_iso_check(source: CDGA, target: CDGA, m: Morphism, max_degree: int,
                    cap: int = DEFAULT_BASIS_CAP) -> QuasiIsoReport:
    """Per-degree injectivity and surjectivity of H(m) for degrees <= max_degree."""
    _require_chain_map(source, target, m)
    ws = assemble_window(source, max_degree, cap=cap)
    wt = assemble_window(target, max_degree, cap=cap)
    return _verdicts(ws, wt, m.on_word, max_degree)


def _generator_words(algebra: FreeGradedAlgebra, max_degree: int) -> tuple[tuple[Word, ...], ...]:
    """The one-letter word of each generator, grouped by degree 0..max_degree."""
    words: list[list[Word]] = [[] for _ in range(max_degree + 1)]
    for i, g in enumerate(algebra.generators):
        if g.degree <= max_degree:
            words[g.degree].append(((i, 1),))
    return tuple(tuple(ws) for ws in words)


def _linear_part(on_word):
    """word -> the one-letter words of on_word(word): on a generator's word,
    the linear part of a derivation or of a morphism."""
    return lambda word: {w: c for w, c in on_word(word).items() if word_length(w) == 1}


def _indecomposables_complex(model: CDGA, max_degree: int) -> DegreeWindowComplex:
    """The indecomposables complex as a window over one-letter generator words."""
    bases = _generator_words(model.algebra, max_degree + 1)
    linear = _linear_part(model.differential.on_word)
    return DegreeWindowComplex(model, max_degree, bases, _degreewise(linear, bases, bases[1:]))


def quasi_iso_via_indecomposables(source: CDGA, target: CDGA, m: Morphism) -> QuasiIsoReport:
    """Quasi-isomorphism verdict computed on the indecomposables complexes,
    up to the top generator degree of either side.

    For morphisms of Sullivan models this decides quasi-isomorphism of m
    itself, while only ever eliminating matrices indexed by generators.
    """
    _require_chain_map(source, target, m)
    degrees = [g.degree for g in source.algebra.generators]
    degrees += [g.degree for g in target.algebra.generators]
    max_degree = max(degrees, default=0)
    qs = _indecomposables_complex(source, max_degree)
    qt = _indecomposables_complex(target, max_degree)
    return _verdicts(qs, qt, _linear_part(m.on_word), max_degree)


# -- derived reports -------------------------------------------------------------------


def h_algebra_generator_counts(model: CDGA, max_degree: int,
                               cap: int = DEFAULT_BASIS_CAP) -> tuple[int, ...]:
    """Per-degree count of algebra generators of H* visible in the window.

    Degree n generators are classes independent of boundaries and of
    products of lower-degree classes; degree 0 reports 0 (the unit).  The
    kept products and kept cocycles of a degree form a basis of H^n.
    """
    window = assemble_window(model, max_degree, cap=cap)
    multiply = model.algebra.multiply_terms
    counts = [0]
    classes: list[list[dict[Word, Fraction]]] = [[]]  # term dicts of a basis of H^n
    for n in range(1, max_degree + 1):
        cocycles = window.cocycles(n)
        basis = window.bases[n]
        products = [multiply(left, right)
                    for p in range(1, n) for left in classes[p] for right in classes[n - p]]
        kept = [t for t, v in zip(products, linalg.matrix_of(products, basis)) if cocycles.add(v)]
        generators = [{basis[c]: x for c, x in z.items()} for z in cocycles.classes if cocycles.add(z)]
        counts.append(len(generators))
        classes.append(kept + generators)
    return tuple(counts)
