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
except `matrix(n)`, which writes a differential out for inspection.  All
ranks are exact (see linalg).  A window degree is eliminated in one place,
`DegreeWindowComplex.cocycles(n)`: each reader reads its counts there, then
extends the boundary echelon with what it tests.  Representatives keep a
kernel vector (as it is, not its residue) iff it adds a pivot, so reports
are reproducible.

Per-degree computations are independent; the report is a deterministic
reduction over them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from . import linalg
from .algebra import DEFAULT_BASIS_CAP, Element, FreeGradedAlgebra, Word, word_length
from .calculus import CDGA, Morphism, _sum_over_words, check_chain_map
from .errors import NotACocycle


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

    def cocycles(self, n: int) -> tuple[list[linalg.SparseVector], linalg.Echelon]:
        """The reduced-echelon basis of the degree-n cocycles, and an `Echelon`
        of the boundaries (columns of d^(n-1)): b_n = len(kernel) - rank."""
        rows = linalg.transpose(self.columns[n], self.dim(n + 1))
        return linalg.kernel_basis(rows, self.dim(n)), linalg.Echelon(self.columns[n - 1] if n else ())


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
    """Betti numbers with cocycle representatives for degrees 0..window_valid_to."""

    betti: tuple[int, ...]
    representatives: tuple[tuple[Element, ...], ...]
    window_valid_to: int


def betti(model: CDGA, max_degree: int, cap: int = DEFAULT_BASIS_CAP) -> CohomologyReport:
    window = assemble_window(model, max_degree, cap=cap)
    return betti_of_window(window)


def betti_of_window(window: DegreeWindowComplex) -> CohomologyReport:
    numbers: list[int] = []
    reps: list[tuple[Element, ...]] = []
    algebra = window.model.algebra
    for n in range(window.max_degree + 1):
        kernel, span = window.cocycles(n)
        basis = window.bases[n]
        b_n = len(kernel) - span.rank
        chosen = [
            Element(algebra, {basis[c]: vec[c] for c in sorted(vec)})
            for vec in kernel
            if span.add(vec)
        ]
        if len(chosen) != b_n or b_n < 0:
            raise AssertionError(f"rank bookkeeping failed in degree {n}")
        numbers.append(b_n)
        reps.append(tuple(chosen))
    return CohomologyReport(tuple(numbers), tuple(reps), window.max_degree)


def class_is_nontrivial(model: CDGA, cocycle: Element, cap: int = DEFAULT_BASIS_CAP) -> bool:
    """True when the cocycle is not a coboundary in its degree."""
    if cocycle.is_zero():
        return False
    degree = cocycle.degree()  # raises on non-homogeneous input
    if not model.d(cocycle).is_zero():
        raise NotACocycle(f"d({cocycle}) != 0")
    basis = model.algebra.basis_in_degree(degree, cap=cap)
    below = model.algebra.basis_in_degree(degree - 1, cap=cap)
    boundaries = linalg.matrix_of(map(model.differential.on_word, below), basis)
    (vector,) = linalg.matrix_of([cocycle.terms], basis)
    return linalg.Echelon(boundaries).add(vector)


# -- quasi-isomorphism verdicts -----------------------------------------------------


class DegreeVerdict(NamedTuple):
    degree: int
    dim_h_source: int
    dim_h_target: int
    rank_h_map: int

    @property
    def injective(self) -> bool:
        return self.rank_h_map == self.dim_h_source

    @property
    def surjective(self) -> bool:
        return self.rank_h_map == self.dim_h_target

    @property
    def isomorphism(self) -> bool:
        return self.injective and self.surjective


class QuasiIsoReport(NamedTuple):
    per_degree: tuple[DegreeVerdict, ...]

    @property
    def is_quasi_iso(self) -> bool:
        return all(v.isomorphism for v in self.per_degree)


def _verdicts(source: DegreeWindowComplex, target: DegreeWindowComplex,
              on_word, max_degree: int) -> QuasiIsoReport:
    """Ranks of H(m) in degrees 0..max_degree; on_word is m on a source word.
    Only source cocycles are mapped, after both H dimensions are read."""
    verdicts = []
    for n in range(max_degree + 1):
        kernel_s, span_s = source.cocycles(n)
        kernel_t, span_t = target.cocycles(n)
        h_s, h_t = len(kernel_s) - span_s.rank, len(kernel_t) - span_t.rank
        basis = source.bases[n]
        images = (_sum_over_words(on_word, {basis[c]: x for c, x in vec.items()}) for vec in kernel_s)
        rank_h = sum(span_t.add(v) for v in linalg.matrix_of(images, target.bases[n]))
        verdicts.append(DegreeVerdict(n, h_s, h_t, rank_h))
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
        kernel, span = window.cocycles(n)
        basis = window.bases[n]
        products = [multiply(left, right)
                    for p in range(1, n) for left in classes[p] for right in classes[n - p]]
        kept = [t for t, v in zip(products, linalg.matrix_of(products, basis)) if span.add(v)]
        generators = [{basis[c]: x for c, x in vec.items()} for vec in kernel if span.add(vec)]
        counts.append(len(generators))
        classes.append(kept + generators)
    return tuple(counts)
