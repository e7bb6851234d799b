"""Exact rational cohomology of a model in a degree window.

A window holds monomial bases for degrees 0..N+1 and the differential
matrices between consecutive degrees; b_N needs the degree-(N+1) piece, so
the window extends one degree past the request.  All ranks are exact
(see linalg).  Representative cocycles come from the reduced-echelon kernel
basis: each degree puts its boundary vectors into one `linalg.Echelon`, then
offers the kernel vectors in order and keeps a kernel vector (as it is, not
its residue) iff it adds a pivot, so reports are reproducible.

Per-degree computations are independent; the report is a deterministic
reduction over them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import linalg
from .algebra import Element, FreeGradedAlgebra, Word
from .calculus import (
    CDGA,
    Indecomposables,
    Morphism,
    check_chain_map,
    indecomposables,
    linear_part_of_morphism,
)
from .errors import NotACocycle

DEFAULT_BASIS_CAP = 200_000


def element_coordinates(e: Element, basis: tuple[Word, ...]) -> list[Fraction]:
    index = {w: i for i, w in enumerate(basis)}
    coords = [Fraction(0)] * len(basis)
    for word, coeff in e.terms.items():
        coords[index[word]] = coeff
    return coords


def element_from_coordinates(
    algebra: FreeGradedAlgebra, basis: tuple[Word, ...], coords: list[Fraction]
) -> Element:
    return Element(algebra, {w: c for w, c in zip(basis, coords) if c})


@dataclass(frozen=True)
class DegreeWindowComplex:
    """Bases and differential matrices for degrees 0..max_degree+1."""

    model: CDGA
    max_degree: int
    bases: tuple[tuple[Word, ...], ...]
    matrices: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def dim(self, n: int) -> int:
        if 0 <= n <= self.max_degree + 1:
            return len(self.bases[n])
        return 0

    def matrix(self, n: int) -> linalg.Matrix:
        """d^n as mutable rows (degree n+1 rows by degree n columns)."""
        if 0 <= n <= self.max_degree:
            return [list(row) for row in self.matrices[n]]
        return []

    def boundary_vectors(self, n: int) -> linalg.Matrix:
        """Images of the degree-(n-1) basis monomials inside degree n."""
        if n - 1 < 0 or n - 1 > self.max_degree:
            return []
        mat = self.matrices[n - 1]
        cols = len(self.bases[n - 1])
        return [[mat[r][c] for r in range(len(self.bases[n]))] for c in range(cols)]


def assemble_window(model: CDGA, max_degree: int, cap: int = DEFAULT_BASIS_CAP) -> DegreeWindowComplex:
    """Monomial bases and differential matrices for degrees 0..max_degree+1."""
    algebra = model.algebra
    bases = [algebra.basis_in_degree(n, cap=cap) for n in range(max_degree + 2)]
    matrices = []
    for n in range(max_degree + 1):
        rows = [[Fraction(0)] * len(bases[n]) for _ in bases[n + 1]]
        index = {w: i for i, w in enumerate(bases[n + 1])}
        for col, word in enumerate(bases[n]):
            image = model.d(Element(algebra, {word: Fraction(1)}))
            for w, c in image.terms.items():
                rows[index[w]][col] = c
        matrices.append(tuple(tuple(row) for row in rows))
    return DegreeWindowComplex(model, max_degree, tuple(bases), tuple(matrices))


@dataclass(frozen=True)
class CohomologyReport:
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
        kernel = linalg.kernel_basis(window.matrix(n), window.dim(n))
        span = linalg.Echelon(window.boundary_vectors(n))
        b_n = len(kernel) - span.rank
        chosen = [
            element_from_coordinates(algebra, window.bases[n], vec)
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
    images = []
    for word in below:
        image = model.d(Element(model.algebra, {word: Fraction(1)}))
        if not image.is_zero():
            images.append(element_coordinates(image, basis))
    return not linalg.in_row_span(images, element_coordinates(cocycle, basis))


# -- quasi-isomorphism verdicts -----------------------------------------------------


@dataclass(frozen=True)
class DegreeVerdict:
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


@dataclass(frozen=True)
class QuasiIsoReport:
    per_degree: tuple[DegreeVerdict, ...]

    @property
    def is_quasi_iso(self) -> bool:
        return all(v.isomorphism for v in self.per_degree)


@dataclass(frozen=True)
class _FiniteComplex:
    """A cochain complex window with chosen bases, matrices d[n]: C^n -> C^n+1."""

    dims: tuple[int, ...]
    d: tuple[tuple[tuple[Fraction, ...], ...], ...]

    def dim(self, n: int) -> int:
        return self.dims[n] if 0 <= n < len(self.dims) else 0

    def matrix(self, n: int) -> linalg.Matrix:
        if 0 <= n < len(self.d):
            return [list(row) for row in self.d[n]]
        return []

    def boundary_vectors(self, n: int) -> linalg.Matrix:
        if n - 1 < 0 or n - 1 >= len(self.d):
            return []
        mat = self.d[n - 1]
        return [[mat[r][c] for r in range(self.dim(n))] for c in range(self.dim(n - 1))]


def _verdicts(source: _FiniteComplex, target: _FiniteComplex,
              maps: tuple[tuple[tuple[Fraction, ...], ...], ...], max_degree: int) -> QuasiIsoReport:
    verdicts = []
    for n in range(max_degree + 1):
        kernel_s = linalg.kernel_basis(source.matrix(n), source.dim(n))
        rank_bs = linalg.rank(source.boundary_vectors(n))
        h_s = len(kernel_s) - rank_bs
        span_t = linalg.Echelon(target.boundary_vectors(n))
        h_t = (target.dim(n) - linalg.rank(target.matrix(n))) - span_t.rank
        m = maps[n] if n < len(maps) else ()
        rank_h = 0
        for vec in kernel_s:
            image = [
                sum((m[r][c] * vec[c] for c in range(source.dim(n))), Fraction(0))
                for r in range(target.dim(n))
            ]
            rank_h += span_t.add(image)
        verdicts.append(DegreeVerdict(n, h_s, h_t, rank_h))
    return QuasiIsoReport(tuple(verdicts))


def _window_as_complex(window: DegreeWindowComplex) -> _FiniteComplex:
    return _FiniteComplex(
        tuple(len(b) for b in window.bases),
        window.matrices,
    )


def _morphism_matrices(m: Morphism, source: DegreeWindowComplex,
                       target: DegreeWindowComplex, max_degree: int):
    mats = []
    for n in range(max_degree + 1):
        rows = [[Fraction(0)] * len(source.bases[n]) for _ in target.bases[n]]
        index = {w: i for i, w in enumerate(target.bases[n])}
        for col, word in enumerate(source.bases[n]):
            image = m(Element(source.model.algebra, {word: Fraction(1)}))
            for w, c in image.terms.items():
                rows[index[w]][col] = c
        mats.append(tuple(tuple(row) for row in rows))
    return tuple(mats)


def quasi_iso_check(source: CDGA, target: CDGA, m: Morphism, max_degree: int,
                    cap: int = DEFAULT_BASIS_CAP) -> QuasiIsoReport:
    """Per-degree injectivity and surjectivity of H(m) for degrees <= max_degree."""
    failure = check_chain_map(m, source.differential, target.differential)
    if failure is not None:
        raise ValueError(f"not a chain map at {failure[0].name}: differs by {failure[1]}")
    ws = assemble_window(source, max_degree, cap=cap)
    wt = assemble_window(target, max_degree, cap=cap)
    maps = _morphism_matrices(m, ws, wt, max_degree)
    return _verdicts(_window_as_complex(ws), _window_as_complex(wt), maps, max_degree)


def _indecomposables_complex(q: Indecomposables, max_degree: int) -> _FiniteComplex:
    gens = q.algebra.generators
    by_degree: list[list[str]] = [[] for _ in range(max_degree + 2)]
    for g in gens:
        if g.degree <= max_degree + 1:
            by_degree[g.degree].append(g.name)
    dims = tuple(len(names) for names in by_degree)
    mats = []
    for n in range(max_degree + 1):
        rows = [[Fraction(0)] * dims[n] for _ in range(len(by_degree[n + 1]))]
        index = {name: i for i, name in enumerate(by_degree[n + 1])}
        for col, name in enumerate(by_degree[n]):
            linear = q.linear[name]
            for word, coeff in linear.terms.items():
                target_name = q.algebra.generators[word[0][0]].name
                if target_name in index:
                    rows[index[target_name]][col] = coeff
        mats.append(tuple(tuple(row) for row in rows))
    return _FiniteComplex(dims, tuple(mats))


def quasi_iso_via_indecomposables(source: CDGA, target: CDGA, m: Morphism,
                                  max_degree: int | None = None) -> QuasiIsoReport:
    """Quasi-isomorphism verdict computed on the indecomposables complexes.

    For morphisms of Sullivan models this decides quasi-isomorphism of m
    itself, while only ever eliminating matrices indexed by generators.
    """
    failure = check_chain_map(m, source.differential, target.differential)
    if failure is not None:
        raise ValueError(f"not a chain map at {failure[0].name}: differs by {failure[1]}")
    if max_degree is None:
        degrees = [g.degree for g in source.algebra.generators]
        degrees += [g.degree for g in target.algebra.generators]
        max_degree = max(degrees, default=0)
    qs = _indecomposables_complex(indecomposables(source), max_degree)
    qt = _indecomposables_complex(indecomposables(target), max_degree)

    source_names: list[list[str]] = [[] for _ in range(max_degree + 1)]
    for g in source.algebra.generators:
        if g.degree <= max_degree:
            source_names[g.degree].append(g.name)
    target_names: list[list[str]] = [[] for _ in range(max_degree + 1)]
    for g in target.algebra.generators:
        if g.degree <= max_degree:
            target_names[g.degree].append(g.name)
    q_of_m = linear_part_of_morphism(m)
    mats = []
    for n in range(max_degree + 1):
        rows = [[Fraction(0)] * len(source_names[n]) for _ in target_names[n]]
        index = {name: i for i, name in enumerate(target_names[n])}
        for col, name in enumerate(source_names[n]):
            for word, coeff in q_of_m[name].terms.items():
                target_name = target.algebra.generators[word[0][0]].name
                rows[index[target_name]][col] = coeff
        mats.append(tuple(tuple(row) for row in rows))
    return _verdicts(qs, qt, tuple(mats), max_degree)


# -- derived reports -------------------------------------------------------------------


def h_algebra_generator_counts(model: CDGA, max_degree: int,
                               cap: int = DEFAULT_BASIS_CAP) -> tuple[int, ...]:
    """Per-degree count of algebra generators of H* visible in the window.

    Degree n generators are classes independent of boundaries and of
    products of lower-degree classes; degree 0 reports 0 (the unit).
    """
    window = assemble_window(model, max_degree, cap=cap)
    report = betti_of_window(window)
    counts = [0] * (max_degree + 1)
    for n in range(1, max_degree + 1):
        basis = window.bases[n]
        span = linalg.Echelon(window.boundary_vectors(n))
        dec_rank = 0
        for p in range(1, n):
            for left in report.representatives[p]:
                for right in report.representatives[n - p]:
                    product = left * right
                    if not product.is_zero():
                        dec_rank += span.add(element_coordinates(product, basis))
        counts[n] = report.betti[n] - dec_rank
    return tuple(counts)
