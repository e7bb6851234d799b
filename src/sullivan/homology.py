"""Exact rational cohomology of a model in a degree window.

A window is a model and its monomial bases for degrees 0..N+1 (b_N needs
degree N+1); assembly lists the bases and nothing else.  The one cohomology
pass builds each d^n when it reaches degree n, as `columns(n)`: `on_word`
of d fed straight to `matrix_of`, with no `Element` per column.
`DegreeWindowComplex` is the one complex type: Betti numbers and
quasi-isomorphism verdicts all read it.  The indecomposables V of a
Sullivan algebra carry the linear part of d, the one-letter part of its
generator values, so their complex is the window of the linear-part model
over one-letter generator words.  Kernels and representatives are sparse;
only `matrix(n)`, which writes a differential out, is dense.

Each d^n is reduced once, by one column reduction with relations
(`linalg.Echelon`), in one pass of `DegreeWindowComplex.cocycles()` from the
top degree down.  The columns of d^N are reduced in full coordinates; those
that reduce to zero are its free columns F_N, and the integer relation z_f
of a free column f is positive at f and zero at every other free column.
So a cocycle is fixed by its free coordinates, and cutting the columns of
d^(n-1) to F_n keeps every relation among them.  For n = N down to 0, the
columns of d^(n-1), built now and cut to F_n, are reduced once, each pivot
a highest free column: their pivots are the boundary pivots B_n, the
classes of degree n are the kernel vectors z_f / z_f[f] with f in F_n but
not in B_n, and the relations the echelon keeps are F_(n-1) with their
z_f.  This is the clearing of persistent homology (Chen & Kerber, 2011).
Only the pass maps words to positions: a degree's `Cocycles` hands out its
classes as `Element`s, and every reader tests a cocycle (an image, a
product) as an `Element` by adding it to the boundary echelon of its degree.
All ranks are exact (see linalg); the report is a deterministic reduction
over independent degrees.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from . import linalg
from .algebra import DEFAULT_BASIS_CAP, Coefficient, Element, FreeGradedAlgebra, Word
from .calculus import CDGA, Morphism, check_chain_map, linear_part


class Cocycles(NamedTuple):
    """The cohomology of one window degree n: the classes z_f / z_f[f] as
    `Element`s ascending in f, the free words F_n of d^n mapped to their
    columns, and the boundary echelon, the columns of d^(n-1) cut to F_n."""

    classes: list[Element]
    free: dict[Word, int]
    boundaries: linalg.Echelon

    def add(self, cocycle: Element) -> bool:
        """Add a degree-n cocycle, cut to F_n, to the boundaries; True iff its class is new."""
        return self.boundaries.add({self.free[w]: x for w, x in cocycle.terms.items() if w in self.free}) is None


class DegreeWindowComplex(NamedTuple):
    """A model with its monomial bases in degrees 0..max_degree+1.

    `columns(n)[c]`, built on each call, is the differential of the c-th
    degree-n basis word as a sparse column `{row: coefficient}` over the
    degree-(n+1) basis; the columns of d^(n-1) are the degree-n boundaries.
    """

    model: CDGA
    max_degree: int
    bases: tuple[tuple[Word, ...], ...]

    def dim(self, n: int) -> int:
        if 0 <= n <= self.max_degree + 1:
            return len(self.bases[n])
        return 0

    def columns(self, n: int) -> list[linalg.SparseVector]:
        """d^n as sparse columns, one per degree-n basis word; [] outside 0..max_degree."""
        if 0 <= n <= self.max_degree:
            return linalg.matrix_of(map(self.model.differential.on_word, self.bases[n]),
                                    self.bases[n + 1])
        return []

    def matrix(self, n: int) -> list[list[Coefficient]]:
        """d^n as dense rows (degree n+1 rows by degree n columns)."""
        if 0 <= n <= self.max_degree:
            columns = self.columns(n)
            return [[col.get(r, 0) for col in columns] for r in range(self.dim(n + 1))]
        return []

    def cocycles(self) -> Iterator[tuple[int, Cocycles]]:
        """Each window degree with its `Cocycles`, from the top degree down,
        each d^n built and reduced once (see the module docstring)."""
        algebra = self.model.algebra
        free = linalg.Echelon(self.columns(self.max_degree)).relations
        for n in range(self.max_degree, -1, -1):
            boundaries = linalg.Echelon({f: x for f, x in column.items() if f in free}
                                        for column in self.columns(n - 1))
            basis = self.bases[n]
            classes = [Element(algebra, {basis[c]: x for c, x in linalg.kernel_vector(z, f).items()})
                       for f, z in free.items() if f not in boundaries.columns]
            yield n, Cocycles(classes, {basis[f]: f for f in free}, boundaries)
            free = boundaries.relations


def assemble_window(model: CDGA, max_degree: int, cap: int = DEFAULT_BASIS_CAP) -> DegreeWindowComplex:
    """The window of a model: its monomial bases for degrees 0..max_degree+1,
    listed in ascending degree, so a cap overflow names the lowest degree over it."""
    return DegreeWindowComplex(model, max_degree, model.algebra.bases(max_degree + 1, cap))


class CohomologyReport(NamedTuple):
    """Betti numbers with cocycle representatives for degrees 0..len(betti) - 1."""

    betti: tuple[int, ...]
    representatives: tuple[tuple[Element, ...], ...]


def betti(model: CDGA, max_degree: int, cap: int = DEFAULT_BASIS_CAP) -> CohomologyReport:
    window = assemble_window(model, max_degree, cap=cap)
    return betti_of_window(window)


def betti_of_window(window: DegreeWindowComplex) -> CohomologyReport:
    reps: list[tuple[Element, ...]] = [()] * (window.max_degree + 1)
    for n, cocycles in window.cocycles():
        reps[n] = tuple(cocycles.classes)
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


def _verdicts(source: DegreeWindowComplex, target: DegreeWindowComplex, m: Morphism) -> QuasiIsoReport:
    """Ranks of H(m) in the degrees of two windows of one size.  Only the
    source classes are mapped; their images extend the target's boundary
    echelon."""
    verdicts = []
    for (n, source_n), (_, target_n) in zip(source.cocycles(), target.cocycles()):
        rank_h = sum(map(target_n.add, map(m, source_n.classes)))
        verdicts.append(DegreeVerdict(n, len(source_n.classes), len(target_n.classes), rank_h))
    return QuasiIsoReport(tuple(reversed(verdicts)))


def quasi_iso_check(source: CDGA, target: CDGA, m: Morphism, max_degree: int,
                    cap: int = DEFAULT_BASIS_CAP) -> QuasiIsoReport:
    """Per-degree injectivity and surjectivity of H(m) for degrees <= max_degree."""
    failure = check_chain_map(m, source.differential, target.differential)
    if failure is not None:
        raise ValueError(f"not a chain map at {failure[0].name}: differs by {failure[1]}")
    ws = assemble_window(source, max_degree, cap=cap)
    wt = assemble_window(target, max_degree, cap=cap)
    return _verdicts(ws, wt, m)


def _generator_words(algebra: FreeGradedAlgebra, max_degree: int) -> tuple[tuple[Word, ...], ...]:
    """The one-letter word of each generator, grouped by degree 0..max_degree."""
    words: list[list[Word]] = [[] for _ in range(max_degree + 1)]
    for i, g in enumerate(algebra.generators):
        if g.degree <= max_degree:
            words[g.degree].append(((i, 1),))
    return tuple(tuple(ws) for ws in words)


def _indecomposables_complex(model: CDGA, max_degree: int) -> DegreeWindowComplex:
    """The indecomposables complex: the window of the linear-part model over
    one-letter generator words."""
    linear = CDGA(model.algebra, {name: linear_part(v) for name, v in model.differential.values.items()})
    return DegreeWindowComplex(linear, max_degree, _generator_words(model.algebra, max_degree + 1))


def quasi_iso_via_indecomposables(source: CDGA, target: CDGA, m: Morphism) -> QuasiIsoReport:
    """Quasi-isomorphism verdict of a chain map m (`check_chain_map` certifies
    one, and `mult-model` reports that verdict first) computed on the
    indecomposables complexes, up to the top generator degree of either side.

    For morphisms of Sullivan models this decides quasi-isomorphism of m
    itself, while only ever eliminating matrices indexed by generators.
    """
    degrees = [g.degree for g in source.algebra.generators]
    degrees += [g.degree for g in target.algebra.generators]
    max_degree = max(degrees, default=0)
    qs = _indecomposables_complex(source, max_degree)
    qt = _indecomposables_complex(target, max_degree)
    linear = {name: linear_part(v) for name, v in m.values.items()}
    return _verdicts(qs, qt, Morphism(m.source, m.target, linear))


# -- derived reports -------------------------------------------------------------------


def h_algebra_generator_counts(model: CDGA, max_degree: int,
                               cap: int = DEFAULT_BASIS_CAP) -> tuple[int, ...]:
    """Per-degree count of algebra generators of H* visible in the window.

    Degree n generators are classes independent of boundaries and of
    products of lower-degree classes; degree 0 reports 0 (the unit).  The
    kept products and kept cocycles of a degree form a basis of H^n.
    """
    window = assemble_window(model, max_degree, cap=cap)
    counts = [0]
    classes: list[list[Element]] = [[]]  # a basis of H^n
    by_degree = dict(window.cocycles())
    for n in range(1, max_degree + 1):
        cocycles = by_degree[n]
        # ab = ±ba in a free graded-commutative algebra, so p <= n/2 spans every product
        products = [left * right for p in range(1, n // 2 + 1) for left in classes[p] for right in classes[n - p]]
        kept = [t for t in products if cocycles.add(t)]
        generators = [z for z in cocycles.classes if cocycles.add(z)]
        counts.append(len(generators))
        classes.append(kept + generators)
    return tuple(counts)
