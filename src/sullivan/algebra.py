"""Free graded-commutative algebras over the rationals.

A generator is a named symbol with a positive integer degree.  Odd-degree
generators are exterior (square zero), even-degree generators are polynomial.
Monomials are stored as canonical words: tuples of (generator index, exponent)
pairs with indices strictly increasing in the algebra's canonical order,
which is (degree, name).  Elements are finite Fraction-weighted sums of
canonical words.

All values are immutable after construction and may be shared freely.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Sequence

from .errors import AlgebraMismatch, BasisSizeExceeded, UnknownGenerator

# A canonical word: ((generator_index, exponent), ...), indices strictly
# increasing, exponents >= 1, odd generators with exponent exactly 1.
Word = tuple[tuple[int, int], ...]

UNIT_WORD: Word = ()


@dataclass(frozen=True)
class Generator:
    name: str
    degree: int

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("generator name must be non-empty")
        if self.degree < 1:
            raise ValueError(f"generator {self.name!r} must have degree >= 1, got {self.degree}")

    @property
    def is_odd(self) -> bool:
        return self.degree % 2 == 1

    def __repr__(self) -> str:
        return f"Generator({self.name!r}, {self.degree})"


def word_length(word: Word) -> int:
    """Number of generator factors counted with multiplicity."""
    return sum(e for _, e in word)


class FreeGradedAlgebra:
    """The free graded-commutative algebra on a finite generator set.

    Generators are kept in canonical order (degree, name), independent of
    the order they were supplied in.
    """

    def __init__(self, generators: Iterable[Generator]):
        gens = sorted(generators, key=lambda g: (g.degree, g.name))
        names = [g.name for g in gens]
        if len(set(names)) != len(names):
            seen: set[str] = set()
            for n in names:
                if n in seen:
                    raise ValueError(f"duplicate generator name {n!r}")
                seen.add(n)
        self.generators: tuple[Generator, ...] = tuple(gens)
        self._index: dict[str, int] = {g.name: i for i, g in enumerate(self.generators)}
        self._odd: tuple[bool, ...] = tuple(g.is_odd for g in self.generators)
        # _basis_cache[i][t]: the canonical words over generators i.. of
        # degree t (the last table is the unit's); _nonempty[i] lists the t
        # with _basis_cache[i][t] nonempty.  Extended one degree at a time.
        self._basis_cache: list[list[tuple[Word, ...]]] = [[] for _ in range(len(gens) + 1)]
        self._nonempty: list[list[int]] = [[] for _ in gens] + [[0]]

    # -- generator access ---------------------------------------------------

    def index_of(self, gen: Generator | str) -> int:
        name = gen if isinstance(gen, str) else gen.name
        i = self._index.get(name)
        if i is None:
            raise UnknownGenerator(f"no generator named {name!r} in this algebra")
        if not isinstance(gen, str) and self.generators[i] != gen:
            raise UnknownGenerator(f"generator {gen!r} does not belong to this algebra")
        return i

    def generator(self, name: str) -> Generator:
        return self.generators[self.index_of(name)]

    def has_generator(self, name: str) -> bool:
        return name in self._index

    def gen(self, name: str) -> "Element":
        """The generator as an element."""
        i = self.index_of(name)
        return Element(self, {((i, 1),): Fraction(1)})

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {UNIT_WORD: Fraction(1)})

    # -- words ---------------------------------------------------------------

    def word_degree(self, word: Word) -> int:
        return sum(self.generators[i].degree * e for i, e in word)

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        for i, e in word:
            name = self.generators[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

    def normalize_monomial(self, factors: Sequence[Generator | str]) -> tuple[Word, int] | None:
        """Sort a word of generators into canonical order with its Koszul sign.

        Returns (canonical word, sign) or None when an odd generator repeats
        (the product is zero).  The sign is -1 to the number of transpositions
        of odd-degree factor pairs; even generators commute freely.
        """
        idx = [self.index_of(g) for g in factors]
        odd_seq = [i for i in idx if self._odd[i]]
        inversions = 0
        for a in range(len(odd_seq)):
            for b in range(a + 1, len(odd_seq)):
                if odd_seq[a] > odd_seq[b]:
                    inversions += 1
                elif odd_seq[a] == odd_seq[b]:
                    return None
        counts: dict[int, int] = {}
        for i in idx:
            counts[i] = counts.get(i, 0) + 1
        word = tuple((i, counts[i]) for i in sorted(counts))
        return word, (-1 if inversions % 2 else 1)

    def multiply_words(self, wa: Word, wb: Word) -> tuple[Word, int] | None:
        """Product of two canonical words, or None when an odd square appears."""
        sign = 1
        odd_rem = sum(1 for i, _ in wa if self._odd[i])
        out: list[tuple[int, int]] = []
        a = b = 0
        while a < len(wa) and b < len(wb):
            ia, ea = wa[a]
            ib, eb = wb[b]
            if ia < ib:
                out.append((ia, ea))
                if self._odd[ia]:
                    odd_rem -= 1
                a += 1
            elif ia > ib:
                if self._odd[ib] and odd_rem % 2:
                    sign = -sign
                out.append((ib, eb))
                b += 1
            else:
                if self._odd[ia]:
                    return None
                out.append((ia, ea + eb))
                a += 1
                b += 1
        out.extend(wa[a:])
        out.extend(wb[b:])
        return tuple(out), sign

    def basis_in_degree(self, n: int, cap: int | None = None) -> tuple[Word, ...]:
        """All canonical monomials of total degree n, lexicographically ordered
        by exponent vector.  Complete and duplicate-free; degree 0 gives (1,).
        """
        if n < 0:
            return ()
        while len(self._basis_cache[0]) <= n:
            self._extend_bases()
        basis = self._basis_cache[0][n]
        if cap is not None and len(basis) > cap:
            raise BasisSizeExceeded(n, len(basis), cap)
        return basis

    def _extend_bases(self) -> None:
        """Add the next degree t to the word table of every generator suffix.

        The words over generators i.. of degree t are those over i+1.. of
        degree t, then v_i^e * w for the words w over i+1.. of each nonempty
        degree m = t - e|v_i| < t, taken in descending m so that e ascends.
        Apart from that scan of nonempty degrees, the work is the words written.
        """
        tables, nonempty = self._basis_cache, self._nonempty
        t = len(tables[0])
        tables[-1].append((UNIT_WORD,) if t == 0 else ())
        for i in range(len(self.generators) - 1, -1, -1):
            d = self.generators[i].degree
            words = list(tables[i + 1][t])
            for m in reversed(nonempty[i + 1]):
                e, r = divmod(t - m, d)
                if e > 1 and self._odd[i]:
                    break
                if e and not r:
                    words.extend(((i, e),) + w for w in tables[i + 1][m])
            tables[i].append(tuple(words))
            if words:
                nonempty[i].append(t)

    # -- housekeeping ---------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if not isinstance(other, FreeGradedAlgebra):
            return NotImplemented
        return self.generators == other.generators

    def __hash__(self) -> int:
        return hash(self.generators)

    def __repr__(self) -> str:
        body = ", ".join(f"{g.name}:{g.degree}" for g in self.generators)
        return f"FreeGradedAlgebra({body})"


class Element:
    """A finite rational linear combination of canonical monomials.

    The term map never stores zero coefficients; the empty map is zero.
    Elements may be non-homogeneous; degree() is only defined when all
    terms share one degree.
    """

    __slots__ = ("algebra", "terms")

    def __init__(self, algebra: FreeGradedAlgebra, terms: dict[Word, Fraction]):
        self.algebra = algebra
        self.terms: dict[Word, Fraction] = {w: c for w, c in terms.items() if c != 0}

    # -- queries --------------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def is_homogeneous(self) -> bool:
        degrees = {self.algebra.word_degree(w) for w in self.terms}
        return len(degrees) <= 1

    def degree(self) -> int | None:
        """Degree of a homogeneous element; None for zero; error if mixed."""
        degrees = {self.algebra.word_degree(w) for w in self.terms}
        if not degrees:
            return None
        if len(degrees) > 1:
            raise ValueError(f"element is not homogeneous: degrees {sorted(degrees)}")
        return degrees.pop()

    def wordlength_split(self, k: int) -> "Element":
        """The part of this element of wordlength exactly k."""
        return Element(
            self.algebra, {w: c for w, c in self.terms.items() if word_length(w) == k}
        )

    def coefficient(self, word: Word) -> Fraction:
        return self.terms.get(word, Fraction(0))

    def sorted_terms(self) -> list[tuple[Word, Fraction]]:
        """Terms ordered by (degree, word): deterministic for printing."""
        return sorted(self.terms.items(), key=lambda wc: (self.algebra.word_degree(wc[0]), wc[0]))

    # -- arithmetic -------------------------------------------------------------

    def _check_same(self, other: "Element") -> None:
        if self.algebra is not other.algebra and self.algebra != other.algebra:
            raise AlgebraMismatch("elements live in different algebras")

    def __add__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, Fraction(0)) + c
        return Element(self.algebra, acc)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        acc = dict(self.terms)
        for w, c in other.terms.items():
            acc[w] = acc.get(w, Fraction(0)) - c
        return Element(self.algebra, acc)

    def __neg__(self) -> "Element":
        return Element(self.algebra, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = Fraction(other)
            return Element(self.algebra, {w: c * q for w, c in self.terms.items()})
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        acc: dict[Word, Fraction] = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                prod = self.algebra.multiply_words(wa, wb)
                if prod is None:
                    continue
                w, sign = prod
                acc[w] = acc.get(w, Fraction(0)) + ca * cb * sign
        return Element(self.algebra, acc)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Element":
        if e < 0:
            raise ValueError("negative powers are not defined")
        # repeated squaring: O(log e) products
        result = self.algebra.one()
        square = self
        while e:
            if e & 1:
                result = result * square
            e >>= 1
            if e:
                square = square * square
        return result

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

    def __hash__(self):
        raise TypeError("elements are not hashable")

    def __iter__(self) -> Iterator[tuple[Word, Fraction]]:
        return iter(self.sorted_terms())

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        chunks: list[str] = []
        for w, c in self.sorted_terms():
            body = self.algebra.word_str(w)
            if w == UNIT_WORD:
                text = str(abs(c))
            elif abs(c) == 1:
                text = body
            else:
                text = f"{abs(c)}*{body}"
            if not chunks:
                chunks.append(text if c > 0 else f"-{text}")
            else:
                chunks.append(f"+ {text}" if c > 0 else f"- {text}")
        return " ".join(chunks)

    def __repr__(self) -> str:
        return f"<Element {self}>"


def monomial(algebra: FreeGradedAlgebra, factors: Sequence[Generator | str]) -> Element:
    """The product of the given generators as an element (0 on odd repeats)."""
    norm = algebra.normalize_monomial(factors)
    if norm is None:
        return algebra.zero()
    word, sign = norm
    return Element(algebra, {word: Fraction(sign)})


def element_of_word(algebra: FreeGradedAlgebra, word: Word) -> Element:
    return Element(algebra, {word: Fraction(1)})


def transport(e: Element, target: FreeGradedAlgebra) -> Element:
    """Re-home an element into another algebra containing the same names.

    Every generator appearing in the element must exist in the target with
    the same degree.  Canonical order among shared generators is preserved
    under (degree, name) sorting, so no sign corrections arise.
    """
    src = e.algebra
    mapping: dict[int, int] = {}

    def mapped(i: int) -> int:
        j = mapping.get(i)
        if j is None:
            g = src.generators[i]
            j = target._index.get(g.name)
            if j is None or target.generators[j].degree != g.degree:
                raise UnknownGenerator(
                    f"generator {g.name!r} (degree {g.degree}) is missing from the target algebra"
                )
            mapping[i] = j
        return j

    out: dict[Word, Fraction] = {}
    for w, c in e.terms.items():
        out[tuple((mapped(i), exp) for i, exp in w)] = c
    return Element(target, out)
