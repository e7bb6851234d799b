"""Free graded-commutative algebras over the rationals.

A generator is a named symbol with a positive integer degree.  Odd-degree
generators are exterior (square zero), even-degree generators are polynomial.
Monomials are stored as canonical words: tuples of (generator index, exponent)
pairs with indices strictly increasing in the algebra's canonical order,
which is (degree, name).  Elements are finite rational sums of canonical
words.  A coefficient is whatever exact Python arithmetic gives: an `int`
stays an `int`, and a `Fraction` is made only where the program divides and
the quotient is not an integer.  A scalar is any `numbers.Rational`, which
both types are, so `fractions` is imported only by the code that divides
and a run that never divides does not load it.

`FreeGradedAlgebra.bases(top, cap)` lists the monomial bases of degrees
0..top in one table pass over the generators, counted before they are
built; the algebra keeps no basis, so each caller owns what it lists.

All values are immutable after construction and may be shared freely.
"""

from __future__ import annotations

from collections import namedtuple
from numbers import Rational
from typing import Iterable, Mapping

from .errors import AlgebraMismatch, BasisSizeExceeded, NameClash, SullivanError, UnknownGenerator

# A canonical word: ((generator_index, exponent), ...), indices strictly
# increasing, exponents >= 1, odd generators with exponent exactly 1.
Word = tuple[tuple[int, int], ...]

UNIT_WORD: Word = ()

# An `int`, or a `fractions.Fraction` where the program divided.
Coefficient = Rational

# The default `cap` on the size of each degree's basis (`bases(top, cap)`)
# in the cohomology readers and the command line.
DEFAULT_BASIS_CAP = 200_000


class Generator(namedtuple("Generator", "name degree")):
    """A named symbol of positive degree: the tuple (name, degree)."""

    __slots__ = ()

    def __new__(cls, name: str, degree: int) -> "Generator":
        if not name:
            raise ValueError("generator name must be non-empty")
        if degree < 1:
            raise ValueError(f"generator {name!r} must have degree >= 1, got {degree}")
        return super().__new__(cls, name, degree)

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
    the order they were supplied in.  A repeated name is a `NameClash`: this
    is the one check every construction of a new algebra relies on.
    """

    def __init__(self, generators: Iterable[Generator]):
        self.generators: tuple[Generator, ...] = tuple(sorted(generators, key=lambda g: (g.degree, g.name)))
        self._index: dict[str, int] = {}
        for i, g in enumerate(self.generators):
            if self._index.setdefault(g.name, i) != i:
                raise NameClash(f"duplicate generator name {g.name!r}")
        self._degree: tuple[int, ...] = tuple(g.degree for g in self.generators)
        self._odd: tuple[bool, ...] = tuple(g.is_odd for g in self.generators)

    # -- generator access ---------------------------------------------------

    def index_of(self, name: str) -> int:
        i = self._index.get(name)
        if i is None:
            raise UnknownGenerator(f"no generator named {name!r} in this algebra")
        return i

    def generator(self, name: str) -> Generator:
        return self.generators[self.index_of(name)]

    def has_generator(self, name: str) -> bool:
        return name in self._index

    def gen(self, name: str) -> "Element":
        """The generator as an element."""
        i = self.index_of(name)
        return Element(self, {((i, 1),): 1})

    def zero(self) -> "Element":
        return Element(self, {})

    def one(self) -> "Element":
        return Element(self, {UNIT_WORD: 1})

    # -- words ---------------------------------------------------------------

    def word_degree(self, word: Word) -> int:
        return sum(self._degree[i] * e for i, e in word)

    def word_str(self, word: Word) -> str:
        if not word:
            return "1"
        parts = []
        for i, e in word:
            name = self.generators[i].name
            parts.append(name if e == 1 else f"{name}^{e}")
        return "*".join(parts)

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

    def multiply_terms(self, a: Mapping[Word, Coefficient],
                       b: Mapping[Word, Coefficient]) -> dict[Word, Coefficient]:
        """Product of two term maps (word -> coefficient), without zero coefficients."""
        acc: dict[Word, Coefficient] = {}
        multiply = self.multiply_words
        for wa, ca in a.items():
            for wb, cb in b.items():
                prod = multiply(wa, wb)
                if prod is None:
                    continue
                w, sign = prod
                c = ca * cb if sign > 0 else -(ca * cb)
                acc[w] = acc[w] + c if w in acc else c
        return {w: c for w, c in acc.items() if c}

    def bases(self, top: int, cap: int = DEFAULT_BASIS_CAP) -> tuple[tuple[Word, ...], ...]:
        """The bases of degrees 0..top: all canonical monomials of each degree,
        ascending in exponent vector; degree 0 gives (1,).  Raises
        `BasisSizeExceeded` for the lowest degree with more than `cap`, before
        listing any word.

        Both passes take the generators from the last to the first and follow
        the Poincare series, prod (1 + t^|v|) over odd v times prod
        1 / (1 - t^|v|) over even v.  Row t gains v_i times each word of row
        t - |v_i|: for an odd v_i going down in t, so that row is still the
        old one; for an even v_i going up, so it is the row just updated and
        the product raises the exponent of v_i by one.  Each word is built
        once, from one shared head tuple per exponent.  A `top` whose count
        table cannot be built at all is refused with a `SullivanError`.
        """
        try:
            counts = [1] + [0] * top
        except (MemoryError, OverflowError):
            raise SullivanError(f"cannot build a monomial count table for degrees 0..{top}") from None
        for g in reversed(self.generators):
            d = g.degree
            for t in range(top, d - 1, -1) if g.is_odd else range(d, top + 1):
                counts[t] += counts[t - d]
        for n, size in enumerate(counts):
            if size > cap:
                raise BasisSizeExceeded(n, size, cap)
        words: list[tuple[Word, ...]] = [(UNIT_WORD,)] + [()] * top
        for i in range(len(self.generators) - 1, -1, -1):
            d = self.generators[i].degree
            if self._odd[i]:
                head = ((i, 1),)
                for t in range(top, d - 1, -1):
                    if words[t - d]:
                        words[t] += tuple([head + w for w in words[t - d]])
                continue
            heads = [((i, e),) for e in range(top // d + 1)]
            for t in range(d, top + 1):
                if words[t - d]:
                    words[t] += tuple([heads[w[0][1] + 1] + w[1:] if w and w[0][0] == i else heads[1] + w
                                       for w in words[t - d]])
        return tuple(words)

    def basis_in_degree(self, n: int, cap: int = DEFAULT_BASIS_CAP) -> tuple[Word, ...]:
        """The basis of degree n, from `bases(n, cap)`; () for n < 0.

        Like `bases`, it lists every degree 0..n and refuses the lowest one
        over `cap`, which may lie below n (the middle degrees of an exterior
        algebra are its largest); a caller that needs several degrees should
        call `bases` once.
        """
        return self.bases(n, cap)[n] if n >= 0 else ()

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

    def __init__(self, algebra: FreeGradedAlgebra, terms: dict[Word, Coefficient]):
        self.algebra = algebra
        self.terms: dict[Word, Coefficient] = {w: c for w, c in terms.items() if c != 0}

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

    def sorted_terms(self) -> list[tuple[Word, Coefficient]]:
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
            acc[w] = acc.get(w, 0) + c
        return Element(self.algebra, acc)

    def __sub__(self, other: "Element") -> "Element":
        if not isinstance(other, Element):
            return NotImplemented
        return self + -other

    def __neg__(self) -> "Element":
        return Element(self.algebra, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, Rational):
            return Element(self.algebra, {w: c * other for w, c in self.terms.items()})
        if not isinstance(other, Element):
            return NotImplemented
        self._check_same(other)
        return Element(self.algebra, self.algebra.multiply_terms(self.terms, other.terms))

    def __rmul__(self, other):
        if isinstance(other, Rational):
            return self.__mul__(other)
        return NotImplemented

    def __pow__(self, e: int) -> "Element":
        if e < 0:
            raise ValueError("negative powers are not defined")
        # repeated squaring: O(log e) products
        multiply = self.algebra.multiply_terms
        result: dict[Word, Coefficient] = {UNIT_WORD: 1}
        square = self.terms
        while e:
            if e & 1:
                result = multiply(result, square)
            e >>= 1
            if e:
                square = multiply(square, square)
        return Element(self.algebra, result)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Element):
            return NotImplemented
        return self.algebra == other.algebra and self.terms == other.terms

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
