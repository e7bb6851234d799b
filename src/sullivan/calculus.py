"""Models, the maps between them, and the constructions of new models.

Every map out of a free algebra ΛV is fixed by its values on V, and a
generator with no value maps to 0, for models, derivations and morphisms
alike.  So a Sullivan algebra (ΛV, d) is built from its free algebra and
the values of d: `CDGA(algebra, values)`.  Every construction here (loop,
tensor, renaming, quotient, Koszul) is a new free algebra plus new values
of d, and the suspension and the quotient map give values only where they
are nonzero.  The new algebra refuses a repeated generator name
(`NameClash`), so no construction checks names itself.

A derivation acts on one free algebra and extends from its generator
values by the graded Leibniz rule.  `Derivation.on_word` is the one Leibniz
implementation: a degree-k derivation d takes a canonical word
prefix * v_i^e * suffix  to the sum over its distinct letters v_i of

    (-1)^(k|prefix|) e prefix d(v_i) v_i^(e-1) suffix
      = (-1)^(|v_i||prefix|) e d(v_i) base

where base is the word with one v_i removed (|d(v_i)| = |v_i| + k), so each
term is one `multiply_words`.  `Morphism.on_word` multiplies cached powers
f(v_i)^e.  For both, `__call__` sums `on_word` over an element's terms, and
`homology` feeds `on_word` to `linalg.matrix_of`, with no `Element` per
word.  The indecomposables complex is the window of the linear-part model
(`linear_part` of each value of d) over one-letter generator words.
Both extensions are unique, which is what the differential and chain-map
checks exploit: verifying an identity of derivations (or of
(m,m)-derivations) on generators verifies it everywhere.

Constructions are pure; a validated model is immutable and shareable.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable, Mapping, NamedTuple

from .algebra import (DEFAULT_BASIS_CAP, UNIT_WORD, Coefficient, Element, FreeGradedAlgebra, Generator, Word,
                      word_length)
from .errors import (
    AlgebraMismatch,
    InvalidDifferential,
    NotDifferentialIdeal,
    ParityError,
    SuspensionDegreeError,
    ZeroDivisor,
)


class _GeneratorMap:
    """A map out of a free algebra, given by its values on generators.

    Each name must be a generator g of `source`, and each value an element
    of `target` that is zero or homogeneous of degree |g| + shift; a
    generator with no value maps to 0.  Subclasses extend the values to
    words through `on_word`.  Two maps are equal when they are of one kind,
    between the same algebras, with the same shift and the same values.
    """

    def __init__(self, source: FreeGradedAlgebra, target: FreeGradedAlgebra, shift: int,
                 values: Mapping[str, Element]):
        for name, value in values.items():
            degree = source.generator(name).degree + shift
            if value.algebra != target:
                raise AlgebraMismatch(f"value of {name!r} lives in the wrong algebra")
            if not value.is_zero() and value.degree() != degree:
                raise ValueError(f"value of {name!r} must be homogeneous of degree {degree}, got {value}")
        zero = target.zero()
        self.source = source
        self.target = target
        self.shift = shift
        self.values = {g.name: values.get(g.name, zero) for g in source.generators}
        # _value_terms[i]: the terms of the value on generator i
        self._value_terms = tuple(value.terms for value in self.values.values())

    def __call__(self, e: Element) -> Element:
        """The linear extension of `on_word` to an element."""
        if e.algebra != self.source:
            raise AlgebraMismatch("element does not live in the source algebra")
        acc: dict[Word, Coefficient] = {}
        for word, coeff in e.terms.items():
            for w, c in self.on_word(word).items():
                acc[w] = acc.get(w, 0) + coeff * c
        return Element(self.target, acc)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, _GeneratorMap):
            return NotImplemented
        return ((type(self), self.source, self.target, self.shift, self.values)
                == (type(other), other.source, other.target, other.shift, other.values))


class Morphism(_GeneratorMap):
    """A map of graded algebras given on generators, extended multiplicatively."""

    def __init__(self, source: FreeGradedAlgebra, target: FreeGradedAlgebra, values: Mapping[str, Element]):
        super().__init__(source, target, 0, values)
        self._powers: dict[tuple[int, int], dict[Word, Coefficient]] = {}  # (i, e) -> f(v_i)^e

    @classmethod
    def inclusion(cls, source: FreeGradedAlgebra, target: FreeGradedAlgebra) -> "Morphism":
        """Each source generator to the target's generator of that name;
        `inclusion(a, a)` is the identity of a."""
        return cls(source, target, {g.name: target.gen(g.name) for g in source.generators})

    def on_word(self, word: Word) -> dict[Word, Coefficient]:
        """The image of one canonical word as terms: the product over its
        letters v_i^e of the terms of f(v_i)^e, each power computed once."""
        out = {UNIT_WORD: 1}
        for i, exp in word:
            power = self._powers.get((i, exp))
            if power is None:
                image = self.values[self.source.generators[i].name]
                power = self._powers[i, exp] = (image**exp).terms
            out = self.target.multiply_terms(out, power)
            if not out:
                break
        return out

    def __repr__(self) -> str:
        return f"<Morphism on {len(self.values)} generators>"


class Derivation(_GeneratorMap):
    """A degree-k derivation of one free graded algebra, given on generators.

    Applied to an element word by word through `on_word`, one Leibniz term
    per distinct generator of each word (see the module docstring).
    """

    def __init__(self, source: FreeGradedAlgebra, degree: int, values: Mapping[str, Element]):
        super().__init__(source, source, degree, values)

    def on_word(self, word: Word) -> dict[Word, Coefficient]:
        """The derivation on one canonical word, as terms without zeros: the
        Leibniz sum of the module docstring, one term per distinct letter."""
        odd = self.source._odd
        multiply = self.source.multiply_words
        acc: dict[Word, Coefficient] = {}
        prefix_odd = False
        for pos, (i, exp) in enumerate(word):
            value = self._value_terms[i]
            if value:
                # base = prefix * v_i^(exp-1) * suffix, still canonical
                head = word[:pos] + ((i, exp - 1),) if exp > 1 else word[:pos]
                base = head + word[pos + 1:]
                scale = -exp if odd[i] and prefix_odd else exp
                # distinct terms t of d(v_i) give distinct products t * base
                for t, c in value.items():
                    prod = multiply(t, base)
                    if prod is not None:
                        w, factor = prod[0], prod[1] * scale
                        if factor != 1:
                            c = c * factor
                        acc[w] = acc[w] + c if w in acc else c
            if odd[i]:
                prefix_odd = not prefix_odd
        return {w: c for w, c in acc.items() if c}

    def __repr__(self) -> str:
        return f"<Derivation degree {self.shift:+d} on {len(self.values)} generators>"


class CDGA(namedtuple("CDGA", "algebra differential")):
    """A free graded-commutative algebra and the values of d on its generators.

    The differential is the degree +1 derivation with those values (a
    generator with no value has d = 0).  Construction checks each value's
    algebra and degree but not d*d = 0; run check_differential to certify
    that.  Equal when the algebras and the values of d on generators are.
    """

    __slots__ = ()

    def __new__(cls, algebra: FreeGradedAlgebra, values: Mapping[str, Element] = {}) -> "CDGA":
        return super().__new__(cls, algebra, Derivation(algebra, 1, values))

    def __getnewargs__(self):
        return self.algebra, self.differential.values

    def __hash__(self) -> int:
        return hash(self.algebra)

    def d(self, e: Element) -> Element:
        return self.differential(e)

    def d_of(self, name: str) -> Element:
        self.algebra.generator(name)  # an unknown name raises UnknownGenerator
        return self.differential.values[name]


def check_differential(model: CDGA) -> tuple[Generator, Element] | None:
    """None when d(d(g)) = 0 for every generator, else the first failure.

    Since d*d is itself a derivation, vanishing on generators is sufficient.
    """
    d = model.differential
    for g in model.algebra.generators:
        residue = d(d.values[g.name])
        if not residue.is_zero():
            return g, residue
    return None


def check_chain_map(m: Morphism, d_source: Derivation, d_target: Derivation) -> tuple[Generator, Element] | None:
    """None when d_target(m(g)) = m(d_source(g)) for every generator.

    Both composites are (m,m)-derivations, so agreement on generators is
    agreement everywhere.
    """
    for g in m.source.generators:
        lhs = d_target(m.values[g.name])
        rhs = m(d_source.values[g.name])
        if lhs != rhs:
            return g, lhs - rhs
    return None


def require_valid(model: CDGA) -> CDGA:
    failure = check_differential(model)
    if failure is not None:
        raise InvalidDifferential(failure[0].name, failure[1])
    return model


# -- suspension and free loop models -------------------------------------------


def suspended_name(name: str) -> str:
    return "s" + name


def suspension(model: CDGA) -> tuple[FreeGradedAlgebra, Derivation]:
    """Adjoin a suspended generator s<name> of degree |v|-1 per generator.

    Returns the enlarged algebra and the degree -1 derivation s with
    s(v) = sv and s(sv) = 0; s*s = 0.
    """
    old = model.algebra.generators
    for g in old:
        if g.degree < 2:
            raise SuspensionDegreeError(
                f"generator {g.name!r} has degree {g.degree}; suspension needs degree >= 2"
            )
    big = FreeGradedAlgebra(
        list(old) + [Generator(suspended_name(g.name), g.degree - 1) for g in old]
    )
    return big, Derivation(big, -1, {g.name: big.gen(suspended_name(g.name)) for g in old})


def loop_model(model: CDGA) -> CDGA:
    """The free-loop-space model on the doubled algebra.

    The differential agrees with d on original generators and is forced on
    suspended ones by anticommutation with the suspension operator:
    delta(sv) = -s(dv).
    """
    require_valid(model)
    big, s = suspension(model)
    include = Morphism.inclusion(model.algebra, big)
    values: dict[str, Element] = {}
    for g in model.algebra.generators:
        dv = include(model.d_of(g.name))
        values[g.name] = dv
        values[suspended_name(g.name)] = -s(dv)
    return CDGA(big, values)


# -- tensor products, renaming, quotients ----------------------------------------


def tensor_cdga(*factors: CDGA) -> CDGA:
    """Tensor product model of any number of factors: generator union, differentials side by side."""
    big = FreeGradedAlgebra([g for factor in factors for g in factor.algebra.generators])
    values: dict[str, Element] = {}
    for factor in factors:
        include = Morphism.inclusion(factor.algebra, big)
        values.update((name, include(value)) for name, value in factor.differential.values.items())
    return CDGA(big, values)


def rename_generators(model: CDGA, mapping: Mapping[str, str]) -> CDGA:
    """Isomorphic copy with generators renamed (degrees kept).

    Renaming may reorder same-degree generators; Koszul signs are handled by
    pushing the differential through the renaming isomorphism.
    """
    for name in mapping:
        model.algebra.generator(name)
    new_names: dict[str, str] = {g.name: mapping.get(g.name, g.name) for g in model.algebra.generators}
    new_alg = FreeGradedAlgebra(
        [Generator(new_names[g.name], g.degree) for g in model.algebra.generators]
    )
    rho = Morphism(
        model.algebra, new_alg, {g.name: new_alg.gen(new_names[g.name]) for g in model.algebra.generators}
    )
    values = {new_names[g.name]: rho(model.d_of(g.name)) for g in model.algebra.generators}
    return CDGA(new_alg, values)


def quotient_by_generators(model: CDGA, kill: Iterable[str]) -> tuple[CDGA, dict[str, Element]]:
    """The quotient setting the killed generators to zero, and its residues.

    One map pi sets them to zero, and the quotient's differential is
    dbar(g) = pi(d(g)) on the survivors; NotDifferentialIdeal is raised,
    before any residue is returned, when dbar fails to square to zero.  The
    residues are the nonzero pi(d(k)) of the killed k, by name: empty exactly
    when the ideal of the killed set is stable under d, and otherwise the
    quotient is by generators, not by the ideal they and their d generate.
    """
    kill_set = set(kill)
    for name in kill_set:
        model.algebra.generator(name)
    small = FreeGradedAlgebra([g for g in model.algebra.generators if g.name not in kill_set])
    pi = Morphism(model.algebra, small, {g.name: small.gen(g.name) for g in small.generators})
    quotient = CDGA(small, {g.name: pi(model.d_of(g.name)) for g in small.generators})
    failure = check_differential(quotient)
    if failure is not None:
        raise NotDifferentialIdeal(failure[0].name, failure[1])
    residues = {name: pi(model.d_of(name)) for name in sorted(kill_set)}
    return quotient, {name: residue for name, residue in residues.items() if not residue.is_zero()}


# -- Koszul models ------------------------------------------------------------------


class KoszulModel(NamedTuple):
    """A one-variable Koszul model together with its quotient dimension oracle.

    H of the model equals the degreewise dimensions of A/zA; the
    non-zero-divisor hypothesis was verified in the window it was built for.
    """

    model: CDGA
    quotient_dims: tuple[int, ...]


def koszul_model(presentation: CDGA, z: Element, window: int,
                 cap: int = DEFAULT_BASIS_CAP) -> KoszulModel:
    """Adjoin an odd generator `sz` killing the even cocycle z.

    The presentation must carry the zero differential.  Injectivity of
    multiplication by z is checked degreewise up to the window via the
    multiplication matrix.  Its bases, of degrees 0..window + |z|, are
    listed in ascending degree under `cap`, so the lowest degree over the
    cap is the one `BasisSizeExceeded` names.
    """
    from . import linalg  # imported here so that loading calculus does not load linalg

    alg = presentation.algebra
    for g in alg.generators:
        if not presentation.d_of(g.name).is_zero():
            raise ValueError("koszul_model needs a presentation with zero differential")
    if z.algebra != alg:
        raise AlgebraMismatch("cocycle does not live in the presentation algebra")
    if z.is_zero():
        raise ValueError("cocycle must be nonzero")
    if not z.is_homogeneous() or z.degree() == 0 or z.degree() % 2:
        raise ParityError(f"Koszul cocycle must be homogeneous of positive even degree, got {z}")
    degree = z.degree()
    # built first, so that a generator already named sz is refused before any basis is listed
    big = FreeGradedAlgebra(list(alg.generators) + [Generator("sz", degree - 1)])

    # z is not a zero divisor in the window: a -> z*a injective per degree
    bases = alg.bases(window + degree, cap)
    for n in range(window + 1):
        products = (alg.multiply_terms({w: 1}, z.terms) for w in bases[n])
        if linalg.rank(linalg.matrix_of(products, bases[n + degree])) != len(bases[n]):
            raise ZeroDivisor(n, z)

    model = CDGA(big, {"sz": Morphism.inclusion(alg, big)(z)})

    dims = tuple(len(bases[n]) - (len(bases[n - degree]) if n >= degree else 0)
                 for n in range(window + 1))
    return KoszulModel(model, dims)


# -- linear parts and minimality ---------------------------------------------------


def linear_part(e: Element) -> Element:
    """The one-letter terms of e: applied to the values of d (or of a
    morphism), the values of its linear part."""
    return Element(e.algebra, {w: c for w, c in e.terms.items() if word_length(w) == 1})


def minimality_check(model: CDGA, base: Iterable[str] = ()) -> tuple[Generator, Element] | None:
    """None when no non-base generator has a bare non-base linear term.

    base names the subalgebra the model is relative over; the condition is
    that d maps the remaining generators into B+ . Lambda V + B . Lambda^{>=2} V.
    Returns the first violating generator with its offending linear part.
    """
    base_set = set(base)
    for name in base_set:
        model.algebra.generator(name)
    for g in model.algebra.generators:
        if g.name in base_set:
            continue
        offending = {w: c for w, c in linear_part(model.d_of(g.name)).terms.items()
                     if model.algebra.generators[w[0][0]].name not in base_set}
        if offending:
            return g, Element(model.algebra, offending)
    return None
