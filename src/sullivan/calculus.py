"""Differentials, derivations, morphisms and model constructions.

Derivations extend from generator values by the graded Leibniz rule, with an
optional twist by a morphism f (an (f,f)-derivation).  A degree-k derivation
d takes a canonical word  prefix * v_i^e * suffix  to the sum over positions i
of

    (-1)^(k|prefix|) * e * F(prefix) * d(v_i) * F(v_i^(e-1) * suffix)

where F is the identity on words, or f when twisted, and both word pieces are
slices of the canonical word (e = 1 for odd v_i).  A word gives one term per
distinct generator, whatever its exponents.

Morphisms extend multiplicatively.  Both extensions are unique, which is
what the differential and chain-map checks exploit: verifying an identity
of derivations (or of (m,m)-derivations) on generators verifies it
everywhere.

Constructions are pure; a validated model is immutable and shareable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from . import linalg
from .algebra import Element, FreeGradedAlgebra, Generator, Word, transport, word_length
from .errors import (
    AlgebraMismatch,
    IncompleteDerivation,
    IncompleteMorphism,
    InvalidDifferential,
    NameClash,
    NotDifferentialIdeal,
    ParityError,
    SuspensionDegreeError,
    ZeroDivisor,
)


class Morphism:
    """A map of graded algebras given on generators, extended multiplicatively."""

    def __init__(
        self,
        source: FreeGradedAlgebra,
        target: FreeGradedAlgebra,
        values: Mapping[str, Element],
    ):
        self.source = source
        self.target = target
        self.values: dict[str, Element] = {}
        for name, value in values.items():
            g = source.generator(name)
            if value.algebra != target:
                raise AlgebraMismatch(f"image of {name!r} lives in the wrong algebra")
            if not value.is_zero() and value.degree() != g.degree:
                raise ValueError(
                    f"image of {name!r} must be homogeneous of degree {g.degree}, got {value}"
                )
            self.values[name] = value

    @classmethod
    def identity(cls, algebra: FreeGradedAlgebra) -> "Morphism":
        return cls(algebra, algebra, {g.name: algebra.gen(g.name) for g in algebra.generators})

    @classmethod
    def inclusion(cls, source: FreeGradedAlgebra, target: FreeGradedAlgebra) -> "Morphism":
        return cls(source, target, {g.name: target.gen(g.name) for g in source.generators})

    def image_of_generator(self, name: str) -> Element:
        try:
            return self.values[name]
        except KeyError:
            raise IncompleteMorphism(f"no image given for generator {name!r}") from None

    def __call__(self, e: Element) -> Element:
        if e.algebra != self.source:
            raise AlgebraMismatch("element does not live in the source algebra")
        out = self.target.zero()
        for word, coeff in e.terms.items():
            term = self.target.one() * coeff
            for i, exp in word:
                img = self.image_of_generator(e.algebra.generators[i].name)
                term = term * img**exp
                if term.is_zero():
                    break
            out = out + term
        return out

    def then(self, other: "Morphism") -> "Morphism":
        """Composite self followed by other."""
        if self.target != other.source:
            raise AlgebraMismatch("morphisms do not compose")
        return Morphism(
            self.source,
            other.target,
            {g.name: other(self.image_of_generator(g.name)) for g in self.source.generators},
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Morphism):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.values == other.values
        )

    def __repr__(self) -> str:
        return f"<Morphism on {len(self.values)} generators>"


class Derivation:
    """A degree-k derivation given on generators, optionally along a morphism.

    Applied to an element word by word, one Leibniz term per distinct
    generator of each word (see the module docstring).
    """

    def __init__(
        self,
        source: FreeGradedAlgebra,
        degree: int,
        values: Mapping[str, Element],
        target: FreeGradedAlgebra | None = None,
        along: Morphism | None = None,
    ):
        self.source = source
        self.target = target if target is not None else source
        self.degree = degree
        self.along = along
        if along is not None:
            if along.source != source or along.target != self.target:
                raise AlgebraMismatch("twisting morphism endpoints do not match")
        elif self.target != self.source:
            raise AlgebraMismatch("a derivation onto a different algebra needs a morphism")
        self.values: dict[str, Element] = {}
        for name, value in values.items():
            g = source.generator(name)
            if value.algebra != self.target:
                raise AlgebraMismatch(f"value of {name!r} lives in the wrong algebra")
            if not value.is_zero() and value.degree() != g.degree + degree:
                raise ValueError(
                    f"value of {name!r} must be homogeneous of degree "
                    f"{g.degree + degree}, got degree {value.degree()}"
                )
            self.values[name] = value

    def value_on_generator(self, name: str) -> Element:
        try:
            return self.values[name]
        except KeyError:
            raise IncompleteDerivation(f"no value given for generator {name!r}") from None

    def _along_word(self, word: Word) -> Element:
        """F(word): the word itself, or its image under the twisting morphism."""
        if self.along is None:
            return Element(self.target, {word: Fraction(1)})
        return self.along(Element(self.source, {word: Fraction(1)}))

    def __call__(self, e: Element) -> Element:
        if e.algebra != self.source:
            raise AlgebraMismatch("element does not live in the source algebra")
        k = self.degree
        gens = e.algebra.generators
        acc: dict[Word, Fraction] = {}
        for word, coeff in e.terms.items():
            prefix_degree = 0
            for pos, (i, exp) in enumerate(word):
                g = gens[i]
                dv = self.value_on_generator(g.name)
                if not dv.is_zero():
                    # word = prefix * v^exp * suffix; the exp copies of an
                    # even v contribute equal terms, an odd v has exp = 1
                    rest = word[pos + 1:] if exp == 1 else ((i, exp - 1),) + word[pos + 1:]
                    scale = coeff * exp if (k * prefix_degree) % 2 == 0 else -coeff * exp
                    term = self._along_word(word[:pos]) * dv * self._along_word(rest)
                    for w, c in term.terms.items():
                        acc[w] = acc.get(w, 0) + c * scale
                prefix_degree += g.degree * exp
        return Element(self.target, acc)

    def __repr__(self) -> str:
        return f"<Derivation degree {self.degree:+d} on {len(self.values)} generators>"


@dataclass(frozen=True)
class CDGA:
    """A free graded-commutative algebra with a degree +1 differential.

    Construction does not validate; run check_differential to certify
    that the differential squares to zero.
    """

    algebra: FreeGradedAlgebra
    differential: Derivation

    def __post_init__(self) -> None:
        if self.differential.source != self.algebra or self.differential.target != self.algebra:
            raise AlgebraMismatch("differential must act on the carrier algebra")
        if self.differential.degree != 1:
            raise ValueError("a differential has degree +1")

    def d(self, e: Element) -> Element:
        return self.differential(e)

    def d_of(self, name: str) -> Element:
        return self.differential.value_on_generator(name)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CDGA):
            return NotImplemented
        if self.algebra != other.algebra:
            return False
        return all(
            self.d_of(g.name) == other.d_of(g.name) for g in self.algebra.generators
        )


def make_cdga(generators: Iterable[Generator], values: Mapping[str, Element] | None = None,
              algebra: FreeGradedAlgebra | None = None) -> CDGA:
    """Convenience constructor; omitted generator values mean zero."""
    alg = algebra if algebra is not None else FreeGradedAlgebra(generators)
    vals = dict(values or {})
    for g in alg.generators:
        vals.setdefault(g.name, alg.zero())
    return CDGA(alg, Derivation(alg, 1, vals))


def check_differential(model: CDGA) -> tuple[Generator, Element] | None:
    """None when d(d(g)) = 0 for every generator, else the first failure.

    Since d*d is itself a derivation, vanishing on generators is sufficient.
    """
    d = model.differential
    for g in model.algebra.generators:
        residue = d(d.value_on_generator(g.name))
        if not residue.is_zero():
            return g, residue
    return None


def check_chain_map(m: Morphism, d_source: Derivation, d_target: Derivation) -> tuple[Generator, Element] | None:
    """None when d_target(m(g)) = m(d_source(g)) for every generator.

    Both composites are (m,m)-derivations, so agreement on generators is
    agreement everywhere.
    """
    for g in m.source.generators:
        lhs = d_target(m(m.source.gen(g.name)))
        rhs = m(d_source.value_on_generator(g.name))
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
    names = {g.name for g in old}
    for g in old:
        if suspended_name(g.name) in names:
            raise NameClash(
                f"algebra already contains {suspended_name(g.name)!r}; "
                "iterated suspension is not supported"
            )
    big = FreeGradedAlgebra(
        list(old) + [Generator(suspended_name(g.name), g.degree - 1) for g in old]
    )
    values: dict[str, Element] = {}
    for g in old:
        values[g.name] = big.gen(suspended_name(g.name))
        values[suspended_name(g.name)] = big.zero()
    return big, Derivation(big, -1, values)


def loop_model(model: CDGA) -> CDGA:
    """The free-loop-space model on the doubled algebra.

    The differential agrees with d on original generators and is forced on
    suspended ones by anticommutation with the suspension operator:
    delta(sv) = -s(dv).
    """
    require_valid(model)
    big, s = suspension(model)
    values: dict[str, Element] = {}
    for g in model.algebra.generators:
        dv = transport(model.d_of(g.name), big)
        values[g.name] = dv
        values[suspended_name(g.name)] = -s(dv)
    return CDGA(big, Derivation(big, 1, values))


# -- tensor products, renaming, quotients ----------------------------------------


def tensor_cdga(left: CDGA, right: CDGA) -> CDGA:
    """Tensor product model: generator union, differentials side by side."""
    clash = {g.name for g in left.algebra.generators} & {
        g.name for g in right.algebra.generators
    }
    if clash:
        raise NameClash(f"generator names appear on both sides: {sorted(clash)}")
    big = FreeGradedAlgebra(list(left.algebra.generators) + list(right.algebra.generators))
    values: dict[str, Element] = {}
    for factor in (left, right):
        for g in factor.algebra.generators:
            values[g.name] = transport(factor.d_of(g.name), big)
    return CDGA(big, Derivation(big, 1, values))


def rename_generators(model: CDGA, mapping: Mapping[str, str]) -> CDGA:
    """Isomorphic copy with generators renamed (degrees kept).

    Renaming may reorder same-degree generators; Koszul signs are handled by
    pushing the differential through the renaming isomorphism.
    """
    for name in mapping:
        model.algebra.generator(name)
    new_names: dict[str, str] = {g.name: mapping.get(g.name, g.name) for g in model.algebra.generators}
    if len(set(new_names.values())) != len(new_names):
        raise NameClash("renaming collapses two generators onto one name")
    new_alg = FreeGradedAlgebra(
        [Generator(new_names[g.name], g.degree) for g in model.algebra.generators]
    )
    rho = Morphism(
        model.algebra, new_alg, {g.name: new_alg.gen(new_names[g.name]) for g in model.algebra.generators}
    )
    values = {new_names[g.name]: rho(model.d_of(g.name)) for g in model.algebra.generators}
    return CDGA(new_alg, Derivation(new_alg, 1, values))


def quotient_by_generators(model: CDGA, kill: Iterable[str]) -> CDGA:
    """Set the given generators to zero and push the differential through.

    The induced map on survivors is dbar(g) = d(g) with killed generators
    substituted by zero.  Raises NotDifferentialIdeal when dbar fails to
    square to zero.  When d of a killed generator does not itself die under
    the substitution the quotient is by generators rather than by the ideal
    they and their differentials generate; see killed_residues.
    """
    kill_set = set(kill)
    for name in kill_set:
        model.algebra.generator(name)
    survivors = [g for g in model.algebra.generators if g.name not in kill_set]
    small = FreeGradedAlgebra(survivors)
    pi = Morphism(
        model.algebra,
        small,
        {
            g.name: (small.zero() if g.name in kill_set else small.gen(g.name))
            for g in model.algebra.generators
        },
    )
    values = {g.name: pi(model.d_of(g.name)) for g in survivors}
    quotient = CDGA(small, Derivation(small, 1, values))
    failure = check_differential(quotient)
    if failure is not None:
        raise NotDifferentialIdeal(failure[0].name, failure[1])
    return quotient


def killed_residues(model: CDGA, kill: Iterable[str]) -> dict[str, Element]:
    """Nonzero images of d(killed generator) in the quotient algebra.

    Empty exactly when the ideal generated by the killed set is stable
    under the differential.
    """
    kill_set = set(kill)
    for name in kill_set:
        model.algebra.generator(name)
    survivors = [g for g in model.algebra.generators if g.name not in kill_set]
    small = FreeGradedAlgebra(survivors)
    pi = Morphism(
        model.algebra,
        small,
        {
            g.name: (small.zero() if g.name in kill_set else small.gen(g.name))
            for g in model.algebra.generators
        },
    )
    out: dict[str, Element] = {}
    for name in sorted(kill_set):
        residue = pi(model.d_of(name))
        if not residue.is_zero():
            out[name] = residue
    return out


# -- Koszul models ------------------------------------------------------------------


@dataclass(frozen=True)
class KoszulModel:
    """A one-variable Koszul model together with its quotient dimension oracle.

    H of the model equals the degreewise dimensions of A/zA; the
    non-zero-divisor hypothesis was verified for degrees <= checked_to.
    """

    model: CDGA
    cocycle: Element
    quotient_dims: tuple[int, ...]
    checked_to: int


def koszul_model(presentation: CDGA, z: Element, window: int, name: str = "sz") -> KoszulModel:
    """Adjoin an odd generator killing the even cocycle z.

    The presentation must carry the zero differential.  Injectivity of
    multiplication by z is checked degreewise up to the window via the
    multiplication matrix.
    """
    alg = presentation.algebra
    for g in alg.generators:
        if not presentation.d_of(g.name).is_zero():
            raise ValueError("koszul_model needs a presentation with zero differential")
    if z.algebra != alg:
        raise AlgebraMismatch("cocycle does not live in the presentation algebra")
    if z.is_zero():
        raise ValueError("cocycle must be nonzero")
    if not z.is_homogeneous():
        raise ParityError(f"Koszul cocycle must be homogeneous of even degree, got {z}")
    degree = z.degree()
    if degree % 2 != 0:
        raise ParityError(f"Koszul cocycle must be homogeneous of even degree, got {z}")
    if alg.has_generator(name):
        raise NameClash(f"generator name {name!r} already taken")

    # z is not a zero divisor in the window: a -> z*a injective per degree
    for n in range(window + 1):
        basis = alg.basis_in_degree(n)
        if not basis:
            continue
        target = alg.basis_in_degree(n + degree)
        index = {w: i for i, w in enumerate(target)}
        rows = [[Fraction(0)] * len(basis) for _ in target]
        for col, w in enumerate(basis):
            product = Element(alg, {w: Fraction(1)}) * z
            for word, coeff in product.terms.items():
                rows[index[word]][col] = coeff
        if linalg.rank(rows) != len(basis):
            raise ZeroDivisor(n, z)

    big = FreeGradedAlgebra(list(alg.generators) + [Generator(name, degree - 1)])
    values = {g.name: big.zero() for g in alg.generators}
    values[name] = transport(z, big)
    model = CDGA(big, Derivation(big, 1, values))

    dims = []
    for n in range(window + 1):
        dims.append(len(alg.basis_in_degree(n)) - len(alg.basis_in_degree(n - degree)))
    return KoszulModel(model, z, tuple(dims), window)


# -- indecomposables and minimality ----------------------------------------------


@dataclass(frozen=True)
class Indecomposables:
    """Generator span with the wordlength-one part of the differential."""

    algebra: FreeGradedAlgebra
    linear: dict[str, Element] = field(compare=False)

    def generators_in_degree(self, n: int) -> list[Generator]:
        return [g for g in self.algebra.generators if g.degree == n]

    @property
    def max_degree(self) -> int:
        gens = self.algebra.generators
        return max((g.degree for g in gens), default=0)


def indecomposables(model: CDGA) -> Indecomposables:
    """The complex A+/(A+ . A+): generators with the linear part of d."""
    linear = {
        g.name: model.d_of(g.name).wordlength_split(1) for g in model.algebra.generators
    }
    return Indecomposables(model.algebra, linear)


def linear_part_of_morphism(m: Morphism) -> dict[str, Element]:
    """The induced map on indecomposables, generator by generator."""
    return {
        g.name: m.image_of_generator(g.name).wordlength_split(1)
        for g in m.source.generators
    }


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
        offending: dict[Word, Fraction] = {}
        for word, coeff in model.d_of(g.name).terms.items():
            if word_length(word) != 1:
                continue
            index, _ = word[0]
            if model.algebra.generators[index].name in base_set:
                continue
            offending[word] = coeff
        if offending:
            return g, Element(model.algebra, offending)
    return None
