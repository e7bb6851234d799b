"""Built-in model library and constructive algorithms.

Recipes cover the standard small models: spheres, truncated polynomial
cohomology (projective spaces), zero-differential algebras, and tensor
products of other recipes.  `recipe_from_args` maps command-line names to
recipes and checks only names and parameter counts; `build` is where
parameter ranges are checked.  On top of those sit the inductive relative
model of the multiplication map, the closed-form free-loop cohomology of
truncated polynomial spaces, and the witness-cocycle families showing
unbounded loop-space Betti numbers, built and certified in the loop model
itself (`vps_witnesses_for_model`, `certify_in_window`).  Every map between
algebras here, inclusions and quotient maps included, is a `Morphism`, and
every model is a `CDGA` built from its algebra and the values of d.
"""

from __future__ import annotations

from math import lcm
from typing import TYPE_CHECKING, Mapping, NamedTuple

from . import linalg
from .algebra import Element, FreeGradedAlgebra, Generator, word_length
from .calculus import (
    CDGA,
    Derivation,
    Morphism,
    minimality_check,
    quotient_by_generators,
    rename_generators,
    require_valid,
    suspended_name,
    tensor_cdga,
)
from .errors import DIGIT_LIMIT, NotApplicable, WindowTooSmall, read_integer

if TYPE_CHECKING:
    from .homology import Cocycles

# -- recipes ----------------------------------------------------------------------


class Recipe(NamedTuple):
    kind: str
    params: tuple

    def __str__(self) -> str:
        return f"{self.kind}({', '.join(str(p) for p in self.params)})"


def product(*recipes: Recipe) -> Recipe:
    return Recipe("product", tuple(recipes))


def build(recipe: Recipe) -> CDGA:
    """Construct the model a recipe describes; parameters are validated."""
    kind, params = recipe.kind, recipe.params
    if kind == "odd_sphere":
        (n,) = params
        if n < 0:
            raise ValueError("odd_sphere needs n >= 0")
        return CDGA(FreeGradedAlgebra([Generator("v", 2 * n + 1)]))
    if kind == "even_sphere":
        (n,) = params
        if n < 1:
            raise ValueError("even_sphere needs n >= 1")
        alg = FreeGradedAlgebra([Generator("v", 2 * n), Generator("w", 4 * n - 1)])
        return CDGA(alg, {"w": alg.gen("v") ** 2})
    if kind == "truncated_poly":
        d, n = params
        if d < 2 or d % 2 != 0:
            raise ValueError("truncated_poly needs even d >= 2")
        if n < 1:
            raise ValueError("truncated_poly needs n >= 1")
        alg = FreeGradedAlgebra([Generator("v", d), Generator("w", d * (n + 1) - 1)])
        return CDGA(alg, {"w": alg.gen("v") ** (n + 1)})
    if kind == "h_space":
        if not params:
            raise ValueError("h_space needs at least one degree")
        if min(params) < 1:
            raise ValueError("h_space needs degrees >= 1")
        return CDGA(FreeGradedAlgebra([Generator(f"x{i + 1}", d) for i, d in enumerate(params)]))
    if kind == "product":
        if len(params) < 2:
            raise ValueError("product needs at least two factors")
        factors = []
        for i, sub in enumerate(params):
            model = build(sub)
            mapping = {g.name: f"{g.name}_{i + 1}" for g in model.algebra.generators}
            factors.append(rename_generators(model, mapping))
        return tensor_cdga(*factors)
    raise ValueError(f"unknown recipe kind {kind!r}")


# CLI recipe name -> (recipe kind, leading parameters, parameter count or None for any)
_RECIPES = {
    "odd-sphere": ("odd_sphere", (), 1),
    "even-sphere": ("even_sphere", (), 1),
    "cpn": ("truncated_poly", (2,), 1),
    "truncated-poly": ("truncated_poly", (), 2),
    "h-space": ("h_space", (), None),
}


def recipe_from_args(name: str, args: list[str]) -> Recipe:
    """Recipe from CLI-style arguments, e.g. ("product", ["odd-sphere:1", ...]).

    Only names, parameter counts and that each parameter is an integer are
    checked here; `build` checks ranges.
    """
    if name == "product":
        if len(args) < 2:
            raise ValueError("product needs at least two factor specs")
        return product(*(recipe_from_spec(spec) for spec in args))
    if name not in _RECIPES:
        raise ValueError(f"unknown recipe {name!r}")
    kind, leading, count = _RECIPES[name]
    if count is not None and len(args) != count:
        raise ValueError(f"{name} takes {count} parameter(s)")
    return Recipe(kind, leading + tuple(_parameter(name, a) for a in args))


def _parameter(name: str, text: str) -> int:
    value = read_integer(text)
    if value is None:
        if len(text) <= DIGIT_LIMIT:
            raise ValueError(f"{name} parameter {text!r} is not an integer")
        # the text is not echoed
        raise ValueError(f"{name} parameter is not an integer of at most {DIGIT_LIMIT} digits")
    return value


def recipe_from_spec(spec: str) -> Recipe:
    """Recipe from a colon-joined spec like "odd-sphere:1" or "truncated-poly:2:3"."""
    parts = spec.split(":")
    return recipe_from_args(parts[0], parts[1:])


# -- relative model of the multiplication -----------------------------------------


class MultiplicationModel(NamedTuple):
    """Relative model of the multiplication map of a minimal model.

    The carrier holds two renamed copies of every generator plus one
    suspended generator each; phi is the quasi-isomorphism onto the
    diagonal sending both copies to the original and suspensions to zero.
    The correction of v is gamma = v_1 - v_2 - D(sv).
    """

    model: CDGA
    phi: Morphism
    target: CDGA
    base: tuple[str, ...]


def multiplication_model(model: CDGA, max_degree: int | None = None) -> MultiplicationModel:
    """Inductive construction of the multiplication model, truncated at max_degree.

    Processes generators by increasing degree.  For each one the suspended
    generator receives D(sv) = v_1 - v_2 - gamma where gamma solves
    D(gamma) = dv_1 - dv_2 with phi(gamma) = 0 over the decomposable
    monomials in the previously built generators; the solution is the
    deterministic reduced-echelon one over all of them, found from the
    shortest prefix of them that spans the right-hand side (see
    `_solve_gamma`).
    """
    require_valid(model)
    violation = minimality_check(model)
    if violation is not None:
        raise ValueError(f"model is not minimal: linear term {violation[1]} at {violation[0].name}")
    for g in model.algebra.generators:
        if g.degree < 2:
            raise ValueError("multiplication model needs generators of degree >= 2")
    if max_degree is None:
        max_degree = max((g.degree for g in model.algebra.generators), default=0)

    # d of a kept generator involves only lower, hence kept, generators, so
    # killing the generators above max_degree truncates the model
    target, _ = quotient_by_generators(
        model, [g.name for g in model.algebra.generators if g.degree > max_degree]
    )
    target_alg = target.algebra
    kept = target_alg.generators

    # each generator v has the copies v_1 and v_2 in the base and the suspension sv
    copies = {g.name: (f"{g.name}_1", f"{g.name}_2") for g in kept}
    big = FreeGradedAlgebra([Generator(c, g.degree) for g in kept for c in copies[g.name]]
                            + [Generator(suspended_name(g.name), g.degree - 1) for g in kept])

    # gamma is solved for only where dv != 0 (then dv_1 - dv_2 != 0), in
    # degree |v| with rows in degree |v| + 1, so list no higher and, when
    # every dv is zero, nothing
    top = max((g.degree for g in kept if not target.d_of(g.name).is_zero()), default=None)
    bases, target_bases = (big.bases(top + 1), target_alg.bases(top)) if top is not None else ((), ())

    copy_maps = [Morphism(target_alg, big, {v: big.gen(pair[k]) for v, pair in copies.items()})
                 for k in (0, 1)]
    phi = Morphism(big, target_alg, {c: target_alg.gen(v) for v, pair in copies.items() for c in pair})

    d_values: dict[str, Element] = {}
    for g in kept:
        v1, v2 = copies[g.name]
        dv = target.d_of(g.name)
        d_values[v1], d_values[v2] = (m(dv) for m in copy_maps)
        rhs = d_values[v1] - d_values[v2]
        if rhs.is_zero():
            gamma = big.zero()
        else:
            gamma = _solve_gamma(Derivation(big, 1, d_values), phi, g, rhs, bases, target_bases)
        d_values[suspended_name(g.name)] = big.gen(v1) - big.gen(v2) - gamma

    base = tuple(c for pair in copies.values() for c in pair)
    return MultiplicationModel(CDGA(big, d_values), phi, target, base)


def _solve_gamma(derivation, phi, g, rhs, bases, target_bases):
    # Every letter has degree >= 1, so a word of two or more letters in
    # degree |g| holds only letters of degree < |g|: copies of generators of
    # lower degree, and suspensions of generators of degree <= |g|.  Of
    # these, only the suspensions of the generators of degree |g| are not
    # built before g.
    big = derivation.source
    unbuilt = {big.index_of(suspended_name(h.name)) for h in phi.target.generators if h.degree == g.degree}
    candidates = [w for w in bases[g.degree] if word_length(w) >= 2 and not any(i in unbuilt for i, _ in w)]
    # A stacks the rows of D(gamma) = rhs, one per degree-(|g|+1) word, over
    # those of phi(gamma) = 0, one per degree-|g| word of the target.  One
    # echelon is seeded with -rhs as column 0, and each candidate is mapped
    # and added only when it is reached, up to the first candidate c_k whose
    # relation z has z[0] != 0; kernel_vector(z, 0) is then (1, x) with
    # A x = rhs, x read over the candidates with indices shifted by one.
    # This x is the reduced-echelon solution over every candidate:
    # - an echelon keeps a column iff it is independent of the columns
    #   before it, so the columns kept from a prefix are a prefix of the ones
    #   kept from the whole list (the greedy basis);
    # - seeded with -rhs, the first c_k whose relation has z[0] != 0 is the
    #   first k with rhs in span(c_1 .. c_k); before it the seed changes no
    #   verdict, and c_k itself is in the greedy basis;
    # - so the coordinates of rhs in the columns kept up to c_k are its
    #   coordinates in the whole greedy basis, Fraction for Fraction;
    # - `str`, `==` and `hash` agree on 2 and Fraction(2, 1), so a kernel
    #   vector that stays an int where it divides changes no text either.
    # The system is consistent iff some prefix spans rhs, so WindowTooSmall
    # is raised iff no candidate closes one.
    d_rows = bases[g.degree + 1]
    d_column, phi_column = linalg.coordinates(d_rows), linalg.coordinates(target_bases[g.degree])
    echelon = linalg.Echelon([d_column((-rhs).terms)])
    for w in candidates:
        column = d_column(derivation.on_word(w))
        column.update((len(d_rows) + r, c) for r, c in phi_column(phi.on_word(w)).items())
        z = echelon.add(column)
        if z is not None and 0 in z:
            return Element(big, {candidates[c - 1]: x for c, x in linalg.kernel_vector(z, 0).items() if c})
    raise WindowTooSmall(f"no decomposable correction of degree {g.degree} for generator {g.name!r}")


# -- closed-form loop cohomology for truncated polynomial spaces -------------------


class ClosedFormLoopCohomology(NamedTuple):
    """Basis labels with degrees, and the induced dimension vector."""

    entries: tuple[tuple[int, str], ...]
    dims: tuple[int, ...]


def loop_cohomology_closed_form(d: int, n: int, max_degree: int) -> ClosedFormLoopCohomology:
    """Enumerate the loop-space cohomology basis of a truncated polynomial space.

    The unit; v^p (sw)^i for 1 <= p <= n; and v^p sv (sw)^i for
    0 <= p <= n-1, listed up to max_degree.  Every degree has dimension
    at most one.
    """
    if d < 2 or d % 2 != 0:
        raise ValueError("need even d >= 2")
    if n < 1:
        raise ValueError("need n >= 1")
    sw_deg = d * (n + 1) - 2
    entries: list[tuple[int, str]] = [(0, "1")]

    def power(name: str, e: int) -> str:
        if e == 0:
            return ""
        return name if e == 1 else f"{name}^{e}"

    for sv, sv_deg, powers in (("", 0, range(1, n + 1)), ("sv", d - 1, range(n))):
        for p in powers:
            i = 0
            while p * d + sv_deg + i * sw_deg <= max_degree:
                label = "*".join(x for x in (power("v", p), sv, power("sw", i)) if x)
                entries.append((p * d + sv_deg + i * sw_deg, label))
                i += 1
    entries.sort()
    dims = [0] * (max_degree + 1)
    for degree, _ in entries:
        dims[degree] += 1
    if max(dims) > 1:
        raise AssertionError("closed-form degrees collide; enumeration is wrong")
    return ClosedFormLoopCohomology(tuple(entries), tuple(dims))


# -- witness families ---------------------------------------------------------------


class WitnessEntry(NamedTuple):
    k: int
    degree: int
    exponent_pairs: tuple[tuple[int, int], ...]
    witnesses: tuple[Element, ...]
    cocycles_verified: bool
    independent: bool

    @property
    def count(self) -> int:
        return len(self.exponent_pairs)

    @property
    def certified(self) -> bool:
        return self.cocycles_verified and self.independent


class WitnessReport(NamedTuple):
    even_gens: tuple[str, ...]
    y: str
    z: str
    period: int
    entries: tuple[WitnessEntry, ...]


def vps_witnesses_for_model(loop: CDGA, k_max: int) -> WitnessReport:
    """Monomial witness families sx_1...sx_n (sy)^p (sz)^q of a loop model
    (`loop_model` of a base model), words of the loop model, k+1 per level k.

    The base generators are those with a suspended partner: x_1..x_n are the
    even ones, and y, z the first two odd ones; fewer than two odd ones is
    `NotApplicable`.  Level k collects the exponent pairs with
    p|sy| + q|sz| = k lcm(|sy|,|sz|).  A level's `cocycles_verified` says
    that the loop differential of each of its witnesses is zero, and its
    `independent` only that they are distinct nonzero words, as it keeps
    saying outside a window; no basis is listed.
    """
    algebra = loop.algebra
    base = [g for g in algebra.generators if algebra.has_generator(suspended_name(g.name))]
    even = tuple(g.name for g in base if g.degree % 2 == 0)
    odd = [g.name for g in base if g.degree % 2]
    if len(odd) < 2:
        raise NotApplicable(f"witness construction needs at least two odd generators, found {len(odd)}")
    y, z = odd[:2]
    sx = algebra.one()
    for name in even:
        sx = sx * algebra.gen(suspended_name(name))
    sx_degree = sum(algebra.generator(suspended_name(name)).degree for name in even)
    sy, sz = algebra.gen(suspended_name(y)), algebra.gen(suspended_name(z))
    sy_deg, sz_deg = sy.degree(), sz.degree()
    period = lcm(sy_deg, sz_deg)

    entries = []
    for k in range(k_max + 1):
        pairs = tuple((i * period // sy_deg, (k - i) * period // sz_deg) for i in range(k + 1))
        witnesses = tuple(sx * sy**p * sz**q for p, q in pairs)
        cocycles = all(loop.d(w).is_zero() for w in witnesses)
        # a witness is one word or zero, so the words number count iff all are distinct and nonzero
        distinct = len({word for w in witnesses for word in w.terms}) == len(witnesses)
        entries.append(WitnessEntry(k, sx_degree + k * period, pairs, witnesses, cocycles, distinct))
    return WitnessReport(even, y, z, period, tuple(entries))


def certify_in_window(report: WitnessReport, cocycles: Mapping[int, Cocycles]) -> WitnessReport:
    """The report with each level inside a window of its loop model certified
    in H(LX), `cocycles` being the window's `Cocycles` by degree: `independent`
    is then true iff every witness is a cocycle and adds a new class to its
    degree's `Cocycles` (the witnesses stay added), which proves count <= b_n."""
    return report._replace(entries=tuple(
        e._replace(independent=e.cocycles_verified and all(map(cocycles[e.degree].add, e.witnesses)))
        if e.degree in cocycles else e
        for e in report.entries))
