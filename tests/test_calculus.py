import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.algebra import Element, FreeGradedAlgebra, Generator, transport
from sullivan.calculus import (
    CDGA,
    Derivation,
    Morphism,
    check_chain_map,
    check_differential,
    indecomposables,
    killed_residues,
    koszul_model,
    loop_model,
    make_cdga,
    minimality_check,
    quotient_by_generators,
    rename_generators,
    suspension,
    tensor_cdga,
)
from sullivan.errors import (
    IncompleteDerivation,
    IncompleteMorphism,
    NameClash,
    NotDifferentialIdeal,
    ParityError,
    SuspensionDegreeError,
    ZeroDivisor,
)
from sullivan.homology import betti
from sullivan.models import Recipe, build

from helpers import builtin_models, cpn_model, even_sphere_model, random_monomial, s3_model, s3s3_model


# -- derivation extension ------------------------------------------------------------


def test_leibniz_on_even_sphere_relation():
    # d(v)=0, d(w)=v^2 applied to w*v = v*w gives v^2 * v = v^3
    model = even_sphere_model(1)
    v, w = model.algebra.gen("v"), model.algebra.gen("w")
    assert model.d(w * v) == v**3


def test_suspension_operator_on_square():
    alg = FreeGradedAlgebra([Generator("v", 2), Generator("sv", 1)])
    s = Derivation(alg, -1, {"v": alg.gen("sv"), "sv": alg.zero()})
    v, sv = alg.gen("v"), alg.gen("sv")
    assert s(v * v) == 2 * (v * sv)


def test_derivation_kills_unit():
    model = even_sphere_model(1)
    assert model.d(model.algebra.one()).is_zero()


def test_incomplete_derivation_raises_on_use():
    alg = FreeGradedAlgebra([Generator("v", 2), Generator("w", 3)])
    partial = Derivation(alg, 1, {"w": alg.gen("v") ** 2})
    assert partial(alg.gen("w")) == alg.gen("v") ** 2
    with pytest.raises(IncompleteDerivation):
        partial(alg.gen("v"))


def test_twisted_derivation_matches_composite():
    # d_target o m is an (m,m)-derivation; its extension from generator
    # values must agree with the composite everywhere.
    source = make_cdga([Generator("a", 2), Generator("b", 3), Generator("c", 5)])
    target = cpn_model(2)
    m = Morphism(
        source.algebra,
        target.algebra,
        {
            "a": target.algebra.gen("v"),
            "b": target.algebra.zero(),
            "c": target.algebra.gen("w"),
        },
    )
    twisted = Derivation(
        source.algebra,
        1,
        {name: target.d(m(source.algebra.gen(name))) for name in ("a", "b", "c")},
        target=target.algebra,
        along=m,
    )
    rng = random.Random(7)
    for _ in range(25):
        e = random_monomial(rng, source.algebra, 14)
        assert twisted(e) == target.d(m(e))


def _naive_derivation_apply(der, e):
    """Reference implementation: expand words fully and sum position terms."""
    target = der.target
    out = target.zero()
    f = der.along
    for word, coeff in e.terms.items():
        flat = []
        for i, exp in word:
            flat.extend([e.algebra.generators[i]] * exp)
        for pos in range(len(flat)):
            prefix_degree = sum(g.degree for g in flat[:pos])
            sign = -1 if (der.degree * prefix_degree) % 2 else 1
            term = target.one() * (coeff * sign)
            for g in flat[:pos]:
                term = term * (f.image_of_generator(g.name) if f else target.gen(g.name))
            term = term * der.value_on_generator(flat[pos].name)
            for g in flat[pos + 1:]:
                term = term * (f.image_of_generator(g.name) if f else target.gen(g.name))
            out = out + term
    return out


def test_derivation_extension_matches_naive_expansion():
    model = cpn_model(2)
    loop = loop_model(model)
    _, s = suspension(model)
    rng = random.Random(5)
    for der in (loop.differential, s):
        for _ in range(40):
            e = random_monomial(rng, loop.algebra, 14)
            assert der(e) == _naive_derivation_apply(der, e)


def test_twisted_extension_matches_naive_expansion():
    source = make_cdga([Generator("a", 2), Generator("b", 3), Generator("c", 5)])
    target = cpn_model(2)
    m = Morphism(
        source.algebra,
        target.algebra,
        {"a": target.algebra.gen("v"), "b": target.algebra.zero(),
         "c": target.algebra.gen("w")},
    )
    twisted = Derivation(
        source.algebra,
        1,
        {name: target.d(m(source.algebra.gen(name))) for name in ("a", "b", "c")},
        target=target.algebra,
        along=m,
    )
    rng = random.Random(13)
    for _ in range(40):
        e = random_monomial(rng, source.algebra, 14)
        assert twisted(e) == _naive_derivation_apply(twisted, e)


_WORD_ALGEBRA = FreeGradedAlgebra(
    [Generator("a", 2), Generator("b", 3), Generator("c", 4), Generator("e", 5)]
)


@st.composite
def elements_of_degree(draw, algebra, n, max_terms=3):
    """A random element of degree n (zero when the degree is empty)."""
    basis = algebra.basis_in_degree(n)
    if not basis:
        return algebra.zero()
    terms = {}
    for _ in range(draw(st.integers(min_value=0, max_value=max_terms))):
        word = draw(st.sampled_from(basis))
        terms[word] = Fraction(draw(st.integers(-3, 3)), draw(st.integers(1, 2)))
    return Element(algebra, terms)


@st.composite
def words_of(draw, algebra, max_exp):
    """A random canonical word as an element: any exponent up to max_exp on
    even generators, 0 or 1 on odd ones."""
    word = []
    for i, g in enumerate(algebra.generators):
        e = draw(st.integers(min_value=0, max_value=1 if g.is_odd else max_exp))
        if e:
            word.append((i, e))
    coeff = Fraction(draw(st.integers(1, 5)), draw(st.integers(1, 3)))
    return Element(algebra, {tuple(word): coeff})


@st.composite
def random_derivations(draw, source, target=None, along=None):
    """A derivation of random degree k in -1..2 with random generator values."""
    target = target if target is not None else source
    k = draw(st.integers(min_value=-1, max_value=2))
    values = {g.name: draw(elements_of_degree(target, g.degree + k)) for g in source.generators}
    return Derivation(source, k, values, target=target, along=along)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_word_derivation_matches_naive_on_large_exponents(data):
    der = data.draw(random_derivations(_WORD_ALGEBRA))
    e = data.draw(words_of(_WORD_ALGEBRA, max_exp=40))
    assert der(e) == _naive_derivation_apply(der, e)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_twisted_word_derivation_matches_naive(data):
    target = loop_model(cpn_model(2)).algebra
    m = Morphism(
        _WORD_ALGEBRA,
        target,
        {g.name: data.draw(elements_of_degree(target, g.degree, max_terms=2))
         for g in _WORD_ALGEBRA.generators},
    )
    der = data.draw(random_derivations(_WORD_ALGEBRA, target=target, along=m))
    e = data.draw(words_of(_WORD_ALGEBRA, max_exp=6)) + data.draw(words_of(_WORD_ALGEBRA, max_exp=6))
    assert der(e) == _naive_derivation_apply(der, e)


# -- morphism extension ----------------------------------------------------------------


def test_multiplication_morphism_kills_odd_square():
    source = FreeGradedAlgebra([Generator("v1", 3), Generator("v2", 3)])
    target = FreeGradedAlgebra([Generator("v", 3)])
    mu = Morphism(source, target, {"v1": target.gen("v"), "v2": target.gen("v")})
    assert mu(source.gen("v1") * source.gen("v2")).is_zero()


def test_morphism_kills_suspended_factor():
    source = FreeGradedAlgebra(
        [Generator("v1", 3), Generator("v2", 3), Generator("sv", 2)]
    )
    target = FreeGradedAlgebra([Generator("v", 3)])
    m = Morphism(
        source, target,
        {"v1": target.gen("v"), "v2": target.gen("v"), "sv": target.zero()},
    )
    assert m(source.gen("v1") * source.gen("sv")).is_zero()


def test_identity_morphism_is_identity():
    model = s3s3_model()
    ident = Morphism.identity(model.algebra)
    rng = random.Random(3)
    for _ in range(20):
        e = random_monomial(rng, model.algebra, 12)
        assert ident(e) == e


def test_incomplete_morphism_raises():
    alg = FreeGradedAlgebra([Generator("v", 2)])
    m = Morphism(alg, alg, {})
    with pytest.raises(IncompleteMorphism):
        m(alg.gen("v"))


def test_morphism_composition():
    model = cpn_model(2)
    there = rename_generators(model, {"v": "p", "w": "q"})
    to_renamed = Morphism(
        model.algebra, there.algebra,
        {"v": there.algebra.gen("p"), "w": there.algebra.gen("q")},
    )
    back = Morphism(
        there.algebra, model.algebra,
        {"p": model.algebra.gen("v"), "q": model.algebra.gen("w")},
    )
    assert to_renamed.then(back) == Morphism.identity(model.algebra)


# -- differential and chain-map checks ----------------------------------------------


def test_even_sphere_model_is_valid():
    assert check_differential(even_sphere_model(1)) is None
    assert check_differential(even_sphere_model(2)) is None


def test_mutated_differential_is_caught():
    # degree-consistent mutation d(v) = w against d(w) = v^2 breaks d*d = 0 at v
    alg = FreeGradedAlgebra([Generator("v", 2), Generator("w", 3)])
    bad = CDGA(alg, Derivation(alg, 1, {"v": alg.gen("w"), "w": alg.gen("v") ** 2}))
    failure = check_differential(bad)
    assert failure is not None
    gen, value = failure
    assert gen.name == "v"
    assert value == alg.gen("v") ** 2


def test_zero_differential_is_valid():
    assert check_differential(make_cdga([Generator("x", 4), Generator("y", 9)])) is None


def test_chain_map_to_itself():
    model = even_sphere_model(1)
    ident = Morphism.identity(model.algebra)
    assert check_chain_map(ident, model.differential, model.differential) is None


def test_chain_map_failure_reported_at_w():
    source = even_sphere_model(1)
    target = make_cdga([Generator("v", 2), Generator("w", 3)])  # zero differential
    m = Morphism.identity(source.algebra)
    m = Morphism(source.algebra, target.algebra,
                 {"v": target.algebra.gen("v"), "w": target.algebra.zero()})
    failure = check_chain_map(m, source.differential, target.differential)
    assert failure is not None
    assert failure[0].name == "w"


# -- suspension and loop models -----------------------------------------------------


def test_suspension_adds_shifted_generators():
    alg, s = suspension(s3_model())
    assert alg.generator("sv").degree == 2
    assert s(alg.gen("v")) == alg.gen("sv")
    assert s(alg.gen("sv")).is_zero()


def test_suspension_squares_to_zero():
    model = s3s3_model()
    alg, s = suspension(model)
    rng = random.Random(11)
    for _ in range(30):
        e = random_monomial(rng, alg, 12)
        assert s(s(e)).is_zero()


def test_suspension_rejects_degree_one():
    with pytest.raises(SuspensionDegreeError):
        suspension(make_cdga([Generator("t", 1)]))


def test_iterated_suspension_rejected():
    loop = loop_model(s3_model())
    with pytest.raises(NameClash):
        suspension(loop)


def test_loop_model_of_odd_sphere_has_zero_differential():
    loop = loop_model(s3_model())
    for g in loop.algebra.generators:
        assert loop.d_of(g.name).is_zero()
    names = {(g.name, g.degree) for g in loop.algebra.generators}
    assert names == {("v", 3), ("sv", 2)}


@pytest.mark.parametrize("d,n", [(2, 1), (2, 2), (2, 3), (4, 1), (8, 2)])
def test_loop_model_of_truncated_poly(d, n):
    model = build(Recipe("truncated_poly", (d, n)))
    loop = loop_model(model)
    assert loop.d_of("sv").is_zero()
    v, sv = loop.algebra.gen("v"), loop.algebra.gen("sv")
    assert loop.d_of("sw") == -(n + 1) * (v**n * sv)


def test_loop_model_of_product_is_zero():
    loop = loop_model(s3s3_model())
    assert all(loop.d_of(g.name).is_zero() for g in loop.algebra.generators)


def test_loop_anticommutation_and_square_on_generators_and_monomials():
    rng = random.Random(2024)
    for name, model in builtin_models():
        loop = loop_model(model)
        _, s = suspension(model)
        delta = loop.differential
        for g in loop.algebra.generators:
            e = loop.algebra.gen(g.name)
            assert (delta(s(e)) + s(delta(e))).is_zero(), name
        for _ in range(50):
            e = random_monomial(rng, loop.algebra, 12)
            assert (delta(s(e)) + s(delta(e))).is_zero(), name
            assert delta(delta(e)).is_zero(), name


def test_loop_model_is_valid_whenever_input_is():
    for name, model in builtin_models():
        assert check_differential(model) is None, name
        assert check_differential(loop_model(model)) is None, name


# -- tensor products and renaming ------------------------------------------------------


def test_tensor_of_odd_spheres():
    left = rename_generators(s3_model(), {"v": "y"})
    right = rename_generators(s3_model(), {"v": "z"})
    prod = tensor_cdga(left, right)
    assert {(g.name, g.degree) for g in prod.algebra.generators} == {("y", 3), ("z", 3)}
    assert all(prod.d_of(g.name).is_zero() for g in prod.algebra.generators)


def test_tensor_with_unit_algebra():
    unit = make_cdga([])
    model = even_sphere_model(1)
    prod = tensor_cdga(unit, model)
    assert prod == model


def test_tensor_name_clash():
    with pytest.raises(NameClash):
        tensor_cdga(s3_model(), s3_model())


def test_rename_introduces_koszul_sign():
    # y*z becomes y*a = -(a*y) once z is renamed below y
    alg = FreeGradedAlgebra([Generator("y", 3), Generator("z", 3), Generator("t", 5)])
    model = make_cdga([], {"t": 2 * (alg.gen("y") * alg.gen("z"))}, algebra=alg)
    renamed = rename_generators(model, {"z": "a"})
    new_alg = renamed.algebra
    assert renamed.d_of("t") == -2 * (new_alg.gen("a") * new_alg.gen("y"))


def test_rename_roundtrip_is_identity():
    model = cpn_model(2)
    there = rename_generators(model, {"v": "p", "w": "q"})
    back = rename_generators(there, {"p": "v", "q": "w"})
    assert back == model


# -- quotients -------------------------------------------------------------------------


def test_quotient_of_loop_model_by_base_generators():
    model = cpn_model(2)
    loop = loop_model(model)
    fiber = quotient_by_generators(loop, ["v", "w"])
    assert {(g.name, g.degree) for g in fiber.algebra.generators} == {("sv", 1), ("sw", 4)}
    assert all(fiber.d_of(g.name).is_zero() for g in fiber.algebra.generators)
    assert killed_residues(loop, ["v", "w"]) == {}


def test_quotient_by_nothing_is_identity():
    model = cpn_model(1)
    assert quotient_by_generators(model, []) == model


def test_quotient_killing_relation_target_is_accepted_with_residue():
    # killing w in the truncated polynomial model loses the relation d(w)=v^(n+1)
    model = cpn_model(2)
    result = quotient_by_generators(model, ["w"])
    assert [g.name for g in result.algebra.generators] == ["v"]
    assert result.d_of("v").is_zero()
    residues = killed_residues(model, ["w"])
    assert set(residues) == {"w"}
    assert str(residues["w"]) == "v^3"


def test_fiber_of_loop_model_over_zero_differential_base():
    # killing every base generator of the loop model of (Lambda V, 0) leaves
    # (Lambda sV, 0); Betti numbers are plain monomial counts of Lambda sV
    for recipe in [Recipe("h_space", (3, 3, 5)), Recipe("odd_sphere", (2,)),
                   Recipe("h_space", (2, 4))]:
        model = build(recipe)
        loop = loop_model(model)
        base = [g.name for g in model.algebra.generators]
        fiber = quotient_by_generators(loop, base)
        assert all(fiber.d_of(g.name).is_zero() for g in fiber.algebra.generators)
        computed = betti(fiber, 10).betti
        expected = tuple(len(fiber.algebra.basis_in_degree(n)) for n in range(11))
        assert computed == expected


def test_quotient_rejects_broken_differential():
    # d(x)=v^2, d(g)=x*v-u, d(u)=v^3 is a valid model, but killing x breaks
    # the induced differential: dbar(dbar(g)) = -v^3 != 0
    alg = FreeGradedAlgebra(
        [Generator("v", 2), Generator("x", 3), Generator("g", 4), Generator("u", 5)]
    )
    v, x, u = alg.gen("v"), alg.gen("x"), alg.gen("u")
    model = CDGA(
        alg,
        Derivation(alg, 1, {"v": alg.zero(), "x": v**2, "g": x * v - u, "u": v**3}),
    )
    assert check_differential(model) is None
    with pytest.raises(NotDifferentialIdeal) as info:
        quotient_by_generators(model, ["x"])
    assert info.value.generator == "g"
    # killing x and u together leaves (Lambda(v, g), 0), with residues recorded
    survived = quotient_by_generators(model, ["x", "u"])
    assert all(survived.d_of(g.name).is_zero() for g in survived.algebra.generators)
    assert set(killed_residues(model, ["x", "u"])) == {"x", "u"}


# -- Koszul models -----------------------------------------------------------------------


def test_koszul_truncated_polynomial_dims():
    # oracle: k[x]/x^3 has dimension 1 in degrees 0, 2, 4
    A = make_cdga([Generator("x", 2)])
    k = koszul_model(A, A.algebra.gen("x") ** 3, 12)
    expected = tuple(1 if (n % 2 == 0 and n < 6) else 0 for n in range(13))
    assert k.quotient_dims == expected
    assert tuple(betti(k.model, 12).betti) == expected
    assert k.model.d_of("sz") == transport(A.algebra.gen("x") ** 3, k.model.algebra)


def test_koszul_by_the_generator_itself():
    A = make_cdga([Generator("x", 2)])
    k = koszul_model(A, A.algebra.gen("x"), 10)
    assert k.quotient_dims == (1,) + (0,) * 10
    assert tuple(betti(k.model, 10).betti) == k.quotient_dims


def test_koszul_matches_direct_model_of_relation():
    # Lambda(x1, x2, y) with d(y) = x1*x2 is quasi-isomorphic to
    # Lambda(x1, x2)/(x1*x2); compare Koszul dims against that model's betti
    presentation = make_cdga([Generator("x1", 2), Generator("x2", 2)])
    z = presentation.algebra.gen("x1") * presentation.algebra.gen("x2")
    k = koszul_model(presentation, z, 12)

    alg = FreeGradedAlgebra([Generator("x1", 2), Generator("x2", 2), Generator("y", 3)])
    direct = CDGA(
        alg,
        Derivation(alg, 1, {"x1": alg.zero(), "x2": alg.zero(),
                            "y": alg.gen("x1") * alg.gen("x2")}),
    )
    assert tuple(betti(direct, 12).betti) == k.quotient_dims
    assert tuple(betti(k.model, 12).betti) == k.quotient_dims


def test_koszul_rejects_odd_cocycle():
    A = make_cdga([Generator("x", 2), Generator("u", 3)])
    with pytest.raises(ParityError):
        koszul_model(A, A.algebra.gen("u"), 8)
    with pytest.raises(ParityError):
        koszul_model(A, A.algebra.gen("x") + A.algebra.one(), 8)


def test_koszul_rejects_zero_divisor():
    A = make_cdga([Generator("x", 2), Generator("u", 3), Generator("t", 3)])
    z = A.algebra.gen("u") * A.algebra.gen("t")  # even degree, kills u
    with pytest.raises(ZeroDivisor):
        koszul_model(A, z, 8)


# -- indecomposables and minimality -------------------------------------------------------


def _relative_model_of_multiplication_of_odd_sphere():
    alg = FreeGradedAlgebra([Generator("v1", 3), Generator("v2", 3), Generator("sv", 2)])
    d = Derivation(alg, 1, {"v1": alg.zero(), "v2": alg.zero(),
                            "sv": alg.gen("v2") - alg.gen("v1")})
    return CDGA(alg, d)


def test_indecomposables_of_relative_model():
    model = _relative_model_of_multiplication_of_odd_sphere()
    q = indecomposables(model)
    alg = model.algebra
    assert q.linear["sv"] == alg.gen("v2") - alg.gen("v1")
    assert q.linear["v1"].is_zero() and q.linear["v2"].is_zero()


def test_indecomposables_of_minimal_models_vanish():
    for name, model in builtin_models():
        q = indecomposables(model)
        assert all(v.is_zero() for v in q.linear.values()), name


def test_minimality_of_relative_models():
    model = _relative_model_of_multiplication_of_odd_sphere()
    assert minimality_check(model, base=["v1", "v2"]) is None
    # but as an absolute model the linear term at sv is a violation
    violation = minimality_check(model)
    assert violation is not None and violation[0].name == "sv"


def test_minimality_of_loop_relative_model():
    loop = loop_model(cpn_model(2))
    assert minimality_check(loop, base=["v", "w"]) is None


def test_linear_differential_violates_minimality():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 1)])
    model = CDGA(alg, Derivation(alg, 1, {"b": alg.gen("a"), "a": alg.zero()}))
    violation = minimality_check(model)
    assert violation is not None and violation[0].name == "b"
    assert violation[1] == alg.gen("a")


# -- Leibniz property test -------------------------------------------------------------


_LEIBNIZ_MODEL = cpn_model(2)
_LOOP = loop_model(_LEIBNIZ_MODEL)
_, _S = suspension(_LEIBNIZ_MODEL)
_DERIVATIONS = {"delta(+1)": (_LOOP.differential, 1), "s(-1)": (_S, -1)}


@st.composite
def loop_monomials(draw, max_degree=12):
    degrees = [n for n in range(max_degree + 1) if _LOOP.algebra.basis_in_degree(n)]
    n = draw(st.sampled_from(degrees))
    word = draw(st.sampled_from(_LOOP.algebra.basis_in_degree(n)))
    return Element(_LOOP.algebra, {word: Fraction(1)})


@settings(max_examples=80)
@given(st.sampled_from(sorted(_DERIVATIONS)), loop_monomials(), loop_monomials())
def test_leibniz_rule(key, a, b):
    der, k = _DERIVATIONS[key]
    sign = -1 if (k * a.degree()) % 2 else 1
    assert der(a * b) == der(a) * b + sign * (a * der(b))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(_DERIVATIONS)), loop_monomials(max_degree=30))
def test_word_derivation_matches_naive_on_loop_words(key, e):
    der, _ = _DERIVATIONS[key]
    assert der(e) == _naive_derivation_apply(der, e)
