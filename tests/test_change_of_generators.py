"""A metamorphic oracle: a random change of generators (Chen, Cheung & Yiu, 1998).

A triangular automorphism phi of a free algebra sends each generator v_i to
s_i v_i, s_i a nonzero rational, plus a random rational combination of the
words of degree |v_i| in the generators before it in canonical order: the
other generators of its degree, so that it mixes them by an invertible
triangular matrix, and products of generators of lower degree.  Its inverse
follows by substitution, and d' = phi d phi^-1 is an isomorphic model whose
values hold coefficients such as 16/3 and 64/27, which no golden model has.
Every invariant must survive it: the Betti numbers of the model and of its
loop space, the four verdicts on its multiplication model, and phi is a
quasi-isomorphism from the model to the changed one.
"""

import random
from fractions import Fraction

import pytest

from sullivan.algebra import Element
from sullivan.calculus import CDGA, Morphism, check_chain_map, check_differential, loop_model, minimality_check
from sullivan.homology import betti, quasi_iso_via_indecomposables
from sullivan.modelfile import parse
from sullivan.models import multiplication_model

from helpers import quasi_iso_check

MODELS = {
    "cp2xcp2": "generator a 2\ngenerator b 2\ngenerator x 5\ngenerator y 5\nd x = a^3\nd y = b^3\n",
    "s2xs3": "generator a 2\ngenerator b 3\ngenerator c 3\nd c = a^2\n",
    "s3xs3": "generator y 3\ngenerator z 3\n",
    # products of earlier generators: b may gain a^2, and y may gain a*x
    "cp2xs4": "generator a 2\ngenerator b 4\ngenerator x 5\ngenerator y 7\nd x = a^3\nd y = b^2\n",
}
MAX_DEGREE = 14
SEEDS = (1, 2, 3)


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))


def change_of_generators(model: CDGA, seed: int) -> tuple[Morphism, Morphism]:
    """A seeded triangular automorphism phi of the model's algebra and its inverse."""
    rng = random.Random(seed)
    alg = model.algebra
    bases = alg.bases(alg.generators[-1].degree)
    phi, inverse = {}, {}
    for i, g in enumerate(alg.generators):
        rest = Element(alg, {w: _rational(rng) for w in bases[g.degree] if all(j < i for j, _ in w)})
        scale = _rational(rng)
        phi[g.name] = alg.gen(g.name) * scale + rest
        # phi(v_i) = s v_i + r(earlier letters), so phi^-1(v_i) = (v_i - r(phi^-1(earlier letters))) / s
        inverse[g.name] = (alg.gen(g.name) - Morphism(alg, alg, inverse)(rest)) * (1 / scale)
    return Morphism(alg, alg, phi), Morphism(alg, alg, inverse)


def changed_model(model: CDGA, phi: Morphism, inverse: Morphism) -> CDGA:
    """(Lambda V, phi d phi^-1)."""
    alg = model.algebra
    return CDGA(alg, {g.name: phi(model.d(inverse(alg.gen(g.name)))) for g in alg.generators})


def multiplication_verdicts(model: CDGA) -> tuple[bool, bool, bool, bool]:
    """d^2 = 0, chain map, quasi-isomorphism on indecomposables, minimality: the
    four verdicts of `mult-model`."""
    mm = multiplication_model(model, MAX_DEGREE)
    return (check_differential(mm.model) is None,
            check_chain_map(mm.phi, mm.model.differential, mm.target.differential) is None,
            quasi_iso_via_indecomposables(mm.model, mm.target, mm.phi).is_quasi_iso,
            minimality_check(mm.model, mm.base) is None)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", MODELS)
def test_a_random_change_of_generators_changes_no_invariant(name, seed):
    model = parse(MODELS[name])
    phi, inverse = change_of_generators(model, seed)
    for g in model.algebra.generators:
        v = model.algebra.gen(g.name)
        assert inverse(phi(v)) == v == phi(inverse(v))
    changed = changed_model(model, phi, inverse)
    assert check_differential(changed) is None
    assert check_chain_map(phi, model.differential, changed.differential) is None
    assert betti(changed, MAX_DEGREE).betti == betti(model, MAX_DEGREE).betti
    assert betti(loop_model(changed), MAX_DEGREE).betti == betti(loop_model(model), MAX_DEGREE).betti
    assert multiplication_verdicts(changed) == multiplication_verdicts(model) == (True,) * 4
    assert quasi_iso_check(model, changed, phi, MAX_DEGREE).is_quasi_iso


def _denominators(model: CDGA) -> set[int]:
    return {c.denominator for value in model.differential.values.values() for c in value.terms.values()}


@pytest.mark.parametrize("name", ["cp2xcp2", "s2xs3", "cp2xs4"])
def test_the_changed_models_leave_the_integers(name):
    model = parse(MODELS[name])
    changed = [changed_model(model, *change_of_generators(model, seed)) for seed in SEEDS]
    assert max(d for m in changed for d in _denominators(m)) > 1
    assert max(d for m in changed for d in _denominators(loop_model(m))) > 1
