"""The package's value records: construction checks, equality and immutability."""

import copy
import pickle

import pytest

from sullivan.algebra import FreeGradedAlgebra, Generator
from sullivan.calculus import CDGA, Derivation, Morphism, koszul_model, loop_model
from sullivan.errors import AlgebraMismatch, UnknownGenerator
from sullivan.homology import assemble_window, betti
from sullivan.models import (
    Recipe,
    build,
    loop_cohomology_closed_form,
    multiplication_model,
    product,
    vps_witnesses_for_model,
)
from sullivan.series import parse_rational

from helpers import cpn, cpn_model, odd_sphere, quasi_iso_check, s3_model, s3s3_model


def one_of_each_record():
    s3, cp2 = s3_model(), cpn_model(2)
    presentation = CDGA(FreeGradedAlgebra([Generator("x", 2)]))
    quasi = quasi_iso_check(s3, s3, Morphism.inclusion(s3.algebra, s3.algebra), 3)
    witnesses = vps_witnesses_for_model(loop_model(s3s3_model()), 1)
    return [  # (record, one of its fields)
        (Generator("v", 2), "name"),
        (cp2, "algebra"),
        (koszul_model(presentation, presentation.algebra.gen("x") ** 2, 4), "model"),
        (assemble_window(s3, 3), "bases"),
        (betti(s3, 3), "betti"),
        (quasi.per_degree[0], "degree"),
        (quasi, "per_degree"),
        (cpn(2), "kind"),
        (multiplication_model(s3), "phi"),
        (loop_cohomology_closed_form(2, 1, 6), "dims"),
        (witnesses.entries[0], "witnesses"),
        (witnesses, "entries"),
        (parse_rational("1/(1-z^2)", 4), "numerator"),
    ]


RECORDS = one_of_each_record()


def test_every_record_type_is_covered():
    assert len({type(record) for record, _ in RECORDS}) == 13


def test_every_record_is_a_tuple():
    for record, _ in RECORDS:
        assert isinstance(record, tuple), type(record).__name__


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_reject_assignment_and_deletion(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, None)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.not_a_field = 1
    getattr(record, field)  # still there


@pytest.mark.parametrize("record, field", RECORDS, ids=[type(r).__name__ for r, _ in RECORDS])
def test_records_survive_copy_and_pickle(record, field):
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is type(record) and clone == record
        assert getattr(clone, field) == getattr(record, field)


def test_generator_checks_its_name_and_degree():
    with pytest.raises(ValueError, match="non-empty"):
        Generator("", 2)
    for degree in (0, -1):
        with pytest.raises(ValueError, match="degree >= 1"):
            Generator("x", degree)
    assert Generator(name="x", degree=2) == Generator("x", 2)
    assert Generator("x", 2) != Generator("x", 3)
    assert hash(Generator("x", 2)) == hash(Generator("x", 2))
    assert Generator("x", 2) == ("x", 2) and hash(Generator("x", 2)) == hash(("x", 2))
    assert repr(Generator("x", 2)) == "Generator('x', 2)"


def test_cdga_checks_its_differential():
    a = FreeGradedAlgebra([Generator("x", 2), Generator("w", 3)])
    b = FreeGradedAlgebra([Generator("y", 2)])
    with pytest.raises(AlgebraMismatch):
        CDGA(a, {"w": b.gen("y") ** 2})
    with pytest.raises(ValueError, match="degree"):
        CDGA(a, {"w": a.gen("x")})
    with pytest.raises(UnknownGenerator):
        CDGA(a, {"y": a.gen("x") ** 2})
    assert CDGA(a).d_of("x").is_zero() and CDGA(a, {"w": a.gen("x") ** 2}).d_of("x").is_zero()
    same = CDGA(a, {"w": a.gen("x") ** 2})
    other = CDGA(a, {"x": a.zero(), "w": a.gen("x") ** 2})
    assert same == other and hash(same) == hash(other)
    assert repr(same) == f"CDGA(algebra={a!r}, differential={same.differential!r})"
    assert len(same) == 2 and tuple(same) == (a, same.differential) and same == (a, other.differential)


def test_derivations_compare_by_value():
    a = FreeGradedAlgebra([Generator("x", 2), Generator("w", 3)])
    values = {"w": a.gen("x") ** 2}
    d = CDGA(a, values).differential
    assert d == CDGA(a, dict(values)).differential and d != CDGA(a).differential
    assert Derivation(a, 1, {}) != Derivation(a, -1, {})
    identity = {"x": a.gen("x"), "w": a.gen("w")}
    assert Derivation(a, 0, identity) != Morphism(a, a, identity)
    assert Morphism(a, a, identity) == Morphism.inclusion(a, a)
    with pytest.raises(TypeError):
        hash(d)


def test_d_of_an_unknown_name_raises_unknown_generator():
    a = FreeGradedAlgebra([Generator("x", 2), Generator("w", 3)])
    with pytest.raises(UnknownGenerator, match="'nope'"):
        CDGA(a, {"w": a.gen("x") ** 2}).d_of("nope")


def test_recipe_keeps_its_equality_and_str():
    assert odd_sphere(1) == Recipe("odd_sphere", (1,))
    assert odd_sphere(1) != Recipe("even_sphere", (1,))
    assert hash(odd_sphere(1)) == hash(Recipe("odd_sphere", (1,)))
    recipe = product(odd_sphere(1), cpn(2))
    assert str(recipe) == "product(odd_sphere(1), truncated_poly(2, 2))"
    assert repr(odd_sphere(1)) == "Recipe(kind='odd_sphere', params=(1,))"
    assert build(recipe) == build(product(odd_sphere(1), cpn(2)))

