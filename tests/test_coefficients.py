"""The coefficient rule: a coefficient is whatever exact Python arithmetic
gives, so an `int` stays an `int`, and a `Fraction` is made only where the
program divides and the quotient is not an integer.  No path may make a
`float`."""

import ast
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.calculus import Morphism, loop_model, suspended_name
from sullivan.homology import assemble_window, betti
from sullivan.modelfile import parse
from sullivan.models import build, multiplication_model, product

from helpers import builtin_models, cpn, even_sphere

SRC = Path(__file__).resolve().parent.parent / "src" / "sullivan"

# The two divisions: the `/` literal of a model file, and the kernel vector
# z / z[index] of a relation, which makes both a class and the correction of
# a multiplication model.
DIVISIONS = [
    ("linalg.py", "kernel_vector"),
    ("modelfile.py", "_ExprParser.number"),
]


def fraction_calls() -> list[tuple[str, str]]:
    """(file, enclosing class and function) of every `Fraction(...)` call in the engine."""
    calls = []

    def visit(node, path, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, path, scope + (child.name,))
                continue
            if isinstance(child, ast.Call) and "Fraction" in (getattr(child.func, "id", None),
                                                               getattr(child.func, "attr", None)):
                calls.append((path.name, ".".join(scope)))
            visit(child, path, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, ())
    return sorted(calls)


def test_the_engine_makes_a_fraction_only_where_it_divides():
    assert fraction_calls() == DIVISIONS


def coefficients(*term_maps) -> set[type]:
    return {type(c) for terms in term_maps for c in terms.values()}


def words(algebra, top=8):
    return [w for basis in algebra.bases(top) for w in basis]


def test_an_integral_model_has_int_coefficients_from_d_to_on_word():
    for _, model in builtin_models():
        loop = loop_model(model)
        include = Morphism.inclusion(model.algebra, loop.algebra)
        for m in (model, loop):
            assert coefficients(*(value.terms for value in m.differential.values.values())) <= {int}
            assert coefficients(*map(m.differential.on_word, words(m.algebra))) <= {int}
        assert coefficients(*map(include.on_word, words(model.algebra))) == {int}


def test_an_integral_correction_has_int_coefficients():
    # each correction of CP^3 x CP^2 x S^2 is integral, so the kernel vector
    # it is read from divides exactly: 21 coefficients, 9 of them corrections
    mm = multiplication_model(build(product(cpn(3), cpn(2), even_sphere(1))))
    values = [mm.model.d_of(suspended_name(g.name)).terms for g in mm.target.algebra.generators]
    assert sum(map(len, values)) == 21
    assert coefficients(*values) == {int}


def test_a_slash_makes_the_one_fraction_of_a_literal():
    (value,) = parse("generator v 2\ngenerator w 3\nd w = 1/2*v^2\n").d_of("w").terms.values()
    assert value == Fraction(1, 2) and type(value) is Fraction
    (value,) = parse("generator v 2\ngenerator w 3\nd w = 2*v^2\n").d_of("w").terms.values()
    assert value == 2 and type(value) is int


def _literal(numerator: int, denominator: int | None) -> str:
    return str(numerator) if denominator is None else f"{numerator}/{denominator}"


literals = st.builds(_literal, st.integers(1, 9), st.none() | st.integers(1, 9))
signs = st.sampled_from(["+", "-"])


@st.composite
def model_texts(draw):
    """a, b of degree 2, x of degree 3 and y of degree 5, with d x and d y
    random combinations of the monomials of their degree, each coefficient
    an integer or a quotient a/b."""
    lines = ["generator a 2", "generator b 2", "generator x 3", "generator y 5"]
    for name, monomials in (("x", ["a^2", "a*b", "b^2"]), ("y", ["a^3", "a^2*b", "a*b^2", "b^3"])):
        terms = [f"{draw(signs)} {draw(literals)}*{m}" for m in monomials if draw(st.booleans())]
        if terms:
            lines.append(f"d {name} = {' '.join(terms)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(model_texts())
def test_no_float_from_parse_through_the_loop_to_betti(text):
    model = parse(text)
    loop = loop_model(model)
    for m in (model, loop):
        window = assemble_window(m, 6)
        term_maps = [value.terms for value in m.differential.values.values()]
        term_maps += [column for n in range(7) for column in window.columns(n)]
        term_maps += [r.terms for reps in betti(m, 6).representatives for r in reps]
        assert coefficients(*term_maps) <= {int, Fraction}
