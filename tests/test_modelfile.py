import string
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sullivan.algebra import Element, FreeGradedAlgebra, Generator
from sullivan.calculus import CDGA, loop_model
from sullivan.errors import DIGIT_LIMIT, NESTING_LIMIT, InvalidDifferential, ModelFileError, RationalFormError
from sullivan.modelfile import Descent, emit, parse, parse_element, parse_path
from sullivan.series import parse_rational

from helpers import builtin_models, cpn_model, reference_tokens


def test_parse_cp2():
    model = parse("generator v 2\ngenerator w 5\nd w = v^3\n")
    assert model == cpn_model(2)


def test_parse_single_generator_sphere():
    model = parse("generator v 3\n")
    assert [(g.name, g.degree) for g in model.algebra.generators] == [("v", 3)]
    assert model.d_of("v").is_zero()


def test_comments_blank_lines_and_fractions():
    text = """
    # a model with a fractional coefficient
    generator v 2
    generator w 5   # trailing comment

    d w = 3/2*v^3
    """
    model = parse(text)
    assert model.d_of("w") == Fraction(3, 2) * model.algebra.gen("v") ** 3


def test_degree_mismatch_is_rejected_with_position():
    with pytest.raises(ModelFileError) as info:
        parse("generator v 2\ngenerator w 5\nd w = v\n")
    assert info.value.line == 3
    assert "degree" in str(info.value)


def test_inhomogeneous_differential_rejected():
    with pytest.raises(ModelFileError) as info:
        parse("generator v 2\ngenerator w 5\nd w = v^3 + v\n")
    assert "homogeneous" in str(info.value)


def test_syntax_error_reports_line_and_column():
    with pytest.raises(ModelFileError) as info:
        parse("generator v 2\ngenerator w 5\nd w = v^3 + + \n")
    assert info.value.line == 3
    with pytest.raises(ModelFileError):
        parse("generator v -2\n")
    with pytest.raises(ModelFileError):
        parse("generator v\n")
    with pytest.raises(ModelFileError):
        parse("hello v 2\n")


def test_unknown_symbols_rejected():
    with pytest.raises(ModelFileError) as info:
        parse("generator v 2\nd v = q^2\n")
    assert "unknown generator" in str(info.value)
    with pytest.raises(ModelFileError):
        parse("generator v 2\nd q = v\n")


def test_duplicates_rejected():
    with pytest.raises(ModelFileError):
        parse("generator v 2\ngenerator v 3\n")
    with pytest.raises(ModelFileError):
        parse("generator v 2\ngenerator w 5\nd w = v^3\nd w = v^3\n")


@pytest.mark.parametrize("text, line, column, message", [
    ("generator v\n", 1, 1, "expected: generator <name> <degree>"),
    ("  generator v 2 3\n", 1, 3, "expected: generator <name> <degree>"),
    ("generator 2v 2\n", 1, 1, "invalid generator name '2v'"),
    ("generator v two\n", 1, 1, "invalid degree 'two'"),
    (" generator v 0\n", 1, 2, "generator degree must be >= 1"),
    ("generator v 2\n\tgenerator v 3\n", 2, 2, "generator 'v' declared twice"),
    ("generator v 3\n  d v + 1\n", 2, 3, "expected: d <name> = <expr>"),
    ("generator v 3\nd\n", 2, 1, "expected: d <name> = <expr>"),
    ("  hello v 2\n", 1, 3, "unrecognized statement 'hello'"),
    ("generator v 2\ndw = v\n", 2, 1, "unrecognized statement 'dw'"),
    ("generator v 2\nd q = v\n", 2, 1, "d target 'q' is not a declared generator"),
    ("generator v 2\n    d q = v\n", 2, 5, "d target 'q' is not a declared generator"),
    ("generator v 3\nd v = 0\nd v = 0\n", 3, 1, "duplicate d line for 'v'"),
    ("generator v 3\nd v = 0\n  d v = 0\n", 3, 3, "duplicate d line for 'v'"),
    ("generator v 1_0\n", 1, 1, "invalid degree '1_0'"),
    ("generator v +4\n", 1, 1, "invalid degree '+4'"),
    ("generator v \uff14\n", 1, 1, "invalid degree '\uff14'"),
    ("generator v -1\n", 1, 1, "generator degree must be >= 1"),
    ("generator v " + "1" * 5000 + "\n", 1, 1, f"degree is not an integer of at most {DIGIT_LIMIT} digits"),
    ("generator v 2\ngenerator w 5\nd w = v^\u0662\n", 3, 9, "unexpected character '\u0662'"),
    ("generator v 2\ngenerator w 5\nd w = \u0662*v^3\n", 3, 7, "unexpected character '\u0662'"),
], ids=["part-count", "part-count-indented", "name", "degree", "degree-positive", "declared-twice",
        "d-shape", "bare-d", "unrecognized", "unrecognized-d-prefix", "undeclared-d-target",
        "undeclared-d-target-indented", "duplicate-d-line", "duplicate-d-line-indented",
        "degree-underscore", "degree-plus-sign", "degree-fullwidth-digit", "degree-negative",
        "degree-past-digit-limit", "arabic-indic-exponent", "arabic-indic-coefficient"])
def test_each_statement_error_has_its_message_and_column(text, line, column, message):
    with pytest.raises(ModelFileError) as info:
        parse(text)
    assert (info.value.line, info.value.column) == (line, column)
    assert str(info.value) == f"line {line}, column {column}: {message}"


def test_a_statement_keyword_is_its_whole_first_word():
    # a longer first word that starts with a keyword is not that statement
    for text, word in (("generatorfoo v 2\n", "generatorfoo"), ("generators w 3\n", "generators")):
        with pytest.raises(ModelFileError) as info:
            parse(text)
        assert str(info.value) == f"line 1, column 1: unrecognized statement {word!r}"
    # whitespace of any kind still ends the keyword
    model = parse("generator\tv 2\ngenerator w  5\nd\tw = v^3\n")
    assert model == cpn_model(2)


def test_differential_must_square_to_zero():
    text = "generator v 2\ngenerator w 3\nd v = w\nd w = v^2\n"
    with pytest.raises(InvalidDifferential) as info:
        parse(text)
    assert info.value.generator == "v"
    unvalidated = parse(text, validate=False)
    assert unvalidated.d_of("v") == unvalidated.algebra.gen("w")


def test_explicit_zero_differential():
    model = parse("generator v 3\nd v = 0\n")
    assert model.d_of("v").is_zero()


def test_rational_literal_rules():
    with pytest.raises(ModelFileError):
        parse("generator v 2\ngenerator w 5\nd w = v^3/2\n")
    with pytest.raises(ModelFileError):
        parse("generator v 2\ngenerator w 5\nd w = 1/0*v^3\n")


def test_round_trip_on_builtins_and_loops():
    for name, model in builtin_models() + [("point", CDGA(FreeGradedAlgebra([])))]:
        assert parse(emit(model)) == model, name
        loop = loop_model(model)
        assert parse(emit(loop)) == loop, name


def test_round_trip_with_mixed_signs_and_fractions():
    alg = FreeGradedAlgebra([Generator("a", 2), Generator("b", 3), Generator("c", 8)])
    value = (
        Fraction(-3, 2) * alg.gen("a") ** 3 * alg.gen("b")
        + 5 * (alg.gen("a") ** 2 * alg.gen("b") * alg.gen("a"))
    )
    model = CDGA(alg, {"c": value})
    again = parse(emit(model))
    assert again == model


def test_emit_orders_generators_canonically():
    model = parse("generator w 5\ngenerator v 2\nd w = v^3\n")
    text = emit(model)
    assert text.index("generator v 2") < text.index("generator w 5")


def test_parse_path_reads_model_file(tmp_path):
    path = tmp_path / "cp2.model"
    path.write_text("generator v 2\ngenerator w 5\nd w = v^3\n")
    assert parse_path(str(path)) == cpn_model(2)


def test_parse_element_reads_one_expression():
    alg = FreeGradedAlgebra([Generator("x", 2), Generator("y", 3)])
    x, y = alg.gen("x"), alg.gen("y")
    assert parse_element("x^3 - 1/2*(x*y + 2)", alg, 6) == x ** 3 - Fraction(1, 2) * (x * y) - alg.one()
    with pytest.raises(ModelFileError) as info:
        parse_element("x + z", alg, 6)
    assert (info.value.line, info.value.column) == (1, 5)


@pytest.mark.parametrize("expr, highest, column", [
    ("(x+y)^100000", 200000, 7),
    ("(x+y)^3", 6, 7),
    ("(1+x)^3", 6, 7),
    ("x*(y^2)^2", 8, 9),
    # a too-high power is rejected even where it would cancel
    ("x^3 - x^3", 6, 3),
])
def test_element_power_above_the_degree_bound_is_rejected_before_expansion(expr, highest, column):
    alg = FreeGradedAlgebra([Generator("x", 2), Generator("y", 2)])
    with pytest.raises(ModelFileError) as info:
        parse_element(expr, alg, 5)
    assert str(info.value) == f"line 1, column {column}: power has terms up to degree {highest}, above degree 5"


def test_element_power_at_the_degree_bound_is_expanded():
    alg = FreeGradedAlgebra([Generator("x", 2), Generator("y", 2)])
    x, y = alg.gen("x"), alg.gen("y")
    assert parse_element("(x+y)^2", alg, 4) == x * x + 2 * (x * y) + y * y
    assert parse_element("(x-x)^100000000 + 3^2", alg, 0) == 9 * alg.one()


@pytest.mark.parametrize("expr, message, column", [
    ("(v+u)^100000", "d w has degree 200000, expected 4", 13),
    ("(v+u*v)^3", "d w has degree at least 6, expected 4", 15),
    # a constant term keeps the lowest degree at 0; the highest decides
    ("(1+v)^100000", "d w has terms up to degree 200000, expected 4", 13),
    ("(1+v)^3", "d w has terms up to degree 6, expected 4", 13),
    # a too-high power is rejected even where it would cancel
    ("v^3 - v^3", "d w has degree 6, expected 4", 9),
])
def test_power_above_the_required_degree_is_rejected_before_expansion(expr, message, column):
    text = f"generator v 2\ngenerator u 2\ngenerator w 3\nd w = {expr}\n"
    with pytest.raises(ModelFileError) as info:
        parse(text)
    assert message in str(info.value)
    assert (info.value.line, info.value.column) == (4, column)


@pytest.mark.parametrize("expr, shown, column", [
    ("7^100000000", "7^100000000", 9),
    ("-7^100000000*v^2", "7^100000000", 10),
    ("(-7)^100000000", "(-7)^100000000", 12),
    ("(1/7)^100000000*v^2", "(1/7)^100000000", 13),
    # the power is rejected even where a later factor would cancel it
    ("(1/7)^6000*7^6000*v^2", "(1/7)^6000", 13),
    (f"10^{DIGIT_LIMIT}*v^2", f"10^{DIGIT_LIMIT}", 10),
    ("2^" + "9" * 400, "2^" + "9" * 400, 9),  # an exponent past float range
])
def test_power_of_a_constant_past_the_digit_limit_is_rejected_before_expansion(expr, shown, column):
    text = f"generator v 2\ngenerator w 3\nd w = {expr}\n"
    with pytest.raises(ModelFileError) as info:
        parse(text)
    assert f"coefficient {shown} has more than {DIGIT_LIMIT} digits" in str(info.value)
    assert (info.value.line, info.value.column) == (3, column)
    # the same guard holds in an element, under any degree bound
    alg = FreeGradedAlgebra([Generator("v", 2)])
    with pytest.raises(ModelFileError) as info:
        parse_element(expr, alg, 100)
    assert (info.value.line, info.value.column) == (1, column - 6)


@pytest.mark.parametrize("expr, coefficient", [
    ("2^3*v^2", 8),
    ("(-1)^100000000*v^2", 1),
    ("(-1)^100000001*v^2", -1),
    ("1^100000000*v^2", 1),
    ("0^100000000*v^2 + v^2", 1),
    (f"10^{DIGIT_LIMIT - 1}*v^2", 10 ** (DIGIT_LIMIT - 1)),
])
def test_powers_of_constants_within_the_digit_limit_parse(expr, coefficient):
    model = parse(f"generator v 2\ngenerator w 3\nd w = {expr}\n")
    assert model.d_of("w") == coefficient * model.algebra.gen("v") ** 2


_LONG = "1" * (DIGIT_LIMIT + 1)  # one digit past the interpreter's conversion limit


@pytest.mark.parametrize("expr, role, column", [
    (f"{_LONG}*v^2", "coefficient", 7),
    (f"1/{_LONG}*v^2", "denominator", 9),
    (f"v^{_LONG}", "exponent", 9),
    (f"2^{_LONG}*v^2", "exponent", 9),
])
def test_integer_literal_past_the_digit_limit_is_a_positioned_error(expr, role, column):
    with pytest.raises(ModelFileError) as info:
        parse(f"generator v 2\ngenerator w 3\nd w = {expr}\n")
    assert str(info.value) == f"line 3, column {column}: {role} has more than {DIGIT_LIMIT} digits"
    # the longest literal still reads
    model = parse(f"generator v 2\ngenerator w 3\nd w = {'1' * DIGIT_LIMIT}*v^2\n")
    assert model.d_of("w") == int("1" * DIGIT_LIMIT) * model.algebra.gen("v") ** 2


_NINES = "9" * 3000


@pytest.mark.parametrize("expr", [
    f"{_NINES}*{_NINES}*v^3",
    f"{'9' * DIGIT_LIMIT}*v^3 + v^3",
    f"1/{_NINES}*1/{_NINES}*v^3",
    f"({_NINES}*v + v)^2*{_NINES}*v",
])
def test_coefficient_past_the_digit_limit_from_sums_and_products_is_a_positioned_error(expr):
    with pytest.raises(ModelFileError) as info:
        parse(f"generator v 2\ngenerator w 5\nd w = {expr}\n", validate=False)
    assert str(info.value) == f"line 3, column 7: coefficient has more than {DIGIT_LIMIT} digits"
    alg = FreeGradedAlgebra([Generator("v", 2)])
    with pytest.raises(ModelFileError) as info:
        parse_element(f" {expr}", alg, 6)
    assert str(info.value) == f"line 1, column 2: coefficient has more than {DIGIT_LIMIT} digits"


def test_a_sum_at_the_digit_limit_parses():
    model = parse(f"generator v 2\ngenerator w 5\nd w = {'9' * (DIGIT_LIMIT - 1)}*v^3 + v^3\n")
    assert model.d_of("w") == 10 ** (DIGIT_LIMIT - 1) * model.algebra.gen("v") ** 3


@pytest.mark.parametrize("expr, highest, column", [
    ("x*x*x", 6, 1),
    ("  x*y*x", 6, 3),
    ("x^2 + x*(x + y)*y", 6, 1),
])
def test_element_term_above_the_degree_bound_is_rejected(expr, highest, column):
    alg = FreeGradedAlgebra([Generator("x", 2), Generator("y", 2)])
    with pytest.raises(ModelFileError) as info:
        parse_element(expr, alg, 5)
    assert str(info.value) == f"line 1, column {column}: element has terms up to degree {highest}, above degree 5"
    # at the bound the same text reads
    assert not parse_element(expr, alg, highest).is_zero()


def test_empty_model_round_trips():
    # a file that declares no generators is the model of a point
    point = parse("# nothing here\n")
    assert point == CDGA(FreeGradedAlgebra([]))
    assert emit(point) == "\n"
    assert parse(emit(point)) == point


@pytest.mark.parametrize("expr, column, message, series_message", [
    ("(" * (NESTING_LIMIT + 1) + "v" + ")" * (NESTING_LIMIT + 1), NESTING_LIMIT + 1,
     f"parentheses nested deeper than {NESTING_LIMIT}", None),
    (f"v^{'1' * (DIGIT_LIMIT + 1)}", 3, f"exponent has more than {DIGIT_LIMIT} digits", None),
    ("1" * (DIGIT_LIMIT + 1), 1, f"coefficient has more than {DIGIT_LIMIT} digits",
     f"integer has more than {DIGIT_LIMIT} digits"),
    ("v^v", 3, "exponent must be an integer", None),
    ("v+", 3, "unexpected end of expression", None),
    ("(v", 3, "missing closing parenthesis", None),
    ("(v/2)", 3, "'/' is only allowed after an integer coefficient",
     "'/' is only allowed once, at the top level, after a numerator"),
    ("v/2/2", 2, "'/' is only allowed after an integer coefficient", "more than one top-level division"),
], ids=["nesting", "exponent-digits", "literal-digits", "exponent-not-integer", "trailing-plus",
        "unclosed-parenthesis", "slash-in-parentheses", "slash-after-the-expression"])
def test_both_rings_of_the_one_descent_give_one_message(expr, column, message, series_message):
    # the same text, with z for v, read as a model element and as a rational function
    alg = FreeGradedAlgebra([Generator("v", 2)])
    with pytest.raises(ModelFileError) as info:
        parse_element(expr, alg, 2)
    assert str(info.value) == f"line 1, column {column}: {message}"
    with pytest.raises(RationalFormError) as info:
        parse_rational(expr.replace("v", "z"), 4)
    assert str(info.value) == (series_message or message)


@settings(max_examples=300)
@given(st.text(alphabet="generator dvw=123^*+-/()# \n\t", max_size=80))
def test_parser_never_crashes_with_foreign_errors(text):
    # arbitrary junk either parses or fails with a positioned error
    try:
        parse(text)
    except (ModelFileError, InvalidDifferential):
        pass


def test_a_long_product_stops_at_the_first_factor_past_the_digit_limit(monkeypatch):
    # 200 factors each at the limit: the second one already passes it
    calls = 0
    multiply = Element.__mul__

    def counted(self, other):
        nonlocal calls
        calls += 1
        return multiply(self, other)

    monkeypatch.setattr(Element, "__mul__", counted)
    nines = "*".join(["9" * DIGIT_LIMIT] * 200)
    with pytest.raises(ModelFileError) as info:
        parse(f"generator v 2\ngenerator w 5\nd w = {nines}*v^3\n", validate=False)
    assert str(info.value) == f"line 3, column 7: coefficient has more than {DIGIT_LIMIT} digits"
    assert calls <= 4


class _Scan(Descent):
    """The tokens of `Descent` alone, with its errors on line 1."""

    def error(self, message, column):
        return ModelFileError(message, 1, column)


def _tokens_or_error(tokenize, text, offset):
    try:
        return tokenize(text, offset)
    except ModelFileError as error:
        return str(error)


@settings(max_examples=500)
@given(st.text(alphabet=string.digits + string.ascii_letters + "+-*^()/ \t=.!#,", max_size=60),
       st.integers(0, 30))
def test_the_token_scan_matches_a_walk_one_character_at_a_time(text, offset):
    # the same (kind, text, column) triples, or the same first error at the same column
    scanned = _tokens_or_error(lambda t, o: _Scan(t, o).tokens, text, offset)
    assert scanned == _tokens_or_error(reference_tokens, text, offset)


def test_the_token_scan_reads_the_first_bad_character_after_good_tokens():
    assert _Scan(" 12 ab_3\t+ (/)", 4).tokens == [
        ("int", "12", 6), ("name", "ab_3", 9), ("op", "+", 14), ("op", "(", 16), ("op", "/", 17),
        ("op", ")", 18)]
    with pytest.raises(ModelFileError, match="column 9: unexpected character '='"):
        _Scan("v + 2 = w . !", 2)


def test_a_degree_at_the_digit_limit_is_an_integer():
    assert parse("generator v 0" + "1" * (DIGIT_LIMIT - 1) + "\n").algebra.generators[0].degree > 1
