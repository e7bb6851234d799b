"""Plain-text model descriptions.

A model file declares generators and differentials:

    # truncated polynomial cohomology, one relation
    generator v 2
    generator w 5
    d w = v^3

Statements are `generator <name> <degree>` and `d <name> = <expr>`, each
named by its whole first word; expressions combine rational coefficients
(integer or integer/integer), generator names, + - * ^ and parentheses.
Omitted d lines mean a zero differential.  Every d target must be declared
and every right-hand side must be homogeneous of degree |generator| + 1.
A file that declares no generators is the model of a point.

Expressions are read by `Descent`, one recursive descent whose ring a
subclass supplies: `_ExprParser` here reads elements of the model's
algebra, and `series` reads integer polynomials in z with it, under the
same tokens, nesting limit and digit limits.  Tokens come from one scan of
ASCII tokens (integers are [0-9]+), and a degree is an `errors.read_integer`.
"""

from __future__ import annotations

import operator
import re

from .algebra import UNIT_WORD, Element, FreeGradedAlgebra, Generator
from .calculus import CDGA, require_valid
from .errors import DIGIT_LIMIT, NESTING_LIMIT, ModelFileError, read_integer, too_many_digits

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_TOKEN = re.compile(rf"\s*(?:(?P<int>[0-9]+)|(?P<name>{_NAME.pattern})|(?P<op>[+\-*^()/])|(?P<bad>\S))")


class Descent:
    """Recursive descent over one expression: integers and names under
    + - * ^ and parentheses, with an optional leading sign.

    A subclass supplies the ring (`number`, `name`, `add`, `neg`, `mul`,
    `power`) and `error(message, column)`; a - b is add(a, neg(b)).  An
    integer with more than `DIGIT_LIMIT` digits is rejected as it is read
    (a literal is named `literal` in the message), and so is a parenthesis
    nested deeper than `NESTING_LIMIT`; a '/' that the ring does not read
    (where an operand, a ')' or the end belongs) is the error `slash`.
    Columns count from `offset` + 1.
    """

    literal: str
    slash: str

    def __init__(self, text: str, offset: int = 0):
        self.tokens: list[tuple[str, str, int]] = []  # (kind, text, column)
        for m in _TOKEN.finditer(text):
            kind = m.lastgroup
            if kind == "bad":
                raise self.error(f"unexpected character {m[kind]!r}", offset + m.start(kind) + 1)
            self.tokens.append((kind, m[kind], offset + m.start(kind) + 1))
        self.pos = 0
        self.depth = 0  # parentheses open at pos
        self.end_column = offset + len(text) + 1

    def here(self) -> int:
        """The column of the next token, or just past the text."""
        return self.tokens[self.pos][2] if self.pos < len(self.tokens) else self.end_column

    def peek_op(self, *ops: str) -> str | None:
        if self.pos < len(self.tokens):
            kind, text, _ = self.tokens[self.pos]
            if kind == "op" and text in ops:
                return text
        return None

    def integer(self, text: str, column: int, role: str) -> int:
        if len(text) > DIGIT_LIMIT:
            raise self.error(f"{role} has more than {DIGIT_LIMIT} digits", column)
        return int(text)

    def take(self) -> tuple[str, str, int]:
        if self.pos >= len(self.tokens):
            raise self.error("unexpected end of expression", self.end_column)
        token = self.tokens[self.pos]
        self.pos += 1
        return token

    def parse(self):
        value = self.expr()
        self.end()
        return value

    def end(self):
        """Refuse any token left after the expression."""
        if self.pos < len(self.tokens):
            text = self.tokens[self.pos][1]
            raise self.error(self.slash if text == "/" else f"unexpected {text!r}", self.here())

    def expr(self):
        sign = self.take()[1] if self.peek_op("+", "-") else "+"
        acc = self.term()
        if sign == "-":
            acc = self.neg(acc)
        while self.peek_op("+", "-"):
            op = self.take()[1]
            rhs = self.term()
            acc = self.add(acc, self.neg(rhs) if op == "-" else rhs)
        return acc

    def term(self):
        acc = self.factor()
        while self.peek_op("*"):
            self.take()
            acc = self.mul(acc, self.factor())
        return acc

    def factor(self):
        base = self.atom()
        if not self.peek_op("^"):
            return base
        self.take()
        kind, text, column = self.take()
        if kind != "int":
            raise self.error("exponent must be an integer", column)
        return self.power(base, self.integer(text, column, "exponent"), column)

    def atom(self):
        kind, text, column = self.take()
        if kind == "int":
            return self.number(self.integer(text, column, self.literal), column)
        if kind == "name":
            return self.name(text, column)
        if text == "(":
            if self.depth == NESTING_LIMIT:
                raise self.error(f"parentheses nested deeper than {NESTING_LIMIT}", column)
            self.depth += 1
            inner = self.expr()
            if not self.peek_op(")"):
                message = self.slash if self.peek_op("/") else "missing closing parenthesis"
                raise self.error(message, self.here())
            self.take()
            self.depth -= 1
            return inner
        raise self.error(self.slash if text == "/" else f"unexpected {text!r}", column)


class _ExprParser(Descent):
    """The model-file ring: elements of `algebra` in degrees <= top
    (|d_of| + 1 on a d line), with integer/integer coefficients.

    A power e^n is rejected before it is expanded when n times the highest
    term degree of e exceeds `top`: such a power has a term above it (every
    generator has degree >= 1, so products only raise degrees) unless terms
    cancel.  This also stops a base that mixes a constant with terms of
    positive degree, such as (1+v)^n.  A power of a constant alone, such as
    7^n, is rejected before it is expanded, whatever `top` is, when its
    numerator or denominator would have more digits than a report can write
    (see `DIGIT_LIMIT`), even where a later factor would cancel it.
    A coefficient past that limit is rejected at the expression's
    first column: in a product as soon as it is formed (even where a later
    factor would cancel it), and from sums in the parsed value.  Outside a
    d line (`parse_element`), a parsed value with a term above `top` is
    rejected there too, however it is written.  On a d line, a nonzero
    value must be homogeneous of degree `top`, or it is rejected at column
    `offset` + 1, just past the '='.
    """

    literal = "coefficient"
    slash = "'/' is only allowed after an integer coefficient"
    add = staticmethod(operator.add)
    neg = staticmethod(operator.neg)

    def __init__(self, text: str, line: int, offset: int, algebra: FreeGradedAlgebra,
                 top: int, d_of: str | None):
        self.line = line
        self.algebra = algebra
        self.top = top
        self.d_of = d_of
        self.start = offset + 1
        super().__init__(text, offset)

    def error(self, message: str, column: int) -> ModelFileError:
        return ModelFileError(message, self.line, column)

    def parse(self) -> Element:
        value = self.check_digits(super().parse())
        if self.d_of is None:
            highest = max(map(self.algebra.word_degree, value.terms), default=0)
            if highest > self.top:
                message = f"element has terms up to degree {highest}, above degree {self.top}"
                raise self.error(message, self.tokens[0][2])
        elif not value.is_zero():
            if not value.is_homogeneous():
                raise self.error(f"d {self.d_of} is not homogeneous", self.start)
            if value.degree() != self.top:
                raise self.error(f"d {self.d_of} has degree {value.degree()}, expected {self.top}", self.start)
        return value

    def check_digits(self, value: Element) -> Element:
        """`value`, unless a coefficient has more than `DIGIT_LIMIT` digits
        (an error at the expression's first column)."""
        for c in value.terms.values():
            if too_many_digits(c.numerator, 1) or too_many_digits(c.denominator, 1):
                raise self.error(f"coefficient has more than {DIGIT_LIMIT} digits", self.tokens[0][2])
        return value

    def number(self, value: int, column: int) -> Element:
        if self.peek_op("/"):
            self.take()
            kind, text, column = self.take()
            if kind != "int":
                raise self.error("denominator must be an integer", column)
            denominator = self.integer(text, column, "denominator")
            if denominator == 0:
                raise self.error("division by zero", column)
            from fractions import Fraction

            value = Fraction(value, denominator)
        return self.algebra.one() * value

    def name(self, text: str, column: int) -> Element:
        if not self.algebra.has_generator(text):
            raise self.error(f"unknown generator {text!r}", column)
        return self.algebra.gen(text)

    def mul(self, a: Element, b: Element) -> Element:
        return self.check_digits(a * b)

    def power(self, base: Element, exponent: int, column: int) -> Element:
        if list(base.terms) == [UNIT_WORD]:
            c = base.terms[UNIT_WORD]
            if too_many_digits(c.numerator, exponent) or too_many_digits(c.denominator, exponent):
                shown = c if c.denominator == 1 and c > 0 else f"({c})"
                message = f"coefficient {shown}^{exponent} has more than {DIGIT_LIMIT} digits"
                raise self.error(message, column)
        if not base.is_zero():
            degrees = [self.algebra.word_degree(w) for w in base.terms]
            lowest, highest = exponent * min(degrees), exponent * max(degrees)
            if highest > self.top:
                if self.d_of is None:
                    message = f"power has terms up to degree {highest}, above degree {self.top}"
                elif lowest > self.top:
                    bound = "" if base.is_homogeneous() else "at least "
                    message = f"d {self.d_of} has degree {bound}{lowest}, expected {self.top}"
                else:
                    message = f"d {self.d_of} has terms up to degree {highest}, expected {self.top}"
                raise self.error(message, column)
        return base ** exponent


def parse(text: str, validate: bool = True) -> CDGA:
    """Parse a model file into a CDGA; validate certifies d*d = 0."""
    generators: list[Generator] = []
    declared: dict[str, int] = {}
    d_lines: list[tuple[str, int, int, str, int]] = []  # (target, line no, column, expr text, expr offset)

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        stripped = line.strip()
        indent = len(line) - len(line.lstrip())
        parts = stripped.split()
        if parts[0] == "generator":
            if len(parts) != 3:
                raise ModelFileError("expected: generator <name> <degree>", lineno, indent + 1)
            _, name, degree_text = parts
            if not _NAME.fullmatch(name):
                raise ModelFileError(f"invalid generator name {name!r}", lineno, indent + 1)
            degree = read_integer(degree_text)
            if degree is None:
                # a text past the digit limit is not echoed
                message = (f"invalid degree {degree_text!r}" if len(degree_text) <= DIGIT_LIMIT
                           else f"degree is not an integer of at most {DIGIT_LIMIT} digits")
                raise ModelFileError(message, lineno, indent + 1)
            if degree < 1:
                raise ModelFileError("generator degree must be >= 1", lineno, indent + 1)
            if name in declared:
                raise ModelFileError(f"generator {name!r} declared twice", lineno, indent + 1)
            declared[name] = lineno
            generators.append(Generator(name, degree))
        elif parts[0] == "d":
            m = re.match(r"d\s+([A-Za-z_][A-Za-z0-9_]*)\s*=", stripped)
            if m is None:
                raise ModelFileError("expected: d <name> = <expr>", lineno, indent + 1)
            target = m.group(1)
            expr_text = stripped[m.end():]
            offset = indent + m.end()
            d_lines.append((target, lineno, indent + 1, expr_text, offset))
        else:
            raise ModelFileError(f"unrecognized statement {parts[0]!r}", lineno, indent + 1)

    algebra = FreeGradedAlgebra(generators)
    values: dict[str, Element] = {}
    for target, lineno, column, expr_text, offset in d_lines:
        if target not in declared:
            raise ModelFileError(f"d target {target!r} is not a declared generator", lineno, column)
        if target in values:
            raise ModelFileError(f"duplicate d line for {target!r}", lineno, column)
        expected = algebra.generator(target).degree + 1
        values[target] = _ExprParser(expr_text, lineno, offset, algebra, expected, target).parse()

    model = CDGA(algebra, values)
    if validate:
        require_valid(model)
    return model


def parse_element(text: str, algebra: FreeGradedAlgebra, max_degree: int) -> Element:
    """One expression in the model-file grammar, with no term above `max_degree`;
    a power above it is rejected unexpanded."""
    return _ExprParser(text, 1, 0, algebra, max_degree, None).parse()


def parse_path(path: str, validate: bool = True) -> CDGA:
    with open(path, "r", encoding="utf-8") as handle:
        return parse(handle.read(), validate=validate)


def emit(model: CDGA, header: tuple[str, ...] = ()) -> str:
    """Canonical text for a model; parse(emit(m)) reproduces m exactly."""
    lines = [f"# {text}" for text in header]
    for g in model.algebra.generators:
        lines.append(f"generator {g.name} {g.degree}")
    for g in model.algebra.generators:
        value = model.d_of(g.name)
        if value.is_zero():
            continue
        lines.append(f"d {g.name} = {value}")
    return "\n".join(lines) + "\n"

