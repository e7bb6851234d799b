"""Truncated Poincare series and rational-function expansion.

A truncated series is the tuple of its coefficients c_0..c_N, as a
report's `betti` is.  Coefficients are integers throughout: Betti numbers
are dimensions, and rational functions are expanded by exact integer long
division with a check that every coefficient comes out integral.  A parse
for an expansion to degree N drops every term above z^N as it multiplies,
since the expansion never reads them, and takes powers by repeated
squaring.  A literal, product or expansion coefficient with more than
`DIGIT_LIMIT` digits is rejected, even where later terms would cancel it.

A rational function is read by `modelfile.Descent`, the recursive descent
of model files, over a second ring: integer polynomials in z.  The two
grammars share their tokens, messages and limits; here the descent reads
one '/', at the top level, between numerator and denominator.
"""

from __future__ import annotations

from typing import NamedTuple

from .errors import DIGIT_LIMIT, PoleAtZero, RationalFormError, too_many_digits
from .modelfile import Descent

Poly = tuple[int, ...]


class RationalFunctionForm(NamedTuple):
    numerator: Poly
    denominator: Poly


def expand_rational(f: RationalFunctionForm, max_degree: int) -> Poly:
    """Power series coefficients of numerator/denominator up to max_degree."""
    num, den = f.numerator, f.denominator
    if not den or den[0] == 0:
        raise PoleAtZero("denominator vanishes at z = 0")
    coeffs: list[int] = []
    for k in range(max_degree + 1):
        acc = num[k] if k < len(num) else 0
        for j in range(1, min(k, len(den) - 1) + 1):
            acc -= den[j] * coeffs[k - j]
        q, r = divmod(acc, den[0])
        if r:
            raise RationalFormError(
                f"coefficient of z^{k} is {acc}/{den[0]}, not an integer"
            )
        if too_many_digits(q, 1):
            raise RationalFormError(f"coefficient of z^{k} has more than {DIGIT_LIMIT} digits")
        coeffs.append(q)
    return tuple(coeffs)


# -- the input grammar ------------------------------------------------------------


def _poly_add(a: Poly, b: Poly) -> Poly:
    n = max(len(a), len(b))
    return tuple((a[i] if i < len(a) else 0) + (b[i] if i < len(b) else 0) for i in range(n))


def _poly_mul(a: Poly, b: Poly, top: int) -> Poly:
    """The product, without its terms above z^top."""
    if not a or not b:
        return ()
    n = min(len(a) + len(b) - 1, top + 1)
    out = [0] * n
    for i, ca in enumerate(a[:n]):
        for j, cb in enumerate(b[:n - i]):
            out[i + j] += ca * cb
    return tuple(out)


def _poly_trim(a: Poly) -> Poly:
    n = len(a)
    while n > 0 and a[n - 1] == 0:
        n -= 1
    return a[:n]


class _PolyParser(Descent):
    """The polynomial ring: z is the one name.  Products and powers drop
    their terms above z^top; `dropped` records whether a nonzero one was."""

    literal = "integer"
    slash = "'/' is only allowed once, at the top level, after a numerator"
    add = staticmethod(_poly_add)

    def __init__(self, text: str, top: int):
        self.top = top
        self.dropped = False
        super().__init__(text)

    def error(self, message: str, column: int) -> RationalFormError:
        return RationalFormError(message)

    def number(self, value: int, column: int) -> Poly:
        return (value,)

    def name(self, text: str, column: int) -> Poly:
        if text != "z":
            raise self.error(f"unexpected {text!r}", column)
        return (0, 1)

    def neg(self, a: Poly) -> Poly:
        return tuple(-c for c in a)

    def mul(self, a: Poly, b: Poly) -> Poly:
        a, b = _poly_trim(a), _poly_trim(b)
        if a and b and len(a) + len(b) - 2 > self.top:
            self.dropped = True  # the leading term of the product is nonzero
        out = _poly_mul(a, b, self.top)
        if any(too_many_digits(c, 1) for c in out):
            raise RationalFormError(f"a coefficient has more than {DIGIT_LIMIT} digits")
        return out

    def power(self, a: Poly, e: int, column: int) -> Poly:
        """a^e by repeated squaring."""
        out: Poly = (1,)
        while e:
            if e & 1:
                out = self.mul(out, a)
            e >>= 1
            if e:
                a = self.mul(a, a)
        return out


def parse_rational(text: str, max_degree: int) -> RationalFunctionForm:
    """Parse "<poly>" or "<poly>/<poly>": the descent reads the numerator,
    then at most one '/' at the top level and the denominator.

    Both polynomials lose their terms above z^max_degree, which
    `expand_rational` to that degree never reads.
    """
    parser = _PolyParser(text, max_degree)
    num = _poly_trim(parser.expr())
    den: Poly = (1,)
    parser.dropped = False  # only the denominator's dropped terms are read
    if parser.peek_op("/"):
        parser.take()
        den = _poly_trim(parser.expr())
        if parser.peek_op("/"):
            raise RationalFormError("more than one top-level division")
    parser.end()
    if not den and not parser.dropped:
        raise RationalFormError("denominator is identically zero")
    if not den or den[0] == 0:
        raise PoleAtZero("denominator vanishes at z = 0")
    return RationalFunctionForm(num, den)
