"""Exception types shared across the package, and the digit and nesting limits on inputs."""

import sys

# The most decimal digits an integer literal or a computed coefficient may
# have: the interpreter's integer-to-string limit, past which no report can
# write it (4300 by default, and where the interpreter has no limit or it is
# off).
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)() or 4300


def read_integer(text: str) -> int | None:
    """The integer that `text` spells as -?[0-9]+ with at most DIGIT_LIMIT digits, else
    None: `int` reads only such a text, so none of its other syntax gets through."""
    digits = text[1:] if text.startswith("-") else text
    if len(digits) > DIGIT_LIMIT or not (digits.isascii() and digits.isdigit()):
        return None
    return int(text)


def too_many_digits(base: int, exponent: int) -> bool:
    """Whether |base|^exponent has more than DIGIT_LIMIT decimal digits."""
    base = abs(base)
    if exponent * base.bit_length() <= 3 * DIGIT_LIMIT:
        return False  # it is below 2^(3 * limit) < 10^limit
    if exponent * (base.bit_length() - 1) > 4 * DIGIT_LIMIT:
        return True  # it is at least 2^(4 * limit) > 10^limit
    return base**exponent >= 10**DIGIT_LIMIT


# The deepest the model-file and rational-function grammars nest parentheses:
# each level costs their one recursive descent (`modelfile.Descent`) four
# interpreter frames.
NESTING_LIMIT = 100


class SullivanError(Exception):
    """Base class for all structured errors raised by this package."""


class UnknownGenerator(SullivanError):
    pass


class AlgebraMismatch(SullivanError):
    pass


class InvalidDifferential(SullivanError):
    """A candidate differential does not square to zero.

    Carries the offending generator name and the nonzero value d(d(g)).
    """

    def __init__(self, generator: str, value) -> None:
        self.generator = generator
        self.value = value
        super().__init__(f"d² != 0 at generator {generator}: d(d({generator})) = {value}")


class SuspensionDegreeError(SullivanError):
    pass


class NameClash(SullivanError):
    pass


class NotDifferentialIdeal(SullivanError):
    def __init__(self, generator: str, residue) -> None:
        self.generator = generator
        self.residue = residue
        super().__init__(
            f"quotient differential does not square to zero at {generator}: residue {residue}"
        )


class ParityError(SullivanError):
    pass


class ZeroDivisor(SullivanError):
    def __init__(self, degree: int, element) -> None:
        self.degree = degree
        self.element = element
        super().__init__(f"multiplication by {element} is not injective in degree {degree}")


class WindowTooSmall(SullivanError):
    pass


class NotApplicable(SullivanError):
    pass


class BasisSizeExceeded(SullivanError):
    def __init__(self, degree: int, size: int, cap: int) -> None:
        self.degree = degree
        self.size = size
        self.cap = cap
        super().__init__(f"monomial basis in degree {degree} has {size} elements, cap is {cap}")


class ModelFileError(SullivanError):
    """Syntax or consistency error in a model description file."""

    def __init__(self, message: str, line: int, column: int) -> None:
        self.line = line
        self.column = column
        super().__init__(f"line {line}, column {column}: {message}")


class PoleAtZero(SullivanError):
    pass


class RationalFormError(SullivanError):
    """Syntax error or non-integral expansion in a rational function input."""
