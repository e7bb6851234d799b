"""Shared builders and sampling utilities for the test suite."""

from __future__ import annotations

import itertools
import random
import re
from collections import Counter
from fractions import Fraction
from math import lcm

from sullivan import linalg
from sullivan.algebra import Element, FreeGradedAlgebra, Generator, Word, word_length
from sullivan.calculus import CDGA, suspended_name
from sullivan.errors import ModelFileError, WindowTooSmall
from sullivan.models import MultiplicationModel, Recipe, build, product


def algebra_v3_sv2() -> FreeGradedAlgebra:
    return FreeGradedAlgebra([Generator("v", 3), Generator("sv", 2)])


def algebra_v2_w3() -> FreeGradedAlgebra:
    return FreeGradedAlgebra([Generator("v", 2), Generator("w", 3)])


def algebra_yz3() -> FreeGradedAlgebra:
    return FreeGradedAlgebra([Generator("y", 3), Generator("z", 3)])


def odd_sphere(n: int) -> Recipe:
    return Recipe("odd_sphere", (n,))


def even_sphere(n: int) -> Recipe:
    return Recipe("even_sphere", (n,))


def cpn(n: int) -> Recipe:
    return Recipe("truncated_poly", (2, n))


def even_sphere_model(n: int = 1) -> CDGA:
    return build(even_sphere(n))


def cpn_model(n: int) -> CDGA:
    return build(cpn(n))


def s3_model() -> CDGA:
    return build(odd_sphere(1))


def s3s3_model() -> CDGA:
    return build(product(odd_sphere(1), odd_sphere(1)))


def builtin_models() -> list[tuple[str, CDGA]]:
    """The model library the acceptance criteria quantify over."""
    return [
        ("odd_sphere(1)", build(Recipe("odd_sphere", (1,)))),
        ("odd_sphere(2)", build(Recipe("odd_sphere", (2,)))),
        ("even_sphere(1)", build(Recipe("even_sphere", (1,)))),
        ("even_sphere(2)", build(Recipe("even_sphere", (2,)))),
        ("truncated_poly(2,2)", build(Recipe("truncated_poly", (2, 2)))),
        ("truncated_poly(2,3)", build(Recipe("truncated_poly", (2, 3)))),
        ("truncated_poly(4,1)", build(Recipe("truncated_poly", (4, 1)))),
        ("truncated_poly(8,2)", build(Recipe("truncated_poly", (8, 2)))),
        ("h_space(3,3,5)", build(Recipe("h_space", (3, 3, 5)))),
        ("s3xs3", s3s3_model()),
    ]


def brute_force_basis_count(degrees: list[int], n: int) -> int:
    """Independent monomial count: enumerate exponent vectors directly."""
    ranges = []
    for d in degrees:
        top = 1 if d % 2 else (n // d if d else 0)
        ranges.append(range(top + 1))
    count = 0
    for exps in itertools.product(*ranges):
        if sum(e * d for e, d in zip(exps, degrees)) == n:
            count += 1
    return count


def random_monomial(rng: random.Random, algebra: FreeGradedAlgebra, max_degree: int) -> Element:
    """A random nonzero basis monomial of degree <= max_degree."""
    bases = algebra.bases(max_degree)
    n = rng.choice([n for n, basis in enumerate(bases) if basis])
    word = rng.choice(bases[n])
    return Element(algebra, {word: Fraction(1)})


# -- products written from public data alone -------------------------------------------


def koszul_sorted(degrees, letters):
    """Oracle product of generators: `letters` are generator indices, in any
    order, and `degrees[i]` is the degree of generator i.

    Insertion-sorts the letters, flipping the sign at each swap of two odd
    letters, and returns (canonical word, sign), or None when an odd letter
    repeats (the product is zero).
    """
    letters = list(letters)
    sign = 1
    for j in range(1, len(letters)):
        while j and letters[j - 1] > letters[j]:
            if degrees[letters[j - 1]] % 2 and degrees[letters[j]] % 2:
                sign = -sign
            letters[j - 1], letters[j] = letters[j], letters[j - 1]
            j -= 1
    counts = Counter(letters)
    if any(degrees[i] % 2 and e > 1 for i, e in counts.items()):
        return None
    return tuple(sorted(counts.items())), sign


def cauchy_product(a, b):
    """Oracle product of two truncated series, to the length of the shorter."""
    return tuple(sum(a[i] * b[k - i] for i in range(k + 1)) for k in range(min(len(a), len(b))))


def gamma(mm: MultiplicationModel, name: str) -> Element:
    """The decomposable correction of generator `name` in a multiplication
    model: v_1 - v_2 - D(sv)."""
    alg = mm.model.algebra
    return alg.gen(f"{name}_1") - alg.gen(f"{name}_2") - mm.model.d_of(suspended_name(name))


def gamma_candidates(derivation, phi, g, bases) -> list[Word]:
    """The words the correction of generator g may use, in basis order: those
    of degree |g| with two or more letters and no suspension of a generator
    of degree |g|, which is not built before g."""
    big = derivation.source
    unbuilt = {big.index_of(suspended_name(h.name)) for h in phi.target.generators if h.degree == g.degree}
    return [w for w in bases[g.degree] if word_length(w) >= 2 and not any(i in unbuilt for i, _ in w)]


def full_solve_gamma(derivation, phi, g, rhs, bases, target_bases) -> Element:
    """Reference for `models._solve_gamma`, with its arguments: map and
    eliminate every candidate, then add -rhs last and read the correction
    from its relation, the reduced-echelon solution of A x = rhs."""
    candidates = gamma_candidates(derivation, phi, g, bases)
    d_rows, phi_rows = bases[g.degree + 1], target_bases[g.degree]
    columns = linalg.matrix_of(map(derivation.on_word, candidates), d_rows)
    for column, image in zip(columns, linalg.matrix_of(map(phi.on_word, candidates), phi_rows)):
        column.update((len(d_rows) + r, c) for r, c in image.items())
    (minus_rhs,) = linalg.matrix_of([(-rhs).terms], d_rows)
    last = len(candidates)
    solution = linalg.Echelon(columns + [minus_rhs]).relations.get(last)
    if solution is None:
        raise WindowTooSmall(f"no decomposable correction of degree {g.degree} for generator {g.name!r}")
    return Element(derivation.source, {candidates[c]: x for c, x in linalg.kernel_vector(solution, last).items()
                                       if c != last})


# -- dense test-only oracles, independent of `sullivan.linalg` --------------------------


def sparse(rows: list[list[Fraction]]) -> list[dict[int, Fraction]]:
    """Dense rows as the sparse `{column: value}` rows that `linalg` takes."""
    return [{c: x for c, x in enumerate(row) if x} for row in rows]


def normalised(z: dict[int, int] | None) -> dict[int, Fraction] | None:
    """An integer relation of `linalg.Echelon.add` divided by its entry at its
    own column, the highest key: the reduced-echelon kernel vector."""
    return None if z is None else {k: Fraction(v, z[max(z)]) for k, v in z.items()}


def element_coordinates(e: Element, basis: tuple[Word, ...]) -> list[Fraction]:
    """Dense coordinates of `e` over `basis`; every term of `e` must be a basis word."""
    assert set(e.terms) <= set(basis), "element has a term outside the basis"
    return [e.terms.get(w, Fraction(0)) for w in basis]


def element_from_coordinates(algebra: FreeGradedAlgebra, basis: tuple[Word, ...],
                             coords: list[Fraction]) -> Element:
    return Element(algebra, {w: c for w, c in zip(basis, coords) if c})


def dense_bareiss_rref(rows):
    """Oracle: dense fraction-free (Bareiss) forward elimination with a
    first-nonzero pivot rule, then rational back-substitution."""
    if not rows or not rows[0]:
        return [], []
    m = []
    for row in rows:
        scale = lcm(*(c.denominator for c in row))
        m.append([int(c * scale) for c in row])
    nr, nc = len(m), len(m[0])
    pivots = []
    prev = 1
    r = 0
    for c in range(nc):
        if r == nr:
            break
        p = next((i for i in range(r, nr) if m[i][c] != 0), None)
        if p is None:
            continue
        m[r], m[p] = m[p], m[r]
        piv = m[r][c]
        for i in range(r + 1, nr):
            # the rescale by piv/prev applies to every row, including rows
            # with a zero pivot-column entry: later exact divisions rely on it
            mic = m[i][c]
            for j in range(c + 1, nc):
                m[i][j] = (piv * m[i][j] - mic * m[r][j]) // prev
            m[i][c] = 0
        pivots.append(c)
        prev = piv
        r += 1
    reduced = [[Fraction(x) / m[i][c] for x in m[i]] for i, c in enumerate(pivots)]
    for i in range(len(pivots) - 1, -1, -1):
        c = pivots[i]
        for k in range(i):
            factor = reduced[k][c]
            reduced[k] = [x - factor * y for x, y in zip(reduced[k], reduced[i])]
    return reduced, pivots


def oracle_kernel(rows, ncols):
    """Dense reduced-echelon kernel basis, one vector per free column, from `dense_bareiss_rref`."""
    reduced, pivots = dense_bareiss_rref(rows)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -reduced[i][f]
        basis.append(v)
    return basis


def window_kernel(window, n):
    """The kernel of the window's d^n as sparse vectors, one per free column f
    = max(z_f), ascending, from the dense `oracle_kernel`."""
    return sparse(oracle_kernel(window.matrix(n), window.dim(n)))


# -- sparse rank modulo a large prime, sharing no code with `sullivan.linalg` ----------


PRIME = 2**61 - 1


def rank_mod_p(vectors) -> int:
    """Rank of sparse rational vectors `{key: value}` modulo the prime p = 2^61 - 1.

    Each vector is reduced at its lowest key against the kept ones, each kept
    with a leading 1, in arithmetic mod p.  The mod-p rank never exceeds the
    rational rank, and falls below it only when p divides a denominator or
    every maximal nonzero minor.  The matrices checked here have small
    integer or small-denominator entries, so a small prime could divide a
    minor (2 divides d x = 2ab, say) while a minor divisible by a prime near
    2.3e18 is vanishingly rare: that is why p is this large.  It is the
    Mersenne prime 2^61 - 1, so every residue is still a small Python int.
    """
    kept: dict = {}
    for vector in vectors:
        residue = {}
        for key, value in vector.items():
            value = Fraction(value)
            x = value.numerator * pow(value.denominator, -1, PRIME) % PRIME
            if x:
                residue[key] = x
        while residue:
            key = min(residue)
            pivot = kept.get(key)
            if pivot is None:
                inverse = pow(residue[key], -1, PRIME)
                kept[key] = {k: x * inverse % PRIME for k, x in residue.items()}
                break
            factor = residue[key]
            for k, x in pivot.items():
                y = (residue.get(k, 0) - factor * x) % PRIME
                if y:
                    residue[k] = y
                else:
                    residue.pop(k, None)
    return len(kept)


class NotACocycle(Exception):
    """`class_is_nontrivial` was given an element whose differential is not zero."""


def class_is_nontrivial(model: CDGA, cocycle: Element) -> bool:
    """Oracle in full coordinates: True when the cocycle is not a coboundary
    in its degree, by the dense Bareiss rank of the boundaries with and without it."""
    if cocycle.is_zero():
        return False
    degree = cocycle.degree()  # raises on non-homogeneous input
    if not model.d(cocycle).is_zero():
        raise NotACocycle(f"d({cocycle}) != 0")
    algebra = model.algebra
    basis = algebra.basis_in_degree(degree)
    boundaries = [element_coordinates(model.d(Element(algebra, {w: Fraction(1)})), basis)
                  for w in algebra.basis_in_degree(degree - 1)]
    with_cocycle = boundaries + [element_coordinates(cocycle, basis)]
    return len(dense_bareiss_rref(with_cocycle)[1]) > len(dense_bareiss_rref(boundaries)[1])


_REFERENCE_TOKEN = re.compile(r"([0-9]+)|([A-Za-z_][A-Za-z0-9_]*)|([+\-*^()/])|(\S)")


def reference_tokens(text: str, offset: int = 0) -> list[tuple[str, str, int]]:
    """The expression tokens of `text` as (kind, text, column) triples, read
    one character at a time: whitespace is skipped, and any character that
    starts no integer, name or operator raises `ModelFileError` on line 1 at
    its column.  Columns count from `offset` + 1."""
    tokens = []
    pos = 0
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        m = _REFERENCE_TOKEN.match(text, pos)
        column = offset + pos + 1
        if m.group(4):
            raise ModelFileError(f"unexpected character {m.group(4)!r}", 1, column)
        kind = ("int", "name", "op")[m.lastindex - 1]
        tokens.append((kind, m.group(m.lastindex), column))
        pos = m.end()
    return tokens
