"""An exact check of `sullivan` reports that shares no code with `sullivan`:
`betti`, `loop-betti`, `koszul`, `mult-model` and `witness` reports.

The checker reads the model text itself: `generator <name> <degree>` lines,
and `d <name> = <expr>` lines whose right-hand side is a sum of rational
multiples of monomials written with `*` and `^` (the program's canonical
emission).  For a `loop-betti` report it builds the free loop model itself:
a generator sv of degree |v| - 1 for each v, and d(sv) = -s(dv), where s is
the degree -1 derivation with s(v) = sv and s(sv) = 0.

A monomial is a list of letters (generator names).  A derivation D of
degree k acts on it by the Leibniz rule, the term of letter j signed by
(-1)^(k * degree of the letters before j), and each product is put in
canonical order by sorting its letters, each swap of two odd letters
flipping the sign; a repeated odd letter makes it zero.

`check(model_text, report)` returns the problems it finds: a model hash that
is not the SHA-256 of the text, a degree whose class count is not its Betti
number, a representative with a word of another degree, and a
representative whose differential is not exactly zero over `Fraction`.

It also checks the rank identities in each degree n of `exact_degrees`: those
whose degrees n - 1, n and n + 1 each hold at most `RANK_DIMENSION_BOUND`
monomials.  It lists those monomials itself and builds d^(n-1) and d^n with
its own Leibniz rule, and it reports a degree where
b_n != dim n - rank d^n - rank d^(n-1), or where
rank [B_n | classes] != rank B_n + (number of classes), B_n being the
columns of d^(n-1): the classes are then dependent modulo boundaries.  With
the cocycle check and the class count, these say that the classes are a
basis of H^n.  Every rank is exact, from `rank`, a fraction-free
elimination over the integers; no rank mod p is used (one would only bound
the rational rank from below, and so prove nothing here).

A `koszul` report carries the Koszul model in its `model_file`: the
presentation's generators, with d = 0, and an odd sz with d(sz) = z.  Its
representatives are checked as above, as cocycles of that model.  Its
`details.quotient_dims` must be dim A_n - dim A_(n - |z|), with |z| = |sz| + 1
and dim A_n counted from the presentation's generator degrees (an odd letter
at most once), and its `matches_quotient_oracle` must say whether the Betti
numbers equal those dimensions.

A `mult-model` report carries the relative model of the multiplication in
its `model_file`: copies v_1 and v_2 of each generator v of degree at most
the report's window, and a suspension sv with D(sv) = v_1 - v_2 - gamma.
The checker reads that text and reports a generator whose D(D(g)) is not
zero, a copy whose D is not the copy of dv, a D(sv) - v_1 + v_2 (that is,
-gamma) with a word of fewer than two letters, and one that phi does not
kill, where phi sends v_1 and v_2 to v and sv to 0, each product then put in
canonical order with its Koszul sign.  That the model's cohomology is that
of the base is not checked here.

A `witness` report is judged in the free loop model the checker builds.
Its `betti` must pass the rank identity in each degree of `exact_degrees`.
Each level's `classes` are read as polynomials of its degree; its
`cocycles` must say whether every one has zero loop differential.  In a
degree of `exact_degrees`, its `independent` must say whether they are
cocycles and rank [B_n | witnesses] = rank B_n + their number: the rank
identity alone holds for words that are no cocycles, which have no class.
Above the window it must say whether they are distinct nonzero words.
`all_certified` must be the conjunction of `cocycles` and `independent`
over the levels.

    python tests/report_check.py MODEL_FILE REPORT_JSON

prints each problem and exits 1 if there is one, else prints `ok` and exits 0.
"""

from __future__ import annotations

import hashlib
import json
import re
import sys
from fractions import Fraction
from math import gcd, lcm

Monomial = tuple[str, ...]  # letters in canonical order
Polynomial = dict[Monomial, Fraction]

# The rank identities are checked in a degree n when degrees n - 1, n and
# n + 1 each hold at most this many monomials.
RANK_DIMENSION_BOUND = 1000


def parse_monomial(text: str) -> Monomial:
    """`a*b^2` as the letters (a, b, b); `1` is the empty monomial."""
    letters: list[str] = []
    for factor in text.split("*"):
        if factor != "1":
            name, _, exponent = factor.partition("^")
            letters += [name] * int(exponent or 1)
    return tuple(letters)


def parse_expression(text: str) -> list[tuple[Fraction, list[str]]]:
    """A sum of signed terms `c*m`, each a rational coefficient (or none)
    times a monomial, as (coefficient, letters) pairs in the order written."""
    terms = []
    for sign, body in re.findall(r"([+-]?)([^+-]+)", text.replace(" ", "")):
        coefficient, letters = Fraction(-1 if sign == "-" else 1), []
        for factor in body.split("*"):
            if re.fullmatch(r"\d+(/\d+)?", factor):
                coefficient *= Fraction(factor)
            else:
                letters += parse_monomial(factor)
        terms.append((coefficient, letters))
    return terms


class Model:
    """Generator degrees in declaration order, and d on each generator."""

    def __init__(self, degrees: dict[str, int], d: dict[str, Polynomial]):
        self.degrees = degrees
        self.d = d

    @classmethod
    def parse(cls, text: str) -> "Model":
        degrees: dict[str, int] = {}
        values: dict[str, list[tuple[Fraction, list[str]]]] = {}
        for line in text.splitlines():
            words = line.split()
            if not words or words[0].startswith("#"):
                continue
            if words[0] == "generator":
                degrees[words[1]] = int(words[2])
            elif words[0] == "d" and words[2] == "=":
                values[words[1]] = parse_expression(" ".join(words[3:]))
            else:
                raise ValueError(f"cannot read model line {line!r}")
        model = cls(degrees, {})
        model.d = {name: model.combine(terms) for name, terms in values.items()}
        return model

    def canonical(self, letters: list[str]) -> tuple[Monomial, int] | None:
        """The letters sorted, with the Koszul sign of the sort; None if an
        odd letter repeats."""
        letters, sign = list(letters), 1
        for j in range(1, len(letters)):
            while j and letters[j - 1] > letters[j]:
                if self.degrees[letters[j - 1]] % 2 and self.degrees[letters[j]] % 2:
                    sign = -sign
                letters[j - 1], letters[j] = letters[j], letters[j - 1]
                j -= 1
        if any(a == b and self.degrees[a] % 2 for a, b in zip(letters, letters[1:])):
            return None
        return tuple(letters), sign

    def combine(self, terms) -> Polynomial:
        """The polynomial of (coefficient, letters) pairs, each product put in
        canonical order, with no zero coefficients."""
        out: Polynomial = {}
        for coefficient, letters in terms:
            product = self.canonical(letters)
            if product is not None:
                monomial, sign = product
                out[monomial] = out.get(monomial, 0) + sign * coefficient
        return {m: c for m, c in out.items() if c}

    def derivation(self, shift: int, values: dict[str, Polynomial], p: Polynomial) -> Polynomial:
        """The degree-`shift` derivation with `values` on generators, applied
        to p by the Leibniz rule on its letter lists."""
        terms = []
        for monomial, coefficient in p.items():
            before = 0  # the degree of the letters before position j
            for j, letter in enumerate(monomial):
                sign = -1 if shift * before % 2 else 1
                for image, c in values.get(letter, {}).items():
                    terms.append((sign * coefficient * c, [*monomial[:j], *image, *monomial[j + 1:]]))
                before += self.degrees[letter]
        return self.combine(terms)

    def differential(self, p: Polynomial) -> Polynomial:
        return self.derivation(1, self.d, p)

    def loop(self) -> "Model":
        """The free loop model: sv of degree |v| - 1, and d(sv) = -s(dv)."""
        big = Model({**self.degrees, **{"s" + v: k - 1 for v, k in self.degrees.items()}}, dict(self.d))
        s = {v: {("s" + v,): Fraction(1)} for v in self.degrees}
        for v, dv in self.d.items():
            big.d["s" + v] = {m: -c for m, c in big.derivation(-1, s, dv).items()}
        return big

    def degree(self, monomial: Monomial) -> int:
        return sum(self.degrees[letter] for letter in monomial)

    def monomials(self, top: int) -> list[list[Monomial]]:
        """The monomials of each degree 0..top, an odd letter at most once:
        each letter, from the last name to the first, is put in front of the
        monomials of the letters after it (an even one again and again)."""
        rows: list[list[Monomial]] = [[()]] + [[] for _ in range(top)]
        for letter in sorted(self.degrees, reverse=True):
            k = self.degrees[letter]
            for n in range(k, top + 1) if k % 2 == 0 else range(top, k - 1, -1):
                rows[n] += [(letter, *m) for m in rows[n - k]]
        return rows

    def dims(self, top: int) -> list[int]:
        """The number of monomials of each degree 0..top, an odd letter at most once."""
        counts = [1] + [0] * top
        for k in self.degrees.values():
            for n in range(k, top + 1) if k % 2 == 0 else range(top, k - 1, -1):
                counts[n] += counts[n - k]
        return counts


def rank(vectors) -> int:
    """The exact rank of sparse rational vectors ({position: coefficient}).

    Each vector is scaled to integers, then reduced against the kept ones by
    its lowest position: v becomes a * v - b * p for the kept p with that
    lowest position (a and b their entries there), divided by the gcd of its
    entries.  No division is ever inexact."""
    kept: dict[int, dict[int, int]] = {}
    for vector in vectors:
        scale = lcm(*(Fraction(c).denominator for c in vector.values()))
        v = {k: int(c * scale) for k, c in vector.items() if c}
        while v:
            low = min(v)
            p = kept.get(low)
            if p is None:
                kept[low] = v
                break
            a, b = p[low], v[low]
            v = {k: c for k in v.keys() | p.keys() if (c := a * v.get(k, 0) - b * p.get(k, 0))}
            divisor = gcd(*v.values())
            v = {k: c // divisor for k, c in v.items()}
    return len(kept)


def exact_degrees(model: Model, window: int) -> list[int]:
    """The degrees 0..window whose rank identities are checked."""
    dims = [0] + model.dims(window + 1)  # dims[n + 1] is dim n
    return [n for n in range(window + 1) if max(dims[n:n + 3]) <= RANK_DIMENSION_BOUND]


class Ranks:
    """The rank identities of a model in the degrees of `exact_degrees`: the
    monomials of degrees 0..top + 1, top the highest of those degrees, and
    each d^n as columns and its rank, built once when first asked for."""

    def __init__(self, model: Model, window: int):
        self.model = model
        self.degrees = exact_degrees(model, window)
        self.rows = model.monomials(self.degrees[-1] + 1) if self.degrees else []
        self.index = [{m: i for i, m in enumerate(row)} for row in self.rows]
        self.columns: dict[int, list[dict[int, Fraction]]] = {}
        self.ranks: dict[int, int] = {}

    def d(self, n: int) -> list[dict[int, Fraction]]:
        """d^n as columns, one per monomial of degree n, over degree n + 1."""
        if n not in self.columns:
            d = self.model.differential
            self.columns[n] = [] if n < 0 else [{self.index[n + 1][m]: c for m, c in d({w: 1}).items()}
                                                for w in self.rows[n]]
        return self.columns[n]

    def rank(self, n: int) -> int:
        if n not in self.ranks:
            self.ranks[n] = rank(self.d(n))
        return self.ranks[n]

    def independent(self, n: int, polynomials: list[Polynomial]) -> bool:
        """Whether rank [B_n | polynomials] = rank B_n + their number, B_n
        being the columns of d^(n-1): for cocycles, whether their classes
        are independent."""
        vectors = [{self.index[n][m]: c for m, c in p.items()} for p in polynomials]
        return rank(self.d(n - 1) + vectors) == self.rank(n - 1) + len(vectors)


def check_ranks(ranks: Ranks, betti: list[int], classes: list[list[Polynomial]]) -> list[str]:
    """The problems of the rank identities, in each degree of `ranks`."""
    problems = []
    for n in ranks.degrees:
        dim, rank_n, rank_below = len(ranks.rows[n]), ranks.rank(n), ranks.rank(n - 1)
        if betti[n] != dim - rank_n - rank_below:
            problems.append(f"degree {n}: betti {betti[n]} is not dim {dim} - rank d^{n} {rank_n}"
                            f" - rank d^{n - 1} {rank_below}")
        if not ranks.independent(n, classes[n]):
            problems.append(f"degree {n}: the classes are dependent modulo boundaries")
    return problems


def check_witness(model: Model, report: dict) -> list[str]:
    """The problems of a `witness` report of the model, judged in its free
    loop model: the Betti numbers, and the verdicts of each level and of all."""
    loop, betti = model.loop(), report["betti"]
    ranks = Ranks(loop, len(betti) - 1)
    problems = check_ranks(ranks, betti, [[]] * len(betti))
    certified = True
    for level in report["witnesses"]:
        k, n = level["k"], level["degree"]
        certified = certified and level["cocycles"] and level["independent"]
        witnesses = [loop.combine(parse_expression(label)) for label in level["classes"]]
        if any(loop.degree(m) != n for w in witnesses for m in w):
            problems.append(f"level {k}: a witness with a word of another degree")
            continue
        cocycles = not any(map(loop.differential, witnesses))
        if level["cocycles"] != cocycles:
            problems.append(f"level {k}: cocycles is not whether every witness has zero loop differential")
        if n in ranks.degrees:
            if level["independent"] != (cocycles and ranks.independent(n, witnesses)):
                problems.append(f"level {k}: independent is not whether the witnesses are cocycles"
                                " independent modulo boundaries")
        elif n >= len(betti) and level["independent"] != (len({m for w in witnesses for m in w})
                                                           == len(witnesses)):
            problems.append(f"level {k}: independent is not whether the witnesses are distinct nonzero words")
    if report["verdicts"]["all_certified"] != certified:
        problems.append("all_certified is not the conjunction of the levels")
    return problems


def rename(model: Model, p: Polynomial, names: dict[str, str | None]) -> Polynomial:
    """The algebra map sending each letter to the letter `names` gives it,
    or to 0 where that is None, into `model`."""
    return model.combine((c, [names[letter] for letter in m]) for m, c in p.items()
                         if None not in map(names.get, m))


def check_mult_model(base: Model, window: int, model_text: str) -> list[str]:
    """The problems of the multiplication model text of a `mult-model` report."""
    model = Model.parse(model_text)
    kept = [v for v, k in base.degrees.items() if k <= window]
    missing = [g for v in kept for g in (f"{v}_1", f"{v}_2", f"s{v}") if g not in model.degrees]
    if missing:
        return [f"{g} is not a generator of the model file" for g in missing]
    problems = [f"d(d({g})) is not zero" for g in model.degrees if model.differential(model.d.get(g, {}))]
    phi = dict.fromkeys(model.degrees) | {f"{v}_{k}": v for v in kept for k in (1, 2)}
    for v in kept:
        for k in (1, 2):
            if model.d.get(f"{v}_{k}", {}) != rename(model, base.d.get(v, {}), {u: f"{u}_{k}" for u in kept}):
                problems.append(f"d({v}_{k}) is not the copy of d({v})")
        minus_gamma = model.combine([*((c, list(m)) for m, c in model.d.get(f"s{v}", {}).items()),
                                     (Fraction(-1), [f"{v}_1"]), (Fraction(1), [f"{v}_2"])])
        if any(len(m) < 2 for m in minus_gamma):
            problems.append(f"d(s{v}) - {v}_1 + {v}_2 has a word of fewer than two letters")
        if rename(base, minus_gamma, phi):
            problems.append(f"phi does not kill d(s{v}) - {v}_1 + {v}_2")
    return problems


def check_koszul(presentation: Model, koszul: Model, report: dict) -> list[str]:
    """The problems of the quotient dimensions and the verdict of a `koszul` report."""
    z_degree = koszul.degrees["sz"] + 1
    dims = presentation.dims(report["window"])
    quotient = [dim - (dims[n - z_degree] if n >= z_degree else 0) for n, dim in enumerate(dims)]
    problems = []
    if report["details"]["quotient_dims"] != quotient:
        problems.append(f"quotient_dims is not dim A_n - dim A_(n-{z_degree}) = {quotient}")
    if report["verdicts"]["matches_quotient_oracle"] != (report["betti"] == report["details"]["quotient_dims"]):
        problems.append("matches_quotient_oracle is not whether betti equals quotient_dims")
    return problems


def check(model_text: str, report: dict) -> list[str]:
    """The problems of a `betti`, `loop-betti`, `koszul`, `mult-model` or `witness` report of the model text."""
    problems = []
    if report["model_hash"] != hashlib.sha256(model_text.encode("utf-8")).hexdigest():
        problems.append("model_hash is not the SHA-256 of the model text")
    model = Model.parse(model_text)
    if report["command"] == "witness":
        return problems + check_witness(model, report)
    if report["command"] == "mult-model":
        return problems + check_mult_model(model, report["window"], report["model_file"])
    if report["command"] == "koszul":
        koszul = Model.parse(report["model_file"])
        problems += check_koszul(model, koszul, report)
        model = koszul
    elif report["command"] == "loop-betti":
        model = model.loop()
    elif report["command"] != "betti":
        raise ValueError(f"not a betti, loop-betti, koszul, mult-model or witness report: {report['command']!r}")
    polynomials = []
    for n, (b, classes) in enumerate(zip(report["betti"], report["representatives"], strict=True)):
        if len(classes) != b:
            problems.append(f"degree {n}: {len(classes)} classes, betti {b}")
        polynomials.append([])
        for k, terms in enumerate(classes):
            rep = model.combine((Fraction(c), list(parse_monomial(w))) for w, c in terms)
            if any(model.degree(m) != n for m in rep):
                problems.append(f"degree {n}, class {k}: a word of another degree")
                continue
            polynomials[n].append(rep)
            if model.differential(rep):
                problems.append(f"degree {n}, class {k}: not a cocycle")
    return problems + check_ranks(Ranks(model, len(report["betti"]) - 1), report["betti"], polynomials)


def main(argv: list[str]) -> int:
    model_path, report_path = argv
    with open(model_path, encoding="utf-8") as f:
        model_text = f.read()
    with open(report_path, encoding="utf-8") as f:
        problems = check(model_text, json.load(f))
    print("\n".join(problems) or "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
