"""Command line interface.

Commands parse model files (or stdin), orchestrate the constructions and
return `(report, ok)`: the report dict and whether every verdict holds.  A
report holds values (a class is its `Element`), and a class is written out
only at the edge.  `main` writes the report once, through `_write`, which
formats the one form asked for: the command's text lines of the report (its
text function beside it in `_COMMANDS`, or the model text when it has none),
or canonical JSON with sorted keys, compact separators, integers beyond 2^53
rendered as decimal strings and each class as its `[word, coefficient]`
pairs.  A command that builds a model also writes it to `-o FILE`.  Exit
codes: 0 success, 1 verification or comparison failure, 2 input errors.

`homology`, `models` and `series` are imported inside the commands that use
them, so each command loads only the code it runs: `json` is imported by
`canonical_json` alone, so only a `--json` run loads it, and `fractions` is
loaded only by a run that divides (see `linalg.kernel_vector`).  `main`
builds the argument parser of the named command alone, and `model_hash` uses
the interpreter's built-in SHA-256, so a run loads no OpenSSL.
"""

from __future__ import annotations

import argparse
import sys

# The interpreter's own SHA-256 (`_sha2` from Python 3.12, `_sha256` before):
# `hashlib` would load OpenSSL to hash a few hundred bytes of model text.
try:
    from _sha2 import sha256 as _sha256
except ImportError:
    try:
        from _sha256 import sha256 as _sha256
    except ImportError:
        from hashlib import sha256 as _sha256

from . import modelfile
from .algebra import DEFAULT_BASIS_CAP, Element
from .calculus import (
    CDGA,
    check_chain_map,
    check_differential,
    killed_residues,
    loop_model,
    minimality_check,
    quotient_by_generators,
    rename_generators,
    koszul_model,
    suspended_name,
    tensor_cdga,
)
from .errors import (
    DIGIT_LIMIT,
    InvalidDifferential,
    NotDifferentialIdeal,
    SullivanError,
    ZeroDivisor,
    read_integer,
)

_MATH_FAILURES = (InvalidDifferential, NotDifferentialIdeal, ZeroDivisor)


def _canonical(value):
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return str(value) if abs(value) > 2**53 else value
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _canonical(v) for k, v in value.items()}
    if isinstance(value, Element):
        return [[value.algebra.word_str(w), str(c)] for w, c in value.sorted_terms()]
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(report: dict) -> str:
    import json

    return json.dumps(_canonical(report), sort_keys=True, separators=(",", ":")) + "\n"


def _text_hash(text: str) -> str:
    return _sha256(text.encode("utf-8")).hexdigest()


def model_hash(model: CDGA) -> str:
    return _text_hash(modelfile.emit(model))


def _report(command: str, **fields) -> dict:
    base = {
        "command": command,
        "model_hash": None,
        "window": None,
        "betti": None,
        "representatives": None,
        "series": None,
        "witnesses": None,
        "verdicts": {},
        "model_file": None,
        "details": {},
    }
    base.update(fields)
    return base


def _read_model(path: str, validate: bool = True) -> CDGA:
    if path == "-":
        return modelfile.parse(sys.stdin.read(), validate=validate)
    return modelfile.parse_path(path, validate=validate)


def _write(args, report: dict) -> None:
    """Write a command's output: the one place a report leaves the program.

    The model text of `report["model_file"]` goes to `-o FILE` first.
    Without `--json` it goes to stdout under `-o -`, or when the command has
    no text function (the model text is then its output).  Then stdout takes
    the canonical JSON report or the command's text lines, and only that form
    is formatted.  `_canonical` writes a tuple as a JSON array and a class as
    its pairs from `sorted_terms`, `word_str` and `str(c)`; a text function
    reads the `details` strings, verdicts and witness entries of the report.
    """
    output = getattr(args, "output", None)
    if output not in (None, "-"):
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report["model_file"])
    elif not args.json and (output == "-" or args.text is None):
        sys.stdout.write(report["model_file"])
    if args.json:
        sys.stdout.write(canonical_json(report))
    elif args.text is not None:
        sys.stdout.write("".join(f"{line}\n" for line in args.text(report)))


# -- commands -------------------------------------------------------------------


def cmd_verify(args) -> tuple:
    model = _read_model(args.model, validate=False)
    failure = check_differential(model)
    minimal = minimality_check(model)
    verdicts = {
        "d_squared_zero": failure is None,
        "minimal": minimal is None,
        "homogeneous": True,
    }
    details = {}
    if failure is not None:
        details["d_squared_counterexample"] = {
            "generator": failure[0].name,
            "value": str(failure[1]),
        }
    if minimal is not None:
        details["minimality_violation"] = {
            "generator": minimal[0].name,
            "linear_part": str(minimal[1]),
        }
    report = _report(
        "verify", model_hash=model_hash(model), verdicts=verdicts, details=details
    )
    return report, failure is None


def _verify_text(report: dict) -> list[str]:
    failure = report["details"].get("d_squared_counterexample")
    minimal = report["details"].get("minimality_violation")
    return [
        f"model {report['model_hash']}",
        "d_squared_zero: " + ("ok" if failure is None else
                              "FAIL at {generator}: d(d({generator})) = {value}".format(**failure)),
        "minimal: " + ("ok" if minimal is None else
                       "violation at {generator}: linear part {linear_part}".format(**minimal)),
        "homogeneous: ok",
    ]


def _betti_report(command: str, model: CDGA, computed_on: CDGA, args) -> tuple:
    from .homology import betti

    result = betti(computed_on, args.max, cap=args.cap)
    report = _report(
        command,
        model_hash=model_hash(model),
        window=args.max,
        betti=result.betti,
        representatives=result.representatives,
        series=result.betti,
    )
    return report, True


def _betti_text(report: dict) -> list[str]:
    lines = [f"window 0..{report['window']}", "betti " + ",".join(map(str, report["betti"]))]
    for n, classes in enumerate(report["representatives"]):
        if classes:
            lines.append(f"H^{n} dim {len(classes)}: " + "; ".join(map(str, classes)))
    return lines


def cmd_betti(args) -> tuple:
    model = _read_model(args.model)
    return _betti_report("betti", model, model, args)


def cmd_loop(args) -> tuple:
    model = _read_model(args.model)
    loop = loop_model(model)
    mapping = {
        suspended_name(g.name): f"s_{g.name}" for g in model.algebra.generators
    }
    renamed = rename_generators(loop, mapping)
    digest = model_hash(model)
    text = modelfile.emit(renamed, header=(f"free loop space model of {digest}",))
    report = _report(
        "loop", model_hash=digest, model_file=text,
        verdicts={"d_squared_zero": True},
    )
    return report, True


def cmd_loop_betti(args) -> tuple:
    model = _read_model(args.model)
    loop = loop_model(model)
    return _betti_report("loop-betti", model, loop, args)


def cmd_tensor(args) -> tuple:
    left = _read_model(args.left)
    right = _read_model(args.right)
    text = modelfile.emit(tensor_cdga(left, right))
    report = _report("tensor", model_hash=_text_hash(text), model_file=text)
    return report, True


def cmd_quotient(args) -> tuple:
    model = _read_model(args.model)
    kill = [name for name in args.kill.split(",") if name]
    residues = killed_residues(model, kill)
    result = quotient_by_generators(model, kill)
    for name in sorted(residues):
        print(
            f"warning: d({name}) = {residues[name]} survives the substitution; "
            "this quotient is by generators, not by the differential ideal",
            file=sys.stderr,
        )
    report = _report(
        "quotient",
        model_hash=model_hash(model),
        model_file=modelfile.emit(result),
        verdicts={"differential_ideal": not residues},
        details={"residues": {name: str(value) for name, value in sorted(residues.items())}},
    )
    return report, True


def cmd_koszul(args) -> tuple:
    model = _read_model(args.model)
    # the Koszul generator, of degree |z| - 1, must lie in the window
    cocycle = modelfile.parse_element(args.by, model.algebra, args.max + 1)
    koszul = koszul_model(model, cocycle, args.max, cap=args.cap)
    report, _ = _betti_report("koszul", model, koszul.model, args)
    matches = report["betti"] == koszul.quotient_dims
    report.update(
        series=None,
        verdicts={"matches_quotient_oracle": matches},
        details={
            "quotient_dims": koszul.quotient_dims,
            "zero_divisor_checked_to": args.max,
        },
        model_file=modelfile.emit(koszul.model),
    )
    return report, matches


def _koszul_text(report: dict) -> list[str]:
    return [
        f"window 0..{report['window']}",
        "koszul betti   " + ",".join(map(str, report["betti"])),
        "quotient dims  " + ",".join(map(str, report["details"]["quotient_dims"])),
        f"verdict {'EQUAL' if report['verdicts']['matches_quotient_oracle'] else 'DIFFER'}",
    ]


def cmd_mult_model(args) -> tuple:
    from . import models
    from .homology import quasi_iso_via_indecomposables

    model = _read_model(args.model)
    mm = models.multiplication_model(model, args.max)
    d2 = check_differential(mm.model) is None
    chain = (
        check_chain_map(mm.phi, mm.model.differential, mm.target.differential) is None
    )
    # only a chain map has a map on cohomology to judge
    quasi = chain and quasi_iso_via_indecomposables(mm.model, mm.target, mm.phi).is_quasi_iso
    minimal = minimality_check(mm.model, mm.base) is None
    verdicts = {
        "d_squared_zero": d2,
        "chain_map": chain,
        "quasi_iso_indecomposables": quasi,
        "minimal": minimal,
    }
    differentials = {
        suspended_name(g.name): str(mm.model.d_of(suspended_name(g.name)))
        for g in mm.target.algebra.generators
    }
    report = _report(
        "mult-model",
        model_hash=model_hash(model),
        window=args.max,
        verdicts=verdicts,
        model_file=modelfile.emit(mm.model),
        details={"suspension_differentials": differentials},
    )
    return report, all(verdicts.values())


def _mult_model_text(report: dict) -> list[str]:
    verdicts = report["verdicts"]
    lines = [f"D({s}) = {value}" for s, value in report["details"]["suspension_differentials"].items()]
    return lines + [f"{key}: {'ok' if verdicts[key] else 'FAIL'}" for key in sorted(verdicts)]


def cmd_witness(args) -> tuple:
    from . import models
    from .homology import betti, h_algebra_generator_counts

    model = _read_model(args.model)
    loop = loop_model(model)
    witness_report = models.vps_witnesses_for_model(loop, args.k_max)
    loop_betti_report = betti(loop, args.max, cap=args.cap)
    generator_counts = h_algebra_generator_counts(model, args.max, cap=args.cap)
    entries = []
    ok = True
    for entry in witness_report.entries:
        in_window = entry.degree <= args.max
        b_n = loop_betti_report.betti[entry.degree] if in_window else None
        bounded = b_n is None or entry.count <= b_n
        certified = entry.cocycles_verified and entry.independent and bounded
        ok = ok and certified
        entries.append(
            {
                "k": entry.k,
                "degree": entry.degree,
                "count": entry.count,
                "exponents": entry.exponent_pairs,
                "classes": entry.labels,
                "cocycles": entry.cocycles_verified,
                "independent": entry.independent,
                "betti": b_n,
            }
        )
    report = _report(
        "witness",
        model_hash=model_hash(model),
        window=args.max,
        witnesses=entries,
        betti=loop_betti_report.betti,
        verdicts={"all_certified": ok},
        details={
            "even_generators": witness_report.even_gens,
            "odd_pair": [witness_report.y, witness_report.z],
            "degree_period": witness_report.period,
            "h_algebra_generators_in_window": generator_counts,
        },
    )
    return report, ok


def _witness_text(report: dict) -> list[str]:
    lines = [
        f"k={e['k']} degree={e['degree']} count={e['count']} "
        f"cocycles={'ok' if e['cocycles'] else 'FAIL'} "
        f"independent={'ok' if e['independent'] else 'FAIL'} "
        f"betti={e['betti'] if e['betti'] is not None else 'outside window'}"
        for e in report["witnesses"]
    ]
    counts = report["details"]["h_algebra_generators_in_window"]
    return lines + ["H* algebra generators per degree: " + ",".join(map(str, counts))]


def cmd_series(args) -> tuple:
    from . import series as series_mod

    form = series_mod.parse_rational(args.rational, args.max)
    expansion = series_mod.expand_rational(form, args.max)
    report = _report("series", window=args.max, series=expansion)
    equal = True
    if args.betti_of is not None:
        from .homology import betti

        model = _read_model(args.betti_of)
        result = betti(model, args.max, cap=args.cap)
        equal = result.betti == expansion
        report.update(model_hash=model_hash(model), betti=result.betti, verdicts={"equal": equal})
    return report, equal


def _series_text(report: dict) -> list[str]:
    lines = ["series " + ",".join(map(str, report["series"]))]
    if report["betti"] is not None:
        lines.append("betti  " + ",".join(map(str, report["betti"])))
        lines.append(f"verdict {'EQUAL' if report['verdicts']['equal'] else 'DIFFER'}")
    return lines


def cmd_recipe(args) -> tuple:
    from . import models

    recipe = models.recipe_from_args(args.name, args.params)
    model = models.build(recipe)
    text = modelfile.emit(model, header=(f"recipe {recipe}",))
    report = _report("recipe", model_hash=model_hash(model), model_file=text)
    return report, True


# -- argument parsing ---------------------------------------------------------------

def _option_integer(text: str) -> int:
    """An integer option's value, as `read_integer` reads it.  A refused text
    is quoted in the usage error unless it is longer than DIGIT_LIMIT."""
    value = read_integer(text)
    if value is None:
        shown = repr(text) if len(text) <= DIGIT_LIMIT else f"more than {DIGIT_LIMIT} characters"
        raise argparse.ArgumentTypeError(f"invalid int value: {shown}")
    return value


_MODEL = ("model", {"nargs": "?", "default": "-"})
_OUTPUT = ("-o", "--output", {})

# Options shared by the commands: each command takes the first few.
_SHARED = (
    ("--json", {"action": "store_true", "help": "emit a canonical JSON report"}),
    ("--max", {"type": _option_integer, "default": 16, "help": "degree window bound (default 16)"}),
    ("--cap", {"type": _option_integer, "default": DEFAULT_BASIS_CAP,
               "help": f"per-degree monomial basis cap (default {DEFAULT_BASIS_CAP})"}),
)

# name: (function, text lines of its report or None when the model text is
# its output, help, how many shared options, own arguments), each argument
# being its names and then its keyword arguments
_COMMANDS = {
    "verify": (cmd_verify, _verify_text, "check d*d=0, minimality, homogeneity", 1, (_MODEL,)),
    "betti": (cmd_betti, _betti_text, "Betti numbers and representatives", 3, (_MODEL,)),
    "loop": (cmd_loop, None, "emit the free loop space model", 1, (_MODEL, _OUTPUT)),
    "loop-betti": (cmd_loop_betti, _betti_text, "Betti numbers of the loop model", 3, (_MODEL,)),
    "tensor": (cmd_tensor, None, "tensor product of two models", 1,
               (("left", {}), ("right", {}), _OUTPUT)),
    "quotient": (cmd_quotient, None, "kill generators", 1,
                 (_MODEL, ("--kill", {"required": True, "help": "comma-separated generator names"}),
                  _OUTPUT)),
    "koszul": (cmd_koszul, _koszul_text, "one-variable Koszul model", 3,
               (_MODEL, ("--by", {"required": True, "help": "even cocycle expression"}), _OUTPUT)),
    "mult-model": (cmd_mult_model, _mult_model_text,
                   "relative model of the multiplication, with verdicts", 2, (_MODEL, _OUTPUT)),
    "witness": (cmd_witness, _witness_text, "witness cocycle families", 3,
                (_MODEL, ("--k-max", {"type": _option_integer, "default": 4}))),
    "series": (cmd_series, _series_text, "expand a rational function", 3,
               (("--rational", {"required": True}),
                ("--betti-of", {"help": "model file to compare the expansion against"}))),
    "recipe": (cmd_recipe, None, "emit a built-in model", 1,
               (("name", {}), ("params", {"nargs": "*"}), _OUTPUT)),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command `only` alone."""
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact-arithmetic Sullivan models: cohomology, loop models, witnesses.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, text, help_text, shared, own) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for *names, options in _SHARED[:shared] + own:
                p.add_argument(*names, **options)
            p.set_defaults(func=func, text=text)
    return parser


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args, unknown = _build_parser(command).parse_known_args(argv)
    if unknown:
        # leftover arguments are the one error the top level reports for a named
        # command; its usage line lists every command, so the full parser reports it
        _build_parser().parse_args(argv)
    for dest, flag in (("max", "--max"), ("k_max", "--k-max"), ("cap", "--cap")):
        if getattr(args, dest, 0) < 0:
            print(f"error: {flag} must be non-negative", file=sys.stderr)
            return 2
    try:
        report, ok = args.func(args)
        _write(args, report)
    except _MATH_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SullivanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
