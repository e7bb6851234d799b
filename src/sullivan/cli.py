"""Command line interface.

Commands parse model files (or stdin), orchestrate the constructions and
return `(report, lines, ok)`: the report dict, the text lines (None when the
text output is the model itself), and whether every verdict holds.  `main`
writes that once, through `_write`, as deterministic text or canonical JSON:
sorted keys, compact separators, integers beyond 2^53 rendered as decimal
strings.  A command that builds a model also writes it to `-o FILE`.  Exit
codes: 0 success, 1 verification or comparison failure, 2 input errors.

`homology`, `models` and `series` are imported inside the commands that use
them, so each command loads only the code it runs.  `main` builds the
argument parser of the named command alone, and `model_hash` uses the
interpreter's built-in SHA-256, so a run loads no OpenSSL.
"""

from __future__ import annotations

import argparse
import json
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
from .algebra import DEFAULT_BASIS_CAP
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
    InvalidDifferential,
    NotDifferentialIdeal,
    SullivanError,
    ZeroDivisor,
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
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(report: dict) -> str:
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


def _serialize_representatives(report: "homology.CohomologyReport") -> list:
    out = []
    for classes in report.representatives:
        degree_entry = []
        for rep in classes:
            degree_entry.append(
                [[rep.algebra.word_str(w), str(c)] for w, c in rep.sorted_terms()]
            )
        out.append(degree_entry)
    return out


def _read_model(path: str, validate: bool = True) -> CDGA:
    if path == "-":
        return modelfile.parse(sys.stdin.read(), validate=validate)
    return modelfile.parse_path(path, validate=validate)


def _write(args, report: dict, lines: list[str] | None) -> None:
    """Write a command's output: the one place a report leaves the program.

    The model text of `report["model_file"]` goes to `-o FILE` first.
    Without `--json` it goes to stdout under `-o -`, or when `lines` is None
    (the model text is then the command's output).  Then stdout takes the
    canonical JSON report, or the text lines.
    """
    output = getattr(args, "output", None)
    if output not in (None, "-"):
        with open(output, "w", encoding="utf-8") as handle:
            handle.write(report["model_file"])
    elif not args.json and (output == "-" or lines is None):
        sys.stdout.write(report["model_file"])
    if args.json:
        sys.stdout.write(canonical_json(report))
    elif lines is not None:
        sys.stdout.write("".join(f"{line}\n" for line in lines))


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
    lines = [f"model {report['model_hash']}"]
    if failure is None:
        lines.append("d_squared_zero: ok")
    else:
        lines.append(
            f"d_squared_zero: FAIL at {failure[0].name}: d(d({failure[0].name})) = {failure[1]}"
        )
    if minimal is None:
        lines.append("minimal: ok")
    else:
        lines.append(f"minimal: violation at {minimal[0].name}: linear part {minimal[1]}")
    lines.append("homogeneous: ok")
    return report, lines, failure is None


def _betti_report(command: str, model: CDGA, computed_on: CDGA, args) -> tuple:
    from .homology import betti

    result = betti(computed_on, args.max, cap=args.cap)
    report = _report(
        command,
        model_hash=model_hash(model),
        window=args.max,
        betti=list(result.betti),
        representatives=_serialize_representatives(result),
        series=list(result.betti),
    )
    lines = [f"window 0..{args.max}", "betti " + ",".join(str(b) for b in result.betti)]
    for n, classes in enumerate(result.representatives):
        if classes:
            lines.append(f"H^{n} dim {len(classes)}: " + "; ".join(str(c) for c in classes))
    return report, lines, True


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
    return report, None, True


def cmd_loop_betti(args) -> tuple:
    model = _read_model(args.model)
    loop = loop_model(model)
    return _betti_report("loop-betti", model, loop, args)


def cmd_tensor(args) -> tuple:
    left = _read_model(args.left)
    right = _read_model(args.right)
    text = modelfile.emit(tensor_cdga(left, right))
    report = _report("tensor", model_hash=_text_hash(text), model_file=text)
    return report, None, True


def cmd_quotient(args) -> tuple:
    model = _read_model(args.model)
    kill = [name for name in args.kill.split(",") if name]
    residues = killed_residues(model, kill)
    for name in sorted(residues):
        print(
            f"warning: d({name}) = {residues[name]} survives the substitution; "
            "this quotient is by generators, not by the differential ideal",
            file=sys.stderr,
        )
    result = quotient_by_generators(model, kill)
    report = _report(
        "quotient",
        model_hash=model_hash(model),
        model_file=modelfile.emit(result),
        verdicts={"differential_ideal": not residues},
        details={"residues": {name: str(value) for name, value in sorted(residues.items())}},
    )
    return report, None, True


def cmd_koszul(args) -> tuple:
    from .homology import betti

    model = _read_model(args.model)
    # the Koszul generator, of degree |z| - 1, must lie in the window
    cocycle = modelfile.parse_element(args.by, model.algebra, args.max + 1)
    koszul = koszul_model(model, cocycle, args.max, cap=args.cap)
    computed = betti(koszul.model, args.max, cap=args.cap)
    matches = tuple(computed.betti) == koszul.quotient_dims
    report = _report(
        "koszul",
        model_hash=model_hash(model),
        window=args.max,
        betti=list(computed.betti),
        representatives=_serialize_representatives(computed),
        verdicts={"matches_quotient_oracle": matches},
        details={
            "quotient_dims": list(koszul.quotient_dims),
            "zero_divisor_checked_to": args.max,
        },
        model_file=modelfile.emit(koszul.model),
    )
    lines = [
        f"window 0..{args.max}",
        "koszul betti   " + ",".join(str(b) for b in computed.betti),
        "quotient dims  " + ",".join(str(d) for d in koszul.quotient_dims),
        f"verdict {'EQUAL' if matches else 'DIFFER'}",
    ]
    return report, lines, matches


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
    lines = [f"D({s}) = {value}" for s, value in differentials.items()]
    lines += [f"{key}: {'ok' if verdicts[key] else 'FAIL'}" for key in sorted(verdicts)]
    return report, lines, all(verdicts.values())


def cmd_witness(args) -> tuple:
    from . import models
    from .homology import betti, h_algebra_generator_counts

    model = _read_model(args.model)
    loop = loop_model(model)
    witness_report = models.vps_witnesses_for_model(loop, args.k_max)
    loop_betti_report = betti(loop, args.max, cap=args.cap)
    generator_counts = h_algebra_generator_counts(model, args.max, cap=args.cap)
    entries = []
    lines = []
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
                "exponents": [list(p) for p in entry.exponent_pairs],
                "classes": list(entry.labels),
                "cocycles": entry.cocycles_verified,
                "independent": entry.independent,
                "betti": b_n,
            }
        )
        lines.append(
            f"k={entry.k} degree={entry.degree} count={entry.count} "
            f"cocycles={'ok' if entry.cocycles_verified else 'FAIL'} "
            f"independent={'ok' if entry.independent else 'FAIL'} "
            f"betti={b_n if b_n is not None else 'outside window'}"
        )
    report = _report(
        "witness",
        model_hash=model_hash(model),
        window=args.max,
        witnesses=entries,
        betti=list(loop_betti_report.betti),
        verdicts={"all_certified": ok},
        details={
            "even_generators": list(witness_report.even_gens),
            "odd_pair": [witness_report.y, witness_report.z],
            "degree_period": witness_report.period,
            "h_algebra_generators_in_window": list(generator_counts),
        },
    )
    lines.append(
        "H* algebra generators per degree: "
        + ",".join(str(c) for c in generator_counts)
    )
    return report, lines, ok


def cmd_series(args) -> tuple:
    from . import series as series_mod

    form = series_mod.parse_rational(args.rational, args.max)
    expansion = series_mod.expand_rational(form, args.max)
    verdicts = {}
    betti_list = None
    hash_value = None
    equal = True
    if args.betti_of is not None:
        from .homology import betti

        model = _read_model(args.betti_of)
        hash_value = model_hash(model)
        result = betti(model, args.max, cap=args.cap)
        betti_list = list(result.betti)
        equal = result.betti == expansion
        verdicts["equal"] = equal
    report = _report(
        "series",
        model_hash=hash_value,
        window=args.max,
        series=list(expansion),
        betti=betti_list,
        verdicts=verdicts,
    )
    lines = ["series " + ",".join(map(str, expansion))]
    if betti_list is not None:
        lines.append("betti  " + ",".join(str(b) for b in betti_list))
        lines.append(f"verdict {'EQUAL' if equal else 'DIFFER'}")
    return report, lines, equal


def cmd_recipe(args) -> tuple:
    from . import models

    recipe = models.recipe_from_args(args.name, args.params)
    model = models.build(recipe)
    text = modelfile.emit(model, header=(f"recipe {recipe}",))
    report = _report("recipe", model_hash=model_hash(model), model_file=text)
    return report, None, True


# -- argument parsing ---------------------------------------------------------------

_MODEL = ("model", {"nargs": "?", "default": "-"})
_OUTPUT = ("-o", "--output", {})

# Options shared by the commands: each command takes the first few.
_SHARED = (
    ("--json", {"action": "store_true", "help": "emit a canonical JSON report"}),
    ("--max", {"type": int, "default": 16, "help": "degree window bound (default 16)"}),
    ("--cap", {"type": int, "default": DEFAULT_BASIS_CAP,
               "help": f"per-degree monomial basis cap (default {DEFAULT_BASIS_CAP})"}),
)

# name: (function, help, how many shared options, own arguments), each
# argument being its names and then its keyword arguments
_COMMANDS = {
    "verify": (cmd_verify, "check d*d=0, minimality, homogeneity", 1, (_MODEL,)),
    "betti": (cmd_betti, "Betti numbers and representatives", 3, (_MODEL,)),
    "loop": (cmd_loop, "emit the free loop space model", 1, (_MODEL, _OUTPUT)),
    "loop-betti": (cmd_loop_betti, "Betti numbers of the loop model", 3, (_MODEL,)),
    "tensor": (cmd_tensor, "tensor product of two models", 1,
               (("left", {}), ("right", {}), _OUTPUT)),
    "quotient": (cmd_quotient, "kill generators", 1,
                 (_MODEL, ("--kill", {"required": True, "help": "comma-separated generator names"}),
                  _OUTPUT)),
    "koszul": (cmd_koszul, "one-variable Koszul model", 3,
               (_MODEL, ("--by", {"required": True, "help": "even cocycle expression"}), _OUTPUT)),
    "mult-model": (cmd_mult_model, "relative model of the multiplication, with verdicts", 2,
                   (_MODEL, _OUTPUT)),
    "witness": (cmd_witness, "witness cocycle families", 3,
                (_MODEL, ("--k-max", {"type": int, "default": 4}))),
    "series": (cmd_series, "expand a rational function", 3,
               (("--rational", {"required": True}),
                ("--betti-of", {"help": "model file to compare the expansion against"}))),
    "recipe": (cmd_recipe, "emit a built-in model", 1,
               (("name", {}), ("params", {"nargs": "*"}), _OUTPUT)),
}


def _build_parser(only: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command, or of the command `only` alone."""
    parser = argparse.ArgumentParser(
        prog="sullivan",
        description="Exact-arithmetic Sullivan models: cohomology, loop models, witnesses.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (func, help_text, shared, own) in _COMMANDS.items():
        if only in (None, name):
            p = sub.add_parser(name, help=help_text)
            for *names, options in _SHARED[:shared] + own:
                p.add_argument(*names, **options)
            p.set_defaults(func=func)
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
        report, lines, ok = args.func(args)
        _write(args, report, lines)
    except _MATH_FAILURES as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SullivanError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
