"""The output branches that no golden job reaches stay byte for byte as recorded.

Each case runs `sullivan.cli.main` in process, in text and with `--json`, on
literal model texts.  Its stdout and stderr must equal
`tests/expected/branches/<case>.<form>.stdout` and `.stderr`, and its exit
code the entry of `exit_codes.json`: a failed `d*d` check and a minimality
violation of `verify`; a witness outside the window, witnesses that are no
loop cocycles, and a `witness` model refused before its window is listed;
`series` alone and against a model whose Betti numbers differ; the warning
and residues of a `quotient` by generators that is no differential ideal,
and a `quotient` that is refused (with no warning before its error);
`koszul` on two generators, also with its model text on stdout; and the
input refusals: `koszul` of a presentation with nonzero d and of a zero
cocycle, a denominator that is no integer, a recipe short of a parameter,
and a `mult-model` whose generator table cannot be allocated.

    PYTHONPATH=src python tests/test_branches.py

records every case again.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

import pytest

from sullivan.cli import main

EXPECTED = Path(__file__).resolve().parent / "expected" / "branches"

MODELS = {
    "d2-fails": "generator a 2\ngenerator b 3\ngenerator c 4\nd b = a^2\nd c = a*b\n",
    "not-minimal": "generator x 5\ngenerator y 4\nd y = x\n",
    "s3s3": "generator v_1 3\ngenerator v_2 3\n",
    "s2": "generator v 2\ngenerator w 3\nd w = v^2\n",
    "a2b4": "generator a 2\ngenerator b 4\n",
    # d(sb) = -(sa*y + a*sy), so d(sa*sb*(sy)^p*(sz)^q) = ±a*sa*(sy)^(p+1)*(sz)^q: no
    # witness is a loop cocycle, though each is one in the quotient that kills a and b
    "not-loop-cocycles": "generator a 2\ngenerator y 3\ngenerator z 3\ngenerator b 4\nd b = a*y\n",
    # one odd generator: refused before the loop window is listed, so --cap 1 is never reached
    "one-odd": "generator x 2\ngenerator v 3\n",
    "not-ideal": ("generator a 2\ngenerator g 3\ngenerator h 4\ngenerator k 5\n"
                  "d g = a^2\nd h = a*g - k\nd k = a^3\n"),
    "x2": "generator x 2\n",
    "fraction-of-generator": "generator v 2\ngenerator w 3\nd w = 1/v\n",
    "huge-odd": "generator v 10000000000000000000000000000000000000001\n",
}

# name: argv, each {model} standing for a file of that model
CASES = {
    "verify-d-squared": ("verify", "{d2-fails}"),
    "verify-minimality": ("verify", "{not-minimal}"),
    "witness-outside-window": ("witness", "{s3s3}", "--max", "4", "--k-max", "4"),
    "witness-not-loop-cocycles": ("witness", "{not-loop-cocycles}", "--max", "10", "--k-max", "3"),
    "witness-one-odd-generator": ("witness", "{one-odd}", "--cap", "1"),
    "series": ("series", "--rational", "1/(1-z)", "--max", "4"),
    "series-differs": ("series", "--rational", "1/(1-z)", "--max", "4", "--betti-of", "{s2}"),
    "quotient-warning": ("quotient", "{s2}", "--kill", "w"),
    "quotient-not-ideal": ("quotient", "{not-ideal}", "--kill", "g"),
    "koszul-two-generators": ("koszul", "{a2b4}", "--by", "a^2+b", "--max", "8"),
    "koszul-model-to-stdout": ("koszul", "{a2b4}", "--by", "a^2+b", "--max", "8", "-o", "-"),
    "koszul-nonzero-differential": ("koszul", "{s2}", "--by", "v"),
    "koszul-zero-cocycle": ("koszul", "{x2}", "--by", "0"),
    "verify-fraction-denominator": ("verify", "{fraction-of-generator}"),
    "recipe-missing-parameter": ("recipe", "cpn"),
    # the generator table of the indecomposables has 10^40 + 3 slots
    "mult-model-generator-table": ("mult-model", "{huge-odd}",
                                   "--max", "10000000000000000000000000000000000000001"),
}
RUNS = [(case, form) for case in CASES for form in ("text", "json")]


def run(case: str, form: str, directory: Path) -> tuple[int, str, str]:
    """The exit code, stdout and stderr of the case in that form."""
    argv = []
    for arg in CASES[case]:
        if arg.startswith("{"):
            path = directory / f"{arg[1:-1]}.model"
            path.write_text(MODELS[arg[1:-1]], encoding="utf-8")
            arg = str(path)
        argv.append(arg)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv + ["--json"] * (form == "json"))
    return code, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("case, form", RUNS, ids=[f"{c}/{f}" for c, f in RUNS])
def test_branch_output_is_the_recorded_bytes(case, form, tmp_path):
    code, out, err = run(case, form, tmp_path)
    assert code == json.loads((EXPECTED / "exit_codes.json").read_text(encoding="utf-8"))[f"{case}/{form}"]
    assert out.encode("utf-8") == (EXPECTED / f"{case}.{form}.stdout").read_bytes()
    assert err.encode("utf-8") == (EXPECTED / f"{case}.{form}.stderr").read_bytes()


def record() -> None:
    EXPECTED.mkdir(parents=True, exist_ok=True)
    codes = {}
    with tempfile.TemporaryDirectory() as directory:
        for case, form in RUNS:
            codes[f"{case}/{form}"], out, err = run(case, form, Path(directory))
            (EXPECTED / f"{case}.{form}.stdout").write_bytes(out.encode("utf-8"))
            (EXPECTED / f"{case}.{form}.stderr").write_bytes(err.encode("utf-8"))
    (EXPECTED / "exit_codes.json").write_text(json.dumps(codes, indent=1) + "\n", encoding="utf-8")


if __name__ == "__main__":
    record()
