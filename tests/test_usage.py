"""Every help and usage-error text of the CLI, byte for byte.

`tests/expected/cli_usage.txt` holds, for each argument list below, what
`main` writes to stdout and stderr and its exit code, with `COLUMNS=80`.
argparse words these texts itself, so the file is the output of Python
3.11's argparse.  Regenerate it with

    COLUMNS=80 PYTHONPATH=src python tests/test_usage.py > tests/expected/cli_usage.txt
"""

import contextlib
import io
import os
import sys
from pathlib import Path

import pytest

EXPECTED = Path(__file__).resolve().parent / "expected" / "cli_usage.txt"

COMMANDS = ("verify", "betti", "loop", "loop-betti", "tensor", "quotient", "koszul",
            "mult-model", "witness", "series", "recipe")

# No case reads a model: each stops in argument parsing.
CASES = (
    (),
    ("-h",),
    ("bogus",),
    *((command, "-h") for command in COMMANDS),
    ("verify", "M", "--bogus"),
    ("betti", "M", "--max", "x"),
    ("koszul", "M"),
    ("tensor", "M"),
    ("mult-model", "M", "--cap", "3"),
)


def header(argv) -> str:
    return " ".join(("$ sullivan", *argv))


def render(argv) -> str:
    """The exit code, stdout and stderr of `main(argv)`, under one header line."""
    from sullivan.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(list(argv))
        except SystemExit as exc:
            code = exc.code
    return f"{header(argv)}\n[exit {code}]\n[stdout]\n{out.getvalue()}[stderr]\n{err.getvalue()}"


def expected_blocks() -> dict[str, str]:
    blocks: dict[str, str] = {}
    for line in EXPECTED.read_text(encoding="utf-8").splitlines(keepends=True):
        if line.startswith("$ sullivan"):
            key = line.rstrip("\n")
            blocks[key] = ""
        blocks[key] += line
    return blocks


def test_the_file_holds_every_case_once():
    assert list(expected_blocks()) == [header(argv) for argv in CASES]


@pytest.mark.parametrize("argv", CASES, ids=lambda argv: " ".join(argv) or "no-arguments")
def test_usage_text_is_unchanged(argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    assert render(argv) == expected_blocks()[header(argv)]


if __name__ == "__main__":
    os.environ["COLUMNS"] = "80"
    sys.stdout.write("".join(render(argv) for argv in CASES))
