"""Start-up cost: each command loads only the modules it runs, and no OpenSSL;
`fractions` only when it divides and `json` only under `--json`.

Every module check runs in a fresh interpreter, so modules imported by the
rest of the suite cannot hide an import that a command does at start-up.
"""

import argparse
import hashlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

from helpers import builtin_models
from sullivan import modelfile
from sullivan.cli import _build_parser, model_hash
from test_golden import BENCH, WORKLOADS

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `main(argv)` on its own arguments, or only imports the package when
# it has none, then prints the loaded modules, space-separated, as the last
# line of stdout.  It imports nothing itself, so it sees a command load `json`.
PROBE = """
import sys
if sys.argv[1:]:
    from sullivan.cli import main
    main(sys.argv[1:])
else:
    import sullivan
print()
print(" ".join(sorted(sys.modules)))
"""


def probe(argv):
    """The stdout of the command `argv` (run by `main`) and the modules it loaded."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", PROBE, *argv],
                            capture_output=True, text=True, env=env, check=True)
    stdout, _, modules = result.stdout.rpartition("\n\n")
    return stdout + "\n", set(modules.split())


def loaded_modules(argv):
    return probe(argv)[1]


@pytest.fixture()
def s2_file(tmp_path):
    path = tmp_path / "s2.model"
    path.write_text("generator v 2\ngenerator w 3\nd w = v^2\n")
    return str(path)


# What a run that never divides does not load.
FRACTIONS = {"fractions", "decimal", "_decimal"}


def test_verify_loads_no_dataclasses_homology_models_or_series(s2_file):
    # nor `json` in text mode, nor `fractions` on a model without a `/`
    modules = loaded_modules(["verify", s2_file])
    assert "sullivan.calculus" in modules  # the probe did run the command
    assert not modules & {"_hashlib", "dataclasses", "sullivan.homology", "sullivan.models",
                          "sullivan.series", "json", *FRACTIONS}


def test_betti_json_loads_json_but_not_fractions(s2_file):
    modules = loaded_modules(["betti", s2_file, "--json"])
    assert {"sullivan.homology", "json"} <= modules
    assert not modules & FRACTIONS


def test_a_loop_betti_that_divides_loads_fractions(tmp_path):
    # the classes of the S^2 x S^3 loop model carry -1/2, 1/4 and others
    job = next(job for job in WORKLOADS.WORKLOADS["loop-elim"].jobs if job.id == "s2s3-loop-14")
    path = tmp_path / "s2s3.model"
    path.write_text(WORKLOADS.MODELS["s2s3"], encoding="utf-8")
    argv = [str(path) if a == "{s2s3}" else a for a in job.argv]
    stdout, modules = probe(argv)
    assert "fractions" in modules
    golden = BENCH / "golden" / "loop-elim" / "s2s3-loop-14.json"
    assert stdout == golden.read_text(encoding="utf-8")


def test_recipe_loads_no_homology_or_series():
    modules = loaded_modules(["recipe", "cpn", "2"])
    assert "sullivan.models" in modules
    assert not modules & {"dataclasses", "sullivan.homology", "sullivan.series"}


def test_importing_the_package_loads_no_submodule():
    modules = loaded_modules([])
    assert "sullivan" in modules
    assert not {m for m in modules if m.startswith("sullivan.")}


BUILTIN_SHA256 = any(importlib.util.find_spec(name) for name in ("_sha2", "_sha256"))
SURVEY = WORKLOADS.WORKLOADS["survey"].jobs


@pytest.mark.skipif(not BUILTIN_SHA256, reason="the interpreter has no built-in SHA-256")
@pytest.mark.parametrize("job", SURVEY, ids=[job.id for job in SURVEY])
def test_no_command_loads_openssl(job, tmp_path):
    paths = {}
    for name, text in WORKLOADS.MODELS.items():
        paths[name] = tmp_path / f"{name}.model"
        paths[name].write_text(text, encoding="utf-8")
    argv = [str(paths[a[1:-1]]) if a.startswith("{") else a for a in job.argv]
    modules = loaded_modules(argv)
    assert "sullivan.cli" in modules
    assert "_hashlib" not in modules


def test_model_hash_is_the_sha256_of_the_emitted_model():
    models = [model for _, model in builtin_models()]
    models += [modelfile.parse(text) for text in WORKLOADS.MODELS.values()]
    for model in models:
        oracle = hashlib.sha256(modelfile.emit(model).encode("utf-8")).hexdigest()
        assert model_hash(model) == oracle


def test_a_named_command_gets_a_parser_of_its_own():
    (subcommands,) = [a for a in _build_parser("verify")._actions
                      if isinstance(a, argparse._SubParsersAction)]
    assert list(subcommands.choices) == ["verify"]
