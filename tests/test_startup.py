"""Start-up cost: each command loads only the modules it runs.

Every check runs in a fresh interpreter, so modules imported by the rest of
the suite cannot hide an import that a command does at start-up.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

# Runs `main(argv)` when given argv, then prints the loaded modules as the
# last line of stdout.
PROBE = """
import json, sys
argv = json.loads(sys.argv[1])
if argv is not None:
    from sullivan.cli import main
    main(argv)
else:
    import sullivan
print()
print(json.dumps(sorted(sys.modules)))
"""


def loaded_modules(argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    result = subprocess.run([sys.executable, "-c", PROBE, json.dumps(argv)],
                            capture_output=True, text=True, env=env, check=True)
    return set(json.loads(result.stdout.splitlines()[-1]))


@pytest.fixture()
def s2_file(tmp_path):
    path = tmp_path / "s2.model"
    path.write_text("generator v 2\ngenerator w 3\nd w = v^2\n")
    return str(path)


def test_verify_loads_no_dataclasses_homology_models_or_series(s2_file):
    modules = loaded_modules(["verify", s2_file])
    assert "sullivan.calculus" in modules  # the probe did run the command
    assert not modules & {"dataclasses", "sullivan.homology", "sullivan.models", "sullivan.series"}


def test_recipe_loads_no_homology_or_series():
    modules = loaded_modules(["recipe", "cpn", "2"])
    assert "sullivan.models" in modules
    assert not modules & {"dataclasses", "sullivan.homology", "sullivan.series"}


def test_importing_the_package_loads_no_submodule():
    modules = loaded_modules(None)
    assert "sullivan" in modules
    assert not {m for m in modules if m.startswith("sullivan.")}
