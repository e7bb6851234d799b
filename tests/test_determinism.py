"""Reports do not depend on the hash seed.

Classes, free words and the words of every basis are dict and set keys, so a
report that followed their hash order would change between interpreters.
Each command runs in two fresh interpreters under PYTHONHASHSEED 0 and 1,
and both stdouts must be the same bytes.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

MODELS = {
    "s2s3": "generator a 2\ngenerator b 3\ngenerator c 3\nd c = a^2\n",
    "cp2cp2": "generator a 2\ngenerator b 2\ngenerator x 5\ngenerator y 5\nd x = a^3\nd y = b^3\n",
    "s3s3": "generator a 3\ngenerator b 3\n",
}

COMMANDS = [
    ("loop-betti", "s2s3", "--max", "40", "--json"),
    ("mult-model", "cp2cp2", "--json"),
    ("witness", "s3s3", "--k-max", "6", "--json"),
]


def stdout_under_seed(argv, seed):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    env["PYTHONHASHSEED"] = str(seed)
    result = subprocess.run([sys.executable, "-m", "sullivan", *argv],
                            capture_output=True, env=env, check=True)
    return result.stdout


@pytest.mark.parametrize("command", COMMANDS, ids=[c[0] for c in COMMANDS])
def test_stdout_is_the_same_under_two_hash_seeds(command, tmp_path):
    path = tmp_path / f"{command[1]}.model"
    path.write_text(MODELS[command[1]], encoding="utf-8")
    argv = [command[0], str(path), *command[2:]]
    first = stdout_under_seed(argv, 0)
    assert first.startswith(b"{") and first == stdout_under_seed(argv, 1)
