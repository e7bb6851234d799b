"""Every engine function and class is used outside the tests: code that only
tests call is a second copy or an oracle, and its home is `tests/`."""

import ast
import re
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def test_every_engine_name_is_used_beyond_its_definitions():
    # a use is the name as a whole word in a Python file of src/, scripts/ or bench/
    defined = Counter(node.name for path in (REPO / "src" / "sullivan").glob("*.py")
                      for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                      if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                      and not (node.name.startswith("__") and node.name.endswith("__")))
    words = Counter(re.findall(r"\w+", "\n".join(path.read_text(encoding="utf-8") for folder in
                                                ("src", "scripts", "bench") for path in (REPO / folder).rglob("*.py"))))
    assert sorted(name for name, count in defined.items() if words[name] <= count) == []
