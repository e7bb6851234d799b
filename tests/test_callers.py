"""Every engine function and class is used outside the tests: code that only
tests call is a second copy or an oracle, and its home is `tests/`."""

import ast
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def _trees():
    return [ast.parse(path.read_text(encoding="utf-8"))
            for folder in ("src", "scripts", "bench") for path in sorted((REPO / folder).rglob("*.py"))]


def _tracer_attributes() -> list[str]:
    """Each name in the attribute paths of `bench/tracer.py`'s TARGETS, which
    the tracer reaches through `getattr`."""
    tree = ast.parse((REPO / "bench" / "tracer.py").read_text(encoding="utf-8"))
    (targets,) = [ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                  and [getattr(t, "id", None) for t in node.targets] == ["TARGETS"]]
    return [name for _, path, _ in targets for name in path.split(".")]


def test_every_engine_name_is_used_beyond_its_definitions():
    # a use is an identifier in code of src/, scripts/ or bench/: a name, an
    # attribute or an imported name; a word in a string or a comment is none
    defined = {node.name for path in (REPO / "src" / "sullivan").glob("*.py")
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))
               and not (node.name.startswith("__") and node.name.endswith("__"))}
    uses = Counter(_tracer_attributes())
    for tree in _trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id] += 1
            elif isinstance(node, ast.Attribute):
                uses[node.attr] += 1
            elif isinstance(node, ast.alias):
                uses[node.name.split(".")[-1]] += 1
    assert sorted(name for name in defined if not uses[name]) == []
