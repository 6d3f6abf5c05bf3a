"""Module boundaries: no ``src/`` module imports another's private (underscore) name."""
import ast
import pathlib

PACKAGE = pathlib.Path(__file__).resolve().parent.parent / "src" / "dualstream"


def test_no_module_imports_a_private_name_from_another():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "dualstream"):
                found += [f"{path.name}: {alias.name}" for alias in node.names
                          if alias.name.startswith("_")]
    assert found == []
