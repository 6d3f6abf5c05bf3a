"""Module boundaries: no ``src/`` module imports another's private (underscore) name,
and only ``errors`` reads or writes JSON objects."""
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


def test_only_the_codec_defines_to_json_or_from_json():
    """Every other type states its JSON form as an ``errors.JsonRecord``."""
    found = [f"{path.name}: {node.name}" for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "errors.py"
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name in ("to_json", "from_json")]
    assert found == []
