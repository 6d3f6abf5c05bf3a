"""Module boundaries: no ``src/`` module imports another's private (underscore) name,
only ``errors`` reads or writes JSON objects, and no public ``src/`` name is there
for the tests alone."""
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


ROOT = PACKAGE.parent.parent


def _module_aliases(tree) -> dict[str, str]:
    """Local name -> ``dualstream`` module it is bound to by an import."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            aliases.update({alias.asname: alias.name.split(".")[1] for alias in node.names
                            if alias.asname and alias.name.startswith("dualstream.")})
        elif isinstance(node, ast.ImportFrom) and (
                node.level and not node.module or node.module == "dualstream"):
            aliases.update({alias.asname or alias.name: alias.name for alias in node.names})
    return aliases


def _uses(tree, own_module: str | None) -> set[tuple[str, str]]:
    """``(module, name)`` of every package name ``tree`` uses: imported by name, read
    as an attribute of an imported module, named as a string in a dict keyed by an
    imported module (the bench tracer's targets), or, in ``own_module`` itself, read
    outside its own top-level ``def`` or ``class``."""
    aliases = _module_aliases(tree)
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            module = node.module.split(".")[-1] if node.level or node.module.startswith(
                "dualstream.") else None
            found |= {(module, alias.name) for alias in node.names if module}
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in aliases):
            found.add((aliases[node.value.id], node.attr))
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if isinstance(key, ast.Name) and key.id in aliases:
                    found |= {(aliases[key.id], c.value) for c in ast.walk(value)
                              if isinstance(c, ast.Constant) and isinstance(c.value, str)}
    if own_module:
        for top in tree.body:
            own = getattr(top, "name", None)
            found |= {(own_module, n.id) for n in ast.walk(top)
                      if isinstance(n, ast.Name) and n.id != own}
    return found


def test_every_public_src_name_has_a_caller_outside_the_tests():
    """A public top-level function or class of ``src/`` is used by ``src/`` (outside
    its own body), by ``bench/`` or by the acceptance tests; one only the other
    tests call belongs in the tests."""
    defined, used = set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined |= {(path.stem, node.name) for node in tree.body
                    if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and not node.name.startswith("_")}
        used |= _uses(tree, path.stem)
    for path in [*sorted((ROOT / "bench").glob("*.py")), ROOT / "tests" / "test_acceptance.py"]:
        used |= _uses(ast.parse(path.read_text(encoding="utf-8")), None)
    assert sorted(f"{m}.{n}" for m, n in defined - used) == []
