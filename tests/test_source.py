"""Source hygiene: each module of the package uses every name it imports."""

import ast
import pathlib

import pytest

import rlab

MODULES = sorted(pathlib.Path(rlab.__file__).parent.glob("*.py"))

# (module, name) imported for callers outside the module: perfbench wraps
# rlab.cli.bootstrap_sample
USED_ELSEWHERE = {("cli", "bootstrap_sample")}


def unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of source that no expression reads."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_finds_an_unused_import():
    assert unused_imports("import sys\nimport os.path\nfrom a import b as c\nos.sep\n") == [
        "c", "sys"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_module_uses_its_imports(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.stem, name) not in USED_ELSEWHERE]
    assert unused == [], f"{path.name} imports {unused} and never uses them"


@pytest.mark.parametrize("path", [p for p in MODULES if p.stem != "seeding"],
                         ids=lambda p: p.stem)
def test_seeds_are_derived_in_seeding_only(path):
    assert "SeedSequence(" not in path.read_text(), (
        f"{path.name} builds a SeedSequence; derive seeds through rlab.seeding")
