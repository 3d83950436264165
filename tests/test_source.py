"""Source hygiene: each module of the package uses every name it imports, and
each name it defines has a caller outside the tests."""

import ast
import pathlib

import pytest

import rlab
import rlab.tensor

MODULES = sorted(pathlib.Path(rlab.__file__).parent.glob("*.py"))

# the benchmark's own programs, not its tests
PERFBENCH = sorted((pathlib.Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))

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


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_seeds_are_derived_in_seeding_only(path):
    # rlab.seeding derives generator states itself; numpy's SeedSequence is
    # the tests' oracle for them
    calls = [call for call in ("SeedSequence(", "default_rng(") if call in path.read_text()]
    assert calls == [], f"{path.name} calls {calls}; derive seeds through rlab.seeding"


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.stem)
def test_training_workers_are_forked_by_the_instance_runner_only(path):
    # InstanceRunner's pool, whose workers fork under the held BLAS guard
    pools = 1 if path.stem == "robustness" else 0
    assert path.read_text().count("ProcessPoolExecutor(") == pools, (
        f"{path.name} starts a process pool; fork training workers through InstanceRunner")


# modules whose names may wait for a caller: ROADMAP direction 6 gives
# baselines one through the baseline_gate policy
UNCALLED_MODULES = {"baselines"}


def defined_names(tree: ast.Module):
    """(name, statement) of each top-level function, class and UPPER_CASE constant."""
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield stmt.name, stmt
        elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
            for target in stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]:
                for node in ast.walk(target):
                    if isinstance(node, ast.Name) and node.id.isupper():
                        yield node.id, stmt


def names_read(stmt: ast.stmt) -> set[str]:
    """Names, attributes and strings that stmt reads: strings count because
    perfbench patches functions by name, and rlab.nn looks activations up by name."""
    read = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    return read


def unread_names(modules: dict[str, str], callers: list[str]) -> list[str]:
    """'module.name' for each name defined in modules (stem -> source) that no
    other top-level statement of modules or of callers (sources) reads."""
    trees = {stem: ast.parse(source) for stem, source in modules.items()}
    statements = [stmt for tree in [*trees.values(), *map(ast.parse, callers)]
                  for stmt in tree.body]
    reads = [(stmt, names_read(stmt)) for stmt in statements]
    unread = []
    for stem, tree in trees.items():
        if stem in UNCALLED_MODULES:
            continue
        for name, own in defined_names(tree):
            if not any(name in read for stmt, read in reads if stmt is not own):
                unread.append(f"{stem}.{name}")
    return unread


def test_finds_a_name_read_only_by_itself():
    source = ("LIMIT = 3\nSEEN = LIMIT\ndef loop(n):\n    return loop(n - 1)\n"
              "def called():\n    pass\nclass Lone:\n    pass\n")
    assert unread_names({"m": source}, ["called()"]) == ["m.SEEN", "m.loop", "m.Lone"]


def test_every_name_has_a_caller_outside_the_tests():
    unread = unread_names({p.stem: p.read_text() for p in MODULES},
                          [p.read_text() for p in PERFBENCH])
    assert unread == [], f"read by tests only, or by nothing: {unread}"


# graph nodes come only from named ops, each with its own shape checks
_BINARY = ("add", "sub", "mul", "truediv", "pow", "matmul")
ARITHMETIC = {f"__{op}__" for op in _BINARY} | {f"__r{op}__" for op in _BINARY} | {"__neg__"}


def test_tensor_defines_no_arithmetic_operator():
    defined = sorted(ARITHMETIC & set(vars(rlab.tensor.Tensor)))
    assert defined == [], f"Tensor defines {defined}; build graph nodes from named ops"
