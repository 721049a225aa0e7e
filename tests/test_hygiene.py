"""Dead names in the package, read from each module's syntax tree: an
imported name its module never reads, and a private top-level name that no
module reads. The package's __init__ imports only to re-export, so its
imports are not checked. Also from the trees: no module but rng compares a
uniform, and the package, the tests and the benchmark import no package
that pyproject.toml does not declare. Last, importing the package and its
CLI leaves the oracle layer and the check matrix unloaded, and no record
class but ExperimentConfig is a dataclass."""
import ast
import dataclasses
import importlib
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "coinflip"
TREES = {path.name: ast.parse(path.read_text(), path.name)
         for path in sorted(SRC.glob("*.py"))}


def reads(tree) -> set[str]:
    """Every name the tree loads, and every attribute it names."""
    return {node.id if isinstance(node, ast.Name) else node.attr
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
            or isinstance(node, ast.Attribute)}


def imported(tree):
    """(line, name) for each name an import binds, __future__ aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                yield node.lineno, (alias.asname or alias.name).partition(".")[0]


def private_defined(tree):
    """(line, name) for each _private name bound at the top of a module."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield node.lineno, name


READS = {module: reads(tree) for module, tree in TREES.items()}


def test_every_import_is_read():
    unread = [f"{module}:{line} {name}"
              for module, tree in TREES.items() if module != "__init__.py"
              for line, name in imported(tree) if name not in READS[module]]
    assert not unread


def test_every_private_top_level_name_is_read():
    read = set().union(*READS.values())
    unread = [f"{module}:{line} {name}"
              for module, tree in TREES.items() if module != "__init__.py"
              for line, name in private_defined(tree) if name not in read]
    assert not unread


def test_only_rng_compares_a_uniform():
    """A uniform u becomes a draw in rng alone (bit, bernoulli and steps), so
    no comparison outside rng.py reads the name u."""
    compared = [f"{module}:{node.lineno}"
                for module, tree in TREES.items() if module != "rng.py"
                for node in ast.walk(tree) if isinstance(node, ast.Compare)
                if any(isinstance(n, ast.Name) and n.id == "u" for n in ast.walk(node))]
    assert not compared


def test_only_declared_packages_are_imported():
    """Every import in src/coinflip names the standard library, the package
    itself or a declared dependency; tests/ and perfbench/ may also import
    the declared test extras and their own directory's modules. A package
    that is installed but not declared would pass here and fail to import
    wherever the project is installed as declared."""
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later

    def names(requirements):  # each one's name, its import name for all declared
        return {re.match(r"[\w.-]+", r)[0].lower().replace("-", "_")
                for r in requirements}

    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    allowed = set(sys.stdlib_module_names) | {"coinflip"} | names(project["dependencies"])
    extras = names(project["optional-dependencies"]["test"])
    undeclared = []
    for directory in (SRC, ROOT / "tests", ROOT / "perfbench"):
        own = {path.stem for path in directory.glob("*.py")}
        ok = allowed if directory is SRC else allowed | extras | own
        for path in sorted(directory.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), path.name)):
                if isinstance(node, ast.Import):
                    modules = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and not node.level:
                    modules = [node.module]
                else:  # not an import, or a relative one: the package itself
                    continue
                undeclared += [f"{path.relative_to(ROOT)}:{node.lineno} {m}"
                               for m in modules if m.partition(".")[0] not in ok]
    assert not undeclared


def test_the_oracle_layer_is_off_the_import_path():
    """coinflip.discrimination has no reader on a run path, so importing
    the package and its CLI does not load it; it still imports on its own."""
    code = ("import sys, coinflip, coinflip.cli; "
            "assert 'coinflip.discrimination' not in sys.modules, 'loaded'; "
            "import coinflip.discrimination")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_check_matrix_loads_only_with_coinflip_table():
    """coinflip.matrix has one reader, `coinflip table`, which imports it
    when it runs: importing the package and its CLI does not load it."""
    code = ("import io, sys, coinflip, coinflip.cli; "
            "assert 'coinflip.matrix' not in sys.modules, 'loaded on import'; "
            "coinflip.cli.cli_main(['table', '--trials', '1'], out=io.StringIO()); "
            "assert 'coinflip.matrix' in sys.modules, 'not loaded by table'")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_the_config_is_the_only_dataclass():
    """Records are NamedTuples or hand-written classes, built without code
    generation at import; ExperimentConfig stays a dataclass, for
    dataclasses.replace. Every module is imported, __main__ (which runs the
    CLI) aside."""
    modules = sorted(f"coinflip.{path.stem}" for path in SRC.glob("*.py")
                     if not path.stem.startswith("__"))
    found = [f"{module}.{name}" for module in modules
             for name, obj in vars(importlib.import_module(module)).items()
             if isinstance(obj, type) and obj.__module__ == module
             and dataclasses.is_dataclass(obj)]
    assert found == ["coinflip.harness.ExperimentConfig"]
