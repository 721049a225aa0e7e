"""Dead names in the package, read from each module's syntax tree: an
imported name its module never reads, a private top-level name that no
module reads, and a public one that no module, test or benchmark file
reads. The package's __init__ imports only to re-export, so its imports are
neither checked nor counted as reads. Also from the trees: no module but rng
compares a uniform, no function but protocols.attempt runs the round's hooks
and channel, no hook writes to its player, and the package, the tests and
the benchmark import no package that pyproject.toml does not declare.
Last, importing the package and its CLI loads the run path's modules and
no others (neither the oracle layer nor the check matrix), and no record
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


def defined(tree):
    """(line, name) for each name bound at the top of a module, dunders
    aside."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in names:
            if not name.startswith("__"):
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
              for line, name in defined(tree)
              if name.startswith("_") and name not in read]
    assert not unread


def test_every_public_top_level_name_is_read():
    """A public top-level name of the package is read somewhere: in its own
    module, in another module (a re-export in __init__ is no read), or in a
    test or benchmark file."""
    read = set().union(*(names for module, names in READS.items()
                         if module != "__init__.py"))
    for path in sorted([*ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]):
        read |= reads(ast.parse(path.read_text(), path.name))
    unread = [f"{module}:{line} {name}"
              for module, tree in TREES.items()
              if module not in ("__init__.py", "__main__.py")
              for line, name in defined(tree)
              if not name.startswith("_") and name not in read]
    assert not unread


def test_only_rng_compares_a_uniform():
    """A uniform u becomes a draw in rng alone (bit, bernoulli and steps), so
    no comparison outside rng.py reads the name u."""
    compared = [f"{module}:{node.lineno}"
                for module, tree in TREES.items() if module != "rng.py"
                for node in ast.walk(tree) if isinstance(node, ast.Compare)
                if any(isinstance(n, ast.Name) and n.id == "u" for n in ast.walk(node))]
    assert not compared


def calls(tree, scope=()):
    """(qualified name of the innermost def or class around it, or (), call)
    for each call in the tree."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from calls(node, (*scope, node.name))
            continue
        if isinstance(node, ast.Call):
            yield scope, node
        yield from calls(node, scope)


def called(call) -> str:
    """What a call calls, as written: f, .f (a method of anything but
    super()) or super().f."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if not isinstance(f, ast.Attribute):
        return ""
    on = f.value
    inherited = isinstance(on, ast.Call) and getattr(on.func, "id", "") == "super"
    return ("super()." if inherited else ".") + f.attr


def test_only_attempt_runs_the_round():
    """The round has one home: no function in the package but
    protocols.attempt calls a hook method (.prepare, .receive, .reveal,
    .verify) or the channel (transmit, lost_rounds). CunningSonBob.receive's
    super().receive, his honest measurement, is the one exception."""
    hooks = {on + hook for on in (".", "super().")
             for hook in ("prepare", "receive", "reveal", "verify")}
    channel = {on + name for on in ("", ".") for name in ("transmit", "lost_rounds")}
    allowed = {("protocols.attempt", call) for call in hooks | channel}
    allowed.add(("strategies.CunningSonBob.receive", "super().receive"))
    callers = []
    for module, tree in TREES.items():
        for scope, node in calls(tree):
            caller, call = ".".join((module[:-3], *scope)), called(node)
            if call in hooks | channel and (caller, call) not in allowed:
                callers.append(f"{caller}:{node.lineno} {call}")
    assert not callers


def test_no_hook_writes_its_player():
    """A hook is a function of its arguments (see protocols): no prepare,
    receive, reveal or verify defined in the package assigns to, or
    deletes, an attribute of self, so every experiment can share one
    player."""
    writes = []
    for module, tree in TREES.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            for hook in cls.body:
                if not (isinstance(hook, ast.FunctionDef)
                        and hook.name in ("prepare", "receive", "reveal", "verify")):
                    continue
                writes += [f"{module[:-3]}.{cls.name}.{hook.name}:{node.lineno} "
                           f"self.{node.attr}"
                           for node in ast.walk(hook) if isinstance(node, ast.Attribute)
                           and not isinstance(node.ctx, ast.Load)
                           and isinstance(node.value, ast.Name) and node.value.id == "self"]
    assert not writes


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


RUN_PATH = ["catalog", "channel", "cli", "errors", "harness", "protocols",
            "quantum", "rng", "strategies"]


def test_the_oracle_layer_is_off_the_import_path():
    """Importing the package and its CLI loads the run path and nothing
    else: not coinflip.analytics nor coinflip.discrimination, which no run
    path reads. `coinflip fair` then loads analytics, where it runs, and
    discrimination still imports on its own."""
    code = ("import io, sys, coinflip, coinflip.cli; "
            "print(*sorted(m for m in sys.modules if m.startswith('coinflip.'))); "
            "coinflip.cli.cli_main(['fair'], out=io.StringIO()); "
            "assert 'coinflip.analytics' in sys.modules, 'not loaded by fair'; "
            "import coinflip.discrimination")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [f"coinflip.{name}" for name in RUN_PATH]


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
    generation at import. ExperimentConfig stays a dataclass, for
    dataclasses.replace, and its methods are hand-written too, so its
    decorator generates none (test_records checks it). Every module is
    imported, __main__ (which runs the CLI) aside."""
    modules = sorted(f"coinflip.{path.stem}" for path in SRC.glob("*.py")
                     if not path.stem.startswith("__"))
    found = [f"{module}.{name}" for module in modules
             for name, obj in vars(importlib.import_module(module)).items()
             if isinstance(obj, type) and obj.__module__ == module
             and dataclasses.is_dataclass(obj)]
    assert found == ["coinflip.harness.ExperimentConfig"]
