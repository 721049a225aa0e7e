"""Dead names in the package, read from each module's syntax tree: an
imported name its module never reads, and a private top-level name that no
module reads. The package's __init__ imports only to re-export, so its
imports are not checked. Also from the trees: no module but rng compares a
uniform."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "coinflip"
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
