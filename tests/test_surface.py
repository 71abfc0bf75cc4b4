import ast
from collections import Counter
from pathlib import Path

import plmanifold

SOURCES = sorted(Path(plmanifold.__file__).parent.glob("*.py"))


def _references(tree):
    """How often each name is read in ``tree``, as a name or an attribute."""
    return Counter(node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(tree) if isinstance(node, (ast.Name, ast.Attribute)))


def _is_command(node):
    # a click command or group: @main.command(...), @click.group()
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in node.decorator_list)


def test_every_top_level_definition_is_exported_used_or_a_command():
    """Every top-level function and class of the package is named in
    ``plmanifold.__all__``, read by package code outside its own definition,
    or a click command: nothing is kept alive only by the tests."""
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES}
    read = sum((_references(tree) for tree in trees.values()), Counter())
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            outside = read[node.name] - _references(node)[node.name]
            if node.name not in plmanifold.__all__ and outside <= 0 and not _is_command(node):
                unused.append(f"{module}:{node.name}")
    assert unused == []
