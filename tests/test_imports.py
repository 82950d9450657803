"""The package's modules import one another one way.

Read with ``ast``, every import of one ``geodl`` module by another sits at
module level, and, leaving out ``if TYPE_CHECKING:`` blocks (annotations
only), the import graph has no cycle: parser -> normalize -> model ->
ranking -> training -> baselines -> cli.
"""

import ast
from pathlib import Path

import geodl

PACKAGE = Path(geodl.__file__).parent
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING") or (
        isinstance(test, ast.Attribute) and test.attr == "TYPE_CHECKING")


def _targets(node: ast.AST) -> list:
    """The package modules one import statement names."""
    if isinstance(node, ast.Import):
        dotted = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom) and node.level <= 1:
        base = ".".join(filter(None, ("geodl" if node.level else "",
                                      node.module)))
        dotted = [f"{base}.{alias.name}" for alias in node.names]
    else:
        return []
    parts = [name.split(".") for name in dotted]
    return list(dict.fromkeys(p[1] for p in parts if len(p) > 1
                              and p[0] == "geodl" and p[1] in MODULES))


def intra_imports(module: str) -> list:
    """``(target, line, in a function, under TYPE_CHECKING)`` for each
    import of another package module by *module*."""
    found = []

    def visit(node, in_function, type_checking):
        for target in _targets(node):
            found.append((target, node.lineno, in_function, type_checking))
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            for stmt in node.body:
                visit(stmt, in_function, True)
            for stmt in node.orelse:
                visit(stmt, in_function, type_checking)
            return
        in_function = in_function or isinstance(node, _FUNCTIONS)
        for child in ast.iter_child_nodes(node):
            visit(child, in_function, type_checking)

    visit(ast.parse((PACKAGE / f"{module}.py").read_text()), False, False)
    return found


def test_no_import_inside_a_function():
    inside = [f"{module}.py:{line} imports {target}"
              for module in MODULES
              for target, line, in_function, _ in intra_imports(module)
              if in_function]
    assert inside == []


def test_import_graph_has_no_cycle():
    graph = {module: {target for target, _, _, type_checking
                      in intra_imports(module)
                      if not type_checking and target != module}
             for module in MODULES}
    # peel off modules that import nothing left; what remains is on a cycle
    while True:
        leaves = {module for module, targets in graph.items() if not targets}
        if not leaves:
            break
        graph = {module: targets - leaves for module, targets in graph.items()
                 if module not in leaves}
    assert graph == {}


def test_ranking_sees_baselines_only_for_annotations():
    assert [(target, type_checking) for target, _, _, type_checking
            in intra_imports("ranking") if target == "baselines"] == [
        ("baselines", True)]
