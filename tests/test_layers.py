"""The package's import graph: every ``from .module import`` edge between
the modules of ``src/semlab``, function-local ones included, forms no cycle,
and every such import sits at module level."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "semlab"


def _imports() -> dict[str, list[tuple[str, ast.ImportFrom, bool]]]:
    """module -> (imported module, node, at module level) for each relative
    import of a sibling module; ``__init__`` is left out."""
    graph = {}
    for path in sorted(PACKAGE.glob("*.py")):
        if path.stem == "__init__":
            continue
        tree = ast.parse(path.read_text(), str(path))
        top = set(map(id, tree.body))
        graph[path.stem] = [(node.module, node, id(node) in top) for node in ast.walk(tree)
                            if isinstance(node, ast.ImportFrom) and node.level == 1
                            and node.module]
    return graph


def test_import_graph_has_no_cycle():
    edges = {module: sorted({target for target, _, _ in imports})
             for module, imports in _imports().items()}
    state: dict[str, str] = {}  # "open" while on the search path, then "done"

    def visit(module: str, path: list[str]) -> None:
        state[module] = "open"
        for target in edges.get(module, ()):
            assert state.get(target) != "open", "import cycle: " + " -> ".join(
                path[path.index(target):] + [module, target])
            if target not in state:
                visit(target, path + [module])
        state[module] = "done"

    for module in edges:
        if module not in state:
            visit(module, [])


def test_every_import_is_at_module_level():
    local = [f"{module}.py:{node.lineno} imports .{target}"
             for module, imports in _imports().items()
             for target, node, top in imports if not top]
    assert local == []


def _importers(package: str) -> set[str]:
    """The modules of ``src/semlab`` that import ``package`` or one of its
    submodules."""
    importers = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            names = ([alias.name for alias in node.names] if isinstance(node, ast.Import)
                     else [node.module or ""] if isinstance(node, ast.ImportFrom) and not node.level
                     else [])
            if any(name.split(".")[0] == package for name in names):
                importers.add(path.stem)
    return importers


def test_only_the_grid_module_imports_orjson():
    # the text of a written number is one module's decision
    assert _importers("orjson") == {"_grid"}


def test_only_the_grid_module_imports_csv():
    # so is how a delimited file is read and written
    assert _importers("csv") == {"_grid"}


def test_no_module_calls_loadtxt():
    # the delimited inputs have one fast parser, orjson in _grid.fast_fields
    calls = [f"{path.stem}.py:{node.lineno}" for path in sorted(PACKAGE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Attribute) and node.attr == "loadtxt"
             or isinstance(node, ast.Name) and node.id == "loadtxt"]
    assert calls == []


def test_only_the_grid_module_names_declined():
    # whether the fast read vouched for a file is the read's own decision: a
    # build gets the same fields and line lookup from either stage
    namers = {path.stem for path in PACKAGE.glob("*.py")
              for node in ast.walk(ast.parse(path.read_text(), str(path)))
              if "Declined" in (getattr(node, "id", None), getattr(node, "attr", None),
                                getattr(node, "name", None))}
    assert namers == {"_grid"}


def test_no_module_imports_scipy():
    # scipy is a test-only oracle: importing it costs more than most studies
    assert _importers("scipy") == set()


def test_importing_the_cli_loads_no_scipy():
    code = ("import semlab.cli, sys; "
            "assert not any(m == 'scipy' or m.startswith('scipy.') for m in sys.modules)")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(PACKAGE.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)
