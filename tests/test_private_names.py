"""No dhb module reads another dhb module's private names, and the
modules import one another only along the allowed edges."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "dhb"


def _private(name):
    return name.startswith("_") and not name.startswith("__")


def foreign_private_reads(source, module):
    """(line, name) of every private name of another dhb module that the
    source of dhb.<module> imports or reads as an attribute of an imported
    dhb module, e.g. `from .x import _y` or `eng._run`."""
    found = []
    modules = {}  # local name -> dhb module it is bound to
    tree = ast.parse(source)
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            package = node.level == 1 and not node.module
            inside = node.level == 1 or (node.module or "").startswith("dhb")
            for alias in node.names:
                local = alias.asname or alias.name
                if package or node.module == "dhb":
                    modules[local] = alias.name
                    if _private(alias.name):
                        found.append((node.lineno, alias.name))
                elif inside and _private(alias.name):
                    found.append((node.lineno, alias.name))
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("dhb."):
                    modules[alias.asname or alias.name] = alias.name[4:]
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and _private(node.attr)
                and isinstance(node.value, ast.Name)
                and modules.get(node.value.id, module) != module):
            found.append((node.lineno, f"{node.value.id}.{node.attr}"))
    return sorted(found)


@pytest.mark.parametrize("source, names", [
    ("from . import engines as eng\neng._run(1)", ["eng._run"]),
    ("from .analysis import _record", ["_record"]),
    ("from dhb.analysis import Trace, _Records", ["_Records"]),
    ("from . import _hidden", ["_hidden"]),
    ("import dhb.weights as wt\nwt._fixed_point", ["wt._fixed_point"]),
    ("from . import weights as wt\nx = wt.WeightMatrix\nx._perron", []),
    ("def f(suite):\n    return suite._q_sum", []),
    ("from . import engines\nengines.__name__", []),
], ids=["module-attribute", "from-import", "absolute-import",
        "private-module", "import-as", "object-attribute", "own-object",
        "dunder"])
def test_checker_finds_foreign_private_reads(source, names):
    assert [name for _, name in foreign_private_reads(source, "x")] == names


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_another_modules_private_names(path):
    assert foreign_private_reads(path.read_text(), path.stem) == []


def dhb_imports(source):
    """(line, module) of every dhb module that the source imports, e.g.
    `from .x import y`, `from . import x as z` or `import dhb.x`."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom):
            path = "." * node.level + (node.module or "")
            if path in (".", "dhb"):
                found += [(node.lineno, alias.name) for alias in node.names]
            elif path.startswith((".", "dhb.")):
                found.append((node.lineno, path.rsplit(".", 1)[-1]))
        elif isinstance(node, ast.Import):
            found += [(node.lineno, alias.name[4:]) for alias in node.names
                      if alias.name.startswith("dhb.")]
    return found


@pytest.mark.parametrize("source, modules", [
    ("from .analysis import Trace, iterate", ["analysis"]),
    ("from . import weights as wt, graph", ["weights", "graph"]),
    ("from dhb.objectives import quadratic_suite", ["objectives"]),
    ("from dhb import engines", ["engines"]),
    ("import dhb.weights as wt\nimport numpy", ["weights"]),
], ids=["relative", "package", "absolute", "absolute-package", "import"])
def test_checker_finds_dhb_imports(source, modules):
    assert [module for _, module in dhb_imports(source)] == modules


def test_module_graph():
    """analysis, which holds the run loop and its recording, imports no dhb
    module but errors, and only harness reads the objective families."""
    broken = [f"{path.name}:{line} imports {module}"
              for path in sorted(SRC.glob("*.py"))
              for line, module in dhb_imports(path.read_text())
              if (path.stem == "analysis" and module != "errors")
              or (module == "objectives" and path.stem != "harness")]
    assert broken == []
