"""The import layering of the sgwl modules.

Each module may import only the modules below it, so no import cycle can
form and no module needs a lazy import inside a function:

    matcore < gksl < decomp < posmap < scenarios < cli

``gksl`` holds the Choi conventions that ``decomp`` and ``posmap`` share,
so ``decomp`` does not import ``posmap``, and ``posmap`` may call the
decomposability loop.

Whether an argument is an integer is decided by one rule in ``matcore``, so
``np.integer`` is named there and nowhere else.
"""

import ast
from pathlib import Path

import pytest

SOURCE = Path(__file__).resolve().parents[1] / "src" / "sgwl"

EDGES = {
    "__init__": {"decomp", "gksl", "matcore", "posmap"},
    "matcore": set(),
    "gksl": {"matcore"},
    "decomp": {"gksl", "matcore"},
    "posmap": {"decomp", "gksl", "matcore"},
    "scenarios": {"decomp", "gksl", "matcore", "posmap"},
    "cli": {"decomp", "gksl", "matcore", "posmap", "scenarios"},
}


def sgwl_imports(node) -> set[str]:
    """The sgwl modules an import statement names, relative or absolute."""
    if isinstance(node, ast.Import):
        return {a.name.split(".")[1] for a in node.names if a.name.startswith("sgwl.")}
    if not isinstance(node, ast.ImportFrom):
        return set()
    if (node.level == 1 and node.module is None) or node.module == "sgwl":
        return {a.name for a in node.names}
    if node.level == 1:
        return {node.module.split(".")[0]}
    if node.module.startswith("sgwl."):
        return {node.module.split(".")[1]}
    return set()


def parse(name):
    return ast.parse((SOURCE / f"{name}.py").read_text(), filename=f"{name}.py")


def test_every_module_is_listed():
    assert {p.stem for p in SOURCE.glob("*.py")} == set(EDGES)


@pytest.mark.parametrize("name", sorted(EDGES))
def test_module_imports(name):
    tree = parse(name)
    top = set().union(*(sgwl_imports(node) for node in tree.body))
    assert top == EDGES[name]


@pytest.mark.parametrize("name", sorted(EDGES))
def test_no_lazy_imports(name):
    tree = parse(name)
    nested = [node for node in ast.walk(tree) if node not in tree.body and sgwl_imports(node)]
    assert nested == []


def names_numpy_integer(node) -> bool:
    """``np.integer`` (or ``numpy.integer``), or ``integer`` imported from numpy."""
    if isinstance(node, ast.Attribute):
        return (node.attr == "integer" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
    if isinstance(node, ast.ImportFrom):
        return node.module == "numpy" and any(a.name == "integer" for a in node.names)
    return False


@pytest.mark.parametrize("name", sorted(EDGES))
def test_integer_rule_only_in_matcore(name):
    hits = [node.lineno for node in ast.walk(parse(name)) if names_numpy_integer(node)]
    assert (hits != []) == (name == "matcore")
