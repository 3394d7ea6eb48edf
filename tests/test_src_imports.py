"""The package imports nothing but the standard library, numpy and itself,
no module of it imports another's underscore names, every name a
module imports is used there or exported in its ``__all__``, and no
module but ``dense`` takes a norm with ``np.linalg.norm``.

README promises "Requires numpy only"; the test references may use scipy,
the package may not. A check that two modules share is given a public
name in one of them, so the underscore marks what stays private to its
module.

Every norm behind a decision is ``dense.frobenius_norm``, whose result
does not depend on the scale of its input; a raw one-pass norm squares
its entries, which over- or underflow at the edges of the float range.
"""

import ast
import glob
import os
import sys

import pytest

PACKAGE_DIR = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src", "sstep_gmres")
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "sstep_gmres"}


def syntax_tree(path):
    with open(path, encoding="utf-8") as fh:
        return ast.parse(fh.read(), filename=path)


def top_level_imports(path):
    """(line, top-level module) of every absolute import in the file."""
    for node in ast.walk(syntax_tree(path)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.split(".")[0]


def private_imports(path):
    """(line, name) of every underscore name imported from the package."""
    for node in ast.walk(syntax_tree(path)):
        if isinstance(node, ast.ImportFrom) and (
            node.level > 0 or (node.module or "").split(".")[0] == "sstep_gmres"
        ):
            for alias in node.names:
                if alias.name.startswith("_"):
                    yield node.lineno, alias.name


def unused_imports(path):
    """(line, name) of every name the module imports but neither reads
    nor lists in its ``__all__``."""
    tree = syntax_tree(path)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            getattr(target, "id", None) == "__all__" for target in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in used)


# (module, name) imported on purpose without use, with the reason
UNUSED_IMPORT_ALLOWED = {
    # perfbench/tracing.py patches every package module that binds
    # householder_qr, and the harness tests expect sparse to be one
    ("sparse.py", "householder_qr"),
}


SOURCES = sorted(glob.glob(os.path.join(PACKAGE_DIR, "*.py")))


def test_sources_found():
    assert os.path.join(PACKAGE_DIR, "dense.py") in SOURCES


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_imports_are_stdlib_numpy_or_the_package(path):
    foreign = [(line, name) for line, name in top_level_imports(path) if name not in ALLOWED]
    assert foreign == [], "%s imports outside stdlib and numpy: %r" % (path, foreign)


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_no_module_imports_another_modules_private_names(path):
    private = list(private_imports(path))
    assert private == [], "%s imports private names: %r" % (path, private)


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_every_imported_name_is_used_or_exported(path):
    module = os.path.basename(path)
    unused = [
        (line, name)
        for line, name in unused_imports(path)
        if (module, name) not in UNUSED_IMPORT_ALLOWED
    ]
    assert unused == [], "%s imports names it does not use: %r" % (path, unused)


def test_unused_import_check_sees_a_dropped_use(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "from typing import NamedTuple\n"
        "import numpy as np\n"
        "from .basis import RitzSet, leja_order\n"
        "__all__ = ['leja_order']\n"
        "x = np.zeros(1)\n"
    )
    assert unused_imports(str(path)) == [(1, "NamedTuple"), (3, "RitzSet")]


# (module, function) -> the number of np.linalg.norm calls it may make:
# frobenius_norm is the package's one norm of vectors and matrices, and
# triangular_cond2 takes two spectral norms
LINALG_NORM_ALLOWED = {
    ("dense.py", "frobenius_norm"): 1,
    ("dense.py", "triangular_cond2"): 2,
}


def linalg_norm_uses(path):
    """(line, enclosing function) of every ``*.linalg.norm`` reference and
    every import of ``norm`` from ``numpy.linalg`` in the file."""
    tree = syntax_tree(path)
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name  # inner functions come later
    for node in ast.walk(tree):
        hit = (
            isinstance(node, ast.Attribute)
            and node.attr == "norm"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.linalg"
            and any(alias.name == "norm" for alias in node.names)
        )
        if hit:
            yield node.lineno, owner.get(node, "<module>")


def test_only_dense_takes_norms_with_numpy():
    counts = {}
    for path in SOURCES:
        for _, func in linalg_norm_uses(path):
            key = (os.path.basename(path), func)
            counts[key] = counts.get(key, 0) + 1
    assert counts == LINALG_NORM_ALLOWED


def test_norm_check_sees_a_reintroduced_call(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "def step(w):\n"
        "    return np.linalg.norm(w) + norm(w)\n"
    )
    assert list(linalg_norm_uses(str(path))) == [(2, "<module>"), (4, "step")]
