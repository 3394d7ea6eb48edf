"""The package imports nothing but the standard library, numpy and itself,
no module of it imports another's underscore names, every name a
module imports is used there or exported in its ``__all__``, no
module but ``dense`` takes a norm with ``np.linalg.norm``, and only
``dense.triangular_cond2`` takes an SVD; nothing inverts a matrix. Only
``sparse.text_stream`` opens a file, and the top-level namespace holds
the documented API and nothing else.

README promises "Requires numpy only"; the test references may use scipy,
the package may not. A check that two modules share is given a public
name in one of them, so the underscore marks what stays private to its
module.

Every norm behind a decision is ``dense.frobenius_norm``, whose result
does not depend on the scale of its input; a raw one-pass norm squares
its entries, which over- or underflow at the edges of the float range.
Every condition number measured from a triangular factor comes from
one SVD of it, so no second route (an inverse, a spectral norm) can
measure the same quantity differently. Every file crosses the package
boundary by one rule, a path or an open text stream, so no second
``open`` can take another (an int as a file descriptor, another
encoding).
"""

import ast
import glob
import inspect
import os
import sys

import pytest

import sstep_gmres

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
# frobenius_norm is the package's one norm of vectors and matrices
LINALG_NORM_ALLOWED = {
    ("dense.py", "frobenius_norm"): 1,
}

# (module, function) -> the number of np.linalg.svd calls it may make:
# one SVD of a triangular factor is the package's route to cond2
LINALG_SVD_ALLOWED = {
    ("dense.py", "triangular_cond2"): 1,
}


def enclosing_functions(tree):
    """node -> the name of the innermost function that holds it."""
    owner = {}
    for func in ast.walk(tree):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(func):
                owner[node] = func.name  # inner functions come later
    return owner


def linalg_uses(path, name):
    """(line, enclosing function) of every ``*.linalg.<name>`` reference
    and every import of ``name`` from ``numpy.linalg`` in the file."""
    tree = syntax_tree(path)
    owner = enclosing_functions(tree)
    for node in ast.walk(tree):
        hit = (
            isinstance(node, ast.Attribute)
            and node.attr == name
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        ) or (
            isinstance(node, ast.ImportFrom)
            and node.module == "numpy.linalg"
            and any(alias.name == name for alias in node.names)
        )
        if hit:
            yield node.lineno, owner.get(node, "<module>")


def counts_by_function(uses):
    """(module, function) -> the number of the (line, function) pairs
    that ``uses(path)`` yields for it, over the package's sources."""
    counts = {}
    for path in SOURCES:
        for _, func in uses(path):
            key = (os.path.basename(path), func)
            counts[key] = counts.get(key, 0) + 1
    return counts


def linalg_counts(name):
    """(module, function) -> the number of its ``*.linalg.<name>`` uses."""
    return counts_by_function(lambda path: linalg_uses(path, name))


def test_only_dense_takes_norms_with_numpy():
    assert linalg_counts("norm") == LINALG_NORM_ALLOWED


def test_only_triangular_cond2_takes_an_svd():
    assert linalg_counts("svd") == LINALG_SVD_ALLOWED


def test_no_module_inverts_a_matrix():
    assert linalg_counts("inv") == {}


def test_norm_check_sees_a_reintroduced_call(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy.linalg import norm\n"
        "def step(w):\n"
        "    return np.linalg.norm(w) + norm(w)\n"
    )
    assert list(linalg_uses(str(path), "norm")) == [(2, "<module>"), (4, "step")]


def test_inverse_check_sees_a_reintroduced_call(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import numpy as np\n"
        "from numpy.linalg import inv\n"
        "def tail(r):\n"
        "    return np.linalg.inv(r) @ inv(r) + np.linalg.svd(r)[1]\n"
    )
    assert list(linalg_uses(str(path), "inv")) == [(2, "<module>"), (4, "tail")]
    assert list(linalg_uses(str(path), "svd")) == [(4, "tail")]


# (module, function) -> the number of calls named ``open`` it may make:
# text_stream turns every path the package reads or writes into a stream
OPEN_ALLOWED = {
    ("sparse.py", "text_stream"): 1,
}


def open_calls(path):
    """(line, enclosing function) of every call of a function named
    ``open``: the builtin, ``io.open``, ``os.open`` and the like."""
    tree = syntax_tree(path)
    owner = enclosing_functions(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) == "open"
            or getattr(node.func, "attr", None) == "open"
        ):
            yield node.lineno, owner.get(node, "<module>")


def test_only_text_stream_opens_files():
    assert counts_by_function(open_calls) == OPEN_ALLOWED


def test_open_check_sees_a_reintroduced_call(tmp_path):
    path = tmp_path / "module.py"
    path.write_text(
        "import io, os\n"
        "def sidecar(p):\n"
        "    with open(p, 'w') as fh, io.open(p) as g:\n"
        "        return os.open(p, os.O_RDONLY)\n"
    )
    assert list(open_calls(str(path))) == [(3, "sidecar"), (3, "sidecar"), (4, "sidecar")]


# the documented API; internals are imported from their own modules
TOP_LEVEL_API = [
    "CsrMatrix",
    "IterationRecord",
    "RandSvdSpec",
    "SolveResult",
    "SolverConfig",
    "backward_error",
    "cond2",
    "csr_from_dense",
    "gen_randsvd",
    "jacobi_preconditioner",
    "parse_matrix_market",
    "read_csv",
    "right_singular_vector",
    "solve",
    "write_csv",
    "write_matrix_market",
]


def test_top_level_exports_the_documented_api():
    assert sstep_gmres.__all__ == TOP_LEVEL_API
    # no other public name than the submodules and __version__
    public = {
        name
        for name, value in vars(sstep_gmres).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert public == set(TOP_LEVEL_API)
