"""The ``cbas`` names the benchmark scripts use still exist.

The benchmark under ``bench/`` runs this checkout's own ``cbas``, and
``bench/tracing.py`` wraps functions at the module attributes their
callers look up. A rename or a deletion in the package would break the
benchmark, but no tier-1 test runs it; this test reads ``bench/*.py``
with ``ast`` and checks every such name against the package as it is.
"""

import ast
import importlib

import pytest

import cbas

from .conftest import REPO_ROOT

BENCH_FILES = sorted((REPO_ROOT / "bench").glob("*.py"))


def _from_cbas(name: str):
    """What ``from cbas import <name>`` binds: a package attribute or a submodule."""
    if hasattr(cbas, name):
        return getattr(cbas, name)
    return importlib.import_module(f"cbas.{name}")


def cbas_references(source: str) -> tuple[list[str], list[str]]:
    """The ``cbas`` names ``source`` uses, and those of them that are missing.

    A name is used when the code imports it from ``cbas``, reads it as an
    attribute of ``cbas`` or of an object imported from ``cbas`` (to any
    depth), or names it as ``(owner, "attr")`` with such an owner, the
    form of the wrap targets in ``bench/tracing.py``. The name ``cbas``
    always stands for the package.
    """
    tree = ast.parse(source)
    bound = {"cbas": cbas}
    used, missing = [], []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "cbas":
            for alias in node.names:
                used.append(f"cbas.{alias.name}")
                try:
                    bound[alias.asname or alias.name] = _from_cbas(alias.name)
                except ImportError:
                    missing.append(f"cbas.{alias.name}")

    def resolve(expr):
        """The object ``expr`` names, or None when it is not a ``cbas`` name."""
        if isinstance(expr, ast.Name):
            return bound.get(expr.id)
        if isinstance(expr, ast.Attribute):
            owner = resolve(expr.value)
            if owner is not None:
                return lookup(owner, expr.attr, ast.unparse(expr))
        return None

    def lookup(owner, attr, shown):
        used.append(shown)
        if not hasattr(owner, attr):
            missing.append(shown)
            return None
        return getattr(owner, attr)

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            resolve(node)
        elif isinstance(node, ast.Tuple) and len(node.elts) == 2:
            owner_expr, attr = node.elts
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                owner = resolve(owner_expr)
                if owner is not None:
                    lookup(owner, attr.value, f"({ast.unparse(owner_expr)}, {attr.value!r})")
    return list(dict.fromkeys(used)), list(dict.fromkeys(missing))


@pytest.mark.parametrize("path", BENCH_FILES, ids=lambda p: p.name)
def test_bench_uses_only_names_that_exist(path):
    _, missing = cbas_references(path.read_text(encoding="utf-8"))
    assert missing == []


def test_every_kind_of_reference_is_read():
    used = {name for path in BENCH_FILES for name in cbas_references(path.read_text(encoding="utf-8"))[0]}
    assert {"cbas.RawDocument", "cbas.cli", "corpus.tokenize", "(disambiguation.Stemmer, 'stem_tokens')"} <= used


def test_a_missing_name_is_reported():
    source = (
        "import cbas\nfrom cbas import corpus, nosuchmodule\n"
        "cbas.NoSuchName\ncorpus.no_such_function\n"
        "targets = [(corpus, 'tokenize'), (corpus, 'no_such_attr')]\n"
    )
    _, missing = cbas_references(source)
    assert missing == [
        "cbas.nosuchmodule", "cbas.NoSuchName", "corpus.no_such_function", "(corpus, 'no_such_attr')",
    ]
