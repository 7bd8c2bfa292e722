import ast
from pathlib import Path

import pytest

import cbas
from cbas.errors import FormatError, read_lines

SOURCE_DIR = Path(cbas.__file__).parent

# The modules that may open a file: errors.py for every text input,
# cooccurrence.py for the matrix file.
FILE_OPENERS = {"errors.py", "cooccurrence.py"}


def _file_reads(tree: ast.AST):
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "open":
            yield node.lineno, "open"
        elif isinstance(func, ast.Attribute) and func.attr in ("open", "read_text", "read_bytes"):
            yield node.lineno, func.attr


def test_only_errors_and_cooccurrence_open_files():
    found = [
        f"{path.name}:{lineno}: {call}"
        for path in sorted(SOURCE_DIR.glob("*.py"))
        if path.name not in FILE_OPENERS
        for lineno, call in _file_reads(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == []


def test_read_lines_skips_blank_and_comment_lines_and_a_leading_bom(tmp_path):
    path = tmp_path / "entries.txt"
    path.write_bytes("\ufeffكتب\n\n  # note\n  درس  \n\ufeffقول\n".encode("utf-8"))
    # Only the mark at the start of the file is dropped.
    assert list(read_lines(path)) == [(1, "كتب"), (4, "درس"), (5, "\ufeffقول")]


def test_read_lines_names_the_line_that_is_not_utf8(tmp_path):
    path = tmp_path / "entries.txt"
    path.write_bytes(b"\xef\xbb\xbf# head\n\xff\n")
    with pytest.raises(FormatError, match=r":2: not valid UTF-8"):
        list(read_lines(path))
