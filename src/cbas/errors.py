"""Shared exception types, and the readers of every text input.

Corpora, stopword, resource, config and gold files and ``stem --file`` are
opened by ``open_text``; the entry files among them are read by
``read_lines``. The matrix file has its own strict loader in ``cooccurrence``.
"""

from __future__ import annotations

from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, TextIO


class FormatError(ValueError):
    """A resource / data file does not match its documented format.

    Carries the offending path and 1-based line number when known, so CLI
    error messages can point at the exact line.
    """

    def __init__(self, message: str, path: str | None = None, line: int | None = None):
        self.path = path
        self.line = line
        prefix = ""
        if path is not None:
            prefix = f"{path}:"
            if line is not None:
                prefix += f"{line}:"
            prefix += " "
        super().__init__(prefix + message)


@contextmanager
def decoding(path: str | Path) -> Iterator[None]:
    """Turn a UnicodeDecodeError raised while reading ``path`` as UTF-8 into
    a FormatError naming the file and its first line that is not UTF-8.

    The line is only looked for once decoding has failed, so reading a
    valid file costs nothing extra.
    """
    try:
        yield
    except UnicodeDecodeError:
        raise FormatError("not valid UTF-8", path=str(path), line=_first_invalid_line(path)) from None


def _first_invalid_line(path: str | Path) -> int | None:
    # bytes.splitlines breaks at \n, \r and \r\n, as text-mode reading does.
    for lineno, line in enumerate(Path(path).read_bytes().splitlines(), start=1):
        try:
            line.decode("utf-8")
        except UnicodeDecodeError:
            return lineno
    return None


@contextmanager
def open_text(path: str | Path) -> Iterator[TextIO]:
    """Open a text input: UTF-8, a leading byte-order mark dropped, and a
    decoding error reported as a FormatError naming the file and line."""
    with decoding(path), open(path, encoding="utf-8-sig") as fh:
        yield fh


def read_lines(path: str | Path) -> Iterator[tuple[int, str]]:
    """The entries of an entry file as (1-based line number, stripped
    line), skipping blank lines and lines that start with ``#``."""
    with open_text(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                yield lineno, line
