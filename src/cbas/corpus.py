"""Corpus ingestion: tokenization, normalization, stopword filtering.

Everything downstream (matrix construction, stemming, evaluation) consumes
the filtered token streams produced here, so the exact rules matter:

* tokens are maximal runs of word characters; punctuation runs and digit
  runs come out as their own tokens so filtering can drop them later
  without disturbing token positions;
* normalization strips the short-vowel diacritics (U+064B..U+0652) and
  tatweel, folds the hamza-carrying alef forms onto bare alef, and folds
  alef maqsura onto yeh; ta marbuta is kept (the suffix list handles it);
* a token is kept (``is_kept``) when it is a non-empty run of Arabic
  letters and not a stopword. Filtering keeps only such tokens, and
  positions are renumbered by the surviving order, which is what defines
  adjacency for the co-occurrence window. Stemming skips every other
  token by the same rule.
"""

from __future__ import annotations

import re
import unicodedata
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from .errors import FormatError, decoding

# Arabic letters after normalization fall in U+0621..U+064A.
_ARABIC_LETTER = re.compile(r"^[ء-ي]+$")

_DIACRITICS_AND_TATWEEL = re.compile(r"[ً-ْـ]")
_ALEF_VARIANTS = re.compile(r"[آأإ]")  # آ أ إ
_ALEF_MAQSURA = "ى"  # ى
_YEH = "ي"  # ي


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    text: str


@dataclass(frozen=True)
class Token:
    surface: str
    position: int


def tokenize(text: str) -> list[Token]:
    """Split text into word, punctuation, and digit tokens, in order.

    A token is a maximal run of characters of the same class; whitespace
    separates tokens and is never emitted. Decimal digits (Unicode
    category Nd, Latin and Arabic-Indic alike) form a class of their own,
    so ``كتب123`` gives ``كتب`` and ``123``. Positions are 0-based indices
    into the emitted sequence.
    """
    tokens: list[Token] = []
    run: list[str] = []
    run_kind: str | None = None

    def flush() -> None:
        if run:
            tokens.append(Token("".join(run), len(tokens)))
            run.clear()

    for ch in text:
        if ch.isspace():
            flush()
            run_kind = None
            continue
        category = unicodedata.category(ch)
        if category[0] in ("P", "S"):
            kind = "punct"
        elif category == "Nd":
            kind = "digit"
        else:
            kind = "word"
        if kind != run_kind:
            flush()
            run_kind = kind
        run.append(ch)
    flush()
    return tokens


def normalize(text: str) -> str:
    """Normalize one token: drop diacritics/tatweel, fold alef variants to
    bare alef and alef maqsura to yeh. May return "" for all-diacritic input.
    """
    text = _DIACRITICS_AND_TATWEEL.sub("", text)
    text = _ALEF_VARIANTS.sub("ا", text)
    return text.replace(_ALEF_MAQSURA, _YEH)


def is_arabic_word(token: str) -> bool:
    """True when every character is an Arabic letter (normalized form)."""
    return bool(_ARABIC_LETTER.match(token))


def is_kept(token: str, stopwords: frozenset[str]) -> bool:
    """True for a normalized token that matrix building and stemming use:
    a non-empty run of Arabic letters that is not a stopword."""
    return bool(token) and token not in stopwords and is_arabic_word(token)


def filter_tokens(tokens: Iterable[str], stopwords: frozenset[str]) -> list[str]:
    """Keep the tokens ``is_kept`` accepts, dropping stopwords, punctuation,
    digits and non-Arabic tokens.

    The survivors keep their relative order; their new list index is the
    position used for context-window adjacency.
    """
    return [t for t in tokens if is_kept(t, stopwords)]


def prepare(text: str, stopwords: frozenset[str]) -> list[str]:
    """Tokenize, normalize, and filter one document into its token stream."""
    normalized = (normalize(tok.surface) for tok in tokenize(text))
    return filter_tokens(normalized, stopwords)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one entry per line, ``#`` comments, UTF-8.

    Entries are normalized on load so membership tests run against
    normalized tokens.
    """
    entries: set[str] = set()
    with decoding(path), open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            entry = normalize(line)
            if entry:
                entries.add(entry)
    return frozenset(entries)


def read_corpus(path: str | Path, fmt: str = "auto") -> list[RawDocument]:
    """Read a corpus from a directory of files or a line-per-document file.

    ``fmt`` is one of ``auto`` (directory => ``dir``, file => ``lines``),
    ``dir``, or ``lines``. Directory entries are read in sorted filename
    order so repeated runs see the same document order.
    """
    path = Path(path)
    if fmt == "auto":
        fmt = "dir" if path.is_dir() else "lines"
    if fmt == "dir":
        if not path.is_dir():
            raise FormatError("corpus path is not a directory", path=str(path))
        docs = []
        for child in sorted(p for p in path.iterdir() if p.is_file()):
            with decoding(child):
                docs.append(RawDocument(child.name, child.read_text(encoding="utf-8")))
        return docs
    if fmt == "lines":
        if not path.is_file():
            raise FormatError("corpus path is not a file", path=str(path))
        docs = []
        with decoding(path), open(path, encoding="utf-8") as fh:
            for i, line in enumerate(fh, start=1):
                line = line.strip()
                if line:
                    docs.append(RawDocument(f"line-{i}", line))
        return docs
    raise ValueError(f"unknown corpus format: {fmt!r}")


def iter_token_streams(
    documents: Iterable[RawDocument], stopwords: frozenset[str]
) -> Iterator[list[str]]:
    for doc in documents:
        yield prepare(doc.text, stopwords)
