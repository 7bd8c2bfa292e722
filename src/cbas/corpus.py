"""Corpus ingestion: tokenization, normalization, stopword filtering.

Everything downstream (matrix construction, stemming, evaluation) consumes
the filtered token streams produced here, so the exact rules matter:

* a token is a ``str``, a maximal run of word characters; punctuation
  runs and digit runs come out as their own tokens so filtering can drop
  them later. A token's position is its index in the list ``tokenize``
  returns;
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

from .errors import FormatError, open_text, read_lines

# Arabic letters after normalization fall in U+0621..U+064A.
_ARABIC_LETTER = re.compile("[ء-ي]+")
# Arabic letters, tatweel and the short-vowel diacritics, U+0621..U+0652:
# every character here is of category Lo, Lm or Mn, so a piece made only
# of them is one word token.
_PLAIN_WORD = re.compile("[ء-ْ]+")

_DIACRITICS_AND_TATWEEL = re.compile(r"[ً-ْـ]")
_ALEF_VARIANTS = re.compile(r"[آأإ]")  # آ أ إ
_ALEF_MAQSURA = "ى"  # ى
_YEH = "ي"  # ي


@dataclass(frozen=True)
class RawDocument:
    doc_id: str
    text: str


def tokenize(text: str) -> list[str]:
    """Split text into word, punctuation, and digit tokens, in order.

    A token is a maximal run of characters of the same class; whitespace
    separates tokens and is never emitted. Decimal digits (Unicode
    category Nd, Latin and Arabic-Indic alike) form a class of their own,
    so ``كتب123`` gives ``كتب`` and ``123``. A whitespace-free piece of
    plain Arabic letters and diacritics is one word token as it stands;
    any other piece is split by the class of each character.
    """
    tokens: list[str] = []
    for piece in text.split():
        if _PLAIN_WORD.fullmatch(piece):
            tokens.append(piece)
            continue
        start = 0
        run_kind = None
        for i, ch in enumerate(piece):
            category = unicodedata.category(ch)
            if category[0] in ("P", "S"):
                kind = "punct"
            elif category == "Nd":
                kind = "digit"
            else:
                kind = "word"
            if kind != run_kind:
                if i:
                    tokens.append(piece[start:i])
                start = i
                run_kind = kind
        tokens.append(piece[start:])
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
    return bool(_ARABIC_LETTER.fullmatch(token))


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
    return filter_tokens(map(normalize, tokenize(text)), stopwords)


def load_stopwords(path: str | Path) -> frozenset[str]:
    """Read a stopword file: one entry per line, ``#`` comments, UTF-8.

    Entries are normalized on load so membership tests run against
    normalized tokens.
    """
    entries = (normalize(line) for _, line in read_lines(path))
    return frozenset(entry for entry in entries if entry)


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
            with open_text(child) as fh:
                docs.append(RawDocument(child.name, fh.read()))
        return docs
    if fmt == "lines":
        if not path.is_file():
            raise FormatError("corpus path is not a file", path=str(path))
        docs = []
        with open_text(path) as fh:
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
