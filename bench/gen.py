"""Seeded input generator for the benchmark.

It reads the bundled resource files of the checkout itself and fills the
pattern slots itself, so the source root of every word it emits is known
without the program under test. Every generated word is
prefix + pattern(root) + suffix. Punctuation, digit and stopword tokens
stand alone between the words; they are exactly the tokens the program
must skip.

The same seed always gives the same inputs.
"""

from __future__ import annotations

import bisect
import itertools
import random
import re
from dataclasses import dataclass
from pathlib import Path

RESOURCE_DIR = Path("src/cbas/resources")

LEXICON_SIZE = 20_000
HEAD_SIZE = 2_000
ZIPF_EXPONENT = 1.0
FILLER_RATE = 0.15
PUNCTUATION = ("،", ".", "؟", "!", "؛", ":")
ARABIC_INDIC_DIGITS = "٠١٢٣٤٥٦٧٨٩"

_DIACRITICS = re.compile("[ً-ْـ]")
_ALEF_FORMS = re.compile("[آأإ]")


def normalize(text: str) -> str:
    """Strip diacritics and tatweel, fold alef forms and alef maqsura."""
    return _ALEF_FORMS.sub("ا", _DIACRITICS.sub("", text)).replace("ى", "ي")


def _entries(path: Path) -> list[str]:
    out = []
    for raw in path.read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(normalize(line))
    return out


@dataclass(frozen=True)
class Resources:
    prefixes: tuple[str, ...]  # non-empty affixes; the empty one is implicit
    suffixes: tuple[str, ...]
    patterns: tuple[str, ...]  # digit-slot templates
    roots: frozenset[str]
    stopwords: tuple[str, ...]


def load_resources(resource_dir: Path = RESOURCE_DIR) -> Resources:
    return Resources(
        prefixes=tuple(_entries(resource_dir / "prefixes.txt")),
        suffixes=tuple(_entries(resource_dir / "suffixes.txt")),
        patterns=tuple(_entries(resource_dir / "patterns.txt")),
        roots=frozenset(_entries(resource_dir / "roots.txt")),
        stopwords=tuple(sorted(set(_entries(resource_dir / "stopwords.txt")) - {""})),
    )


def arity(pattern: str) -> int:
    return max(int(ch) for ch in pattern if ch.isdigit())


def fill(pattern: str, root: str) -> str:
    """Put the letters of ``root`` into the digit slots of ``pattern``."""
    return "".join(root[int(ch) - 1] if ch.isdigit() else ch for ch in pattern)


@dataclass(frozen=True)
class Lexicon:
    """Distinct generated words in Zipf rank order, each with its source root."""

    words: tuple[str, ...]
    root_of: dict[str, str]


def make_lexicon(seed: int, res: Resources) -> Lexicon:
    """The lexicon for ``seed``: a fixed head of HEAD_SIZE words, then a seeded tail.

    The head carries most of the Zipf mass, so its per-word cost sets most
    of the per-token cost; keeping it the same for every seed keeps that
    cost from moving with the seed.
    """
    roots = sorted(res.roots)
    by_arity: dict[int, list[str]] = {}
    for p in res.patterns:
        by_arity.setdefault(arity(p), []).append(p)
    stopwords = set(res.stopwords)
    words: list[str] = []
    root_of: dict[str, str] = {}
    rng = random.Random("lexicon-head")
    while len(words) < LEXICON_SIZE:
        if len(words) == HEAD_SIZE:
            rng = random.Random(f"{seed}:lexicon-tail")
        root = rng.choice(roots)
        pattern = rng.choice(by_arity[len(root)])
        prefix = rng.choice(res.prefixes) if rng.random() < 0.5 else ""
        suffix = rng.choice(res.suffixes) if rng.random() < 0.5 else ""
        word = prefix + fill(pattern, root) + suffix
        if word in root_of or word in stopwords:
            continue  # the first derivation of a surface form is its source
        root_of[word] = root
        words.append(word)
    return Lexicon(tuple(words), root_of)


class ZipfDraw:
    """Draws lexicon words with probability proportional to 1 / rank**s."""

    def __init__(self, lexicon: Lexicon, exponent: float = ZIPF_EXPONENT):
        self.words = lexicon.words
        self.cum = list(itertools.accumulate(1.0 / r**exponent for r in range(1, len(self.words) + 1)))

    def __call__(self, rng: random.Random) -> str:
        return self.words[bisect.bisect_right(self.cum, rng.random() * self.cum[-1])]


# A token is (surface, kind); kind is "word", "punctuation", "digit" or "stopword".
Token = tuple[str, str]


def filler(rng: random.Random, res: Resources) -> Token:
    x = rng.random()
    if x < 0.4:
        return rng.choice(PUNCTUATION), "punctuation"
    if x < 0.8:
        return rng.choice(res.stopwords), "stopword"
    digits = "0123456789" if rng.random() < 0.5 else ARABIC_INDIC_DIGITS
    return "".join(rng.choice(digits) for _ in range(rng.randint(1, 4))), "digit"


def token_stream(rng: random.Random, res: Resources, next_word, n: int) -> list[Token]:
    """``n`` raw tokens: words from ``next_word`` with fillers between them."""
    return [filler(rng, res) if rng.random() < FILLER_RATE else (next_word(rng), "word") for _ in range(n)]


def words_of(tokens: list[Token]) -> list[str]:
    """The token stream the program keeps: the generated words, in order."""
    return [t for t, kind in tokens if kind == "word"]


def text_of(tokens: list[Token]) -> str:
    return " ".join(t for t, _ in tokens)


def zipf_documents(seed: int, tag: str, res: Resources, lexicon: Lexicon, docs: int, tokens_per_doc: int) -> list[list[Token]]:
    """``docs`` documents of Zipf-drawn words; ``tag`` separates input streams of one seed."""
    rng = random.Random(f"{seed}:{tag}")
    draw = ZipfDraw(lexicon)
    return [token_stream(rng, res, draw, tokens_per_doc) for _ in range(docs)]


def tail_stream(seed: int, tag: str, res: Resources, lexicon: Lexicon, rooted: int) -> list[Token]:
    """A stream of ``rooted`` distinct words from the rarer half of the lexicon."""
    rng = random.Random(f"{seed}:{tag}")
    out: list[Token] = []
    for word in rng.sample(lexicon.words[len(lexicon.words) // 2:], rooted):
        while rng.random() < FILLER_RATE:
            out.append(filler(rng, res))
        out.append((word, "word"))
    return out


