"""Gold-standard loading and the stemming / grouping quality metrics.

Two grouping views are scored, both as per-word averages over cluster
overlaps. The label-aware view (classification) credits a word only when
its extracted root label equals its gold label; the label-agnostic view
(clustering) credits raw overlap between the word's extracted and gold
clusters regardless of labels, so its four scores always dominate the
label-aware ones. All accumulation is done in exact rationals and only
converted to float at the end, which keeps reports bit-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

from .corpus import normalize
from .errors import FormatError, decoding

# Extracted label for words the stemmer could not root; Arabic gold labels
# can never collide with it, and each word gets its own singleton cluster.
UNROOTED_LABEL_PREFIX = "__unrooted__"


def unrooted_label(word: str) -> str:
    return UNROOTED_LABEL_PREFIX + word


@dataclass(frozen=True)
class GoldPair:
    word: str
    gold_root: str | None


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    precision: float
    recall: float
    f1: float
    n: int


class ClusterSet:
    """Disjoint, labeled word groups with a word -> label reverse index."""

    def __init__(self, clusters: Mapping[str, Iterable[str]]):
        self.clusters: dict[str, frozenset[str]] = {}
        self.label_of: dict[str, str] = {}
        for label in sorted(clusters):
            words = frozenset(clusters[label])
            if not words:
                raise ValueError(f"cluster {label!r} is empty")
            for w in words:
                if w in self.label_of:
                    raise ValueError(f"word {w!r} appears under two labels")
                self.label_of[w] = label
            self.clusters[label] = words

    def __len__(self) -> int:
        return len(self.clusters)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ClusterSet) and self.clusters == other.clusters


def build_clusters(assignments: Mapping[str, str]) -> ClusterSet:
    """Group words by their assigned root label."""
    grouped: dict[str, set[str]] = {}
    for word, label in assignments.items():
        grouped.setdefault(label, set()).add(word)
    return ClusterSet(grouped)


def _parse_gold(path: str | Path) -> Iterable[GoldPair]:
    with decoding(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip() or line.startswith("#"):
                continue
            columns = line.split("\t")
            if len(columns) != 2:
                raise FormatError(
                    f"expected 2 tab-separated columns, found {len(columns)}",
                    path=str(path),
                    line=lineno,
                )
            word = normalize(columns[0].strip())
            root = normalize(columns[1].strip())
            if not word:
                raise FormatError("empty word column", path=str(path), line=lineno)
            yield GoldPair(word, root or None)


def load_gold(path: str | Path) -> list[GoldPair]:
    """Read word/root TSV rows, normalized, duplicates collapsed."""
    seen: set[GoldPair] = set()
    pairs = []
    for pair in _parse_gold(path):
        if pair not in seen:
            seen.add(pair)
            pairs.append(pair)
    return pairs


def load_gold_sequence(path: str | Path) -> list[GoldPair]:
    """All gold rows in file order, duplicates kept.

    The row order is a token stream (annotation files are running text),
    which is what supplies each word's context during evaluation.
    """
    return list(_parse_gold(path))


def stemming_accuracy(
    pairs: Iterable[GoldPair], stemmer: Callable[[str], str | None]
) -> float:
    """Fraction of rooted pairs whose stemmed root matches the gold root.

    Pairs without a gold root are ignored; a stemmer returning None for a
    rooted pair counts as incorrect.
    """
    rooted = [p for p in pairs if p.gold_root is not None]
    if not rooted:
        raise ValueError("no rooted gold pairs to evaluate")
    correct = sum(1 for p in rooted if stemmer(p.word) == p.gold_root)
    return float(Fraction(correct, len(rooted)))


def _overlap_metrics(
    extracted: ClusterSet,
    gold: ClusterSet,
    words: Sequence[str],
    label_aware: bool,
) -> MetricsReport:
    if not words:
        raise ValueError("no words to evaluate")
    acc = prec = rec = Fraction(0)
    for w in words:
        if w not in extracted.label_of:
            raise ValueError(f"word {w!r} missing from the extracted clustering")
        if w not in gold.label_of:
            raise ValueError(f"word {w!r} missing from the gold clustering")
        x_label = extracted.label_of[w]
        y_label = gold.label_of[w]
        x = extracted.clusters[x_label]
        y = gold.clusters[y_label]
        overlap = 0 if (label_aware and x_label != y_label) else len(x & y)
        acc += Fraction(overlap, len(x | y))
        prec += Fraction(overlap, len(y))
        rec += Fraction(overlap, len(x))
    n = len(words)
    acc /= n
    prec /= n
    rec /= n
    f1 = 2 * prec * rec / (prec + rec) if prec > 0 and rec > 0 else Fraction(0)
    return MetricsReport(float(acc), float(prec), float(rec), float(f1), n)


def classification_metrics(
    extracted: ClusterSet, gold: ClusterSet, words: Sequence[str]
) -> MetricsReport:
    """Label-aware per-word overlap metrics (a wrong label scores zero)."""
    return _overlap_metrics(extracted, gold, words, label_aware=True)


def clustering_metrics(
    extracted: ClusterSet, gold: ClusterSet, words: Sequence[str]
) -> MetricsReport:
    """Label-agnostic per-word overlap metrics."""
    return _overlap_metrics(extracted, gold, words, label_aware=False)
