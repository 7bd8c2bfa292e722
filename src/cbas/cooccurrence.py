"""Sliding-window context matrix and PMI / PPMI / SPMI association scores.

Counts are kept exact (Python ints in a sparse dict); probabilities are
only formed at scoring time, so a matrix scaled by a constant factor
yields identical association scores.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Sequence

from .errors import FormatError, decoding

NEG_INF = float("-inf")

FILE_MAGIC = "CBAS-MATRIX"
FILE_VERSION = "v1"


class Vocabulary:
    """Bijection between words and dense contiguous indices."""

    __slots__ = ("words", "index")

    def __init__(self, words: Iterable[str] = ()):
        self.words: list[str] = []
        self.index: dict[str, int] = {}
        for w in words:
            self.add(w)

    def add(self, word: str) -> int:
        idx = self.index.get(word)
        if idx is None:
            idx = len(self.words)
            self.index[word] = idx
            self.words.append(word)
        return idx

    def __contains__(self, word: str) -> bool:
        return word in self.index

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Vocabulary) and self.words == other.words

    def __repr__(self) -> str:
        return f"Vocabulary({len(self.words)} words)"


@dataclass(frozen=True)
class AssociationMeasure:
    """Which log-ratio association to compute; alpha only matters for spmi."""

    kind: str = "spmi"
    alpha: float = 0.75

    def __post_init__(self):
        if self.kind not in ("pmi", "ppmi", "spmi"):
            raise ValueError(f"unknown measure kind: {self.kind!r}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")


class ContextMatrix:
    """Sparse word-by-context co-occurrence counts with cached marginals.

    ``counts`` maps ``(target_index, context_index)`` to a positive int;
    zero cells are simply absent. Immutable by convention once built.
    """

    def __init__(
        self,
        window_n: int,
        vocab: Vocabulary,
        counts: dict[tuple[int, int], int],
    ):
        if window_n < 2:
            raise ValueError(f"window_n must be >= 2, got {window_n}")
        self.window_n = window_n
        self.vocab = vocab
        self.counts = counts
        self.target_marginals = [0] * len(vocab)
        self.context_marginals = [0] * len(vocab)
        total = 0
        for (ti, ci), c in counts.items():
            if c < 1:
                raise ValueError(f"count for pair ({ti}, {ci}) must be >= 1")
            self.target_marginals[ti] += c
            self.context_marginals[ci] += c
            total += c
        self.total = total
        self._alpha_norms: dict[float, float] = {}

    # -- lookups -----------------------------------------------------------

    def count(self, target: str, context: str) -> int:
        ti = self.vocab.index.get(target)
        ci = self.vocab.index.get(context)
        if ti is None or ci is None:
            return 0
        return self.counts.get((ti, ci), 0)

    def target_marginal(self, word: str) -> int:
        idx = self.vocab.index.get(word)
        return 0 if idx is None else self.target_marginals[idx]

    def context_marginal(self, word: str) -> int:
        idx = self.vocab.index.get(word)
        return 0 if idx is None else self.context_marginals[idx]

    def context_alpha_norm(self, alpha: float) -> float:
        """Sum over the vocabulary of context_marginal ** alpha (cached)."""
        norm = self._alpha_norms.get(alpha)
        if norm is None:
            norm = sum(c**alpha for c in self.context_marginals if c)
            self._alpha_norms[alpha] = norm
        return norm

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ContextMatrix)
            and self.window_n == other.window_n
            and self.vocab == other.vocab
            and self.counts == other.counts
        )

    def __repr__(self) -> str:
        return (
            f"ContextMatrix(window_n={self.window_n}, vocab={len(self.vocab)}, "
            f"pairs={len(self.counts)}, total={self.total})"
        )


def _count_document(doc: Sequence[int], window_n: int) -> Counter:
    """Directed pair counts for one document of vocabulary indices."""
    pairs: Counter = Counter()
    reach = window_n - 1
    n = len(doc)
    for i, wi in enumerate(doc):
        for j in range(max(0, i - reach), min(n, i + reach + 1)):
            if j != i:
                pairs[(wi, doc[j])] += 1
    return pairs


def build_matrix(
    documents: Iterable[Sequence[str]], window_n: int, jobs: int = 1
) -> ContextMatrix:
    """Count co-occurrences within a symmetric window of size ``window_n``.

    Within each document, the words at positions i and j are associated
    whenever 0 < |i - j| < window_n; windows never cross document
    boundaries. Documents must already be normalized and stopword-filtered.
    ``jobs`` is accepted and ignored: counting runs serially, since the
    work is pure Python and threads only made it slower.
    """
    if window_n < 2:
        raise ValueError(f"window_n must be >= 2, got {window_n}")
    docs = [list(d) for d in documents]

    vocab = Vocabulary()
    indexed = [[vocab.add(w) for w in doc] for doc in docs]

    counts: dict[tuple[int, int], int] = {}
    partials = [_count_document(d, window_n) for d in indexed]
    for partial in partials:
        for pair, c in partial.items():
            counts[pair] = counts.get(pair, 0) + c
    return ContextMatrix(window_n, vocab, counts)


def association(
    matrix: ContextMatrix, w: str, c: str, measure: AssociationMeasure
) -> float:
    """Association score of target word ``w`` with context word ``c``.

    With P(w,c) = count/total and marginal probabilities likewise:

      pmi  = log2(P(w,c) / (P(w) P(c)))
      ppmi = max(pmi, 0)
      spmi = max(log2(P(w,c) / (P(w) P_a(c))), 0)

    where P_a(c) = context_marginal(c)**alpha / sum_c' context_marginal(c')**alpha.
    A zero count or an out-of-vocabulary word scores 0 for ppmi/spmi and
    -inf for pmi.
    """
    if matrix.total == 0:
        raise ValueError("association is undefined on an empty matrix")
    ti = matrix.vocab.index.get(w)
    ci = matrix.vocab.index.get(c)
    if ti is None or ci is None:
        return NEG_INF if measure.kind == "pmi" else 0.0
    return association_at(matrix, ti, ci, measure)


def association_at(
    matrix: ContextMatrix, ti: int, ci: int, measure: AssociationMeasure
) -> float:
    """``association`` of the words at vocabulary indices ``ti`` and ``ci``.

    This is where the measures are defined; ``association`` only looks the
    two words up.
    """
    if matrix.total == 0:
        raise ValueError("association is undefined on an empty matrix")
    joint = matrix.counts.get((ti, ci), 0)
    if joint == 0:
        return NEG_INF if measure.kind == "pmi" else 0.0
    tm = matrix.target_marginals[ti]
    cm = matrix.context_marginals[ci]
    if measure.kind == "spmi":
        norm = matrix.context_alpha_norm(measure.alpha)
        value = math.log2((joint * norm) / (tm * cm**measure.alpha))
        return max(value, 0.0)
    value = math.log2((joint * matrix.total) / (tm * cm))
    if measure.kind == "ppmi":
        return max(value, 0.0)
    return value


# -- persistence ------------------------------------------------------------


def save_matrix(matrix: ContextMatrix, destination: str | Path) -> None:
    """Write the documented TSV format; triplets sorted by (target, context)."""
    lines = [
        f"{FILE_MAGIC}\t{FILE_VERSION}\twindow={matrix.window_n}"
        f"\ttotal={matrix.total}\tvocab={len(matrix.vocab)}"
    ]
    for idx, word in enumerate(matrix.vocab.words):
        lines.append(f"{idx}\t{word}")
    for (ti, ci) in sorted(matrix.counts):
        lines.append(f"{ti}\t{ci}\t{matrix.counts[(ti, ci)]}")
    Path(destination).write_bytes(("\n".join(lines) + "\n").encode("utf-8"))


def _header_field(field_text: str, name: str, path: str) -> int:
    prefix = name + "="
    if not field_text.startswith(prefix):
        raise FormatError(f"expected header field {name}=..., got {field_text!r}", path=path, line=1)
    try:
        value = int(field_text[len(prefix):])
    except ValueError:
        raise FormatError(f"header field {name} is not an integer", path=path, line=1) from None
    if value < 0:
        raise FormatError(f"header field {name} must be >= 0", path=path, line=1)
    return value


def load_matrix(source: str | Path) -> ContextMatrix:
    """Read a matrix file, validating structure and the declared total."""
    path = str(source)
    with decoding(path):
        text = Path(source).read_text(encoding="utf-8")
    lines = text.splitlines()
    if not lines:
        raise FormatError("empty matrix file", path=path)

    header = lines[0].split("\t")
    if len(header) != 5 or header[0] != FILE_MAGIC:
        raise FormatError("not a context-matrix file", path=path, line=1)
    if header[1] != FILE_VERSION:
        raise FormatError(f"unsupported version {header[1]!r}", path=path, line=1)
    window_n = _header_field(header[2], "window", path)
    total = _header_field(header[3], "total", path)
    vocab_size = _header_field(header[4], "vocab", path)
    if window_n < 2:
        raise FormatError("window must be >= 2", path=path, line=1)
    if len(lines) < 1 + vocab_size:
        raise FormatError("fewer vocabulary lines than declared", path=path)

    vocab = Vocabulary()
    for lineno in range(2, 2 + vocab_size):
        fields = lines[lineno - 1].split("\t")
        if len(fields) != 2:
            raise FormatError("vocabulary line must be <index>\\t<word>", path=path, line=lineno)
        try:
            idx = int(fields[0])
        except ValueError:
            raise FormatError("vocabulary index is not an integer", path=path, line=lineno) from None
        if idx != len(vocab):
            raise FormatError(f"vocabulary index out of order (expected {len(vocab)})", path=path, line=lineno)
        word = fields[1]
        if not word or word in vocab:
            raise FormatError(f"empty or duplicate vocabulary word {word!r}", path=path, line=lineno)
        vocab.add(word)

    counts: dict[tuple[int, int], int] = {}
    for lineno in range(2 + vocab_size, len(lines) + 1):
        line = lines[lineno - 1]
        fields = line.split("\t")
        if len(fields) != 3:
            raise FormatError("count line must be <target>\\t<context>\\t<count>", path=path, line=lineno)
        try:
            ti, ci, c = (int(f) for f in fields)
        except ValueError:
            raise FormatError("count line fields must be integers", path=path, line=lineno) from None
        if not (0 <= ti < vocab_size and 0 <= ci < vocab_size):
            raise FormatError("word index out of range", path=path, line=lineno)
        if c < 1:
            raise FormatError("stored counts must be >= 1", path=path, line=lineno)
        if (ti, ci) in counts:
            raise FormatError("duplicate (target, context) pair", path=path, line=lineno)
        counts[(ti, ci)] = c

    matrix = ContextMatrix(window_n, vocab, counts)
    if matrix.total != total:
        raise FormatError(
            f"counts sum to {matrix.total} but header declares total={total}", path=path
        )
    return matrix
