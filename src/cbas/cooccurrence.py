"""Sliding-window context matrix and PMI / PPMI / SPMI association scores.

Counts are kept exact (integers in compressed sparse rows); probabilities
are only formed at scoring time, so a matrix scaled by a constant factor
yields identical association scores.
"""

from __future__ import annotations

import json
import math
import operator
import re
from array import array
from bisect import bisect_left
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import islice, repeat
from pathlib import Path
from typing import Iterable, Iterator, Sequence

from .errors import FormatError, decoding

NEG_INF = float("-inf")

FILE_MAGIC = "CBAS-MATRIX"
FILE_VERSION = "v1"

# Context indices are C ints (4 bytes), counts and row offsets C long longs.
MAX_COUNT = 2**63 - 1
_MAX_INDEX = 2**31 - 1

# The only integers a matrix file holds: ASCII digits, no sign, no leading
# zero (0|[1-9][0-9]*, written with a lookahead, which matches faster).
_INT_RE = re.compile("(?!0[0-9])[0-9]+")
_NO_DIGITS = str.maketrans("", "", "0123456789")
_TO_COMMAS = str.maketrans("\t\n", ",,")
_BLOCK_CHARS = 1 << 16


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

    The counts are held as compressed sparse rows: the stored pairs of
    target ``ti`` are ``row_start[ti]:row_start[ti + 1]`` of ``cols``
    (context indices, ascending) and ``vals`` (their counts, each >= 1).
    Zero cells are simply absent. ``counts`` is a read-only
    ``(target_index, context_index) -> count`` view of the same rows.
    Immutable by convention once built.
    """

    def __init__(
        self,
        window_n: int,
        vocab: Vocabulary,
        counts: Mapping[tuple[int, int], int],
    ):
        size = len(vocab)
        rows: list[dict[int, int]] = [{} for _ in range(size)]
        for (ti, ci), c in counts.items():
            if not (0 <= ti < size and 0 <= ci < size):
                raise ValueError(f"pair ({ti}, {ci}) is outside the vocabulary of {size} words")
            if not 1 <= c <= MAX_COUNT:
                raise ValueError(f"count for pair ({ti}, {ci}) must be in [1, {MAX_COUNT}]")
            rows[ti][ci] = c
        self._adopt(window_n, vocab, *_freeze(rows))

    @classmethod
    def _of_rows(
        cls, window_n: int, vocab: Vocabulary, row_start: array, cols: array, vals: array
    ) -> ContextMatrix:
        """A matrix over CSR arrays that already keep the rules; nothing is copied."""
        matrix = cls.__new__(cls)
        matrix._adopt(window_n, vocab, row_start, cols, vals)
        return matrix

    def _adopt(
        self, window_n: int, vocab: Vocabulary, row_start: array, cols: array, vals: array
    ) -> None:
        if window_n < 2:
            raise ValueError(f"window_n must be >= 2, got {window_n}")
        self.window_n = window_n
        self.vocab = vocab
        self.row_start, self.cols, self.vals = row_start, cols, vals
        self.target_marginals = [
            sum(vals[row_start[ti]:row_start[ti + 1]]) for ti in range(len(vocab))
        ]
        self.context_marginals = cms = [0] * len(vocab)
        for ci, c in zip(cols, vals):
            cms[ci] += c
        self.total = sum(self.target_marginals)
        self._alpha_norms: dict[float, float] = {}

    # -- lookups -----------------------------------------------------------

    @property
    def counts(self) -> Mapping[tuple[int, int], int]:
        return _PairCounts(self)

    def _joint(self, ti: int, ci: int) -> int:
        if not 0 <= ti < len(self.vocab):
            return 0
        end = self.row_start[ti + 1]
        k = bisect_left(self.cols, ci, self.row_start[ti], end)
        return self.vals[k] if k < end and self.cols[k] == ci else 0

    def count(self, target: str, context: str) -> int:
        ti = self.vocab.index.get(target)
        ci = self.vocab.index.get(context)
        if ti is None or ci is None:
            return 0
        return self._joint(ti, ci)

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
        # Rows are sorted, so equal counts mean equal arrays.
        return (
            isinstance(other, ContextMatrix)
            and self.window_n == other.window_n
            and self.vocab == other.vocab
            and self.row_start == other.row_start
            and self.cols == other.cols
            and self.vals == other.vals
        )

    def __repr__(self) -> str:
        return (
            f"ContextMatrix(window_n={self.window_n}, vocab={len(self.vocab)}, "
            f"pairs={len(self.cols)}, total={self.total})"
        )


class _PairCounts(Mapping):
    """``ContextMatrix.counts``: its rows seen as ``(ti, ci) -> count``, in
    ascending pair order. Each lookup searches a row, so scoring reads the
    rows directly."""

    __slots__ = ("_matrix",)

    def __init__(self, matrix: ContextMatrix):
        self._matrix = matrix

    def __getitem__(self, pair: tuple[int, int]) -> int:
        count = self._matrix._joint(*pair)
        if not count:
            raise KeyError(pair)
        return count

    def __iter__(self) -> Iterator[tuple[int, int]]:
        m = self._matrix
        for ti in range(len(m.vocab)):
            for ci in m.cols[m.row_start[ti]:m.row_start[ti + 1]]:
                yield ti, ci

    def __len__(self) -> int:
        return len(self._matrix.cols)


def _freeze(rows: list) -> tuple[array, array, array]:
    """CSR arrays of per-target ``{context_index: count}`` dicts. Each dict
    is dropped from ``rows`` as soon as it is copied."""
    row_start, cols, vals = array("q", [0]), array("i"), array("q")
    for ti, row in enumerate(rows):
        keys = sorted(row)
        cols.extend(keys)
        vals.extend(map(row.__getitem__, keys))
        row_start.append(len(cols))
        rows[ti] = None
    return row_start, cols, vals


def build_matrix(documents: Iterable[Iterable[str]], window_n: int) -> ContextMatrix:
    """Count co-occurrences within a symmetric window of size ``window_n``.

    Within each document, the words at positions i and j are associated
    whenever 0 < |i - j| < window_n; windows never cross document
    boundaries. Documents must already be normalized and stopword-filtered.
    ``documents`` and each document are read once, in order, so either
    may be a generator.
    """
    if window_n < 2:
        raise ValueError(f"window_n must be >= 2, got {window_n}")
    vocab = Vocabulary()
    rows: list[dict[int, int]] = []  # per target: context index -> count
    reach = window_n - 1
    for words in documents:
        doc = [vocab.add(w) for w in words]
        rows.extend({} for _ in range(len(vocab) - len(rows)))
        for i, wi in enumerate(doc):
            row = rows[wi]
            for cj in doc[max(0, i - reach):i]:
                row[cj] = row.get(cj, 0) + 1
            for cj in doc[i + 1:i + 1 + reach]:
                row[cj] = row.get(cj, 0) + 1
    return ContextMatrix._of_rows(window_n, vocab, *_freeze(rows))


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
    return association_total(matrix, (ti,), (ci,), measure)


def association_total(
    matrix: ContextMatrix,
    targets: Iterable[int],
    contexts: Sequence[int],
    measure: AssociationMeasure,
) -> float:
    """Sum of the association of every target index with every context index.

    This is where the measures are defined; ``association`` is the sum
    of one pair. Targets are the outer loop and contexts the inner one,
    so the float sum is always formed in the same order. Each target's
    row is found once and each context index is searched in it. Under
    ppmi and spmi a pair scores max(value, 0), so a pair that scores 0,
    and every pair that never co-occurs, is skipped: adding 0.0 changes
    no sum. Under pmi a pair that never co-occurs scores -inf, so the sum
    is -inf at the first one (no pair scores +inf). A matrix with total 0
    stores no pair, so there every pair is one that never co-occurs.

    pmi and ppmi share spmi's expression with ``norm`` = total and an
    exponent of 1: ``cm ** 1`` is the integer ``cm`` itself, so the values
    are those of log2(joint * total / (tm * cm)).
    """
    kind = measure.kind
    if kind == "spmi":
        norm, power = matrix.context_alpha_norm(measure.alpha), measure.alpha
    else:
        norm, power = matrix.total, 1
    clamp = kind != "pmi"
    row_start, cols, vals = matrix.row_start, matrix.cols, matrix.vals
    tms, cms = matrix.target_marginals, matrix.context_marginals
    log2 = math.log2
    total = 0.0
    for ti in targets:
        start, end = row_start[ti], row_start[ti + 1]
        tm = tms[ti]
        for ci in contexts:
            k = bisect_left(cols, ci, start, end)
            if k == end or cols[k] != ci:
                if clamp:
                    continue
                return NEG_INF
            value = log2((vals[k] * norm) / (tm * cms[ci] ** power))
            if value > 0.0 or not clamp:
                total += value
    return total


# -- persistence ------------------------------------------------------------


def save_matrix(matrix: ContextMatrix, destination: str | Path) -> None:
    """Write the documented TSV format; triplets sorted by (target, context)."""
    row_start, cols, vals = matrix.row_start, matrix.cols, matrix.vals
    with open(destination, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(
            f"{FILE_MAGIC}\t{FILE_VERSION}\twindow={matrix.window_n}"
            f"\ttotal={matrix.total}\tvocab={len(matrix.vocab)}\n"
        )
        for idx, word in enumerate(matrix.vocab.words):
            fh.write(f"{idx}\t{word}\n")
        for ti in range(len(matrix.vocab)):
            a, b = row_start[ti], row_start[ti + 1]
            fh.writelines(f"{ti}\t{ci}\t{c}\n" for ci, c in zip(cols[a:b], vals[a:b]))


def _header_field(field_text: str, name: str, path: str) -> int:
    prefix = name + "="
    if not field_text.startswith(prefix):
        raise FormatError(f"expected header field {name}=..., got {field_text!r}", path=path, line=1)
    digits = field_text[len(prefix):]
    if not _INT_RE.fullmatch(digits):
        raise FormatError(f"header field {name} is not a plain integer", path=path, line=1)
    try:
        return int(digits)
    except ValueError:  # more digits than int() converts
        raise FormatError(f"header field {name} is too large", path=path, line=1) from None


def load_matrix(source: str | Path) -> ContextMatrix:
    """Read a matrix file, validating structure and the declared total.

    Lines end only at ``\n``, ``\r\n`` or ``\r``, so a vocabulary word may
    hold any other line separator. The count lines are checked and
    converted in blocks, each in time linear in its size; only a file
    that breaks a rule is read again line by line, to name the first bad
    line.
    """
    path = str(source)
    with decoding(path), open(source, encoding="utf-8") as fh:
        first = fh.readline()
        if not first:
            raise FormatError("empty matrix file", path=path)

        header = first.rstrip("\n").split("\t")
        if len(header) != 5 or header[0] != FILE_MAGIC:
            raise FormatError("not a context-matrix file", path=path, line=1)
        if header[1] != FILE_VERSION:
            raise FormatError(f"unsupported version {header[1]!r}", path=path, line=1)
        window_n = _header_field(header[2], "window", path)
        total = _header_field(header[3], "total", path)
        vocab_size = _header_field(header[4], "vocab", path)
        if window_n < 2:
            raise FormatError("window must be >= 2", path=path, line=1)

        vocab = Vocabulary()
        for lineno in range(2, 2 + vocab_size):
            line = fh.readline()
            if not line:
                raise FormatError("fewer vocabulary lines than declared", path=path)
            fields = line.rstrip("\n").split("\t")
            if len(fields) != 2:
                raise FormatError("vocabulary line must be <index>\\t<word>", path=path, line=lineno)
            if fields[0] != str(len(vocab)):
                if not _INT_RE.fullmatch(fields[0]):
                    raise FormatError("vocabulary index is not a plain integer", path=path, line=lineno)
                raise FormatError(f"vocabulary index out of order (expected {len(vocab)})", path=path, line=lineno)
            word = fields[1]
            if not word or word in vocab:
                raise FormatError(f"empty or duplicate vocabulary word {word!r}", path=path, line=lineno)
            vocab.add(word)

        counts_at = fh.tell()
        rows = _read_count_blocks(fh, vocab_size)
        if rows is None:
            fh.seek(counts_at)
            _raise_at_first_bad_count_line(fh, 2 + vocab_size, vocab_size, path)

    matrix = ContextMatrix._of_rows(window_n, vocab, *rows)
    if matrix.total != total:
        raise FormatError(
            f"counts sum to {matrix.total} but header declares total={total}", path=path
        )
    return matrix


def _read_count_blocks(fh, vocab_size: int) -> tuple[array, array, array] | None:
    """The CSR arrays of the count lines left in ``fh``, read in blocks of
    lines; None when any line breaks a rule of ``_raise_at_first_bad_count_line``.

    Each block is checked whole as it is read: the shape of its lines
    (digits, two tabs, a line end), its values, and the range and order of
    its pairs from the last pair of the block before on. A broken shape or
    value ends the reading at its block; a pair out of range or order only
    at the end of the file. So a bad file is read as far as it always
    was, and a decoding error further on is met, or not, as before.
    """
    row_start, cols, vals = array("q"), array("i"), array("q")
    last: tuple[int, int] | None = (-1, -1)  # None once a pair is out of range or order
    while True:
        lines = fh.readlines(_BLOCK_CHARS)
        if not lines:
            break
        block = "".join(lines)
        if not block.endswith("\n"):
            block += "\n"  # the file's last line may lack its end
        if block.translate(_NO_DIGITS) != "\t\t\n" * len(lines):
            return None
        try:
            # Only digits, tabs and line ends are left: read the block as one
            # JSON array, whose integers are converted in C. JSON refuses an
            # empty field and a leading zero.
            numbers = json.loads(f"[{block.translate(_TO_COMMAS)[:-1]}]")
            targets, contexts, counts = numbers[0::3], numbers[1::3], numbers[2::3]
            cols.extend(contexts)
            vals.extend(counts)
        except (OverflowError, ValueError):  # too large for an array, or for int()
            return None
        if min(counts) < 1:
            return None
        pairs = zip(targets, contexts)
        if (
            last is not None
            and targets[-1] < vocab_size
            and max(contexts) < vocab_size
            and last < (targets[0], contexts[0])
            and all(map(operator.lt, pairs, zip(islice(targets, 1, None), islice(contexts, 1, None))))
        ):
            # The rows that start in this block, up to its last target's.
            base = len(cols) - len(targets)
            starts = range(len(row_start), targets[-1] + 1)
            row_start.extend(base + bisect_left(targets, ti) for ti in starts)
            last = targets[-1], contexts[-1]
        elif max(targets) > _MAX_INDEX:  # too large for a C int, like a context
            return None
        else:
            last = None
    if last is None:
        return None
    row_start.extend(repeat(len(cols), vocab_size + 1 - len(row_start)))
    return row_start, cols, vals


def _raise_at_first_bad_count_line(fh, lineno: int, vocab_size: int, path: str) -> None:
    """Raise a FormatError at the first count line in ``fh`` that breaks a rule."""
    prev = None
    for lineno, line in enumerate(fh, start=lineno):
        fields = line.rstrip("\n").split("\t")
        if len(fields) != 3:
            raise FormatError("count line must be <target>\\t<context>\\t<count>", path=path, line=lineno)
        if not all(map(_INT_RE.fullmatch, fields)):
            raise FormatError("count line fields must be plain integers", path=path, line=lineno)
        # A field of 20 digits or more is out of range, and int() may refuse it.
        ti, ci, c = (int(f) if len(f) < 20 else MAX_COUNT + 1 for f in fields)
        if not (ti < vocab_size and ci < vocab_size):
            raise FormatError("word index out of range", path=path, line=lineno)
        if c < 1:
            raise FormatError("stored counts must be >= 1", path=path, line=lineno)
        if c > MAX_COUNT:
            raise FormatError(f"stored counts must be <= {MAX_COUNT}", path=path, line=lineno)
        pair = (ti, ci)
        if pair == prev:
            raise FormatError("duplicate (target, context) pair", path=path, line=lineno)
        if prev is not None and pair < prev:
            raise FormatError("count lines must be in ascending (target, context) order", path=path, line=lineno)
        prev = pair
