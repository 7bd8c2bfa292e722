"""Root selection: derive surface words per candidate root and pick the
root whose derivations associate most strongly with the word's context.

Scoring defaults to the nearest preceding non-stopword word as the
context; ``context_mode="window"`` widens it to every filtered word
within the matrix's window on both sides. Ties are broken by the number
of in-vocabulary derivations, then by the bare root's corpus marginal,
then by the lexicographically smallest root, so selection is a pure
function of its inputs.

Scores are computed on vocabulary indices. ``score_root`` and
``select_root`` work from words and patterns as given; a ``Stemmer`` runs
the same mean and the same tie-break, but keeps two memo tables for the
length of its life (a word's candidates, a root's derived-word indices),
so a run never repeats that pure work for a word or a root it has seen.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .cooccurrence import AssociationMeasure, ContextMatrix, Vocabulary, association_at
# Scoring no longer calls ``association`` by word, but the name stays
# importable from here: bench/tracing.py wraps it at this module.
from .cooccurrence import association  # noqa: F401
from .corpus import filter_tokens, is_kept, normalize, tokenize
from .morphology import CandidateRoot, MorphResources, Pattern, generate_candidates

CONTEXT_MODES = ("previous", "window")


@dataclass(frozen=True)
class StemContext:
    """Filtered words around the target, nearest-first trimmed to the window."""

    preceding: tuple[str, ...] = ()
    following: tuple[str, ...] = ()


@dataclass(frozen=True)
class ScoredRoot:
    root: str
    score: float
    derived_in_vocab: int


@dataclass(frozen=True)
class StemResult:
    """Outcome and diagnostics for one input token."""

    input: str
    normalized: str
    root: str | None
    skip_reason: str | None
    scored: tuple[tuple[CandidateRoot, ScoredRoot], ...] = ()


def derive_words(
    root: str, patterns: Sequence[Pattern], vocabulary
) -> list[str]:
    """Surface words derivable from ``root`` that the matrix knows about.

    Instantiates every pattern whose arity matches, adds the bare root,
    and keeps the in-vocabulary subset (sorted). When nothing survives,
    falls back to the bare root alone so scoring still has a subject.
    """
    forms = {root}
    for pattern in patterns:
        if pattern.root_arity == len(root):
            forms.add(pattern.instantiate(root))
    known = sorted(f for f in forms if f in vocabulary)
    return known if known else [root]


def _context_words(context: StemContext, context_mode: str) -> tuple[str, ...]:
    if context_mode == "previous":
        return context.preceding[-1:]
    if context_mode == "window":
        return context.preceding + context.following
    raise ValueError(f"unknown context mode: {context_mode!r}")


def _indices(words: Iterable[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Vocabulary indices of the in-vocabulary ``words``, in order."""
    index = vocab.index
    return tuple(index[w] for w in words if w in index)


def _mean_association(
    matrix: ContextMatrix,
    measure: AssociationMeasure,
    derived: tuple[int, ...],
    context: tuple[int, ...],
    n_context: int,
) -> float:
    """Mean association over every (derived word, context word) pair.

    ``derived`` and ``context`` hold the indices of the in-vocabulary
    words; the others still count as pairs but contribute 0. A root with
    no in-vocabulary derivation stands for itself, one word. Derived words
    are the outer loop, context words the inner one, so the float sum is
    always formed in the same order.
    """
    if not n_context:
        return 0.0
    total = 0.0
    for ti in derived:
        for ci in context:
            total += association_at(matrix, ti, ci, measure)
    return total / (max(len(derived), 1) * n_context)


def _choose(table: Sequence[ScoredRoot], matrix: ContextMatrix) -> ScoredRoot:
    """Highest score; ties to more in-vocabulary derivations, then the higher
    corpus marginal of the bare root, then the smaller root string."""
    return min(
        table,
        key=lambda s: (-s.score, -s.derived_in_vocab, -matrix.target_marginal(s.root), s.root),
    )


def score_root(
    root: str,
    context: StemContext,
    matrix: ContextMatrix,
    measure: AssociationMeasure,
    patterns: Sequence[Pattern],
    context_mode: str = "previous",
) -> ScoredRoot:
    """Average association between the root's derivations and the context.

    The mean runs over all (derived word, context word) pairs; pairs with
    an out-of-vocabulary member contribute 0. An empty context scores 0.
    Under the plain pmi measure an in-vocabulary pair that never co-occurs
    contributes -inf, which sinks the whole average.
    """
    derived = _indices(derive_words(root, patterns, matrix.vocab), matrix.vocab)
    ctx_words = _context_words(context, context_mode)
    score = _mean_association(
        matrix, measure, derived, _indices(ctx_words, matrix.vocab), len(ctx_words)
    )
    return ScoredRoot(root, score, len(derived))


def select_root(
    candidates: Sequence[CandidateRoot],
    context: StemContext,
    matrix: ContextMatrix,
    measure: AssociationMeasure,
    patterns: Sequence[Pattern],
    context_mode: str = "previous",
) -> tuple[ScoredRoot, list[ScoredRoot]]:
    """Argmax of score_root over the candidates, with the full score table.

    Ties fall back to more in-vocabulary derivations, then the higher
    corpus marginal of the bare root, then the lexicographically smaller
    root string.
    """
    if not candidates:
        raise ValueError("select_root needs at least one candidate")
    table = [
        score_root(c.root, context, matrix, measure, patterns, context_mode)
        for c in candidates
    ]
    return _choose(table, matrix), table


class Stemmer:
    """Bundles resources, stopwords, matrix, and measure into one pipeline.

    Stemming is serial. Each instance memoises, in plain dicts that live
    as long as it does, the candidates of every normalized word and the
    derived-word indices of every root it scores; both are pure functions
    of the word or root and of the resources and matrix, so results are
    the same as without them.
    """

    def __init__(
        self,
        resources: MorphResources,
        stopwords: frozenset[str],
        matrix: ContextMatrix,
        measure: AssociationMeasure = AssociationMeasure(),
        context_mode: str = "previous",
    ):
        if context_mode not in CONTEXT_MODES:
            raise ValueError(f"context_mode must be one of {CONTEXT_MODES}")
        self.resources = resources
        self.stopwords = stopwords
        self.matrix = matrix
        self.measure = measure
        self.context_mode = context_mode
        self._candidates: dict[str, tuple[CandidateRoot, ...]] = {}
        self._derived: dict[str, tuple[int, ...]] = {}

    def _skip_reason(self, normalized: str) -> str | None:
        if is_kept(normalized, self.stopwords):
            return None
        if not normalized:
            return "empty"
        if normalized in self.stopwords:
            return "stopword"
        if all(ch.isdigit() for ch in normalized):
            return "digit"
        if not any(ch.isalnum() for ch in normalized):
            return "punctuation"
        return "non-arabic"

    def candidates(self, normalized: str) -> tuple[CandidateRoot, ...]:
        """``generate_candidates`` of a normalized word, computed once per word."""
        found = self._candidates.get(normalized)
        if found is None:
            found = self._candidates[normalized] = tuple(
                generate_candidates(normalized, self.resources)
            )
        return found

    def _derived_indices(self, root: str) -> tuple[int, ...]:
        found = self._derived.get(root)
        if found is None:
            vocab = self.matrix.vocab
            words = derive_words(root, self.resources.patterns_of_arity(len(root)), vocab.index)
            found = self._derived[root] = _indices(words, vocab)
        return found

    def stem(
        self, word: str, before: Iterable[str] = (), after: Iterable[str] = ()
    ) -> StemResult:
        """Stem one raw token given its raw surrounding tokens."""
        normalized = normalize(word)
        reason = self._skip_reason(normalized)
        if reason is not None:
            return StemResult(word, normalized, None, reason)
        prev = filter_tokens((normalize(t) for t in before), self.stopwords)
        nxt = filter_tokens((normalize(t) for t in after), self.stopwords)
        return self._stem_at(word, prev + [normalized] + nxt, len(prev))

    def _stem_at(self, word: str, kept: list[str], pos: int) -> StemResult:
        """Stem ``kept[pos]`` in the context of its kept neighbours."""
        normalized = kept[pos]
        candidates = self.candidates(normalized)
        if not candidates:
            return StemResult(word, normalized, None, "no-candidates")
        keep = self.matrix.window_n - 1
        context = StemContext(tuple(kept[max(0, pos - keep):pos]), tuple(kept[pos + 1:pos + 1 + keep]))
        ctx_words = _context_words(context, self.context_mode)
        ctx = _indices(ctx_words, self.matrix.vocab)
        table = []
        for cand in candidates:
            derived = self._derived_indices(cand.root)
            score = _mean_association(self.matrix, self.measure, derived, ctx, len(ctx_words))
            table.append(ScoredRoot(cand.root, score, len(derived)))
        chosen = _choose(table, self.matrix)
        return StemResult(word, normalized, chosen.root, None, tuple(zip(candidates, table)))

    def stem_tokens(self, tokens: Sequence[str], jobs: int = 1) -> list[StemResult]:
        """Stem a raw token stream, each token in its in-stream context.

        Output order follows input order. ``jobs`` is accepted and ignored:
        stemming runs serially, since the work is pure Python and threads
        only made it slower.
        """
        normalized = [normalize(t) for t in tokens]
        reasons = [self._skip_reason(norm) for norm in normalized]
        kept = [norm for norm, reason in zip(normalized, reasons) if reason is None]
        results = []
        pos = 0
        for raw, norm, reason in zip(tokens, normalized, reasons):
            if reason is not None:
                results.append(StemResult(raw, norm, None, reason))
            else:
                results.append(self._stem_at(raw, kept, pos))
                pos += 1
        return results

    def stem_text(self, text: str, jobs: int = 1) -> list[StemResult]:
        return self.stem_tokens([t.surface for t in tokenize(text)], jobs=jobs)
