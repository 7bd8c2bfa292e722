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

from .cooccurrence import AssociationMeasure, ContextMatrix, Vocabulary, association_total
# Scoring no longer calls ``association`` by word, but the name stays
# importable from here: bench/tracing.py wraps it at this module.
from .cooccurrence import association  # noqa: F401
from .corpus import filter_tokens, is_kept, normalize, tokenize
from .morphology import CandidateRoot, MorphResources, Pattern, generate_candidates

CONTEXT_MODES = ("previous", "window")


@dataclass(frozen=True)
class StemContext:
    """Kept words around the target, in text order: ``preceding`` ends with
    the word just before it, ``following`` starts with the word just after.

    ``score_root`` and ``select_root`` score every word given here. A
    ``Stemmer`` scores at most ``window_n - 1`` kept words on each side,
    so the two agree only on a context trimmed that way.
    """

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


# Joins the templates of one arity so that a single str.format fills them
# all; no template or dictionary root holds it.
_FORM_SEPARATOR = "\t"


def derive_words(
    root: str, patterns: Sequence[Pattern], vocabulary
) -> list[str]:
    """Surface words derivable from ``root`` that the matrix knows about.

    Instantiates every pattern whose arity matches, adds the bare root,
    and keeps the in-vocabulary subset (sorted). When nothing survives,
    falls back to the bare root alone so scoring still has a subject.
    The matching templates are joined by a tab and filled by one
    ``str.format`` call, so ``root`` must not hold a tab.
    """
    if _FORM_SEPARATOR in root:
        raise ValueError(f"a root cannot hold a tab: {root!r}")
    arity = len(root)
    templates = [p.template for p in patterns if p.root_arity == arity]
    forms = {root}
    if templates:
        forms.update(_FORM_SEPARATOR.join(templates).format(*root).split(_FORM_SEPARATOR))
    known = sorted(filter(vocabulary.__contains__, forms))
    return known if known else [root]


def _context_words(preceding: Sequence, following: Sequence, context_mode: str) -> Sequence:
    """The context ``context_mode`` scores, from what precedes and follows
    the target within the window: the nearest preceding item, or all."""
    if context_mode == "previous":
        return preceding[-1:]
    if context_mode == "window":
        return preceding + following
    raise ValueError(f"unknown context mode: {context_mode!r}")


def _indices(words: Iterable[str], vocab: Vocabulary) -> tuple[int, ...]:
    """Vocabulary indices of the in-vocabulary ``words``, in order."""
    index = vocab.index
    return tuple(index[w] for w in words if w in index)


def _mean_association(
    matrix: ContextMatrix,
    measure: AssociationMeasure,
    derived: tuple[int, ...],
    context: Sequence[int],
    n_context: int,
) -> float:
    """Mean association over every (derived word, context word) pair.

    ``derived`` and ``context`` hold the indices of the in-vocabulary
    words; the others still count as pairs but contribute 0. A root with
    no in-vocabulary derivation stands for itself, one word.
    """
    if not n_context:
        return 0.0
    return association_total(matrix, derived, context, measure) / (max(len(derived), 1) * n_context)


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
    ctx_words = _context_words(context.preceding, context.following, context_mode)
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
        kept = prev + [normalized] + nxt
        return self._stem_at(word, kept, list(map(self.matrix.vocab.index.get, kept)), len(prev))

    def _stem_at(self, word: str, kept: list[str], at: list[int | None], pos: int) -> StemResult:
        """Stem ``kept[pos]`` in the context of its kept neighbours, whose
        vocabulary indices are ``at`` (None for a word out of vocabulary)."""
        normalized = kept[pos]
        candidates = self.candidates(normalized)
        if not candidates:
            return StemResult(word, normalized, None, "no-candidates")
        keep = self.matrix.window_n - 1
        ctx_words = _context_words(at[max(0, pos - keep):pos], at[pos + 1:pos + 1 + keep], self.context_mode)
        ctx = [i for i in ctx_words if i is not None]
        table = []
        for cand in candidates:
            derived = self._derived_indices(cand.root)
            score = _mean_association(self.matrix, self.measure, derived, ctx, len(ctx_words))
            table.append(ScoredRoot(cand.root, score, len(derived)))
        chosen = _choose(table, self.matrix)
        return StemResult(word, normalized, chosen.root, None, tuple(zip(candidates, table)))

    def stem_tokens(self, tokens: Sequence[str]) -> list[StemResult]:
        """Stem a raw token stream, each token in its in-stream context.

        Output order follows input order. Each kept word's vocabulary
        index is looked up once per stream.
        """
        normalized = [normalize(t) for t in tokens]
        reasons = [self._skip_reason(norm) for norm in normalized]
        kept = [norm for norm, reason in zip(normalized, reasons) if reason is None]
        at = list(map(self.matrix.vocab.index.get, kept))
        results = []
        pos = 0
        for raw, norm, reason in zip(tokens, normalized, reasons):
            if reason is not None:
                results.append(StemResult(raw, norm, None, reason))
            else:
                results.append(self._stem_at(raw, kept, at, pos))
                pos += 1
        return results

    def stem_text(self, text: str) -> list[StemResult]:
        return self.stem_tokens(tokenize(text))
