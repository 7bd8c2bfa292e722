"""Independent brute-force reference implementations.

These deliberately avoid the library's data structures: associations are
computed from a flat enumeration of window pairs, cluster metrics from
the per-word formulas with exact rationals, and candidate roots from the
generation side (root x pattern x affix pair, modulo one weak-letter
edit). The tests compare the library against these.

The last three are the plain loops that the library's per-word kernels
replaced, kept as references: tokenizing one character at a time,
instantiating one template at a time, and matching every template of an
infix's length cell by cell.
"""

from __future__ import annotations

import math
import unicodedata
from fractions import Fraction

WEAK = "اوي"  # ا و ي


def window_pairs(documents, window_n):
    """Every directed (target, context) pair within the window, per document."""
    pairs = []
    for doc in documents:
        for i, target in enumerate(doc):
            for j, context in enumerate(doc):
                if i != j and abs(i - j) < window_n:
                    pairs.append((target, context))
    return pairs


def oracle_association(documents, window_n, w, c, kind, alpha=0.75):
    pairs = window_pairs(documents, window_n)
    total = len(pairs)
    joint = pairs.count((w, c))
    if joint == 0:
        return float("-inf") if kind == "pmi" else 0.0
    p_wc = Fraction(joint, total)
    p_w = Fraction(sum(1 for a, _ in pairs if a == w), total)
    if kind == "spmi":
        context_counts: dict[str, int] = {}
        for _, b in pairs:
            context_counts[b] = context_counts.get(b, 0) + 1
        denom = sum(n**alpha for n in context_counts.values())
        p_alpha_c = context_counts[c] ** alpha / denom
        return max(math.log2(float(p_wc) / (float(p_w) * p_alpha_c)), 0.0)
    p_c = Fraction(sum(1 for _, b in pairs if b == c), total)
    value = math.log2(float(p_wc / (p_w * p_c)))
    return value if kind == "pmi" else max(value, 0.0)


class OraclePairCounts:
    """Pre-tallied window pairs for repeated association queries."""

    def __init__(self, documents, window_n):
        pairs = window_pairs(documents, window_n)
        self.total = len(pairs)
        self.joint: dict[tuple[str, str], int] = {}
        self.target: dict[str, int] = {}
        self.context: dict[str, int] = {}
        for w, c in pairs:
            self.joint[(w, c)] = self.joint.get((w, c), 0) + 1
            self.target[w] = self.target.get(w, 0) + 1
            self.context[c] = self.context.get(c, 0) + 1

    def association(self, w, c, kind, alpha=0.75):
        joint = self.joint.get((w, c), 0)
        if joint == 0:
            return float("-inf") if kind == "pmi" else 0.0
        p_wc = Fraction(joint, self.total)
        p_w = Fraction(self.target[w], self.total)
        if kind == "spmi":
            denom = sum(n**alpha for n in self.context.values())
            p_alpha_c = self.context[c] ** alpha / denom
            return max(math.log2(float(p_wc) / (float(p_w) * p_alpha_c)), 0.0)
        p_c = Fraction(self.context[c], self.total)
        value = math.log2(float(p_wc / (p_w * p_c)))
        return value if kind == "pmi" else max(value, 0.0)


def oracle_cluster_metrics(extracted, gold, words, label_aware):
    """Per-word overlap metrics from dict-of-set clusterings, as Fractions.

    ``extracted`` and ``gold`` map label -> set of words. Returns
    (accuracy, precision, recall, f1).
    """

    def containing(clusters, word):
        for label, members in clusters.items():
            if word in members:
                return label, members
        raise KeyError(word)

    acc = prec = rec = Fraction(0)
    for w in words:
        x_label, x = containing(extracted, w)
        y_label, y = containing(gold, w)
        overlap = len(x & y)
        if label_aware and x_label != y_label:
            overlap = 0
        acc += Fraction(overlap, len(x | y))
        prec += Fraction(overlap, len(y))
        rec += Fraction(overlap, len(x))
    n = len(words)
    acc, prec, rec = acc / n, prec / n, rec / n
    f1 = 2 * prec * rec / (prec + rec) if prec > 0 and rec > 0 else Fraction(0)
    return acc, prec, rec, f1


def _weak_sources(root):
    """Raw roots whose weak-letter expansion contains ``root``.

    Same length: the root itself, plus single-position swaps between weak
    letters. Length two (for 3-letter roots): drop one weak letter, or
    drop a doubled final letter.
    """
    sources = {root}
    for i, ch in enumerate(root):
        if ch in WEAK:
            for other in WEAK:
                if other != ch:
                    sources.add(root[:i] + other + root[i + 1:])
    if len(root) == 3:
        for i, ch in enumerate(root):
            if ch in WEAK:
                sources.add(root[:i] + root[i + 1:])
        if root[1] == root[2]:
            sources.add(root[:2])
    return sources


def oracle_candidates(word, resources):
    """Dictionary roots reachable for ``word``, enumerated generation-side."""
    found = set()
    prefixes = [p for p in resources.affixes.prefixes if word.startswith(p)]
    for root in resources.roots:
        for source in _weak_sources(root):
            cores = []
            if len(source) == 2:
                cores.append(source)
            else:
                cores.extend(
                    p.instantiate(source)
                    for p in resources.patterns
                    if p.root_arity == len(source)
                )
            for core in cores:
                for p in prefixes:
                    rest = word[len(p):]
                    if not rest.startswith(core):
                        continue
                    if rest[len(core):] in resources.affixes.suffixes:
                        found.add(root)
    return found


def oracle_tokenize(text):
    """Tokens of the maximal same-class character runs, whitespace apart:
    punctuation and symbols (P*, S*), decimal digits (Nd), everything else."""
    tokens = []
    run = []
    run_kind = None

    def flush():
        if run:
            tokens.append("".join(run))
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


def oracle_derive_words(root, patterns, vocabulary):
    """One ``instantiate`` per template of the root's arity, plus the bare
    root; the in-vocabulary ones sorted, else the bare root alone."""
    forms = {root}
    for pattern in patterns:
        if pattern.root_arity == len(root):
            forms.add(pattern.instantiate(root))
    known = sorted(f for f in forms if f in vocabulary)
    return known if known else [root]


def _match_cells(pattern, infix):
    """The raw root read cell by cell, or None when the infix does not fit."""
    if len(infix) != len(pattern.cells):
        return None
    letters = {}
    for cell, ch in zip(pattern.cells, infix):
        if isinstance(cell, str):
            if cell != ch:
                return None
        elif letters.setdefault(cell, ch) != ch:
            return None
    return "".join(letters[i] for i in range(1, len(letters) + 1))


def oracle_generate_candidates(word, resources):
    """``(root, segmentation, pattern, weak tag)`` of every candidate, in
    order: each segmentation, each template of the infix's length in file
    order (then the bare two-letter route), each weak variant; the first
    derivation of a root wins."""
    from cbas.morphology import expand_weak_tagged, segment

    found = []
    seen = set()
    for seg in segment(word, resources.affixes):
        routes = [(p, _match_cells(p, seg.infix)) for p in resources.patterns if len(p.cells) == len(seg.infix)]
        if len(seg.infix) == 2:
            routes.append((None, seg.infix))
        for pattern, raw in routes:
            if raw is None:
                continue
            for variant, tag in expand_weak_tagged(raw):
                if variant in resources.roots and variant not in seen:
                    seen.add(variant)
                    found.append((variant, seg, pattern, tag))
    return found
