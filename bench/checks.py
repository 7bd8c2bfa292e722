"""Output checks, each against a computation made apart from the program
(from the generator's own token streams and source roots, with a matrix
parser and formulas of its own) or against a property the method must
have. Every check raises CheckFailed with a message on the first problem.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from pathlib import Path

import gen


class CheckFailed(Exception):
    pass


def require(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# -- matrix files -------------------------------------------------------------


class MatrixFile:
    """A v1 matrix file parsed without the program: words, counts, marginals."""

    def __init__(self, path):
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        header = lines[0].split("\t")
        require(header[:2] == ["CBAS-MATRIX", "v1"], f"{path}: bad header {lines[0]!r}")
        fields = dict(f.split("=", 1) for f in header[2:])
        self.window = int(fields["window"])
        self.declared_total = int(fields["total"])
        size = int(fields["vocab"])
        self.words = [line.split("\t", 1)[1] for line in lines[1:1 + size]]
        self.index = {w: i for i, w in enumerate(self.words)}
        self.counts: dict[int, int] = {}  # key target * size + context
        self.rows = [0] * size
        self.cols = [0] * size
        for line in lines[1 + size:]:
            t, c, n = (int(x) for x in line.split("\t"))
            self.counts[t * size + c] = n
            self.rows[t] += n
            self.cols[c] += n
        self.size = size

    def count(self, a: str, b: str) -> int:
        i, j = self.index.get(a), self.index.get(b)
        return 0 if i is None or j is None else self.counts.get(i * self.size + j, 0)

    def row_sum(self, word: str) -> int:
        i = self.index.get(word)
        return 0 if i is None else self.rows[i]


def window_pairs(n: int, window: int) -> int:
    """Directed pairs (i, j) with 0 < |i - j| < window in a stream of length n."""
    return 2 * sum(n - d for d in range(1, min(window, n)))


def brute_count(streams: list[list[str]], where: dict, window: int, a: str, b: str) -> int:
    """Occurrences of ``b`` within the window around each occurrence of ``a``."""
    hits = 0
    for d, i in where.get(a, ()):
        s = streams[d]
        hits += sum(1 for j in range(max(0, i - window + 1), min(len(s), i + window)) if j != i and s[j] == b)
    return hits


def check_matrix(m: MatrixFile, streams: list[list[str]], window: int, rng: random.Random, samples: int = 40) -> None:
    """The matrix built from ``streams``: totals, symmetry, vocabulary, sampled counts."""
    expected_total = sum(window_pairs(len(s), window) for s in streams)
    require(m.window == window, f"window {m.window}, expected {window}")
    require(sum(m.counts.values()) == m.declared_total, "stored counts do not sum to the declared total")
    require(m.declared_total == expected_total, f"total {m.declared_total}, closed form gives {expected_total}")
    require(set(m.words) == {w for s in streams for w in s}, "vocabulary is not the set of kept words")
    size = m.size
    for key, n in m.counts.items():
        t, c = divmod(key, size)
        require(m.counts.get(c * size + t) == n, f"count({m.words[t]},{m.words[c]}) != count({m.words[c]},{m.words[t]})")
    keys = sorted(m.counts)
    pairs = [divmod(k, size) for k in rng.sample(keys, min(samples, len(keys)))]
    pairs += [(rng.randrange(size), rng.randrange(size)) for _ in range(samples // 4)]
    where: dict[str, list[tuple[int, int]]] = {}
    for d, s in enumerate(streams):
        for i, w in enumerate(s):
            where.setdefault(w, []).append((d, i))
    for t, c in pairs:
        a, b = m.words[t], m.words[c]
        require(m.count(a, b) == brute_count(streams, where, window, a, b), f"count({a},{b}) differs from a recount")


def check_round_trip(cbas, path, scratch) -> None:
    """load_matrix(save_matrix(m)) == m, and saving again gives identical bytes."""
    loaded = cbas.load_matrix(path)
    cbas.save_matrix(loaded, scratch)
    try:
        require(Path(scratch).read_bytes() == Path(path).read_bytes(), "saving a loaded matrix changed its bytes")
        require(cbas.load_matrix(scratch) == loaded, "a saved matrix does not load back equal")
    finally:
        Path(scratch).unlink()


# -- stem-zipf ------------------------------------------------------------------

def derived_forms(root: str, res: gen.Resources, m: MatrixFile) -> list[str]:
    forms = {root} | {gen.fill(p, root) for p in res.patterns if gen.arity(p) == len(root)}
    known = sorted(f for f in forms if f in m.index)
    return known or [root]


def spmi(m: MatrixFile, a: str, b: str, alpha: float, norm: float) -> float:
    joint = m.count(a, b)
    if joint == 0:
        return 0.0
    return max(math.log2(joint * norm / (m.row_sum(a) * m.cols[m.index[b]] ** alpha)), 0.0)


def check_stem(records: list, tokens: list[gen.Token], lexicon: gen.Lexicon, res: gen.Resources,
               m: MatrixFile, rng: random.Random, alpha: float = 0.75, samples: int = 60) -> None:
    """Window-context stemming of ``tokens``; ``records`` are the program's outputs."""
    require(len(records) == len(tokens), f"{len(records)} results for {len(tokens)} tokens")
    kept = [i for i, (_, kind) in enumerate(tokens) if kind == "word"]
    for (surface, kind), (raw, _, root, skipped, table) in zip(tokens, records):
        require(raw == surface, f"result for {raw!r} where {surface!r} was given")
        if kind != "word":
            require(skipped == kind and root is None, f"{surface!r} ({kind}) skipped as {skipped!r}")
            continue
        require(skipped is None, f"word {surface!r} skipped as {skipped!r}")
        roots = [row[0] for row in table]
        require(lexicon.root_of[surface] in roots, f"source root of {surface!r} not among candidates {roots}")
        require(root in res.roots, f"chosen root {root!r} of {surface!r} is not in the dictionary")
        require(all(row[0] == row[1] for row in table), f"score table of {surface!r} is out of step")
        best = min(table, key=lambda row: (-row[2], -row[3], -m.row_sum(row[0]), row[0]))
        require(best[0] == root, f"{surface!r}: chose {root!r}, its own table ranks {best[0]!r} first")

    norm = sum(c**alpha for c in m.cols if c)
    reach = m.window - 1
    for pos in rng.sample(range(len(kept)), min(samples, len(kept))):
        i = kept[pos]
        context = [tokens[k][0] for k in kept[max(0, pos - reach):pos] + kept[pos + 1:pos + 1 + reach]]
        for cand, _, score, in_vocab in records[i][4]:
            forms = derived_forms(cand, res, m)
            require(in_vocab == sum(1 for f in forms if f in m.index), f"in-vocab count of {cand!r} differs")
            scores = [spmi(m, f, c, alpha, norm) if f in m.index and c in m.index else 0.0
                      for f in forms for c in context]
            expected = sum(scores) / len(scores) if scores else 0.0
            require(math.isclose(score, expected, rel_tol=1e-9, abs_tol=1e-12),
                    f"score of {cand!r} for {tokens[i][0]!r} is {score}, recomputed {expected}")


# -- eval-tail -------------------------------------------------------------------


def overlap_metrics(extracted: dict[str, str], gold: dict[str, str], label_aware: bool) -> list[Fraction]:
    """Per-word cluster-overlap accuracy, precision, recall and F1, exactly."""
    members: dict[tuple[str, str], set[str]] = {}
    for side, assignment in (("x", extracted), ("y", gold)):
        for w, label in assignment.items():
            members.setdefault((side, label), set()).add(w)
    acc = prec = rec = Fraction(0)
    for w in gold:
        x, y = members[("x", extracted[w])], members[("y", gold[w])]
        overlap = 0 if label_aware and extracted[w] != gold[w] else len(x & y)
        acc += Fraction(overlap, len(x | y))
        prec += Fraction(overlap, len(y))
        rec += Fraction(overlap, len(x))
    n = len(gold)
    acc, prec, rec = acc / n, prec / n, rec / n
    f1 = 2 * prec * rec / (prec + rec) if prec and rec else Fraction(0)
    return [acc, prec, rec, f1]


def check_eval(stdout: str, tokens: list[gen.Token], lexicon: gen.Lexicon) -> None:
    """``cbas evaluate`` output for a gold stream of distinct words."""
    gold = {t: lexicon.root_of[t] for t, kind in tokens if kind == "word"}
    metrics: dict[str, str] = {}
    extracted: dict[str, str] = {}
    coverage = []
    for line in stdout.splitlines():
        fields = line.split("\t")
        if fields[0] == "METRIC":
            metrics[fields[1]] = fields[2]
        elif fields[0] == "COVERAGE":
            coverage.append(fields)
        elif fields[0] == "CLUSTER":
            for w in fields[2].split(" "):
                require(w not in extracted, f"{w!r} is in two clusters")
                extracted[w] = fields[1]
    require(float(metrics.get("candidate_coverage", "nan")) == 1.0, "candidate_coverage is not 1.0")
    require(len(coverage) == len(gold) and all(f[3] == "yes" for f in coverage), "a COVERAGE line is missing or not yes")
    require(set(extracted) == set(gold), "CLUSTER lines do not cover exactly the gold words")
    require(int(metrics["n"]) == len(gold), f"n is {metrics['n']}, expected {len(gold)}")
    expected = {"stemming_accuracy": Fraction(sum(extracted[w] == r for w, r in gold.items()), len(gold))}
    names = ("accuracy", "precision", "recall", "f1")
    for prefix, aware in (("classification", True), ("clustering", False)):
        for name, value in zip(names, overlap_metrics(extracted, gold, aware)):
            expected[f"{prefix}_{name}"] = value
    for name, value in expected.items():
        require(float(metrics[name]) == float(value), f"{name} is {metrics[name]}, recomputed {float(value)!r}")
    for name in names:
        require(float(metrics[f"clustering_{name}"]) >= float(metrics[f"classification_{name}"]),
                f"clustering_{name} is below classification_{name}")
