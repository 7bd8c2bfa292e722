"""Per-layer tracing from outside the program.

Each traced function is replaced, at the name its caller looks up, by a
wrapper that records a span around the call. Spans are aggregated in
memory by name (calls and self time) and handed back as a plain
dict at the end of a pass; a span's self time is its duration minus the
time of the traced spans it caused. Some spans also add exact counts of
the work they did, taken from their arguments and results; counting runs
outside every span, so it adds no self time anywhere.
"""

from __future__ import annotations

import os
import time
import tracemalloc
from collections import Counter

perf = time.perf_counter


def _pair_count(path) -> int:
    """Stored pairs of a v1 matrix file: its lines minus header and vocabulary."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split("\t")
        vocab = int(header[4].partition("=")[2])
        return sum(1 for _ in fh) - vocab


class Tracer:
    def __init__(self):
        self.stack: list[list[float]] = []  # per open span: time of its traced children
        self.reset()

    def reset(self) -> None:
        self.calls: Counter = Counter()
        self.self_time: Counter = Counter()
        self.counts: Counter = Counter()

    def snapshot(self) -> dict:
        out = {}
        for name in self.calls:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.s"] = self.self_time[name]
        out.update(self.counts)
        return out

    def wrap(self, name: str, fn, count=None):
        def traced(*args, **kwargs):
            children = [0.0]
            self.stack.append(children)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                self.stack.pop()
                self.calls[name] += 1
                self.self_time[name] += elapsed - children[0]
            if count is not None:
                count_start = perf()
                count(self.counts, result, args, kwargs)
                elapsed += perf() - count_start
            if self.stack:
                self.stack[-1][0] += elapsed
            return result

        traced.__wrapped__ = fn
        return traced


def install(tracer: Tracer) -> None:
    """Wrap every traced function at each name a caller looks it up by."""
    from cbas import cli, cooccurrence, corpus, disambiguation, evaluation, morphology

    def prepare_counts(counts, result, args, kwargs):
        counts["corpus.prepare.tokens_in"] += len(corpus.tokenize(args[0]))
        counts["corpus.prepare.tokens_kept"] += len(result)

    def save_counts(counts, result, args, kwargs):
        counts["cooccurrence.build_matrix.pairs_stored"] += _pair_count(args[1])
        counts["cooccurrence.save_matrix.bytes"] += os.path.getsize(args[1])

    def length_count(key):
        def count(counts, result, args, kwargs):
            counts[key] += len(result)
        return count

    targets = [
        ("corpus.read_corpus", [(corpus, "read_corpus")], None),
        ("corpus.prepare", [(corpus, "prepare")], prepare_counts),
        ("cooccurrence.build_matrix", [(cooccurrence, "build_matrix")], None),
        ("cooccurrence.save_matrix", [(cooccurrence, "save_matrix")], save_counts),
        ("cooccurrence.load_matrix", [(cooccurrence, "load_matrix")], None),
        ("cooccurrence.association", [(disambiguation, "association")], None),
        ("morphology.load_resources", [(morphology, "load_resources")], None),
        ("morphology.generate_candidates",
         [(morphology, "generate_candidates"), (disambiguation, "generate_candidates")],
         length_count("morphology.generate_candidates.candidates")),
        ("morphology.segment", [(morphology, "segment")], length_count("morphology.segment.splits")),
        ("disambiguation.derive_words", [(disambiguation, "derive_words")],
         length_count("disambiguation.derive_words.forms_returned")),
        ("disambiguation.score_root", [(disambiguation, "score_root")], None),
        ("disambiguation.select_root", [(disambiguation, "select_root")], None),
        ("disambiguation.stem_tokens", [(disambiguation.Stemmer, "stem_tokens")], None),
        ("evaluation.load_gold", [(evaluation, "load_gold"), (evaluation, "load_gold_sequence")], None),
        ("evaluation.metrics",
         [(evaluation, "build_clusters"), (evaluation, "classification_metrics"),
          (evaluation, "clustering_metrics")], None),
        ("cli.cmd_evaluate", [(cli, "cmd_evaluate")], None),
    ]
    for name, places, count in targets:
        for owner, attr in places:
            setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))


def build_peak_mib(run) -> float:
    """Peak traced memory that ``build_matrix`` allocates while ``run()`` runs.

    The figure is the tracemalloc peak inside the call minus the traced
    memory held when the call starts.
    """
    from cbas import cooccurrence

    inner = cooccurrence.build_matrix
    peaks = []

    def measured(*args, **kwargs):
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        try:
            return inner(*args, **kwargs)
        finally:
            peaks.append(tracemalloc.get_traced_memory()[1] - base)

    cooccurrence.build_matrix = measured
    tracemalloc.start()
    try:
        run()
    finally:
        tracemalloc.stop()
        cooccurrence.build_matrix = inner
    return max(peaks) / 2**20


def load_bytes_per_pair(path) -> float:
    """tracemalloc bytes held by a loaded matrix, divided by its stored pairs.

    It loads through the package-level name, which is not traced.
    """
    import cbas

    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        matrix = cbas.load_matrix(path)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    del matrix
    return held / _pair_count(path)
