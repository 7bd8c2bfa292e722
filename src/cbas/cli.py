"""Command-line entry point: build-matrix, stem, evaluate.

Settings resolve in a fixed precedence: explicit flag, then config file
(key=value lines), then the CBAS_RESOURCES environment variable (resource
directory only), then the built-in defaults (window 3, spmi, alpha 0.75,
previous-word context, bundled resources). Exit codes: 0 success, 1 usage
error, 2 I/O or file-format error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import dataclass
from pathlib import Path

from . import cooccurrence, corpus, disambiguation, evaluation, morphology
from .errors import FormatError, decoding

DEFAULT_WINDOW = 3
DEFAULT_MEASURE = "spmi"
DEFAULT_ALPHA = 0.75
DEFAULT_CONTEXT = "previous"

_CONFIG_KEYS = ("window", "measure", "alpha", "context", "resources", "stopwords", "matrix")


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    window_n: int
    measure: cooccurrence.AssociationMeasure
    context_mode: str
    resource_dir: Path
    stopword_path: Path
    matrix_path: Path | None


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage errors are 1
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _load_config_file(path: str) -> dict[str, str]:
    values: dict[str, str] = {}
    with decoding(path), open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise FormatError("expected key=value", path=path, line=lineno)
            key, _, value = line.partition("=")
            key, value = key.strip(), value.strip()
            if key not in _CONFIG_KEYS:
                raise FormatError(f"unknown config key {key!r}", path=path, line=lineno)
            values[key] = value
    return values


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = _load_config_file(args.config) if getattr(args, "config", None) else {}

    window = args.window if getattr(args, "window", None) is not None else config.get("window", DEFAULT_WINDOW)
    try:
        window = int(window)
    except ValueError:
        raise UsageError(f"window must be an integer, got {window!r}") from None
    if window < 2:
        raise UsageError(f"window must be >= 2, got {window}")

    kind = getattr(args, "measure", None) or config.get("measure", DEFAULT_MEASURE)
    alpha = getattr(args, "alpha", None)
    if alpha is None:
        alpha = config.get("alpha", DEFAULT_ALPHA)
    try:
        alpha = float(alpha)
    except ValueError:
        raise UsageError(f"alpha must be a number, got {alpha!r}") from None
    try:
        measure = cooccurrence.AssociationMeasure(kind, alpha)
    except ValueError as exc:
        raise UsageError(str(exc)) from None

    context = getattr(args, "context", None) or config.get("context", DEFAULT_CONTEXT)
    if context not in disambiguation.CONTEXT_MODES:
        raise UsageError(f"context must be one of {disambiguation.CONTEXT_MODES}, got {context!r}")

    resources = (
        getattr(args, "resources", None)
        or config.get("resources")
        or os.environ.get("CBAS_RESOURCES")
        or morphology.bundled_resource_dir()
    )
    stopwords = (
        getattr(args, "stopwords", None)
        or config.get("stopwords")
        or morphology.bundled_resource_dir() / "stopwords.txt"
    )
    matrix = getattr(args, "matrix", None) or config.get("matrix") or None
    return RunConfig(
        window_n=window,
        measure=measure,
        context_mode=context,
        resource_dir=Path(resources),
        stopword_path=Path(stopwords),
        matrix_path=Path(matrix) if matrix else None,
    )


def _load_stemmer(cfg: RunConfig) -> disambiguation.Stemmer:
    if cfg.matrix_path is None:
        raise UsageError("a matrix file is required (--matrix or config)")
    resources = morphology.load_resources(cfg.resource_dir)
    stopwords = corpus.load_stopwords(cfg.stopword_path)
    matrix = cooccurrence.load_matrix(cfg.matrix_path)
    return disambiguation.Stemmer(resources, stopwords, matrix, cfg.measure, cfg.context_mode)


# -- build-matrix -------------------------------------------------------------


def cmd_build_matrix(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    documents = corpus.read_corpus(args.corpus, fmt=args.corpus_format)
    if not documents:
        raise FormatError("corpus contains no documents", path=args.corpus)
    stopwords = corpus.load_stopwords(cfg.stopword_path)
    streams = list(corpus.iter_token_streams(documents, stopwords))
    matrix = cooccurrence.build_matrix(streams, cfg.window_n)
    cooccurrence.save_matrix(matrix, args.out)
    print(f"documents\t{len(documents)}")
    print(f"vocabulary\t{len(matrix.vocab)}")
    print(f"total\t{matrix.total}")
    return 0


# -- stem ---------------------------------------------------------------------


def _result_record(result: disambiguation.StemResult) -> dict:
    return {
        "input": result.input,
        "normalized": result.normalized,
        "root": result.root,
        "skipped": result.skip_reason,
        "candidates": [
            {
                "root": cand.root,
                # pmi scores -inf for a pair that never co-occurs; JSON
                # has no such number, so it is written as null.
                "score": scored.score if math.isfinite(scored.score) else None,
                "derived_in_vocab": scored.derived_in_vocab,
                "prefix": cand.segmentation.prefix,
                "infix": cand.segmentation.infix,
                "suffix": cand.segmentation.suffix,
                "pattern": cand.pattern.source if cand.pattern else None,
                "weak": cand.weak_variant,
            }
            for cand, scored in result.scored
        ],
    }


def cmd_stem(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    stemmer = _load_stemmer(cfg)
    if args.text is not None:
        text = args.text
    else:
        with decoding(args.file):
            text = Path(args.file).read_text(encoding="utf-8")
    results = stemmer.stem_text(text)
    for result in results:
        print(json.dumps(_result_record(result), ensure_ascii=False, sort_keys=True, allow_nan=False))
    return 0


# -- evaluate -----------------------------------------------------------------


def cmd_evaluate(args: argparse.Namespace) -> int:
    cfg = _resolve_config(args)
    stemmer = _load_stemmer(cfg)
    pairs = evaluation.load_gold(args.gold)
    sequence = evaluation.load_gold_sequence(args.gold)

    # The gold file's row order is the token stream; each word is stemmed
    # in that context, and the first occurrence speaks for the word.
    stream = [p.word for p in sequence]
    results = stemmer.stem_tokens(stream)
    stemmed: dict[str, str | None] = {}
    for pair, result in zip(sequence, results):
        stemmed.setdefault(pair.word, result.root)

    rooted = [p for p in pairs if p.gold_root is not None]
    if not rooted:
        raise FormatError("gold file has no rooted pairs", path=args.gold)

    # Gold words are normalized, so the stemmer's candidate memo already
    # holds every word it stemmed; the words it skipped are computed here.
    covered = 0
    coverage_lines = []
    for pair in rooted:
        roots = {c.root for c in stemmer.candidates(pair.word)}
        hit = pair.gold_root in roots
        covered += hit
        coverage_lines.append(f"COVERAGE\t{pair.word}\t{pair.gold_root}\t{'yes' if hit else 'no'}")

    accuracy = evaluation.stemming_accuracy(pairs, lambda w: stemmed.get(w))

    gold_assignment: dict[str, str] = {}
    for pair in rooted:
        gold_assignment.setdefault(pair.word, pair.gold_root)
    words = sorted(gold_assignment)
    extracted_assignment = {
        w: stemmed.get(w) or evaluation.unrooted_label(w) for w in words
    }
    gold_clusters = evaluation.build_clusters(gold_assignment)
    extracted_clusters = evaluation.build_clusters(extracted_assignment)
    classif = evaluation.classification_metrics(extracted_clusters, gold_clusters, words)
    clust = evaluation.clustering_metrics(extracted_clusters, gold_clusters, words)

    for line in coverage_lines:
        print(line)
    for label in sorted(extracted_clusters.clusters):
        members = " ".join(sorted(extracted_clusters.clusters[label]))
        print(f"CLUSTER\t{label}\t{members}")
    print(f"METRIC\tn\t{classif.n}")
    print(f"METRIC\tstemming_accuracy\t{accuracy!r}")
    print(f"METRIC\tcandidate_coverage\t{covered / len(rooted)!r}")
    for prefix, report in (("classification", classif), ("clustering", clust)):
        print(f"METRIC\t{prefix}_accuracy\t{report.accuracy!r}")
        print(f"METRIC\t{prefix}_precision\t{report.precision!r}")
        print(f"METRIC\t{prefix}_recall\t{report.recall!r}")
        print(f"METRIC\t{prefix}_f1\t{report.f1!r}")
    return 0


# -- parser -------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="cbas", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="key=value config file")
        p.add_argument(
            "--jobs",
            type=_positive_int,
            default=1,
            help="accepted for compatibility; work runs serially (default 1)",
        )

    p = sub.add_parser("build-matrix", help="count co-occurrences over a corpus")
    p.add_argument("--corpus", required=True, help="corpus directory or line-per-document file")
    p.add_argument(
        "--corpus-format",
        choices=("auto", "dir", "lines"),
        default="auto",
        help="directory of files, or one document per line (default auto)",
    )
    p.add_argument("--window", type=int, help=f"context window size (default {DEFAULT_WINDOW})")
    p.add_argument("--stopwords", help="stopword file (default: bundled list)")
    p.add_argument("--out", required=True, help="output matrix file")
    common(p)
    p.set_defaults(func=cmd_build_matrix)

    p = sub.add_parser("stem", help="stem words in context, one JSON record per token")
    p.add_argument("--matrix", help="context-matrix file")
    p.add_argument("--resources", help="resource directory (default: $CBAS_RESOURCES or bundled)")
    p.add_argument("--stopwords", help="stopword file (default: bundled list)")
    p.add_argument("--measure", choices=("pmi", "ppmi", "spmi"), help=f"association measure (default {DEFAULT_MEASURE})")
    p.add_argument("--alpha", type=float, help=f"spmi smoothing exponent (default {DEFAULT_ALPHA})")
    p.add_argument("--context", choices=disambiguation.CONTEXT_MODES, help=f"scoring context (default {DEFAULT_CONTEXT})")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--text", help="text to stem")
    source.add_argument("--file", help="UTF-8 file to stem")
    common(p)
    p.set_defaults(func=cmd_stem)

    p = sub.add_parser("evaluate", help="score the stemmer against a gold word/root file")
    p.add_argument("--gold", required=True, help="gold TSV: word<TAB>root, empty root allowed")
    p.add_argument("--matrix", help="context-matrix file")
    p.add_argument("--resources", help="resource directory (default: $CBAS_RESOURCES or bundled)")
    p.add_argument("--stopwords", help="stopword file (default: bundled list)")
    p.add_argument("--measure", choices=("pmi", "ppmi", "spmi"), help=f"association measure (default {DEFAULT_MEASURE})")
    p.add_argument("--alpha", type=float, help=f"spmi smoothing exponent (default {DEFAULT_ALPHA})")
    p.add_argument("--context", choices=disambiguation.CONTEXT_MODES, help=f"scoring context (default {DEFAULT_CONTEXT})")
    common(p)
    p.set_defaults(func=cmd_evaluate)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"cbas: error: {exc}", file=sys.stderr)
        return 1
    except FormatError as exc:
        print(f"cbas: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"cbas: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
