"""Context-based Arabic root stemmer.

Generates every dictionary-valid candidate root for a word (affix
segmentation, template-pattern matching, weak-letter recovery) and picks
one by the average smoothed-PMI association between each root's derived
words and the word's context, computed over a corpus co-occurrence matrix.
"""

from .cooccurrence import (
    AssociationMeasure,
    ContextMatrix,
    Vocabulary,
    association,
    build_matrix,
    load_matrix,
    save_matrix,
)
from .corpus import (
    RawDocument,
    filter_tokens,
    iter_token_streams,
    load_stopwords,
    normalize,
    prepare,
    read_corpus,
    tokenize,
)
from .disambiguation import (
    ScoredRoot,
    StemContext,
    Stemmer,
    StemResult,
    derive_words,
    score_root,
    select_root,
)
from .errors import FormatError
from .evaluation import (
    ClusterSet,
    GoldPair,
    MetricsReport,
    build_clusters,
    classification_metrics,
    clustering_metrics,
    load_gold,
    stemming_accuracy,
)
from .morphology import (
    AffixLists,
    CandidateRoot,
    MorphResources,
    Pattern,
    Segmentation,
    bundled_resource_dir,
    expand_weak,
    generate_candidates,
    load_resources,
    parse_pattern,
    segment,
)

__version__ = "0.1.0"

__all__ = [
    "AffixLists",
    "AssociationMeasure",
    "CandidateRoot",
    "ClusterSet",
    "ContextMatrix",
    "FormatError",
    "GoldPair",
    "MetricsReport",
    "MorphResources",
    "Pattern",
    "RawDocument",
    "ScoredRoot",
    "Segmentation",
    "StemContext",
    "StemResult",
    "Stemmer",
    "Vocabulary",
    "association",
    "build_clusters",
    "build_matrix",
    "bundled_resource_dir",
    "classification_metrics",
    "clustering_metrics",
    "derive_words",
    "expand_weak",
    "filter_tokens",
    "generate_candidates",
    "iter_token_streams",
    "load_gold",
    "load_matrix",
    "load_resources",
    "load_stopwords",
    "normalize",
    "parse_pattern",
    "prepare",
    "read_corpus",
    "save_matrix",
    "score_root",
    "segment",
    "select_root",
    "stemming_accuracy",
    "tokenize",
]
