import random
from fractions import Fraction

import pytest

from cbas.errors import FormatError
from cbas.evaluation import (
    ClusterSet,
    GoldPair,
    build_clusters,
    classification_metrics,
    clustering_metrics,
    load_gold,
    load_gold_sequence,
    stemming_accuracy,
    unrooted_label,
)

from .oracles import oracle_cluster_metrics

# gold {r: {a,b}, s: {c,d}} against extracted {r: {a,b,c}, s: {d}}
FOUR_WORDS = ["a", "b", "c", "d"]
FOUR_GOLD = ClusterSet({"r": {"a", "b"}, "s": {"c", "d"}})
FOUR_EXTRACTED = ClusterSet({"r": {"a", "b", "c"}, "s": {"d"}})


class TestLoadGold:
    def test_basic_rows(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("الصغير\tصغر\n24\t\n", encoding="utf-8")
        assert load_gold(path) == [
            GoldPair("الصغير", "صغر"),
            GoldPair("24", None),
        ]

    def test_duplicates_collapsed(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("كتب\tكتب\nقال\tقول\nكتب\tكتب\n", encoding="utf-8")
        assert len(load_gold(path)) == 2

    def test_sequence_keeps_duplicates_in_order(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("كتب\tكتب\nقال\tقول\nكتب\tكتب\n", encoding="utf-8")
        assert [p.word for p in load_gold_sequence(path)] == ["كتب", "قال", "كتب"]

    def test_normalization_applied(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("إنَّ\t\nوقال\tقول\n", encoding="utf-8")
        assert load_gold(path)[0].word == "ان"

    def test_malformed_row_names_line(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("كتب\tكتب\nقال قول\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_gold(path)
        assert err.value.line == 2

    def test_comments_ignored(self, tmp_path):
        path = tmp_path / "gold.tsv"
        path.write_text("# header\nكتب\tكتب\n", encoding="utf-8")
        assert len(load_gold(path)) == 1


class TestStemmingAccuracy:
    PAIRS = [
        GoldPair("كاتب", "كتب"),
        GoldPair("قال", "قول"),
        GoldPair("مدرسة", "درس"),
        GoldPair("لاعب", "لعب"),
        GoldPair("24", None),
    ]

    def test_perfect_stemmer(self):
        gold = {p.word: p.gold_root for p in self.PAIRS}
        assert stemming_accuracy(self.PAIRS, gold.get) == 1.0

    def test_three_of_four(self):
        answers = {"كاتب": "كتب", "قال": "قول", "مدرسة": "درس", "لاعب": "صعب"}
        assert stemming_accuracy(self.PAIRS, answers.get) == 0.75

    def test_absent_output_counts_as_incorrect(self):
        assert stemming_accuracy(self.PAIRS, lambda w: None) == 0.0

    def test_rootless_pairs_ignored(self):
        counted = []

        def stemmer(word):
            counted.append(word)
            return None

        stemming_accuracy(self.PAIRS, stemmer)
        assert "24" not in counted

    def test_empty_pairs_rejected(self):
        with pytest.raises(ValueError):
            stemming_accuracy([GoldPair("24", None)], lambda w: None)


class TestBuildClusters:
    def test_grouping(self):
        got = build_clusters({"كاتب": "كتب", "كتاب": "كتب", "دار": "دور"})
        assert got.clusters == {
            "كتب": frozenset({"كاتب", "كتاب"}),
            "دور": frozenset({"دار"}),
        }

    def test_empty(self):
        assert build_clusters({}).clusters == {}

    def test_reference_word_root_rows_share_cluster(self):
        rows = {
            "الجمعة": "جمع",
            "بالمسرح": "سرح",
            "الصغير": "صغر",
            "لدار": "دور",
            "وقال": "قول",
            "مرعي": "رعي",
            "عضو": "عضو",
            "المصري": "مصر",
            "افتتاح": "فتح",
            "الدورة": "دور",
        }
        clusters = build_clusters(rows)
        assert len(clusters) == 9
        assert clusters.clusters["دور"] == frozenset({"لدار", "الدورة"})

    def test_conflicting_assignment_rejected(self):
        with pytest.raises(ValueError):
            ClusterSet({"a": {"w"}, "b": {"w"}})


class TestClassificationMetrics:
    def test_identity_clustering_is_perfect(self):
        got = classification_metrics(FOUR_GOLD, FOUR_GOLD, FOUR_WORDS)
        assert (got.accuracy, got.precision, got.recall, got.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_worked_example(self):
        got = classification_metrics(FOUR_EXTRACTED, FOUR_GOLD, FOUR_WORDS)
        assert got.accuracy == pytest.approx(float(Fraction(11, 24)), abs=1e-12)
        assert got.precision == pytest.approx(float(Fraction(5, 8)), abs=1e-12)
        assert got.recall == pytest.approx(float(Fraction(7, 12)), abs=1e-12)
        assert got.f1 == pytest.approx(float(Fraction(35, 58)), abs=1e-12)
        assert got.n == 4

    def test_f1_matches_reference_report_rows(self):
        # published precision/recall/f1 percentages whose harmonic mean
        # must agree to a hundredth of a percentage point
        for p, r, f in ((57.53, 59.59, 58.55), (93.09, 75.74, 83.52)):
            assert 2 * p * r / (p + r) == pytest.approx(f, abs=0.01)

    def test_missing_word_rejected(self):
        with pytest.raises(ValueError):
            classification_metrics(FOUR_EXTRACTED, FOUR_GOLD, ["a", "zzz"])


class TestClusteringMetrics:
    def test_label_renaming_is_ignored(self):
        renamed = ClusterSet({"x1": {"a", "b"}, "x2": {"c", "d"}})
        got = clustering_metrics(renamed, FOUR_GOLD, FOUR_WORDS)
        assert (got.accuracy, got.precision, got.recall, got.f1) == (1.0, 1.0, 1.0, 1.0)

    def test_hand_worked_example(self):
        got = clustering_metrics(FOUR_EXTRACTED, FOUR_GOLD, FOUR_WORDS)
        assert got.accuracy == pytest.approx(float(Fraction(25, 48)), abs=1e-12)
        assert got.precision == pytest.approx(0.75, abs=1e-12)
        assert got.recall == pytest.approx(float(Fraction(2, 3)), abs=1e-12)
        assert got.f1 == pytest.approx(float(Fraction(12, 17)), abs=1e-12)

    def test_permuted_labels_score_identically(self):
        permuted = ClusterSet({"s": {"a", "b", "c"}, "r": {"d"}})
        a = clustering_metrics(FOUR_EXTRACTED, FOUR_GOLD, FOUR_WORDS)
        b = clustering_metrics(permuted, FOUR_GOLD, FOUR_WORDS)
        assert (a.accuracy, a.precision, a.recall, a.f1) == (
            b.accuracy,
            b.precision,
            b.recall,
            b.f1,
        )


def random_clustering_case(rng: random.Random):
    size = rng.randint(2, 20)
    words = [f"w{i}" for i in range(size)]
    labels = [f"r{i}" for i in range(rng.randint(1, size))]
    gold = {w: rng.choice(labels) for w in words}
    extracted = {}
    for w in words:
        if rng.random() < 0.5:
            extracted[w] = gold[w]
        elif rng.random() < 0.5:
            extracted[w] = rng.choice(labels)
        else:
            extracted[w] = unrooted_label(w)
    return words, gold, extracted


class TestAgainstOracle:
    def test_metrics_match_oracle_on_random_clusterings(self):
        rng = random.Random(20260809)
        for _ in range(60):
            words, gold, extracted = random_clustering_case(rng)
            gold_cs = build_clusters(gold)
            ext_cs = build_clusters(extracted)
            gold_sets = {k: set(v) for k, v in gold_cs.clusters.items()}
            ext_sets = {k: set(v) for k, v in ext_cs.clusters.items()}
            for label_aware, func in ((True, classification_metrics), (False, clustering_metrics)):
                got = func(ext_cs, gold_cs, words)
                want = oracle_cluster_metrics(ext_sets, gold_sets, words, label_aware)
                # The same exact rationals, so the same floats.
                assert (got.accuracy, got.precision, got.recall, got.f1) == tuple(map(float, want))

    def test_clustering_dominates_classification(self):
        rng = random.Random(97)
        for _ in range(60):
            words, gold, extracted = random_clustering_case(rng)
            gold_cs = build_clusters(gold)
            ext_cs = build_clusters(extracted)
            label_aware = classification_metrics(ext_cs, gold_cs, words)
            agnostic = clustering_metrics(ext_cs, gold_cs, words)
            assert agnostic.accuracy >= label_aware.accuracy - 1e-12
            assert agnostic.precision >= label_aware.precision - 1e-12
            assert agnostic.recall >= label_aware.recall - 1e-12
            assert agnostic.f1 >= label_aware.f1 - 1e-12
