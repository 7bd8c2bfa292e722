import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbas import disambiguation
from cbas.cooccurrence import AssociationMeasure, ContextMatrix, build_matrix
from cbas.disambiguation import (
    ScoredRoot,
    StemContext,
    Stemmer,
    derive_words,
    score_root,
    select_root,
)
from cbas.cooccurrence import association
from cbas.corpus import iter_token_streams, normalize, read_corpus, tokenize
from cbas.morphology import CandidateRoot, Segmentation, generate_candidates, parse_pattern

from .conftest import DATA_DIR
from .oracles import oracle_derive_words

# Corpus built so that derivations of قول co-occur with الرجل while قيل
# never surfaces at all: exactly one of the two candidate roots of وقال
# has contextual support.
MINI_DOCS = [
    ["الرجل", "يقول", "الحق"],
    ["الرجل", "يقول", "الصدق"],
    ["سمع", "الناس", "الحق"],
]

STOPWORDS = frozenset(["ان", "في", "من"])


@pytest.fixture
def mini_matrix():
    return build_matrix(MINI_DOCS, 3)


@pytest.fixture
def mini_stemmer(toy_resources, mini_matrix):
    return Stemmer(toy_resources, STOPWORDS, mini_matrix)


def candidate(root: str) -> CandidateRoot:
    return CandidateRoot(root, Segmentation("", root, ""), None, None)


class TestDeriveWords:
    def test_keeps_vocabulary_instantiations(self):
        patterns = (parse_pattern("123"), parse_pattern("1ا23"))

        class Vocab:
            def __contains__(self, w):
                return w in ("كاتب", "كتب")

        assert derive_words("كتب", patterns, Vocab()) == ["كاتب", "كتب"]

    def test_empty_vocabulary_falls_back_to_root(self):
        class Empty:
            def __contains__(self, w):
                return False

        assert derive_words("كتب", (parse_pattern("1ا23"),), Empty()) == ["كتب"]

    def test_intersection_matches_brute_force(self, toy_resources, mini_matrix):
        got = derive_words("قول", toy_resources.patterns, mini_matrix.vocab)
        brute = {
            p.instantiate("قول")
            for p in toy_resources.patterns
            if p.root_arity == 3
        } | {"قول"}
        assert got == sorted(w for w in brute if w in mini_matrix.vocab)
        assert got == ["يقول"]

    @given(
        st.text(alphabet="قولكتبدريا", min_size=1, max_size=6),
        st.lists(st.sampled_from(["123", "1ا23", "12و3", "م123", "ا123ا3", "1234", "م1234", "12345"]), max_size=6),
        st.integers(0, 2**12 - 1),
    )
    def test_equals_per_template_reference(self, root, lines, known):
        patterns = [parse_pattern(line) for line in lines]
        # Every form of the root, in- or out-of-vocabulary as the bits of ``known`` say.
        forms = sorted({root} | {p.instantiate(root) for p in patterns if p.root_arity == len(root)})
        vocab = {form: i for i, form in enumerate(f for k, f in enumerate(forms) if known >> k & 1)}
        assert derive_words(root, patterns, vocab) == oracle_derive_words(root, patterns, vocab)

    def test_root_with_a_tab_is_rejected(self):
        with pytest.raises(ValueError):
            derive_words("ك\tب", (parse_pattern("123"),), {})


class TestScoreRoot:
    def test_single_pair_equals_association(self, toy_resources, mini_matrix):
        ctx = StemContext(preceding=("الرجل",))
        measure = AssociationMeasure("spmi", 0.75)
        got = score_root("قول", ctx, mini_matrix, measure, toy_resources.patterns)
        want = association(mini_matrix, "يقول", "الرجل", measure)
        assert got.score == pytest.approx(want, abs=1e-12)
        assert got.derived_in_vocab == 1

    def test_empty_context_scores_zero(self, toy_resources, mini_matrix):
        got = score_root(
            "قول", StemContext(), mini_matrix, AssociationMeasure(), toy_resources.patterns
        )
        assert got.score == 0.0

    def test_unsupported_root_scores_zero(self, toy_resources, mini_matrix):
        ctx = StemContext(preceding=("الرجل",))
        got = score_root("قيل", ctx, mini_matrix, AssociationMeasure(), toy_resources.patterns)
        assert got.score == 0.0
        assert got.derived_in_vocab == 0

    def test_supported_beats_unsupported(self, toy_resources, mini_matrix):
        ctx = StemContext(preceding=("الرجل",))
        for kind in ("pmi", "ppmi", "spmi"):
            measure = AssociationMeasure(kind)
            a = score_root("قول", ctx, mini_matrix, measure, toy_resources.patterns)
            b = score_root("قيل", ctx, mini_matrix, measure, toy_resources.patterns)
            assert a.score > b.score == 0.0

    def test_window_mode_averages_both_sides(self, toy_resources, mini_matrix):
        ctx = StemContext(preceding=("الرجل",), following=("الحق",))
        measure = AssociationMeasure("ppmi")
        got = score_root(
            "قول", ctx, mini_matrix, measure, toy_resources.patterns, context_mode="window"
        )
        want = (
            association(mini_matrix, "يقول", "الرجل", measure)
            + association(mini_matrix, "يقول", "الحق", measure)
        ) / 2
        assert got.score == pytest.approx(want, abs=1e-12)

    def test_pmi_zero_pair_sinks_average(self, toy_resources, mini_matrix):
        # الناس is in vocabulary but never co-occurs with يقول
        ctx = StemContext(preceding=("الناس",))
        got = score_root("قول", ctx, mini_matrix, AssociationMeasure("pmi"), toy_resources.patterns)
        assert got.score == float("-inf")


class TestSelectRoot:
    def test_singleton(self, toy_resources, mini_matrix):
        chosen, table = select_root(
            [candidate("قيل")], StemContext(), mini_matrix, AssociationMeasure(), toy_resources.patterns
        )
        assert chosen.root == "قيل"
        assert len(table) == 1

    def test_supported_root_wins(self, toy_resources, mini_matrix):
        ctx = StemContext(preceding=("الرجل",))
        for kind in ("pmi", "ppmi", "spmi"):
            chosen, _ = select_root(
                [candidate("قيل"), candidate("قول")],
                ctx,
                mini_matrix,
                AssociationMeasure(kind),
                toy_resources.patterns,
            )
            assert chosen.root == "قول", kind

    def test_lexicographic_tie_break(self, toy_resources, mini_matrix):
        chosen, _ = select_root(
            [candidate("ودر"), candidate("دور")],
            StemContext(),
            mini_matrix,
            AssociationMeasure(),
            toy_resources.patterns,
        )
        assert chosen.root == "دور"

    def test_empty_candidates_rejected(self, toy_resources, mini_matrix):
        with pytest.raises(ValueError):
            select_root([], StemContext(), mini_matrix, AssociationMeasure(), toy_resources.patterns)

    def test_frequency_tie_break_prefers_common_root(self, toy_resources):
        # Neither root has in-vocabulary derivations beyond itself; the
        # corpus marginal of the bare root decides.
        docs = [["درس", "سرح", "درس"]]
        matrix = build_matrix(docs, 2)
        chosen, _ = select_root(
            [candidate("سرح"), candidate("درس")],
            StemContext(),
            matrix,
            AssociationMeasure(),
            (),
        )
        assert chosen.root == "درس"


class TestStemmer:
    def test_context_selects_supported_root(self, mini_stemmer):
        result = mini_stemmer.stem("وقال", before=["الرجل"])
        assert result.root == "قول"
        assert {c.root for c, _ in result.scored} == {"قول", "قيل"}

    def test_stopword_skipped(self, mini_stemmer):
        result = mini_stemmer.stem("إن")
        assert result.root is None
        assert result.skip_reason == "stopword"

    def test_digit_and_punctuation_skipped(self, mini_stemmer):
        assert mini_stemmer.stem("24").skip_reason == "digit"
        assert mini_stemmer.stem(".").skip_reason == "punctuation"
        assert mini_stemmer.stem("abc").skip_reason == "non-arabic"

    def test_trailing_newline_is_not_arabic(self, mini_stemmer):
        assert mini_stemmer.stem("قال\n").skip_reason == "non-arabic"

    def test_no_candidates(self, mini_stemmer):
        result = mini_stemmer.stem("د")
        assert result.root is None
        assert result.skip_reason == "no-candidates"

    def test_singleton_candidate_needs_no_context(self, mini_stemmer):
        result = mini_stemmer.stem("الدرس")
        assert result.root == "درس"

    def test_context_skips_stopwords(self, mini_stemmer):
        stream = ["الرجل", "إن", "وقال"]
        results = mini_stemmer.stem_tokens(stream)
        direct = mini_stemmer.stem("وقال", before=["الرجل"])
        assert results[2].root == direct.root == "قول"

    def test_context_trimmed_to_window(self, mini_stemmer):
        far = ["الناس"] * 10
        result = mini_stemmer.stem("وقال", before=far + ["الرجل"])
        # only the window_n - 1 nearest filtered words are kept
        assert result.root == "قول"

    def test_determinism(self, mini_stemmer):
        stream = ["الرجل", "يقول", "الحق", "وقال", "24", "."]
        assert mini_stemmer.stem_tokens(stream) == mini_stemmer.stem_tokens(stream)

    def test_spmi_alpha_one_selects_like_ppmi(self, toy_resources, mini_matrix):
        spmi1 = Stemmer(toy_resources, STOPWORDS, mini_matrix, AssociationMeasure("spmi", 1.0))
        ppmi = Stemmer(toy_resources, STOPWORDS, mini_matrix, AssociationMeasure("ppmi"))
        stream = [w for doc in MINI_DOCS for w in doc] + ["وقال"]
        roots_a = [r.root for r in spmi1.stem_tokens(stream)]
        roots_b = [r.root for r in ppmi.stem_tokens(stream)]
        assert roots_a == roots_b

    def test_scaling_counts_changes_no_selection(self, toy_resources, mini_matrix):
        scaled = ContextMatrix(
            mini_matrix.window_n,
            mini_matrix.vocab,
            {pair: 7 * c for pair, c in mini_matrix.counts.items()},
        )
        stream = [w for doc in MINI_DOCS for w in doc] + ["وقال", "لدار"]
        for kind in ("pmi", "ppmi", "spmi"):
            base = Stemmer(toy_resources, STOPWORDS, mini_matrix, AssociationMeasure(kind))
            big = Stemmer(toy_resources, STOPWORDS, scaled, AssociationMeasure(kind))
            assert [r.root for r in base.stem_tokens(stream)] == [
                r.root for r in big.stem_tokens(stream)
            ]

    def test_score_table_is_exposed(self, mini_stemmer):
        result = mini_stemmer.stem("وقال", before=["الرجل"])
        for cand, scored in result.scored:
            assert isinstance(scored, ScoredRoot)
            assert scored.root == cand.root
            assert scored.score >= 0.0  # spmi default


# Kept words, a stopword, digits, punctuation, a non-Arabic token and a
# word without candidates: every path through the stemmer.
STREAM_TOKENS = ["الرجل", "يقول", "الحق", "وقال", "الناس", "الدرس", "لدار", "إن", "24", ".", "abc", "د"]


class TestOneStemmingPath:
    @given(
        st.lists(st.sampled_from(STREAM_TOKENS), max_size=6),
        st.sampled_from(STREAM_TOKENS),
        st.lists(st.sampled_from(STREAM_TOKENS), max_size=6),
        st.sampled_from(["previous", "window"]),
    )
    def test_stem_equals_stem_tokens_at_its_position(self, toy_resources, mini_matrix, before, word, after, mode):
        stemmer = Stemmer(toy_resources, STOPWORDS, mini_matrix, AssociationMeasure("pmi"), mode)
        streamed = Stemmer(toy_resources, STOPWORDS, mini_matrix, AssociationMeasure("pmi"), mode)
        assert stemmer.stem(word, before, after) == streamed.stem_tokens(before + [word] + after)[len(before)]

    def test_memo_tables_compute_each_word_and_root_once(self, toy_resources, mini_matrix, counted_calls):
        stemmer = Stemmer(toy_resources, STOPWORDS, mini_matrix)
        stream = ["الرجل", "وقال", "الحق"] * 5
        results = stemmer.stem_tokens(stream)
        stemmer.stem("وقال", before=["الرجل"])
        assert sorted(counted_calls["generate_candidates"]) == sorted(set(stream))
        roots = {cand.root for r in results for cand, _ in r.scored}
        assert sorted(counted_calls["derive_words"]) == sorted(roots)

    def test_no_memo_outlives_a_stemmer(self, toy_resources, mini_matrix, counted_calls):
        stream = ["الرجل", "وقال", "الحق", "لدار"]
        first = Stemmer(toy_resources, STOPWORDS, mini_matrix).stem_tokens(stream)
        once = {name: sorted(calls) for name, calls in counted_calls.items()}
        assert once["generate_candidates"] and once["derive_words"]
        second = Stemmer(toy_resources, STOPWORDS, mini_matrix).stem_tokens(stream)
        assert second == first
        assert {name: sorted(calls) for name, calls in counted_calls.items()} == {
            name: sorted(calls * 2) for name, calls in once.items()
        }


@pytest.fixture
def counted_calls(monkeypatch):
    """The first argument of every call a Stemmer makes to
    ``generate_candidates`` and ``derive_words``, by function name."""
    calls = {"generate_candidates": [], "derive_words": []}
    for name in calls:
        inner = getattr(disambiguation, name)

        def counted(arg, *rest, _inner=inner, _seen=calls[name]):
            _seen.append(arg)
            return _inner(arg, *rest)

        monkeypatch.setattr(disambiguation, name, counted)
    return calls


@pytest.fixture(scope="module")
def bundled_setup(bundled_resources, bundled_stopwords):
    documents = read_corpus(DATA_DIR / "sample_corpus")
    matrix = build_matrix(iter_token_streams(documents, bundled_stopwords), 3)
    tokens = [t for doc in documents for t in tokenize(doc.text)]
    return bundled_resources, bundled_stopwords, matrix, tokens


def word_by_word_score(root, ctx_words, matrix, measure, resources):
    """The mean as first defined: one word-keyed association per pair,
    derived words outer, context words inner."""
    if not ctx_words:
        return 0.0
    derived = derive_words(root, resources.patterns, matrix.vocab)
    total, pairs = 0.0, 0
    for d in derived:
        for c in ctx_words:
            pairs += 1
            if d in matrix.vocab and c in matrix.vocab:
                total += association(matrix, d, c, measure)
    return total / pairs


@pytest.mark.parametrize("mode", ["previous", "window"])
@pytest.mark.parametrize("kind", ["pmi", "ppmi", "spmi"])
def test_memoised_stemming_equals_select_root_on_bundled_corpus(bundled_setup, kind, mode):
    resources, stopwords, matrix, tokens = bundled_setup
    measure = AssociationMeasure(kind, 0.75)
    results = Stemmer(resources, stopwords, matrix, measure, mode).stem_tokens(tokens)
    normalized = [normalize(t) for t in tokens]
    kept = [n for n, r in zip(normalized, results) if r.skip_reason is None or r.skip_reason == "no-candidates"]
    keep = matrix.window_n - 1
    pos = 0
    for norm, result in zip(normalized, results):
        if result.skip_reason not in (None, "no-candidates"):
            continue
        candidates = generate_candidates(norm, resources)
        assert [c for c, _ in result.scored] == candidates
        if candidates:
            context = StemContext(tuple(kept[max(0, pos - keep):pos]), tuple(kept[pos + 1:pos + 1 + keep]))
            chosen, table = select_root(candidates, context, matrix, measure, resources.patterns, mode)
            assert (result.root, [s for _, s in result.scored]) == (chosen.root, table), norm
            ctx_words = context.preceding[-1:] if mode == "previous" else context.preceding + context.following
            for _, scored in result.scored:
                assert scored.score == word_by_word_score(scored.root, ctx_words, matrix, measure, resources), norm
        else:
            assert result.root is None and result.skip_reason == "no-candidates"
        pos += 1
    assert pos == len(kept) > 500


# The eight kept words before the first كتب of the bundled corpus, in text order.
BEFORE_KATABA = ("ذهب", "الطلاب", "المدرسة", "الصباح", "وبدا", "المعلم", "الدرس", "الجديد")


def test_stem_context_is_scored_whole_and_only_the_stemmer_trims_it(bundled_setup):
    resources, stopwords, matrix, _ = bundled_setup
    measure = AssociationMeasure("spmi", 0.75)
    candidates = generate_candidates("كتب", resources)

    def table(mode, preceding):
        return select_root(candidates, StemContext(preceding), matrix, measure, resources.patterns, mode)[1]

    def stemmed(mode):
        result = Stemmer(resources, stopwords, matrix, measure, mode).stem("كتب", before=BEFORE_KATABA)
        return [s for _, s in result.scored]

    # Window 3: the Stemmer keeps the two nearest words, the last two of the tuple.
    assert stemmed("window") == table("window", BEFORE_KATABA[-2:])
    assert stemmed("window")[0].score == pytest.approx(2.4844, abs=1e-4)
    assert table("window", BEFORE_KATABA)[0].score == pytest.approx(0.6211, abs=1e-4)
    # The nearest preceding word is the last one.
    assert stemmed("previous") == table("previous", BEFORE_KATABA) == table("previous", BEFORE_KATABA[-1:])
