import string

from hypothesis import given
from hypothesis import strategies as st

from cbas.corpus import (
    RawDocument,
    Token,
    filter_tokens,
    is_arabic_word,
    load_stopwords,
    normalize,
    prepare,
    read_corpus,
    tokenize,
)

ARABIC_LETTERS = "".join(chr(c) for c in range(0x0621, 0x064B))
DIACRITICS = "".join(chr(c) for c in range(0x064B, 0x0653)) + "ـ"

arabic_text = st.text(alphabet=ARABIC_LETTERS + DIACRITICS + " .,،0123456789")


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_word_abbreviation_period(self):
        assert tokenize("قال د .") == [
            Token("قال", 0),
            Token("د", 1),
            Token(".", 2),
        ]

    def test_digits_are_separate_tokens(self):
        assert tokenize("افتتاح الدورة 23") == [
            Token("افتتاح", 0),
            Token("الدورة", 1),
            Token("23", 2),
        ]

    def test_digits_glued_to_letters_split_off(self):
        assert [t.surface for t in tokenize("كتب123 درس")] == ["كتب", "123", "درس"]
        assert [t.surface for t in tokenize("٢٠درس")] == ["٢٠", "درس"]

    def test_glued_digits_no_longer_hide_the_word(self):
        assert prepare("كتب123 درس", frozenset()) == ["كتب", "درس"]

    def test_attached_punctuation_splits_off(self):
        surfaces = [t.surface for t in tokenize("الاوبرا، وقال")]
        assert surfaces == ["الاوبرا", "،", "وقال"]

    def test_punctuation_runs_are_single_tokens(self):
        assert [t.surface for t in tokenize("نعم... لا")] == ["نعم", "...", "لا"]

    @given(arabic_text)
    def test_positions_are_consecutive(self, text):
        tokens = tokenize(text)
        assert [t.position for t in tokens] == list(range(len(tokens)))

    @given(arabic_text)
    def test_tokens_appear_in_document_order(self, text):
        cursor = 0
        for token in tokenize(text):
            found = text.find(token.surface, cursor)
            assert found >= cursor
            cursor = found + len(token.surface)


class TestNormalize:
    def test_diacritics_removed(self):
        assert normalize("كِتَاب") == "كتاب"

    def test_hamza_alef_folded(self):
        assert normalize("إن") == "ان"
        assert normalize("أكل") == "اكل"
        assert normalize("آخر") == "اخر"

    def test_identity_on_normal_input(self):
        assert normalize("كتاب") == "كتاب"

    def test_alef_maqsura_to_yeh(self):
        assert normalize("على") == "علي"

    def test_tatweel_removed(self):
        assert normalize("كـتـاب") == "كتاب"

    def test_teh_marbuta_kept(self):
        assert normalize("مدرسة") == "مدرسة"

    def test_all_diacritics_input_becomes_empty(self):
        assert normalize("ًٌ") == ""

    @given(arabic_text)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once


class TestFilterTokens:
    def test_stopword_removed(self):
        assert filter_tokens(["قال", "ان", "الدورة"], frozenset(["ان"])) == [
            "قال",
            "الدورة",
        ]

    def test_punctuation_dropped(self):
        assert filter_tokens(["."], frozenset()) == []

    def test_digits_dropped(self):
        assert filter_tokens(["الجمعة", "24", "توفير"], frozenset()) == [
            "الجمعة",
            "توفير",
        ]

    def test_latin_dropped(self):
        assert filter_tokens(["قال", "hello", "قال2"], frozenset()) == ["قال"]

    @given(st.lists(st.text(alphabet=ARABIC_LETTERS + string.punctuation + "09", max_size=6)))
    def test_output_is_subsequence(self, tokens):
        kept = filter_tokens(tokens, frozenset())
        it = iter(tokens)
        assert all(any(t == k for t in it) for k in kept)


class TestIsArabicWord:
    def test_rejects_empty(self):
        assert not is_arabic_word("")

    def test_accepts_hamza_forms(self):
        assert is_arabic_word("سائح")


class TestStopwordFile:
    def test_load_normalizes_and_skips_comments(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("# comment\nإن\nعلى\n\nمن\n", encoding="utf-8")
        words = load_stopwords(path)
        assert words == frozenset(["ان", "علي", "من"])

    def test_entries_are_normalization_stable(self, tmp_path):
        path = tmp_path / "stop.txt"
        path.write_text("فِي\nإلى\n", encoding="utf-8")
        for entry in load_stopwords(path):
            assert normalize(entry) == entry


class TestReadCorpus:
    def test_directory_of_files_sorted(self, tmp_path):
        (tmp_path / "b.txt").write_text("ثاني", encoding="utf-8")
        (tmp_path / "a.txt").write_text("اول", encoding="utf-8")
        docs = read_corpus(tmp_path)
        assert [d.doc_id for d in docs] == ["a.txt", "b.txt"]
        assert docs == [RawDocument("a.txt", "اول"), RawDocument("b.txt", "ثاني")]

    def test_line_per_document_file(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_text("سطر اول\n\nسطر ثاني\n", encoding="utf-8")
        docs = read_corpus(path)
        assert [d.text for d in docs] == ["سطر اول", "سطر ثاني"]
        assert docs[0].doc_id == "line-1"


class TestPrepare:
    def test_pipeline(self):
        stop = frozenset(["ان"])
        out = prepare("قَالَ إن الدورة 23 .", stop)
        assert out == ["قال", "الدورة"]
