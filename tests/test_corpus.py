import string
import sys
import unicodedata

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cbas import corpus
from cbas.corpus import (
    RawDocument,
    filter_tokens,
    is_arabic_word,
    is_kept,
    load_stopwords,
    normalize,
    prepare,
    read_corpus,
    tokenize,
)

from .oracles import oracle_prepare, oracle_tokenize

ARABIC_LETTERS = "".join(chr(c) for c in range(0x0621, 0x064B))
DIACRITICS = "".join(chr(c) for c in range(0x064B, 0x0653)) + "ـ"

arabic_text = st.text(alphabet=ARABIC_LETTERS + DIACRITICS + " .,،0123456789")

# Arabic words with diacritics, Arabic-block characters outside the plain
# letter range (Arabic-Indic digits, Arabic comma and question mark,
# superscript alef, keheh), Latin letters and digits, ASCII punctuation,
# and whitespace: ASCII, no-break space, em space, ideographic space and
# the file separator, which str.isspace() counts too. U+200B is not
# whitespace.
mixed_text = st.text(
    alphabet=ARABIC_LETTERS + DIACRITICS + "٠١٢٣٤٥٦٧٨٩،؟ٰک" + "abcXYZ0189" + ".,!?-()$"
    + " \t\n\u00a0\u2003\u3000\u001c\u200b"
)


class TestTokenize:
    def test_empty_text(self):
        assert tokenize("") == []

    def test_word_abbreviation_period(self):
        assert tokenize("قال د .") == ["قال", "د", "."]

    def test_digits_are_separate_tokens(self):
        assert tokenize("افتتاح الدورة 23") == ["افتتاح", "الدورة", "23"]

    def test_digits_glued_to_letters_split_off(self):
        assert tokenize("كتب123 درس") == ["كتب", "123", "درس"]
        assert tokenize("٢٠درس") == ["٢٠", "درس"]

    def test_glued_digits_no_longer_hide_the_word(self):
        assert prepare("كتب123 درس", frozenset()) == ["كتب", "درس"]

    def test_attached_punctuation_splits_off(self):
        assert tokenize("الاوبرا، وقال") == ["الاوبرا", "،", "وقال"]

    def test_punctuation_runs_are_single_tokens(self):
        assert tokenize("نعم... لا") == ["نعم", "...", "لا"]

    @given(st.one_of(mixed_text, st.lists(st.sampled_from(["وقال", "الرجلُ", "كتب123", "a.b", "،", "\u00a0"])).map(" ".join)))
    def test_equals_per_character_reference(self, text):
        assert tokenize(text) == oracle_tokenize(text)

    def test_plain_word_class_holds_no_punctuation_symbol_or_digit(self):
        plain = [chr(c) for c in range(sys.maxunicode + 1) if corpus._PLAIN_WORD.fullmatch(chr(c))]
        assert plain == [chr(c) for c in range(0x0621, 0x0653)]
        for ch in plain:
            category = unicodedata.category(ch)
            assert category[0] not in ("P", "S") and category != "Nd" and not ch.isspace(), hex(ord(ch))

    @given(arabic_text)
    def test_tokens_appear_in_document_order(self, text):
        cursor = 0
        for token in tokenize(text):
            found = text.find(token, cursor)
            assert found >= cursor
            cursor = found + len(token)


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

    def test_rejects_a_trailing_newline(self):
        assert not is_arabic_word("كتب\n")
        assert not is_kept("كتب\n", frozenset())
        assert filter_tokens(["كتب\n", "درس"], frozenset()) == ["درس"]


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

    @pytest.mark.parametrize("text", [
        "!ً?",  # a diacritic alone between punctuation
        "1ـ2",  # tatweel between digits
        "ًٌ كتب",  # a token of diacritics only
        "إلى\u00a0على\u2003أكل",  # stopwords once their alef forms fold
        "كَتَبَ123ـقال",
    ])
    def test_same_kept_tokens_as_normalizing_each_token(self, bundled_stopwords, text):
        assert prepare(text, bundled_stopwords) == oracle_prepare(text, bundled_stopwords)

    @settings(max_examples=500)
    @given(mixed_text, st.sets(st.sampled_from(["ا", "و", "ب", "في", "الي", "علي"])))
    def test_equals_per_token_reference(self, text, stopwords):
        stopwords = frozenset(stopwords)
        assert prepare(text, stopwords) == oracle_prepare(text, stopwords)
