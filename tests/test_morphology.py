import pytest
from hypothesis import given
from hypothesis import strategies as st

from cbas.errors import FormatError
from cbas.morphology import (
    AffixLists,
    Segmentation,
    expand_weak,
    generate_candidates,
    load_resources,
    parse_pattern,
    segment,
)

from .conftest import make_toy_resources
from .oracles import oracle_candidates

CORE_LETTERS = "بتجحدرسصقكلمنهويا"


class TestParsePattern:
    def test_active_participle_template(self):
        p = parse_pattern("1ا23")
        assert p.cells == (1, "ا", 2, 3)
        assert p.length == 4
        assert p.root_arity == 3

    def test_identity_template(self):
        p = parse_pattern("123")
        assert p.cells == (1, 2, 3)
        assert p.root_arity == 3

    def test_five_letter_identity(self):
        assert parse_pattern("12345").root_arity == 5

    def test_slots_out_of_order_rejected(self):
        with pytest.raises(FormatError):
            parse_pattern("13ا2")

    def test_repeated_first_slot_rejected(self):
        with pytest.raises(FormatError):
            parse_pattern("1123")

    def test_repeated_third_slot_allowed(self):
        p = parse_pattern("ا123ا3")
        assert p.cells == ("ا", 1, 2, 3, "ا", 3)
        assert p.root_arity == 3

    def test_no_slots_rejected(self):
        with pytest.raises(FormatError):
            parse_pattern("ابت")

    def test_non_arabic_literal_rejected(self):
        with pytest.raises(FormatError):
            parse_pattern("1x23")


class TestMatchPattern:
    def test_extracts_root_letters(self):
        assert parse_pattern("1ا23").match("كاتب") == "كتب"

    def test_length_gate(self):
        assert parse_pattern("123").match("كاتب") is None

    def test_literal_mismatch(self):
        assert parse_pattern("م12و3").match("مدرسة") is None

    def test_repeated_slot_must_agree(self):
        doubled = parse_pattern("ا123ا3")
        assert doubled.match("احمرار") == "حمر"
        assert doubled.match("احمراز") is None

    def test_instantiate_inverts_match(self):
        p = parse_pattern("م1ا2ي3")
        assert p.instantiate("فتح") == "مفاتيح"
        assert p.match("مفاتيح") == "فتح"

    def test_instantiate_arity_checked(self):
        with pytest.raises(ValueError):
            parse_pattern("123").instantiate("دحرج")


class TestSegment:
    AFFIXES = AffixLists(
        frozenset(["", "و", "ال", "وال"]), frozenset(["", "ون", "ة"])
    )

    def test_definite_article_split(self):
        got = segment("الكاتب", self.AFFIXES)
        assert Segmentation("ال", "كاتب", "") in got

    def test_trivial_split_first(self):
        got = segment("كتب", self.AFFIXES)
        assert got[0] == Segmentation("", "كتب", "")

    def test_compound_prefix_and_suffix(self):
        got = segment("والكاتبون", self.AFFIXES)
        assert Segmentation("وال", "كاتب", "ون") in got

    def test_short_word_has_no_split(self):
        assert segment("و", self.AFFIXES) == []

    def test_infix_keeps_two_letters(self):
        for seg in segment("والة", self.AFFIXES):
            assert len(seg.infix) >= 2

    def test_ordering_longest_infix_first(self):
        got = segment("والكاتبون", self.AFFIXES)
        lengths = [len(s.infix) for s in got]
        assert lengths == sorted(lengths, reverse=True)

    @given(st.text(alphabet=CORE_LETTERS, min_size=2, max_size=8))
    def test_reconstruction(self, word):
        for seg in segment(word, self.AFFIXES):
            assert seg.prefix + seg.infix + seg.suffix == word
            assert seg.prefix in self.AFFIXES.prefixes
            assert seg.suffix in self.AFFIXES.suffixes


class TestExpandWeak:
    def test_hollow_raw_produces_waw_variant(self):
        got = expand_weak("قال")
        assert got[0] == "قال"
        assert "قول" in got
        assert "قيل" in got

    def test_strong_root_unchanged(self):
        assert expand_weak("كتب") == ["كتب"]

    def test_two_letter_raw_insertions_and_doubling(self):
        got = expand_weak("قل")
        assert got[0] == "قل"
        assert "قلل" in got
        assert "قول" in got
        assert "قال" in got

    def test_no_duplicates(self):
        got = expand_weak("قو")
        assert len(got) == len(set(got))

    def test_deterministic_order(self):
        assert expand_weak("قال") == expand_weak("قال")
        # substitutions run left to right in ا و ي replacement order
        assert expand_weak("دور")[:3] == ["دور", "دار", "دير"]


class TestGenerateCandidates:
    def test_definite_adjective(self, bundled_resources):
        roots = [c.root for c in generate_candidates("الصغير", bundled_resources)]
        assert "صغر" in roots

    def test_non_arabic_input_yields_nothing(self, bundled_resources):
        assert generate_candidates("xyz", bundled_resources) == []

    def test_bare_root_found_via_identity(self, bundled_resources):
        roots = [c.root for c in generate_candidates("عضو", bundled_resources)]
        assert "عضو" in roots

    def test_provenance_records_route(self, toy_resources):
        candidates = generate_candidates("لدار", toy_resources)
        by_root = {c.root: c for c in candidates}
        assert by_root["دور"].segmentation == Segmentation("ل", "دار", "")
        assert by_root["دور"].pattern.source == "123"
        assert by_root["دور"].weak_variant == "sub:1:ا>و"

    def test_two_letter_infix_route_has_no_pattern(self):
        resources = make_toy_resources(roots=("قول", "قلل"))
        candidates = generate_candidates("قلها", resources)
        assert {c.root for c in candidates} == {"قول", "قلل"}
        assert all(c.pattern is None for c in candidates)

    def test_deduplicated_by_root(self, toy_resources):
        candidates = generate_candidates("وقال", toy_resources)
        roots = [c.root for c in candidates]
        assert len(roots) == len(set(roots))

    def test_deterministic(self, bundled_resources):
        first = generate_candidates("والمدرسة", bundled_resources)
        second = generate_candidates("والمدرسة", bundled_resources)
        assert first == second

    @given(st.text(alphabet=CORE_LETTERS, min_size=1, max_size=7))
    def test_matches_generation_side_oracle(self, word):
        resources = make_toy_resources(
            pattern_lines=("123", "1ا23", "12ا3", "12و3", "م123", "ي123", "ا123ا3", "1234"),
            roots=("قول", "قيل", "كتب", "درس", "دور", "دير", "حمر", "قلل", "علو", "رجل", "دحرج"),
        )
        got = {c.root for c in generate_candidates(word, resources)}
        assert got == oracle_candidates(word, resources)

    def test_soundness_all_candidates_in_dictionary(self, bundled_resources):
        for word in ("والمدرسة", "افتتاح", "بالمسرحية", "اللاعبون", "تدريب"):
            for c in generate_candidates(word, bundled_resources):
                assert c.root in bundled_resources.roots
                assert c.segmentation.prefix + c.segmentation.infix + c.segmentation.suffix == word


class TestLoadResources:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FormatError):
            load_resources(tmp_path)

    def _write(self, tmp_path, patterns="123\n", roots="كتب\n"):
        (tmp_path / "prefixes.txt").write_text("و\nال\n", encoding="utf-8")
        (tmp_path / "suffixes.txt").write_text("ة\n", encoding="utf-8")
        (tmp_path / "patterns.txt").write_text(patterns, encoding="utf-8")
        (tmp_path / "roots.txt").write_text(roots, encoding="utf-8")

    def test_loads_and_normalizes(self, tmp_path):
        self._write(tmp_path, roots="أكل\n")
        res = load_resources(tmp_path)
        assert "اكل" in res.roots
        assert "" in res.affixes.prefixes
        assert "" in res.affixes.suffixes

    def test_bad_pattern_line_number(self, tmp_path):
        self._write(tmp_path, patterns="123\n13ا2\n")
        with pytest.raises(FormatError) as err:
            load_resources(tmp_path)
        assert err.value.line == 2

    def test_bad_root_length_line_number(self, tmp_path):
        self._write(tmp_path, roots="كتب\nاب\n")
        with pytest.raises(FormatError) as err:
            load_resources(tmp_path)
        assert err.value.line == 2

    def test_bundled_resources_are_valid(self, bundled_resources):
        assert "" in bundled_resources.affixes.prefixes
        assert all(3 <= len(r) <= 5 for r in bundled_resources.roots)
        assert any(p.root_arity == 4 for p in bundled_resources.patterns)
        assert any(p.root_arity == 5 for p in bundled_resources.patterns)


class TestIndexedLookups:
    """The indexed fast paths agree with the plain definitions."""

    AFFIXES = make_toy_resources().affixes

    @given(st.text(alphabet=CORE_LETTERS, max_size=9))
    def test_segment_equals_all_affix_pairs(self, word):
        brute = sorted(
            (
                Segmentation(p, word[len(p): len(word) - len(s)], s)
                for p in self.AFFIXES.prefixes
                for s in self.AFFIXES.suffixes
                if word.startswith(p) and word.endswith(s) and len(word) - len(p) - len(s) >= 2
            ),
            key=lambda seg: (-len(seg.infix), seg.prefix, seg.suffix),
        )
        assert segment(word, self.AFFIXES) == brute

    @given(st.sampled_from(["123", "1ا23", "12ا3", "ا12ا3", "1234", "12و33", "م1233"]),
           st.text(alphabet=CORE_LETTERS, min_size=3, max_size=6))
    def test_match_and_instantiate_equal_cell_loops(self, source, word):
        pattern = parse_pattern(source)
        letters = {}
        fits = len(word) == pattern.length
        for cell, ch in zip(pattern.cells, word):
            if isinstance(cell, str):
                fits = fits and cell == ch
            else:
                fits = fits and letters.setdefault(cell, ch) == ch
        want = "".join(letters[i] for i in range(1, pattern.root_arity + 1)) if fits else None
        assert pattern.match(word) == want
        root = word[: pattern.root_arity]
        if len(root) == pattern.root_arity:
            assert pattern.instantiate(root) == "".join(
                c if isinstance(c, str) else root[c - 1] for c in pattern.cells
            )

    def test_patterns_indexed_in_file_order(self):
        resources = make_toy_resources()
        for length in range(1, 7):
            assert resources.patterns_of_length(length) == tuple(
                p for p in resources.patterns if p.length == length
            )
        for arity in range(1, 6):
            assert resources.patterns_of_arity(arity) == tuple(
                p for p in resources.patterns if p.root_arity == arity
            )
