import math
import random
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from cbas import cooccurrence
from cbas.cooccurrence import (
    AssociationMeasure,
    ContextMatrix,
    Vocabulary,
    association,
    association_total,
    build_matrix,
    load_matrix,
    save_matrix,
)
from cbas.errors import FormatError

from .conftest import FIXTURE_COUNTS
from .oracles import oracle_association, oracle_save_matrix, window_pairs

words = st.sampled_from([f"w{i}" for i in range(8)])
documents = st.lists(st.lists(words, max_size=12), max_size=5)

VALID_FILE = "CBAS-MATRIX\tv1\twindow=2\ttotal=10\tvocab=2\n0\ta\n1\tb\n0\t1\t10\n"


def normalised(data: bytes) -> bytes:
    """``data`` with every line ending in ``\\n``, as ``save_matrix`` writes it."""
    data = data.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    return data if data.endswith(b"\n") else data + b"\n"


def assert_saves_back(path, data: bytes) -> None:
    """Load the file holding ``data``: it is refused with a FormatError, or it
    saves back to the same bytes once its line ends are normalised."""
    try:
        loaded = load_matrix(path)
    except FormatError:
        return
    save_matrix(loaded, path)
    assert path.read_bytes() == normalised(data)
    assert load_matrix(path) == loaded


class TestBuildMatrix:
    def test_two_word_window_adjacent_only(self):
        m = build_matrix([["a", "b", "c"]], 2)
        assert m.count("a", "b") == 1
        assert m.count("b", "a") == 1
        assert m.count("b", "c") == 1
        assert m.count("c", "b") == 1
        assert m.count("a", "c") == 0
        assert m.total == 4

    def test_single_token_document(self):
        m = build_matrix([["a"]], 3)
        assert m.counts == {}
        assert m.total == 0

    def test_rejects_window_below_two(self):
        with pytest.raises(ValueError):
            build_matrix([["a", "b"]], 1)

    def test_windows_do_not_cross_documents(self):
        m = build_matrix([["a", "b"], ["c", "d"]], 4)
        assert m.count("b", "c") == 0
        assert m.count("a", "d") == 0
        assert m.total == 4

    def test_repeated_word_accumulates(self):
        m = build_matrix([["a", "b", "a"]], 3)
        # pairs: (a,b) from both sides, (a,a) twice, (b,a) twice
        assert m.count("a", "b") == 2
        assert m.count("b", "a") == 2
        assert m.count("a", "a") == 2
        assert m.total == 6

    @given(documents, st.integers(min_value=2, max_value=4))
    def test_matches_pair_enumeration(self, docs, n):
        m = build_matrix(docs, n)
        pairs = window_pairs(docs, n)
        assert m.total == len(pairs)
        for (w, c) in set(pairs):
            assert m.count(w, c) == pairs.count((w, c))
        streamed = build_matrix(((w for w in d) for d in docs), n)
        assert streamed == m
        assert list(streamed.counts) == list(m.counts)

    @given(documents, st.integers(min_value=2, max_value=4))
    def test_symmetry_and_marginals(self, docs, n):
        m = build_matrix(docs, n)
        for (ti, ci), c in m.counts.items():
            assert m.counts[(ci, ti)] == c
        for idx in range(len(m.vocab)):
            assert m.target_marginals[idx] == sum(
                c for (t, _), c in m.counts.items() if t == idx
            )
            assert m.context_marginals[idx] == sum(
                c for (_, x), c in m.counts.items() if x == idx
            )
        assert m.total == sum(m.counts.values())

    @given(documents, documents, st.integers(min_value=2, max_value=3))
    def test_additive_over_document_sets(self, docs_a, docs_b, n):
        combined = build_matrix(docs_a + docs_b, n)
        part_a = build_matrix(docs_a, n)
        part_b = build_matrix(docs_b, n)
        for w in combined.vocab.words:
            for c in combined.vocab.words:
                assert combined.count(w, c) == part_a.count(w, c) + part_b.count(w, c)


class TestFixtureMatrix:
    def test_known_counts(self, count_matrix):
        assert count_matrix.count("نظم", "دول") == 5
        assert count_matrix.count("نظم", "جامعة") == 10
        assert count_matrix.count("نظم", "القاهرة") == 3
        assert count_matrix.count("نظم", "عجائب") == 0
        assert count_matrix.total == 66

    def test_marginals(self, count_matrix):
        assert count_matrix.target_marginal("نظم") == 18
        assert count_matrix.target_marginal("سائح") == 27
        assert count_matrix.target_marginal("حكم") == 21
        assert count_matrix.context_marginal("دول") == 22
        assert count_matrix.context_marginal("القاهرة") == 26


class TestAssociation:
    def test_two_event_matrix_spmi_alpha_one(self):
        m = build_matrix([["a", "b"]], 2)
        got = association(m, "a", "b", AssociationMeasure("spmi", 1.0))
        assert got == pytest.approx(1.0, abs=1e-12)

    def test_zero_count_ppmi_is_zero(self, count_matrix):
        assert association(count_matrix, "نظم", "عجائب", AssociationMeasure("ppmi")) == 0.0

    def test_zero_count_pmi_is_negative_infinity(self, count_matrix):
        got = association(count_matrix, "نظم", "عجائب", AssociationMeasure("pmi"))
        assert got == float("-inf")

    def test_out_of_vocabulary(self, count_matrix):
        assert association(count_matrix, "غائب", "دول", AssociationMeasure("spmi")) == 0.0
        assert association(count_matrix, "نظم", "غائب", AssociationMeasure("pmi")) == float("-inf")

    def test_spmi_alpha_one_equals_ppmi_on_fixture(self, count_matrix):
        spmi1 = AssociationMeasure("spmi", 1.0)
        ppmi = AssociationMeasure("ppmi")
        for w in count_matrix.vocab.words:
            for c in count_matrix.vocab.words:
                assert association(count_matrix, w, c, spmi1) == pytest.approx(
                    association(count_matrix, w, c, ppmi), abs=1e-12
                )
        # Each pair scores by index exactly as it does by word, and as the
        # measure's float expression written out.
        m = count_matrix
        every = range(len(m.vocab))
        measures = [AssociationMeasure("pmi"), ppmi, AssociationMeasure("spmi", 0.75), spmi1]
        for ti, w in enumerate(m.vocab.words):
            for measure in measures:
                row = [association_total(m, (ti,), (ci,), measure) for ci in every]
                assert row == [association(m, w, c, measure) for c in m.vocab.words]
                for ci, c in enumerate(m.vocab.words):
                    joint, tm, cm = m.count(w, c), m.target_marginals[ti], m.context_marginals[ci]
                    if joint == 0:
                        want = float("-inf") if measure.kind == "pmi" else 0.0
                    elif measure.kind == "spmi":
                        norm = m.context_alpha_norm(measure.alpha)
                        want = max(math.log2((joint * norm) / (tm * cm**measure.alpha)), 0.0)
                    else:
                        want = math.log2((joint * m.total) / (tm * cm))
                        want = max(want, 0.0) if measure.kind == "ppmi" else want
                    assert row[ci] == want
        assert float("-inf") in [association_total(m, (0,), (ci,), measures[0]) for ci in every]

    def test_empty_matrix_rejected(self):
        m = ContextMatrix(2, Vocabulary(["a"]), {})
        with pytest.raises(ValueError):
            association(m, "a", "a", AssociationMeasure("ppmi"))

    @pytest.mark.parametrize("pair", [(0, 5), (5, 0), (-1, 0), (0, -1), (1, 1)])
    def test_constructor_rejects_indices_outside_the_vocabulary(self, pair):
        with pytest.raises(ValueError, match="outside the vocabulary"):
            ContextMatrix(2, Vocabulary(["a"]), {pair: 1})

    def test_measure_validation(self):
        with pytest.raises(ValueError):
            AssociationMeasure("npmi")
        with pytest.raises(ValueError):
            AssociationMeasure("spmi", 0.0)
        with pytest.raises(ValueError):
            AssociationMeasure("spmi", 1.5)

    @given(documents, st.integers(min_value=2, max_value=4), st.sampled_from([0.75, 0.9, 1.0]))
    def test_matches_oracle(self, docs, n, alpha):
        m = build_matrix(docs, n)
        if m.total == 0:
            return
        vocab = sorted(m.vocab.words)
        for w in vocab:
            for c in vocab:
                for kind in ("pmi", "ppmi", "spmi"):
                    got = association(m, w, c, AssociationMeasure(kind, alpha))
                    want = oracle_association(docs, n, w, c, kind, alpha)
                    if math.isinf(want):
                        assert got == want
                    else:
                        assert got == pytest.approx(want, abs=1e-9)

    def test_smoothing_damps_rare_contexts(self, count_matrix):
        """Lowering alpha toward 0.75 never raises the score of a context
        whose marginal share is below the mean context share, and never
        lowers the score of one above it. Scores are cross-checked against
        a direct recomputation from the raw count table.
        """

        def direct_spmi(w, c, alpha):
            joint = FIXTURE_COUNTS.get((w, c), 0)
            if joint == 0:
                return 0.0
            total = sum(FIXTURE_COUNTS.values())
            tm = sum(n for (a, _), n in FIXTURE_COUNTS.items() if a == w)
            cms = {}
            for (_, b), n in FIXTURE_COUNTS.items():
                cms[b] = cms.get(b, 0) + n
            p_alpha = cms[c] ** alpha / sum(n**alpha for n in cms.values())
            return max(math.log2((joint / total) / ((tm / total) * p_alpha)), 0.0)

        contexts = [w for w in count_matrix.vocab.words if count_matrix.context_marginal(w)]
        mean_share = 1.0 / len(contexts)
        alphas = [1.0, 0.95, 0.9, 0.85, 0.8, 0.75]
        for w in count_matrix.vocab.words:
            for c in contexts:
                share = count_matrix.context_marginal(c) / count_matrix.total
                scores = []
                for a in alphas:
                    got = association(count_matrix, w, c, AssociationMeasure("spmi", a))
                    assert got == pytest.approx(direct_spmi(w, c, a), abs=1e-9)
                    scores.append(got)
                for earlier, later in zip(scores, scores[1:]):
                    if share < mean_share:
                        assert later <= earlier + 1e-12
                    elif share > mean_share:
                        assert later >= earlier - 1e-12


class TestPersistence:
    def test_round_trip_fixture(self, count_matrix, tmp_path):
        path = tmp_path / "m.tsv"
        save_matrix(count_matrix, path)
        loaded = load_matrix(path)
        assert loaded == count_matrix
        assert loaded.window_n == count_matrix.window_n
        assert loaded.vocab.words == count_matrix.vocab.words
        assert loaded.target_marginals == count_matrix.target_marginals
        assert loaded.context_marginals == count_matrix.context_marginals

    def test_round_trip_is_byte_identical(self, count_matrix, tmp_path):
        first = tmp_path / "a.tsv"
        second = tmp_path / "b.tsv"
        save_matrix(count_matrix, first)
        save_matrix(load_matrix(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_empty_body_with_zero_total(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("CBAS-MATRIX\tv1\twindow=2\ttotal=0\tvocab=0\n", encoding="utf-8")
        m = load_matrix(path)
        assert m.total == 0
        assert len(m.vocab) == 0

    def test_total_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "CBAS-MATRIX\tv1\twindow=2\ttotal=9\tvocab=2\n0\ta\n1\tb\n0\t1\t1\n1\t0\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_version_mismatch_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("CBAS-MATRIX\tv2\twindow=2\ttotal=0\tvocab=0\n", encoding="utf-8")
        with pytest.raises(FormatError):
            load_matrix(path)

    def test_malformed_count_line_rejected(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "CBAS-MATRIX\tv1\twindow=2\ttotal=1\tvocab=1\n0\ta\n0\t0\n", encoding="utf-8"
        )
        with pytest.raises(FormatError) as err:
            load_matrix(path)
        assert err.value.line == 3

    @pytest.mark.parametrize(
        "old, new, line",
        [
            ("window=2", "window=+2", 1),
            ("total=10", "total=1_0", 1),
            ("vocab=2", "vocab=٢", 1),
            ("total=10", "total=010", 1),
            ("total=10", "total= 10", 1),
            ("\n1\tb", "\n 1\tb", 3),
            ("\n1\tb", "\n01\tb", 3),
            ("\t1\t10", "\t1\t1_0", 4),
            ("\t1\t10", "\t1\t+10", 4),
            ("\t1\t10", "\t1\t010", 4),
            ("\t1\t10", "\t١\t10", 4),
            ("\n0\t1", "\n00\t1", 4),
        ],
    )
    def test_only_plain_integers_are_accepted(self, tmp_path, old, new, line):
        path = tmp_path / "m.tsv"
        path.write_text(VALID_FILE.replace(old, new, 1), encoding="utf-8")
        with pytest.raises(FormatError, match="plain integer") as err:
            load_matrix(path)
        assert err.value.line == line

    @pytest.mark.parametrize(
        "lines, message",
        [
            ("1\t0\t1\n0\t1\t1\n", "count lines must be in ascending (target, context) order"),
            ("0\t1\t1\n0\t0\t1\n", "count lines must be in ascending (target, context) order"),
            ("0\t1\t1\n0\t1\t1\n", "duplicate (target, context) pair"),
        ],
    )
    def test_count_lines_out_of_order_rejected(self, tmp_path, lines, message):
        path = tmp_path / "m.tsv"
        path.write_text("CBAS-MATRIX\tv1\twindow=2\ttotal=2\tvocab=2\n0\ta\n1\tb\n" + lines, encoding="utf-8")
        with pytest.raises(FormatError) as err:
            load_matrix(path)
        assert err.value.line == 5
        assert str(err.value) == f"{path}:5: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("119\t1\t0", "stored counts must be >= 1"),
            ("119\t1\t9223372036854775808", "stored counts must be <= 9223372036854775807"),
            ("119\t120\t1", "word index out of range"),
            ("119\t" + "9" * 5000 + "\t1", "word index out of range"),
            ("119\t1", "count line must be <target>\\t<context>\\t<count>"),
            # Lines that JSON or the shape check alone would let through.
            ("119\t1\t1.0", "count line fields must be plain integers"),
            ("119\t1\t1e3", "count line fields must be plain integers"),
            ("119\t-1\t1", "count line fields must be plain integers"),
            ("119\t\t1", "count line fields must be plain integers"),
            ("119\t1\t1\t", "count line must be <target>\\t<context>\\t<count>"),
            ("\n119\t1\t1", "count line must be <target>\\t<context>\\t<count>"),
            ("119\t1\x85\t1", "count line fields must be plain integers"),
        ],
        ids=["zero", "too-large-count", "index-at-vocab-size", "5000-digit-index", "two-fields",
             "decimal", "exponent", "negative", "empty-field", "three-tabs", "blank-line", "nel"],
    )
    def test_bad_count_line_after_good_blocks_is_named(self, tmp_path, line, message):
        # The good lines fill more than one block, so the bad line is met by a
        # later read, after earlier blocks were converted.
        vocab = 120
        words = "".join(f"{i}\tw{i}\n" for i in range(vocab))
        good = [f"{t}\t{c}\t1\n" for t in range(vocab - 1) for c in range(vocab)]
        assert sum(map(len, good)) > 64 * 1024
        path = tmp_path / "m.tsv"
        path.write_text(
            f"CBAS-MATRIX\tv1\twindow=2\ttotal={len(good) + 1}\tvocab={vocab}\n{words}"
            + "".join(good) + line + "\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:{2 + vocab + len(good)}: {message}"

    def test_pairs_out_of_order_across_a_block_boundary_are_named(self, tmp_path):
        # Blocks are read with readlines(64k): the first one ends with the
        # first line that takes its length past 64k characters.
        vocab = 120
        words = "".join(f"{i}\tw{i}\n" for i in range(vocab))
        good = [f"{t}\t{c}\t1\n" for t in range(vocab - 1) for c in range(vocab)]
        length, end = 0, 0
        while length <= 64 * 1024:
            length += len(good[end])
            end += 1
        path = tmp_path / "m.tsv"
        for at in range(end - 2, end + 3):
            for lines, message in (
                (good[:at] + [good[at - 1]] + good[at + 1:], "duplicate (target, context) pair"),
                (good[:at - 1] + [good[at], good[at - 1]] + good[at + 1:],
                 "count lines must be in ascending (target, context) order"),
            ):
                path.write_text(
                    f"CBAS-MATRIX\tv1\twindow=2\ttotal={len(lines)}\tvocab={vocab}\n{words}" + "".join(lines),
                    encoding="utf-8",
                )
                with pytest.raises(FormatError) as err:
                    load_matrix(path)
                assert str(err.value) == f"{path}:{2 + vocab + at}: {message}"

    @pytest.mark.parametrize(
        "line, message",
        [
            ("3000\tw17", "empty or duplicate vocabulary word 'w17'"),
            ("3000\t", "empty or duplicate vocabulary word ''"),
            ("3000 w3000", "vocabulary line must be <index>\\t<word>"),
            ("3000\tw3000\tx", "vocabulary line must be <index>\\t<word>"),
            ("3001\tw3000", "vocabulary index out of order (expected 3000)"),
            ("03000\tw3000", "vocabulary index is not a plain integer"),
        ],
        ids=["duplicate", "empty", "no-tab", "two-tabs", "skipped-index", "leading-zero"],
    )
    def test_bad_vocabulary_line_after_3000_good_ones(self, tmp_path, line, message):
        vocab = 3010
        words = [f"{i}\tw{i}" for i in range(vocab)]
        words[3000] = line
        path = tmp_path / "m.tsv"
        path.write_text(
            f"CBAS-MATRIX\tv1\twindow=2\ttotal=1\tvocab={vocab}\n" + "".join(w + "\n" for w in words) + "0\t1\t1\n",
            encoding="utf-8",
        )
        with pytest.raises(FormatError) as err:
            load_matrix(path)
        assert str(err.value) == f"{path}:3002: {message}"

    @given(documents, st.integers(min_value=2, max_value=4), st.sampled_from(["\n", "\r\n", "\r"]), st.booleans())
    def test_a_valid_file_is_never_read_line_by_line(self, tmp_path, docs, n, end, last_end):
        m = build_matrix(docs, n)
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        text = path.read_text(encoding="utf-8").replace("\n", end)
        path.write_bytes((text if last_end else text.removesuffix(end)).encode("utf-8"))
        refuse = mock.Mock(side_effect=AssertionError("count lines read one by one"))
        with mock.patch.object(cooccurrence, "_raise_at_first_bad_count_line", refuse):
            assert load_matrix(path) == m

    def test_loading_holds_no_copy_that_grows_with_the_pairs(self, tmp_path):
        # Beyond what the loaded matrix holds, the reader keeps one block of
        # lines at a time (about 1.4 MB here), and nothing per pair.
        rng = random.Random(0)
        docs = [[f"w{rng.randrange(3000)}" for _ in range(1000)] for _ in range(40)]
        path = tmp_path / "m.tsv"
        save_matrix(build_matrix(docs, 3), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            matrix = load_matrix(path)
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(matrix.counts) >= 150_000
        assert (peak - held) / len(matrix.counts) <= 12

    def test_vocabulary_order_preserved(self, tmp_path):
        m = build_matrix([["ب", "ا"]], 2)
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        assert load_matrix(path).vocab.words == ["ب", "ا"]

    def test_loaded_matrix_is_compact(self, tmp_path):
        rng = random.Random(0)
        docs = [[f"w{rng.randrange(3000)}" for _ in range(1000)] for _ in range(14)]
        path = tmp_path / "m.tsv"
        save_matrix(build_matrix(docs, 3), path)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            matrix = load_matrix(path)
            held = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert len(matrix.counts) >= 50_000
        assert held / len(matrix.counts) <= 32

    @given(documents, st.integers(min_value=2, max_value=4))
    # Lines end only at \n, \r\n and \r, so these separators stay inside a word.
    @example(docs=[["w0", "a\x85b", "w1", "c\u2028d"]], n=2)
    def test_round_trip_any_built_matrix(self, tmp_path, docs, n):
        m = build_matrix(docs, n)
        path = tmp_path / "m.tsv"
        save_matrix(m, path)
        assert load_matrix(path) == m

    @given(documents, st.integers(min_value=2, max_value=6))
    @example(docs=[["w0", "a\x85b", "w1", "c\u2028d"], ["alone"], []], n=3)
    def test_writes_the_per_line_reference_bytes(self, tmp_path, docs, n):
        m = build_matrix(docs, n)
        save_matrix(m, tmp_path / "m.tsv")
        oracle_save_matrix(m, tmp_path / "reference.tsv")
        assert (tmp_path / "m.tsv").read_bytes() == (tmp_path / "reference.tsv").read_bytes()

    @pytest.mark.parametrize("word", ["a\tb", "a\nb", "a\rb", ""], ids=["tab", "newline", "return", "empty"])
    def test_word_that_cannot_be_read_back_is_refused_before_writing(self, tmp_path, word):
        m = ContextMatrix(2, Vocabulary(["x", word]), {(0, 1): 1, (1, 0): 1})
        path = tmp_path / "m.tsv"
        with pytest.raises(ValueError, match="vocabulary word 1"):
            save_matrix(m, path)
        assert not path.exists()

    def test_loaded_asymmetric_matrix_sums_its_context_marginals(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text(
            "CBAS-MATRIX\tv1\twindow=2\ttotal=10\tvocab=3\n0\ta\n1\tb\n2\tc\n"
            "0\t1\t3\n0\t2\t4\n2\t0\t1\n2\t2\t2\n",
            encoding="utf-8",
        )
        m = load_matrix(path)
        assert m.target_marginals == [7, 0, 3]
        assert m.context_marginals == [1, 3, 6]
        assert m.total == 10

    @given(st.one_of(st.binary(), st.text().map(str.encode)))
    @example(data=VALID_FILE.encode())
    @example(data=VALID_FILE.replace("\n", "\r\n").encode())
    @example(data=VALID_FILE[:-1].encode())
    def test_any_bytes_load_or_raise_format_error(self, tmp_path, data):
        path = tmp_path / "m.tsv"
        path.write_bytes(data)
        assert_saves_back(path, data)

    @given(st.data())
    def test_damaged_file_loads_or_raises_format_error(self, tmp_path, data):
        path = tmp_path / "m.tsv"
        save_matrix(build_matrix([["ب", "ا", "ت", "ب"], ["ت", "ا"]], 3), path)
        saved = path.read_bytes()
        offset = data.draw(st.integers(min_value=0, max_value=len(saved) - 1))
        damage = data.draw(st.sampled_from(["truncate", "replace", "insert"]))
        if damage == "truncate":
            damaged = saved[:offset]
        elif damage == "replace":
            damaged = saved[:offset] + bytes([data.draw(st.integers(0, 255))]) + saved[offset + 1:]
        else:  # spellings int() accepts but save_matrix never writes
            extra = data.draw(st.sampled_from(["0", "+", "_", " ", "٢", "\r"])).encode()
            damaged = saved[:offset] + extra + saved[offset:]
        path.write_bytes(damaged)
        assert_saves_back(path, damaged)
