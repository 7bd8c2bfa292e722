import json

import pytest

from cbas.cli import main
from cbas.cooccurrence import build_matrix, load_matrix, save_matrix

from .conftest import DATA_DIR

TOY_FILES = {
    "prefixes.txt": "و\nف\nب\nال\nوال\nبال\nل\n",
    "suffixes.txt": "ة\nون\nين\nها\nي\nا\n",
    "patterns.txt": "123\n1ا23\n12ا3\n12و3\n12ي3\nم123\nي123\nا12ا3\n1234\n",
    "roots.txt": "قول\nقيل\nكتب\nدرس\nسرح\nدور\nدير\nصغر\nرجل\nحقق\n",
    "stopwords.txt": "ان\nفي\nمن\n",
}

DOCS = {
    "a.txt": "الرجل يقول الحق\n",
    "b.txt": "الرجل يقول الصدق\n",
    "c.txt": "سمع الناس الحق\n",
}


@pytest.fixture
def workspace(tmp_path):
    resources = tmp_path / "resources"
    resources.mkdir()
    for name, content in TOY_FILES.items():
        (resources / name).write_text(content, encoding="utf-8")
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for name, content in DOCS.items():
        (corpus / name).write_text(content, encoding="utf-8")
    matrix = tmp_path / "matrix.tsv"
    code = main(
        [
            "build-matrix",
            "--corpus", str(corpus),
            "--window", "3",
            "--stopwords", str(resources / "stopwords.txt"),
            "--out", str(matrix),
        ]
    )
    assert code == 0
    return tmp_path


def stem_args(ws, *extra):
    return [
        "stem",
        "--matrix", str(ws / "matrix.tsv"),
        "--resources", str(ws / "resources"),
        "--stopwords", str(ws / "resources" / "stopwords.txt"),
        *extra,
    ]


def eval_args(ws, gold, *extra):
    return [
        "evaluate",
        "--gold", str(gold),
        "--matrix", str(ws / "matrix.tsv"),
        "--resources", str(ws / "resources"),
        "--stopwords", str(ws / "resources" / "stopwords.txt"),
        *extra,
    ]


class TestBuildMatrix:
    def test_reports_counts(self, workspace, tmp_path, capsys):
        out_path = tmp_path / "fresh.tsv"
        code = main(
            [
                "build-matrix",
                "--corpus", str(workspace / "corpus"),
                "--window", "3",
                "--stopwords", str(workspace / "resources" / "stopwords.txt"),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "documents\t3" in out
        # 3 docs x 3 tokens, window 3: each doc contributes 6 directed pairs
        assert "total\t18" in out
        matrix = load_matrix(out_path)
        assert matrix.total == 18
        assert matrix.window_n == 3

    def test_window_one_is_usage_error(self, workspace, tmp_path, capsys):
        code = main(
            [
                "build-matrix",
                "--corpus", str(workspace / "corpus"),
                "--window", "1",
                "--out", str(tmp_path / "m.tsv"),
            ]
        )
        assert code == 1
        assert not (tmp_path / "m.tsv").exists()

    def test_empty_corpus_fails(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(["build-matrix", "--corpus", str(empty), "--out", str(tmp_path / "m.tsv")])
        assert code == 2

    def test_missing_corpus_fails(self, tmp_path, capsys):
        code = main(
            ["build-matrix", "--corpus", str(tmp_path / "nope"), "--out", str(tmp_path / "m.tsv")]
        )
        assert code == 2

    def test_line_per_document_format(self, workspace, tmp_path, capsys):
        lines_file = tmp_path / "docs.txt"
        lines_file.write_text("الرجل يقول الحق\nسمع الناس الحق\n", encoding="utf-8")
        out_path = tmp_path / "m.tsv"
        code = main(
            [
                "build-matrix",
                "--corpus", str(lines_file),
                "--corpus-format", "lines",
                "--stopwords", str(workspace / "resources" / "stopwords.txt"),
                "--out", str(out_path),
            ]
        )
        assert code == 0
        assert "documents\t2" in capsys.readouterr().out


class TestStem:
    def test_records_per_token(self, workspace, capsys):
        code = main(stem_args(workspace, "--text", "وقال د ."))
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert [r["input"] for r in records] == ["وقال", "د", "."]
        assert records[0]["root"] == "قول"
        assert records[0]["skipped"] is None
        assert {c["root"] for c in records[0]["candidates"]} == {"قول", "قيل"}
        assert records[1]["root"] is None
        assert records[1]["skipped"] == "no-candidates"
        assert records[2]["skipped"] == "punctuation"

    def test_empty_input(self, workspace, capsys):
        code = main(stem_args(workspace, "--text", ""))
        assert code == 0
        assert capsys.readouterr().out == ""

    def test_file_input(self, workspace, tmp_path, capsys):
        source = tmp_path / "in.txt"
        source.write_text("الرجل يقول الحق", encoding="utf-8")
        code = main(stem_args(workspace, "--file", str(source)))
        assert code == 0
        records = [json.loads(line) for line in capsys.readouterr().out.splitlines()]
        assert len(records) == 3

    def test_ppmi_equals_spmi_alpha_one(self, workspace, capsys):
        text = "الرجل يقول الحق وقال الرجل درس الصغير"
        assert main(stem_args(workspace, "--text", text, "--measure", "ppmi")) == 0
        out_ppmi = capsys.readouterr().out
        assert main(stem_args(workspace, "--text", text, "--measure", "spmi", "--alpha", "1.0")) == 0
        out_spmi = capsys.readouterr().out
        roots_a = [json.loads(l)["root"] for l in out_ppmi.splitlines()]
        roots_b = [json.loads(l)["root"] for l in out_spmi.splitlines()]
        assert roots_a == roots_b

    def test_missing_matrix_file_fails(self, workspace, tmp_path, capsys):
        args = stem_args(workspace, "--text", "وقال")
        args[args.index("--matrix") + 1] = str(tmp_path / "missing.tsv")
        assert main(args) == 2

    def test_matrix_required(self, workspace, capsys):
        code = main(
            [
                "stem",
                "--resources", str(workspace / "resources"),
                "--text", "وقال",
            ]
        )
        assert code == 1

    def test_bad_alpha_is_usage_error(self, workspace, capsys):
        assert main(stem_args(workspace, "--text", "وقال", "--alpha", "1.5")) == 1

    def test_text_that_is_not_utf8_is_usage_error(self, workspace, capsys):
        # Python decodes argv bytes that are not UTF-8 to lone surrogates.
        assert main(stem_args(workspace, "--text", "قال \udcff")) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "cbas: error: --text is not valid UTF-8" in captured.err
        assert "Traceback" not in captured.err

    def test_text_and_file_are_exclusive(self, workspace, capsys):
        with pytest.raises(SystemExit) as err:
            main(stem_args(workspace, "--text", "a", "--file", "b"))
        assert err.value.code == 1


class TestEvaluate:
    def test_perfect_toy_gold(self, workspace, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("وقال\tقول\nد\t\nالدرس\tدرس\n", encoding="utf-8")
        code = main(eval_args(workspace, gold))
        assert code == 0
        out = capsys.readouterr().out
        metrics = {}
        for line in out.splitlines():
            if line.startswith("METRIC\t"):
                _, name, value = line.split("\t")
                metrics[name] = value
        assert metrics["stemming_accuracy"] == "1.0"
        assert metrics["candidate_coverage"] == "1.0"
        for name in (
            "classification_accuracy",
            "classification_precision",
            "classification_recall",
            "classification_f1",
            "clustering_accuracy",
            "clustering_precision",
            "clustering_recall",
            "clustering_f1",
        ):
            assert metrics[name] == "1.0"
        assert metrics["n"] == "2"
        assert "COVERAGE\tوقال\tقول\tyes" in out

    def test_malformed_gold_names_line(self, workspace, tmp_path, capsys):
        gold = tmp_path / "gold.tsv"
        gold.write_text("وقال\tقول\nالدرس درس\n", encoding="utf-8")
        code = main(eval_args(workspace, gold))
        assert code == 2
        assert ":2:" in capsys.readouterr().err

    def test_gold_required(self, workspace, capsys):
        with pytest.raises(SystemExit) as err:
            main(["evaluate", "--matrix", str(workspace / "matrix.tsv")])
        assert err.value.code == 1


class TestConfigAndEnvironment:
    def test_config_file_sets_window(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("window=4\n", encoding="utf-8")
        out_path = tmp_path / "m4.tsv"
        code = main(
            [
                "build-matrix",
                "--corpus", str(workspace / "corpus"),
                "--stopwords", str(workspace / "resources" / "stopwords.txt"),
                "--out", str(out_path),
                "--config", str(config),
            ]
        )
        assert code == 0
        assert load_matrix(out_path).window_n == 4

    def test_flag_overrides_config(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("window=4\n", encoding="utf-8")
        out_path = tmp_path / "m2.tsv"
        code = main(
            [
                "build-matrix",
                "--corpus", str(workspace / "corpus"),
                "--stopwords", str(workspace / "resources" / "stopwords.txt"),
                "--out", str(out_path),
                "--config", str(config),
                "--window", "2",
            ]
        )
        assert code == 0
        assert load_matrix(out_path).window_n == 2

    def test_unknown_config_key_fails(self, workspace, tmp_path, capsys):
        config = tmp_path / "run.conf"
        config.write_text("windowsize=4\n", encoding="utf-8")
        code = main(
            [
                "build-matrix",
                "--corpus", str(workspace / "corpus"),
                "--out", str(tmp_path / "m.tsv"),
                "--config", str(config),
            ]
        )
        assert code == 2

    def test_resources_env_fallback(self, workspace, tmp_path, capsys, monkeypatch):
        broken = tmp_path / "broken"
        broken.mkdir()
        monkeypatch.setenv("CBAS_RESOURCES", str(broken))
        code = main(
            [
                "stem",
                "--matrix", str(workspace / "matrix.tsv"),
                "--stopwords", str(workspace / "resources" / "stopwords.txt"),
                "--text", "وقال",
            ]
        )
        assert code == 2  # the env-supplied directory is missing its files

    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as err:
            main(["--help"])
        assert err.value.code == 0

    def test_help_lists_every_default(self, capsys):
        with pytest.raises(SystemExit):
            main(["stem", "--help"])
        out = capsys.readouterr().out
        for fragment in ("default spmi", "default 0.75", "default previous", "default 1"):
            assert fragment in out
        with pytest.raises(SystemExit):
            main(["build-matrix", "--help"])
        assert "default 3" in capsys.readouterr().out


class TestDeterminism:
    def test_matrix_files_byte_identical(self, workspace, tmp_path, capsys):
        first = tmp_path / "m1.tsv"
        second = tmp_path / "m2.tsv"
        for out_path, jobs in ((first, "1"), (second, "4")):
            code = main(
                [
                    "build-matrix",
                    "--corpus", str(workspace / "corpus"),
                    "--stopwords", str(workspace / "resources" / "stopwords.txt"),
                    "--out", str(out_path),
                    "--jobs", jobs,
                ]
            )
            assert code == 0
        assert first.read_bytes() == second.read_bytes()

    def test_stem_output_stable_across_jobs(self, workspace, capsys):
        text = "الرجل يقول الحق وقال الرجل درس الصغير"
        assert main(stem_args(workspace, "--text", text, "--jobs", "1")) == 0
        first = capsys.readouterr().out
        assert main(stem_args(workspace, "--text", text, "--jobs", "4")) == 0
        assert capsys.readouterr().out == first

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_is_usage_error(self, workspace, capsys, jobs):
        with pytest.raises(SystemExit) as err:
            main(stem_args(workspace, "--text", "وقال", "--jobs", jobs))
        assert err.value.code == 1
        assert "--jobs" in capsys.readouterr().err


def _strict_scores(out):
    """Every candidate score in ``stem`` output, parsed by a JSON parser
    that rejects the non-finite constants."""

    def reject(constant):
        raise ValueError(f"non-finite JSON constant {constant}")

    records = [json.loads(line, parse_constant=reject) for line in out.splitlines()]
    return [cand["score"] for record in records for cand in record["candidates"]]


class TestStrictJson:
    def test_pmi_minus_infinity_is_written_as_null(self, tmp_path, capsys):
        # An in-vocabulary derivation that never co-occurs with the
        # context scores -inf under pmi, which JSON cannot express.
        matrix = tmp_path / "m.tsv"
        assert main(["build-matrix", "--corpus", str(DATA_DIR / "sample_corpus"), "--out", str(matrix)]) == 0
        capsys.readouterr()
        assert main(["stem", "--matrix", str(matrix), "--text", "وقال مدرب الفريق", "--measure", "pmi"]) == 0
        scores = _strict_scores(capsys.readouterr().out)
        assert None in scores
        assert all(s is None or isinstance(s, float) for s in scores)

    def test_empty_matrix_scores_as_pairs_that_never_co_occur(self, tmp_path, capsys):
        # One-word documents give a vocabulary but no pair: total 0.
        corpus = tmp_path / "corpus"
        corpus.mkdir()
        (corpus / "a.txt").write_text("قال\n", encoding="utf-8")
        (corpus / "b.txt").write_text("كتب\n", encoding="utf-8")
        matrix = tmp_path / "m.tsv"
        assert main(["build-matrix", "--corpus", str(corpus), "--out", str(matrix)]) == 0
        assert "total\t0\n" in capsys.readouterr().out
        scoring = ["--matrix", str(matrix), "--context", "window"]
        for measure in ("pmi", "ppmi", "spmi"):
            assert main(["stem", *scoring, "--text", "قال كتب", "--measure", measure]) == 0
            scores = _strict_scores(capsys.readouterr().out)
            if measure == "pmi":
                assert None in scores
                assert set(scores) <= {None, 0.0}
            else:
                assert scores and set(scores) == {0.0}
        gold = tmp_path / "gold.tsv"
        gold.write_text("قال\tقول\nكتب\tكتب\n", encoding="utf-8")
        assert main(["evaluate", *scoring, "--gold", str(gold), "--measure", "pmi"]) == 0
        assert "METRIC\tn\t2\n" in capsys.readouterr().out


@pytest.mark.parametrize(
    "text, line, message",
    [
        # int() reads each of these integers; save_matrix writes none of them.
        ("CBAS-MATRIX\tv1\twindow=+2\ttotal=1_0\tvocab=٢\n0\ta\n 1\tb\n0\t1\t1_0\n", 1,
         "header field window is not a plain integer"),
        ("CBAS-MATRIX\tv1\twindow=2\ttotal=2\tvocab=2\n0\ta\n1\tb\n1\t0\t1\n0\t1\t1\n", 5,
         "count lines must be in ascending (target, context) order"),
    ],
    ids=["lenient-integers", "out-of-order"],
)
def test_matrix_that_would_not_save_back_is_format_error(workspace, capsys, text, line, message):
    matrix = workspace / "matrix.tsv"
    matrix.write_text(text, encoding="utf-8")
    capsys.readouterr()
    assert main(stem_args(workspace, "--text", "وقال")) == 2
    err = capsys.readouterr().err
    assert f"{matrix}:{line}: {message}" in err
    assert "Traceback" not in err


BAD_UTF8 = "سطر سليم\n".encode("utf-8") + b"\xff\xfe \xd8\n"


def _bad_reader_case(ws, reader):
    """The file ``reader`` is made to read, and the argv that makes it read that file."""
    res = ws / "resources"
    if reader == "corpus-dir":
        bad = ws / "corpus" / "z.txt"
        return bad, ["build-matrix", "--corpus", str(ws / "corpus"), "--stopwords", str(res / "stopwords.txt"),
                     "--out", str(ws / "x.tsv")]
    if reader == "corpus-lines":
        bad = ws / "lines.txt"
        return bad, ["build-matrix", "--corpus", str(bad), "--corpus-format", "lines", "--out", str(ws / "x.tsv")]
    if reader == "stopwords":
        bad = ws / "stop.txt"
        return bad, ["build-matrix", "--corpus", str(ws / "corpus"), "--stopwords", str(bad), "--out", str(ws / "x.tsv")]
    if reader == "resources":
        bad = res / "roots.txt"
        return bad, stem_args(ws, "--text", "وقال")
    if reader == "gold":
        bad = ws / "gold.tsv"
        return bad, eval_args(ws, bad)
    if reader == "matrix":
        bad = ws / "matrix.tsv"
        return bad, stem_args(ws, "--text", "وقال")
    if reader == "config":
        bad = ws / "cbas.conf"
        return bad, stem_args(ws, "--text", "الرجل يقول الحق", "--config", str(bad))
    if reader == "stem-file":
        bad = ws / "article.txt"
        return bad, stem_args(ws, "--file", str(bad))
    raise AssertionError(reader)


@pytest.mark.parametrize(
    "reader",
    ["corpus-dir", "corpus-lines", "stopwords", "resources", "gold", "matrix", "config", "stem-file"],
)
def test_invalid_utf8_is_format_error_with_path_and_line(workspace, capsys, reader):
    bad, argv = _bad_reader_case(workspace, reader)
    capsys.readouterr()
    bad.write_bytes(BAD_UTF8)
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert f"{bad}:2: not valid UTF-8" in err
    assert "Traceback" not in err


# Text that each text reader reads, written so that its first line changes
# the output: a BOM read as part of that line would show.
FIRST_LINE_MATTERS = {
    "corpus-dir": "قال المدرب\n",
    "corpus-lines": "قال المدرب\nكتب الرجل الدرس\n",
    "stopwords": "الرجل\nفي\n",
    "resources": TOY_FILES["roots.txt"],
    "gold": "الرجل\tرجل\nيقول\tقول\n",
    "config": "measure=pmi\ncontext=window\n",
    "stem-file": "الرجل يقول الحق\n",
}


@pytest.mark.parametrize("reader", sorted(FIRST_LINE_MATTERS))
def test_text_inputs_drop_a_leading_bom(workspace, capsys, reader):
    path, argv = _bad_reader_case(workspace, reader)
    text = FIRST_LINE_MATTERS[reader]
    out_file = workspace / "x.tsv"

    def run(data):
        path.write_bytes(data)
        out_file.unlink(missing_ok=True)
        capsys.readouterr()
        code = main(argv)
        return code, capsys.readouterr().out, out_file.read_bytes() if out_file.exists() else None

    plain = run(text.encode("utf-8"))
    assert plain[0] == 0
    assert run(b"\xef\xbb\xbf" + text.encode("utf-8")) == plain
    assert run(text.split("\n", 1)[1].encode("utf-8")) != plain


def test_matrix_with_a_bom_is_format_error(workspace, capsys):
    matrix = workspace / "matrix.tsv"
    matrix.write_bytes(b"\xef\xbb\xbf" + matrix.read_bytes())
    capsys.readouterr()
    assert main(stem_args(workspace, "--text", "وقال")) == 2
    err = capsys.readouterr().err
    assert f"{matrix}:1: not a context-matrix file" in err
    assert "Traceback" not in err


def test_invalid_utf8_deep_in_a_matrix_names_its_line(workspace, capsys):
    # The bad byte lies past the first 64 KiB, so it is met by a later read
    # of the open file, well after the header and vocabulary are parsed.
    matrix = workspace / "matrix.tsv"
    save_matrix(build_matrix([[f"w{i}" for i in range(5000)]], 2), matrix)
    data = matrix.read_bytes()
    pos = len(data) - 2  # the last digit of the last count line
    assert pos > 64 * 1024
    matrix.write_bytes(data[:pos] + b"\xff" + data[pos + 1:])
    line = data[:pos].count(b"\n") + 1
    capsys.readouterr()
    assert main(stem_args(workspace, "--text", "وقال")) == 2
    err = capsys.readouterr().err
    assert f"{matrix}:{line}: not valid UTF-8" in err
    assert "Traceback" not in err
