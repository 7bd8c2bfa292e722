"""Tests of the benchmark itself; none of them gates on a timing.

Run from the root of the repository:  python3 -m pytest bench -q
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "bench"), str(ROOT / "src")]

import cbas  # noqa: E402
import checks  # noqa: E402
import gen  # noqa: E402
import worker  # noqa: E402
from cbas import cli  # noqa: E402

WORKLOADS = ["build-zipf", "stem-zipf", "eval-tail"]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_benchmark_json_has_its_fixed_form():
    assert list(SPEC) == ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    assert SPEC["command"] == ["python3", "bench/run.py"]
    assert SPEC["paths"] == ["bench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert [w["name"] for w in SPEC["workloads"]] == WORKLOADS
    assert all(set(w) == {"name", "why"} and "\n" not in w["why"] for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in SPEC["end_to_end"]
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_workload_runs_at_tiny_size(workload, trace):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7", "--seconds", "0.2",
         "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert list(result) == ["correct", "attempted", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    chosen = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in chosen} == {k: v["unit"] for k, v in result["metrics"].items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_run_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in (ROOT / "bench").glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text(encoding="utf-8"), encoding="utf-8")
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "eval-tail", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# -- each output check rejects a corrupted output ---------------------------------

RES = gen.load_resources(ROOT / gen.RESOURCE_DIR)
LEXICON = gen.make_lexicon(3, RES)
STOPWORDS = cbas.load_stopwords(cbas.bundled_resource_dir() / "stopwords.txt")


def rejects(check, *args) -> bool:
    try:
        check(*args)
    except checks.CheckFailed:
        return True
    return False


@pytest.fixture(scope="module")
def built(tmp_path_factory):
    docs = gen.zipf_documents(3, "corpus", RES, LEXICON, 30, 60)
    path = tmp_path_factory.mktemp("m") / "m.mtx"
    cbas.save_matrix(cbas.build_matrix(cbas.iter_token_streams(
        [cbas.RawDocument(str(i), gen.text_of(d)) for i, d in enumerate(docs)], STOPWORDS), 5), path)
    return docs, path


def edit_line(path: Path, out: Path, index: int, new: str | None) -> Path:
    lines = path.read_text(encoding="utf-8").splitlines()
    if new is None:
        del lines[index]
    else:
        lines[index] = new
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def test_matrix_checks_reject_corrupted_matrices(built, tmp_path):
    docs, path = built
    streams = [gen.words_of(d) for d in docs]
    checks.check_matrix(checks.MatrixFile(path), streams, 5, random.Random(0), samples=10**6)
    lines = path.read_text(encoding="utf-8").splitlines()
    t, c, n = lines[-1].split("\t")
    corrupted = [
        edit_line(path, tmp_path / "count.mtx", -1, f"{t}\t{c}\t{int(n) + 1}"),  # one count off
        edit_line(path, tmp_path / "gone.mtx", -1, None),  # one pair dropped
        edit_line(path, tmp_path / "total.mtx", 0, lines[0].replace("total=", "total=1")),
        moved_counts(lines, tmp_path / "moved.mtx"),
    ]
    for bad in corrupted:
        assert rejects(checks.check_matrix, checks.MatrixFile(bad), streams, 5, random.Random(0), 10**6), bad.name


def moved_counts(lines: list[str], out: Path) -> Path:
    """One count moved to another pair, both symmetrically: totals and symmetry
    still hold, so only the recount can tell."""
    cells = {}
    for i, line in enumerate(lines):
        fields = line.split("\t")
        if len(fields) == 3:
            cells[(fields[0], fields[1])] = i
    pairs = [(a, b) for (a, b), i in cells.items() if a < b and int(lines[i].split("\t")[2]) >= 2]
    donor, taker = pairs[0], next(p for p in cells if p[0] < p[1] and p != pairs[0])
    lines = list(lines)
    for pair, delta in ((donor, -1), (donor[::-1], -1), (taker, 1), (taker[::-1], 1)):
        a, b, n = lines[cells[pair]].split("\t")
        lines[cells[pair]] = f"{a}\t{b}\t{int(n) + delta}"
    out.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return out


def test_round_trip_check_rejects_a_file_that_does_not_save_back(built, tmp_path):
    _, path = built
    checks.check_round_trip(cbas, path, tmp_path / "again.mtx")
    lines = path.read_text(encoding="utf-8").splitlines()
    bad = tmp_path / "bad.mtx"
    bad.write_bytes(("\r\n".join(lines) + "\r\n").encode("utf-8"))  # loads, but saves with \n line ends
    assert rejects(checks.check_round_trip, cbas, bad, tmp_path / "again.mtx")


def stem_records(matrix_path, tokens, tmp_path):
    resources = cbas.load_resources(cbas.bundled_resource_dir())
    stemmer = cbas.Stemmer(resources, STOPWORDS, cbas.load_matrix(matrix_path),
                           cbas.AssociationMeasure("spmi", 0.75), "window")
    dump = tmp_path / "stem.jsonl"
    worker.dump_stem(stemmer.stem_text(gen.text_of(tokens)), dump)
    return [json.loads(line) for line in dump.read_text(encoding="utf-8").splitlines()]


def test_stem_checks_reject_corrupted_results(built, tmp_path):
    _, path = built
    tokens = gen.zipf_documents(3, "text", RES, LEXICON, 1, 300)[0]
    records = stem_records(path, tokens, tmp_path)
    m = checks.MatrixFile(path)
    checks.check_stem(records, tokens, LEXICON, RES, m, random.Random(0), samples=300)

    word = next(i for i, (_, kind) in enumerate(tokens) if kind == "word")
    filler = next(i for i, (_, kind) in enumerate(tokens) if kind != "word")
    ambiguous = next(i for i, r in enumerate(records) if len(r[4]) > 1)
    scored = next(i for i, r in enumerate(records) if r[4] and any(row[2] > 0 for row in r[4]))

    def corrupt(i, edit):
        bad = json.loads(json.dumps(records))
        edit(bad[i])
        return bad

    def other_root(r):
        r[2] = next(row[0] for row in r[4] if row[0] != r[2])

    def bump_score(r):
        row = next(row for row in r[4] if row[2] > 0)
        row[2] *= 1.001

    corrupted = {
        "not in the dictionary": corrupt(word, lambda r: r.__setitem__(2, "ققق")),
        "loses its own table": corrupt(ambiguous, other_root),
        "word skipped": corrupt(word, lambda r: r.__setitem__(3, "no-candidates")),
        "filler kept": corrupt(filler, lambda r: r.__setitem__(3, None)),
        "source root dropped": corrupt(word, lambda r: r.__setitem__(4, [row for row in r[4] if row[0] != LEXICON.root_of[r[0]]])),
        "score off": corrupt(scored, bump_score),
    }
    for name, bad in corrupted.items():
        assert rejects(checks.check_stem, bad, tokens, LEXICON, RES, m, random.Random(0), 0.75, 300), name


def test_eval_checks_reject_corrupted_reports(built, tmp_path):
    _, path = built
    stream = gen.tail_stream(3, "gold", RES, LEXICON, 60)
    gold = tmp_path / "gold.tsv"
    gold.write_text("".join(f"{t}\t{LEXICON.root_of[t] if k == 'word' else ''}\n" for t, k in stream), encoding="utf-8")
    _, stdout = worker.run_cli(cli, ["evaluate", "--gold", str(gold), "--matrix", str(path)])
    checks.check_eval(stdout, stream, LEXICON)

    lines = stdout.splitlines()
    metric = next(i for i, line in enumerate(lines) if line.startswith("METRIC\tclustering_recall"))
    coverage = next(i for i, line in enumerate(lines) if line.startswith("METRIC\tcandidate_coverage"))
    clusters = [i for i, line in enumerate(lines) if line.startswith("CLUSTER")]
    right = [i for i in clusters if lines[i].split("\t")[1] == LEXICON.root_of[lines[i].split("\t")[2].split(" ")[0]]]
    a, b = right[0], clusters[-1] if clusters[-1] != right[0] else clusters[0]

    def edited(changes: dict[int, str | None]) -> str:
        return "".join(changes.get(i, line) + "\n" for i, line in enumerate(lines) if changes.get(i, line) is not None)

    label_a, words_a = lines[a].split("\t")[1:]
    label_b, words_b = lines[b].split("\t")[1:]
    corrupted = {
        "metric value": edited({metric: f"METRIC\tclustering_recall\t{float(lines[metric].split()[-1]) - 0.001!r}"}),
        "coverage": edited({coverage: "METRIC\tcandidate_coverage\t0.99"}),
        "labels swapped": edited({a: f"CLUSTER\t{label_b}\t{words_a}", b: f"CLUSTER\t{label_a}\t{words_b}"}),
        "cluster dropped": edited({a: None}),
    }
    for name, bad in corrupted.items():
        assert rejects(checks.check_eval, bad, stream, LEXICON), name
