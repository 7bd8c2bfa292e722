"""Output bytes pinned by digest.

Each digest was taken from the program before its per-word kernels were
rewritten for speed, so any change to what ``build-matrix``, ``stem`` or
``evaluate`` writes on the bundled data fails here; the demos' digests
pin what each ``demos/*.py`` prints. A change that means to alter the
output updates the digests and says why.
"""

import contextlib
import hashlib
import io
import os
import subprocess
import sys

import pytest

from cbas.cli import main
from cbas.morphology import bundled_resource_dir

from .conftest import DATA_DIR, REPO_ROOT

RESOURCES = bundled_resource_dir()
STOPWORDS = RESOURCES / "stopwords.txt"

BUILD_FILE = "7b832937b03e1ca5f6bd683f566af49732750d4c958dffcb8a2d948b901977ad"
BUILD_STDOUT = "c6c89b65109cc536e6435594bb7b3c2d95350f1d52efc7eb22c336f14e108548"

STEM = {
    ("pmi", "previous"): "f8ec4805eae656a3fa26ba1c1fae6e74c087256e4fdc16fd95157c100d09d145",
    ("pmi", "window"): "01435047f396371ef2134fc4b16cfe8bc7a873c1ced1e39a98206b7d3cff9ab0",
    ("ppmi", "previous"): "de7c0d346d085d7a7f88ad7e24d704b8af70728947e1ca3053aa9f0cf2eb89fa",
    ("ppmi", "window"): "3524e1a8d4f237a423ef4d952928c601f542f6c616565a4d8d7fc09d34a97c44",
    ("spmi", "previous"): "d2f31bb1d104054c7f8530ded3e735b33aedbe3154e2da3860bfb45ac77ee375",
    ("spmi", "window"): "8c890c1357ffa04ec5485966c5212250c330d2a362ada6577b5748301386e045",
}

# On the bundled gold, ppmi and spmi pick the same roots in both context
# modes, so those four reports are the same bytes.
EVALUATE = {
    ("pmi", "previous"): "80c8f421b67ff537a6b3cd4a8b19c27fdd3b4c92ab97c43b41ce024db1a0a536",
    ("pmi", "window"): "5dbc47210fb679672d8663143cc3b157274b5ee4ed805cf04b3e35d32113b738",
    ("ppmi", "previous"): "398ab94f3f206efe90b660a89e74ef5ca2df61f410ca753c703b8876ce743bd8",
    ("ppmi", "window"): "398ab94f3f206efe90b660a89e74ef5ca2df61f410ca753c703b8876ce743bd8",
    ("spmi", "previous"): "398ab94f3f206efe90b660a89e74ef5ca2df61f410ca753c703b8876ce743bd8",
    ("spmi", "window"): "398ab94f3f206efe90b660a89e74ef5ca2df61f410ca753c703b8876ce743bd8",
}

DEMOS = {
    "01_text_pipeline": "f862a8a883ccfe1c9f0ae3e7d374bf6e70f1a613fa4c9f8c7ff0a021ce82ee11",
    "02_context_matrix": "15fa71edc62c291b90991014388f565bc8355f4547e3e5e57231d64d0081f269",
    "03_association_measures": "bb3f17791ae6045702f5cbdb47752db28494b4dc729d1eaf6def767742a294cb",
    "04_candidate_roots": "9b5bc501cd67bdb1ac1435106623190ca08826072177a92060ba406545ef517a",
    "05_stemming_in_context": "fb39cf66a608691dbe29136ad8f991d140a67e236de31d742a3acf22c44de4dd",
    "06_evaluation": "e2bab38c53cc5205a20a887f4ba3fbc1b849a4ba057b34548041fec0c6b3d8d3",
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run(argv) -> bytes:
    """What ``cbas <argv>`` writes to standard output, as UTF-8 bytes."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    return out.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def bundled(tmp_path_factory):
    """The bundled corpus's matrix, what building it printed, and the
    corpus's 50 documents as one file to stem."""
    root = tmp_path_factory.mktemp("digests")
    corpus = DATA_DIR / "sample_corpus"
    document = root / "corpus.txt"
    document.write_text(
        "".join(p.read_text(encoding="utf-8") for p in sorted(corpus.iterdir())), encoding="utf-8"
    )
    matrix = root / "matrix.tsv"
    out = run(["build-matrix", "--corpus", str(corpus), "--stopwords", str(STOPWORDS), "--out", str(matrix)])
    return matrix, out, document


def scoring(matrix, kind, context):
    return [
        "--matrix", str(matrix), "--resources", str(RESOURCES), "--stopwords", str(STOPWORDS),
        "--measure", kind, "--context", context,
    ]


def test_build_matrix_bytes(bundled):
    matrix, out, _ = bundled
    assert (sha256(matrix.read_bytes()), sha256(out)) == (BUILD_FILE, BUILD_STDOUT)


@pytest.mark.parametrize("kind, context", list(STEM))
def test_stem_json_bytes(bundled, kind, context):
    matrix, _, document = bundled
    out = run(["stem", "--file", str(document), *scoring(matrix, kind, context)])
    assert sha256(out) == STEM[kind, context]


@pytest.mark.parametrize("kind, context", list(EVALUATE))
def test_evaluate_bytes(bundled, kind, context):
    matrix, _, _ = bundled
    out = run(["evaluate", "--gold", str(DATA_DIR / "gold_sample.tsv"), *scoring(matrix, kind, context)])
    assert sha256(out) == EVALUATE[kind, context]


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (REPO_ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("demo", list(DEMOS))
def test_demo_stdout_bytes(demo):
    env = {**os.environ, "PYTHONPATH": str(REPO_ROOT / "src"), "PYTHONIOENCODING": "utf-8"}
    proc = subprocess.run(
        [sys.executable, str(REPO_ROOT / "demos" / f"{demo}.py")],
        cwd=REPO_ROOT, env=env, capture_output=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode("utf-8", "replace")
    assert b"Traceback" not in proc.stdout + proc.stderr
    assert sha256(proc.stdout) == DEMOS[demo]
