"""One measured process of the benchmark.

Usage: python3 bench/worker.py '<json spec>'

``run.py`` starts this file as a fresh process for every pass (or, for
stem-zipf, for every set-up followed by its passes), so that no state of
one pass can make a later pass cheaper, and so that the peak resident
memory it reports belongs to the measured work alone. The process reads
its inputs from files and prints one JSON object as its last line.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import time
from pathlib import Path

perf = time.perf_counter
STARTED = time.monotonic()


def peak_rss_mib() -> float:
    """Peak resident memory of this process (VmHWM).

    Not ``ru_maxrss``: when a process is started by vfork, as subprocess
    does on Linux, ``ru_maxrss`` also counts the parent's peak.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024  # the figure is in KiB
    raise RuntimeError("no VmHWM line in /proc/self/status")


def sha256(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run_cli(cli, argv: list[str]) -> tuple[float, str]:
    """Run a ``cbas`` command in process; return its wall time and stdout."""
    out = io.StringIO()
    start = perf()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    elapsed = perf() - start
    if code != 0:
        raise RuntimeError(f"cbas {argv[0]} exited with {code}")
    return elapsed, out.getvalue()


def set_up(matrix_path: str, context_mode: str):
    """What ``cbas stem`` and ``cbas evaluate`` do before the first token."""
    from cbas import cooccurrence, corpus, disambiguation, morphology

    start = perf()
    resources = morphology.load_resources(morphology.bundled_resource_dir())
    stopwords = corpus.load_stopwords(morphology.bundled_resource_dir() / "stopwords.txt")
    matrix = cooccurrence.load_matrix(matrix_path)
    stemmer = disambiguation.Stemmer(
        resources, stopwords, matrix, cooccurrence.AssociationMeasure("spmi", 0.75), context_mode
    )
    return perf() - start, stemmer


def build_pass(spec, tracer) -> dict:
    """``cbas build-matrix`` over the corpus, then the set-up on what it wrote."""
    from cbas import cli

    argv = ["build-matrix", "--corpus", spec["corpus"], "--corpus-format", "lines",
            "--window", str(spec["window"]), "--out", spec["out"]]
    work_s, stdout = run_cli(cli, argv)
    result = {"work_s": work_s, "peak_rss_mib": peak_rss_mib(), "sha256": sha256(spec["out"]), "stdout": stdout}
    if spec.get("setup_context"):
        result["setup_s"], _ = set_up(spec["out"], spec["setup_context"])
    if tracer is not None:
        result["trace"] = [tracer.snapshot()]
        from tracing import build_peak_mib, load_bytes_per_pair

        scratch = spec["out"] + ".peak"
        result["trace"][0]["cooccurrence.build_matrix.traced_peak_mib"] = build_peak_mib(
            lambda: run_cli(cli, argv[:-1] + [scratch]))
        result["trace"][0]["cooccurrence.load_matrix.bytes_per_pair"] = load_bytes_per_pair(spec["out"])
        Path(scratch).unlink()
    return result


def stem_passes(spec, tracer) -> dict:
    """One set-up, then ``Stemmer.stem_text`` over disjoint chunks, a fresh Stemmer each."""
    from cbas import disambiguation

    setup_s, first = set_up(spec["matrix"], "window")
    traces = [tracer.snapshot()] if tracer is not None else []
    chunks = Path(spec["text"]).read_text(encoding="utf-8").splitlines()[spec["first_chunk"]:spec["end_chunk"]]
    deadline = STARTED + spec["seconds"]
    passes = []
    for n, chunk in enumerate(chunks):
        if n and time.monotonic() >= deadline:
            break
        stemmer = disambiguation.Stemmer(first.resources, first.stopwords, first.matrix, first.measure, first.context_mode)
        if tracer is not None:
            tracer.reset()
        start = perf()
        results = stemmer.stem_text(chunk)
        passes.append(perf() - start)
        if tracer is not None:
            traces.append(tracer.snapshot())
        if n == 0:
            dump_stem(results, spec["dump"])
    out = {"setup_s": setup_s, "pass_s": passes, "peak_rss_mib": peak_rss_mib()}
    if tracer is not None:
        from tracing import load_bytes_per_pair

        traces[0]["cooccurrence.load_matrix.bytes_per_pair"] = load_bytes_per_pair(spec["matrix"])
        out["trace"] = traces
    return out


def dump_stem(results, path) -> None:
    """The first pass's results, one JSON record per token, for the output checks."""
    with open(path, "w", encoding="utf-8") as fh:
        for r in results:
            table = [[cand.root, scored.root, scored.score, scored.derived_in_vocab] for cand, scored in r.scored]
            fh.write(json.dumps([r.input, r.normalized, r.root, r.skip_reason, table], ensure_ascii=False) + "\n")


def eval_pass(spec, tracer) -> dict:
    """The evaluate set-up, then ``cbas evaluate`` in process with default settings."""
    from cbas import cli

    setup_s, stemmer = set_up(spec["matrix"], "previous")
    del stemmer
    if tracer is not None:
        tracer.reset()
    work_s, stdout = run_cli(cli, ["evaluate", "--gold", spec["gold"], "--matrix", spec["matrix"]])
    result = {"setup_s": setup_s, "work_s": work_s, "peak_rss_mib": peak_rss_mib(),
              "sha256": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}
    if spec.get("dump"):
        Path(spec["dump"]).write_text(stdout, encoding="utf-8")
    if tracer is not None:
        from tracing import load_bytes_per_pair

        result["trace"] = [tracer.snapshot()]
        result["trace"][0]["cooccurrence.load_matrix.bytes_per_pair"] = load_bytes_per_pair(spec["matrix"])
    return result


MODES = {"build": build_pass, "stem": stem_passes, "eval": eval_pass}


def main() -> int:
    spec = json.loads(sys.argv[1])
    import cbas

    src = Path(spec["src"]).resolve()
    if src not in Path(cbas.__file__).resolve().parents:
        raise SystemExit(f"cbas was imported from {cbas.__file__}, not from {src}")
    tracer = None
    if spec.get("trace"):
        from tracing import Tracer, install

        tracer = Tracer()
        install(tracer)
    print(json.dumps(MODES[spec["mode"]](spec, tracer)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
