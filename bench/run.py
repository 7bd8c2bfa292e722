"""Benchmark for cbas: three workloads, end-to-end metrics or a per-layer trace.

Usage, from the root of a checkout:

    python3 bench/run.py --workload build-zipf|stem-zipf|eval-tail \
        --seed N --seconds S --trace 0|1

It generates the inputs from the seed, has the checkout's own ``cbas``
write every matrix a workload loads (untimed), measures the workload for
S seconds in fresh worker processes, checks the outputs, and prints one
JSON object as its last line: ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with --trace 0,
the per-layer ones with --trace 1. A traced run runs all three
workloads, a third of S each, and takes each layer's figures from the
workload that exercises it most. See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import gen  # noqa: E402

SIZES = {
    "full": {
        "build_docs": 100, "build_doc_tokens": 200,
        "corpus_docs": 600, "corpus_doc_tokens": 200,
        "chunk_tokens": 1000, "stem_workers": 5, "chunks_per_worker": 40,
        "small_docs": 100, "small_doc_tokens": 100, "gold_words": 1000,
    },
    "tiny": {
        "build_docs": 4, "build_doc_tokens": 40,
        "corpus_docs": 20, "corpus_doc_tokens": 40,
        "chunk_tokens": 60, "stem_workers": 2, "chunks_per_worker": 2,
        "small_docs": 10, "small_doc_tokens": 30, "gold_words": 30,
    },
}
BUILD_WINDOW = 5
WORKER_TIMEOUT_S = 150


class Run:
    """One benchmark run: its inputs, its worker processes and its results."""

    def __init__(self, root: Path, work: Path, seed: int, seconds: float, trace: bool, size: dict):
        self.root, self.work, self.seed, self.seconds, self.trace, self.size = root, work, seed, seconds, trace, size
        self.res = gen.load_resources(root / gen.RESOURCE_DIR)
        self.lexicon = gen.make_lexicon(seed, self.res)
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []  # per-layer trace records, in pass order

    def write_docs(self, name: str, docs: list[list[gen.Token]]) -> str:
        path = self.work / name
        path.write_text("".join(gen.text_of(d) + "\n" for d in docs), encoding="utf-8")
        return str(path)

    def worker(self, spec: dict) -> dict | None:
        """Run one worker process; None when it failed."""
        spec = {"src": str(self.root / "src"), "trace": self.trace, **spec}
        env = {**os.environ, "PYTHONPATH": str(self.root / "src")}
        proc = subprocess.run([sys.executable, str(HERE / "worker.py"), json.dumps(spec)], cwd=self.root,
                              env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
        if proc.returncode != 0:
            print(f"worker {spec['mode']} failed:\n{proc.stderr}", file=sys.stderr)
            return None
        result = json.loads(proc.stdout.splitlines()[-1])
        self.records += result.get("trace", [])
        return result

    def build_matrix(self, name: str, docs: list[list[gen.Token]], window: int) -> str:
        """A matrix written, untimed, by the checkout's own build-matrix."""
        corpus = self.write_docs(name + ".txt", docs)
        out = str(self.work / (name + ".mtx"))
        if self.worker({"mode": "build", "corpus": corpus, "out": out, "window": window, "trace": False}) is None:
            raise RuntimeError(f"could not build the {name} matrix")
        return out

    def check_matrix(self, path: str, docs: list[list[gen.Token]], window: int) -> checks.MatrixFile:
        m = checks.MatrixFile(path)
        checks.check_matrix(m, [gen.words_of(d) for d in docs], window, random.Random(f"{self.seed}:check"))
        return m

    def until_deadline(self, one_pass) -> list[dict]:
        """Whole passes, each in a fresh process, until the run's seconds are used."""
        deadline = time.monotonic() + self.seconds
        results = []
        while not results or time.monotonic() < deadline:
            self.attempted += 1
            result = one_pass(len(results))
            if result is None:
                self.failed += 1
            else:
                results.append(result)
            if self.failed and not results:
                break
        if not results:
            raise RuntimeError("every pass failed")
        return results


def summary(tokens_per_pass, pass_s, setup_s, rss) -> tuple[dict, dict]:
    """End-to-end metrics and the figures recorded beside them."""
    rates = [n / s for n, s in zip(tokens_per_pass, pass_s)]
    metrics = {
        "tok_per_s": max(rates),
        "setup_s": min(setup_s),
        "peak_rss_mib": statistics.median(rss),
    }
    detail = {
        "passes": len(rates), "tok_per_s_median": statistics.median(rates),
        "setups": len(setup_s), "setup_s_median": statistics.median(setup_s),
        "peak_rss_mib_max": max(rss),
    }
    return metrics, detail


def build_zipf(run: Run) -> tuple[dict, dict]:
    size = run.size
    docs = gen.zipf_documents(run.seed, "build", run.res, run.lexicon, size["build_docs"], size["build_doc_tokens"])
    corpus = run.write_docs("build.txt", docs)

    def one_pass(n):
        out = str(run.work / f"build-{n}.mtx")
        result = run.worker({"mode": "build", "corpus": corpus, "out": out, "window": BUILD_WINDOW,
                             "setup_context": "window"})
        if n and result is not None:
            Path(out).unlink()
        return result

    results = run.until_deadline(one_pass)
    first = str(run.work / "build-0.mtx")
    m = run.check_matrix(first, docs, BUILD_WINDOW)
    import cbas

    checks.check_round_trip(cbas, first, str(run.work / "round-trip.mtx"))
    checks.require(all(r["sha256"] == results[0]["sha256"] for r in results), "build passes wrote different bytes")
    checks.require(f"total\t{m.declared_total}\n" in results[0]["stdout"], "build-matrix printed another total")
    tokens = size["build_docs"] * size["build_doc_tokens"]
    return summary([tokens] * len(results), [r["work_s"] for r in results],
                   [r["setup_s"] for r in results], [r["peak_rss_mib"] for r in results])


def stem_zipf(run: Run) -> tuple[dict, dict]:
    size = run.size
    docs = gen.zipf_documents(run.seed, "corpus", run.res, run.lexicon, size["corpus_docs"], size["corpus_doc_tokens"])
    matrix = run.build_matrix("corpus", docs, BUILD_WINDOW)
    per = size["chunks_per_worker"]
    chunks = gen.zipf_documents(run.seed, "text", run.res, run.lexicon, size["stem_workers"] * per, size["chunk_tokens"])
    text = run.write_docs("text.txt", chunks)

    deadline = time.monotonic() + run.seconds
    results = []
    for k in range(size["stem_workers"]):
        left = size["stem_workers"] - k
        spec = {"mode": "stem", "matrix": matrix, "text": text, "first_chunk": k * per, "end_chunk": (k + 1) * per,
                "seconds": max(0.0, (deadline - time.monotonic()) / left), "dump": str(run.work / f"stem-{k}.jsonl")}
        result = run.worker(spec)
        run.attempted += 1 if result is None else len(result["pass_s"])
        if result is None:
            run.failed += 1
            continue
        results.append((k, result))

    m = run.check_matrix(matrix, docs, BUILD_WINDOW)
    for k, _ in results:
        records = [json.loads(line) for line in Path(run.work / f"stem-{k}.jsonl").read_text(encoding="utf-8").splitlines()]
        checks.check_stem(records, chunks[k * per], run.lexicon, run.res, m, random.Random(f"{run.seed}:stem:{k}"))
    if not results:
        raise RuntimeError("every stem worker failed")
    pass_s = [s for _, r in results for s in r["pass_s"]]
    return summary([size["chunk_tokens"]] * len(pass_s), pass_s,
                   [r["setup_s"] for _, r in results], [r["peak_rss_mib"] for _, r in results])


def eval_tail(run: Run) -> tuple[dict, dict]:
    size = run.size
    docs = gen.zipf_documents(run.seed, "small", run.res, run.lexicon, size["small_docs"], size["small_doc_tokens"])
    matrix = run.build_matrix("small", docs, 3)
    stream = gen.tail_stream(run.seed, "gold", run.res, run.lexicon, size["gold_words"])
    gold = run.work / "gold.tsv"
    gold.write_text("".join(f"{t}\t{run.lexicon.root_of[t] if kind == 'word' else ''}\n" for t, kind in stream),
                    encoding="utf-8")
    dump = run.work / "evaluate.out"

    def one_pass(n):
        return run.worker({"mode": "eval", "gold": str(gold), "matrix": matrix, "dump": "" if n else str(dump)})

    results = run.until_deadline(one_pass)
    run.check_matrix(matrix, docs, 3)
    checks.check_eval(dump.read_text(encoding="utf-8"), stream, run.lexicon)
    checks.require(all(r["sha256"] == results[0]["sha256"] for r in results), "evaluate passes printed different output")
    return summary([len(stream)] * len(results), [r["work_s"] for r in results],
                   [r["setup_s"] for r in results], [r["peak_rss_mib"] for r in results])


WORKLOADS = {"build-zipf": build_zipf, "stem-zipf": stem_zipf, "eval-tail": eval_tail}


# The workload each per-layer metric is reported from: the one that
# exercises the layer most (see the table in bench/README.md).
LAYER_WORKLOAD = {
    "corpus": "build-zipf",
    "cooccurrence.build_matrix": "build-zipf",
    "cooccurrence.save_matrix": "build-zipf",
    "cooccurrence.load_matrix": "stem-zipf",
    "morphology.load_resources": "stem-zipf",
    "cooccurrence.association": "stem-zipf",
    "disambiguation": "stem-zipf",
    "morphology.generate_candidates": "eval-tail",
    "morphology.segment": "eval-tail",
    "evaluation": "eval-tail",
    "cli": "eval-tail",
}


def layer_workload(name: str) -> str:
    return next(w for prefix, w in LAYER_WORKLOAD.items() if name.startswith(prefix + "."))


def layer_metrics(records: list[dict], names: list[str]) -> dict:
    """Per-layer figures, per pass: a time is the median over the passes that
    ran the span, any other figure is taken from the first such pass."""
    out = {}
    for name in names:
        if name.endswith(".s"):
            span = name[:-2]
            values = [r[name] for r in records if r.get(f"{span}.calls")]
            out[name] = statistics.median(values) if values else 0.0
        else:
            out[name] = next((r[name] for r in records if name in r), 0)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full", help="input sizes (tiny is for the tests)")
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "cbas" / "__init__.py").is_file() or not (root / gen.RESOURCE_DIR).is_dir():
        print(f"bench: no cbas sources under {root / 'src'}; run from the root of a checkout", file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(root / "src"))

    # A traced run profiles every layer, so it runs all three workloads.
    names = list(WORKLOADS) if args.trace else [args.workload]
    runs, figures, correct = {}, {}, True
    for name in names:
        work = root / ".bench_work" / f"{name}-{args.seed}-{os.getpid()}"
        work.mkdir(parents=True)
        runs[name] = Run(root, work, args.seed, args.seconds / len(names), bool(args.trace), SIZES[args.size])
        try:
            figures[name] = WORKLOADS[name](runs[name])
        except checks.CheckFailed as exc:
            print(f"bench: {name} output check failed: {exc}", file=sys.stderr)
            correct = False
        finally:
            shutil.rmtree(work)

    if args.trace:
        chosen = spec["per_layer"]
        layers = {w: layer_metrics(r.records, [m["name"] for m in chosen]) for w, r in runs.items()}
        metrics = {m["name"]: layers[layer_workload(m["name"])][m["name"]] for m in chosen}
        detail = {"traced": {w: f[0] for w, f in figures.items()}, "layers": layers}
    else:
        chosen = spec["end_to_end"]
        metrics, detail = figures.get(args.workload, ({}, {}))
    print(json.dumps({"workload": args.workload, "seed": args.seed, **detail}))
    result = {
        "correct": correct,
        "attempted": sum(r.attempted for r in runs.values()),
        "failed": sum(r.failed for r in runs.values()),
        "metrics": {m["name"]: {"value": metrics.get(m["name"], 0), "unit": m["unit"]} for m in chosen},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
