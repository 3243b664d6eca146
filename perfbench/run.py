"""Benchmark for the tagcopy toolkit.

    python3 perfbench/run.py --workload {prep,apply,score} --seed N --seconds S --trace {0,1}

Run from the repository root. Inputs are generated from ``--seed`` (see
gen.py); the toolkit sees only the generated files. Set-up is repeated
(see SETUP_MIN_REPS), each time in a fresh process, and ``setup_s`` is the
median.
Then passes run one after another (closed loop, one client), each in a
fresh worker process, for about ``--seconds`` seconds; the end-to-end
metrics are medians over passes. Every pass's outputs are checked (see
workloads.py) and a pass with any failed check counts as failed. The checks
that depend on the fixture alone run once, after the passes; if one fails,
every pass counts as failed.

With ``--trace 1`` untraced and traced passes alternate for ``--seconds``,
then one more pass runs under tracemalloc for per-span peak memory. The
per-layer metrics come from the traced passes; the tracing overhead is the
traced median wall time over the untraced one.

The last line of standard output is one JSON object: correct, attempted,
failed, and the metrics named in BENCHMARK.json. Everything measured,
per-layer metrics included, is printed above it by name and unit and
written to perfbench/work/report-<workload>-<seed>-trace<t>.json.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("prep", "apply", "score")
# set-up repeats until it has run SETUP_MIN_REPS times and for SETUP_BUDGET_S
# seconds, at most SETUP_MAX_REPS times: a cheap set-up (prep only generates
# files) gets more samples, an expensive one (apply trains) gets the minimum.
# The budget is small: set-up lengthens a run without adding to the passes
# the end-to-end metrics are measured on.
SETUP_MIN_REPS = 3
SETUP_MAX_REPS = 15
SETUP_BUDGET_S = 3.0
WORKER_TIMEOUT_S = 170
LAYERS = ("corpus", "align", "lexicon", "link", "template", "metrics", "cli", "bench")
# spans whose inclusive time is reported as <span>.s
TIMED_SPANS = (
    "corpus.read_parallel",
    "align.train_alignment", "align.save_model", "align.load_model", "align.align_corpus",
    "align.viterbi_align", "align.symmetrize_links",
    "lexicon.build_translation_table", "lexicon.load_table",
    "link.annotate_gazetteer", "link.annotate_corpus",
    "template.tag_corpus", "template.write_tagged", "template.read_manifest", "template.detag",
    "metrics.bleu", "metrics.copy_accuracy", "metrics.pos_accuracy",
)
COUNTS = (
    ("corpus.pairs_read", "count"), ("corpus.pairs_dropped", "count"),
    ("align.em_cells", "count"), ("align.theta_entries", "count"),
    ("align.model_bytes", "bytes"),
    ("align.links_fwd", "count"), ("align.links_rev", "count"), ("align.links_sym", "count"),
    ("lexicon.entries", "count"),
    ("link.requests", "count"), ("link.cache_hits", "count"),
    ("link.mentions_found", "count"), ("link.with_hypernym", "count"),
    ("link.projectable", "count"),
    ("template.tagged_pairs", "count"), ("template.detag_incidents", "count"),
)


class Run:
    def __init__(self, workload: str, seed: int, work: Path):
        self.workload = workload
        self.seed = seed
        self.work = work
        self.fixture = work / "fixture"
        self.n = 0

    def worker(self, action: str, trace: str = "off") -> tuple[dict | None, float]:
        """Run one worker process; returns (its result or None, elapsed s)."""
        self.n += 1
        out = self.work / f"{action}{self.n}"
        result = self.work / f"{action}{self.n}.json"
        log = self.work / f"{action}{self.n}.log"
        cmd = [sys.executable, str(HERE / "worker.py"), action, self.workload, str(self.seed),
               str(self.fixture), str(out), trace, str(result)]
        t0 = time.perf_counter()
        with open(log, "wb") as f:
            try:
                code = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                      timeout=WORKER_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                code = None
        elapsed = time.perf_counter() - t0
        if code != 0:
            tail = log.read_text(encoding="utf-8", errors="replace").splitlines()[-15:]
            print(f"{action} worker failed ({code}):", *tail, sep="\n  ", file=sys.stderr)
            shutil.rmtree(out, ignore_errors=True)
            return None, elapsed
        with open(result, encoding="utf-8") as f:
            data = json.load(f)
        shutil.rmtree(out, ignore_errors=True)
        log.unlink()
        return data, elapsed

    def setup(self, min_reps: int, max_reps: int) -> tuple[list[float], bool]:
        times, digests = [], set()
        t0 = time.perf_counter()
        while len(times) < min_reps or (
                len(times) < max_reps and time.perf_counter() - t0 < SETUP_BUDGET_S):
            shutil.rmtree(self.fixture, ignore_errors=True)
            res, _ = self.worker("setup")
            if res is None:
                raise SystemExit(f"set-up of {self.workload} failed")
            times.append(res["setup_s"])
            digests.add(res["digest"])
        return times, len(digests) == 1

    def passes(self, seconds: float, traces: list[str]) -> dict[str, list]:
        """Cycle through ``traces`` while the next pass would end, on a median
        pass duration, no more than half a pass after ``seconds``: the run
        then lasts ``seconds`` on average, and no measuring time is left idle."""
        runs: dict[str, list] = {t: [] for t in traces}
        durations = []
        t0 = time.perf_counter()
        while True:
            trace = traces[len(durations) % len(traces)]
            res, elapsed = self.worker("pass", trace)
            runs[trace].append(res)
            durations.append(elapsed)
            done = len(durations) >= len(traces)
            if done and time.perf_counter() - t0 + statistics.median(durations) / 2 > seconds:
                return runs


def _failed(results: list, reference: str | None) -> tuple[int, list[str]]:
    failed, problems = 0, []
    for res in results:
        if res is None:
            failed += 1
            problems.append("worker crashed")
        elif res["problems"] or res["digest"] != reference:
            failed += 1
            problems.extend(res["problems"] or ["outputs differ from the first pass"])
    return failed, problems


def _median(results: list, key: str) -> float:
    return statistics.median(r[key] for r in results if r is not None)


def end_to_end(results: list, setup_times: list[float]) -> dict:
    return {
        "wall_s": (_median(results, "wall_s"), "s"),
        "cpu_s": (_median(results, "cpu_s"), "s"),
        "peak_rss_mb": (_median(results, "peak_rss_mb"), "MB"),
        "setup_s": (statistics.median(setup_times), "s"),
    }


def per_layer(untraced: list, traced: list, memory: dict | None) -> dict:
    """Every per-layer metric, from the traced passes (medians over them)."""
    traced = [r for r in traced if r is not None]
    names = {name for r in traced for name in r["spans"]}

    def span_median(name, key):
        return statistics.median(r["spans"].get(name, {}).get(key, 0.0) for r in traced)

    out: dict[str, tuple] = {}
    for name in TIMED_SPANS:
        out[f"{name}.s"] = (span_median(name, "total_s"), "s")
    wall = _median(traced, "wall_s")
    for layer in LAYERS:
        self_s = sum(span_median(n, "self_s") for n in names if n.split(".")[0] == layer)
        out[f"{layer}.self_s"] = (self_s, "s")
        out[f"{layer}.share"] = (100.0 * self_s / wall, "%")
    counts = traced[-1]["counts"]
    for name, unit in COUNTS:
        out[name] = (counts.get(name, 0), unit)
    requests = [r["counts"].get("link.requests", 0) for r in traced + untraced if r is not None]
    out["link.requests"] = (statistics.median_low(requests), "count")
    out["link.requests.min"] = (min(requests), "count")
    out["link.requests.max"] = (max(requests), "count")
    if "link.unique_sentences" in counts:
        out["link.useful_request_ratio"] = (
            counts["link.unique_sentences"] / out["link.requests"][0], "ratio")
        out["link.useful_request_ratio.base_requests"] = (out["link.requests"][0], "count")
        out["link.sentences"] = (counts["link.sentences"], "count")
        out["link.unique_sentences"] = (counts["link.unique_sentences"], "count")
        out["link.cache_hits"] = (counts["link.sentences"] - out["link.requests"][0], "count")
        latencies = [r["latency_ms"] for r in traced if "latency_ms" in r]
        out["link.annotate.p50_ms"] = (statistics.median(x["p50"] for x in latencies), "ms")
        out["link.annotate.p99_ms"] = (statistics.median(x["p99"] for x in latencies), "ms")
        out["link.annotate.samples"] = (latencies[-1]["n"], "count")
    em_s = out["align.train_alignment.s"][0]
    out["align.em_cells_per_s"] = (counts.get("align.em_cells", 0) / em_s if em_s else 0.0, "1/s")
    out["trace.pass_wall_s"] = (wall, "s")
    out["trace.untraced_wall_s"] = (_median(untraced, "wall_s"), "s")
    out["trace.overhead_pct"] = (100.0 * (wall / out["trace.untraced_wall_s"][0] - 1.0), "%")
    out["trace.traced_passes"] = (len(traced), "count")
    if memory is not None:
        for name, row in sorted(memory["spans"].items()):
            out[f"traced.{name}.peak_mb"] = (row["peak_mb"], "MB")
        out["traced.memory_pass_wall_s"] = (memory["wall_s"], "s")
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=WORKLOADS, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    # on SIGTERM, unwind: subprocess.run kills and reaps the running worker
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    root = Path.cwd()
    if not (root / "src" / "tagcopy" / "__init__.py").is_file():
        print("error: run from the repository root (src/tagcopy not found)", file=sys.stderr)
        return 2
    with open(root / "BENCHMARK.json", encoding="utf-8") as f:
        spec = json.load(f)

    work = HERE / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = Run(args.workload, args.seed, work)
        reps = (1, 1) if args.trace else (SETUP_MIN_REPS, SETUP_MAX_REPS)
        setup_times, setup_same = run.setup(*reps)
        if args.trace:
            runs = run.passes(args.seconds, ["off", "spans"])
            memory, _ = run.worker("pass", "memory")
            results = runs["off"] + runs["spans"] + [memory]
        else:
            runs = run.passes(args.seconds, ["off"])
            results = runs["off"]
        verified, _ = run.worker("verify")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    reference = next((r["digest"] for r in results if r is not None), None)
    failed, problems = _failed(results, reference)
    if verified is None or verified["problems"]:
        # a check on the fixture alone failed, so no pass's outputs can be trusted
        failed = len(results)
        problems.extend(verified["problems"] if verified else ["verify worker crashed"])
    if not setup_same:
        problems.append("repeated set-ups produced different fixtures")
    correct = failed == 0 and setup_same

    if args.trace:
        measured = per_layer(runs["off"], runs["spans"], memory)
        wanted = spec["per_layer"]
    else:
        measured = end_to_end(results, setup_times)
        wanted = spec["end_to_end"]
    measured["fail_ratio"] = (failed / len(results), "ratio")
    print(f"workload {args.workload}, seed {args.seed}, {len(results)} passes "
          f"({failed} failed), {len(setup_times)} set-ups, nproc {len(os.sched_getaffinity(0))}")
    for problem in problems[:20]:
        print(f"check failed: {problem}")
    for name, (value, unit) in measured.items():
        print(f"{name:48s} {value:>16.6g} {unit}")
    report = HERE / "work" / f"report-{args.workload}-{args.seed}-trace{args.trace}.json"
    with open(report, "w", encoding="utf-8") as f:
        json.dump({"correct": correct, "attempted": len(results), "failed": failed,
                   "problems": problems, "setup_s": setup_times,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in measured.items()},
                   "passes": results}, f, indent=1)
    print(json.dumps({
        "correct": correct,
        "attempted": len(results),
        "failed": failed,
        "metrics": {m["name"]: {"value": measured[m["name"]][0], "unit": m["unit"]}
                    for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
