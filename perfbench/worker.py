"""One set-up or one pass of a workload, in a process of its own.

    python3 perfbench/worker.py ACTION WORKLOAD SEED FIXTURE_DIR OUT_DIR TRACE RESULT_JSON

ACTION is ``setup``, ``pass`` or ``verify`` (the checks that depend on the
fixture alone, once per run); TRACE is ``off``, ``spans`` or ``memory``
(spans plus tracemalloc peaks). A fresh process per pass means each pass
pays what one CLI invocation pays: module caches start cold and
``ru_maxrss`` is the pass's own. The result goes to RESULT_JSON.
"""

import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from tagcopy import align, cli, corpus, lexicon, link, metrics, template  # noqa: E402

import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


class Context:
    def __init__(self, traced: bool):
        self.counts: dict = {}
        self.latencies: list[float] | None = [] if traced else None


def _em_cells(counters, args, kwargs, model) -> None:
    pairs = args[0].pairs
    cells = sum(len(p.tgt) * (len(p.src) + 1) for p in pairs)
    if model.direction == align.REVERSE:
        cells = sum(len(p.src) * (len(p.tgt) + 1) for p in pairs)
    counters["align.em_cells"] += cells * kwargs.get("iterations", 5)
    counters["align.theta_entries"] += sum(len(row) for row in model.theta.values())


def _loaded(counters, args, kwargs, model) -> None:
    counters["align.theta_entries"] += sum(len(row) for row in model.theta.values())
    counters["align.model_bytes"] += Path(args[0]).stat().st_size


def _saved(counters, args, kwargs, result) -> None:
    counters["align.model_bytes"] += Path(args[1]).stat().st_size


def _read(counters, args, kwargs, result) -> None:
    counters["corpus.pairs_read"] += len(result)
    counters["corpus.pairs_dropped"] += result.dropped_count


def _table(counters, args, kwargs, table) -> None:
    counters["lexicon.entries"] = len(table)


def install(tracer: Tracer) -> None:
    """Wrap every public function the layers are measured by."""
    tracer.wrap(cli, "main", lambda args, kwargs: f"cli.{args[0][0]}")
    tracer.wrap(cli, "read_token_lines", "cli.read_token_lines")
    tracer.wrap(cli, "write_token_lines", "cli.write_token_lines")
    tracer.wrap(cli, "read_parallel", "corpus.read_parallel", _read)
    tracer.wrap(corpus, "read_parallel", "corpus.read_parallel", _read)
    tracer.wrap(align, "train_alignment", "align.train_alignment", _em_cells)
    tracer.wrap(align, "save_model", "align.save_model", _saved)
    tracer.wrap(align, "load_model", "align.load_model", _loaded)
    for name in ("align_corpus", "viterbi_align", "symmetrize_links", "write_pharaoh",
                 "read_pharaoh", "corpus_perplexity"):
        tracer.wrap(align, name, f"align.{name}")
    tracer.wrap(lexicon, "build_translation_table", "lexicon.build_translation_table", _table)
    tracer.wrap(lexicon, "load_table", "lexicon.load_table", _table)
    tracer.wrap(lexicon, "save_table", "lexicon.save_table")
    for name in ("annotate_gazetteer", "annotate_corpus", "write_annotations",
                 "read_annotations", "resolve_hypernym"):
        tracer.wrap(link, name, f"link.{name}")
    for name in ("tag_corpus", "write_tagged", "read_manifest", "detag"):
        tracer.wrap(template, name, f"template.{name}")
    for name in ("bleu", "copy_accuracy", "pos_accuracy", "significance"):
        tracer.wrap(metrics, name, f"metrics.{name}")


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def main(argv) -> int:
    action, workload, seed, fixture, out, trace, result_path = argv
    seed = int(seed)
    fixture, out = Path(fixture), Path(out)
    result: dict = {}
    if action == "setup":
        fixture.mkdir(parents=True)
        t0 = time.perf_counter()
        getattr(workloads, f"setup_{workload}")(fixture, seed)
        result["setup_s"] = time.perf_counter() - t0
        result["digest"] = workloads.digest(p for p in fixture.iterdir() if p.is_file())
    elif action == "verify":
        out.mkdir(parents=True)
        result["problems"] = []
        verify = getattr(workloads, f"verify_{workload}", None)
        if verify is not None:
            verify(fixture, out, result["problems"])
    else:
        out.mkdir(parents=True)
        ctx = Context(trace != "off")
        run = getattr(workloads, f"run_{workload}")
        tracer = Tracer(f"{workload}:{seed}:{out.name}", memory=trace == "memory")
        if trace != "off":
            install(tracer)
        with tracer:
            cpu0 = _cpu()
            t0 = time.perf_counter()
            if trace == "off":
                run(fixture, out, ctx)
            else:
                with tracer.span("bench.pass"):
                    run(fixture, out, ctx)
            wall = time.perf_counter() - t0
            cpu = _cpu() - cpu0
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        problems: list[str] = []
        counts = dict(ctx.counts)
        result["digest"] = getattr(workloads, f"check_{workload}")(fixture, out, problems, counts)
        result.update(
            wall_s=wall,
            cpu_s=cpu,
            peak_rss_mb=rss_mb,
            problems=problems,
            counts={**counts, **tracer.counters},
        )
        if trace != "off":
            result["spans"] = tracer.summary()
            tracer.dump(ROOT / "perfbench" / "work" / f"spans-{workload}-{seed}-{out.name}.jsonl")
        if ctx.latencies:
            ms = sorted(x * 1000.0 for x in ctx.latencies)
            result["latency_ms"] = {"p50": statistics.median(ms),
                                    "p99": ms[min(len(ms) - 1, int(0.99 * len(ms)))],
                                    "n": len(ms)}
    with open(result_path, "w", encoding="utf-8") as f:
        json.dump(result, f)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
