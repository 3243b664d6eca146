"""The three benchmark workloads: set-up, one timed pass, and output checks.

``check_<workload>`` checks the outputs of one pass. ``verify_score`` holds
the one check that depends on the fixture alone and runs once per run.

Each function runs inside a fresh worker process and drives the toolkit
through ``cli.main`` wherever a subcommand exists. Remote annotation has no
way to take a transport from the CLI, so the ``apply`` pass drives
``link.SpotlightClient`` and ``link.annotate_corpus`` directly with the
in-process transport below.

    prep   pipeline-run over a training corpus, gazetteer linker, 7 methods:
           EM alignment does most of the work
    apply  decode a held-out split with models trained in set-up, annotate
           it remotely, tag it with all 7 methods: model load, Viterbi and
           the annotator client do the work, EM does none
    score  detag and evaluate simulated model outputs for all 7 methods:
           detagging and the metrics do the work
"""

import hashlib
import json
import logging
import os
import threading
import time
from pathlib import Path

import gen
from tagcopy import cli, corpus, link

METHODS = ("baseline", "tag", "add", "trans", "transa", "transr", "hypa")
VOCAB = {"start": "<special2>", "mid1": "<special3>", "mid2": "<special4>", "end": "<special5>"}

# Sizes follow the 2,000-pair Zipfian corpus of the profiling run that
# motivated this benchmark: prep and apply train on 2,000 pairs, score
# evaluates 2,000, and the apply held-out split repeats that run's duplicate
# mix, 2,605 lines of which about 2,000 are unique (605 / 2,605 = 23%
# repeats, split 2:3 between adjacent and far). At this size a prep pass
# takes about 4 s on a 2-vCPU machine, so a 30 s run holds several passes.
PREP = gen.CorpusSpec(pairs=2000, empty_share=0.01)
APPLY_TRAIN = gen.CorpusSpec(pairs=2000)
APPLY_HELDOUT = gen.CorpusSpec(pairs=2605, adjacent_dup_share=0.093, far_dup_share=0.139,
                               empty_share=0.01)
SCORE = gen.CorpusSpec(pairs=2000, entity_density=0.5)
# Fixed annotator service time per request: a local annotator rather than
# one across a network, long enough that annotation, not Viterbi, leads
# the apply pass.
SERVICE_TIME_S = 0.002


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def _cli(*argv) -> None:
    code = cli.main([str(a) for a in argv])
    if code != 0:
        raise RuntimeError(f"tagcopy {argv[0]} exited with {code}")


def _gazetteer(seed: int):
    return gen.make_gazetteer(f"{seed}:gazetteer")


def digest(paths) -> str:
    h = hashlib.sha256()
    for p in sorted(paths):
        h.update(Path(p).name.encode())
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _kept_lines(src_path, tgt_path) -> list[int]:
    """Original line numbers of the pairs the corpus reader keeps."""
    with open(src_path, encoding="utf-8") as fs, open(tgt_path, encoding="utf-8") as ft:
        return [i for i, (s, t) in enumerate(zip(fs, ft)) if s.split() and t.split()]


def _eligible(mentions_path) -> set[tuple[int, int, int]]:
    """Planted (line, start, end) with a hypernym, i.e. taggable."""
    return {
        (line, m["start"], m["end"])
        for line, ms in gen.read_mentions(mentions_path).items()
        for m in ms if m["hypernym"]
    }


def _manifest_spans(path, kept: list[int]) -> set[tuple[int, int, int]]:
    """(original line, src start, src end) of every bundle in a manifest."""
    out = set()
    with open(path, encoding="utf-8") as f:
        for record in map(json.loads, f):
            for b in record["bundles"]:
                out.add((kept[record["line_no"]], *b["src_span"]))
    return out


def _count_links(path) -> int:
    with open(path, encoding="utf-8") as f:
        return sum(len(line.split()) for line in f)


def _tag_checks(problems, counts, manifests, kept, eligible, exact: bool) -> None:
    """All methods tag the same (line, span) set, drawn from the planted
    taggable mentions (all of them when alignments are gold)."""
    sets = {m: _manifest_spans(p, kept) for m, p in manifests.items()}
    first = sets[METHODS[0]]
    for m, s in sets.items():
        if s != first:
            problems.append(f"method {m} tags a different (line, span) set than {METHODS[0]}")
    if not first:
        problems.append("nothing was tagged")
    if not first <= eligible:
        problems.append(f"{len(first - eligible)} tagged spans are not planted taggable mentions")
    if exact and first != eligible:
        problems.append(f"tagged {len(first)} spans, planted {len(eligible)} taggable mentions")
    with open(manifests[METHODS[0]], encoding="utf-8") as f:
        counts["template.tagged_pairs"] = sum(1 for _ in f)
    counts["link.projectable"] = len(first)


def _funnel(counts, annotations_path) -> None:
    found = with_hyp = 0
    with open(annotations_path, encoding="utf-8") as f:
        for record in map(json.loads, f):
            found += len(record["mentions"])
            with_hyp += sum(1 for m in record["mentions"] if m["uri"] and m["hypernym"])
    counts["link.mentions_found"] = found
    counts["link.with_hypernym"] = with_hyp


# ---------------------------------------------------------------------------
# prep


def setup_prep(fx: Path, seed: int) -> None:
    gaz = _gazetteer(seed)
    gen.write_gazetteer(fx, gaz)
    gen.write_corpus(fx, "train", gen.make_corpus(PREP, f"{seed}:prep", gaz))
    with open(fx / "config.yaml", "w", encoding="utf-8") as f:
        json.dump({  # JSON is YAML
            "src": str(fx / "train.src"), "tgt": str(fx / "train.tgt"),
            "workdir": str(fx / "unused"), "seed": seed,
            "linker": {"mode": "gazetteer", "gazetteer": str(fx / "gazetteer.tsv")},
            "tagging": {"methods": list(METHODS), "vocab": "special"},
        }, f)


def run_prep(fx: Path, out: Path, ctx) -> None:
    _cli("pipeline-run", "--config", fx / "config.yaml", "--workdir", out)


def check_prep(fx: Path, out: Path, problems, counts) -> str:
    with open(out / "stage_manifest.json", encoding="utf-8") as f:
        manifest = json.load(f)
    for rel, sha in manifest["artifacts"].items():
        if hashlib.sha256((out / rel).read_bytes()).hexdigest() != sha:
            problems.append(f"stage manifest hash of {rel} does not match the file")
    kept = _kept_lines(fx / "train.src", fx / "train.tgt")
    manifests = {m: out / "tagged" / f"{m}.manifest.jsonl" for m in METHODS}
    _tag_checks(problems, counts, manifests, kept, _eligible(fx / "train.mentions.jsonl"), False)
    _funnel(counts, out / "link" / "annotations.jsonl")
    for name in ("fwd", "rev", "sym"):
        counts[f"align.links_{name}"] = _count_links(out / "align" / f"{name}.align")
    return hashlib.sha256(json.dumps(manifest["artifacts"], sort_keys=True).encode()).hexdigest()


# ---------------------------------------------------------------------------
# apply


def setup_apply(fx: Path, seed: int) -> None:
    gaz = _gazetteer(seed)
    gen.write_gazetteer(fx, gaz)
    gen.write_corpus(fx, "train", gen.make_corpus(APPLY_TRAIN, f"{seed}:train", gaz))
    gen.write_corpus(fx, "heldout", gen.make_corpus(APPLY_HELDOUT, f"{seed}:heldout", gaz))
    src, tgt = fx / "train.src", fx / "train.tgt"
    for d in ("fwd", "rev"):
        _cli("align-train", "--src", src, "--tgt", tgt, "--direction", d,
             "--model-out", fx / f"model.{d}.tsv")
        _cli("align-apply", "--model", fx / f"model.{d}.tsv", "--src", src, "--tgt", tgt,
             "--out", fx / f"train.{d}.align")
    _cli("symmetrize", "--fwd", fx / "train.fwd.align", "--rev", fx / "train.rev.align",
         "--out", fx / "train.sym.align")
    _cli("lexicon-build", "--src", src, "--tgt", tgt, "--alignments", fx / "train.sym.align",
         "--out", fx / "table.tsv")


class GazetteerTransport:
    """In-process stand-in for a Spotlight-style annotate endpoint.

    Answers from the gazetteer file by greedy longest match after a fixed
    service time, and counts calls under a lock. It shares no code with the
    toolkit's own gazetteer annotator.
    """

    def __init__(self, gazetteer_tsv: Path, service_time: float):
        self.entries = {}
        with open(gazetteer_tsv, encoding="utf-8") as f:
            for line in f:
                surface, uri, _ = line.rstrip("\n").split("\t")
                self.entries[tuple(surface.split())] = uri
        self.max_len = max(len(k) for k in self.entries)
        self.service_time = service_time
        self.calls = 0
        self.texts: set[str] = set()
        self._lock = threading.Lock()

    def __call__(self, url: str, params: dict):
        with self._lock:
            self.calls += 1
            self.texts.add(params["text"])
        time.sleep(self.service_time)
        tokens = params["text"].split(" ")
        offsets = [0]
        for tok in tokens:
            offsets.append(offsets[-1] + len(tok) + 1)
        resources = []
        i = 0
        while i < len(tokens):
            for width in range(min(self.max_len, len(tokens) - i), 0, -1):
                uri = self.entries.get(tuple(tokens[i:i + width]))
                if uri is not None:
                    resources.append({"@URI": uri, "@surfaceForm": " ".join(tokens[i:i + width]),
                                      "@offset": str(offsets[i])})
                    i += width
                    break
            else:
                i += 1
        return 200, json.dumps({"Resources": resources})


def run_apply(fx: Path, out: Path, ctx) -> None:
    src, tgt = fx / "heldout.src", fx / "heldout.tgt"
    for d in ("fwd", "rev"):
        _cli("align-apply", "--model", fx / f"model.{d}.tsv", "--src", src, "--tgt", tgt,
             "--out", out / f"{d}.align")
    _cli("symmetrize", "--fwd", out / "fwd.align", "--rev", out / "rev.align",
         "--out", out / "sym.align")
    pairs = corpus.read_parallel(src, tgt).pairs
    transport = GazetteerTransport(fx / "gazetteer.tsv", SERVICE_TIME_S)
    client = link.SpotlightClient("http://annotator.invalid/rest/annotate", transport=transport)
    if ctx.latencies is not None:
        annotate = client.annotate

        def timed(sentence):
            t0 = time.perf_counter()
            result = annotate(sentence)
            ctx.latencies.append(time.perf_counter() - t0)
            return result

        client.annotate = timed
    mention_lists = link.annotate_corpus(client, [p.src for p in pairs], max_in_flight=nproc())
    link.write_annotations(out / "remote.jsonl",
                           [(p.line_no, m) for p, m in zip(pairs, mention_lists)])
    _cli("link-hypernyms", "--annotations", out / "remote.jsonl",
         "--hypernyms", fx / "hypernyms.tsv", "--out", out / "annotations.jsonl")
    for m in METHODS:
        _cli("tag-apply", "--src", src, "--tgt", tgt, "--annotations", out / "annotations.jsonl",
             "--alignments", out / "sym.align", "--table", fx / "table.tsv", "--method", m,
             "--out-src", out / f"{m}.src", "--out-tgt", out / f"{m}.tgt",
             "--manifest", out / f"{m}.manifest.jsonl")
    ctx.counts["link.requests"] = transport.calls
    ctx.counts["link.sentences"] = len(pairs)
    ctx.counts["link.unique_sentences"] = len(transport.texts)


def check_apply(fx: Path, out: Path, problems, counts) -> str:
    planted = gen.read_mentions(fx / "heldout.mentions.jsonl")
    with open(out / "annotations.jsonl", encoding="utf-8") as f:
        for record in map(json.loads, f):
            got = [(m["start"], m["end"], m["uri"], m["hypernym"]) for m in record["mentions"]]
            want = [(m["start"], m["end"], m["uri"], m["hypernym"])
                    for m in planted.get(record["line_no"], [])]
            if got != want:
                problems.append(f"line {record['line_no']}: mentions {got} != planted {want}")
                break
    kept = _kept_lines(fx / "heldout.src", fx / "heldout.tgt")
    manifests = {m: out / f"{m}.manifest.jsonl" for m in METHODS}
    _tag_checks(problems, counts, manifests, kept, _eligible(fx / "heldout.mentions.jsonl"), False)
    _funnel(counts, out / "annotations.jsonl")
    for name in ("fwd", "rev", "sym"):
        counts[f"align.links_{name}"] = _count_links(out / f"{name}.align")
    counts["link.cache_hits"] = counts["link.sentences"] - counts["link.requests"]
    outputs = [out / f"{n}.align" for n in ("fwd", "rev", "sym")] + [out / "annotations.jsonl"]
    outputs += [out / f"{m}.{ext}" for m in METHODS for ext in ("src", "tgt", "manifest.jsonl")]
    return digest(outputs)


# ---------------------------------------------------------------------------
# score


def setup_score(fx: Path, seed: int) -> None:
    gaz = _gazetteer(seed)
    gen.write_gazetteer(fx, gaz)
    gen.write_corpus(fx, "test", gen.make_corpus(SCORE, f"{seed}:test", gaz))
    src, tgt = fx / "test.src", fx / "test.tgt"
    _cli("lexicon-build", "--src", src, "--tgt", tgt, "--alignments", fx / "test.align",
         "--out", fx / "table.tsv")
    _cli("link-annotate", "--src", src, "--gazetteer", fx / "gazetteer.tsv",
         "--out", fx / "annotations.jsonl")
    planted = {}
    for m in METHODS:
        _cli("tag-apply", "--src", src, "--tgt", tgt, "--annotations", fx / "annotations.jsonl",
             "--alignments", fx / "test.align", "--table", fx / "table.tsv", "--method", m,
             "--out-src", fx / f"{m}.src", "--out-tgt", fx / f"{m}.tgt",
             "--manifest", fx / f"{m}.manifest.jsonl")
        tagged = cli.read_token_lines(fx / f"{m}.tgt")
        outputs, planted[m] = gen.simulate_outputs(tagged, m, VOCAB, gaz, f"{seed}:{m}")
        gen.write_lines(fx / f"{m}.out", outputs)
    with open(fx / "planted.json", "w", encoding="utf-8") as f:
        json.dump(planted, f, indent=1, sort_keys=True)


class _IncidentLog(logging.Handler):
    """Collects the detag subcommand's malformed-region count."""

    def __init__(self):
        super().__init__(logging.WARNING)
        self.incidents = 0

    def emit(self, record):
        if "malformed tag region" in record.msg:
            self.incidents += record.args[0]


def run_score(fx: Path, out: Path, ctx) -> None:
    ref, manifest = fx / "test.tgt", lambda m: fx / f"{m}.manifest.jsonl"
    handler = _IncidentLog()
    logging.getLogger("tagcopy.cli").addHandler(handler)
    try:
        for m in METHODS:
            handler.incidents = 0
            _cli("detag", "--in", fx / f"{m}.out", "--method", m, "--table", fx / "table.tsv",
                 "--out", out / f"{m}.det")
            ctx.counts[f"incidents.{m}"] = handler.incidents
            _cli("eval-bleu", "--hyp", out / f"{m}.det", "--ref", ref, "--tsv", out / f"{m}.bleu")
            _cli("eval-bleu", "--hyp", out / f"{m}.det", "--ref", ref, "--subset", "tag-only",
                 "--manifest", manifest(m), "--tsv", out / f"{m}.tag-bleu")
            _cli("eval-copy", "--outputs", fx / f"{m}.out", "--manifest", manifest(m),
                 "--tsv", out / f"{m}.copy")
        for m in METHODS:
            _cli("eval-pos", "--system", out / f"{m}.det", "--baseline", out / "baseline.det",
                 "--manifest", manifest(m), "--pos", fx / "test.pos", "--alignments",
                 fx / "test.align", "--ref", ref, "--src", fx / "test.src",
                 "--out", out / f"{m}.pos")
    finally:
        logging.getLogger("tagcopy.cli").removeHandler(handler)


def _tsv_rows(path) -> list[list[str]]:
    with open(path, encoding="utf-8") as f:
        return [line.rstrip("\n").split("\t") for line in f][1:]


def check_score(fx: Path, out: Path, problems, counts) -> str:
    with open(fx / "planted.json", encoding="utf-8") as f:
        planted = json.load(f)
    kept = list(range(SCORE.pairs))
    manifests = {m: fx / f"{m}.manifest.jsonl" for m in METHODS}
    _tag_checks(problems, counts, manifests, kept, _eligible(fx / "test.mentions.jsonl"), True)
    counts["template.detag_incidents"] = 0
    for m in METHODS:
        want = planted[m]["expected"]
        got = {row[1]: int(row[2]) for row in _tsv_rows(out / f"{m}.copy") if row[0] == "breakdown"}
        for key in ("correct", "no_tag", "wrong_tag"):
            if got[key] != want[key]:
                problems.append(f"{m}: copy {key} = {got[key]}, planted {want[key]}")
        incidents = counts.pop(f"incidents.{m}")
        counts["template.detag_incidents"] += incidents
        if incidents != want["incidents"]:
            problems.append(f"{m}: {incidents} detag incidents, planted {want['incidents']}")
        if not _tsv_rows(out / f"{m}.pos"):
            problems.append(f"{m}: empty POS report")
    return digest(out.iterdir())


def verify_score(fx: Path, out: Path, problems) -> None:
    """Each method's unperturbed output, detagged, scores BLEU 100.

    This depends only on the fixture, not on a pass, so it runs once per
    run, after the passes (hypa is left out: its detag keeps the hypernym,
    so it cannot reach 100)."""
    for m in METHODS:
        if m == "hypa":
            continue
        _cli("detag", "--in", fx / f"{m}.tgt", "--method", m, "--table", fx / "table.tsv",
             "--out", out / f"{m}.det")
        _cli("eval-bleu", "--hyp", out / f"{m}.det", "--ref", fx / "test.tgt",
             "--tsv", out / f"{m}.bleu")
        score = float(_tsv_rows(out / f"{m}.bleu")[0][0])
        if score != 100.0:
            problems.append(f"{m}: unperturbed output scores BLEU {score}, not 100")
