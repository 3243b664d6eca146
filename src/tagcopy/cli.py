"""Command-line entry point.

Subcommands mirror the pipeline stages (split, align-train, align-apply,
symmetrize, lexicon-build, link-annotate, link-hypernyms, tag-apply,
detag, eval-bleu, eval-copy, eval-pos) plus pipeline-run, which chains
align -> lexicon -> link -> tag from one config file and writes a stage
manifest with a content hash per artifact.
"""

import argparse
import hashlib
import json
import logging
import operator
import os
import pickle
import signal
import sys
import traceback
from contextlib import contextmanager
from pathlib import Path

from . import align, lexicon, link, metrics, template
from .config import (
    AlignerParams,
    LinkerParams,
    PipelineConfig,
    check_linker,
    load_config,
    parse_method,
    parse_vocab,
)
from .corpus import (
    NormProfile,
    read_parallel,
    read_records,
    split_holdout,
    tokenize_normalize,
    write_parallel,
)
from .errors import ConfigError, CountMismatch, LengthMismatch, MalformedFile, ToolkitError

log = logging.getLogger(__name__)


def _profile(args) -> NormProfile:
    return NormProfile(lowercase=not args.no_lowercase, strip_accents=not args.keep_accents)


def _add_profile_flags(p):
    p.add_argument("--no-lowercase", action="store_true", help="keep letter case")
    p.add_argument("--keep-accents", action="store_true", help="keep combining accents")


def read_token_lines(path) -> list[list[str]]:
    """Read a tokenized file verbatim (no normalization), one line per row."""
    with open(path, encoding="utf-8") as f:
        return [line.split() for line in f.read().splitlines()]


def write_token_lines(rows, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(" ".join(row) + "\n")


@contextmanager
def _naming(path, error):
    """Prefix ``path`` to an ``error`` raised in the block: the file at fault."""
    try:
        yield
    except error as exc:
        exc.args = (f"{path}: {exc}",)
        raise


# ---------------------------------------------------------------------------
# stages, shared by their subcommands and pipeline-run


def _check_untagged(corpus, vocab: template.TagVocabulary, src_path, tgt_path) -> None:
    """Refuse a corpus whose kept lines already hold a token of ``vocab``:
    detag could not tell it from a tag the method wrote."""
    reserved = vocab.tokens()
    for pair in corpus.pairs:
        for path, tokens in ((src_path, pair.src), (tgt_path, pair.tgt)):
            if not reserved.isdisjoint(tokens):
                token = next(t for t in tokens if t in reserved)
                raise MalformedFile(
                    f"{path}:{pair.line_no + 1}: holds {token!r}, a token of the tag "
                    "vocabulary; --vocab or tagging.vocab selects another vocabulary"
                )


def _train_and_save(corpus, params: AlignerParams, direction: str, path) -> align.AlignModel:
    """Train, prune and save; the pruned model is returned, so a pipeline
    decodes exactly the model ``align-apply`` reloads."""
    model = align.prune_model(align.train_alignment(
        corpus,
        iterations=params.iterations,
        tension=params.tension,
        p0=params.p0,
        vb=params.vb,
        alpha=params.alpha,
        direction=direction,
    ))
    align.save_model(model, path)
    return model


def _log_perplexity(history) -> None:
    for k, perp in enumerate(history):
        log.info("iteration %d: perplexity %.4f", k, perp)


def _decode_and_write(model: align.AlignModel, corpus, path) -> list[set[tuple[int, int]]]:
    links = align.align_corpus(model, corpus)
    align.write_pharaoh(links, path)
    return links


def _align_direction(corpus, params: AlignerParams, direction: str, model_path, align_path):
    """Train, prune, save, decode and write one direction; returns its link
    sets and perplexity history."""
    model = _train_and_save(corpus, params, direction, model_path)
    return _decode_and_write(model, corpus, align_path), model.perplexity_history


class ChildDied(OSError):
    """A forked stage process ended without sending its result."""


@contextmanager
def _forked(what: str, job, *args):
    """Run ``job(*args)`` in a forked child while the block runs, and yield
    a function that waits for the child and returns the job's result, or
    raises the ToolkitError or OSError the job raised; ``what`` names the job
    when the child ends without a result (ChildDied). The child inherits its
    inputs, so nothing is pickled into it; the result comes back pickled
    through a pipe. The child is always reaped: leaving the block before
    asking for the result kills it. Without ``os.fork`` the job runs
    in-process when its result is asked for.
    """
    if not hasattr(os, "fork"):
        yield lambda: job(*args)
        return
    read_fd, write_fd = os.pipe()
    with os.fdopen(read_fd, "rb") as pipe, os.fdopen(write_fd, "wb") as out:
        pid = os.fork()
        if pid == 0:
            _child(job, args, out)
        out.close()  # the child holds the only write end, so its exit ends the read
        reaped = False

        def result():
            nonlocal reaped
            data = pipe.read()
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            reaped = True
            if code != 0 or not data:  # the child exits 0 once the result is sent
                raise ChildDied(f"the process running the {what} ended without a result "
                                f"(exit code {code})")
            ok, value = pickle.loads(data)
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            if not reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _child(job, args, out) -> None:
    """The forked child: run the job, send ``(True, result)`` or ``(False,
    error)`` to ``out`` and end with ``os._exit``, so nothing of the
    parent's clean-up runs twice."""
    code = 1
    try:
        try:
            reply = (True, job(*args))
        except (ToolkitError, OSError) as exc:
            reply = (False, exc)
        pickle.dump(reply, out, protocol=pickle.HIGHEST_PROTOCOL)
        out.close()
        code = 0
    except Exception:  # a bug: report it; the parent sees no result
        traceback.print_exc()
    finally:
        os._exit(code)


def _symmetrize_and_write(fwd, rev, heuristic: str, path) -> list[set[tuple[int, int]]]:
    merged = [align.symmetrize_links(f, r, heuristic) for f, r in zip(fwd, rev)]
    align.write_pharaoh(merged, path)
    return merged


def _build_and_save_table(corpus, alignments, min_count: int, path) -> lexicon.TranslationTable:
    table = lexicon.build_translation_table(corpus, alignments, min_count)
    lexicon.save_table(table, path)
    return table


def _make_annotator(linker: LinkerParams):
    """Returns (annotate(sentences) -> list of mention lists)."""
    if linker.mode == "gazetteer":
        gaz = link.Gazetteer.from_tsv(linker.gazetteer)
        return lambda sentences: [link.annotate_gazetteer(s, gaz) for s in sentences]
    client = link.SpotlightClient(linker.endpoint, linker.confidence)
    return lambda sentences: link.annotate_corpus(client, sentences)


def _annotate_and_write(src_path, profile, linker: LinkerParams, resolver, path) -> dict:
    """Annotate every source line that is not empty after normalization,
    whether or not its pair survives ``read_parallel``, fill missing
    hypernyms from ``resolver`` if one is given, and write one row per
    line. Returns the mentions by line number."""
    with open(src_path, encoding="utf-8") as f:
        lines = f.read().splitlines()
    sentences = {}
    for i, raw in enumerate(lines):
        if tokens := tokenize_normalize(raw, profile):
            sentences[i] = tokens
    by_line = dict(zip(sentences, _make_annotator(linker)(list(sentences.values()))))
    if resolver is not None:
        link.fill_hypernyms(by_line.values(), resolver)
    link.write_annotations(path, list(by_line.items()))
    return by_line


def _tag_and_write(corpus, by_line: dict, alignments, table, vocab, outputs: dict) -> dict:
    """Join the annotations ``by_line`` to the pairs by line_no, select the
    bundles once, and render and write each method to its ``outputs[method]``
    (src, tgt, manifest) paths. Returns the pair counts of the selection,
    which every method renders."""
    annotations = [by_line.get(pair.line_no, []) for pair in corpus.pairs]
    selected = template.select_bundles(corpus, annotations, alignments, table)
    for method, paths in outputs.items():
        template.write_tagged(template.tag_corpus(corpus, selected, method, vocab), *paths, vocab)
    total = len(selected)
    tagged = sum(1 for bundles in selected if bundles)
    return {"total_pairs": total, "tagged_pairs": tagged,
            "tag_fraction": tagged / total if total else 0.0}


# ---------------------------------------------------------------------------
# subcommands


def cmd_split(args) -> int:
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    train, valid, test = split_holdout(corpus, args.n_valid, args.n_test, args.seed)
    outdir = Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, part in (("train", train), ("valid", valid), ("test", test)):
        write_parallel(part, outdir / f"{name}.src", outdir / f"{name}.tgt")
        print(f"{name}: {len(part)} pairs")
    if corpus.dropped_count:
        log.info("dropped %d pairs with an empty side", corpus.dropped_count)
    return 0


def cmd_align_train(args) -> int:
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    direction = align.FORWARD if args.direction == "fwd" else align.REVERSE
    params = AlignerParams(iterations=args.iterations, tension=args.tension,
                           p0=args.p0, vb=args.vb, alpha=args.alpha)
    model = _train_and_save(corpus, params, direction, args.model_out)
    _log_perplexity(model.perplexity_history)
    print(f"final perplexity: {align.corpus_perplexity(model, corpus):.4f}")
    return 0


def cmd_align_apply(args) -> int:
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    _decode_and_write(align.load_model(args.model), corpus, args.out)
    return 0


def cmd_symmetrize(args) -> int:
    fwd = align.read_pharaoh(args.fwd)
    rev = align.read_pharaoh(args.rev)
    if len(fwd) != len(rev):
        raise LengthMismatch(f"{args.fwd} has {len(fwd)} rows but {args.rev} has {len(rev)}")
    _symmetrize_and_write(fwd, rev, args.heuristic, args.out)
    return 0


def cmd_lexicon_build(args) -> int:
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    alignments = align.read_pharaoh(args.alignments)
    with _naming(args.alignments, LengthMismatch):
        table = _build_and_save_table(corpus, alignments, args.min_count, args.out)
    print(f"{len(table)} table entries")
    return 0


def cmd_link_annotate(args) -> int:
    linker = LinkerParams(mode=args.mode, gazetteer=args.gazetteer, confidence=args.confidence,
                          endpoint=args.endpoint or os.environ.get("LINKER_ENDPOINT"))
    check_linker(linker)
    by_line = _annotate_and_write(args.src, _profile(args), linker, None, args.out)
    n = sum(1 for m in by_line.values() if m)
    print(f"annotated {n}/{len(by_line)} sentences with at least one mention")
    return 0


def cmd_link_hypernyms(args) -> int:
    if not args.hypernyms and not args.remote:
        raise ConfigError("missing required option --hypernyms (or pass --remote)")
    resolver = (
        link.OfflineHypernyms.from_tsv(args.hypernyms)
        if args.hypernyms
        else link.RemoteHypernyms(args.data_url)
    )
    annotations = link.read_annotations(args.annotations)
    filled = link.fill_hypernyms(annotations.values(), resolver)
    link.write_annotations(args.out, sorted(annotations.items()))
    print(f"filled {filled} hypernyms")
    return 0


def cmd_tag_apply(args) -> int:
    method = parse_method(args.method)
    if not args.table:
        raise ConfigError(f"missing required option --table (needed by method {method.value!r})")
    vocab = parse_vocab(args.vocab)
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    _check_untagged(corpus, vocab, args.src, args.tgt)
    by_line = link.read_annotations(args.annotations)
    lines = len(corpus.pairs) + corpus.dropped_count
    if outside := [n for n in by_line if not 0 <= n < lines]:
        raise MalformedFile(
            f"{args.annotations}: line_no {outside[0]} is outside the {lines} source lines"
        )
    alignments = align.read_pharaoh(args.alignments)
    table = lexicon.load_table(args.table)
    outputs = {method: (args.out_src, args.out_tgt, args.manifest)}
    with _naming(args.annotations, MalformedFile), _naming(args.alignments, LengthMismatch):
        stats = _tag_and_write(corpus, by_line, alignments, table, vocab, outputs)
    print(
        f"tagged {stats['tagged_pairs']}/{stats['total_pairs']} pairs "
        f"(fraction {stats['tag_fraction']:.4f})"
    )
    return 0


def cmd_detag(args) -> int:
    method = parse_method(args.method)
    if template.METHODS[method].reads_table and not args.table:
        raise ConfigError(f"missing required option --table (needed by method {method.value!r})")
    vocab = parse_vocab(args.vocab)
    table = lexicon.load_table(args.table) if args.table else lexicon.TranslationTable({})
    rows = read_token_lines(args.infile)
    out = []
    incidents = 0
    for row in rows:
        detagged, bad = template.detag(row, method, table, vocab)
        out.append(detagged)
        incidents += bad
    write_token_lines(out, args.out)
    if incidents:
        log.warning("%d malformed tag region(s) encountered", incidents)
    return 0


def _manifest_subset(path) -> set[int]:
    """The line numbers of a manifest's records; the bundles are not read."""
    return set(read_records(path, lambda record: operator.index(record["line_no"])))


def cmd_eval_bleu(args) -> int:
    hyps = read_token_lines(args.hyp)
    refs = read_token_lines(args.ref)
    if len(hyps) != len(refs):
        raise CountMismatch(f"{args.hyp} has {len(hyps)} lines but {args.ref} has {len(refs)}")
    subset = None
    if args.subset == "tag-only":
        if not args.manifest:
            raise ConfigError("missing required option --manifest (subset is 'tag-only')")
        subset = _manifest_subset(args.manifest)
    # with the line counts checked, a subset line outside the hypotheses is
    # the only CountMismatch left: a manifest made for another corpus
    with _naming(args.manifest, CountMismatch):
        result = metrics.bleu(hyps, refs, max_n=args.max_n, subset=subset)
    print(metrics.format_bleu(result))
    scored = "all" if subset is None else f"tag-only({len(subset)} lines)"
    print(f"BLEU signature: nrefs:1|max_n:{args.max_n}|tok:as-given|smooth:none|subset:{scored}")
    if args.tsv:
        metrics.write_bleu_tsv(result, args.tsv)
    return 0


def cmd_eval_copy(args) -> int:
    manifest = template.read_manifest(args.manifest)
    methods = {entry.method for entry in manifest}
    if args.method:
        method = parse_method(args.method)
    elif len(methods) == 1:
        method = methods.pop()
    else:
        raise ConfigError(
            f"--method is required: manifest mixes methods {sorted(m.value for m in methods)}"
        )
    outputs = read_token_lines(args.outputs)
    with _naming(args.manifest, CountMismatch):
        report = metrics.copy_accuracy(manifest, outputs, method)
    print(metrics.format_copy_report(report))
    if args.tsv:
        metrics.write_copy_tsv(report, args.tsv)
    return 0


def cmd_eval_pos(args) -> int:
    manifest = template.read_manifest(args.manifest)
    system_outputs = read_token_lines(args.system)
    baseline_outputs = read_token_lines(args.baseline)
    references = read_token_lines(args.ref)
    pos_tags = read_token_lines(args.pos)
    src = read_token_lines(args.src)
    alignments = align.read_pharaoh(args.alignments)
    for path, rows in ((args.pos, pos_tags), (args.alignments, alignments),
                       (args.ref, references), (args.system, system_outputs),
                       (args.baseline, baseline_outputs)):
        if len(rows) != len(src):
            raise CountMismatch(f"{path} has {len(rows)} rows but {args.src} has {len(src)}")
    for k, (tags, tokens) in enumerate(zip(pos_tags, src), 1):
        if len(tags) != len(tokens):
            raise CountMismatch(
                f"{args.pos}:{k}: {len(tags)} POS tags for {len(tokens)} source tokens"
            )
    # with the row counts checked, a record whose line_no is outside the inputs
    # is the only CountMismatch left
    with (_naming(args.manifest, (MalformedFile, CountMismatch)),
          _naming(args.alignments, LengthMismatch)):
        report = metrics.pos_accuracy(system_outputs, baseline_outputs, manifest, pos_tags,
                                      alignments, references, resamples=args.resamples,
                                      seed=args.seed)
    print(metrics.format_pos_report(report))
    if args.out:
        metrics.write_pos_tsv(report, args.out)
    return 0


# ---------------------------------------------------------------------------
# pipeline-run


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def cmd_pipeline_run(args) -> int:
    cfg = load_config(args.config)
    if args.workdir:
        cfg.workdir = args.workdir
    if args.seed is not None:
        cfg.seed = args.seed
    if args.method:
        cfg.methods = [parse_method(args.method)]
    workdir = Path(cfg.workdir)
    for sub in ("align", "lexicon", "link", "tagged"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    artifacts: list[Path] = []

    def artifact(rel: str) -> Path:
        artifacts.append(workdir / rel)
        return artifacts[-1]

    stage = "corpus"
    try:
        corpus = read_parallel(cfg.src, cfg.tgt, cfg.profile)
        _check_untagged(corpus, cfg.vocab, cfg.src, cfg.tgt)
        log.info("[corpus] %d pairs (%d dropped)", len(corpus), corpus.dropped_count)

        stage = "align"
        # the reverse direction runs in a child while this process runs the
        # forward one; numpy is imported first, so the child shares it
        import numpy  # noqa: F401
        fwd_paths = artifact("align/model.fwd.tsv"), artifact("align/fwd.align")
        rev_paths = artifact("align/model.rev.tsv"), artifact("align/rev.align")
        with _forked(f"{align.REVERSE} alignment", _align_direction, corpus, cfg.aligner,
                     align.REVERSE, *rev_paths) as rev:
            fwd_links, history = _align_direction(corpus, cfg.aligner, align.FORWARD, *fwd_paths)
            _log_perplexity(history)
            rev_links, history = rev()
            _log_perplexity(history)
        sym = _symmetrize_and_write(
            fwd_links, rev_links, cfg.aligner.heuristic, artifact("align/sym.align")
        )

        stage = "lexicon"
        table = _build_and_save_table(corpus, sym, cfg.min_count, artifact("lexicon/table.tsv"))
        log.info("[lexicon] %d entries", len(table))

        stage = "link"
        hypernyms = cfg.linker.hypernyms
        resolver = link.OfflineHypernyms.from_tsv(hypernyms) if hypernyms else None
        by_line = _annotate_and_write(
            cfg.src, cfg.profile, cfg.linker, resolver, artifact("link/annotations.jsonl")
        )

        stage = "tag"
        outputs = {method: [artifact(f"tagged/{method.value}.{x}")
                            for x in ("src", "tgt", "manifest.jsonl")] for method in cfg.methods}
        stats = _tag_and_write(corpus, by_line, sym, table, cfg.vocab, outputs)
        log.info("[tag] %d/%d pairs tagged", stats["tagged_pairs"], stats["total_pairs"])
    except ToolkitError as exc:
        exc.args = (f"[{stage}] {exc}",)
        raise

    manifest = {
        "seed": cfg.seed,
        "heuristic": cfg.aligner.heuristic,
        "methods": [m.value for m in cfg.methods],
        "stages": ["corpus", "align", "lexicon", "link", "tag"],
        "artifacts": {
            str(path.relative_to(workdir)): _sha256(path) for path in artifacts
        },
        "tag_stats": {m.value: stats for m in cfg.methods},
    }
    manifest_path = workdir / "stage_manifest.json"
    with open(manifest_path, "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True, ensure_ascii=False)
        f.write("\n")
    print(f"wrote {len(artifacts)} artifacts under {workdir}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tagcopy",
        description="corpus toolkit: word alignment, entity tagging templates, evaluation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("split", help="hold out valid/test pairs")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--n-valid", type=int, required=True)
    p.add_argument("--n-test", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--outdir", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_split)

    p = sub.add_parser("align-train", help="train the aligner in one direction")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--model-out", required=True)
    p.add_argument("--direction", choices=("fwd", "rev"), default="fwd")
    p.add_argument("--iterations", type=int, default=AlignerParams.iterations)
    p.add_argument("--tension", type=float, default=AlignerParams.tension)
    p.add_argument("--p0", type=float, default=AlignerParams.p0)
    p.add_argument("--vb", action="store_true", help="variational-Bayes M-step")
    p.add_argument("--alpha", type=float, default=AlignerParams.alpha)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_align_train)

    p = sub.add_parser("align-apply", help="decode alignments with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--out", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_align_apply)

    p = sub.add_parser("symmetrize", help="merge forward and reverse alignments")
    p.add_argument("--fwd", required=True)
    p.add_argument("--rev", required=True)
    p.add_argument("--heuristic", default=AlignerParams.heuristic, choices=align.HEURISTICS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("lexicon-build", help="extract the word translation table")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--min-count", type=int, default=PipelineConfig.min_count)
    p.add_argument("--out", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_lexicon_build)

    p = sub.add_parser("link-annotate", help="find entity mentions per sentence")
    p.add_argument("--src", required=True)
    p.add_argument("--mode", choices=("gazetteer", "remote"), default=LinkerParams.mode)
    p.add_argument("--gazetteer")
    p.add_argument("--endpoint")
    p.add_argument("--confidence", type=float, default=LinkerParams.confidence)
    p.add_argument("--out", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_link_annotate)

    p = sub.add_parser("link-hypernyms", help="fill missing mention hypernyms")
    p.add_argument("--annotations", required=True)
    p.add_argument("--hypernyms", help="offline uri->label TSV")
    p.add_argument("--remote", action="store_true")
    p.add_argument("--data-url", default="https://dbpedia.org/data")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_link_hypernyms)

    p = sub.add_parser("tag-apply", help="apply a tagging template to a corpus")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--annotations", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--table")
    p.add_argument("--method", required=True)
    p.add_argument("--vocab", help="special (the default) or plain")
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.add_argument("--manifest", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_tag_apply)

    p = sub.add_parser("detag", help="strip tags from raw model output")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True)
    p.add_argument(
        "--table",
        help="translation table, read by methods "
        + ", ".join(m.value for m, spec in template.METHODS.items() if spec.reads_table),
    )
    p.add_argument("--vocab", help="special (the default) or plain")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_detag)

    p = sub.add_parser("eval-bleu", help="corpus BLEU")
    p.add_argument("--hyp", required=True)
    p.add_argument("--ref", required=True)
    p.add_argument("--subset", choices=("all", "tag-only"), default="all")
    p.add_argument("--manifest")
    p.add_argument("--max-n", type=int, default=4)
    p.add_argument("--tsv")
    p.set_defaults(func=cmd_eval_bleu)

    p = sub.add_parser("eval-copy", help="copy accuracy against a tag manifest")
    p.add_argument("--outputs", required=True, help="raw model output, before detag")
    p.add_argument("--manifest", required=True)
    p.add_argument("--method")
    p.add_argument("--tsv")
    p.set_defaults(func=cmd_eval_copy)

    p = sub.add_parser("eval-pos", help="per-POS accuracy before/after the tag")
    p.add_argument("--system", required=True, help="detagged system output")
    p.add_argument("--baseline", required=True, help="detagged baseline output")
    p.add_argument("--manifest", required=True)
    p.add_argument("--pos", required=True, help="POS tags, 1:1 with source tokens")
    p.add_argument("--alignments", required=True, help="source-reference alignments")
    p.add_argument("--ref", required=True)
    p.add_argument("--src", required=True)
    p.add_argument("--resamples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write pos_report.tsv here")
    p.set_defaults(func=cmd_eval_pos)

    p = sub.add_parser("pipeline-run", help="align -> lexicon -> link -> tag from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--workdir")
    p.add_argument("--seed", type=int)
    p.add_argument("--method")
    p.set_defaults(func=cmd_pipeline_run)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
    try:
        return args.func(args)
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
