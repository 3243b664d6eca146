"""Command-line entry point.

Subcommands mirror the pipeline stages (split, align-train, align-apply,
symmetrize, lexicon-build, link-annotate, link-hypernyms, tag-apply,
detag, eval-bleu, eval-copy, eval-pos) plus pipeline-run, which chains
align -> lexicon -> link -> tag from one config file and writes a stage
manifest with a content hash per artifact.
"""

import argparse
import functools
import gc
import json
import logging
import operator
import os
import sys
from contextlib import contextmanager, suppress
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
    LineRows,
    NormProfile,
    read_lines,
    read_parallel,
    read_records,
    split_holdout,
    tokenize_normalize,
    write_lines,
    write_parallel,
)
from .errors import (ConfigError, CountMismatch, EmptyCorpus, LengthMismatch, MalformedFile,
                     ToolkitError)

log = logging.getLogger(__name__)


def _profile(args) -> NormProfile:
    return NormProfile(lowercase=not args.no_lowercase, strip_accents=not args.keep_accents)


def _add_profile_flags(p):
    p.add_argument("--no-lowercase", action="store_true", help="keep letter case")
    p.add_argument("--keep-accents", action="store_true", help="keep combining accents")


def read_token_lines(path) -> LineRows:
    """A tokenized file read verbatim (no normalization): a read-only
    sequence whose row k is line k split on whitespace, split each time it
    is read (see :class:`~tagcopy.corpus.LineRows`)."""
    return LineRows(read_lines(path))


def write_token_lines(rows, path) -> None:
    write_lines(path, map(" ".join, rows))


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


def _decode_and_write(model: align.AlignModel, corpus, path) -> None:
    align.write_pharaoh(align.align_corpus(model, corpus), path)


def _align_direction(corpus, params: AlignerParams, direction: str, model_path,
                     align_path) -> list[float]:
    """Train, prune, save, decode and write one direction; returns only its
    perplexity history, so a forked job sends back no links."""
    model = _train_and_save(corpus, params, direction, model_path)
    _decode_and_write(model, corpus, align_path)
    return model.perplexity_history


class ChildDied(OSError):
    """A forked stage process ended without sending its result."""


@contextmanager
def _forked(what: str, job, *args):
    """Run ``job(*args)`` in a child forked by multiprocessing while the
    block runs, and yield a function that waits for it and returns the job's
    result or raises its ToolkitError or OSError; ChildDied, naming ``what``,
    if it ends without a result. Only the result is sent: the child
    inherits its inputs. Leaving the block first kills the child, which is
    always joined. Without ``os.fork`` the job runs in-process when asked.
    """
    if not hasattr(os, "fork"):
        yield lambda: job(*args)
        return
    import multiprocessing  # here: only pipeline-run forks

    context = multiprocessing.get_context("fork")  # by name: other methods serialize the inputs
    receive, send = context.Pipe(duplex=False)
    with receive, send:
        child = context.Process(target=_child, args=(send, job, args))
        child.start()
        send.close()  # the child holds the only send end, so its exit ends a receive

        def result():
            ok = value = None
            with suppress(EOFError):  # the child ended without sending
                ok, value = receive.recv()
            child.join()
            if ok is None or child.exitcode != 0:  # the child exits 0 once the result is sent
                raise ChildDied(f"the process running the {what} ended without a result "
                                f"(exit code {child.exitcode})")
            if not ok:
                raise value
            return value

        try:
            yield result
        finally:
            child.kill()  # a no-op once the child is joined
            child.join()


def _child(send, job, args) -> None:
    """Send ``(True, result)`` or ``(False, error)``; multiprocessing prints
    any other exception, a bug, and exits 1 without a result."""
    try:
        send.send((True, job(*args)))
    except (ToolkitError, OSError) as exc:
        send.send((False, exc))


def _symmetrize_and_write(fwd_path, rev_path, heuristic: str, path) -> None:
    """Merge the link files at ``fwd_path`` and ``rev_path`` row by row into
    ``path``; each merged set is written as it is made."""
    fwd = align.read_pharaoh(fwd_path)
    rev = align.read_pharaoh(rev_path)
    if len(fwd) != len(rev):
        raise LengthMismatch(f"{fwd_path} has {len(fwd)} rows but {rev_path} has {len(rev)}")
    align.write_pharaoh((align.symmetrize_links(f, r, heuristic) for f, r in zip(fwd, rev)), path)


def _build_and_save_table(corpus, alignments, min_count: int, path) -> lexicon.TranslationTable:
    table = lexicon.build_translation_table(corpus, alignments, min_count)
    lexicon.save_table(table, path)
    return table


def _make_annotator(linker: LinkerParams, profile: NormProfile):
    """Returns (annotate(sentences) -> list of mention lists) for sentences
    normalized with ``profile``."""
    if linker.mode == "gazetteer":
        gaz = link.Gazetteer.from_tsv(linker.gazetteer, profile)
        return lambda sentences: [link.annotate_gazetteer(s, gaz) for s in sentences]
    client = link.SpotlightClient(linker.endpoint, linker.confidence)
    return lambda sentences: link.annotate_corpus(client, sentences)


def _read_sources(src_path, profile) -> dict:
    """The source lines that are not empty after normalization, by line
    number: the lines the link stage annotates."""
    sentences = {}
    for i, raw in enumerate(read_lines(src_path)):
        if tokens := tokenize_normalize(raw, profile):
            sentences[i] = tokens
    return sentences


def _annotate_and_write(sentences: dict, linker: LinkerParams, profile: NormProfile, resolver,
                        path) -> dict:
    """Annotate the source ``sentences`` normalized with ``profile``, by line
    number, whether or not their pairs survive ``read_parallel``, fill
    missing hypernyms from ``resolver`` if one is given, and write one row
    per line. Returns the mentions by line number."""
    by_line = dict(zip(sentences, _make_annotator(linker, profile)(list(sentences.values()))))
    if resolver is not None:
        link.fill_hypernyms(by_line.values(), resolver)
    link.write_annotations(path, list(by_line.items()))
    return by_line


def _tag_and_write(corpus, by_line: dict, alignments, table, vocab, outputs: dict) -> dict:
    """Join the annotations ``by_line`` to the pairs by line_no, select the
    bundles once, and write each method to its ``outputs[method]`` (src,
    tgt, manifest) paths. Returns the pair counts of the selection, which
    every method renders."""
    annotations = [by_line.get(pair.line_no, []) for pair in corpus.pairs]
    selected = template.select_bundles(corpus, annotations, alignments, table)
    template.write_tagged(corpus, selected, outputs, vocab)
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
    _symmetrize_and_write(args.fwd, args.rev, args.heuristic, args.out)
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
    profile = _profile(args)
    by_line = _annotate_and_write(_read_sources(args.src, profile), linker, profile, None,
                                  args.out)
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
    reads_table = template.METHODS[method].reads_table
    if reads_table and not args.table:
        raise ConfigError(f"missing required option --table (needed by method {method.value!r})")
    vocab = parse_vocab(args.vocab)
    # a method whose rule reads no table ignores a --table it is given
    table = lexicon.load_table(args.table) if reads_table else lexicon.TranslationTable({})
    # read whole before --out is opened, so an input that is not UTF-8
    # leaves no output; each line is then written as it is detagged
    rows = read_token_lines(args.infile)
    incidents = 0

    def detagged(row):
        nonlocal incidents
        out, bad = template.detag(row, method, table, vocab)
        incidents += bad
        return out

    write_token_lines(map(detagged, rows), args.out)
    if incidents:
        log.warning("%d malformed tag region(s) encountered", incidents)
    return 0


def _manifest_subset(path) -> set[int]:
    """The line numbers of a manifest's records; the bundles are not read."""
    return set(read_records(path, lambda record: operator.index(record["line_no"])))


def cmd_eval_bleu(args) -> int:
    subset = None
    if args.subset == "tag-only":
        if not args.manifest:
            raise ConfigError("missing required option --manifest (subset is 'tag-only')")
        subset = _manifest_subset(args.manifest)
    hyps = read_token_lines(args.hyp)
    refs = read_token_lines(args.ref)
    if len(hyps) != len(refs):
        raise CountMismatch(f"{args.hyp} has {len(hyps)} lines but {args.ref} has {len(refs)}")
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


def _scored_manifest(path) -> list[template.ManifestEntry]:
    if manifest := template.read_manifest(path):
        return manifest
    raise EmptyCorpus(f"{path} has no records: nothing to score")


def cmd_eval_copy(args) -> int:
    manifest = _scored_manifest(args.manifest)
    methods = {entry.method for entry in manifest}
    if args.method:
        method = parse_method(args.method)
    elif len(methods) == 1:
        method = methods.pop()
    else:
        raise ConfigError(f"--method is required: {args.manifest} mixes methods "
                          f"{sorted(m.value for m in methods)}")
    outputs = read_token_lines(args.outputs)
    with _naming(args.manifest, CountMismatch):
        report = metrics.copy_accuracy(manifest, outputs, method)
    print(metrics.format_copy_report(report))
    if args.tsv:
        metrics.write_copy_tsv(report, args.tsv)
    return 0


def cmd_eval_pos(args) -> int:
    # --src is read first, while nothing else is held, for its token counts
    # alone; the other inputs keep their lines, every line checked here, and
    # a row is split, or a link set built, when pos_accuracy reads it
    src_lengths = [len(line.split()) for line in read_lines(args.src)]
    manifest = _scored_manifest(args.manifest)
    alignments = align.read_pharaoh(args.alignments)
    system_outputs = read_token_lines(args.system)
    baseline_outputs = read_token_lines(args.baseline)
    references = read_token_lines(args.ref)
    pos_tags = read_token_lines(args.pos)
    for path, rows in ((args.pos, pos_tags), (args.alignments, alignments),
                       (args.ref, references), (args.system, system_outputs),
                       (args.baseline, baseline_outputs)):
        if len(rows) != len(src_lengths):
            raise CountMismatch(
                f"{path} has {len(rows)} rows but {args.src} has {len(src_lengths)}"
            )
    for k, (tags, n_tokens) in enumerate(zip(pos_tags, src_lengths), 1):
        if len(tags) != n_tokens:
            raise CountMismatch(
                f"{args.pos}:{k}: {len(tags)} POS tags for {n_tokens} source tokens"
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
    import hashlib  # here: only pipeline-run hashes, and the import costs about 3.6 MB

    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def cmd_pipeline_run(args) -> int:
    cfg = load_config(args.config)
    if args.workdir:
        cfg.workdir = args.workdir
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
        # the reverse direction runs in a child while this process aligns the
        # forward one and then, as it reads no alignment, runs the link stage;
        # numpy is imported first, so the child shares it. Each later stage
        # reads the links back from the files written before it, as its
        # subcommand does
        import numpy  # noqa: F401
        fwd_paths = artifact("align/model.fwd.tsv"), artifact("align/fwd.align")
        rev_paths = artifact("align/model.rev.tsv"), artifact("align/rev.align")
        with _forked(f"{align.REVERSE} alignment", _align_direction, corpus, cfg.aligner,
                     align.REVERSE, *rev_paths) as rev:
            _log_perplexity(_align_direction(corpus, cfg.aligner, align.FORWARD, *fwd_paths))

            stage = "link"
            hypernyms = cfg.linker.hypernyms
            resolver = link.OfflineHypernyms.from_tsv(hypernyms) if hypernyms else None
            by_line = _annotate_and_write(
                _read_sources(cfg.src, cfg.profile), cfg.linker, cfg.profile, resolver,
                artifact("link/annotations.jsonl"),
            )

            stage = "align"
            _log_perplexity(rev())
        sym_path = artifact("align/sym.align")
        _symmetrize_and_write(fwd_paths[1], rev_paths[1], cfg.aligner.heuristic, sym_path)
        sym = align.read_pharaoh(sym_path)

        stage = "lexicon"
        table = _build_and_save_table(corpus, sym, cfg.min_count, artifact("lexicon/table.tsv"))
        log.info("[lexicon] %d entries", len(table))

        stage = "tag"
        outputs = {method: [artifact(f"tagged/{method.value}.{x}")
                            for x in ("src", "tgt", "manifest.jsonl")] for method in cfg.methods}
        stats = _tag_and_write(corpus, by_line, sym, table, cfg.vocab, outputs)
        log.info("[tag] %d/%d pairs tagged", stats["tagged_pairs"], stats["total_pairs"])
    except (ToolkitError, ChildDied) as exc:
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
    write_lines(workdir / "stage_manifest.json",
                [json.dumps(manifest, indent=2, sort_keys=True, ensure_ascii=False)])
    print(f"wrote {len(artifacts)} artifacts under {workdir}")
    return 0


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: ``parse_args``
    returns a new namespace on every call and no argument keeps state."""
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
    p.add_argument("--method")
    p.set_defaults(func=cmd_pipeline_run)

    return parser


def main(argv=None) -> int:
    # The stages build lists, tuples, sets, dicts, frozen dataclasses and
    # arrays that form no reference cycle, so reference counting frees them
    # all; the cyclic collector would only rescan them. It is off until the
    # subcommand returns, and the state found at entry is then restored.
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        logging.basicConfig(level=logging.INFO, format="%(levelname)s %(name)s: %(message)s")
        return args.func(args)
    except (ToolkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        if gc_was_enabled:
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
