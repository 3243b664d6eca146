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
import os
import sys
from pathlib import Path

from . import align, lexicon, link, metrics, template
from .config import LinkerParams, load_config, parse_method, parse_vocab
from .corpus import (
    NormProfile,
    read_parallel,
    split_holdout,
    tokenize_normalize,
    write_parallel,
)
from .errors import ConfigError, CountMismatch, LengthMismatch, ToolkitError
from .template import TemplateMethod

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
    model = align.train_alignment(
        corpus,
        iterations=args.iterations,
        tension=args.tension,
        p0=args.p0,
        vb=args.vb,
        alpha=args.alpha,
        direction=direction,
    )
    for k, perp in enumerate(model.perplexity_history):
        log.info("iteration %d: perplexity %.4f", k, perp)
    align.save_model(model, args.model_out)
    print(f"final perplexity: {align.corpus_perplexity(model, corpus):.4f}")
    return 0


def cmd_align_apply(args) -> int:
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    model = align.load_model(args.model)
    vectors = align.align_corpus(model, corpus)
    align.write_pharaoh((align.vector_links(v, model.direction) for v in vectors), args.out)
    return 0


def cmd_symmetrize(args) -> int:
    fwd = align.read_pharaoh(args.fwd)
    rev = align.read_pharaoh(args.rev)
    if len(fwd) != len(rev):
        raise LengthMismatch(f"{args.fwd} has {len(fwd)} rows but {args.rev} has {len(rev)}")
    merged = [align.symmetrize_links(f, r, args.heuristic) for f, r in zip(fwd, rev)]
    align.write_pharaoh(merged, args.out)
    return 0


def cmd_lexicon_build(args) -> int:
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    alignments = align.read_pharaoh(args.alignments)
    table = lexicon.build_translation_table(corpus, alignments, args.min_count)
    lexicon.save_table(table, args.out)
    print(f"{len(table)} table entries")
    return 0


def _make_annotator(linker: LinkerParams):
    """Returns (annotate(sentences) -> list of mention lists)."""
    if linker.mode == "gazetteer":
        gaz = link.Gazetteer.from_tsv(linker.gazetteer)
        return lambda sentences: [link.annotate_gazetteer(s, gaz) for s in sentences]
    client = link.SpotlightClient(linker.endpoint, linker.confidence)
    return lambda sentences: link.annotate_corpus(client, sentences)


def cmd_link_annotate(args) -> int:
    endpoint = args.endpoint or os.environ.get("LINKER_ENDPOINT")
    if args.mode == "gazetteer" and not args.gazetteer:
        raise ConfigError("missing required option --gazetteer (mode is 'gazetteer')")
    if args.mode == "remote" and not endpoint:
        raise ConfigError(
            "missing required option --endpoint (mode is 'remote'; LINKER_ENDPOINT also accepted)"
        )
    profile = _profile(args)
    with open(args.src, encoding="utf-8") as f:
        lines = f.read().splitlines()
    sentences = []
    for i, raw in enumerate(lines):
        tokens = tokenize_normalize(raw, profile)
        if tokens:
            sentences.append((i, tokens))
    annotate = _make_annotator(
        LinkerParams(args.mode, args.gazetteer, None, endpoint, args.confidence)
    )
    mention_lists = annotate([s for _, s in sentences])
    link.write_annotations(args.out, [(i, m) for (i, _), m in zip(sentences, mention_lists)])
    n = sum(1 for m in mention_lists if m)
    print(f"annotated {n}/{len(sentences)} sentences with at least one mention")
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
    filled = 0
    for mentions in annotations.values():
        for m in mentions:
            if m.hypernym is None:
                m.hypernym = link.resolve_hypernym(m.uri, resolver)
                filled += m.hypernym is not None
    link.write_annotations(args.out, sorted(annotations.items()))
    print(f"filled {filled} hypernyms")
    return 0


def cmd_tag_apply(args) -> int:
    method = parse_method(args.method)
    if not args.table:
        raise ConfigError(f"missing required option --table (needed by method {method.value!r})")
    vocab = parse_vocab(args.vocab)
    corpus = read_parallel(args.src, args.tgt, _profile(args))
    by_line = link.read_annotations(args.annotations)
    annotations = [by_line.get(pair.line_no, []) for pair in corpus.pairs]
    alignments = align.read_pharaoh(args.alignments)
    table = lexicon.load_table(args.table)
    tagged, stats = template.tag_corpus(corpus, annotations, alignments, table, method, vocab)
    template.write_tagged(tagged, args.out_src, args.out_tgt, args.manifest, vocab)
    print(
        f"tagged {stats.tagged_pairs}/{stats.total_pairs} pairs "
        f"(fraction {stats.tag_fraction:.4f})"
    )
    return 0


def cmd_detag(args) -> int:
    method = parse_method(args.method)
    if method not in (TemplateMethod.BASELINE, TemplateMethod.HYPA) and not args.table:
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
    return {entry.line_no for entry in template.read_manifest(path)}


def cmd_eval_bleu(args) -> int:
    hyps = read_token_lines(args.hyp)
    refs = read_token_lines(args.ref)
    subset = None
    if args.subset == "tag-only":
        if not args.manifest:
            raise ConfigError("missing required option --manifest (subset is 'tag-only')")
        subset = _manifest_subset(args.manifest)
    result = metrics.bleu(hyps, refs, max_n=args.max_n, subset=subset)
    print(metrics.format_bleu(result))
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
    if len(pos_tags) != len(src):
        raise CountMismatch(f"{args.pos} has {len(pos_tags)} rows but {args.src} has {len(src)}")
    for k, (tags, tokens) in enumerate(zip(pos_tags, src)):
        if len(tags) != len(tokens):
            raise CountMismatch(
                f"line {k}: {len(tags)} POS tags for {len(tokens)} source tokens"
            )
    alignments = align.read_pharaoh(args.alignments)
    report = metrics.pos_accuracy(
        system_outputs,
        baseline_outputs,
        manifest,
        pos_tags,
        alignments,
        references,
        resamples=args.resamples,
        seed=args.seed,
    )
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
    tag_stats: dict[str, dict] = {}
    stage = "corpus"
    try:
        corpus = read_parallel(cfg.src, cfg.tgt, cfg.profile, cfg.src_lang, cfg.tgt_lang)
        log.info("[corpus] %d pairs (%d dropped)", len(corpus), corpus.dropped_count)

        stage = "align"
        ap = cfg.aligner
        sym = None
        vecs = {}
        for direction, name in ((align.FORWARD, "fwd"), (align.REVERSE, "rev")):
            model = align.train_alignment(
                corpus,
                iterations=ap.iterations,
                tension=ap.tension,
                p0=ap.p0,
                vb=ap.vb,
                alpha=ap.alpha,
                direction=direction,
            )
            log.info("[align] %s perplexity: %.4f", name, model.perplexity_history[-1])
            model_path = workdir / "align" / f"model.{name}.tsv"
            align.save_model(model, model_path)
            artifacts.append(model_path)
            vectors = align.align_corpus(model, corpus)
            vecs[name] = [align.vector_links(v, direction) for v in vectors]
            out = workdir / "align" / f"{name}.align"
            align.write_pharaoh(vecs[name], out)
            artifacts.append(out)
        sym = [
            align.symmetrize_links(f, r, ap.heuristic)
            for f, r in zip(vecs["fwd"], vecs["rev"])
        ]
        sym_path = workdir / "align" / "sym.align"
        align.write_pharaoh(sym, sym_path)
        artifacts.append(sym_path)

        stage = "lexicon"
        table = lexicon.build_translation_table(corpus, sym, cfg.min_count)
        table_path = workdir / "lexicon" / "table.tsv"
        lexicon.save_table(table, table_path)
        artifacts.append(table_path)
        log.info("[lexicon] %d entries", len(table))

        stage = "link"
        annotate = _make_annotator(cfg.linker)
        mention_lists = annotate([pair.src for pair in corpus.pairs])
        if cfg.linker.mode == "remote" and cfg.linker.hypernyms:
            resolver = link.OfflineHypernyms.from_tsv(cfg.linker.hypernyms)
            for mentions in mention_lists:
                for m in mentions:
                    if m.hypernym is None:
                        m.hypernym = link.resolve_hypernym(m.uri, resolver)
        ann_path = workdir / "link" / "annotations.jsonl"
        link.write_annotations(
            ann_path, [(p.line_no, m) for p, m in zip(corpus.pairs, mention_lists)]
        )
        artifacts.append(ann_path)

        stage = "tag"
        for method in cfg.methods:
            tagged, stats = template.tag_corpus(
                corpus, mention_lists, sym, table, method, cfg.vocab
            )
            src_path = workdir / "tagged" / f"{method.value}.src"
            tgt_path = workdir / "tagged" / f"{method.value}.tgt"
            man_path = workdir / "tagged" / f"{method.value}.manifest.jsonl"
            template.write_tagged(tagged, src_path, tgt_path, man_path, cfg.vocab)
            artifacts.extend([src_path, tgt_path, man_path])
            tag_stats[method.value] = {
                "total_pairs": stats.total_pairs,
                "tagged_pairs": stats.tagged_pairs,
                "tag_fraction": stats.tag_fraction,
            }
            log.info(
                "[tag] %s: %d/%d pairs tagged",
                method.value, stats.tagged_pairs, stats.total_pairs,
            )
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
        "tag_stats": tag_stats,
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
    p.add_argument("--iterations", type=int, default=5)
    p.add_argument("--tension", type=float, default=4.0)
    p.add_argument("--p0", type=float, default=0.08)
    p.add_argument("--vb", action="store_true", help="variational-Bayes M-step")
    p.add_argument("--alpha", type=float, default=0.01)
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
    p.add_argument("--heuristic", default="grow-diag-final-and", choices=align.HEURISTICS)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_symmetrize)

    p = sub.add_parser("lexicon-build", help="extract the word translation table")
    p.add_argument("--src", required=True)
    p.add_argument("--tgt", required=True)
    p.add_argument("--alignments", required=True)
    p.add_argument("--min-count", type=int, default=1)
    p.add_argument("--out", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_lexicon_build)

    p = sub.add_parser("link-annotate", help="find entity mentions per sentence")
    p.add_argument("--src", required=True)
    p.add_argument("--mode", choices=("gazetteer", "remote"), default="gazetteer")
    p.add_argument("--gazetteer")
    p.add_argument("--endpoint")
    p.add_argument("--confidence", type=float, default=0.5)
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
    p.add_argument("--vocab", default="special")
    p.add_argument("--out-src", required=True)
    p.add_argument("--out-tgt", required=True)
    p.add_argument("--manifest", required=True)
    _add_profile_flags(p)
    p.set_defaults(func=cmd_tag_apply)

    p = sub.add_parser("detag", help="strip tags from raw model output")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--method", required=True)
    p.add_argument("--table")
    p.add_argument("--vocab", default="special")
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
