"""Entity tagging templates: rendering, corpus tagging, and detagging.

Seven methods rewrite a sentence around an entity span E with translation T
and hypernym H (start/mid1/mid2/end are the tag vocabulary):

    baseline  unchanged
    tag       <start> E <end>
    add       <start> E <mid1> H <end>
    trans     <start> E <mid1> T <end>
    transa    <start> E <mid1> T <mid2> H <end>
    transr    <start> H <mid1> T <end>
    hypa      E H            (no delimiters; the "soft" variant)

On the target side the delimited methods substitute the projected
translation span with the *same* rendered content as the source side, which
is what makes verbatim copying learnable; hypa keeps the translation span
and appends the table-translated hypernym (or the source-language hypernym
when the table cannot cover it).

Tagging a corpus takes two steps: ``select_bundles`` picks the mentions to
tag, once per corpus, and ``write_tagged`` renders and writes that selection
for every method at once.

Tagged corpora are written as parallel text files plus a JSON Lines
manifest that records, per tagged line, the method, the tag vocabulary and
every bundle's components; the manifest is the ground truth the evaluation
module scores against.
"""

import functools
import json
import operator
from collections.abc import Sequence
from contextlib import ExitStack
from dataclasses import dataclass
from enum import Enum

from .align import check_links
from .corpus import ParallelCorpus, TokenSeq, check_json_values, open_for_writing, read_records
from .errors import InvalidParams, LengthMismatch, MalformedFile, MissingComponent
from .lexicon import TranslationTable, translate_tokens, translate_tokens_strict
from .link import EntityMention, project_entity_span


class TemplateMethod(str, Enum):
    BASELINE = "baseline"
    TAG = "tag"
    ADD = "add"
    TRANS = "trans"
    TRANSA = "transa"
    TRANSR = "transr"
    HYPA = "hypa"


@dataclass(frozen=True)
class MethodSpec:
    """One method's layout: every tagging, detagging and scoring rule
    follows from it.

    ``slots`` are the components written in place of the entity, in order
    (none for baseline, which writes nothing). A delimited method wraps them
    as ``<start> s0 <mid1> s1 <mid2> s2 <end>``; an undelimited one writes
    them bare on the source side and, on the target side, keeps the
    translation and appends the target-side hypernym. ``scored`` are the
    components copy accuracy compares.
    """

    slots: tuple[str, ...]
    delimited: bool
    scored: tuple[str, ...]

    @property
    def reads_table(self) -> bool:
        """Detag keeps a region's translation segment when it has one, else
        table-translates its entity segment; undelimited output is left as
        it is."""
        return self.delimited and "translation" not in self.slots


METHODS = {
    TemplateMethod.BASELINE: MethodSpec((), False, ("translation",)),
    TemplateMethod.TAG: MethodSpec(("entity",), True, ("entity",)),
    TemplateMethod.ADD: MethodSpec(("entity", "hypernym"), True, ("entity", "hypernym")),
    TemplateMethod.TRANS: MethodSpec(("entity", "translation"), True, ("entity", "translation")),
    TemplateMethod.TRANSA: MethodSpec(
        ("entity", "translation", "hypernym"), True, ("entity", "translation", "hypernym")
    ),
    TemplateMethod.TRANSR: MethodSpec(
        ("hypernym", "translation"), True, ("translation", "hypernym")
    ),
    TemplateMethod.HYPA: MethodSpec(("entity", "hypernym"), False, ("translation", "hypernym")),
}

TAGGED_METHODS = tuple(m for m, spec in METHODS.items() if spec.slots)


@dataclass(frozen=True)
class TagVocabulary:
    """The four reserved delimiter tokens.

    The default maps onto the external translation model's pre-existing
    reserved tokens so tagging adds no new vocabulary; the plain variant is
    easier on the eyes in tests and examples.
    """

    start: str = "<special2>"
    mid1: str = "<special3>"
    mid2: str = "<special4>"
    end: str = "<special5>"

    def __post_init__(self):
        if len({self.start, self.mid1, self.mid2, self.end}) != 4:
            raise InvalidParams("tag vocabulary tokens must be four distinct tokens")

    def tokens(self) -> frozenset[str]:
        return frozenset((self.start, self.mid1, self.mid2, self.end))


SPECIAL_VOCAB = TagVocabulary()
PLAIN_VOCAB = TagVocabulary("<start>", "<mid1>", "<mid2>", "<end>")


@dataclass
class BundleRecord:
    """One tagged mention with every component the templates may write.

    The slot names of ``METHODS`` are field names here, and the fields, in
    order, are the keys of a manifest bundle.
    """

    src_span: list[int]  # entity tokens [start, end) on the source side
    tgt_span: list[int]  # projected translation [start, end) on the target side
    entity: TokenSeq
    translation: TokenSeq  # target tokens inside tgt_span
    hypernym: TokenSeq
    hypernym_tgt: TokenSeq  # table-translated hypernym, or the source one
    uri: str = ""


def _tag_content(method: TemplateMethod, bundle: BundleRecord, vocab: TagVocabulary) -> TokenSeq:
    """The token run the source side writes in place of the entity; a
    delimited method writes the same run on the target side."""
    spec = METHODS[method]
    for slot in spec.slots:
        if not getattr(bundle, slot):
            raise MissingComponent(f"method {method.value!r} needs a {slot}")
    if not spec.delimited:
        return [tok for slot in spec.slots for tok in getattr(bundle, slot)]
    out: TokenSeq = []
    for opener, slot in zip((vocab.start, vocab.mid1, vocab.mid2), spec.slots):
        out.append(opener)
        out.extend(getattr(bundle, slot))
    out.append(vocab.end)
    return out


def render_source_template(
    method: TemplateMethod,
    bundle: BundleRecord,
    sentence: TokenSeq,
    vocab: TagVocabulary = SPECIAL_VOCAB,
) -> TokenSeq:
    """Replace the entity span of the source sentence with the template."""
    if not METHODS[method].slots:
        return list(sentence)
    start, end = bundle.src_span
    return sentence[:start] + _tag_content(method, bundle, vocab) + sentence[end:]


def render_target_template(
    method: TemplateMethod,
    bundle: BundleRecord,
    tgt_sentence: TokenSeq,
    vocab: TagVocabulary = SPECIAL_VOCAB,
) -> TokenSeq:
    """Rewrite the projected translation span of the target sentence.

    Delimited methods substitute the same rendered content as the source
    side; undelimited ones keep the translation and append the target-side
    hypernym when they write one.
    """
    spec = METHODS[method]
    start, end = bundle.tgt_span
    if spec.delimited:
        return tgt_sentence[:start] + _tag_content(method, bundle, vocab) + tgt_sentence[end:]
    if "hypernym" not in spec.slots:
        return list(tgt_sentence)
    if not bundle.hypernym_tgt:
        raise MissingComponent(f"method {method.value!r} needs a target-side hypernym")
    return tgt_sentence[:end] + bundle.hypernym_tgt + tgt_sentence[end:]


def select_bundles(
    corpus: ParallelCorpus,
    annotations: list[list[EntityMention]],
    alignments: Sequence[set[tuple[int, int]]],
    table: TranslationTable,
) -> list[list[BundleRecord]]:
    """The bundles to tag, one list per pair, in source order.

    A mention is selected iff it has a uri, a hypernym, and a projectable
    target span. The rule never looks at the method, so one selection serves
    every method and they all tag the same (line, span) set; a pair counts
    as tagged when its list is not empty (baseline included, where rendering
    is the identity but the bundles still feed evaluation and tag-only
    subsets).

    Every mention must fit its pair's source side: a span past the end of
    the sentence, a surface that is not the tokens under the span, or two
    overlapping mentions raise MalformedFile naming the pair's line_no.
    A link outside its pair raises LengthMismatch naming its alignment row.
    Each row of ``alignments`` is read once, so rows built when they are
    read (:func:`~tagcopy.align.read_pharaoh`) are built once.
    """
    for name, rows in (("annotation", annotations), ("alignment", alignments)):
        if len(rows) != len(corpus.pairs):
            raise LengthMismatch(f"{len(rows)} {name} rows for {len(corpus.pairs)} pairs")
    selected = []
    for row, (pair, mentions, links) in enumerate(zip(corpus.pairs, annotations, alignments)):
        check_links(links, len(pair.src), len(pair.tgt), row)
        bundles = []
        prev_end = 0
        for m in sorted(mentions, key=lambda m: m.start):
            where = f"line_no {pair.line_no}: mention [{m.start}, {m.end})"
            if not 0 <= m.start < m.end <= len(pair.src) or m.surface != pair.src[m.start:m.end]:
                raise MalformedFile(
                    f"{where} {m.surface!r} does not fit the {len(pair.src)} source tokens"
                )
            if m.start < prev_end:
                raise MalformedFile(f"{where} overlaps the mention before it")
            prev_end = m.end
            if not m.uri or not m.hypernym:
                continue
            span = project_entity_span(m, links, len(pair.tgt))
            if span is None:
                continue
            lo, hi = span
            hypernym_tgt = translate_tokens_strict(table, m.hypernym) or list(m.hypernym)
            bundles.append(BundleRecord(
                [m.start, m.end], [lo, hi], m.surface, pair.tgt[lo:hi], m.hypernym,
                hypernym_tgt, m.uri,
            ))
        selected.append(bundles)
    return selected


def _render(pair, bundles: list[BundleRecord], method: TemplateMethod,
            vocab: TagVocabulary) -> tuple[TokenSeq, TokenSeq]:
    """One pair's ``(src, tgt)`` token row under ``method``, each bundle
    rendered right to left so earlier spans keep their indices. A tagged
    pair renders into new lists; an untagged pair's row is its own lists."""
    src, tgt = pair.src, pair.tgt
    for b in reversed(bundles):
        src = render_source_template(method, b, src, vocab)
    for b in sorted(bundles, key=lambda b: b.tgt_span[0], reverse=True):
        tgt = render_target_template(method, b, tgt, vocab)
    return src, tgt


def tag_corpus(
    corpus: ParallelCorpus,
    selected: list[list[BundleRecord]],
    method: TemplateMethod,
    vocab: TagVocabulary = SPECIAL_VOCAB,
) -> list[tuple[TokenSeq, TokenSeq]]:
    """Render one method over the bundles :func:`select_bundles` chose for
    ``corpus``: one ``(src, tgt)`` token row per pair, rendered as
    :func:`write_tagged` writes it; an untagged pair's row is the pair's
    own lists, unchanged."""
    return [_render(pair, bundles, method, vocab)
            for pair, bundles in zip(corpus.pairs, selected, strict=True)]


# ---------------------------------------------------------------------------
# detagging


def _scan_regions(tokens: TokenSeq, vocab: TagVocabulary):
    """Cut tokens at balanced start..end regions, left to right.

    Returns ``(regions, tail, unclosed)``: ``regions`` holds a ``(text,
    inner)`` pair per region, the tokens before it and the tokens between
    its delimiters; ``tail`` is the text after the last region. A start
    with no end after it leaves what follows it in ``unclosed`` (else None)
    and ends ``tail`` before it. Each region ends at the first end after its
    start. Text may still hold stray delimiter tokens.
    """
    regions = []
    find = tokens.index
    i = 0
    while True:
        try:
            s = find(vocab.start, i)
        except ValueError:
            return regions, tokens[i:], None
        try:
            e = find(vocab.end, s + 1)
        except ValueError:
            return regions, tokens[i:s], tokens[s + 1:]
        regions.append((tokens[i:s], tokens[s + 1:e]))
        i = e + 1


def split_region(inner: TokenSeq, method: TemplateMethod, vocab: TagVocabulary):
    """Split region content on the method's separators.

    Returns a dict keyed by the method's slot names, or None when the
    content is malformed (separators missing, duplicated, out of order, or
    stray delimiter tokens inside) or the method is undelimited.
    """
    spec = METHODS[method]
    if not spec.delimited:
        return None
    parts = []
    i = 0
    for sep in (vocab.mid1, vocab.mid2)[: len(spec.slots) - 1]:
        try:
            j = inner.index(sep, i)
        except ValueError:
            return None
        parts.append(inner[i:j])
        i = j + 1
    parts.append(inner[i:])
    marks = vocab.tokens()
    if any(not marks.isdisjoint(part) for part in parts):
        return None
    return dict(zip(spec.slots, parts))


def extract_regions(output: TokenSeq, vocab: TagVocabulary) -> list[TokenSeq]:
    """Balanced start..end region contents, in order of appearance."""
    return [inner for _, inner in _scan_regions(output, vocab)[0]]


def _keep_words(tokens: TokenSeq, marks: frozenset[str], out: TokenSeq) -> int:
    """Append the tokens that are not delimiters; returns how many were."""
    words = [t for t in tokens if t not in marks]
    out.extend(words)
    return len(tokens) - len(words)


def detag(
    output: TokenSeq,
    method: TemplateMethod,
    table: TranslationTable,
    vocab: TagVocabulary = SPECIAL_VOCAB,
) -> tuple[TokenSeq, int]:
    """Strip tag regions from raw model output.

    Following ``MethodSpec.reads_table``, a region becomes its translation
    segment when the method writes one (trans/transa/transr), else the
    word-by-word table translation of its entity segment, with words the
    table misses kept verbatim (tag/add); undelimited output (hypa,
    baseline) passes through untouched. Malformed regions (unclosed, or
    with unexpected separators) lose their delimiter tokens, keep the rest
    verbatim, and are tallied in the returned incident count, as is every
    stray delimiter outside a region.
    """
    spec = METHODS[method]
    marks = vocab.tokens()
    if not spec.delimited or marks.isdisjoint(output):
        return list(output), 0
    regions, tail, unclosed = _scan_regions(output, vocab)
    out: TokenSeq = []
    incidents = 0
    for text, inner in regions:
        incidents += _keep_words(text, marks, out)
        segments = split_region(inner, method, vocab)
        if segments is None:
            incidents += 1
            _keep_words(inner, marks, out)
        elif spec.reads_table:
            out.extend(translate_tokens(table, segments["entity"]))
        else:
            out.extend(segments["translation"])
    incidents += _keep_words(tail, marks, out)
    if unclosed is not None:
        incidents += 1
        _keep_words(unclosed, marks, out)
    return out, incidents


# ---------------------------------------------------------------------------
# tagged corpus + manifest files


@dataclass
class ManifestEntry:
    line_no: int  # row index in the tagged parallel files
    method: TemplateMethod
    vocab: TagVocabulary
    bundles: list[BundleRecord]


_to_json = json.JSONEncoder(ensure_ascii=False).encode  # json.dumps(x, ensure_ascii=False)


def write_tagged(
    corpus: ParallelCorpus,
    selected: list[list[BundleRecord]],
    outputs: dict,
    vocab: TagVocabulary,
) -> None:
    """Write each method of ``outputs`` (method -> src, tgt and manifest
    paths) as the tagged parallel files of the bundles :func:`select_bundles`
    chose for ``corpus``, plus the manifest of the tagged rows, in one pass
    over the pairs: an untagged pair's lines are joined once for every
    method, a tagged pair's bundles serialized once and rendered per method.

    Manifest line_no refers to the row index in the emitted files (the
    files the external translation system reads and answers line by line).
    Each record is ``json.dumps(record, ensure_ascii=False)`` of
    ``{"line_no", "method", "tag_vocab", "bundles"}``, written around the
    bundles' JSON.
    """
    vocab_json = _to_json(vars(vocab))
    with ExitStack() as stack:
        files = [
            # the method, its three files, and its records' text between
            # their line_no and their bundles
            (method, [stack.enter_context(open_for_writing(path)) for path in paths],
             f', "method": {_to_json(method.value)}, "tag_vocab": {vocab_json}, "bundles": ')
            for method, paths in outputs.items()
        ]
        for row, (pair, bundles) in enumerate(zip(corpus.pairs, selected, strict=True)):
            if not bundles:
                src, tgt = " ".join(pair.src) + "\n", " ".join(pair.tgt) + "\n"
                for _, (fs, ft, _), _ in files:
                    fs.write(src)
                    ft.write(tgt)
                continue
            text = _to_json([vars(b) for b in bundles])
            for method, (fs, ft, fm), middle in files:
                src, tgt = _render(pair, bundles, method, vocab)
                fs.write(" ".join(src) + "\n")
                ft.write(" ".join(tgt) + "\n")
                fm.write(f'{{"line_no": {row}{middle}{text}}}\n')


def _bundle(strings: dict, fields: dict) -> BundleRecord:
    b = BundleRecord(**fields)
    check_json_values(
        spans=(b.src_span, b.tgt_span),
        tokens=(b.entity, b.translation, b.hypernym, b.hypernym_tgt),
        text=(b.uri,),
    )
    # one str per distinct token and uri of the file, kept in ``strings``:
    # sys.intern would keep them for the process, and growing its table past
    # a resize costs more than the copies it spares
    one = strings.setdefault
    for tokens in (b.entity, b.translation, b.hypernym, b.hypernym_tgt):
        tokens[:] = map(one, tokens, tokens)
    b.uri = one(b.uri, b.uri)
    return b


def _manifest_entry(vocabs: dict, strings: dict, record) -> ManifestEntry:
    tv = record["tag_vocab"]
    vocab = (tv["start"], tv["mid1"], tv["mid2"], tv["end"])
    check_json_values(text=vocab)
    if vocab not in vocabs:
        vocabs[vocab] = TagVocabulary(*vocab)
    return ManifestEntry(
        operator.index(record["line_no"]),
        TemplateMethod(record["method"]),
        vocabs[vocab],
        [_bundle(strings, b) for b in record["bundles"]],
    )


def read_manifest(path) -> list[ManifestEntry]:
    """The entries of a manifest file. Entries with equal tag vocabularies
    share one TagVocabulary, and equal tokens and uris are one str."""
    return read_records(path, functools.partial(_manifest_entry, {}, {}))
