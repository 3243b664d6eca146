"""The on-disk readers: a malformed line raises MalformedFile naming
path:line, arbitrary bytes let no other exception out, and the JSON Lines
readers return what their writers were given."""

import json
import re
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dict_aligner import dict_model
from tagcopy import corpus
from tagcopy.align import (
    FORWARD,
    NULL_WORD,
    REVERSE,
    load_model,
    read_pharaoh,
    save_model,
    write_pharaoh,
)
from tagcopy.corpus import ParallelCorpus, SentencePair, read_lines
from tagcopy.errors import MalformedFile
from tagcopy.lexicon import TableEntry, TranslationTable, load_table, save_table
from tagcopy.link import (
    EntityMention,
    Gazetteer,
    OfflineHypernyms,
    read_annotations,
    write_annotations,
)
from tagcopy.template import (
    PLAIN_VOCAB,
    SPECIAL_VOCAB,
    TemplateMethod,
    read_manifest,
    select_bundles,
    tag_corpus,
    write_tagged,
)

READERS = {
    "lines": read_lines,
    "pharaoh": lambda p: list(read_pharaoh(p)),
    "model": load_model,
    "table": load_table,
    "annotations": read_annotations,
    "manifest": read_manifest,
    "gazetteer": Gazetteer.from_tsv,
    "hypernyms": OfflineHypernyms.from_tsv,
}

# fragments of every format, so that random text often gets past the
# first field or the first JSON key
PIECES = [
    "\t", "\n", "\r", " ", "-", "0", "1", "+1", "0.5", "x", "tension", "p0", "direction",
    '{"line_no": 0, "mentions": [', '{"start": 0, "end": 1, "surface": ["a"], "uri": "u"}',
    '{"line_no": 0, "method": "tag", "tag_vocab": {"start": "<s>", "mid1": "<m>", '
    '"mid2": "<n>", "end": "<e>"}, "bundles": [',
    '{"src_span": [0, 1], "tgt_span": [0, 1], "entity": ["a"], "translation": ["b"], '
    '"hypernym": ["h"], "hypernym_tgt": ["h"]}',
    "]", "}", ",", '"', "[", "null",
]
format_text = st.lists(st.sampled_from(PIECES) | st.text(max_size=3), max_size=30).map(
    lambda parts: "".join(parts).encode()
)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("readers") / "input"


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@settings(max_examples=150, deadline=None)
@given(data=st.binary(max_size=200) | format_text)
def test_only_malformed_file_escapes(scratch, reader, data):
    scratch.write_bytes(data)
    try:
        reader(scratch)
    except MalformedFile as exc:
        assert str(exc).startswith(f"{scratch}:")


VOCAB = '"tag_vocab": {"start": "<s>", "mid1": "<m>", "mid2": "<n>", "end": "<e>"}'
BUNDLE = ('"src_span": [0, 1], "tgt_span": [0, 1], "entity": ["a"], "translation": ["b"], '
          '"hypernym": ["h"], "hypernym_tgt": ["h"]')
MENTION = '"start": 0, "end": 1, "surface": ["a"], "uri": "u"'


@pytest.mark.parametrize("reader, text, where", [
    ("table", "a\tb\t1\t0.5\nc\td\t1\n", ":2: 3 tab-separated fields, expected 4"),
    ("table", "a\tb\t1\t0.5\n\nc\td\tone\t0.5\n", ":3: ValueError"),
    ("table", "a\tb\t1\t0.5\na\tb\t-3\tnan\n", ":2: ValueError: link count '-3'"),
    ("table", "a\tb\t1\t0.5\nc\td\t1_0\t-0.5\n", ":2: ValueError: link count '1_0'"),
    ("table", "a\tb\t1\t0.5\ne\tf\t 7\tinf\n", ":2: ValueError: link count ' 7'"),
    ("table", "a\tb\t1\t0.5\ng\th\t0\t0.5\n", ":2: ValueError: link count '0'"),
    ("table", "a\tb\t1\t0.5\ng\th\t+2\t0.5\n", ":2: ValueError: link count '+2'"),
    ("table", "a\tb\t1\t0.5\ng\th\t2\tnan\n", ":2: ValueError: probability 'nan'"),
    ("table", "a\tb\t1\t0.5\ng\th\t2\t-0.5\n", ":2: ValueError: probability '-0.5'"),
    ("table", "a\tb\t1\t0.5\ng\th\t2\tinf\n", ":2: ValueError: probability 'inf'"),
    ("table", "a\tb\t1\t0.5\ng\th\t2\t1.000001\n", ":2: ValueError: probability '1.000001'"),
    # a probability is written as save_table writes it
    ("table", "a\tb\t1\t0.5\nc\td\t2\t0.1_2\n", ":2: ValueError: probability '0.1_2'"),
    ("table", "a\tb\t1\t0.5\ne\tf\t3\t 0.25 \n", ":2: ValueError: probability ' 0.25 '"),
    ("model", "tension\tnan\np0\t0.08\na\tb\t0.5\n", ":1: neither"),
    ("model", "tension\t-4.0\np0\t0.08\na\tb\t0.5\n", ":1: neither"),
    ("model", "tension\t4.0\np0\t1.5\na\tb\t0.5\n", ":2: neither"),
    ("model", "tension\t4.0\np0\tnan\na\tb\t0.5\n", ":2: neither"),
    ("model", "tension\t4.0\np0\t0.08\na\tb\t0.5\nc\td\tnan\n", ":4: neither"),
    ("model", "tension\t4.0\np0\t0.08\na\tb\tinf\nc\td\t0.5\n", ":3: neither"),
    ("model", "tension\t4.0\na\tb\t-0.5\np0\t0.08\n", ":2: neither"),
    ("pharaoh", "0-0 1-1\r\n\r\n2-2 3-x\r\n", ":3: bad link '3-x'"),
    ("gazetteer", "new york\tkb:NY\tcity\nx\tkb:X\n", ":2: 2 tab-separated fields"),
    ("gazetteer", "new york\tkb:NY\tcity\n \tkb:X\tcity\n", ":2: ValueError: empty surface"),
    ("hypernyms", "kb:A\tcity\nkb:B\tcity\tx\n", ":2: 3 tab-separated fields, expected 2"),
    ("annotations", '{"line_no": 0, "mentions": []}\n{"line_no": 1}\n', ":2: KeyError"),
    ("annotations", '{"line_no": 0, "mentions": []}\nnot json\n', ":2: JSONDecodeError"),
    ("annotations", '{"line_no": "0", "mentions": []}\n', ":1: TypeError"),
    ("annotations", '{"line_no": 0, "mentions": [{%s, "x": 1}]}\n' % MENTION, ":1: TypeError"),
    ("annotations", "[" * 100000 + "\n", ":1: RecursionError"),
    ("manifest", '{"line_no": 0, "method": "tagg", %s, "bundles": []}\n' % VOCAB, ":1: ValueError"),
    ("manifest", '{"line_no": 0, "method": "tag", %s, "bundles": [{"uri": "u"}]}\n' % VOCAB,
     ":1: TypeError"),
    ("manifest", '{"line_no": 0, "method": "tag", "bundles": [{%s}]}\n' % BUNDLE, ":1: KeyError"),
    ("manifest", '\n{"line_no": 0, "method": "tag", "tag_vocab": {"start": "<s>", "mid1": "<s>", '
     '"mid2": "<n>", "end": "<e>"}, "bundles": []}\n', ":2: InvalidParams"),
    ("manifest", '{"line_no": 0, "method": "tag", %s, "bundles": [{%s}]}\n'
     % (VOCAB, BUNDLE.replace('"translation": ["b"]', '"translation": 5')), ":1: TypeError"),
    ("manifest", '{"line_no": 0, "method": "tag", %s, "bundles": [{%s}]}\n'
     % (VOCAB, BUNDLE.replace('"src_span": [0, 1]', '"src_span": [1, 1]')), ":1: ValueError"),
    ("manifest", '{"line_no": 0, "method": "tag", %s, "bundles": [{%s, "uri": 7}]}\n'
     % (VOCAB, BUNDLE), ":1: TypeError"),
    ("annotations", '{"line_no": 0, "mentions": [{%s}]}\n'
     % MENTION.replace('"start": 0', '"start": -1'), ":1: ValueError"),
    ("annotations", '{"line_no": 0, "mentions": [{%s, "hypernym": "city"}]}\n' % MENTION,
     ":1: TypeError"),
])
def test_malformed_line_names_path_and_line(tmp_path, reader, text, where):
    path = tmp_path / "input"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(MalformedFile, match=re.escape(f"{path}{where}")):
        READERS[reader](path)


# well-formed JSON, wrong value types: every field of a valid record, and
# any JSON value that is not of the field's kind
json_value = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=2), inner,
                                                                max_size=2),
    max_leaves=5,
)


def _is_span(v):
    return (isinstance(v, list) and len(v) == 2 and all(type(x) is int for x in v)
            and 0 <= v[0] < v[1])


def _is_tokens(v):
    return isinstance(v, list) and all(isinstance(x, str) for x in v)


VALID_BUNDLE = {"src_span": [0, 1], "tgt_span": [2, 4], "entity": ["a"], "translation": ["b"],
                "hypernym": ["h"], "hypernym_tgt": ["h"], "uri": "u"}
VALID_MENTION = {"start": 0, "end": 1, "surface": ["a"], "uri": "u", "hypernym": ["h"]}
# (reader, field) -> whether a value is of the field's kind; "vocab" is
# the manifest's tag_vocab.start
FIELD_KINDS = {
    **{("manifest", k): _is_span for k in ("src_span", "tgt_span")},
    **{("manifest", k): _is_tokens
       for k in ("entity", "translation", "hypernym", "hypernym_tgt")},
    ("manifest", "uri"): lambda v: isinstance(v, str),
    ("manifest", "vocab"): lambda v: isinstance(v, str),
    ("annotations", "start"): lambda v: type(v) is int and 0 <= v < VALID_MENTION["end"],
    ("annotations", "end"): lambda v: type(v) is int and v > VALID_MENTION["start"],
    ("annotations", "surface"): _is_tokens,
    ("annotations", "hypernym"): lambda v: v is None or _is_tokens(v),
    ("annotations", "uri"): lambda v: isinstance(v, str),
}


def _record_line(reader, **fields) -> str:
    """One valid annotations or manifest record, with ``fields`` replaced."""
    if reader == "annotations":
        return json.dumps({"line_no": 1, "mentions": [{**VALID_MENTION, **fields}]}) + "\n"
    vocab = {"start": fields.pop("vocab", "<s>"), "mid1": "<m>", "mid2": "<n>", "end": "<e>"}
    return json.dumps({"line_no": 1, "method": "tag", "tag_vocab": vocab,
                       "bundles": [{**VALID_BUNDLE, **fields}]}) + "\n"


@settings(max_examples=300, deadline=None)
@given(data=st.data(), field=st.sampled_from(sorted(FIELD_KINDS)))
def test_wrong_value_type_is_malformed(scratch, data, field):
    reader, name = field
    value = data.draw(json_value.filter(lambda v: not FIELD_KINDS[field](v)))
    scratch.write_text(_record_line(reader) + _record_line(reader, **{name: value}),
                       encoding="utf-8")
    with pytest.raises(MalformedFile, match=re.escape(f"{scratch}:2: ")):
        READERS[reader](scratch)


# whole well-formed lines of the tab-separated formats, so that a run of
# text often reads to its end
LINES = ["direction\tsrc-tgt\n", "tension\t4.0\n", "p0\t0.08\n", "a\tb\t0.5\n",
         "a\tb\t1\t0.5\n", "kb:A\tcity\n", "new york\tkb:NY\tcity\n", "0-0 1-1\n"]
lf_text = st.tuples(
    st.sampled_from(["", "tension\t4.0\np0\t0.08\n"]),  # a model dump's header
    st.lists(st.sampled_from([p for p in PIECES + LINES if p != "\r"])
             | st.text(max_size=3).filter(lambda t: "\r" not in t), max_size=30),
).map(lambda parts: parts[0] + "".join(parts[1]))


def _outcome(reader, path):
    """What ``reader`` makes of ``path``: its result, or the path:line of
    the MalformedFile it raises."""
    try:
        result = reader(path)
    except MalformedFile as exc:
        return str(exc).split(": ", 1)[0]
    return vars(result) if isinstance(result, (Gazetteer, OfflineHypernyms)) else result


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
@settings(max_examples=150, deadline=None)
@given(text=lf_text)
def test_crlf_reads_as_its_lf_twin(scratch, reader, text):
    scratch.write_bytes(text.encode())
    lf = _outcome(reader, scratch)
    scratch.write_bytes(text.replace("\n", "\r\n").encode())
    assert _outcome(reader, scratch) == lf


@pytest.mark.parametrize("reader", READERS.values(), ids=READERS.keys())
def test_not_utf8_names_path(tmp_path, reader):
    path = tmp_path / "input"
    path.write_bytes(b"\xff\xfe\n")
    with pytest.raises(MalformedFile, match=re.escape(f"{path}: not UTF-8")):
        reader(path)


# one well-formed file per reader
VALID_TEXT = {
    "lines": "a b\nc\n",
    "pharaoh": "0-0 1-1\n2-2\n",
    "model": "tension\t4.0\np0\t0.08\na\tb\t0.5\n",
    "table": "a\tb\t1\t0.5\nc\td\t2\t1.0\n",
    "annotations": _record_line("annotations") * 2,
    "manifest": _record_line("manifest") * 2,
    "gazetteer": "new york\tkb:NY\tcity\nx\tkb:X\t\n",
    "hypernyms": "kb:A\tcity\nkb:B\tport city\n",
}


@pytest.mark.parametrize("reader", READERS)
def test_every_reader_reads_through_numbered_lines_once(tmp_path, monkeypatch, reader):
    path = tmp_path / "input"
    path.write_text(VALID_TEXT[reader], encoding="utf-8")
    calls, original = [], corpus.numbered_lines

    def numbered_lines(p):
        calls.append(p)
        yield from original(p)

    # every module that took the function by name gets the wrapped one
    for module in [m for name, m in sys.modules.items() if name.startswith("tagcopy")]:
        if getattr(module, "numbered_lines", None) is original:
            monkeypatch.setattr(module, "numbered_lines", numbered_lines)
    READERS[reader](path)
    assert calls == [path]


def test_lenient_rows_still_load(tmp_path):
    """Blank lines are skipped, a repeated key keeps its last row, and a
    manifest bundle may leave out its uri."""
    table = tmp_path / "t.tsv"
    table.write_text("a\tb\t1\t0.5\n\na\tc\t2\t1.0\n", encoding="utf-8")
    assert load_table(table).entries == {"a": TableEntry("c", 2, 1.0)}
    manifest = tmp_path / "m.jsonl"
    manifest.write_text('{"line_no": 3, "method": "tag", %s, "bundles": [{%s}]}\n\n'
                        % (VOCAB, BUNDLE), encoding="utf-8")
    (entry,) = read_manifest(manifest)
    assert entry.line_no == 3 and entry.bundles[0].uri == ""


# ---------------------------------------------------------------------------
# writers round-trip through their readers

token = st.text(st.characters(blacklist_categories=("Cs", "Cc", "Z")), min_size=1, max_size=4)
tokens = st.lists(token, min_size=1, max_size=6)


@st.composite
def mentions(draw, src):
    """Non-overlapping mentions over a source sentence, some of them
    without a uri or a hypernym."""
    out = []
    start = draw(st.integers(0, len(src)))
    while start < len(src) and len(out) < 3:
        end = draw(st.integers(start + 1, len(src)))
        out.append(EntityMention(
            start, end, src[start:end],
            draw(st.sampled_from(["", "kb:A", "kb:B"])), draw(st.none() | tokens),
        ))
        start = draw(st.integers(end, len(src)))
    return out


@st.composite
def tagging_inputs(draw):
    pairs, annotations, alignments = [], [], []
    for k in range(draw(st.integers(1, 6))):
        src, tgt = draw(tokens), draw(tokens)
        pairs.append(SentencePair(src, tgt, k))
        annotations.append(draw(mentions(src)))
        alignments.append(draw(st.sets(
            st.tuples(st.integers(0, len(src) - 1), st.integers(0, len(tgt) - 1)), max_size=8,
        )))
    table = TranslationTable({w: TableEntry(t, 1, 1.0)
                              for w, t in draw(st.dictionaries(token, token, max_size=4)).items()})
    vocab = draw(st.sampled_from([SPECIAL_VOCAB, PLAIN_VOCAB]))
    return ParallelCorpus(pairs), annotations, alignments, table, vocab


@settings(max_examples=150, deadline=None)
@given(tagging_inputs())
def test_manifest_round_trips_tagged_bundles(scratch, inputs):
    # the mentions fit their sentences, so selection must not refuse them;
    # every method then writes the bundles of that one selection
    corpus, annotations, alignments, table, vocab = inputs
    selected = select_bundles(corpus, annotations, alignments, table)
    rows = [(row, bundles) for row, bundles in enumerate(selected) if bundles]
    files = [scratch.with_suffix(ext) for ext in (".src", ".tgt", ".jsonl")]
    for method in TemplateMethod:
        tagged = tag_corpus(corpus, selected, method, vocab)
        write_tagged(corpus, selected, {method: files}, vocab)
        entries = read_manifest(files[2])
        # an untagged pair's row is the pair's own lists
        assert all(tagged[k][0] is pair.src and tagged[k][1] is pair.tgt
                   for k, pair in enumerate(corpus.pairs) if not selected[k])
        for side, path in enumerate(files[:2]):
            assert [line.split() for line in read_lines(path)] == [row[side] for row in tagged]
        assert [(e.line_no, e.bundles) for e in entries] == rows
        assert all(e.method is method and e.vocab == vocab for e in entries)


@st.composite
def mention(draw):
    """A mention of any text over a valid span: 0 <= start < end."""
    start = draw(st.integers(min_value=0))
    return EntityMention(
        start, start + draw(st.integers(min_value=1)), draw(st.lists(st.text())),
        draw(st.text()), draw(st.none() | st.lists(st.text())),
    )


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(st.integers(), st.lists(mention(), max_size=3), max_size=5))
def test_annotations_round_trip(scratch, annotated):
    write_annotations(scratch, list(annotated.items()))
    assert read_annotations(scratch) == annotated


# probabilities down to the smallest subnormal
probability = st.floats(0.0, 1.0) | st.just(5e-324)


@settings(max_examples=150, deadline=None)
@given(
    theta=st.dictionaries(st.just(NULL_WORD) | token,
                          st.dictionaries(token, probability, min_size=1, max_size=4),
                          min_size=1, max_size=5),
    direction=st.sampled_from([FORWARD, REVERSE]),
    tension=st.floats(0.0, 100.0),
    p0=st.floats(0.0, 1.0, exclude_max=True),
)
def test_model_round_trips_bit_identical(scratch, theta, direction, tension, p0):
    model = dict_model(theta, tension, p0, direction)
    save_model(model, scratch)
    loaded = load_model(scratch)
    assert (loaded.direction, loaded.tension, loaded.p0) == (direction, tension, p0)
    assert (loaded.theta.cond, loaded.theta.emit) == (model.theta.cond, model.theta.emit)
    assert loaded.theta.pair_keys.tobytes() == model.theta.pair_keys.tobytes()
    assert loaded.theta.probs.tobytes() == model.theta.probs.tobytes()
    assert loaded.theta == model.theta


@settings(max_examples=150, deadline=None)
@given(st.lists(st.sets(st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)), max_size=6),
                max_size=8))
def test_pharaoh_round_trips(scratch, link_sets):
    write_pharaoh(link_sets, scratch)
    assert list(read_pharaoh(scratch)) == link_sets


@settings(max_examples=150, deadline=None)
@given(st.dictionaries(token, st.builds(TableEntry, token, st.integers(1, 10**9),
                                        st.floats(0.0, 1.0)), max_size=6))
def test_table_round_trips(scratch, entries):
    # probabilities are written with 6 decimals
    save_table(TranslationTable(entries), scratch)
    loaded = load_table(scratch).entries
    assert loaded.keys() == entries.keys()
    for word, entry in entries.items():
        assert (loaded[word].target, loaded[word].count) == (entry.target, entry.count)
        assert loaded[word].prob == pytest.approx(entry.prob, abs=5e-7)
