"""Parity of the stages after alignment against the implementations in
tests/reference_stages.py: the gazetteer scan gated on first tokens, the
shortcut for agreeing link sets, and the tag stage that renders only tagged
pairs and makes the untagged lines and the bundles' JSON once."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_stages
from tagcopy import cli
from tagcopy.align import HEURISTICS, symmetrize_links
from tagcopy.corpus import ParallelCorpus, SentencePair
from tagcopy.lexicon import TranslationTable
from tagcopy.link import EntityMention, Gazetteer, annotate_gazetteer
from tagcopy.template import PLAIN_VOCAB, SPECIAL_VOCAB, TemplateMethod, select_bundles

# a few words, so entries share first tokens and sentences hit them often
word = st.sampled_from(["a", "b", "c", "d", "e"])
gazetteers = st.dictionaries(
    st.lists(word, min_size=1, max_size=3).map(tuple),
    st.tuples(st.sampled_from(["kb:X", "kb:Y"]), st.none() | st.lists(word, min_size=1)),
    max_size=8,
).map(Gazetteer)


@settings(max_examples=500, deadline=None)
@given(gazetteer=gazetteers, sentence=st.lists(word | st.just("z"), max_size=12))
def test_gated_gazetteer_scan_matches_the_ungated_one(gazetteer, sentence):
    assert annotate_gazetteer(sentence, gazetteer) == reference_stages.annotate_gazetteer(
        sentence, gazetteer)


links = st.sets(st.tuples(st.integers(0, 5), st.integers(0, 5)), max_size=12)


@settings(max_examples=300, deadline=None)
@given(fwd=links, heuristic=st.sampled_from(HEURISTICS))
def test_agreeing_links_match_the_full_heuristic(fwd, heuristic):
    rev = set(fwd)
    merged = symmetrize_links(fwd, rev, heuristic)
    assert merged == reference_stages.symmetrize_links(fwd, rev, heuristic) == fwd
    # a new set: changing it leaves both inputs as they were
    assert merged is not fwd and merged is not rev
    merged.add((9, 9))
    assert (9, 9) not in fwd and (9, 9) not in rev


# tokens JSON escapes ("\\", '"') or writes as they are (non-ASCII)
token = st.sampled_from(["w", "x", "été", "缅甸", '"q"', "b\\s"])
run = st.lists(token, min_size=1, max_size=3)
gap = st.lists(token, max_size=2)


@st.composite
def tagged_pair(draw, line_no, mention_count):
    """A pair with ``mention_count`` mentions, each linked to a target run
    of its own and nothing else, so each is selected; the target runs may
    come in another order than the mentions."""
    src, tgt, src_spans, tgt_spans = [], [], [], []
    for _ in range(mention_count):
        for side, spans in ((src, src_spans), (tgt, tgt_spans)):
            side += draw(gap)
            start = len(side)
            side += draw(run)
            spans.append(range(start, len(side)))
    for side in (src, tgt):
        side += draw(gap if side else run)  # neither side is empty
    order = draw(st.permutations(range(mention_count)))
    mentions = [EntityMention(s.start, s.stop, src[s.start:s.stop], "kb:É", draw(run))
                for s in src_spans]
    alignment = {(i, j) for s, k in zip(src_spans, order) for i in s for j in tgt_spans[k]}
    return SentencePair(src, tgt, line_no), mentions, alignment


@st.composite
def tag_inputs(draw):
    """Pairs on every other line, among them an untagged, a single-bundle
    and a multi-bundle one."""
    counts = draw(st.permutations([0, 1, 2] + draw(st.lists(st.integers(0, 3), max_size=3))))
    rows = [draw(tagged_pair(2 * k, count)) for k, count in enumerate(counts)]
    corpus = ParallelCorpus([pair for pair, _, _ in rows])
    by_line = {pair.line_no: mentions for pair, mentions, _ in rows}
    return corpus, by_line, [alignment for _, _, alignment in rows]


@pytest.fixture(scope="module")
def out_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("tagged")


def _paths(directory, name):
    return [directory / f"{name}.{ext}" for ext in ("src", "tgt", "manifest.jsonl")]


@settings(max_examples=150, deadline=None)
@given(inputs=tag_inputs(), vocab=st.sampled_from([SPECIAL_VOCAB, PLAIN_VOCAB]),
       alone=st.sampled_from(TemplateMethod))
def test_tag_stage_matches_the_per_pair_writer(out_dir, inputs, vocab, alone):
    corpus, by_line, alignments = inputs
    table = TranslationTable({})
    selected = select_bundles(corpus, [by_line[p.line_no] for p in corpus.pairs], alignments,
                              table)
    assert [len(bundles) for bundles in selected] == [len(by_line[p.line_no])
                                                      for p in corpus.pairs]
    # every method at once, which makes the shared lines once, and one
    # method alone, which makes them as it writes
    outputs = {method: _paths(out_dir, method.value) for method in TemplateMethod}
    stats = cli._tag_and_write(corpus, by_line, alignments, table, vocab, outputs)
    cli._tag_and_write(corpus, by_line, alignments, table, vocab,
                       {alone: _paths(out_dir, "alone")})
    assert stats["tagged_pairs"] == sum(1 for bundles in selected if bundles)
    for method in TemplateMethod:
        reference_stages.write_tagged(corpus, selected, method, vocab,
                                      *_paths(out_dir, "reference"))
        expected = [path.read_bytes() for path in _paths(out_dir, "reference")]
        assert [path.read_bytes() for path in outputs[method]] == expected, method
        if method is alone:
            assert [path.read_bytes() for path in _paths(out_dir, "alone")] == expected

