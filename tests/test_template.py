import json
import random
from copy import deepcopy
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_corpus
from tagcopy.errors import InvalidParams, LengthMismatch, MalformedFile, MissingComponent
from tagcopy.lexicon import TableEntry, TranslationTable
from tagcopy.link import EntityMention
from tagcopy.template import (
    PLAIN_VOCAB,
    SPECIAL_VOCAB,
    TAGGED_METHODS,
    BundleRecord,
    TagVocabulary,
    TemplateMethod,
    detag,
    extract_regions,
    read_manifest,
    render_source_template,
    render_target_template,
    select_bundles,
    split_region,
    tag_corpus,
    write_tagged,
)

M = TemplateMethod


def bundle(entity, translation=(), hypernym=None, hypernym_tgt=(), start=0, tgt_start=0, tgt_len=None):
    entity = list(entity)
    translation = list(translation)
    tgt_end = tgt_start + (tgt_len if tgt_len is not None else len(translation))
    return BundleRecord(
        [start, start + len(entity)], [tgt_start, tgt_end], entity, translation,
        list(hypernym) if hypernym else None, list(hypernym_tgt), "http://example.org/kb/X",
    )


def identity_table(tokens):
    return TranslationTable({w: TableEntry(w, 1, 1.0) for w in tokens})


SENTENCE = "myanmar was a highly civilized country .".split()


class TestSourceRendering:
    def test_tag(self):
        b = bundle(["myanmar"])
        out = render_source_template(M.TAG, b, SENTENCE, PLAIN_VOCAB)
        assert out == "<start> myanmar <end> was a highly civilized country .".split()

    def test_transa(self):
        b = bundle(["myanmar"], ["缅甸"], ["state"])
        out = render_source_template(M.TRANSA, b, SENTENCE, PLAIN_VOCAB)
        assert out == "<start> myanmar <mid1> 缅甸 <mid2> state <end> was a highly civilized country .".split()

    def test_hypa_has_no_delimiters(self):
        b = bundle(["myanmar"], hypernym=["state"])
        out = render_source_template(M.HYPA, b, SENTENCE, PLAIN_VOCAB)
        assert out == "myanmar state was a highly civilized country .".split()

    def test_baseline_unchanged(self):
        b = bundle(["myanmar"])
        assert render_source_template(M.BASELINE, b, SENTENCE, PLAIN_VOCAB) == SENTENCE

    def test_missing_translation(self):
        b = bundle(["myanmar"], hypernym=["state"])
        with pytest.raises(MissingComponent):
            render_source_template(M.TRANS, b, SENTENCE, PLAIN_VOCAB)

    def test_missing_hypernym(self):
        b = bundle(["myanmar"], ["缅甸"])
        with pytest.raises(MissingComponent):
            render_source_template(M.ADD, b, SENTENCE, PLAIN_VOCAB)

    def test_mid_sentence_span(self):
        b = bundle(["highly", "civilized"], start=3)
        out = render_source_template(M.TAG, b, SENTENCE, PLAIN_VOCAB)
        assert out == "myanmar was a <start> highly civilized <end> country .".split()


class TestTargetRendering:
    def test_delimited_methods_copy_source_content(self):
        tgt = ["在", "冈比亚", "之后"]
        b = bundle(["gambia"], ["冈比亚"], ["country"], tgt_start=1)
        out = render_target_template(M.TRANSA, b, tgt, SPECIAL_VOCAB)
        assert out == ["在", "<special2>", "gambia", "<special3>", "冈比亚",
                       "<special4>", "country", "<special5>", "之后"]
        src_side = render_source_template(M.TRANSA, b, ["gambia", "x"], SPECIAL_VOCAB)
        assert out[1:8] == src_side[0:7]  # identical rendered content

    def test_hypa_appends_translated_hypernym(self):
        tgt = ["这", "缅甸", "好"]
        b = bundle(["myanmar"], ["缅甸"], ["state"], hypernym_tgt=["国家"], tgt_start=1)
        out = render_target_template(M.HYPA, b, tgt, PLAIN_VOCAB)
        assert out == ["这", "缅甸", "国家", "好"]

    def test_hypa_falls_back_to_source_hypernym(self):
        tgt = ["这", "缅甸", "好"]
        b = bundle(["myanmar"], ["缅甸"], ["state"], hypernym_tgt=["state"], tgt_start=1)
        out = render_target_template(M.HYPA, b, tgt, PLAIN_VOCAB)
        assert out == ["这", "缅甸", "state", "好"]

    def test_baseline_unchanged(self):
        b = bundle(["myanmar"], ["缅甸"], tgt_start=0)
        assert render_target_template(M.BASELINE, b, ["缅甸", "好"], PLAIN_VOCAB) == ["缅甸", "好"]


def _eligible_mention(tokens, start=0):
    return EntityMention(start, start + len(tokens), list(tokens), "kb:X", ["state"])


def tag(corpus, annotations, alignments, table, method, vocab=SPECIAL_VOCAB):
    """The selection and the rows ``method`` renders from it."""
    selected = select_bundles(corpus, annotations, alignments, table)
    return selected, tag_corpus(corpus, selected, method, vocab)


def tagged_count(selected):
    return sum(1 for bundles in selected if bundles)


class TestTagCorpus:
    def _identity_links(self, corpus):
        return [{(i, i) for i in range(len(p.src))} for p in corpus.pairs]

    def test_quarter_fraction(self):
        corpus = make_corpus([
            ("myanmar is here", "ramnaym si ereh"),
            ("all quiet here", "lla teiuq ereh"),
            ("more text here", "erom txet ereh"),
            ("even more text", "neve erom txet"),
        ])
        annotations = [[_eligible_mention(["myanmar"])], [], [], []]
        selected, tagged = tag(
            corpus, annotations, self._identity_links(corpus), TranslationTable({}),
            M.TAG, PLAIN_VOCAB,
        )
        assert tagged_count(selected) == 1
        assert tagged_count(selected) / len(tagged) == pytest.approx(0.25)
        assert selected[0] and not selected[1]
        assert tagged[0][0] != corpus.pairs[0].src
        assert tagged[1] == (corpus.pairs[1].src, corpus.pairs[1].tgt)

    def test_rejected_projection_untags_pair_for_every_method(self):
        corpus = make_corpus([("myanmar was", "saw ramnaym")])
        mention = _eligible_mention(["myanmar"])
        links = [{(0, 1), (1, 1)}]  # target token also aligns outside the span
        selected = select_bundles(corpus, [[mention]], links, TranslationTable({}))
        assert selected == [[]]
        for method in (M.BASELINE,) + TAGGED_METHODS:
            tagged = tag_corpus(corpus, selected, method, PLAIN_VOCAB)
            assert tagged == [(corpus.pairs[0].src, corpus.pairs[0].tgt)]

    def test_missing_uri_or_hypernym_is_ineligible(self):
        corpus = make_corpus([("myanmar was", "ramnaym saw")])
        links = self._identity_links(corpus)
        no_uri = EntityMention(0, 1, ["myanmar"], "", ["state"])
        no_hyp = EntityMention(0, 1, ["myanmar"], "kb:M", None)
        for mention in (no_uri, no_hyp):
            selected, _ = tag(corpus, [[mention]], links, TranslationTable({}), M.TAG, PLAIN_VOCAB)
            assert tagged_count(selected) == 0

    def test_two_mentions_render_in_order(self):
        corpus = make_corpus([("myanmar met gambia today", "ramnaym tem aibmag yadot")])
        annotations = [[
            _eligible_mention(["gambia"], start=2),
            _eligible_mention(["myanmar"], start=0),
        ]]
        selected, tagged = tag(
            corpus, annotations, self._identity_links(corpus), TranslationTable({}),
            M.TAG, PLAIN_VOCAB,
        )
        src = tagged[0][0]
        assert src == "<start> myanmar <end> met <start> gambia <end> today".split()
        regions = extract_regions(src, PLAIN_VOCAB)
        assert regions == [["myanmar"], ["gambia"]]
        assert len(selected[0]) == 2
        assert [b.src_span for b in selected[0]] == [[0, 1], [2, 3]]

    def test_hypernym_translation_is_all_or_nothing(self):
        corpus = make_corpus([("osaka grew", "akaso werg")])
        mention = EntityMention(0, 1, ["osaka"], "kb:O", ["port", "city"])
        partial = TranslationTable({"port": TableEntry("trop", 1, 1.0)})
        selected, _ = tag(
            corpus, [[mention]], self._identity_links(corpus), partial, M.HYPA, PLAIN_VOCAB
        )
        assert selected[0][0].hypernym_tgt == ["port", "city"]  # source fallback
        full = TranslationTable({
            "port": TableEntry("trop", 1, 1.0), "city": TableEntry("ytic", 1, 1.0),
        })
        selected, _ = tag(
            corpus, [[mention]], self._identity_links(corpus), full, M.HYPA, PLAIN_VOCAB
        )
        assert selected[0][0].hypernym_tgt == ["trop", "ytic"]

    def test_length_mismatch(self):
        corpus = make_corpus([("a", "x")])
        with pytest.raises(LengthMismatch):
            select_bundles(corpus, [], [set()], TranslationTable({}))
        with pytest.raises(LengthMismatch):
            select_bundles(corpus, [[]], [], TranslationTable({}))

    @pytest.mark.parametrize("mentions, problem", [
        ([EntityMention(0, 2, ["the", "king"], "kb:K", ["ruler"]),
          EntityMention(1, 3, ["king", "praised"], "kb:P", ["act"])], "overlaps"),
        ([EntityMention(0, 50, ["zzz"], "kb:Z", ["thing"])], "does not fit"),
        ([EntityMention(1, 2, ["queen"], "kb:Q", ["ruler"])], "does not fit"),
        # an ineligible mention must fit as well
        ([EntityMention(3, 7, ["border", ".", "x", "y"], "", None)], "does not fit"),
    ])
    def test_refuses_mentions_that_do_not_fit(self, mentions, problem):
        corpus = make_corpus([("a b", "x y"), ("the king praised the border .", "x y z")])
        corpus.pairs[1] = replace(corpus.pairs[1], line_no=4)
        links = [set(), set()]
        with pytest.raises(MalformedFile, match=rf"^line_no 4: mention .*{problem}"):
            select_bundles(corpus, [[], mentions], links, TranslationTable({}))

    @pytest.mark.parametrize("link", [(1, 9), (7, 1)])
    def test_refuses_a_link_outside_its_pair(self, link):
        corpus = make_corpus([("a b", "x y"), ("the port city", "eht trop ytic")])
        corpus.pairs[1] = replace(corpus.pairs[1], line_no=4)
        mention = EntityMention(1, 2, ["port"], "kb:P", ["place"])
        links = [set(), {(0, 0), (1, 1), (2, 2), link}]
        # the pair from source line 4 is on line 2 of the alignments
        with pytest.raises(LengthMismatch, match=f"^line 2: link {link[0]}-{link[1]} "):
            select_bundles(corpus, [[], [mention]], links, TranslationTable({}))

    def test_method_parity_on_toy(self, toy_corpus, toy_annotations, toy_gold_alignments, toy_table):
        # each tagged method rewrites exactly the selected lines, baseline none
        selected = select_bundles(toy_corpus, toy_annotations, toy_gold_alignments, toy_table)
        lines = {pair.line_no for pair, bundles in zip(toy_corpus.pairs, selected) if bundles}
        assert tagged_count(selected) / len(toy_corpus.pairs) == pytest.approx(0.25)
        for method in (M.BASELINE,) + TAGGED_METHODS:
            rows = tag_corpus(toy_corpus, selected, method)
            rewritten = {pair.line_no for pair, row in zip(toy_corpus.pairs, rows)
                         if row != (pair.src, pair.tgt)}
            assert rewritten == (set() if method is M.BASELINE else lines), method

    def test_rendering_never_changes_the_corpus(
        self, tmp_path, toy_corpus, toy_annotations, toy_gold_alignments, toy_table
    ):
        # untagged rows share the pairs' lists, so writing them must not touch them
        before = deepcopy(toy_corpus)
        selected = select_bundles(toy_corpus, toy_annotations, toy_gold_alignments, toy_table)
        outputs = {method: [tmp_path / f"{method.value}.{ext}" for ext in ("src", "tgt", "jsonl")]
                   for method in TemplateMethod}
        for method in TemplateMethod:
            tag_corpus(toy_corpus, selected, method)
        write_tagged(toy_corpus, selected, outputs, SPECIAL_VOCAB)
        assert toy_corpus == before


class TestDetag:
    def test_tag_region_translated_word_by_word(self):
        table = TranslationTable({"myanmar": TableEntry("缅甸", 1, 1.0)})
        tokens = "<start> myanmar <end> 是 国家".split()
        out, incidents = detag(tokens, M.TAG, table, PLAIN_VOCAB)
        assert out == ["缅甸", "是", "国家"]
        assert incidents == 0

    def test_untranslatable_entity_word_kept(self):
        tokens = "<start> ruritania <end> x".split()
        out, _ = detag(tokens, M.TAG, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["ruritania", "x"]

    def test_add_discards_hypernym(self):
        tokens = "<start> myanmar <mid1> state <end> x".split()
        out, incidents = detag(tokens, M.ADD, identity_table(["myanmar"]), PLAIN_VOCAB)
        assert out == ["myanmar", "x"]
        assert incidents == 0

    def test_transa_keeps_translation_segment(self):
        tokens = "<start> gambia <mid1> 冈比亚 <mid2> country <end> x".split()
        out, _ = detag(tokens, M.TRANSA, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["冈比亚", "x"]

    def test_transr_keeps_translation_segment(self):
        tokens = "<start> state <mid1> 缅甸 <end> x".split()
        out, _ = detag(tokens, M.TRANSR, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["缅甸", "x"]

    def test_hypa_and_baseline_are_identity(self):
        tokens = "<start> stray myanmar state <end>".split()
        for method in (M.HYPA, M.BASELINE):
            out, incidents = detag(tokens, method, TranslationTable({}), PLAIN_VOCAB)
            assert out == tokens
            assert incidents == 0

    def test_unbalanced_start_strips_delimiters(self):
        tokens = "<start> a b <mid1> c".split()
        out, incidents = detag(tokens, M.TAG, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["a", "b", "c"]
        assert incidents == 1

    def test_missing_separator_keeps_content(self):
        tokens = "<start> a b <end> c".split()
        out, incidents = detag(tokens, M.TRANS, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["a", "b", "c"]
        assert incidents == 1

    def test_out_of_order_separators(self):
        tokens = "<start> e <mid2> t <mid1> h <end>".split()
        out, incidents = detag(tokens, M.TRANSA, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["e", "t", "h"]
        assert incidents == 1

    def test_stray_end_counted(self):
        tokens = "x <end> y".split()
        out, incidents = detag(tokens, M.TAG, TranslationTable({}), PLAIN_VOCAB)
        assert out == ["x", "y"]
        assert incidents == 1

    def test_two_regions(self):
        tokens = "<start> a <end> mid <start> b <end>".split()
        out, incidents = detag(tokens, M.TAG, identity_table(["a", "b"]), PLAIN_VOCAB)
        assert out == ["a", "mid", "b"]
        assert incidents == 0


class TestSplitRegion:
    def test_transa_layout(self):
        inner = "e1 e2 <mid1> t <mid2> h1 h2".split()
        segments = split_region(inner, M.TRANSA, PLAIN_VOCAB)
        assert segments == {
            "entity": ["e1", "e2"], "translation": ["t"], "hypernym": ["h1", "h2"],
        }

    def test_transr_layout(self):
        segments = split_region("h <mid1> t".split(), M.TRANSR, PLAIN_VOCAB)
        assert segments == {"hypernym": ["h"], "translation": ["t"]}

    def test_unexpected_separator_is_malformed(self):
        assert split_region("a <mid1> b".split(), M.TAG, PLAIN_VOCAB) is None
        assert split_region("a <mid1> b <mid1> c".split(), M.TRANS, PLAIN_VOCAB) is None


def _random_case(rng, pool):
    sentence = [rng.choice(pool) for _ in range(rng.randrange(1, 9))]
    start = rng.randrange(0, len(sentence))
    end = rng.randrange(start + 1, len(sentence) + 1)
    entity = sentence[start:end]
    translation = [f"t{rng.randrange(30)}" for _ in range(rng.randrange(1, 4))]
    hypernym = [f"h{rng.randrange(30)}" for _ in range(rng.randrange(1, 3))]
    b = bundle(entity, translation, hypernym, hypernym_tgt=hypernym, start=start)
    return sentence, start, end, b


def _round_trip_holds(sentence, start, end, b, vocab=PLAIN_VOCAB) -> bool:
    """Whether detag inverts render of one case for every method."""
    table = identity_table(b.entity)
    substituted = sentence[:start] + b.translation + sentence[end:]
    for method in TAGGED_METHODS + (M.BASELINE,):
        rendered = render_source_template(method, b, sentence, vocab)
        out, incidents = detag(rendered, method, table, vocab)
        if method in (M.TAG, M.ADD, M.BASELINE):
            ok = out == sentence
        elif method in (M.TRANS, M.TRANSA, M.TRANSR):
            ok = out == substituted
        else:  # hypa: no delimiters, detag is the identity
            ok = out == rendered
        ok = ok and incidents == 0
        # with the entity as its own translation, trans/transa restore
        # the original sentence exactly
        if method in (M.TRANS, M.TRANSA):
            b_id = replace(b, translation=list(b.entity))
            rendered_id = render_source_template(method, b_id, sentence, vocab)
            out_id, _ = detag(rendered_id, method, table, vocab)
            ok = ok and out_id == sentence
        if not ok:
            return False
    return True


def run_round_trips(n_cases: int, seed: int = 202408) -> int:
    """Template round-trip property over randomized sentences; returns the
    number of failing cases (expected 0)."""
    rng = random.Random(seed)
    pool = [f"w{i}" for i in range(20)]
    return sum(not _round_trip_holds(*_random_case(rng, pool)) for _ in range(n_cases))


def _words(prefix, min_size, max_size):
    return st.lists(st.sampled_from([f"{prefix}{i}" for i in range(30)]),
                    min_size=min_size, max_size=max_size)


class TestRoundTrips:
    def test_round_trips_hold(self):
        assert run_round_trips(250) == 0

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), vocab=st.sampled_from([PLAIN_VOCAB, SPECIAL_VOCAB]))
    def test_detag_inverts_render_property(self, data, vocab):
        sentence = data.draw(_words("w", 1, 8))
        start = data.draw(st.integers(0, len(sentence) - 1))
        end = data.draw(st.integers(start + 1, len(sentence)))
        hypernym = data.draw(_words("h", 1, 2))
        b = bundle(sentence[start:end], data.draw(_words("t", 1, 3)), hypernym,
                   hypernym_tgt=hypernym, start=start)
        assert _round_trip_holds(sentence, start, end, b, vocab)

    def test_rendering_preserves_outside_tokens(self):
        rng = random.Random(7)
        pool = [f"w{i}" for i in range(20)]
        for _ in range(200):
            sentence, start, end, b = _random_case(rng, pool)
            for method in TAGGED_METHODS:
                rendered = render_source_template(method, b, sentence, PLAIN_VOCAB)
                assert rendered[:start] == sentence[:start]
                tail = len(sentence) - end
                assert (rendered[len(rendered) - tail:] if tail else []) == sentence[end:]

    def test_rendered_regions_balanced_non_nested(self):
        rng = random.Random(8)
        pool = [f"w{i}" for i in range(20)]
        marks = PLAIN_VOCAB.tokens()
        for _ in range(200):
            sentence, start, end, b = _random_case(rng, pool)
            for method in (M.TAG, M.ADD, M.TRANS, M.TRANSA, M.TRANSR):
                rendered = render_source_template(method, b, sentence, PLAIN_VOCAB)
                regions = extract_regions(rendered, PLAIN_VOCAB)
                assert len(regions) == 1
                assert not any(t in marks for t in regions[0] if t not in
                               (PLAIN_VOCAB.mid1, PLAIN_VOCAB.mid2))
                outside = [t for t in rendered if t in marks]
                assert outside.count(PLAIN_VOCAB.start) == 1
                assert outside.count(PLAIN_VOCAB.end) == 1


class TestDetagFuzz:
    def test_never_raises_and_strips_all_delimiters(self):
        rng = random.Random(99)
        marks = list(PLAIN_VOCAB.tokens())
        pool = [f"w{i}" for i in range(8)] + marks
        table = identity_table(["w0", "w1"])
        delimited = (M.TAG, M.ADD, M.TRANS, M.TRANSA, M.TRANSR)
        for _ in range(500):
            tokens = [rng.choice(pool) for _ in range(rng.randrange(0, 18))]
            for method in delimited:
                out, incidents = detag(tokens, method, table, PLAIN_VOCAB)
                assert incidents >= 0
                assert not any(t in PLAIN_VOCAB.tokens() for t in out)
            for method in (M.HYPA, M.BASELINE):
                out, incidents = detag(tokens, method, table, PLAIN_VOCAB)
                assert out == tokens and incidents == 0


class TestVocabulary:
    def test_tokens_must_be_distinct(self):
        with pytest.raises(InvalidParams):
            TagVocabulary("<a>", "<a>", "<b>", "<c>")

    def test_default_is_reserved_specials(self):
        assert SPECIAL_VOCAB.start == "<special2>"
        assert SPECIAL_VOCAB.mid1 == "<special3>"
        assert SPECIAL_VOCAB.mid2 == "<special4>"
        assert SPECIAL_VOCAB.end == "<special5>"


class TestManifest:
    def test_write_read_round_trip(self, tmp_path, toy_corpus, toy_annotations,
                                   toy_gold_alignments, toy_table):
        selected = select_bundles(toy_corpus, toy_annotations, toy_gold_alignments, toy_table)
        write_tagged(toy_corpus, selected,
                     {M.TRANSA: (tmp_path / "t.src", tmp_path / "t.tgt", tmp_path / "t.jsonl")},
                     SPECIAL_VOCAB)
        entries = read_manifest(tmp_path / "t.jsonl")
        assert len(entries) == tagged_count(selected) > 0
        by_line = {e.line_no: e for e in entries}
        for row, bundles in enumerate(selected):
            if not bundles:
                assert row not in by_line
                continue
            entry = by_line[row]
            assert entry.method is M.TRANSA
            assert entry.vocab == SPECIAL_VOCAB
            assert entry.bundles == bundles

    def test_equal_vocabularies_and_tokens_are_read_once(self, tmp_path):
        # tokens longer than one character: the decoder shares no such str
        bundle = {"src_span": [0, 1], "tgt_span": [0, 1], "entity": ["ent"],
                  "translation": ["trans"], "hypernym": ["hyp"], "hypernym_tgt": ["trans"],
                  "uri": "http://x/ent"}
        records = [{"line_no": n, "method": "tag", "tag_vocab": vars(vocab), "bundles": [bundle]}
                   for n, vocab in enumerate((PLAIN_VOCAB, SPECIAL_VOCAB, PLAIN_VOCAB))]
        path = tmp_path / "m.jsonl"
        path.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        first, second, third = read_manifest(path)
        assert first.vocab is third.vocab and first.vocab == PLAIN_VOCAB
        assert second.vocab == SPECIAL_VOCAB
        a, b = first.bundles[0], third.bundles[0]
        assert a == b and a.entity is not b.entity  # each record keeps its own lists
        assert a.entity[0] is b.entity[0] and a.uri is b.uri
        assert a.translation[0] is a.hypernym_tgt[0]
