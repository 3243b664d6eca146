import math
import random

import pytest

from conftest import manifest_from_tagged
from tagcopy.errors import (
    CountMismatch,
    EmptyCorpus,
    EmptyInput,
    InvalidParams,
    LengthMismatch,
    MalformedFile,
)
from tagcopy.metrics import (
    bleu,
    copy_accuracy,
    format_copy_report,
    format_pos_report,
    pos_accuracy,
    significance,
    write_copy_tsv,
    write_pos_tsv,
)
from tagcopy.template import (
    PLAIN_VOCAB,
    SPECIAL_VOCAB,
    BundleRecord,
    ManifestEntry,
    TemplateMethod,
    select_bundles,
    tag_corpus,
)

M = TemplateMethod


# ---------------------------------------------------------------------------
# BLEU


def oracle_bleu(hyps, refs, max_n=4):
    """Brute-force n-gram counting, written independently of the library."""
    match = {n: 0 for n in range(1, max_n + 1)}
    total = {n: 0 for n in range(1, max_n + 1)}
    c = sum(len(h) for h in hyps)
    r = sum(len(rf) for rf in refs)
    for h, rf in zip(hyps, refs):
        for n in range(1, max_n + 1):
            hc, rc = {}, {}
            for k in range(len(h) - n + 1):
                g = tuple(h[k:k + n])
                hc[g] = hc.get(g, 0) + 1
            for k in range(len(rf) - n + 1):
                g = tuple(rf[k:k + n])
                rc[g] = rc.get(g, 0) + 1
            for g, cnt in hc.items():
                total[n] += cnt
                match[n] += min(cnt, rc.get(g, 0))
    ps = [match[n] / total[n] if total[n] else 0.0 for n in range(1, max_n + 1)]
    bp = 1.0 if c >= r else math.exp(1 - r / c)
    if min(ps) <= 0:
        return 0.0
    return 100.0 * bp * math.exp(sum(math.log(p) for p in ps) / max_n)


HYPS = [
    "the cat sat on the mat .".split(),
    "a mighty river crossed the ancient border .".split(),
    "people signed the treaty .".split(),
]
REFS = [
    "the cat sat on a mat .".split(),
    "the mighty river crossed an ancient border .".split(),
    "people signed the big treaty .".split(),
]


class TestBleu:
    def test_identity_scores_100(self):
        result = bleu(REFS, REFS)
        assert result.score == 100.0
        assert result.brevity_penalty == 1.0
        assert result.precisions == [1.0, 1.0, 1.0, 1.0]

    def test_three_sentence_corpus_matches_oracle(self):
        result = bleu(HYPS, REFS)
        assert result.score == pytest.approx(oracle_bleu(HYPS, REFS), abs=1e-6)
        assert result.score == pytest.approx(35.273143, abs=1e-6)

    def test_no_four_gram_match_scores_zero(self):
        hyp = ["a b c d e".split()]
        ref = ["a b x d e".split()]
        result = bleu(hyp, ref)
        assert result.score == 0.0
        assert result.precisions[0] > 0.0
        assert result.precisions[3] == 0.0

    def test_brevity_penalty_applies_to_short_output(self):
        result = bleu([["the", "cat"]], [["the", "cat", "sat", "down"]])
        assert result.brevity_penalty == pytest.approx(math.exp(1 - 4 / 2))

    def test_invariant_to_sentence_order(self):
        reordered = bleu(list(reversed(HYPS)), list(reversed(REFS)))
        assert reordered.score == pytest.approx(bleu(HYPS, REFS).score, rel=1e-12)

    def test_subset_restricts_lines(self):
        result = bleu(HYPS, REFS, subset={0})
        assert result.score == pytest.approx(oracle_bleu(HYPS[:1], REFS[:1]), abs=1e-6)

    def test_count_mismatch(self):
        with pytest.raises(CountMismatch):
            bleu(HYPS, REFS[:2])

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            bleu([], [])
        with pytest.raises(EmptyCorpus):
            bleu(HYPS, REFS, subset=set())

    @pytest.mark.parametrize("max_n", [0, -2])
    def test_max_n_below_one(self, max_n):
        with pytest.raises(InvalidParams, match=f"max_n must be >= 1, got {max_n}"):
            bleu(HYPS, REFS, max_n=max_n)

    @pytest.mark.parametrize("bad", [3, 99, -1])
    def test_subset_line_out_of_range(self, bad):
        with pytest.raises(CountMismatch, match=f"subset line {bad} outside the 3 hypothesis"):
            bleu(HYPS, REFS, subset={0, bad})


# ---------------------------------------------------------------------------
# copy accuracy


def brec(entity=("e",), translation=("t",), hypernym=("h",), hypernym_tgt=("ht",),
         src_span=(0, 1), tgt_span=(0, 1)):
    return BundleRecord(
        list(src_span), list(tgt_span), list(entity), list(translation),
        list(hypernym), list(hypernym_tgt), "kb:X",
    )


def entry(line_no, method, bundles, vocab=PLAIN_VOCAB):
    return ManifestEntry(line_no, method, vocab, bundles)


class TestCopyAccuracy:
    def test_missing_second_region(self):
        bundles = [brec(entity=("aa",)), brec(entity=("bb",))]
        outputs = [["x", "<start>", "aa", "<end>", "y"]]
        report = copy_accuracy([entry(0, M.TAG, bundles)], outputs, M.TAG)
        assert report.accuracy("entity") == pytest.approx(0.5)
        assert (report.correct, report.no_tag, report.wrong_tag) == (1, 1, 0)
        assert report.total == 2

    def test_verbatim_regions_score_one(self, toy_corpus, toy_annotations,
                                         toy_gold_alignments, toy_table):
        selected = select_bundles(toy_corpus, toy_annotations, toy_gold_alignments, toy_table)
        tagged = tag_corpus(toy_corpus, selected, M.TRANSA, SPECIAL_VOCAB)
        manifest = manifest_from_tagged(tagged, SPECIAL_VOCAB)
        outputs = [tp.tgt for tp in tagged]
        report = copy_accuracy(manifest, outputs, M.TRANSA)
        assert report.total > 0
        for component in ("entity", "translation", "hypernym"):
            assert report.accuracy(component) == 1.0
        assert (report.correct, report.no_tag, report.wrong_tag) == (report.total, 0, 0)

    def test_corrupted_segment_is_wrong_tag(self):
        bundles = [brec(entity=("aa",), translation=("tt",))]
        outputs = [["<start>", "WRONG", "<mid1>", "tt", "<end>"]]
        report = copy_accuracy([entry(0, M.TRANS, bundles)], outputs, M.TRANS)
        assert report.matched["entity"] == 0
        assert report.matched["translation"] == 1
        assert (report.correct, report.no_tag, report.wrong_tag) == (0, 0, 1)

    def test_malformed_region_is_wrong_tag(self):
        bundles = [brec(entity=("aa",), translation=("tt",))]
        outputs = [["<start>", "aa", "tt", "<end>"]]  # separator missing
        report = copy_accuracy([entry(0, M.TRANS, bundles)], outputs, M.TRANS)
        assert (report.correct, report.no_tag, report.wrong_tag) == (0, 0, 1)

    def test_baseline_counts_contiguous_translation(self):
        bundles = [brec(translation=("缅甸",))]
        report = copy_accuracy(
            [entry(0, M.BASELINE, bundles)], [["我", "去", "缅甸", "了"]], M.BASELINE
        )
        assert report.accuracy("translation") == 1.0
        assert report.correct == 1

    def test_baseline_multiword_must_be_contiguous(self):
        bundles = [brec(translation=("new", "york"))]
        report = copy_accuracy(
            [entry(0, M.BASELINE, bundles)], [["new", "x", "york"]], M.BASELINE
        )
        assert report.accuracy("translation") == 0.0
        assert report.no_tag == 1

    def test_hypa_occurrences_consumed_once(self):
        bundles = [brec(translation=("t",), hypernym_tgt=("h",)),
                   brec(translation=("t",), hypernym_tgt=("h",))]
        report = copy_accuracy(
            [entry(0, M.HYPA, bundles)], [["t", "h", "x"]], M.HYPA
        )
        assert report.matched["translation"] == 1
        assert report.matched["hypernym"] == 1
        assert (report.correct, report.no_tag) == (1, 1)

    def test_extra_regions_are_ignored(self):
        bundles = [brec(entity=("aa",))]
        outputs = [["<start>", "aa", "<end>", "<start>", "zz", "<end>"]]
        report = copy_accuracy([entry(0, M.TAG, bundles)], outputs, M.TAG)
        assert (report.correct, report.no_tag, report.wrong_tag) == (1, 0, 0)

    def test_line_outside_outputs(self):
        with pytest.raises(CountMismatch):
            copy_accuracy([entry(5, M.TAG, [brec()])], [["x"]], M.TAG)

    def test_partition_identity_on_adversarial_outputs(self):
        rng = random.Random(12)
        marks = list(PLAIN_VOCAB.tokens())
        pool = [f"w{i}" for i in range(6)] + marks
        for method in (M.BASELINE, M.TAG, M.ADD, M.TRANS, M.TRANSA, M.TRANSR, M.HYPA):
            for _ in range(60):
                n_bundles = rng.randrange(1, 4)
                bundles = [brec(entity=(f"e{k}",), translation=(f"t{k}",),
                                hypernym=(f"h{k}",), hypernym_tgt=(f"g{k}",))
                           for k in range(n_bundles)]
                outputs = [[rng.choice(pool) for _ in range(rng.randrange(0, 15))]]
                report = copy_accuracy([entry(0, method, bundles)], outputs, method)
                assert report.correct + report.no_tag + report.wrong_tag == report.total
                assert report.total == n_bundles

    def test_report_formats(self, tmp_path):
        bundles = [brec(entity=("aa",)), brec(entity=("bb",))]
        outputs = [["<start>", "aa", "<end>"]]
        report = copy_accuracy([entry(0, M.TAG, bundles)], outputs, M.TAG)
        text = format_copy_report(report)
        assert "correct" in text and "no_tag" in text and "wrong_tag" in text
        write_copy_tsv(report, tmp_path / "copy.tsv")
        lines = (tmp_path / "copy.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "kind\tname\tcount\ttotal\tpct"
        assert "breakdown\tcorrect\t1\t2\t50.00" in lines


# ---------------------------------------------------------------------------
# per-POS accuracy


def _pos_entry(line_no, spans):
    return ManifestEntry(
        line_no, M.TAG, PLAIN_VOCAB,
        [brec(src_span=list(s)) for s in spans],
    )


class TestPosAccuracy:
    def test_two_sentence_fixture_matches_hand_computation(self):
        pos_tags = [
            ["DET", "NOUN", "VERB", "PROPN", "ADV", "PUNCT"],
            ["DET", "NOUN", "ADP", "PROPN", "VERB", "NOUN", "PUNCT"],
        ]
        references = [
            ["le", "roi", "visita", "birmanie", "paisiblement", "."],
            ["une", "reine", "de", "gambie", "signa", "traite", "."],
        ]
        alignments = [
            {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (5, 5)},
            {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 6)},  # token 5 unaligned
        ]
        system = [list(references[0]), list(references[1])]
        baseline = [
            ["le", "roi", "XX", "birmanie", "YY", "."],
            ["QQ", "reine", "de", "gambie", "signa", "traite", "."],
        ]
        manifest = [_pos_entry(0, [(3, 4)]), _pos_entry(1, [(3, 4)])]
        report = pos_accuracy(system, baseline, manifest, pos_tags, alignments, references,
                              resamples=200, seed=1)
        rows = {(r.pos, r.position): r for r in report.rows}
        assert set(rows) == {
            ("DET", "pre"), ("NOUN", "pre"), ("VERB", "pre"), ("ADP", "pre"),
            ("ADV", "post"), ("PUNCT", "post"), ("VERB", "post"),
        }
        assert rows[("DET", "pre")].n == 2
        assert rows[("DET", "pre")].sys_acc == 1.0
        assert rows[("DET", "pre")].base_acc == 0.5
        assert rows[("DET", "pre")].diff == pytest.approx(0.5)
        assert rows[("VERB", "pre")].base_acc == 0.0
        assert rows[("ADV", "post")].sys_acc == 1.0
        assert rows[("ADV", "post")].base_acc == 0.0
        assert rows[("PUNCT", "post")].n == 2
        assert rows[("PUNCT", "post")].diff == 0.0
        # treaty (unaligned) is excluded: NOUN rows only count aligned tokens
        assert rows[("NOUN", "pre")].n == 2
        assert ("NOUN", "post") not in rows

    def test_spec_single_sentence_example(self):
        # two pre tokens of one POS: system matches both, baseline one
        pos_tags = [["ADJ", "ADJ", "PROPN"]]
        references = [["bon", "mot", "X"]]
        alignments = [{(0, 0), (1, 1), (2, 2)}]
        system = [["bon", "mot", "X"]]
        baseline = [["bon", "qq", "X"]]
        manifest = [_pos_entry(0, [(2, 3)])]
        report = pos_accuracy(system, baseline, manifest, pos_tags, alignments, references,
                              resamples=100, seed=0)
        row = report.rows[0]
        assert (row.pos, row.position, row.n) == ("ADJ", "pre", 2)
        assert row.sys_acc == 1.0
        assert row.base_acc == 0.5
        assert row.diff == pytest.approx(0.5)

    def test_output_occurrences_consumed_left_to_right(self):
        pos_tags = [["NOUN", "NOUN", "PROPN"]]
        references = [["r", "r", "X"]]
        alignments = [{(0, 0), (1, 1), (2, 2)}]
        system = [["r", "X"]]  # single r: only the first source noun can claim it
        baseline = [["r", "r", "X"]]
        manifest = [_pos_entry(0, [(2, 3)])]
        report = pos_accuracy(system, baseline, manifest, pos_tags, alignments, references,
                              resamples=100, seed=0)
        row = report.rows[0]
        assert row.sys_acc == 0.5
        assert row.base_acc == 1.0

    def test_untagged_line_is_skipped(self):
        pos_tags = [["NOUN"]]
        references = [["r"]]
        alignments = [{(0, 0)}]
        manifest = [ManifestEntry(0, M.TAG, PLAIN_VOCAB, [])]
        report = pos_accuracy([["r"]], [["r"]], manifest, pos_tags, alignments, references,
                              resamples=10, seed=0)
        assert report.rows == []

    def test_input_length_mismatch(self):
        with pytest.raises(CountMismatch):
            pos_accuracy([["a"]], [["a"], ["b"]], [], [["N"]], [set()], [["a"]])

    @pytest.mark.parametrize("link", [(3, 0), (0, 3)])
    def test_link_outside_the_line(self, link):
        # a source index past the POS row, or a reference index past the reference
        out = [["bon", "mot", "X"]]
        with pytest.raises(LengthMismatch, match=f"^line 1: link {link[0]}-{link[1]} "):
            pos_accuracy(out, out, [_pos_entry(0, [(2, 3)])], [["ADJ", "ADJ", "PROPN"]],
                         [{(0, 0), link}], out, resamples=10)

    def test_span_past_the_pos_row(self):
        out = [["bon", "mot", "X"]]
        with pytest.raises(MalformedFile, match=r"^line_no 0: src_span \[2, 4\) ends past"):
            pos_accuracy(out, out, [_pos_entry(0, [(2, 4)])], [["ADJ", "ADJ", "PROPN"]],
                         [{(0, 0)}], out, resamples=10)

    def test_report_writers(self, tmp_path):
        pos_tags = [["ADJ", "ADJ", "PROPN"]]
        references = [["bon", "mot", "X"]]
        alignments = [{(0, 0), (1, 1), (2, 2)}]
        manifest = [_pos_entry(0, [(2, 3)])]
        report = pos_accuracy([["bon", "mot", "X"]], [["bon", "qq", "X"]], manifest,
                              pos_tags, alignments, references, resamples=100, seed=0)
        write_pos_tsv(report, tmp_path / "pos_report.tsv")
        lines = (tmp_path / "pos_report.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "pos\tposition\tsys_acc\tbase_acc\tdiff\tp\tn"
        assert lines[1].startswith("ADJ\tpre\t100.00\t50.00\t+50.00\t")
        assert "ADJ" in format_pos_report(report)


# ---------------------------------------------------------------------------
# significance


def enum_pvalue(system_flags, baseline_flags):
    """Exhaustive enumeration over all 2^n swap patterns (tiny n only)."""
    diffs = [int(s) - int(b) for s, b in zip(system_flags, baseline_flags)]
    n = len(diffs)
    observed = abs(sum(diffs))
    hits = 0
    for mask in range(2 ** n):
        d = sum(-diffs[k] if (mask >> k) & 1 else diffs[k] for k in range(n))
        hits += abs(d) >= observed
    return hits / 2 ** n


class TestSignificance:
    def test_identical_flags_give_p_one(self):
        flags = [True, False, True, True]
        assert significance(flags, flags, resamples=500, seed=3) == 1.0

    def test_n4_matches_enumeration_oracle(self):
        system = [True] * 4
        baseline = [False] * 4
        exact = enum_pvalue(system, baseline)
        assert exact == pytest.approx(2 / 16)
        p = significance(system, baseline, resamples=10000, seed=0)
        # Monte Carlo with 10k resamples: 0.02 is ~6 sigma around 0.125
        assert p == pytest.approx(exact, abs=0.02)

    def test_mixed_case_matches_enumeration(self):
        system = [True, True, False, True, False]
        baseline = [False, True, True, False, False]
        exact = enum_pvalue(system, baseline)
        p = significance(system, baseline, resamples=20000, seed=9)
        assert p == pytest.approx(exact, abs=0.02)

    def test_deterministic_given_seed(self):
        system = [True, False, True, True, False, True]
        baseline = [False, False, True, False, False, True]
        p1 = significance(system, baseline, resamples=2000, seed=7)
        p2 = significance(system, baseline, resamples=2000, seed=7)
        assert p1 == p2

    def test_symmetric_in_arguments(self):
        system = [True, False, True, True, False]
        baseline = [False, True, True, False, False]
        assert significance(system, baseline, seed=5, resamples=1000) == significance(
            baseline, system, seed=5, resamples=1000
        )

    def test_errors(self):
        with pytest.raises(EmptyInput):
            significance([], [], resamples=10)
        with pytest.raises(CountMismatch):
            significance([True], [True, False], resamples=10)
        with pytest.raises(InvalidParams):
            significance([True], [False], resamples=0)
