"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -rA or -s to see them all)."""

import hashlib
import json
import logging
import random
import time
from contextlib import contextmanager

import pytest

from conftest import load_spotlight_fixture, manifest_from_selection
from tagcopy import cli
from tagcopy.align import (
    FORWARD,
    REVERSE,
    align_corpus,
    train_alignment,
)
from tagcopy.corpus import ParallelCorpus, SentencePair
from tagcopy.link import SpotlightClient
from tagcopy.metrics import bleu, copy_accuracy, pos_accuracy, significance, write_copy_tsv
from tagcopy.template import (
    PLAIN_VOCAB,
    SPECIAL_VOCAB,
    TAGGED_METHODS,
    BundleRecord,
    ManifestEntry,
    TemplateMethod,
    render_source_template,
    select_bundles,
    tag_corpus,
)
from test_cli import write_config
from test_metrics import HYPS, REFS, enum_pvalue, oracle_bleu
from test_template import run_round_trips

M = TemplateMethod


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number:02d} FAIL - {title}")
        raise
    print(f"ACCEPTANCE {number:02d} PASS - {title}")


def bijective_corpus(n_pairs=500, vocab=50, seed=99):
    """Monotone word-for-word corpus over a bijective dictionary; the
    generator's identity links are the alignment oracle."""
    rng = random.Random(seed)
    pairs, gold = [], []
    for k in range(n_pairs):
        length = rng.randrange(3, 9)
        idxs = [rng.randrange(vocab) for _ in range(length)]
        pairs.append(
            SentencePair([f"s{i:02d}" for i in idxs], [f"t{i:02d}" for i in idxs], k)
        )
        gold.append({(j, j) for j in range(length)})
    return ParallelCorpus(pairs), gold


def test_criterion_01_aligner_recovery():
    with criterion(1, "bidirectional Viterbi + intersection recovers >= 99% of generator links in < 5 s"):
        corpus, gold = bijective_corpus()
        started = time.perf_counter()
        fwd = train_alignment(corpus, iterations=5, direction=FORWARD)
        rev = train_alignment(corpus, iterations=5, direction=REVERSE)
        fwd_sets = align_corpus(fwd, corpus)
        rev_sets = align_corpus(rev, corpus)
        elapsed = time.perf_counter() - started
        recovered = sum(len((f & r) & g) for f, r, g in zip(fwd_sets, rev_sets, gold))
        total = sum(len(g) for g in gold)
        recall = recovered / total
        assert recall >= 0.99, f"recall {recall:.4f}"
        assert elapsed < 5.0, f"took {elapsed:.2f}s"


def test_criterion_02_em_monotonicity(toy_corpus):
    with criterion(2, "training perplexity non-increasing over 10 MLE iterations (rel 1e-9)"):
        model = train_alignment(toy_corpus, iterations=10)
        history = model.perplexity_history
        assert len(history) == 10
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * (1.0 + 1e-9), f"{prev} -> {cur}"


def test_criterion_03_theta_rows_normalized(toy_corpus):
    with criterion(3, "every theta row sums to 1 +/- 1e-9 after every M-step"):
        # EM is deterministic: k iterations give the model after the k-th M-step
        worst = []
        for k in range(1, 11):
            model = train_alignment(toy_corpus, iterations=k)
            worst.append(max(abs(sum(row.values()) - 1.0) for row in model.theta.values()))
        assert len(worst) == 10
        assert max(worst) <= 1e-9, f"worst row-sum deviation {max(worst):.2e}"


def test_criterion_04_template_round_trips():
    with criterion(4, "1000 randomized template round-trips per method, 0 failures"):
        assert run_round_trips(1000, seed=424242) == 0


def test_criterion_05_method_parity(toy_corpus, toy_annotations, toy_gold_alignments, toy_table):
    with criterion(5, "identical tagged (line, span) sets across methods; tag fraction 0.25 +/- 0.005"):
        # one selection serves every method; each tagged method rewrites
        # exactly the selected lines, and baseline none
        selected = select_bundles(toy_corpus, toy_annotations, toy_gold_alignments, toy_table)
        lines = {pair.line_no for pair, bundles in zip(toy_corpus.pairs, selected) if bundles}
        for method in (M.BASELINE,) + TAGGED_METHODS:
            rows = tag_corpus(toy_corpus, selected, method)
            assert len(rows) == len(toy_corpus.pairs)
            rewritten = {pair.line_no for pair, row in zip(toy_corpus.pairs, rows)
                         if row != (pair.src, pair.tgt)}
            assert rewritten == (set() if method is M.BASELINE else lines), method
        tag_fraction = len(lines) / len(toy_corpus.pairs)
        assert abs(tag_fraction - 0.25) <= 0.005, tag_fraction
        assert len(lines) == 50


def test_criterion_06_bleu_correctness():
    with criterion(6, "BLEU: identity = 100.00, hand corpus matches oracle to 1e-6, zero 4-gram = 0"):
        assert bleu(REFS, REFS).score == 100.0
        result = bleu(HYPS, REFS)
        assert result.score == pytest.approx(oracle_bleu(HYPS, REFS), abs=1e-6)
        assert result.score == pytest.approx(35.273143, abs=1e-6)
        assert bleu([["a", "b", "c", "d", "e"]], [["a", "b", "x", "d", "e"]]).score == 0.0


def test_criterion_07_copy_accuracy_oracle(
    tmp_path, toy_corpus, toy_annotations, toy_gold_alignments, toy_table
):
    with criterion(7, "perfect copier scores 1.0; 1 missing + 1 corrupted region gives {k-2, 1, 1}"):
        # a simulated perfect copier emits exactly the tagged target sentences
        selected = select_bundles(toy_corpus, toy_annotations, toy_gold_alignments, toy_table)
        for method in (M.BASELINE,) + TAGGED_METHODS:
            tagged = tag_corpus(toy_corpus, selected, method)
            manifest = manifest_from_selection(selected, method, SPECIAL_VOCAB)
            outputs = [tgt for _, tgt in tagged]
            report = copy_accuracy(manifest, outputs, method)
            for component in report.matched:
                assert report.accuracy(component) == 1.0, (method, component)
            assert (report.correct, report.no_tag, report.wrong_tag) == (report.total, 0, 0)

        tagged = tag_corpus(toy_corpus, selected, M.TRANSA)
        manifest = manifest_from_selection(selected, M.TRANSA, SPECIAL_VOCAB)
        outputs = [list(tgt) for _, tgt in tagged]
        single = [e for e in manifest if len(e.bundles) == 1]
        marks = SPECIAL_VOCAB.tokens()
        # one region vanishes entirely -> no_tag
        outputs[single[0].line_no] = [t for t in outputs[single[0].line_no] if t not in marks]
        # one region keeps its shape but copies the wrong entity -> wrong_tag
        corrupt = outputs[single[1].line_no]
        corrupt[corrupt.index(SPECIAL_VOCAB.start) + 1] = "WRONG"
        report = copy_accuracy(manifest, outputs, M.TRANSA)
        k = report.total
        assert (report.correct, report.no_tag, report.wrong_tag) == (k - 2, 1, 1)
        # the machine report carries the same three-way breakdown
        write_copy_tsv(report, tmp_path / "copy.tsv")
        rows = [
            line.split("\t")
            for line in (tmp_path / "copy.tsv").read_text(encoding="utf-8").splitlines()[1:]
        ]
        breakdown = {name: int(count) for kind, name, count, _, _ in rows if kind == "breakdown"}
        assert breakdown == {"correct": k - 2, "no_tag": 1, "wrong_tag": 1}


def test_criterion_08_pos_projection_and_significance():
    with criterion(8, "hand POS fixture reproduced exactly; n=4 significance matches 2/16 enumeration"):
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
            {(0, 0), (1, 1), (2, 2), (3, 3), (4, 4), (6, 6)},
        ]
        system = [list(references[0]), list(references[1])]
        baseline = [
            ["le", "roi", "XX", "birmanie", "YY", "."],
            ["QQ", "reine", "de", "gambie", "signa", "traite", "."],
        ]
        manifest = [
            ManifestEntry(0, M.TAG, PLAIN_VOCAB, [BundleRecord([3, 4], [3, 4], ["e"], ["t"], ["h"], ["h"], "kb:X")]),
            ManifestEntry(1, M.TAG, PLAIN_VOCAB, [BundleRecord([3, 4], [3, 4], ["e"], ["t"], ["h"], ["h"], "kb:X")]),
        ]
        report = pos_accuracy(system, baseline, manifest, pos_tags, alignments, references,
                              resamples=500, seed=1)
        rows = {(r.pos, r.position): (r.sys_acc, r.base_acc, r.n) for r in report.rows}
        assert rows == {
            ("ADP", "pre"): (1.0, 1.0, 1),
            ("DET", "pre"): (1.0, 0.5, 2),
            ("NOUN", "pre"): (1.0, 1.0, 2),
            ("VERB", "pre"): (1.0, 0.0, 1),
            ("ADV", "post"): (1.0, 0.0, 1),
            ("PUNCT", "post"): (1.0, 1.0, 2),
            ("VERB", "post"): (1.0, 1.0, 1),
        }
        exact = enum_pvalue([True] * 4, [False] * 4)
        assert exact == 2 / 16
        p = significance([True] * 4, [False] * 4, resamples=10000, seed=0)
        assert p == pytest.approx(exact, abs=0.02)  # smoothed Monte Carlo vs exact


def test_criterion_09_linker_fixtures(caplog):
    with criterion(9, "5 recorded annotator responses parse to the expected mentions, offline"):
        expected = {
            "resp_simple.json": [(0, 1, "http://dbpedia.org/resource/Myanmar")],
            "resp_multi.json": [
                (1, 4, "http://dbpedia.org/resource/The_New_York_Times"),
                (5, 6, "http://dbpedia.org/resource/The_Gambia"),
            ],
            "resp_empty.json": [],
            "resp_boundary.json": [(3, 4, "http://dbpedia.org/resource/Danube")],
            "resp_overlap.json": [(2, 4, "http://dbpedia.org/resource/Sierra_Leone")],
        }
        for name, want in expected.items():
            payload = load_spotlight_fixture(name)
            transport_calls = []

            def transport(url, params, _payload=payload):
                transport_calls.append(url)
                return 200, json.dumps(_payload)

            client = SpotlightClient("http://fixture.invalid/annotate", transport=transport)
            with caplog.at_level(logging.WARNING, logger="tagcopy.link"):
                mentions = client.annotate(payload["@text"].split())
            assert [(m.start, m.end, m.uri) for m in mentions] == want, name
            assert transport_calls == ["http://fixture.invalid/annotate"]
        assert any("token boundaries" in rec.message for rec in caplog.records)


def test_criterion_10_pipeline_determinism(tmp_path, toy_dir):
    with criterion(10, "pipeline-run twice with the same seed yields byte-identical artifacts"):
        digests = []
        for name in ("first", "second"):
            workdir = tmp_path / name
            config = write_config(tmp_path / f"{name}.yaml", toy_dir, workdir, seed=13)
            assert cli.main(["pipeline-run", "--config", str(config)]) == 0
            tree = {}
            for path in sorted(workdir.rglob("*")):
                if path.is_file():
                    tree[str(path.relative_to(workdir))] = hashlib.sha256(
                        path.read_bytes()
                    ).hexdigest()
            digests.append(tree)
        assert digests[0] == digests[1]
        assert len(digests[0]) >= 29  # 28 artifacts + stage manifest


def test_criterion_11_template_fidelity():
    with criterion(11, "the six reference template rows render token-for-token"):
        sentence = "myanmar was a highly civilized country .".split()
        b = BundleRecord([0, 1], [0, 1], ["myanmar"], ["缅甸"], ["state"], ["国家"],
                         "http://example.org/kb/Myanmar")
        tail = "was a highly civilized country ."
        # the single mid separator and transa's first separator are the same
        # underlying token, printed here under its transa name
        expected = {
            M.TAG: f"<start> myanmar <end> {tail}",
            M.ADD: f"<start> myanmar <mid1> state <end> {tail}",
            M.TRANS: f"<start> myanmar <mid1> 缅甸 <end> {tail}",
            M.TRANSA: f"<start> myanmar <mid1> 缅甸 <mid2> state <end> {tail}",
            M.TRANSR: f"<start> state <mid1> 缅甸 <end> {tail}",
            M.HYPA: f"myanmar state {tail}",
        }
        for method, want in expected.items():
            got = render_source_template(method, b, sentence, PLAIN_VOCAB)
            assert got == want.split(), method
        assert render_source_template(M.BASELINE, b, sentence, PLAIN_VOCAB) == sentence
        # the reserved-token vocabulary renders the same layout on the target
        # side: source-language entity and hypernym appear in target output
        tgt = ["in", "x", "冈比亚", "y"]
        gb = BundleRecord([2, 3], [2, 3], ["gambia"], ["冈比亚"], ["country"], ["country"],
                          "http://example.org/kb/Gambia")
        from tagcopy.template import render_target_template

        got = render_target_template(M.TRANSA, gb, tgt, SPECIAL_VOCAB)
        assert got == [
            "in", "x",
            "<special2>", "gambia", "<special3>", "冈比亚", "<special4>", "country", "<special5>",
            "y",
        ]
