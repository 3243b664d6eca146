from collections import Counter

import pytest

from conftest import make_corpus
from tagcopy.errors import LengthMismatch
from tagcopy.lexicon import (
    TableEntry,
    TranslationTable,
    build_translation_table,
    load_table,
    save_table,
    translate_tokens,
    translate_tokens_strict,
    translate_word,
)


class TestBuild:
    def test_picks_argmax_by_count(self):
        corpus = make_corpus([("a a a", "x x y")])
        table = build_translation_table(corpus, [{(0, 0), (1, 1), (2, 2)}])
        entry = table.entries["a"]
        assert entry.target == "x"
        assert entry.count == 2
        assert entry.prob == pytest.approx(2 / 3)

    def test_tie_goes_to_more_frequent_target(self):
        corpus = make_corpus([("a", "x"), ("a", "y"), ("b", "y y")])
        table = build_translation_table(corpus, [{(0, 0)}, {(0, 0)}, {(0, 0), (0, 1)}])
        assert table.entries["a"].target == "y"

    def test_full_tie_goes_to_smaller_word(self):
        corpus = make_corpus([("a", "x"), ("a", "y")])
        table = build_translation_table(corpus, [{(0, 0)}, {(0, 0)}])
        assert table.entries["a"].target == "x"

    def test_unlinked_word_absent(self):
        corpus = make_corpus([("a b", "x y")])
        table = build_translation_table(corpus, [{(0, 0)}])
        assert "b" not in table.entries

    def test_min_count_filters(self):
        corpus = make_corpus([("a", "x"), ("b", "y"), ("b", "y")])
        table = build_translation_table(corpus, [{(0, 0)}, {(0, 0)}, {(0, 0)}], min_count=2)
        assert "a" not in table.entries
        assert table.entries["b"].count == 2

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            build_translation_table(make_corpus([("a", "x")]), [])

    def test_out_of_bounds_link(self):
        with pytest.raises(LengthMismatch, match="^line 1: "):
            build_translation_table(make_corpus([("a", "x")]), [{(0, 3)}])

    def test_probability_consistent_with_recount(self, toy_corpus, toy_gold_alignments, toy_table):
        totals = Counter()
        pair_counts = Counter()
        for pair, links in zip(toy_corpus.pairs, toy_gold_alignments):
            for i, j in links:
                totals[pair.src[i]] += 1
                pair_counts[(pair.src[i], pair.tgt[j])] += 1
        for src_word, entry in toy_table.entries.items():
            assert entry.count == pair_counts[(src_word, entry.target)]
            assert entry.prob == pytest.approx(entry.count / totals[src_word])

    def test_deterministic_file_bytes(self, tmp_path, toy_corpus, toy_gold_alignments):
        first = build_translation_table(toy_corpus, toy_gold_alignments)
        second = build_translation_table(toy_corpus, toy_gold_alignments)
        save_table(first, tmp_path / "t1.tsv")
        save_table(second, tmp_path / "t2.tsv")
        assert (tmp_path / "t1.tsv").read_bytes() == (tmp_path / "t2.tsv").read_bytes()


class TestLookup:
    def test_known_word(self):
        table = TranslationTable({"myanmar": TableEntry("缅甸", 3, 1.0)})
        assert translate_word(table, "myanmar") == "缅甸"

    def test_absent_word(self):
        table = TranslationTable({})
        assert translate_word(table, "anything") is None

    def test_unnormalized_word_misses(self):
        # corpus text is pre-lowercased, so cased lookups miss by design
        table = TranslationTable({"myanmar": TableEntry("缅甸", 3, 1.0)})
        assert translate_word(table, "Myanmar") is None

    def test_tokens_pass_through(self):
        table = TranslationTable({"state": TableEntry("国家", 2, 1.0)})
        assert translate_tokens(table, ["the", "state"]) == ["the", "国家"]

    def test_tokens_strict(self):
        table = TranslationTable({"state": TableEntry("国家", 2, 1.0)})
        assert translate_tokens_strict(table, ["state"]) == ["国家"]
        assert translate_tokens_strict(table, ["the", "state"]) is None


class TestTableFile:
    def test_round_trip(self, tmp_path, toy_table):
        save_table(toy_table, tmp_path / "table.tsv")
        loaded = load_table(tmp_path / "table.tsv")
        assert set(loaded.entries) == set(toy_table.entries)
        for word, entry in toy_table.entries.items():
            other = loaded.entries[word]
            assert other.target == entry.target
            assert other.count == entry.count
            assert other.prob == pytest.approx(entry.prob, abs=5e-7)  # 6-decimal file

    def test_format(self, tmp_path):
        table = TranslationTable({"b": TableEntry("y", 1, 0.5), "a": TableEntry("x", 2, 1.0)})
        save_table(table, tmp_path / "table.tsv")
        lines = (tmp_path / "table.tsv").read_text(encoding="utf-8").splitlines()
        assert lines == ["a\tx\t2\t1.000000", "b\ty\t1\t0.500000"]

    def test_crlf_line_ends_read_as_newlines(self, tmp_path):
        # the reader drops the "\r" of a CRLF line end, so none reaches the
        # probability field: a CRLF table loads as its LF twin
        (tmp_path / "table.tsv").write_bytes(b"a\tx\t2\t1.000000\r\nb\ty\t1\t0.500000\r\n")
        assert load_table(tmp_path / "table.tsv") == TranslationTable(
            {"a": TableEntry("x", 2, 1.0), "b": TableEntry("y", 1, 0.5)})
