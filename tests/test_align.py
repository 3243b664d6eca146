import itertools
import math
import random
import re
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import digamma

import reference_cells
from conftest import make_corpus
from dict_aligner import dict_model, theta_from_rows
from tagcopy.align import (
    FORWARD,
    NULL_WORD,
    PRUNE_RATIO,
    REVERSE,
    _Cells,
    align_corpus,
    check_links,
    corpus_perplexity,
    _digamma,
    load_model,
    prune_model,
    read_pharaoh,
    save_model,
    symmetrize_links,
    train_alignment,
    viterbi_align,
    write_pharaoh,
)
from tagcopy.corpus import ParallelCorpus, SentencePair
from tagcopy.errors import (
    EmptyCorpus,
    EmptyPair,
    InvalidParams,
    LengthMismatch,
    MalformedFile,
    ZeroProbability,
)

# ---------------------------------------------------------------------------
# independent EM oracle: enumerate every alignment vector of every pair and
# marginalize, instead of using per-position posteriors


def _oracle_prior(i, j, m, n, tension, p0):
    if i is None:
        return p0
    weights = [math.exp(tension * -abs((k + 1) / n - (j + 1) / m)) for k in range(n)]
    return (1.0 - p0) * weights[i] / sum(weights)


def _oracle_init(pairs):
    theta = {NULL_WORD: {}}
    for cond, emit in pairs:
        for f in emit:
            theta[NULL_WORD][f] = 0.0
        for e in cond:
            row = theta.setdefault(e, {})
            for f in emit:
                row[f] = 0.0
    for row in theta.values():
        for f in row:
            row[f] = 1.0 / len(row)
    return theta


def oracle_em(pairs, iterations, tension, p0):
    theta = _oracle_init(pairs)
    for _ in range(iterations):
        counts = {e: dict.fromkeys(row, 0.0) for e, row in theta.items()}
        for cond, emit in pairs:
            n, m = len(cond), len(emit)
            post = defaultdict(float)
            total = 0.0
            for assign in itertools.product([None] + list(range(n)), repeat=m):
                p = 1.0
                for j, a_j in enumerate(assign):
                    word = cond[a_j] if a_j is not None else NULL_WORD
                    p *= _oracle_prior(a_j, j, m, n, tension, p0) * theta[word][emit[j]]
                total += p
                for j, a_j in enumerate(assign):
                    post[(j, a_j)] += p
            for (j, a_j), mass in post.items():
                word = cond[a_j] if a_j is not None else NULL_WORD
                counts[word][emit[j]] += mass / total
        for e, crow in counts.items():
            row_total = sum(crow.values())
            if row_total > 0.0:
                for f, c in crow.items():
                    theta[e][f] = c / row_total
    return theta


SPEC_PAIRS = [("a", "x"), ("a b", "x y"), ("b", "y")]


class TestTraining:
    @pytest.mark.parametrize(
        "pairs",
        [
            SPEC_PAIRS,
            [("a a", "x x"), ("a b", "y x"), ("b", "y")],  # repeated words
            [("c", "z"), ("a b c", "x y z")],
        ],
    )
    def test_matches_enumeration_oracle(self, pairs):
        corpus = make_corpus(pairs)
        model = train_alignment(corpus, iterations=5, tension=4.0, p0=0.05)
        oracle = oracle_em([(p.src, p.tgt) for p in corpus.pairs], 5, 4.0, 0.05)
        assert set(model.theta) == set(oracle)
        for e, row in oracle.items():
            for f, p in row.items():
                assert model.theta[e][f] == pytest.approx(p, abs=1e-9)

    def test_learns_bijection(self):
        corpus = make_corpus(SPEC_PAIRS)
        model = train_alignment(corpus, iterations=5, tension=4.0, p0=0.05)
        assert model.theta["a"]["x"] > 0.95
        assert model.theta["b"]["y"] > 0.95

    def test_single_pair_converges_in_one_iteration(self):
        corpus = make_corpus([("a", "x")])
        model = train_alignment(corpus, iterations=1, p0=0.0)
        assert model.theta["a"]["x"] == pytest.approx(1.0)

    def test_empty_corpus(self):
        with pytest.raises(EmptyCorpus):
            train_alignment(ParallelCorpus([]))

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"iterations": 0},
            {"p0": 1.0},
            {"p0": -0.1},
            {"tension": -1.0},
            {"tension": math.nan},
            {"tension": math.inf},
            {"vb": True, "alpha": 0.0},
            {"vb": True, "alpha": math.nan},
            {"vb": True, "alpha": math.inf},
            {"direction": "sideways"},
        ],
    )
    def test_invalid_params(self, kwargs):
        with pytest.raises(InvalidParams):
            train_alignment(make_corpus([("a", "x")]), **kwargs)

    def test_rows_normalized_every_iteration(self):
        # EM is deterministic: k iterations give the model after the k-th M-step
        corpus = make_corpus(SPEC_PAIRS * 2)
        for k in range(1, 7):
            model = train_alignment(corpus, iterations=k)
            for row in model.theta.values():
                assert abs(sum(row.values()) - 1.0) <= 1e-9

    def test_perplexity_history_non_increasing(self):
        corpus = make_corpus(SPEC_PAIRS * 3)
        model = train_alignment(corpus, iterations=10)
        history = model.perplexity_history
        assert len(history) == 10
        for prev, cur in zip(history, history[1:]):
            assert cur <= prev * (1.0 + 1e-9)

    def test_history_head_matches_fresh_perplexity(self):
        corpus = make_corpus(SPEC_PAIRS)
        one = train_alignment(corpus, iterations=1)
        two = train_alignment(corpus, iterations=2)
        # iteration k+1 sees the parameters produced by iteration k
        assert two.perplexity_history[1] == pytest.approx(
            corpus_perplexity(one, corpus), rel=1e-12
        )

    def test_reverse_direction_conditions_on_target(self):
        corpus = make_corpus([("a b", "x")])
        model = train_alignment(corpus, iterations=2, direction=REVERSE)
        assert "x" in model.theta
        assert set(model.theta["x"]) == {"a", "b"}

    def test_vb_mode_runs_and_stays_in_range(self):
        corpus = make_corpus(SPEC_PAIRS * 2)
        model = train_alignment(corpus, iterations=3, vb=True, alpha=0.01)
        for row in model.theta.values():
            for p in row.values():
                assert 0.0 < p <= 1.0
        assert model.theta["a"]["x"] > model.theta["a"]["y"]

    def test_vb_rows_are_subnormalized(self):
        # the digamma transform deliberately leaves mass for unseen events:
        # multi-entry rows sum to strictly less than 1
        corpus = make_corpus(SPEC_PAIRS * 2)
        model = train_alignment(corpus, iterations=3, vb=True, alpha=0.5)
        multi = [row for row in model.theta.values() if len(row) > 1]
        assert multi
        for row in multi:
            assert sum(row.values()) < 1.0

    def test_vb_huge_alpha_tends_uniform(self):
        corpus = make_corpus(SPEC_PAIRS)
        model = train_alignment(corpus, iterations=2, vb=True, alpha=1e6)
        row = model.theta["a"]
        for p in row.values():
            assert p == pytest.approx(1.0 / len(row), rel=1e-3)


class TestViterbi:
    def test_prefers_lexical_link_over_null(self):
        model = dict_model({"a": {"x": 0.9}, NULL_WORD: {"x": 0.1}}, tension=4.0, p0=0.08)
        corpus = make_corpus([("a", "x")])
        assert viterbi_align(model, corpus.pairs[0]) == {(0, 0)}

    def test_exact_tie_picks_smaller_position(self):
        # tension 0 makes the prior uniform, so equal theta means equal scores
        model = dict_model(
            {"a": {"x": 0.5}, "b": {"x": 0.5}, NULL_WORD: {"x": 0.01}}, tension=0.0, p0=0.1
        )
        assert viterbi_align(model, make_corpus([("a b", "x")]).pairs[0]) == {(0, 0)}

    def test_unseen_everywhere_falls_back_to_null(self):
        model = dict_model({"a": {"y": 1.0}, NULL_WORD: {"y": 1.0}}, tension=4.0, p0=0.08)
        assert viterbi_align(model, make_corpus([("a", "x")]).pairs[0]) == set()

    def test_empty_pair(self):
        from tagcopy.corpus import SentencePair

        model = dict_model({NULL_WORD: {}}, tension=4.0, p0=0.08)
        with pytest.raises(EmptyPair):
            viterbi_align(model, SentencePair([], ["x"], 0))

    def test_deterministic_and_in_bounds(self):
        rng = random.Random(11)
        vocab_e = [f"e{i}" for i in range(8)]
        vocab_f = [f"f{i}" for i in range(8)]
        theta = {e: {f: rng.random() for f in vocab_f} for e in vocab_e}
        theta[NULL_WORD] = {f: rng.random() for f in vocab_f}
        model = dict_model(theta, tension=4.0, p0=0.08)
        for _ in range(50):
            n, m = rng.randrange(1, 6), rng.randrange(1, 6)
            pair = make_corpus(
                [(" ".join(rng.choices(vocab_e, k=n)), " ".join(rng.choices(vocab_f, k=m)))]
            ).pairs[0]
            first = viterbi_align(model, pair)
            second = viterbi_align(model, pair)
            assert first == second
            assert all(0 <= i < n and 0 <= j < m for i, j in first)
            assert len({j for _, j in first}) == len(first)  # one link per emitted token


class TestSymmetrize:
    def test_intersection_of_identical_link_sets(self):
        links = {(0, 0), (1, 1)}
        assert symmetrize_links(links, set(links), "intersection") == {(0, 0), (1, 1)}

    def test_union(self):
        fwd = {(0, 0)}  # src->tgt: tgt0 -> src0, tgt1 -> NULL
        rev = {(0, 1)}  # tgt->src: src0 -> tgt1
        assert symmetrize_links(fwd, rev, "union") == {(0, 0), (0, 1)}

    def test_grow_diag_final_and_grows_along_diagonal(self):
        # the union link 2-1 is 8-adjacent to 1-1 and its source side is
        # uncovered, so grow-diag adopts it after the diagonal step
        fwd = {(0, 0), (1, 1)}
        rev = {(0, 0), (2, 1)}
        assert symmetrize_links(fwd, rev, "grow-diag-final-and") == {(0, 0), (1, 1), (2, 1)}

    def test_final_and_requires_both_ends_free(self):
        # isolated union link far from the intersection: adopted only while
        # both its words are unaligned
        fwd = {(0, 0), (3, 3)}
        rev = {(0, 0)}
        assert symmetrize_links(fwd, rev, "grow-diag-final-and") == {(0, 0), (3, 3)}
        rev_taken = {(0, 0), (3, 2)}
        out = symmetrize_links(fwd, rev_taken, "grow-diag-final-and")
        assert (3, 3) not in out or (3, 2) not in out

    def test_unknown_heuristic(self):
        with pytest.raises(InvalidParams):
            symmetrize_links(set(), set(), "magic")

    def test_subset_chain_on_random_inputs(self):
        rng = random.Random(3)
        for _ in range(200):
            n, m = rng.randrange(1, 7), rng.randrange(1, 7)
            fwd = {(rng.randrange(n), j) for j in range(m) if rng.random() < 0.7}
            rev = {(i, rng.randrange(m)) for i in range(n) if rng.random() < 0.7}
            inter = symmetrize_links(fwd, rev, "intersection")
            gdfa = symmetrize_links(fwd, rev, "grow-diag-final-and")
            union = symmetrize_links(fwd, rev, "union")
            assert inter <= gdfa <= union

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_subset_chain_property(self, data):
        n, m = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 8))
        link_sets = st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, m - 1)))
        fwd, rev = data.draw(link_sets), data.draw(link_sets)
        inter = symmetrize_links(fwd, rev, "intersection")
        gdfa = symmetrize_links(fwd, rev, "grow-diag-final-and")
        union = symmetrize_links(fwd, rev, "union")
        assert inter <= gdfa <= union


def test_theta_row_is_a_new_dict_in_f_order():
    rows = {"b": {"z": 0.25, "x": 0.75}, NULL_WORD: {"y": 1.0}, "a": {"y": 0.5, "w": 0.5}}
    theta = theta_from_rows(rows)
    assert list(theta) == [NULL_WORD, "a", "b"] and len(theta) == 3
    for e, row in rows.items():
        assert type(theta[e]) is dict
        assert list(theta[e].items()) == sorted(row.items())
    theta["a"]["w"] = 0.0
    assert theta["a"]["w"] == 0.5
    with pytest.raises(KeyError):
        theta["c"]
    assert (theta["b"].get("z", 0.0), theta["b"].get("y", 0.0),
            theta.get("c", {}).get("x", 0.0)) == (0.25, 0.0, 0.0)


class TestCheckLinks:
    def test_links_inside_the_pair_pass(self):
        check_links({(0, 0), (1, 2)}, 2, 3, 0)
        check_links(set(), 0, 0, 0)

    @pytest.mark.parametrize("link", [(2, 0), (0, 3), (-1, 0), (0, -1)])
    def test_link_outside_the_pair(self, link):
        # the 0-based alignment row 4 is line 5 of the alignments file
        i, j = link
        with pytest.raises(LengthMismatch, match=f"^line 5: link {i}-{j} out of bounds for 2x3"):
            check_links({(0, 0), link}, 2, 3, 4)


class TestPerplexity:
    def test_deterministic_model_scores_one(self):
        model = dict_model({"a": {"x": 1.0}, NULL_WORD: {"x": 1.0}}, tension=4.0, p0=0.0)
        assert corpus_perplexity(model, make_corpus([("a", "x")])) == pytest.approx(1.0)

    def test_uniform_over_two_words_scores_two(self):
        model = dict_model(
            {"a": {"x": 0.5, "y": 0.5}, NULL_WORD: {"x": 0.5, "y": 0.5}}, tension=4.0, p0=0.0
        )
        assert corpus_perplexity(model, make_corpus([("a", "x")])) == pytest.approx(2.0)

    def test_zero_probability_reports_line(self):
        model = dict_model({"a": {"y": 1.0}, NULL_WORD: {"y": 1.0}}, tension=4.0, p0=0.0)
        with pytest.raises(ZeroProbability, match="line 0"):
            corpus_perplexity(model, make_corpus([("a", "x")]))

    def test_empty_corpus(self):
        model = dict_model({NULL_WORD: {}}, tension=4.0, p0=0.08)
        with pytest.raises(EmptyCorpus):
            corpus_perplexity(model, ParallelCorpus([]))


class TestPersistence:
    def test_model_round_trips_exactly(self, tmp_path):
        corpus = make_corpus(SPEC_PAIRS)
        model = train_alignment(corpus, iterations=3, tension=4.0, p0=0.08)
        save_model(model, tmp_path / "m.tsv")
        loaded = load_model(tmp_path / "m.tsv")
        assert loaded.theta == model.theta
        assert loaded.tension == model.tension
        assert loaded.p0 == model.p0
        assert loaded.direction == model.direction

    def test_pharaoh_round_trip(self, tmp_path):
        sets = [{(0, 0), (2, 1)}, set(), {(5, 5)}]
        write_pharaoh(sets, tmp_path / "a.align")
        assert list(read_pharaoh(tmp_path / "a.align")) == sets

    @pytest.mark.parametrize("data", [b"0-0\r1-1\n2-2\n", b"0-0 1-1\r\n2-2\r\n"],
                             ids=["lone-cr", "crlf"])
    def test_pharaoh_line_ends_only_at_a_newline(self, tmp_path, data):
        # a lone "\r" separates links like a space, as in corpus.read_lines,
        # so later lines keep their pairs; a CRLF file reads as its LF twin
        path = tmp_path / "a.align"
        path.write_bytes(data)
        assert list(read_pharaoh(path)) == [{(0, 0), (1, 1)}, {(2, 2)}]

    def test_pharaoh_writes_an_iterator_as_its_list(self, tmp_path):
        sets = [{(0, 0), (2, 1)}, set(), {(2, 1), (5, 5)}]
        write_pharaoh(sets, tmp_path / "list.align")
        write_pharaoh((set(links) for links in sets), tmp_path / "once.align")
        assert (tmp_path / "once.align").read_bytes() == (tmp_path / "list.align").read_bytes()

    def test_pharaoh_is_sorted(self, tmp_path):
        write_pharaoh([{(2, 1), (0, 0), (1, 5)}], tmp_path / "a.align")
        assert (tmp_path / "a.align").read_text(encoding="utf-8") == "0-0 1-5 2-1\n"

    @pytest.mark.parametrize("bad", [
        "0-x", "1-2-3", "5", "1--2", "+1-2", "1-+2", "1_0-2", "1-\u00b2",
        pytest.param("1-" + "9" * 5000, id="more-digits-than-int-reads"),
    ])
    def test_pharaoh_malformed_link_names_path_and_line(self, tmp_path, bad):
        path = tmp_path / "a.align"
        path.write_text(f"0-0\n1-1 {bad} 2-2\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match=re.escape(f"a.align:2: bad link '{bad}'")):
            read_pharaoh(path)  # every line is checked when the file is read

    @pytest.mark.parametrize("dump, where", [
        ("tension\t4.0\np0\t0.08\na\tb\t0.5\textra\n", "m.tsv:3: neither"),
        ("tension\t4.0\np0\t0.08\na\tb\tx\n", "m.tsv:3: neither"),
        ("tension\tfour\np0\t0.08\na\tb\t0.5\n", "m.tsv:1: neither"),
        ("tension\t4.0\np0\t0.08\nbogus\t1\n", "m.tsv:3: neither"),
        ("direction\tsideways\ntension\t4.0\np0\t0.08\n", "m.tsv:1: neither"),
        ("tension\t4.0\na b 0.5\np0\t0.08\n", "m.tsv:2: neither"),
        ("p0\t0.08\na\tb\t0.5\n", "m.tsv:3: end of file before a 'tension' header"),
        ("tension\t4.0\na\tb\t0.5\n\n", "m.tsv:4: end of file before a 'p0' header"),
        ("", "m.tsv:1: end of file before a 'tension' header"),
        # a lone "\r" ends no line: it stays inside its field
        ("direction\tsrc-tgt\ntension\t4.0\np0\t0.08\na\tx\t0.5\rb\ty\t0.5\n", "m.tsv:4: neither"),
        ("tension\t4.0\rp0\t0.08\na\tb\t0.5\n", "m.tsv:3: end of file before a 'tension' header"),
        # a number is written as repr writes a finite float >= 0, which
        # float() alone reads more loosely
        ("tension\t4_0\np0\t0.08\n", "m.tsv:1: neither"),
        ("tension\t4.0\np0\t 0.08 \n", "m.tsv:2: neither"),
        ("tension\t4.0\np0\t0.08\na\tb\t0.1_2\n", "m.tsv:3: neither"),
        ("tension\t4.0\np0\t0.08\na\tb\t0.5\na\tc\t-0.0\n", "m.tsv:4: neither"),
        ("tension\t4.0\np0\t0.08\na\tb\t0.5\na\tc\t0.5\na\td\t+0.5\n", "m.tsv:5: neither"),
        ("tension\t4.0\np0\t0.08\na\tb\t1e999\n", "m.tsv:3: neither"),
    ])
    def test_malformed_model_names_path_and_line(self, tmp_path, dump, where):
        path = tmp_path / "m.tsv"
        path.write_text(dump, encoding="utf-8")
        with pytest.raises(MalformedFile, match=where):
            load_model(path)

    @pytest.mark.parametrize("end", ["\n", "\r\n", ""], ids=["lf", "crlf", "none"])
    def test_malformed_model_quotes_the_line_without_its_end(self, tmp_path, end):
        path = tmp_path / "m.tsv"
        path.write_text(f"tension\t4.0\np0\t0.08\na\tb\tx{end}", encoding="utf-8")
        with pytest.raises(MalformedFile) as exc:
            load_model(path)
        assert str(exc.value).startswith(f"{path}:3: neither")
        assert str(exc.value).endswith(": 'a\\tb\\tx'")

    def test_crlf_model_loads_as_its_lf_twin(self, tmp_path):
        model = train_alignment(make_corpus(SPEC_PAIRS), iterations=2, tension=4.0, p0=0.08)
        save_model(model, tmp_path / "lf.tsv")
        crlf = (tmp_path / "lf.tsv").read_bytes().replace(b"\n", b"\r\n")
        (tmp_path / "crlf.tsv").write_bytes(crlf)
        assert load_model(tmp_path / "crlf.tsv") == load_model(tmp_path / "lf.tsv")

    def test_model_blank_lines_and_missing_direction_are_fine(self, tmp_path):
        path = tmp_path / "m.tsv"
        path.write_text("tension\t4.0\n\np0\t0.08\na\tb\t0.5\n", encoding="utf-8")
        model = load_model(path)
        assert (model.direction, model.tension, model.p0) == (FORWARD, 4.0, 0.08)
        assert model.theta["a"]["b"] == 0.5

    def test_pharaoh_not_utf8(self, tmp_path):
        path = tmp_path / "a.align"
        path.write_bytes(b"0-0\n\xff\xfe\n")
        with pytest.raises(MalformedFile, match="not UTF-8"):
            read_pharaoh(path)

    def test_pharaoh_lines_build_a_set_per_read_of_shared_links(self, tmp_path):
        path = tmp_path / "a.align"
        path.write_text("0-0 1-1\n\n1-1\n", encoding="utf-8")
        rows = read_pharaoh(path)
        assert len(rows) == 3
        assert rows[0] == {(0, 0), (1, 1)} and rows[1] == set()
        assert rows[2] is not rows[2]
        assert next(iter(rows[2])) is next(link for link in rows[0] if link == (1, 1))


class TestBidirectionalDecoding:
    def test_alignments_agree_on_easy_corpus(self, toy_corpus):
        fwd_model = train_alignment(toy_corpus, iterations=3, direction=FORWARD)
        rev_model = train_alignment(toy_corpus, iterations=3, direction=REVERSE)
        fwd_sets = align_corpus(fwd_model, toy_corpus)
        rev_sets = align_corpus(rev_model, toy_corpus)
        agree = sum(
            len(f & r) for f, r in zip(fwd_sets, rev_sets)
        ) / sum(len(p.src) for p in toy_corpus.pairs)
        assert agree > 0.98  # word-for-word corpus, intersection is near-total

    @pytest.mark.parametrize("direction", [FORWARD, REVERSE])
    def test_equal_links_are_one_tuple(self, toy_corpus, direction):
        sets = align_corpus(train_alignment(toy_corpus, iterations=2, direction=direction),
                            toy_corpus)
        first = {}
        for links in sets:
            for link in links:
                assert first.setdefault(link, link) is link
        assert sum(map(len, sets)) > len(first)  # pairs do share links


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(1e-3, 1e7), min_size=1, max_size=20))
def test_digamma_matches_scipy(xs):
    x = np.array(xs)
    assert np.abs(_digamma(x) - digamma(x)).max() <= 1e-11


# ---------------------------------------------------------------------------
# pruning

# probabilities over many orders of magnitude, so rows straddle the cut
probability = st.integers(0, 12).flatmap(
    lambda k: st.floats(10.0 ** -k / 2, 10.0 ** -k) | st.just(10.0 ** -k)
) | st.just(0.0)


@settings(max_examples=200, deadline=None)
@given(theta=st.dictionaries(
    st.sampled_from([NULL_WORD, "a", "b", "c"]),
    st.dictionaries(st.sampled_from(["x", "y", "z", "w"]), probability, min_size=1),
    min_size=1,
))
def test_prune_keeps_row_maxima_and_the_null_row(theta):
    model = dict_model(theta, tension=4.0, p0=0.08, perplexity_history=[3.0])
    pruned = prune_model(model)
    assert (pruned.tension, pruned.p0, pruned.direction) == (4.0, 0.08, FORWARD)
    assert pruned.perplexity_history == [3.0]
    assert set(pruned.theta) == set(theta)
    for e, row in theta.items():
        kept = dict(pruned.theta[e])
        if e == NULL_WORD:
            assert kept == row
            continue
        best = max(row.values())
        assert kept == {f: p for f, p in row.items() if p >= PRUNE_RATIO * best}
        assert best in kept.values()


class TestPruning:
    @pytest.fixture(scope="class", params=[False, True], ids=["em", "vb"])
    def models(self, request, toy_corpus):
        return {
            direction: train_alignment(toy_corpus, iterations=5, vb=request.param,
                                       direction=direction)
            for direction in (FORWARD, REVERSE)
        }

    def test_prunes_something(self, models):
        for model in models.values():
            pruned = prune_model(model)
            assert 0 < len(pruned.theta.probs) < len(model.theta.probs)

    def test_no_zero_probability_on_training_corpus(self, models, toy_corpus):
        for model in models.values():
            assert corpus_perplexity(prune_model(model), toy_corpus) == pytest.approx(
                corpus_perplexity(model, toy_corpus), rel=1e-4)

    def test_viterbi_links_unchanged(self, models, toy_corpus):
        for model in models.values():
            before = align_corpus(model, toy_corpus)
            assert align_corpus(prune_model(model), toy_corpus) == before

    def test_dump_reloads_to_the_pruned_model(self, models, tmp_path):
        for name, model in models.items():
            pruned = prune_model(model)
            save_model(pruned, tmp_path / "m.tsv")
            loaded = load_model(tmp_path / "m.tsv")
            assert loaded.theta.cond == pruned.theta.cond
            assert loaded.theta.emit == pruned.theta.emit
            assert loaded.theta == pruned.theta
            assert (loaded.tension, loaded.p0, loaded.direction) == (
                pruned.tension, pruned.p0, pruned.direction)


# random training corpora: few words, so cells share keys and shapes repeat
_sides = st.lists(st.sampled_from(["a", "b", "c", "d", "e"]), min_size=1, max_size=6)
training_corpora = st.lists(st.tuples(_sides, _sides), min_size=1, max_size=12).map(
    lambda pairs: ParallelCorpus([SentencePair(s, t, k) for k, (s, t) in enumerate(pairs)])
)


class TestTrainingCells:
    """Training sorts every cell key once for theta's support and each
    cell's index; a pruned model decodes its training corpus through that
    index, remapped, instead of looking every cell up again."""

    @settings(max_examples=150, deadline=None)
    @given(corpus=training_corpora, direction=st.sampled_from([FORWARD, REVERSE]))
    def test_one_sort_matches_the_per_shape_construction(self, corpus, direction):
        model = train_alignment(corpus, iterations=1, direction=direction)
        support, index = reference_cells.support_and_index(corpus.pairs, direction)
        assert np.array_equal(model.theta.pair_keys, support)
        cells = model.training_cells
        assert cells.corpus is corpus
        assert cells.index.dtype == np.int32
        assert np.array_equal(cells.index, index)
        assert np.array_equal(_Cells.lookup(model, corpus).index, index)

    @staticmethod
    def _check_remapped_index(model, corpus):
        """Decode and perplexity through the remapped training index equal,
        bit for bit, the same done on cells freshly looked up."""
        fresh = prune_model(model)
        fresh.training_cells = None
        looked_up = _Cells.lookup(fresh, corpus)
        through = prune_model(model)
        assert np.array_equal(through.training_cells.index, looked_up.index)
        assert align_corpus(through, corpus) == align_corpus(fresh, corpus)
        assert through.training_cells is None  # dropped after its one use
        through = prune_model(model)
        assert corpus_perplexity(through, corpus) == corpus_perplexity(fresh, corpus)
        assert through.training_cells is None

    @pytest.mark.parametrize("vb", [False, True], ids=["em", "vb"])
    @pytest.mark.parametrize("direction", [FORWARD, REVERSE])
    def test_remapped_index_on_the_toy_corpus(self, toy_corpus, vb, direction):
        model = train_alignment(toy_corpus, iterations=5, vb=vb, direction=direction)
        assert len(prune_model(model).theta.probs) < len(model.theta.probs)
        self._check_remapped_index(model, toy_corpus)

    @settings(max_examples=100, deadline=None)
    @given(corpus=training_corpora, direction=st.sampled_from([FORWARD, REVERSE]),
           vb=st.booleans(), iterations=st.integers(1, 6))
    def test_remapped_index_on_random_corpora(self, corpus, direction, vb, iterations):
        model = train_alignment(corpus, iterations=iterations, vb=vb, direction=direction)
        self._check_remapped_index(model, corpus)

    def test_used_only_for_the_corpus_it_was_built_for(self, toy_corpus, tmp_path):
        model = prune_model(train_alignment(toy_corpus, iterations=2))
        cells = model.training_cells
        same_pairs = ParallelCorpus(list(toy_corpus.pairs))
        links = align_corpus(model, same_pairs)
        assert model.training_cells is cells  # another corpus object: looked up
        assert align_corpus(model, toy_corpus) == links
        assert model.training_cells is None
        save_model(model, tmp_path / "m.tsv")
        assert load_model(tmp_path / "m.tsv").training_cells is None
