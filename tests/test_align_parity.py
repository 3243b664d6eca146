"""The array aligner against the dict-of-dicts reference in dict_aligner.py.

The array EM sums in a different order than the reference (per shape
group and through ``np.bincount``), so theta and perplexity may differ in
the last digits; the tolerances below are fixed beforehand from float64
rounding. Decoding must not change at all: the Pharaoh output of each
implementation, decoding with its own trained theta, is byte-identical,
and a tie flip would show as a differing link.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dict_aligner
from conftest import make_corpus
from tagcopy.align import (
    FORWARD,
    NULL_WORD,
    REVERSE,
    align_corpus,
    load_model,
    save_model,
    train_alignment,
    write_pharaoh,
)

THETA_ABS = 1e-9
PERPLEXITY_REL = 1e-9


def scaled_corpus(pairs: int = 300, seed: int = 5):
    """Seeded synthetic corpus: Zipfian source words, a word-for-word
    target with local swaps, dropped and inserted words, and some noise."""
    rng = random.Random(seed)
    vocab = [f"s{k}" for k in range(150)]
    weights = [1.0 / (k + 1) for k in range(len(vocab))]
    out = []
    for _ in range(pairs):
        src = rng.choices(vocab, weights, k=rng.randint(2, 14))
        tgt = [f"t{w[1:]}" for w in src if rng.random() > 0.08]
        for j in range(len(tgt) - 1):
            if rng.random() < 0.15:
                tgt[j], tgt[j + 1] = tgt[j + 1], tgt[j]
        if rng.random() < 0.3:
            tgt.insert(rng.randrange(len(tgt) + 1), rng.choice(["de", "la", "ka"]))
        if rng.random() < 0.1:
            tgt.append(f"t{rng.randrange(150)}")
        out.append((" ".join(src), " ".join(tgt)))
    return make_corpus(out)


def _theta_gap(model, ref_theta) -> float:
    assert set(model.theta) == set(ref_theta)
    worst = 0.0
    for e, ref_row in ref_theta.items():
        row = model.theta[e]
        assert set(row) == set(ref_row), e
        for f, p in ref_row.items():
            worst = max(worst, abs(row[f] - p))
    return worst


def _score(model, prior_row, cond, f, i):
    if i is None:
        return model.p0 * model.theta[NULL_WORD][f]
    return prior_row[i] * model.theta[cond[i]][f]


def _chosen(links, direction):
    """Emitted position -> conditioning position, per link of a link set."""
    if direction == FORWARD:
        return {j: i for i, j in links}
    return dict(links)


def _assert_fits(pair, links, direction):
    """Every link lies inside its pair, at most one per emitted token."""
    assert all(0 <= i < len(pair.src) and 0 <= j < len(pair.tgt) for i, j in links)
    assert len(_chosen(links, direction)) == len(links)


def _check_parity(corpus, tmp_path, exact=True, **kwargs):
    """Theta and perplexity within tolerance in both directions. Every
    decode that differs from the reference's must be a tie flip: its two
    choices score equal to rounding under the array model's theta. With
    ``exact`` there may be none, so the Pharaoh output is byte-identical."""
    tension, p0 = kwargs.get("tension", 4.0), kwargs.get("p0", 0.08)
    for direction in (FORWARD, REVERSE):
        model = train_alignment(corpus, direction=direction, **kwargs)
        ref_theta, ref_history = dict_aligner.train(corpus, direction=direction, **kwargs)
        assert _theta_gap(model, ref_theta) <= THETA_ABS
        assert len(model.perplexity_history) == len(ref_history)
        for got, want in zip(model.perplexity_history, ref_history):
            assert got == pytest.approx(want, rel=PERPLEXITY_REL)

        ours, ref, flips = [], [], 0
        for pair, links in zip(corpus.pairs, align_corpus(model, corpus)):
            want = dict_aligner.viterbi(ref_theta, tension, p0, direction, pair)
            cond, emit = dict_aligner.sides(pair, direction)
            prior = dict_aligner.prior_rows(len(emit), len(cond), tension, p0)
            chosen = _chosen(links, direction)
            for j, b in enumerate(want):
                a = chosen.get(j)
                if a != b:
                    flips += 1
                    assert _score(model, prior[j], cond, emit[j], a) == pytest.approx(
                        _score(model, prior[j], cond, emit[j], b), rel=1e-12)
            ours.append(links)
            ref.append(dict_aligner.links(want, direction))
        print(f"{direction}: {flips} tie flips against the dict reference")
        if exact:
            assert flips == 0
            write_pharaoh(ours, tmp_path / "array.align")
            write_pharaoh(ref, tmp_path / "dict.align")
            assert (tmp_path / "array.align").read_bytes() == (tmp_path / "dict.align").read_bytes()


class TestDictParity:
    def test_toy_fixture(self, toy_corpus, tmp_path):
        _check_parity(toy_corpus, tmp_path, iterations=5)

    def test_scaled_corpus(self, tmp_path):
        _check_parity(scaled_corpus(), tmp_path, iterations=5, tension=4.0, p0=0.08)

    def test_vb_mode_toy_fixture(self, toy_corpus, tmp_path):
        _check_parity(toy_corpus, tmp_path, iterations=3, vb=True, alpha=0.01)

    def test_vb_mode_scaled_corpus(self, tmp_path):
        # this corpus has one exact tie (the same word at two positions the
        # prior weighs equally to rounding) that the last digits of theta
        # break either way
        _check_parity(scaled_corpus(200, seed=9), tmp_path, exact=False,
                      iterations=3, vb=True, alpha=0.5)

    def test_dump_format_unchanged(self, toy_corpus, tmp_path):
        # header, then one `e \t f \t repr(p)` line per entry in sorted (e, f)
        # order, exactly as the dict implementation wrote it
        model = train_alignment(toy_corpus, iterations=2)
        save_model(model, tmp_path / "m.tsv")
        lines = [f"direction\t{FORWARD}\n", "tension\t4.0\n", "p0\t0.08\n"]
        for e in sorted(model.theta):
            row = model.theta[e]
            lines += [f"{e}\t{f}\t{row[f]!r}\n" for f in sorted(row)]
        assert (tmp_path / "m.tsv").read_text(encoding="utf-8") == "".join(lines)


class TestLoadModel:
    def test_rows_in_any_order_and_last_repeat_wins(self, tmp_path):
        model = train_alignment(make_corpus([("a b", "x y"), ("b", "y")]), iterations=2)
        save_model(model, tmp_path / "m.tsv")
        header, body = [], []
        for line in (tmp_path / "m.tsv").read_text(encoding="utf-8").splitlines(keepends=True):
            (body if line.count("\t") == 2 else header).append(line)
        random.Random(1).shuffle(body)
        body.insert(0, "a\tx\t0.5\n")  # overridden by the real line later on
        (tmp_path / "shuffled.tsv").write_text("".join(header + body), encoding="utf-8")
        assert load_model(tmp_path / "shuffled.tsv").theta == model.theta


# ---------------------------------------------------------------------------
# properties

WORDS_E = ["a", "b", "c", "d"]
WORDS_F = ["x", "y", "z"]
sentences = st.tuples(
    st.lists(st.sampled_from(WORDS_E), min_size=1, max_size=5),
    st.lists(st.sampled_from(WORDS_F), min_size=1, max_size=5),
)


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(sentences, min_size=1, max_size=6),
    iterations=st.integers(1, 4),
    tension=st.sampled_from([0.0, 1.0, 4.0]),
    p0=st.sampled_from([0.0, 0.08, 0.5]),
)
def test_rows_normalized_after_every_m_step(pairs, iterations, tension, p0):
    corpus = make_corpus([(" ".join(s), " ".join(t)) for s, t in pairs])
    # EM is deterministic: k iterations give the model after the k-th M-step
    for k in range(1, iterations + 1):
        model = train_alignment(corpus, iterations=k, tension=tension, p0=p0)
        assert len(model.perplexity_history) == k
        for e, row in model.theta.items():
            total = sum(row.values())
            assert abs(total - 1.0) <= 1e-9, (k, e, total)


# few distinct probabilities, so exact ties between positions and with NULL
# are common
probabilities = st.sampled_from([0.0, 0.25, 0.5, 1.0])
TIE_CASES = {
    "theta": st.fixed_dictionaries({
        e: st.fixed_dictionaries({f: probabilities for f in WORDS_F})
        for e in [NULL_WORD, *WORDS_E]
    }),
    "pairs": st.lists(sentences, min_size=1, max_size=4),
    "tension": st.sampled_from([0.0, 4.0]),
    "p0": st.sampled_from([0.0, 0.5, 0.08]),
}


@settings(max_examples=150, deadline=None)
@given(**TIE_CASES)
def test_viterbi_tie_rule(theta, pairs, tension, p0):
    """A real position beats NULL on a tie, and the lower index wins."""
    model = dict_aligner.dict_model(theta, tension, p0)
    corpus = make_corpus([(" ".join(s), " ".join(t)) for s, t in pairs])
    for pair, links in zip(corpus.pairs, align_corpus(model, corpus)):
        chosen = _chosen(links, FORWARD)
        prior = dict_aligner.prior_rows(len(pair.tgt), len(pair.src), tension, p0)
        for j, f in enumerate(pair.tgt):
            scores = [prior[j][i] * theta[e][f] for i, e in enumerate(pair.src)]
            best = max(scores)
            null = p0 * theta[NULL_WORD][f]
            if best > 0.0 and best >= null:
                assert chosen.get(j) == scores.index(best)
            else:
                assert j not in chosen
        want = dict_aligner.viterbi(theta, tension, p0, FORWARD, pair)
        assert links == dict_aligner.links(want, FORWARD)


@settings(max_examples=150, deadline=None)
@given(**TIE_CASES, direction=st.sampled_from([FORWARD, REVERSE]))
def test_decoded_links_fit_their_pairs(theta, pairs, tension, p0, direction):
    """Each emitted token gets at most one link, and every link lies inside
    its pair, in both directions."""
    model = dict_aligner.dict_model(theta, tension, p0, direction)
    # theta conditions on WORDS_E, so they go on the conditioning side
    if direction == REVERSE:
        pairs = [(t, s) for s, t in pairs]
    corpus = make_corpus([(" ".join(s), " ".join(t)) for s, t in pairs])
    link_sets = align_corpus(model, corpus)
    assert len(link_sets) == len(corpus.pairs)
    for pair, links in zip(corpus.pairs, link_sets):
        _assert_fits(pair, links, direction)


def test_train_and_align_smoke(benchmark):
    """Crash check for train plus align on the scaled corpus; one round,
    not a timing gate."""
    corpus = scaled_corpus()

    def run():
        model = train_alignment(corpus, iterations=5)
        return align_corpus(model, corpus)

    link_sets = benchmark.pedantic(run, rounds=1, iterations=1)
    assert len(link_sets) == len(corpus.pairs)
    for pair, links in zip(corpus.pairs, link_sets):
        _assert_fits(pair, links, FORWARD)
