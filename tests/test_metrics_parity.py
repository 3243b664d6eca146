"""Parity of the set-based BLEU statistics and the histogram randomization
test against the reference implementations they replaced."""

import random
from unittest.mock import patch

from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_metrics
from tagcopy import metrics
from tagcopy.metrics import bleu, pos_accuracy, significance
from tagcopy.template import PLAIN_VOCAB, BundleRecord, ManifestEntry, TemplateMethod


def _outcome(fn, *args, **kwargs):
    """The result, or the type of the exception raised."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # the two sides must raise the same type
        return type(exc)


@st.composite
def bleu_inputs(draw):
    # a 3-5 token vocabulary forces repeated n-grams on both sides
    vocab = draw(st.lists(st.sampled_from("abcdefg"), min_size=3, max_size=5, unique=True))
    line = st.lists(st.sampled_from(vocab), max_size=12)
    hyps = draw(st.lists(line, min_size=1, max_size=8))
    refs = draw(st.lists(line, min_size=len(hyps), max_size=len(hyps)))
    # about half the hypotheses copy their reference: bleu scores a line
    # equal to its reference without counting its n-grams
    copied = draw(st.lists(st.booleans(), min_size=len(hyps), max_size=len(hyps)))
    hyps = [list(ref) if copy else hyp for hyp, ref, copy in zip(hyps, refs, copied)]
    subset = draw(st.none() | st.sets(st.integers(0, len(hyps) - 1)))
    return hyps, refs, draw(st.integers(1, 6)), subset


@settings(max_examples=300, deadline=None)
@given(bleu_inputs())
@example(([[]], [[]], 4, None))  # an empty pair
@example(([["a", "b"], ["a", "b", "c"]], [["a", "b"], ["b", "c", "a"]], 4, None))  # equal, < max_n
# an equal line inside the subset (line 0) and one outside it (line 2)
@example(([["a", "b", "c"], ["a", "b", "c"], ["b", "a"]],
          [["a", "b", "c"], ["c", "b", "a"], ["b", "a"]], 2, {0, 1}))
def test_bleu_equals_reference(args):
    hyps, refs, max_n, subset = args
    got = _outcome(bleu, hyps, refs, max_n=max_n, subset=subset)
    assert got == _outcome(reference_metrics.bleu, hyps, refs, max_n=max_n, subset=subset)


@st.composite
def paired_flags(draw):
    """Flags over n pairs (0-200), m of which disagree."""
    m = draw(st.sampled_from([0, 31, 32, 33, 64, 65]) | st.integers(0, 200))
    n = m + draw(st.integers(0, 200 - m))
    system = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    baseline = [not s if k < m else s for k, s in enumerate(system)]
    order = draw(st.permutations(range(n)))
    return [system[k] for k in order], [baseline[k] for k in order]


@settings(max_examples=150, deadline=None)
@given(paired_flags(), st.integers(1, 400), st.integers(0, 2**32))
@example(([True] * 5, [True] * 5), 10000, 0)  # m = 0 at the default resamples
def test_significance_equals_reference(flags, resamples, seed):
    system, baseline = flags
    got = _outcome(significance, system, baseline, resamples=resamples, seed=seed)
    assert got == _outcome(reference_metrics.significance, system, baseline,
                           resamples=resamples, seed=seed)


@settings(max_examples=100, deadline=None)
@given(paired_flags(), st.integers(1, 400), st.integers(0, 2**32))
def test_significance_cached_equals_uncached(flags, resamples, seed):
    system, baseline = flags
    with patch.object(metrics, "_swap_histogram", metrics._swap_histogram.__wrapped__):
        want = _outcome(significance, system, baseline, resamples=resamples, seed=seed)
    for _ in range(2):  # the second call reads the cache
        assert _outcome(significance, system, baseline, resamples=resamples, seed=seed) == want


def scoring_corpus(lines=2000, seed=7):
    """Seeded references, perturbed system and baseline outputs, POS tags,
    monotone alignments and one tagged span on every other line."""
    rng = random.Random(seed)
    vocab = [f"w{k}" for k in range(500)]
    weights = [1.0 / (k + 1) for k in range(len(vocab))]
    refs, system, baseline, pos, aligns, manifest = [], [], [], [], [], []
    for ln in range(lines):
        ref = rng.choices(vocab, weights, k=rng.randint(6, 18))
        refs.append(ref)
        system.append([t if rng.random() < 0.8 else "sys" for t in ref])
        baseline.append([t if rng.random() < 0.7 else "base" for t in ref])
        pos.append(rng.choices(["NOUN", "VERB", "DET", "ADJ"], k=len(ref)))
        aligns.append({(i, i) for i in range(len(ref))})
        if ln % 2:
            s = rng.randrange(len(ref) - 1)
            bundle = BundleRecord([s, s + 1], [s, s + 1], ref[s:s + 1], ref[s:s + 1],
                                  [], [], "uri")
            manifest.append(ManifestEntry(ln, TemplateMethod.TAG, PLAIN_VOCAB, [bundle]))
    return refs, system, baseline, pos, aligns, manifest


def test_scoring_smoke(benchmark):
    """Crash check for BLEU plus POS accuracy on 2,000 lines; one round, not
    a timing gate."""
    refs, system, baseline, pos, aligns, manifest = scoring_corpus()

    def run():
        return (bleu(system, refs),
                pos_accuracy(system, baseline, manifest, pos, aligns, refs))

    score, report = benchmark.pedantic(run, rounds=1, iterations=1)
    assert 0.0 < score.score < 100.0
    assert {(r.pos, r.position) for r in report.rows} <= {
        (p, w) for p in ("NOUN", "VERB", "DET", "ADJ") for w in ("pre", "post")}
