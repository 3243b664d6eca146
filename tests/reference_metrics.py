"""Reference oracle: the Counter-based BLEU and the per-resample
randomization loop that ``tagcopy.metrics`` replaced.

One ``Counter`` per n-gram order and line, clipped by a Python ``min``
loop; one ``getrandbits`` call and one comparison per resample. The parity
tests require the library to return equal results; it is not used by the
toolkit.
"""

import math
import random
from collections import Counter

from tagcopy.errors import CountMismatch, EmptyCorpus, EmptyInput, InvalidParams
from tagcopy.metrics import BleuScore


def _ngrams(tokens, n):
    return Counter(tuple(tokens[k:k + n]) for k in range(len(tokens) - n + 1))


def bleu(hypotheses, references, max_n=4, subset=None):
    if len(hypotheses) != len(references):
        raise CountMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if subset is not None:
        keep = set(subset)
        pairs = [hr for k, hr in enumerate(zip(hypotheses, references)) if k in keep]
    else:
        pairs = list(zip(hypotheses, references))
    if not pairs:
        raise EmptyCorpus("nothing to score")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for hyp, ref in pairs:
        hyp_len += len(hyp)
        ref_len += len(ref)
        for n in range(1, max_n + 1):
            hgrams = _ngrams(hyp, n)
            if not hgrams:
                continue
            rgrams = _ngrams(ref, n)
            totals[n - 1] += sum(hgrams.values())
            matches[n - 1] += sum(min(c, rgrams[g]) for g, c in hgrams.items())
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        bp = 0.0
    else:
        bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) <= 0.0:
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuScore(score, precisions, bp, hyp_len, ref_len)


def significance(system_flags, baseline_flags, resamples=10000, seed=0):
    if len(system_flags) != len(baseline_flags):
        raise CountMismatch(
            f"{len(system_flags)} system flags vs {len(baseline_flags)} baseline flags"
        )
    n = len(system_flags)
    if n == 0:
        raise EmptyInput("no paired observations")
    if resamples <= 0:
        raise InvalidParams(f"resamples must be >= 1, got {resamples}")
    diffs = [int(s) - int(b) for s, b in zip(system_flags, baseline_flags)]
    observed = abs(sum(diffs))  # in units of 1/n
    m = sum(1 for d in diffs if d)
    rng = random.Random(seed)
    hits = 0
    for _ in range(resamples):
        d = 2 * rng.getrandbits(m).bit_count() - m if m else 0
        if abs(d) >= observed:
            hits += 1
    return (hits + 1) / (resamples + 1)
