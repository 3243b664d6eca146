"""Reference oracle: the dict-of-dicts EM and Viterbi the array aligner replaced.

Plain Python over ``theta[e][f]`` dicts, one pair and one cell at a time,
with the same arithmetic per cell as ``tagcopy.align``. The parity tests
compare the array implementation against it; it is not used by the toolkit.
``theta_from_rows`` and ``dict_model`` build the array types from such dicts.
"""

import math

import numpy as np

from tagcopy.align import FORWARD, NULL_WORD, AlignModel, Theta


def theta_from_rows(rows) -> Theta:
    """The :class:`Theta` of a mapping ``e -> {f: probability}``."""
    cond = sorted(rows)
    emit = sorted({f for row in rows.values() for f in row})
    emit_id = {f: k for k, f in enumerate(emit)}
    keys, values = [], []
    for r, e in enumerate(cond):
        for f, p in sorted(rows[e].items()):
            keys.append(r * len(emit) + emit_id[f])
            values.append(p)
    return Theta(cond, emit, np.array(keys, dtype=np.int64), np.array(values, dtype=np.float64))


def dict_model(rows, *args, **kwargs) -> AlignModel:
    """An :class:`AlignModel` over the theta of ``rows``; the other
    arguments are AlignModel's."""
    return AlignModel(theta_from_rows(rows), *args, **kwargs)


def sides(pair, direction):
    """(conditioning tokens, emitted tokens) for the given direction."""
    if direction == FORWARD:
        return pair.src, pair.tgt
    return pair.tgt, pair.src


def prior_rows(m, n, tension, p0):
    """One row per emitted position j; NULL mass (p0) is not included."""
    rows = []
    for j in range(m):
        w = [math.exp(tension * -abs((i + 1) / n - (j + 1) / m)) for i in range(n)]
        scale = (1.0 - p0) / sum(w)
        rows.append([x * scale for x in w])
    return rows


def train(corpus, *, iterations=5, tension=4.0, p0=0.08, vb=False, alpha=0.01,
          direction=FORWARD):
    """EM over the corpus; returns (theta, perplexity history)."""
    theta = {NULL_WORD: {}}
    for pair in corpus.pairs:
        cond, emit = sides(pair, direction)
        null_row = theta[NULL_WORD]
        for f in emit:
            null_row[f] = 0.0
        for e in cond:
            row = theta.setdefault(e, {})
            for f in emit:
                row[f] = 0.0
    for row in theta.values():
        uniform = 1.0 / len(row)
        for f in row:
            row[f] = uniform

    cache = {}
    history = []
    total_emitted = sum(len(sides(p, direction)[1]) for p in corpus.pairs)
    for _ in range(iterations):
        counts = {e: dict.fromkeys(row, 0.0) for e, row in theta.items()}
        null_row = theta[NULL_WORD]
        null_counts = counts[NULL_WORD]
        loglik = 0.0
        for pair in corpus.pairs:
            cond, emit = sides(pair, direction)
            n = len(cond)
            shape = (len(emit), n)
            if shape not in cache:
                cache[shape] = prior_rows(*shape, tension, p0)
            rows = cache[shape]
            for j, f in enumerate(emit):
                prow = rows[j]
                null_score = p0 * null_row[f]
                scores = [prow[i] * theta[cond[i]][f] for i in range(n)]
                z = null_score + sum(scores)
                loglik += math.log(z)
                inv = 1.0 / z
                null_counts[f] += null_score * inv
                for i in range(n):
                    counts[cond[i]][f] += scores[i] * inv
        history.append(math.exp(-loglik / total_emitted))
        _reestimate(theta, counts, vb, alpha)
    return theta, history


def _reestimate(theta, counts, vb, alpha):
    if vb:
        from scipy.special import digamma

        for e, crow in counts.items():
            trow = theta[e]
            denom = digamma(sum(crow.values()) + alpha * len(crow))
            for f, c in crow.items():
                trow[f] = math.exp(digamma(c + alpha) - denom)
        return
    for e, crow in counts.items():
        total = sum(crow.values())
        if total <= 0.0:
            continue
        inv = 1.0 / total
        trow = theta[e]
        for f, c in crow.items():
            trow[f] = c * inv


def viterbi(theta, tension, p0, direction, pair):
    """Best conditioning position (None = NULL) per emitted position."""
    cond, emit = sides(pair, direction)
    n = len(cond)
    rows = prior_rows(len(emit), n, tension, p0)
    null_row = theta.get(NULL_WORD, {})
    links = []
    for j, f in enumerate(emit):
        prow = rows[j]
        null_score = p0 * null_row.get(f, 0.0)
        best_i = 0
        best = -1.0
        for i in range(n):
            s = prow[i] * theta.get(cond[i], {}).get(f, 0.0)
            if s > best:
                best, best_i = s, i
        links.append(best_i if best > 0.0 and best >= null_score else None)
    return links


def links(choices, direction):
    """The (src, tgt) link set of per-emitted-position choices, as the
    array aligner decodes them: a NULL choice gives no link."""
    if direction == FORWARD:
        return {(i, j) for j, i in enumerate(choices) if i is not None}
    return {(j, i) for j, i in enumerate(choices) if i is not None}
