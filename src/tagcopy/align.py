"""Diagonal-prior lexical word aligner.

Conditional alignment model in the style of the fast log-linear
reparameterized aligners: each emitted token independently picks a
conditioning token (or NULL) with a position prior that decays
exponentially with distance from the diagonal, times a lexical translation
probability theta. For conditioning length n and emitted length m the
prior at emitted position j is

    prior(NULL) = p0
    prior(i)    = (1 - p0) * exp(tension * -|(i+1)/n - (j+1)/m|) / Z

with Z summing the exponentials over i = 0..n-1. Training is plain EM over
the lexical table (optionally variational Bayes with a symmetric Dirichlet
prior). Theta support is restricted to co-occurring word pairs, plus
(NULL, f) for every emitted word f, and starts uniform per row.

Array layout
------------
Tokens map to integer ids over the sorted conditioning and emitted
vocabularies, and theta is one flat float64 array over its support, keyed
by ``e_id * len(emitted vocabulary) + f_id`` in ascending order, i.e. in
(e, f) string order (see :class:`Theta`). A corpus is scored as cells, one
per (emitted position, conditioning position or NULL): pairs are grouped
by shape (m, n) in sorted shape order, and each group is a (pairs, m, n+1)
block of theta indices with NULL in the last column. An EM iteration is a
gather of theta over the cells, a sum per emitted token and one
``np.bincount`` of the posteriors back onto theta; Viterbi is an argmax
over the same blocks, and decoding returns one set of (src index, tgt
index) links per pair, the type Pharaoh files hold. numpy is imported only
by the functions that compute, so reading and writing Pharaoh files does
not load it.

File formats
------------
Alignments use Pharaoh format: one line per sentence pair, space-separated
``i-j`` links, 0-based, source index first (in both directions). Models are
dumped as TSV text with ``repr`` floats, so a dump reloads to the exact
model that was saved. The CLI saves and decodes a model cut by
:func:`prune_model`: each row keeps the entries at or above ``PRUNE_RATIO``
of the row's maximum, and the NULL row stays whole.
"""

import math
from array import array
from collections import defaultdict
from collections.abc import Mapping
from copy import copy
from dataclasses import dataclass, field
from itertools import count

from .corpus import LineRows, ParallelCorpus, SentencePair, numbered_lines, read_lines, write_lines
from .errors import (
    EmptyCorpus,
    EmptyPair,
    InvalidParams,
    LengthMismatch,
    MalformedFile,
    ZeroProbability,
)

# Conditioning-side NULL word. Real tokens are whitespace-split and hence
# never empty, so the empty string cannot collide with corpus text.
NULL_WORD = ""

FORWARD = "src-tgt"
REVERSE = "tgt-src"

HEURISTICS = ("intersection", "union", "grow-diag-final-and")

# entries of a model dump formatted into one string and written at once
_SAVE_ENTRIES = 1 << 12

# prune_model keeps an entry at or above this fraction of its row's maximum
PRUNE_RATIO = 1e-6


def _prior_param(name: str, value: float) -> float:
    """``value`` if it is in the range of the prior's parameter ``name``,
    the one rule of training and of the model reader: tension finite and
    >= 0, p0 in [0, 1). Else InvalidParams (nan fails every comparison)."""
    top, rule = {"tension": (math.inf, "finite and >= 0"), "p0": (1.0, "in [0, 1)")}[name]
    if not 0.0 <= value < top:
        raise InvalidParams(f"{name} must be {rule}, got {value}")
    return value


def _dump_float(text: str) -> float:
    """``float(text)`` if ``text`` is written as ``repr`` writes a finite
    float >= 0: ASCII, a digit first and last, no ``_``; else ValueError."""
    if not (text.isascii() and text[:1].isdigit() and text[-1:].isdigit()) or "_" in text:
        raise ValueError(text)
    return float(text)


# a model dump's header lines: key -> parser of the value (a direction
# other than the two raises KeyError)
_MODEL_HEADER = {"direction": {FORWARD: FORWARD, REVERSE: REVERSE}.__getitem__,
                 "tension": lambda value: _prior_param("tension", _dump_float(value)),
                 "p0": lambda value: _prior_param("p0", _dump_float(value))}


def _ids(vocab: list[str]) -> dict[str, int]:
    return {w: k for k, w in enumerate(vocab)}


class Theta(Mapping):
    """The lexical table as flat arrays.

    ``cond`` and ``emit`` are the sorted conditioning and emitted
    vocabularies; a token's id is its position. Entry k pairs
    ``cond[pair_keys[k] // len(emit)]`` with ``emit[pair_keys[k] %
    len(emit)]`` and has probability ``probs[k]`` (float64); ``pair_keys``
    (int64) is strictly ascending. As a mapping, ``theta[e]`` builds row e
    as a new ``f -> probability`` dict from the arrays, in f order; training
    updates ``probs`` in place.
    """

    def __init__(self, cond: list[str], emit: list[str], pair_keys, probs):
        self.cond = cond
        self.emit = emit
        self.pair_keys = pair_keys
        self.probs = probs
        self.cond_id = _ids(cond)
        self.emit_id = _ids(emit)

    def __getitem__(self, e: str) -> dict[str, float]:
        base = self.cond_id[e] * len(self.emit)
        lo, hi = self.pair_keys.searchsorted([base, base + len(self.emit)]).tolist()
        cols = (self.pair_keys[lo:hi] - base).tolist()
        return dict(zip(map(self.emit.__getitem__, cols), self.probs[lo:hi].tolist()))

    def __iter__(self):
        return iter(self.cond)

    def __len__(self) -> int:
        return len(self.cond)


@dataclass
class AlignModel:
    """Lexical table plus the two prior hyperparameters.

    ``theta[e][f]`` is the probability of emitting f conditioned on e,
    read through the row dict :class:`Theta` builds on each lookup.
    ``perplexity_history`` holds the training perplexity observed at the
    start of each EM iteration (i.e. under the parameters entering it).

    ``training_cells`` is never saved. A model returned by
    :func:`train_alignment` or :func:`prune_model` carries there the cell
    index of its training corpus, built once by training; the first
    :func:`align_corpus` or :func:`corpus_perplexity` on that same corpus
    object decodes through it and drops it. A loaded model has none.
    """

    theta: Theta
    tension: float
    p0: float
    direction: str = FORWARD
    perplexity_history: list[float] = field(default_factory=list)
    training_cells: "_Cells | None" = field(default=None, repr=False, compare=False)


def _sides(pair: SentencePair, direction: str):
    """(conditioning tokens, emitted tokens) for the given direction."""
    if direction == FORWARD:
        return pair.src, pair.tgt
    return pair.tgt, pair.src


def _prior(m: int, n: int, tension: float, p0: float):
    """(m, n + 1) prior of shape (m, n): row j over the conditioning
    positions, then p0 in the NULL column."""
    import numpy as np

    rows = []
    for j in range(m):
        w = [math.exp(tension * -abs((i + 1) / n - (j + 1) / m)) for i in range(n)]
        scale = (1.0 - p0) / sum(w)
        rows.append([x * scale for x in w] + [p0])
    return np.array(rows, dtype=np.float64).reshape(m, n + 1)


def _shapes(pairs, direction: str):
    """``(m, n, pair indices)`` per sentence shape, in sorted shape order."""
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, pair in enumerate(pairs):
        cond, emit = _sides(pair, direction)
        by_shape.setdefault((len(emit), len(cond)), []).append(k)
    return [(m, n, by_shape[m, n]) for m, n in sorted(by_shape)]


def _cell_keys(pairs, ids, direction: str, cond_id: dict, emit_id: dict):
    """Theta keys of the cells of same-shape pairs, a (pairs, m, n + 1)
    int64 array with NULL last; -1 where a token is outside the vocabulary."""
    import numpy as np

    sides = [_sides(pairs[k], direction) for k in ids]
    null = cond_id.get(NULL_WORD, -1)
    c = np.array([[cond_id.get(w, -1) for w in cond] + [null] for cond, _ in sides],
                 dtype=np.int64)
    e = np.array([[emit_id.get(w, -1) for w in emit] for _, emit in sides], dtype=np.int64)
    keys = c[:, None, :] * len(emit_id) + e[:, :, None]
    keys[(c < 0)[:, None, :] | (e < 0)[:, :, None]] = -1
    return keys


class _Cells:
    """Every cell of a corpus as a theta index, grouped by shape.

    Shape group (m, n) covers ``index[lo:hi]``, viewed as (pairs, m, n + 1).
    A cell whose (e, f) is not in theta gets index ``len(theta.probs)``,
    which scores 0. ``corpus`` is the corpus object the index was built for.
    """

    def __init__(self, corpus: ParallelCorpus, shapes, index, tension: float, p0: float):
        self.corpus = corpus
        self.index = index
        self.shapes = []
        lo = 0
        for m, n, ids in shapes:
            hi = lo + len(ids) * m * (n + 1)
            self.shapes.append((m, n, ids, lo, hi, _prior(m, n, tension, p0)))
            lo = hi

    @classmethod
    def lookup(cls, model: "AlignModel", corpus: ParallelCorpus) -> "_Cells":
        """The cells of any corpus under ``model``, each key found in theta
        by a ``searchsorted`` per shape."""
        import numpy as np

        shapes = _shapes(corpus.pairs, model.direction)
        index = np.empty(sum(len(ids) * m * (n + 1) for m, n, ids in shapes), dtype=np.int32)
        theta = model.theta
        padded = np.append(theta.pair_keys, -2)  # the past-the-end slot matches no key
        lo = 0
        for _m, _n, ids in shapes:
            keys = _cell_keys(corpus.pairs, ids, model.direction, theta.cond_id,
                              theta.emit_id).ravel()
            pos = np.searchsorted(theta.pair_keys, keys)
            index[lo:lo + keys.size] = np.where(padded[pos] == keys, pos, len(theta.pair_keys))
            lo += keys.size
        return cls(corpus, shapes, index, model.tension, model.p0)

    def blocks(self, probs, out=None):
        """Yield ``(m, n, pair indices, block)`` per shape, the block holding
        prior times theta of the group's cells as a (pairs, m, n + 1) array;
        with ``out`` (one float64 per cell) the blocks are views into it."""
        import numpy as np

        padded = np.append(probs, 0.0)
        for m, n, ids, lo, hi, prior in self.shapes:
            block = np.take(padded, self.index[lo:hi], mode="clip",
                            out=None if out is None else out[lo:hi])
            block = block.reshape(len(ids), m, n + 1)
            block *= prior
            yield m, n, ids, block


def _support_and_index(pairs, shapes, direction: str, cond_id: dict, emit_id: dict):
    """The sorted distinct cell keys of a training corpus (theta's support),
    and each cell's rank among them (int32, in cell order), from one
    argsort of every cell's key."""
    import numpy as np

    keys = np.empty(sum(len(ids) * m * (n + 1) for m, n, ids in shapes), dtype=np.int64)
    lo = 0
    for _m, _n, ids in shapes:
        block = _cell_keys(pairs, ids, direction, cond_id, emit_id).ravel()
        keys[lo:lo + block.size] = block
        lo += block.size
    order = np.argsort(keys)
    keys = keys[order]
    first = np.empty(keys.size, dtype=bool)
    first[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=first[1:])
    support = keys[first]
    del keys
    rank = np.cumsum(first, dtype=np.int32)
    rank -= 1
    index = np.empty_like(rank)
    index[order] = rank
    return support, index


def train_alignment(
    corpus: ParallelCorpus,
    *,
    iterations: int = 5,
    tension: float = 4.0,
    p0: float = 0.08,
    vb: bool = False,
    alpha: float = 0.01,
    direction: str = FORWARD,
) -> AlignModel:
    """Run EM over the corpus and return the trained model.

    With ``vb`` the M-step applies the digamma transform to the expected
    counts with Dirichlet hyperparameter ``alpha`` (rows are then no longer
    exactly normalized); otherwise it is the plain count-ratio MLE update.
    """
    if not corpus.pairs:
        raise EmptyCorpus("cannot train on an empty corpus")
    if iterations <= 0:
        raise InvalidParams(f"iterations must be >= 1, got {iterations}")
    _prior_param("p0", p0)
    _prior_param("tension", tension)
    if vb and not 0.0 < alpha < math.inf:
        raise InvalidParams(f"alpha must be finite and > 0 in vb mode, got {alpha}")
    if direction not in (FORWARD, REVERSE):
        raise InvalidParams(f"unknown direction {direction!r}")
    import numpy as np

    cond = sorted({e for p in corpus.pairs for e in _sides(p, direction)[0]} | {NULL_WORD})
    emit = sorted({f for p in corpus.pairs for f in _sides(p, direction)[1]})
    shapes = _shapes(corpus.pairs, direction)
    # the support is every key some cell reaches; rows start uniform
    keys, index = _support_and_index(corpus.pairs, shapes, direction, _ids(cond), _ids(emit))
    rows = keys // len(emit)
    probs = (1.0 / np.bincount(rows, minlength=len(cond)))[rows]
    cells = _Cells(corpus, shapes, index, tension, p0)
    model = AlignModel(Theta(cond, emit, keys, probs), tension, p0, direction,
                       training_cells=cells)
    total_emitted = sum(len(_sides(p, direction)[1]) for p in corpus.pairs)
    posteriors = np.empty(len(index))

    for _ in range(iterations):
        loglik = 0.0
        for *_, block in cells.blocks(probs, posteriors):
            z = block.sum(axis=2)
            loglik += float(np.log(z).sum())
            block *= np.reciprocal(z, out=z)[:, :, None]
        model.perplexity_history.append(math.exp(-loglik / total_emitted))
        counts = np.bincount(cells.index, weights=posteriors, minlength=len(probs))
        _reestimate(probs, counts, rows, len(cond), vb, alpha)
    return model


def _reestimate(probs, counts, rows, n_rows: int, vb: bool, alpha: float) -> None:
    """M-step in place: ``rows[k]`` is the row of entry k."""
    import numpy as np

    totals = np.bincount(rows, weights=counts, minlength=n_rows)
    if vb:
        denom = _digamma(totals + alpha * np.bincount(rows, minlength=n_rows))
        np.exp(_digamma(counts + alpha) - denom[rows], out=probs)
        return
    # a row with no mass (e.g. the NULL row with p0 = 0) keeps its previous
    # probabilities
    live = totals > 0.0
    inv = 1.0 / np.where(live, totals, 1.0)
    np.copyto(probs, np.multiply(counts, inv[rows], out=counts), where=live[rows])


def _digamma(x):
    """The digamma function of a float64 array of positive values.

    Shifts every value to at least 6 with psi(x) = psi(x + 1) - 1/x, then
    sums the asymptotic series ln x - 1/(2x) - sum_k B_2k / (2k x^2k)
    through k = 6, whose first omitted term is below 2e-12 at x = 6.
    """
    import numpy as np

    shift = np.zeros_like(x)
    for _ in range(6):  # x > 0 reaches 6 within six steps
        small = x < 6.0
        shift -= np.where(small, 1.0 / x, 0.0)
        x = np.where(small, x + 1.0, x)
    inv2 = 1.0 / (x * x)
    series = inv2 * (1 / 12 - inv2 * (1 / 120 - inv2 * (1 / 252 - inv2 * (
        1 / 240 - inv2 * (1 / 132 - inv2 * (691 / 32760))))))
    return shift + (np.log(x) - 0.5 / x - series)


def prune_model(model: AlignModel) -> AlignModel:
    """The model with each theta row cut to its entries at or above
    ``PRUNE_RATIO`` times the row's maximum, so every row keeps its best
    entry. The NULL row is kept whole: with ``p0 > 0`` every word emitted
    in training keeps a nonzero probability. Vocabularies, hyperparameters
    and the perplexity history are unchanged, and training cells are
    carried over, remapped to the kept entries.
    """
    import numpy as np

    theta = model.theta
    rows = theta.pair_keys // len(theta.emit)
    best = np.zeros(len(theta.cond))
    np.maximum.at(best, rows, theta.probs)
    keep = theta.probs >= PRUNE_RATIO * best[rows]
    if NULL_WORD in theta.cond_id:
        keep |= rows == theta.cond_id[NULL_WORD]
    pruned = Theta(theta.cond, theta.emit, theta.pair_keys[keep], theta.probs[keep])
    cells = model.training_cells
    if cells is not None:
        # old entry -> its position among the kept ones; a cut entry (and
        # the old past-the-end slot) -> the new past-the-end slot
        remap = np.full(len(keep) + 1, len(pruned.probs), dtype=np.int32)
        remap[:-1][keep] = np.arange(len(pruned.probs), dtype=np.int32)
        cells = copy(cells)
        cells.index = remap[cells.index]
    return AlignModel(pruned, model.tension, model.p0, model.direction,
                      list(model.perplexity_history), cells)


def _cells(model: AlignModel, corpus: ParallelCorpus) -> _Cells:
    """The cells of ``corpus`` under ``model``: the model's training cells
    when they were built for this very corpus object (taken off the model,
    so they are held no longer than their one use), else looked up."""
    cells = model.training_cells
    if cells is not None and cells.corpus is corpus:
        model.training_cells = None
        return cells
    return _Cells.lookup(model, corpus)


def align_corpus(model: AlignModel, corpus: ParallelCorpus) -> list[set[tuple[int, int]]]:
    """Viterbi decode of every pair (see :func:`viterbi_align`), batched
    per sentence shape; link sets come back in corpus order."""
    import numpy as np

    for pair in corpus.pairs:
        cond, emit = _sides(pair, model.direction)
        if not cond or not emit:
            raise EmptyPair(f"pair at line {pair.line_no} has an empty side")
    cells = _cells(model, corpus)
    link_sets: list = [None] * len(corpus.pairs)
    forward = model.direction == FORWARD
    # one tuple per distinct link, shared by every set, as read_pharaoh reads them
    one = {}.setdefault
    for _m, n, ids, block in cells.blocks(model.theta.probs):
        real = block[:, :, :n]
        best = real.max(axis=2)
        chosen = np.where((best > 0.0) & (best >= block[:, :, n]), real.argmax(axis=2), -1)
        for k, row in zip(ids, chosen.tolist()):
            link_sets[k] = ({one((i, j), (i, j)) for j, i in enumerate(row) if i >= 0} if forward
                            else {one((j, i), (j, i)) for j, i in enumerate(row) if i >= 0})
    return link_sets


def viterbi_align(model: AlignModel, pair: SentencePair) -> set[tuple[int, int]]:
    """The (src index, tgt index) links of the best decode of one pair.

    Each emitted position takes the argmax of prior times lexical
    probability over NULL and all conditioning positions, with theta = 0
    for unseen pairs, and links to the position it takes; NULL means no
    link, so an emitted token has at most one. Exact ties prefer a real
    position over NULL and the smaller position index; a word scoring zero
    everywhere stays NULL.
    """
    return align_corpus(model, ParallelCorpus([pair]))[0]


def check_links(links, n_src: int, n_tgt: int, row: int) -> None:
    """Raise LengthMismatch for a link outside a pair of ``n_src`` source
    and ``n_tgt`` target tokens; the message names the 0-based alignment
    ``row`` as its 1-based line of the alignments file."""
    for i, j in links:
        if not (0 <= i < n_src and 0 <= j < n_tgt):
            raise LengthMismatch(
                f"line {row + 1}: link {i}-{j} out of bounds for {n_src}x{n_tgt} tokens"
            )


def symmetrize_links(
    fwd_links: set[tuple[int, int]],
    rev_links: set[tuple[int, int]],
    heuristic: str = "grow-diag-final-and",
) -> set[tuple[int, int]]:
    """Combine the forward (src->tgt) and reverse (tgt->src) link sets of
    one sentence pair into one (src, tgt) link set, a new set."""
    if heuristic not in HEURISTICS:
        raise InvalidParams(f"unknown symmetrization heuristic {heuristic!r}")
    if fwd_links == rev_links:
        # intersection and union are the links, and grow and final-and find
        # no union link outside them: every heuristic returns them
        return set(fwd_links)
    if heuristic == "intersection":
        return fwd_links & rev_links
    if heuristic == "union":
        return fwd_links | rev_links
    return _grow_diag_final_and(fwd_links, rev_links)


_NEIGHBORS = ((-1, 0), (0, -1), (1, 0), (0, 1), (-1, -1), (-1, 1), (1, -1), (1, 1))


def _grow_diag_final_and(fwd_links, rev_links):
    union = fwd_links | rev_links
    alignment = set(fwd_links & rev_links)
    src_aligned = {i for i, _ in alignment}
    tgt_aligned = {j for _, j in alignment}
    # grow: repeatedly adopt union links 8-adjacent to the current alignment
    # while either end is still uncovered; sweeps run in sorted order so the
    # result is deterministic
    added = True
    while added:
        added = False
        for i, j in sorted(alignment):
            for di, dj in _NEIGHBORS:
                cand = (i + di, j + dj)
                if (
                    cand in union
                    and cand not in alignment
                    and (cand[0] not in src_aligned or cand[1] not in tgt_aligned)
                ):
                    alignment.add(cand)
                    src_aligned.add(cand[0])
                    tgt_aligned.add(cand[1])
                    added = True
    # final-and: adopt remaining union links with both ends uncovered
    for cand in sorted(union - alignment):
        if cand[0] not in src_aligned and cand[1] not in tgt_aligned:
            alignment.add(cand)
            src_aligned.add(cand[0])
            tgt_aligned.add(cand[1])
    return alignment


def corpus_perplexity(model: AlignModel, corpus: ParallelCorpus) -> float:
    """exp of the per-emitted-token negative log-likelihood (natural log)."""
    if not corpus.pairs:
        raise EmptyCorpus("no pairs to score")
    import numpy as np

    cells = _cells(model, corpus)
    loglik = 0.0
    total = 0
    first_zero = None  # (pair index, emitted position) earliest in corpus order
    for m, _n, ids, block in cells.blocks(model.theta.probs):
        total += m * len(ids)
        z = block.sum(axis=2)
        zero = np.argwhere(z <= 0.0)
        if len(zero):
            at = (ids[zero[0][0]], int(zero[0][1]))
            first_zero = at if first_zero is None else min(first_zero, at)
        else:
            loglik += float(np.log(z).sum())
    if first_zero is not None:
        k, j = first_zero
        pair = corpus.pairs[k]
        f = _sides(pair, model.direction)[1][j]
        raise ZeroProbability(f"line {pair.line_no}: emitted token {j} ({f!r}) has probability 0")
    return math.exp(-loglik / total)


def write_pharaoh(link_sets, path) -> None:
    # (i, j) -> "i-j": as read_pharaoh converts each distinct link once, each
    # is formatted once and the lines are joined at C speed
    known: dict[tuple[int, int], str] = {}

    def line(links) -> str:
        ordered = sorted(links)
        try:
            return " ".join(map(known.__getitem__, ordered))
        except KeyError:
            known.update((link, f"{link[0]}-{link[1]}") for link in ordered
                         if link not in known)
            return " ".join(map(known.__getitem__, ordered))

    write_lines(path, map(line, link_sets))


def _link(part: str, path, line: int) -> tuple[int, int]:
    """The (i, j) link of one ``i-j`` token, each index bare digits; else
    MalformedFile naming ``path:line``."""
    # isdecimal() is what int() reads, less a sign, underscores and
    # surrounding spaces; int() still refuses more digits than
    # sys.get_int_max_str_digits()
    i, _, j = part.partition("-")
    try:
        if not (i.isdecimal() and j.isdecimal()):
            raise ValueError
        return int(i), int(j)
    except ValueError:
        raise MalformedFile(f"{path}:{line}: bad link {part!r}, expected i-j") from None


def read_pharaoh(path) -> LineRows:
    """One set of (i, j) links per line of ``i-j`` tokens, each index bare
    digits, as rows built when they are read (see
    :class:`~tagcopy.corpus.LineRows`): only the file's lines are held.
    Every line is checked here; a malformed file raises MalformedFile
    naming path:line."""
    lines = read_lines(path)
    # token -> (i, j): a file repeats a few hundred distinct links, so each
    # is checked and converted once and every set shares its tuples
    known: dict[str, tuple[int, int]] = {}
    for n, line in enumerate(lines, 1):
        for part in line.split():
            if part not in known:
                known[part] = _link(part, path, n)
    return LineRows(lines, lambda line: set(map(known.__getitem__, line.split())))


def save_model(model: AlignModel, path) -> None:
    """Text dump of the model, streamed from the arrays in (e, f) order;
    floats are written with repr so that loading restores bit-identical
    values."""
    theta = model.theta
    cond, emit = theta.cond, theta.emit

    def lines():
        yield f"direction\t{model.direction}"
        yield f"tension\t{model.tension!r}"
        yield f"p0\t{model.p0!r}"
        for lo in range(0, len(theta.pair_keys), _SAVE_ENTRIES):
            rows, cols = divmod(theta.pair_keys[lo:lo + _SAVE_ENTRIES], len(emit))
            yield "\n".join(map("\t".join, zip(
                map(cond.__getitem__, rows.tolist()),
                map(emit.__getitem__, cols.tolist()),
                map(repr, theta.probs[lo:lo + _SAVE_ENTRIES].tolist()),
            )))

    write_lines(path, lines())


def _sorted_ranks(first_seen: dict[str, int]):
    """Sorted vocabulary, and the sorted rank of each first-seen id."""
    import numpy as np

    vocab = sorted(first_seen)
    rank = np.empty(len(vocab), dtype=np.int64)
    rank[[first_seen[w] for w in vocab]] = np.arange(len(vocab))
    return vocab, rank


def load_model(path) -> AlignModel:
    """Read a model dump. Rows may come in any order; a repeated (e, f)
    keeps its last value. A malformed dump, or one whose tension, p0 or
    row probability is out of its range, raises MalformedFile naming
    path:line."""
    header: dict = {"direction": FORWARD}
    # token -> id in order of first appearance
    cond_seen: dict[str, int] = defaultdict(count().__next__)
    emit_seen: dict[str, int] = defaultdict(count().__next__)
    rows, cols, values = array("i"), array("i"), array("d")
    n = 0
    try:
        for n, line in numbered_lines(path):
            fields = line.split("\t")
            if len(fields) == 3:
                e, f, p = fields
                p = _dump_float(p)
                if not p < math.inf:  # too large: float() reads 1e999 as inf
                    raise ValueError
                rows.append(cond_seen[e])
                cols.append(emit_seen[f])
                values.append(p)
            elif len(fields) == 2:
                header[fields[0]] = _MODEL_HEADER[fields[0]](fields[1])
            elif line.strip():
                raise ValueError
    except (ValueError, KeyError, InvalidParams):
        raise MalformedFile(
            f"{path}:{n}: neither an e<TAB>f<TAB>prob row with a finite prob >= 0 nor "
            f"a valid direction, tension or p0 header: {line!r}"
        ) from None
    if missing := [k for k in ("tension", "p0") if k not in header]:
        raise MalformedFile(f"{path}:{n + 1}: end of file before a {missing[0]!r} header line")
    import numpy as np

    probs = np.frombuffer(values, dtype=np.float64)
    cond, cond_rank = _sorted_ranks(cond_seen)
    emit, emit_rank = _sorted_ranks(emit_seen)
    keys = cond_rank[np.frombuffer(rows, dtype=np.intc)]
    keys *= len(emit)
    keys += emit_rank[np.frombuffer(cols, dtype=np.intc)]
    del rows, cols
    if not (keys[1:] > keys[:-1]).all():  # not in save_model's order
        order = np.argsort(keys, kind="stable")
        keys, probs = keys[order], probs[order]
        last = np.ones(len(keys), dtype=bool)
        last[:-1] = keys[1:] != keys[:-1]
        keys, probs = keys[last], probs[last]
    return AlignModel(Theta(cond, emit, keys, probs), header["tension"], header["p0"],
                      header["direction"])
