"""Reference oracle: theta's support and the cell index of a training
corpus, built the way the aligner built them before it sorted all cell
keys once.

Every cell key is computed with plain Python loops, in the aligner's cell
order: shapes (m, n) ascending, then the pairs of a shape in corpus order,
then the emitted positions, each followed by its conditioning positions and
NULL last. The support is the sorted distinct keys of each shape, merged by
a second sort; each cell's index is then found by a ``searchsorted`` per
shape. The parity tests require the aligner's one-sort construction to give
the same arrays; it is not used by the toolkit.
"""

import numpy as np

from tagcopy.align import FORWARD, NULL_WORD


def _distinct(a):
    """Sorted distinct values of an integer array."""
    a = np.sort(a, axis=None)
    first = np.ones(a.size, dtype=bool)
    first[1:] = a[1:] != a[:-1]
    return a[first]


def support_and_index(pairs, direction: str):
    """(support int64, index int32) of a training corpus of SentencePairs."""
    sides = [(p.src, p.tgt) if direction == FORWARD else (p.tgt, p.src) for p in pairs]
    cond = sorted({e for c, _ in sides for e in c} | {NULL_WORD})
    emit = sorted({w for _, f in sides for w in f})
    cond_id = {w: k for k, w in enumerate(cond)}
    emit_id = {w: k for k, w in enumerate(emit)}
    by_shape: dict[tuple[int, int], list[int]] = {}
    for k, (c, f) in enumerate(sides):
        by_shape.setdefault((len(f), len(c)), []).append(k)
    shape_keys = []
    for shape in sorted(by_shape):
        keys = []
        for k in by_shape[shape]:
            c, f = sides[k]
            for w in f:
                keys.extend(cond_id[e] * len(emit) + emit_id[w] for e in [*c, NULL_WORD])
        shape_keys.append(np.array(keys, dtype=np.int64))
    support = _distinct(np.concatenate([_distinct(keys) for keys in shape_keys]))
    index = np.concatenate([np.searchsorted(support, keys) for keys in shape_keys])
    return support, index.astype(np.int32)
