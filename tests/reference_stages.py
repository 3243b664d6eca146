"""Reference oracle: the stages after alignment as they were before each
did its work once.

``annotate_gazetteer`` tries every width at every position, whatever the
token there; ``symmetrize_links`` runs the full heuristic even when both
directions agree; ``write_tagged`` renders every pair of a method, joins
each of its rows and dumps each manifest record whole. The parity tests
require the library to write the same bytes and return equal results; it
is not used by the toolkit.
"""

import json

from tagcopy.align import _grow_diag_final_and
from tagcopy.link import EntityMention
from tagcopy.template import render_source_template, render_target_template


def annotate_gazetteer(sentence, gazetteer) -> list[EntityMention]:
    mentions = []
    i = 0
    n = len(sentence)
    while i < n:
        matched = 0
        for width in range(min(gazetteer.max_len, n - i), 0, -1):
            key = tuple(sentence[i:i + width])
            if key in gazetteer.entries:
                uri, hypernym = gazetteer.entries[key]
                mentions.append(
                    EntityMention(i, i + width, list(key), uri, list(hypernym) if hypernym else None)
                )
                matched = width
                break
        i += matched or 1
    return mentions


def symmetrize_links(fwd_links, rev_links, heuristic):
    if heuristic == "intersection":
        return fwd_links & rev_links
    if heuristic == "union":
        return fwd_links | rev_links
    return _grow_diag_final_and(fwd_links, rev_links)


def write_tagged(corpus, selected, method, vocab, src_path, tgt_path, manifest_path) -> None:
    with open(src_path, "w", encoding="utf-8") as fs, open(tgt_path, "w", encoding="utf-8") as ft:
        for pair, bundles in zip(corpus.pairs, selected, strict=True):
            src, tgt = pair.src, pair.tgt
            for b in reversed(bundles):
                src = render_source_template(method, b, src, vocab)
            for b in sorted(bundles, key=lambda b: b.tgt_span[0], reverse=True):
                tgt = render_target_template(method, b, tgt, vocab)
            fs.write(" ".join(src) + "\n")
            ft.write(" ".join(tgt) + "\n")
    with open(manifest_path, "w", encoding="utf-8") as f:
        for row, bundles in enumerate(selected):
            if bundles:
                record = {
                    "line_no": row,
                    "method": method.value,
                    "tag_vocab": vars(vocab),
                    "bundles": [vars(b) for b in bundles],
                }
                f.write(json.dumps(record, ensure_ascii=False) + "\n")
