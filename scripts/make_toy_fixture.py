#!/usr/bin/env python3
"""Regenerate the bundled toy fixture (tests/fixtures/toy).

Synthetic bilingual corpus: the target language is the source with every
token's characters reversed, word for word and in the same order, so gold
alignments are the identity diagonal and the whole pipeline can be checked
offline. Exactly 50 of the 200 sentences contain a gazetteer entity that is
eligible for tagging (uri + hypernym + projectable span); three more carry
an entity without a hypernym and must stay untagged everywhere.

Usage: python scripts/make_toy_fixture.py [outdir]
"""

import random
import sys
from pathlib import Path

SEED = 20240817

DET = ["the", "a"]
NOUN = [
    "country", "state", "city", "river", "army", "people", "treaty", "border",
    "market", "village", "port", "team", "road", "king", "farmer", "harvest",
]
VERB = ["signed", "crossed", "visited", "praised", "ruled", "defended", "entered", "reached"]
ADJ = ["ancient", "peaceful", "mighty", "small", "proud"]

POS = {w: "DET" for w in DET}
POS.update({w: "NOUN" for w in NOUN})
POS.update({w: "VERB" for w in VERB})
POS.update({w: "ADJ" for w in ADJ})
POS.update({"of": "ADP", "near": "ADP", "and": "CCONJ", ".": "PUNCT"})

# surface tokens, uri, hypernym label ("" = the knowledge base has none)
ENTITIES = [
    (("myanmar",), "http://example.org/kb/Myanmar", "state"),
    (("gambia",), "http://example.org/kb/Gambia", "country"),
    (("new", "york"), "http://example.org/kb/New_York", "city"),
    (("danube",), "http://example.org/kb/Danube", "river"),
    (("volga",), "http://example.org/kb/Volga", "river"),
    (("kigali",), "http://example.org/kb/Kigali", "city"),
    (("osaka",), "http://example.org/kb/Osaka", "port city"),
    (("sierra", "leone"), "http://example.org/kb/Sierra_Leone", "country"),
    (("toronto",), "http://example.org/kb/Toronto", "city"),
    (("zanzibar",), "http://example.org/kb/Zanzibar", "archipelago"),
]
NO_HYPERNYM_ENTITY = (("ruritania",), "http://example.org/kb/Ruritania", "")

N_TOTAL = 200
N_ELIGIBLE = 50
N_TWO_ENTITY = 10
N_NO_HYPERNYM = 3


def plain_sentence(rng):
    pattern = rng.randrange(5)
    n = lambda: rng.choice(NOUN)
    v = lambda: rng.choice(VERB)
    adj = lambda: rng.choice(ADJ)
    if pattern == 0:
        return ["the", n(), v(), "the", n(), "."]
    if pattern == 1:
        return ["the", adj(), n(), v(), "a", n(), "."]
    if pattern == 2:
        return ["a", n(), "of", "the", n(), v(), "."]
    if pattern == 3:
        return ["the", n(), v(), "near", "the", adj(), n(), "."]
    return ["the", n(), "and", "the", n(), v(), "."]


def entity_sentence(rng, entity):
    e = list(entity)
    pattern = rng.randrange(4)
    n = lambda: rng.choice(NOUN)
    v = lambda: rng.choice(VERB)
    adj = lambda: rng.choice(ADJ)
    if pattern == 0:
        return e + [v(), "the", adj(), n(), "."]
    if pattern == 1:
        return ["the", n(), "of"] + e + [v(), "."]
    if pattern == 2:
        return ["the", adj(), n(), v()] + e + ["."]
    return ["near"] + e + ["the", n(), v(), "."]


def two_entity_sentence(rng, first, second):
    return list(first) + ["and"] + list(second) + [rng.choice(VERB), "the", rng.choice(NOUN), "."]


def main():
    outdir = Path(sys.argv[1]) if len(sys.argv) > 1 else Path("tests/fixtures/toy")
    outdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(SEED)

    surfaces = [e[0] for e in ENTITIES]
    slots = surfaces * 3  # every eligible entity at least 3 times
    extra = N_ELIGIBLE - N_TWO_ENTITY + 2 * N_TWO_ENTITY - len(slots)
    slots += [rng.choice(surfaces) for _ in range(extra)]
    rng.shuffle(slots)

    sentences = []
    for _ in range(N_TWO_ENTITY):
        first, second = slots.pop(), slots.pop()
        sentences.append(two_entity_sentence(rng, first, second))
    while slots:
        sentences.append(entity_sentence(rng, slots.pop()))
    for _ in range(N_NO_HYPERNYM):
        sentences.append(entity_sentence(rng, NO_HYPERNYM_ENTITY[0]))
    while len(sentences) < N_TOTAL:
        sentences.append(plain_sentence(rng))
    rng.shuffle(sentences)

    entity_words = {w for surface in surfaces for w in surface} | set(NO_HYPERNYM_ENTITY[0])
    pos = dict(POS)
    pos.update({w: "PROPN" for w in entity_words})

    with open(outdir / "src.en", "w", encoding="utf-8") as f:
        for s in sentences:
            f.write(" ".join(s) + "\n")
    with open(outdir / "tgt.zz", "w", encoding="utf-8") as f:
        for s in sentences:
            f.write(" ".join(w[::-1] for w in s) + "\n")
    with open(outdir / "gold.align", "w", encoding="utf-8") as f:
        for s in sentences:
            f.write(" ".join(f"{i}-{i}" for i in range(len(s))) + "\n")
    with open(outdir / "pos.en", "w", encoding="utf-8") as f:
        for s in sentences:
            f.write(" ".join(pos[w] for w in s) + "\n")

    with open(outdir / "gazetteer.tsv", "w", encoding="utf-8") as f:
        for surface, uri, label in ENTITIES + [NO_HYPERNYM_ENTITY]:
            f.write(f"{' '.join(surface)}\t{uri}\t{label}\n")
    with open(outdir / "hypernyms.tsv", "w", encoding="utf-8") as f:
        for _, uri, label in ENTITIES:
            f.write(f"{uri}\t{label}\n")

    with open(outdir / "config.yaml", "w", encoding="utf-8") as f:
        f.write(
            "src: tests/fixtures/toy/src.en\n"
            "tgt: tests/fixtures/toy/tgt.zz\n"
            "workdir: out/toy\n"
            "seed: 13\n"
            "aligner:\n"
            "  iterations: 5\n"
            "  tension: 4.0\n"
            "  p0: 0.08\n"
            "  heuristic: grow-diag-final-and\n"
            "linker:\n"
            "  mode: gazetteer\n"
            "  gazetteer: tests/fixtures/toy/gazetteer.tsv\n"
            "  hypernyms: tests/fixtures/toy/hypernyms.tsv\n"
            "tagging:\n"
            "  methods: [baseline, tag, add, trans, transa, transr, hypa]\n"
            "  vocab: special\n"
        )

    n_entity = sum(
        1 for s in sentences if any(w in entity_words for w in s)
    )
    print(f"{len(sentences)} sentences, {n_entity} with entity words, written to {outdir}")


if __name__ == "__main__":
    main()
