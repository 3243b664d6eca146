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

# the package's writer: UTF-8 with LF line ends on every platform, so the
# fixture comes out byte for byte the same wherever it is made
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
from tagcopy.corpus import write_lines  # noqa: E402

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

    write_lines(outdir / "src.en", (" ".join(s) for s in sentences))
    write_lines(outdir / "tgt.zz", (" ".join(w[::-1] for w in s) for s in sentences))
    write_lines(outdir / "gold.align",
                (" ".join(f"{i}-{i}" for i in range(len(s))) for s in sentences))
    write_lines(outdir / "pos.en", (" ".join(pos[w] for w in s) for s in sentences))

    gazetteer = ENTITIES + [NO_HYPERNYM_ENTITY]
    write_lines(outdir / "gazetteer.tsv",
                (f"{' '.join(surface)}\t{uri}\t{label}" for surface, uri, label in gazetteer))
    write_lines(outdir / "hypernyms.tsv", (f"{uri}\t{label}" for _, uri, label in ENTITIES))

    write_lines(outdir / "config.yaml", [
        "src: tests/fixtures/toy/src.en",
        "tgt: tests/fixtures/toy/tgt.zz",
        "workdir: out/toy",
        "seed: 13",
        "aligner:",
        "  iterations: 5",
        "  tension: 4.0",
        "  p0: 0.08",
        "  heuristic: grow-diag-final-and",
        "linker:",
        "  mode: gazetteer",
        "  gazetteer: tests/fixtures/toy/gazetteer.tsv",
        "  hypernyms: tests/fixtures/toy/hypernyms.tsv",
        "tagging:",
        "  methods: [baseline, tag, add, trans, transa, transr, hypa]",
        "  vocab: special",
    ])

    n_entity = sum(
        1 for s in sentences if any(w in entity_words for w in s)
    )
    print(f"{len(sentences)} sentences, {n_entity} with entity words, written to {outdir}")


if __name__ == "__main__":
    main()
