"""Seeded synthetic inputs for the tagcopy benchmark.

The corpora, gazetteer and POS tags are derived from the seed alone,
independently of the toolkit, so they double as oracles for the output
checks. Simulated model outputs perturb the toolkit's tagged target side,
and the generator counts the outcomes it plants.

Vocabulary. Source words are ``w<k>`` and their word-for-word target
translations ``v<k>``, drawn with Zipfian frequencies over ``vocab`` ranks.
Gazetteer entity ``k`` owns its own tokens (``e<k>a``, ``e<k>b``, ...) on
the source side and ``f<k>a``, ... on the target side, so a longest-match
lookup can only ever find the planted mentions. Hypernym labels are
ordinary mid-frequency source words, so the lexicon can translate them.

Target sentences are the word-for-word translation with local reordering:
adjacent non-entity tokens swap with probability ``reorder_rate``. Entity
tokens never move, which keeps every planted mention cleanly projectable
through the gold alignment and keeps entities in source order on both
sides.
"""

import json
import random
from bisect import bisect
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

POS_CLASSES = ("DET", "NOUN", "VERB", "ADJ", "ADP", "ADV", "PRON", "PUNCT")
NOISE = "zzznoise"


@dataclass(frozen=True)
class CorpusSpec:
    pairs: int
    vocab: int = 3000
    min_len: int = 6
    max_len: int = 18
    reorder_rate: float = 0.15
    entity_density: float = 0.35  # share of sentences with at least one entity
    second_entity: float = 0.25  # share of entity sentences with a second one
    adjacent_dup_share: float = 0.0
    far_dup_share: float = 0.0
    empty_share: float = 0.0  # lines with one side blank (dropped on read)


class _Zipf:
    def __init__(self, n: int, s: float = 1.05):
        self.cum = list(accumulate(1.0 / (k + 1) ** s for k in range(n)))

    def draw(self, rng: random.Random) -> int:
        return bisect(self.cum, rng.random() * self.cum[-1])


def _entity(k: int, width: int):
    letters = "abc"[:width]
    return [f"e{k}{c}" for c in letters], [f"f{k}{c}" for c in letters]


def make_gazetteer(seed, size: int = 200, no_hypernym_share: float = 0.15):
    """List of (src tokens, tgt tokens, uri, hypernym words or None)."""
    rng = random.Random(seed)
    entries = []
    for k in range(size):
        width = rng.choice((1, 1, 1, 2, 2, 3))
        src, tgt = _entity(k, width)
        if rng.random() < no_hypernym_share:
            hyp = None
        else:
            hyp = [f"w{rng.randrange(20, 60)}" for _ in range(rng.choice((1, 1, 2)))]
        entries.append((src, tgt, f"http://example.org/kb/E{k}", hyp))
    return entries


def _sentence(spec, rng, words: _Zipf, ents: _Zipf, gazetteer):
    """(src, tgt, gold links, planted mentions)."""
    length = rng.randint(spec.min_len, spec.max_len)
    plain = [words.draw(rng) for _ in range(length)]
    n_ent = 0
    if rng.random() < spec.entity_density:
        n_ent = 2 if rng.random() < spec.second_entity else 1
    chosen: list[int] = []
    while len(chosen) < n_ent:
        k = ents.draw(rng)
        if k not in chosen:
            chosen.append(k)
    # entity k goes before ordinary word slot[k]; distinct slots keep two
    # entities at least one ordinary word apart
    at_slot = dict(zip(sorted(rng.sample(range(length + 1), n_ent)), chosen))
    src: list[str] = []
    tgt: list[str] = []
    movable: list[bool] = []
    mentions = []
    for i in range(length + 1):
        if i in at_slot:
            esrc, etgt, uri, hyp = gazetteer[at_slot[i]]
            mentions.append({"start": len(src), "end": len(src) + len(esrc),
                             "uri": uri, "hypernym": hyp})
            src.extend(esrc)
            tgt.extend(etgt)
            movable.extend([False] * len(esrc))
        if i < length:
            src.append(f"w{plain[i]}")
            tgt.append(f"v{plain[i]}")
            movable.append(True)
    # local reordering of ordinary tokens; perm[j] = source index at target j
    perm = list(range(len(src)))
    j = 0
    while j < len(perm) - 1:
        if movable[j] and movable[j + 1] and rng.random() < spec.reorder_rate:
            perm[j], perm[j + 1] = perm[j + 1], perm[j]
            j += 2
        else:
            j += 1
    links = sorted((i, j) for j, i in enumerate(perm))
    return src, [tgt[i] for i in perm], links, mentions


def make_corpus(spec: CorpusSpec, seed, gazetteer):
    """Rows of dicts: src, tgt, links, mentions (one side blank for dropped rows)."""
    rng = random.Random(seed)
    words = _Zipf(spec.vocab)
    ents = _Zipf(len(gazetteer), s=0.8)
    rows: list[dict] = []
    while len(rows) < spec.pairs:
        r = rng.random()
        r -= spec.adjacent_dup_share
        if r < 0 and rows:
            rows.append(rows[-1])
            continue
        r -= spec.far_dup_share
        if r < 0 and len(rows) > 50:
            rows.append(rows[rng.randrange(len(rows) - 50)])
            continue
        src, tgt, links, mentions = _sentence(spec, rng, words, ents, gazetteer)
        if r - spec.empty_share < 0 <= r:
            if rng.random() < 0.5:
                src = []
            else:
                tgt = []
            links, mentions = [], []
        rows.append({"src": src, "tgt": tgt, "links": links, "mentions": mentions})
    return rows


def pos_of(token: str) -> str:
    if token.startswith("e"):
        return "PROPN"
    return POS_CLASSES[int(token[1:]) % len(POS_CLASSES)]


def write_lines(path, rows) -> None:
    with open(path, "w", encoding="utf-8") as f:
        for row in rows:
            f.write(" ".join(row) + "\n")


def write_corpus(outdir: Path, stem: str, rows) -> None:
    """<stem>.src/.tgt/.align/.pos plus <stem>.mentions.jsonl (the oracle)."""
    write_lines(outdir / f"{stem}.src", [r["src"] for r in rows])
    write_lines(outdir / f"{stem}.tgt", [r["tgt"] for r in rows])
    write_lines(outdir / f"{stem}.align", [[f"{i}-{j}" for i, j in r["links"]] for r in rows])
    write_lines(outdir / f"{stem}.pos", [[pos_of(t) for t in r["src"]] for r in rows])
    with open(outdir / f"{stem}.mentions.jsonl", "w", encoding="utf-8") as f:
        for line_no, r in enumerate(rows):
            if r["src"] and r["tgt"] and r["mentions"]:
                f.write(json.dumps({"line_no": line_no, "mentions": r["mentions"]}) + "\n")


def write_gazetteer(outdir: Path, gazetteer) -> None:
    with open(outdir / "gazetteer.tsv", "w", encoding="utf-8") as f:
        for src, _, uri, hyp in gazetteer:
            f.write(f"{' '.join(src)}\t{uri}\t{' '.join(hyp or [])}\n")
    with open(outdir / "hypernyms.tsv", "w", encoding="utf-8") as f:
        for _, _, uri, hyp in gazetteer:
            if hyp:
                f.write(f"{uri}\t{' '.join(hyp)}\n")


def read_mentions(path) -> dict[int, list[dict]]:
    with open(path, encoding="utf-8") as f:
        return {r["line_no"]: r["mentions"] for r in map(json.loads, f)}


# ---------------------------------------------------------------------------
# simulated model outputs

OUTCOMES = ("copied", "tag_dropped", "corrupted", "stray", "unclosed", "noise")
# outcomes that break positional region matching are planted on the last
# bundle of a line only
_LAST_ONLY = {"tag_dropped", "unclosed"}
_UNDELIMITED_OUTCOMES = ("copied", "corrupted", "noise")


def _regions(row, start: str, end: str):
    """[first, last] token index of each balanced start..end region."""
    spans = []
    i = 0
    while i < len(row):
        if row[i] == start:
            j = row.index(end, i + 1)
            spans.append((i, j))
            i = j + 1
        else:
            i += 1
    return spans


def _entity_runs(row, gazetteer, with_hypernym: bool):
    """[first, last] token index of each eligible entity translation run,
    extended over the appended hypernym for hypa."""
    runs = []
    j = 0
    while j < len(row):
        tok = row[j]
        if tok[0] == "f":
            _, tgt, _, hyp = gazetteer[int(tok[1:-1])]
            if hyp:
                runs.append((j, j + len(tgt) - 1 + (len(hyp) if with_hypernym else 0)))
            j += len(tgt)
        else:
            j += 1
    return runs


def simulate_outputs(tagged_tgt, method: str, vocab: dict, gazetteer, seed):
    """Raw model output per row, with planted per-bundle outcomes.

    ``tagged_tgt`` is the tagged target side (what a perfect model would
    emit). Returns (outputs, planted) where planted holds the outcome
    counts plus the copy-accuracy and detag-incident counts they imply.
    """
    rng = random.Random(seed)
    counts = dict.fromkeys(OUTCOMES, 0)
    delimited = method not in ("baseline", "hypa")
    translation = {tuple(src): tgt for src, tgt, _, _ in gazetteer}
    outputs = []
    for row in tagged_tgt:
        row = list(row)
        if delimited:
            spans = _regions(row, vocab["start"], vocab["end"])
        else:
            spans = _entity_runs(row, gazetteer, method == "hypa")
        choices = OUTCOMES if delimited else _UNDELIMITED_OUTCOMES
        picks = [
            rng.choice([c for c in choices if c not in _LAST_ONLY] if k < len(spans) - 1 else choices)
            for k in range(len(spans))
        ]
        bounds = [-1] + [x for span in spans for x in span] + [len(row)]
        strays = 0
        # edit right to left so the indices of spans further left stay valid
        for k in reversed(range(len(spans))):
            lo, hi = spans[k]
            outcome = picks[k]
            counts[outcome] += 1
            if outcome == "corrupted":
                row[lo + 1 if delimited else lo] = NOISE
            elif outcome == "tag_dropped":
                inner = row[lo + 1:hi]
                tgt = [t for t in inner if t[0] == "f"]
                row[lo:hi + 1] = tgt or translation[tuple(t for t in inner if t[0] == "e")]
            elif outcome == "unclosed":
                del row[hi]
            elif outcome == "stray":
                strays += 1
            elif outcome == "noise":
                # a token in the gaps next to this span: edits elsewhere never move it
                gap = list(range(bounds[2 * k] + 1, lo)) + list(range(hi + 1, bounds[2 * k + 3]))
                if gap:
                    row[rng.choice(gap)] = NOISE
        outputs.append([vocab["mid1"]] * strays + row)
    if delimited:
        expected = {
            "correct": counts["copied"] + counts["stray"] + counts["noise"],
            "no_tag": counts["tag_dropped"] + counts["unclosed"],
            "wrong_tag": counts["corrupted"],
            "incidents": counts["stray"] + counts["unclosed"],
        }
    else:
        expected = {
            "correct": counts["copied"] + counts["noise"],
            "no_tag": counts["corrupted"],
            "wrong_tag": 0,
            "incidents": 0,
        }
    return outputs, {"outcomes": counts, "expected": expected}
