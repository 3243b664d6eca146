"""Word translation table built from symmetrized alignment links."""

from collections import Counter, defaultdict
from collections.abc import Sequence
from dataclasses import dataclass

from .align import check_links
from .corpus import ParallelCorpus, TokenSeq, read_records, write_lines
from .errors import LengthMismatch


@dataclass(frozen=True)
class TableEntry:
    target: str
    count: int
    prob: float


@dataclass
class TranslationTable:
    entries: dict[str, TableEntry]

    def __len__(self) -> int:
        return len(self.entries)


def build_translation_table(
    corpus: ParallelCorpus,
    alignments: Sequence[set[tuple[int, int]]],
    min_count: int = 1,
) -> TranslationTable:
    """Count linked word pairs and keep the best target per source word.

    Ties on link count go to the target word with the higher target-side
    corpus frequency, then to the lexicographically smaller one. Candidates
    linked fewer than ``min_count`` times are ignored; the stored
    probability is the winning count over all links of that source word.
    Each row of ``alignments`` is read once, so rows built when they are
    read (:func:`~tagcopy.align.read_pharaoh`) are built once.
    """
    if len(alignments) != len(corpus.pairs):
        raise LengthMismatch(
            f"{len(alignments)} alignment rows for {len(corpus.pairs)} sentence pairs"
        )
    pair_counts: dict[str, Counter] = defaultdict(Counter)
    tgt_freq: Counter = Counter()
    for row, (pair, links) in enumerate(zip(corpus.pairs, alignments)):
        tgt_freq.update(pair.tgt)
        check_links(links, len(pair.src), len(pair.tgt), row)
        for i, j in links:
            pair_counts[pair.src[i]][pair.tgt[j]] += 1

    entries: dict[str, TableEntry] = {}
    for src_word, cands in pair_counts.items():
        total = sum(cands.values())
        best = None
        best_rank = None
        # ascending word order + strictly-greater keeps the lexicographically
        # smallest target among full ties
        for tgt_word in sorted(cands):
            c = cands[tgt_word]
            if c < min_count:
                continue
            rank = (c, tgt_freq[tgt_word])
            if best_rank is None or rank > best_rank:
                best, best_rank = tgt_word, rank
        if best is not None:
            entries[src_word] = TableEntry(best, cands[best], cands[best] / total)
    return TranslationTable(entries)


def translate_word(table: TranslationTable, word: str) -> str | None:
    """Exact-match lookup; the word must already be normalized."""
    entry = table.entries.get(word)
    return entry.target if entry is not None else None


def translate_tokens(table: TranslationTable, tokens: TokenSeq) -> TokenSeq:
    """Word-by-word translation; words missing from the table pass through."""
    out = []
    for w in tokens:
        t = translate_word(table, w)
        out.append(t if t is not None else w)
    return out


def translate_tokens_strict(table: TranslationTable, tokens: TokenSeq) -> TokenSeq | None:
    """Word-by-word translation, or None unless every word is in the table."""
    out = []
    for w in tokens:
        t = translate_word(table, w)
        if t is None:
            return None
        out.append(t)
    return out


def save_table(table: TranslationTable, path) -> None:
    """TSV dump: src, tgt, link count, probability (6 decimals), sorted by src."""
    write_lines(path, (f"{src}\t{e.target}\t{e.count}\t{e.prob:.6f}"
                       for src, e in sorted(table.entries.items())))


def _table_row(src, tgt, count, prob):
    # a count is bare decimal digits, the rule of read_pharaoh, and at least
    # 1; a probability is bare digits with at most one "." between digit
    # runs, as save_table writes it, and at most 1 (0 is allowed, since
    # save_table rounds to 6 decimals)
    entry = TableEntry(tgt, int(count), float(prob))
    if not count.isdecimal() or entry.count < 1:
        raise ValueError(f"link count {count!r} is not a positive integer")
    whole, dot, fraction = prob.partition(".")
    if not (whole.isdecimal() and (fraction.isdecimal() or not dot)) or entry.prob > 1.0:
        raise ValueError(f"probability {prob!r} is not a decimal in [0, 1]")
    return src, entry


def load_table(path) -> TranslationTable:
    """Read a save_table dump; a repeated source word keeps its last row.
    A row whose count or probability is not written as save_table writes it,
    or is out of range, raises MalformedFile naming ``path:line``."""
    return TranslationTable(dict(read_records(path, _table_row, tsv=4)))
