"""Parallel corpus reading, normalization, and holdout splitting.

Input text is expected to be pre-tokenized: UTF-8, LF line endings, one
sentence per line, tokens separated by single spaces. Normalization here is
deliberately limited to lowercasing and accent stripping so the toolkit
stays language-neutral; sub-word or language-specific segmentation belongs
to upstream tools.
"""

import json
import random
import sys
import unicodedata
from collections.abc import Sequence
from dataclasses import dataclass

from .errors import InsufficientData, InvalidParams, LineCountMismatch, MalformedFile

TokenSeq = list[str]


@dataclass(frozen=True)
class NormProfile:
    """Switches applied to every input line."""

    lowercase: bool = True
    strip_accents: bool = True


def _strip_accents(text: str) -> str:
    # canonical decomposition, then drop combining marks; this exact recipe
    # keeps the transform bit-reproducible across runs and machines. NFD
    # leaves ASCII alone and ASCII holds no mark, so most lines skip both
    # steps, and each distinct character is looked up once per line.
    if text.isascii():
        return text
    decomposed = unicodedata.normalize("NFD", text)
    for ch in set(decomposed):
        if unicodedata.combining(ch):
            decomposed = decomposed.replace(ch, "")
    return decomposed


def tokenize_normalize(raw_line: str, profile: NormProfile = NormProfile()) -> TokenSeq:
    """Whitespace-split a line and apply the normalization profile.

    Idempotent: feeding the space-joined result back in reproduces it.
    Tokens that consist solely of combining marks vanish after stripping
    and are dropped. Each token is interned (``sys.intern``), so equal
    tokens across a corpus are one object: a corpus holds one ``str`` per
    distinct token, and the vocabularies and mentions built from it share
    those objects.
    """
    if profile.lowercase:
        raw_line = raw_line.lower()
    if profile.strip_accents:
        raw_line = _strip_accents(raw_line)
    return list(map(sys.intern, raw_line.split()))


@dataclass(frozen=True)
class SentencePair:
    src: TokenSeq
    tgt: TokenSeq
    line_no: int  # 0-based line in the original source file


@dataclass
class ParallelCorpus:
    pairs: list[SentencePair]
    dropped_count: int = 0

    def __len__(self) -> int:
        return len(self.pairs)


def numbered_lines(path):
    """Each line of a UTF-8 text file as ``(n, line)``, n counting from 1,
    read one at a time: the one reader of lines in the toolkit. A line
    breaks only at a newline, never at a lone carriage return, U+2028,
    U+0085 or another break ``str.splitlines`` knows; the newline and then
    one carriage return before it (a CRLF line end) are dropped. A file
    that is not UTF-8 raises MalformedFile naming the path."""
    with open(path, encoding="utf-8", newline="\n") as f:
        try:
            for n, line in enumerate(f, 1):
                yield n, line.removesuffix("\n").removesuffix("\r")
        except UnicodeDecodeError as exc:
            raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from None


def read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, as :func:`numbered_lines` reads them."""
    return [line for _, line in numbered_lines(path)]


def open_for_writing(path):
    """``path`` opened for UTF-8 text with LF line ends on every platform:
    the one place a file is opened for writing (see :func:`write_lines`)."""
    return open(path, "w", encoding="utf-8", newline="\n")


def write_lines(path, lines) -> None:
    """Write each str of ``lines`` and a newline to ``path``, iterating
    ``lines`` once: the one writer of text files, as :func:`numbered_lines`
    is the one reader."""
    with open_for_writing(path) as f:
        for line in lines:
            f.write(line + "\n")


class LineRows(Sequence):
    """A read-only sequence over ``lines`` whose item k is ``row(lines[k])``,
    built each time it is read: only the lines are held, and a row lives
    as long as its reader keeps it. Every read makes a fresh row, so a
    caller binds a row it reads more than once, and a change to a row is
    not kept."""

    __slots__ = ("_lines", "_row")

    def __init__(self, lines: list[str], row=str.split):
        self._lines = lines
        self._row = row

    def __len__(self) -> int:
        return len(self._lines)

    def __getitem__(self, k: int):
        return self._row(self._lines[k])

    def __iter__(self):
        return map(self._row, self._lines)


def read_parallel(src_path, tgt_path, profile: NormProfile = NormProfile()) -> ParallelCorpus:
    """Read a line-parallel file pair into a corpus.

    Line i of each file becomes pair i. Pairs where either side normalizes
    to nothing are dropped (crawled corpora contain them) and counted in
    ``dropped_count``; nothing else of a dropped pair is kept, so a stage
    that reads the source alone (the link stage) reads the file itself.
    Surviving pairs keep their original line numbers.
    """
    src_lines = read_lines(src_path)
    tgt_lines = read_lines(tgt_path)
    if len(src_lines) != len(tgt_lines):
        raise LineCountMismatch(
            f"{src_path} has {len(src_lines)} lines but {tgt_path} has {len(tgt_lines)}"
        )
    pairs = []
    dropped = 0
    for i, (raw_src, raw_tgt) in enumerate(zip(src_lines, tgt_lines)):
        src = tokenize_normalize(raw_src, profile)
        tgt = tokenize_normalize(raw_tgt, profile)
        if not src or not tgt:
            dropped += 1
            continue
        pairs.append(SentencePair(src, tgt, i))
    return ParallelCorpus(pairs, dropped)


def write_parallel(corpus: ParallelCorpus, src_path, tgt_path) -> None:
    """Write both sides back out, one space-joined sentence per line."""
    write_lines(src_path, (" ".join(pair.src) for pair in corpus.pairs))
    write_lines(tgt_path, (" ".join(pair.tgt) for pair in corpus.pairs))


def split_holdout(corpus: ParallelCorpus, n_valid: int, n_test: int, seed: int):
    """Randomly hold out validation and test pairs.

    Pair indices are shuffled with Python's Mersenne Twister seeded with
    ``seed``; the first ``n_valid`` become the validation split, the next
    ``n_test`` the test split and the rest the training split, returned as
    (train, valid, test). The same seed always yields the same partition,
    and each split keeps the original file order.
    """
    n = len(corpus.pairs)
    if n_valid < 0 or n_test < 0 or n_valid + n_test > n:
        raise InsufficientData(f"cannot hold out {n_valid}+{n_test} pairs from a corpus of {n}")
    indices = list(range(n))
    random.Random(seed).shuffle(indices)
    parts = (indices[n_valid + n_test:], indices[:n_valid], indices[n_valid:n_valid + n_test])
    return tuple(ParallelCorpus([corpus.pairs[i] for i in sorted(ix)]) for ix in parts)


def read_records(path, parse, tsv: int = 0) -> list:
    """Parse each non-blank line of a UTF-8 file into one record.

    With ``tsv=N`` a line must hold exactly N tab-separated fields, passed
    to ``parse`` as its arguments; otherwise the line is one JSON value,
    passed as the only argument. A line that fails (``parse`` raising
    ValueError, KeyError, TypeError or InvalidParams counts, as does JSON
    nested too deeply to decode) raises MalformedFile naming
    ``path:line``; a file that is not UTF-8 raises it naming the path.
    """
    records = []
    try:
        for n, line in numbered_lines(path):
            if not line.strip():
                continue
            if not tsv:
                records.append(parse(json.loads(line)))
                continue
            fields = line.split("\t")
            if len(fields) != tsv:
                raise MalformedFile(
                    f"{path}:{n}: {len(fields)} tab-separated fields, expected {tsv}"
                )
            records.append(parse(*fields))
    except (ValueError, KeyError, TypeError, InvalidParams, RecursionError) as exc:
        raise MalformedFile(f"{path}:{n}: {type(exc).__name__}: {exc}") from None
    return records


def check_json_values(spans=(), tokens=(), text=()) -> None:
    """Check the JSON values a record was built from: each of ``spans`` a
    token span ``[start, end]``, two ints with ``0 <= start < end``; each of
    ``tokens`` a list of str; each of ``text`` a str. A wrong type raises
    TypeError and an empty or negative span ValueError, which
    :func:`read_records` reports as MalformedFile."""
    for span in spans:
        if (type(span) is not list or len(span) != 2
                or type(span[0]) is not int or type(span[1]) is not int):
            raise TypeError(f"a span must be two ints, got {span!r}")
        if not 0 <= span[0] < span[1]:
            raise ValueError(f"span {span!r} is not 0 <= start < end")
    for value in tokens:
        if type(value) is not list:
            raise TypeError(f"tokens must be a list of str, got {value!r}")
        "".join(value)  # raises TypeError naming an item that is not a str
    for value in text:
        if type(value) is not str:
            raise TypeError(f"expected a str, got {value!r}")
