"""Parity of the corpus normalizer and the Pharaoh reader against the
per-character and per-link implementations in tests/reference_readers.py,
of the token rows built when they are read against the whole-file line
reader, and a smoke run of both readers at benchmark size."""

import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import reference_readers
from tagcopy.align import read_pharaoh, write_pharaoh
from tagcopy.cli import read_token_lines
from tagcopy.corpus import NormProfile, read_lines, read_parallel, tokenize_normalize
from tagcopy.errors import MalformedFile

PROFILES = [NormProfile(lowercase, strip) for lowercase in (True, False)
            for strip in (True, False)]

# combining marks alone and precomposed; Greek capital sigma, whose
# lowercase depends on the next letter; characters that lowercase or
# decompose into several; astral letters, digits and marks; Unicode spaces
NORM_PIECES = [
    "\u0301", "\u0308", "\u0327", "\u0345", "\u20dd", "\u00e9", "e\u0301", "\u00c5",
    "\u212b", "\u01c5", "\u01c4", "\u03a3", "\u03a3\u0391", "\u0391\u03a3", "\u03c2",
    "\u0130", "\u00df", "\ufb01", "\u1f52", "\U0001d400", "\U0001d7d8", "\U0001d165",
    "\U0001d15e", "\U0001f600", "\U00010400", " ", "\t", "\u00a0", "\u2028", "\u3000",
    "\x1c", "a", "Z",
]
norm_line = st.lists(st.sampled_from(NORM_PIECES) | st.characters(blacklist_categories=("Cs",)),
                     max_size=30).map("".join)


@settings(max_examples=500, deadline=None)
@given(line=norm_line, profile=st.sampled_from(PROFILES))
def test_tokenize_normalize_matches_reference(line, profile):
    assert tokenize_normalize(line, profile) == reference_readers.tokenize_normalize(line, profile)


def _outcome(reader, path):
    """The list of link sets, or the message of the MalformedFile raised."""
    try:
        return list(reader(path))
    except MalformedFile as exc:
        return str(exc)


# ASCII and Arabic-Indic digits, which int() reads, superscript two, which
# it does not, and separators that split() and the line reader treat apart
PHARAOH_CHARS = ("0123456789-+_ \n\t\r\x0b\x1c\x85\u2028"
                 + "".join(map(chr, range(0x660, 0x66a))) + "\u00b2")
pharaoh_text = st.lists(
    st.sampled_from(["0-0", "1-2", "10-3", "1--2", "+1-2", "1_0-2", " ", "\n"])
    | st.text(PHARAOH_CHARS, max_size=6),
    max_size=25,
).map("".join)


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("pharaoh") / "a.align"


@settings(max_examples=500, deadline=None)
@given(text=pharaoh_text)
def test_read_pharaoh_matches_reference(scratch, text):
    scratch.write_bytes(text.encode("utf-8"))
    assert _outcome(read_pharaoh, scratch) == _outcome(reference_readers.read_pharaoh, scratch)


# CRLF and lone CR ends, U+2028 and U+0085 inside a line, blank lines, and
# (by where the text stops) a last line with or without its newline
LINE_PIECES = ["0-0", "1-2", "10-3", "1--2", "a", "b c", " ", "\t", "\n", "\r\n", "\r",
               "\n\n", "\u2028", "\x85"]
line_text = st.lists(st.sampled_from(LINE_PIECES) | st.text(PHARAOH_CHARS, max_size=4),
                     max_size=25).map("".join)


@settings(max_examples=300, deadline=None)
@given(text=line_text)
@example(text="0-0 1-2\r\n\n1-2\u20280-0\n10-3")
def test_rows_read_on_access_match_the_whole_file_readers(scratch, text):
    scratch.write_bytes(text.encode("utf-8"))
    rows = read_token_lines(scratch)
    assert list(rows) == [line.split() for line in read_lines(scratch)]
    assert [rows[k] for k in range(len(rows))] == list(rows)


def test_readers_smoke(benchmark, tmp_path):
    """Crash check for reading a 2,000-pair corpus and its alignments; one
    round, not a timing gate."""
    rng = random.Random(11)
    vocab = [f"w{k}" for k in range(400)] + ["Café", "naïve", "Ørsted", "ÉTÉ"]
    src, tgt, link_sets = [], [], []
    for _ in range(2000):
        s = rng.choices(vocab, k=rng.randint(3, 20))
        t = rng.choices(vocab, k=rng.randint(3, 20))
        src.append(" ".join(s))
        tgt.append(" ".join(t))
        link_sets.append({(rng.randrange(len(s)), j) for j in range(len(t))})
    (tmp_path / "c.src").write_text("\n".join(src) + "\n", encoding="utf-8")
    (tmp_path / "c.tgt").write_text("\n".join(tgt) + "\n", encoding="utf-8")
    write_pharaoh(link_sets, tmp_path / "c.align")

    def run():
        return (read_parallel(tmp_path / "c.src", tmp_path / "c.tgt"),
                read_pharaoh(tmp_path / "c.align"))

    corpus, links = benchmark.pedantic(run, rounds=1, iterations=1)
    assert (len(corpus), corpus.dropped_count) == (2000, 0)
    assert list(links) == link_sets
