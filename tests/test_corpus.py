import ast
import random
import re
import sys
import unicodedata
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import tagcopy
from tagcopy.corpus import (
    NormProfile,
    read_lines,
    read_parallel,
    read_records,
    split_holdout,
    tokenize_normalize,
    write_lines,
    write_parallel,
)
from tagcopy.errors import InsufficientData, LineCountMismatch, MalformedFile


class TestTokenizeNormalize:
    def test_lowercase_pretokenized(self):
        assert tokenize_normalize("Myanmar was a HIGHLY civilized country .") == [
            "myanmar", "was", "a", "highly", "civilized", "country", ".",
        ]

    def test_accent_strip(self):
        assert tokenize_normalize("Café") == ["cafe"]

    def test_empty_line(self):
        assert tokenize_normalize("") == []

    def test_profile_switches(self):
        profile = NormProfile(lowercase=False, strip_accents=False)
        assert tokenize_normalize("Café NOISE", profile) == ["Café", "NOISE"]
        assert tokenize_normalize("Café", NormProfile(lowercase=False)) == ["Cafe"]

    def test_combining_mark_only_token_dropped(self):
        assert tokenize_normalize("a ́ b") == ["a", "b"]

    @pytest.mark.parametrize(
        "text",
        [
            "Myanmar was a HIGHLY civilized country .",
            "Café au lait , s'il vous plaît .",
            "naïve RÉSUMÉ über straße",
            "İstanbul daki ev",
            "缅甸 是 一个 国家 。",
            "mixed 中文 and ASCII 123 .",
        ],
    )
    def test_idempotent(self, text):
        once = tokenize_normalize(text)
        again = tokenize_normalize(" ".join(once))
        assert once == again

    def test_idempotent_random_ascii(self):
        rng = random.Random(5)
        chars = "abc XYZ .,-'"
        for _ in range(200):
            text = "".join(rng.choice(chars) for _ in range(rng.randrange(0, 30)))
            once = tokenize_normalize(text)
            assert tokenize_normalize(" ".join(once)) == once

    @given(line=st.text(), lowercase=st.booleans(), strip_accents=st.booleans())
    def test_tokens_are_the_split_of_the_normalized_line_and_interned(
            self, line, lowercase, strip_accents):
        tokens = tokenize_normalize(line, NormProfile(lowercase, strip_accents))
        normalized = line.lower() if lowercase else line
        if strip_accents:
            normalized = "".join(ch for ch in unicodedata.normalize("NFD", normalized)
                                 if not unicodedata.combining(ch))
        assert tokens == normalized.split()
        assert all(token is sys.intern(token) for token in tokens)


class TestReadParallel:
    def test_equal_tokens_are_one_object(self, tmp_path, toy_corpus):
        # across pairs and across sides
        (tmp_path / "a").write_text("New York grew\nwe left new york\n", encoding="utf-8")
        (tmp_path / "b").write_text("nueva york crecio\nnew york dejamos\n", encoding="utf-8")
        first, second = read_parallel(tmp_path / "a", tmp_path / "b").pairs
        assert first.src[0] is second.src[2] is second.tgt[0]
        assert first.src[1] is first.tgt[1] is second.src[3] is second.tgt[1]
        # the toy corpus holds one object per distinct token
        tokens = [t for pair in toy_corpus.pairs for side in (pair.src, pair.tgt) for t in side]
        assert len({id(t) for t in tokens}) == len(set(tokens)) < len(tokens)

    def test_reads_pairs(self, tmp_path):
        (tmp_path / "a").write_text("One two\nThree four\n", encoding="utf-8")
        (tmp_path / "b").write_text("eins zwei\ndrei vier\n", encoding="utf-8")
        corpus = read_parallel(tmp_path / "a", tmp_path / "b")
        assert len(corpus) == 2
        assert corpus.dropped_count == 0
        assert corpus.pairs[0].src == ["one", "two"]
        assert corpus.pairs[1].tgt == ["drei", "vier"]

    def test_line_count_mismatch(self, tmp_path):
        (tmp_path / "a").write_text("x\ny\nz\n", encoding="utf-8")
        (tmp_path / "b").write_text("1\n2\n3\n4\n", encoding="utf-8")
        with pytest.raises(LineCountMismatch):
            read_parallel(tmp_path / "a", tmp_path / "b")

    def test_blank_line_dropped_and_counted(self, tmp_path):
        (tmp_path / "a").write_text("x\ny\nz\n", encoding="utf-8")
        (tmp_path / "b").write_text("1\n\n3\n", encoding="utf-8")
        corpus = read_parallel(tmp_path / "a", tmp_path / "b")
        assert len(corpus) == 2
        assert corpus.dropped_count == 1
        assert [p.line_no for p in corpus.pairs] == [0, 2]

    def test_write_read_round_trip(self, tmp_path, toy_corpus):
        write_parallel(toy_corpus, tmp_path / "s", tmp_path / "t")
        again = read_parallel(tmp_path / "s", tmp_path / "t")
        assert again.pairs == toy_corpus.pairs
        assert again.dropped_count == 0

    def test_round_trip_with_drops_keeps_content(self, tmp_path):
        (tmp_path / "a").write_text("x y\n\nz\n", encoding="utf-8")
        (tmp_path / "b").write_text("1\n2\n3\n", encoding="utf-8")
        corpus = read_parallel(tmp_path / "a", tmp_path / "b")
        write_parallel(corpus, tmp_path / "s", tmp_path / "t")
        again = read_parallel(tmp_path / "s", tmp_path / "t")
        assert [p.src for p in again.pairs] == [p.src for p in corpus.pairs]
        assert [p.tgt for p in again.pairs] == [p.tgt for p in corpus.pairs]


# characters str.splitlines breaks at besides the newline; inside a line
# they are whitespace to str.split
NOT_NEWLINES = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


class TestReadLines:
    @pytest.mark.parametrize("text, lines", [
        ("", []), ("\n", [""]), ("a\nb", ["a", "b"]), ("a\nb\n", ["a", "b"]),
        ("a\n\nb\n\n", ["a", "", "b", ""]), ("a\r\nb\rc\n", ["a", "b\rc"]),
    ])
    def test_lines_without_their_newlines(self, tmp_path, text, lines):
        (tmp_path / "a").write_bytes(text.encode())
        assert read_lines(tmp_path / "a") == lines

    @pytest.mark.parametrize("char", NOT_NEWLINES)
    def test_breaks_only_at_newlines(self, tmp_path, char):
        (tmp_path / "a").write_text(f"x{char}y z\nw\n", encoding="utf-8")
        (tmp_path / "b").write_text("1\n2\n", encoding="utf-8")
        assert read_lines(tmp_path / "a") == [f"x{char}y z", "w"]
        corpus = read_parallel(tmp_path / "a", tmp_path / "b")
        assert [(p.src, p.line_no) for p in corpus.pairs] == [(["x", "y", "z"], 0), (["w"], 1)]

    def test_a_stray_carriage_return_does_not_shift_one_side(self, tmp_path):
        # a lone "\r" is whitespace inside its line, so line i of each file
        # is still pair i: split at each "\r", both files would hold three
        # lines and pair y with 2; CRLF line ends read as newlines
        (tmp_path / "a").write_bytes(b"x\ry\r\nw\r\n")
        (tmp_path / "b").write_bytes(b"1\n2\r3\n")
        corpus = read_parallel(tmp_path / "a", tmp_path / "b")
        assert [(p.src, p.tgt, p.line_no) for p in corpus.pairs] == [
            (["x", "y"], ["1"], 0), (["w"], ["2", "3"], 1)]

    def test_not_utf8_names_the_path(self, tmp_path):
        (tmp_path / "a").write_bytes(b"ok\n\xff\n")
        with pytest.raises(MalformedFile, match="^" + re.escape(f"{tmp_path / 'a'}: not UTF-8")):
            read_lines(tmp_path / "a")


class TestWriteLines:
    def test_each_line_then_one_lf(self, tmp_path):
        lines = ["a b", "", "café", "x\u2028y"]
        write_lines(tmp_path / "a", iter(lines))
        assert (tmp_path / "a").read_bytes() == "a b\n\ncafé\nx\u2028y\n".encode()
        assert read_lines(tmp_path / "a") == lines

    def test_no_lines_is_an_empty_file(self, tmp_path):
        write_lines(tmp_path / "a", [])
        assert (tmp_path / "a").read_bytes() == b""


def _opens_for_writing(path: Path):
    """(function, line) of each call in ``path`` that may open a file for
    writing: an ``open`` whose mode holds w, a, x or +, or is not a string
    literal (a mode the guard cannot read counts as writing), and any
    ``write_text`` or ``write_bytes``."""
    found = []

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call):
                func = child.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                # path.open(mode) takes the mode first; open, io.open and os.open second
                method = isinstance(func, ast.Attribute) and not (
                    isinstance(func.value, ast.Name) and func.value.id in ("io", "os", "codecs"))
                modes = [*child.args[0 if method else 1:][:1],
                         *(k.value for k in child.keywords if k.arg in ("mode", "flags"))]
                mode = modes[0] if modes else ast.Constant("r")
                writes = not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                              and not set(mode.value) & set("wax+"))
                if name == "open" and writes or name in ("write_text", "write_bytes"):
                    found.append((function, child.lineno))
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_only_the_writer_home_opens_files_for_writing():
    # the UTF-8 and LF rules of every file the toolkit writes live in
    # corpus.open_for_writing; an open() for writing anywhere else would
    # write the platform's line end
    package = Path(tagcopy.__file__).parent
    found = {path.name: [function for function, _ in _opens_for_writing(path)]
             for path in sorted(package.glob("*.py"))}
    assert {name: functions for name, functions in found.items() if functions} == {
        "corpus.py": ["open_for_writing"]}


@pytest.mark.parametrize("code, writes", [
    ("open(p)", False), ("open(p, 'rb')", False), ("open(p, encoding='utf-8')", False),
    ("p.open()", False), ("p.open('r')", False),
    ("open(p, 'w')", True), ("open(p, mode='a')", True), ("open(p, 'r+b')", True),
    ("io.open(p, 'x')", True), ("p.open('w')", True), ("open(p, m)", True),
    ("os.open(p, os.O_WRONLY)", True), ("p.write_text(s)", True), ("p.write_bytes(b)", True),
])
def test_the_writer_guard_sees_each_way_to_write(tmp_path, code, writes):
    (tmp_path / "m.py").write_text(f"def f():\n    {code}\n", encoding="utf-8")
    assert _opens_for_writing(tmp_path / "m.py") == ([("f", 2)] if writes else [])


def test_records_break_only_at_newlines(tmp_path):
    # as in read_lines: a lone "\r" stays in its field and the "\r" of a
    # CRLF line end is dropped
    (tmp_path / "a.tsv").write_bytes(b"k\tv\r\nx\ry\tz\n")
    assert read_records(tmp_path / "a.tsv", lambda a, b: (a, b), tsv=2) == [
        ("k", "v"), ("x\ry", "z")]


class TestSplitHoldout:
    def _tiny(self, tmp_path, n=10):
        (tmp_path / "a").write_text("".join(f"w{i} w{i}\n" for i in range(n)), encoding="utf-8")
        (tmp_path / "b").write_text("".join(f"v{i} v{i}\n" for i in range(n)), encoding="utf-8")
        return read_parallel(tmp_path / "a", tmp_path / "b")

    def test_sizes_and_disjoint(self, tmp_path):
        corpus = self._tiny(tmp_path)
        train, valid, test = split_holdout(corpus, 2, 2, seed=7)
        assert (len(train), len(valid), len(test)) == (6, 2, 2)
        sets = [{p.line_no for p in part.pairs} for part in (train, valid, test)]
        assert sets[0] | sets[1] | sets[2] == set(range(10))
        assert not (sets[0] & sets[1] or sets[0] & sets[2] or sets[1] & sets[2])

    def test_empty_train_boundary(self, tmp_path):
        corpus = self._tiny(tmp_path, 4)
        train, valid, test = split_holdout(corpus, 2, 2, seed=0)
        assert len(train) == 0 and len(valid) == 2 and len(test) == 2

    def test_deterministic(self, tmp_path):
        corpus = self._tiny(tmp_path)
        first = split_holdout(corpus, 3, 3, seed=42)
        second = split_holdout(corpus, 3, 3, seed=42)
        for a, b in zip(first, second):
            assert [p.line_no for p in a.pairs] == [p.line_no for p in b.pairs]

    def test_insufficient_data(self, tmp_path):
        corpus = self._tiny(tmp_path, 3)
        with pytest.raises(InsufficientData):
            split_holdout(corpus, 2, 2, seed=0)

    def test_splits_keep_file_order(self, tmp_path):
        corpus = self._tiny(tmp_path)
        for part in split_holdout(corpus, 4, 3, seed=1):
            nos = [p.line_no for p in part.pairs]
            assert nos == sorted(nos)
