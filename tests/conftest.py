import json
from pathlib import Path

import pytest

from tagcopy import link
from tagcopy.align import read_pharaoh
from tagcopy.corpus import ParallelCorpus, SentencePair, read_parallel
from tagcopy.lexicon import build_translation_table
from tagcopy.link import Gazetteer, annotate_gazetteer
from tagcopy.template import ManifestEntry

FIXTURES = Path(__file__).parent / "fixtures"


@pytest.fixture(autouse=True)
def no_retry_backoff(monkeypatch):
    """Remote requests retry at once, so that no test sleeps on a retry."""
    monkeypatch.setattr(link, "_BACKOFF_S", 0)


def make_corpus(pairs) -> ParallelCorpus:
    """Build a corpus from ('src text', 'tgt text') string pairs."""
    return ParallelCorpus(
        [SentencePair(s.split(), t.split(), k) for k, (s, t) in enumerate(pairs)]
    )


@pytest.fixture(scope="session")
def toy_dir() -> Path:
    return FIXTURES / "toy"


@pytest.fixture(scope="session")
def toy_corpus(toy_dir):
    return read_parallel(toy_dir / "src.en", toy_dir / "tgt.zz")


@pytest.fixture(scope="session")
def toy_gold_alignments(toy_dir):
    return read_pharaoh(toy_dir / "gold.align")


@pytest.fixture(scope="session")
def toy_gazetteer(toy_dir):
    return Gazetteer.from_tsv(toy_dir / "gazetteer.tsv")


@pytest.fixture(scope="session")
def toy_annotations(toy_corpus, toy_gazetteer):
    return [annotate_gazetteer(pair.src, toy_gazetteer) for pair in toy_corpus.pairs]


@pytest.fixture(scope="session")
def toy_table(toy_corpus, toy_gold_alignments):
    return build_translation_table(toy_corpus, toy_gold_alignments)


def load_spotlight_fixture(name: str) -> dict:
    with open(FIXTURES / "spotlight" / name, encoding="utf-8") as f:
        return json.load(f)


def manifest_from_selection(selected, method, vocab) -> list[ManifestEntry]:
    """In-memory equivalent of write_tagged + read_manifest."""
    return [
        ManifestEntry(row, method, vocab, bundles)
        for row, bundles in enumerate(selected) if bundles
    ]
