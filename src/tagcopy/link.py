"""Entity mentions: remote annotation, offline gazetteer, hypernym lookup,
and projection of source spans to the target side through word alignments.

The remote annotator speaks the Spotlight-style HTTP annotate API (GET with
``text`` and ``confidence`` parameters, JSON response listing resources
with ``@URI``, ``@surfaceForm`` and a character ``@offset``). The gazetteer
annotator is the deterministic offline substitute used for tests and
fixtures; both produce the same mention type, so everything downstream is
agnostic about which one ran.

Annotations are stored as JSON Lines, one record per sentence:
``{"line_no": ..., "mentions": [...]}``, each mention an object keyed by
the fields of :class:`EntityMention`.
"""

import json
import logging
import operator
import re
import time
from dataclasses import dataclass, replace
from urllib.parse import quote

from .corpus import (NormProfile, TokenSeq, check_json_values, read_records,
                     tokenize_normalize, write_lines)
from .errors import HttpError, InvalidParams, MalformedResponse

log = logging.getLogger(__name__)


@dataclass
class EntityMention:
    start: int  # token span [start, end) on the source side
    end: int
    surface: TokenSeq
    uri: str
    hypernym: TokenSeq | None = None


class Gazetteer:
    """Offline surface-form lookup: token sequence -> (uri, hypernym)."""

    def __init__(self, entries: dict[tuple[str, ...], tuple[str, TokenSeq | None]]):
        for key in entries:
            if not key:
                raise InvalidParams("gazetteer entries must have a non-empty surface")
        self.entries = dict(entries)
        self.max_len = max((len(k) for k in entries), default=0)
        self.starts = {k[0] for k in entries}  # a match can only begin at one of these

    @classmethod
    def from_tsv(cls, path, profile: NormProfile = NormProfile()) -> "Gazetteer":
        """Columns: surface form (space-separated tokens), uri, hypernym label
        (may be empty). Each surface is normalized with ``profile``, the
        profile of the corpus it is matched against; surfaces that normalize
        alike keep the last row."""

        def entry(surface, uri, label):
            key = tuple(tokenize_normalize(surface, profile))
            if not key:
                raise ValueError("empty surface form")
            return key, (uri, label.lower().split() or None)

        return cls(dict(read_records(path, entry, tsv=3)))


def annotate_gazetteer(sentence: TokenSeq, gazetteer: Gazetteer) -> list[EntityMention]:
    """Greedy longest-match left-to-right over token n-grams; matches never
    overlap."""
    mentions = []
    i = 0
    n = len(sentence)
    while i < n:
        matched = 0
        if sentence[i] not in gazetteer.starts:
            i += 1
            continue
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


def project_entity_span(
    mention: EntityMention,
    links: set[tuple[int, int]],
    tgt_len: int,
) -> tuple[int, int] | None:
    """Target interval covering everything linked to the mention, or None.

    None when nothing is linked, and also when the candidate interval
    contains a target token linked to a source token outside the mention
    (the interval would not be a clean translation of the entity).
    """
    hit = [j for i, j in links if mention.start <= i < mention.end]
    if not hit:
        return None
    lo, hi = min(hit), max(hit) + 1
    if lo < 0 or hi > tgt_len:
        return None
    for i, j in links:
        if lo <= j < hi and not (mention.start <= i < mention.end):
            return None
    return lo, hi


# ---------------------------------------------------------------------------
# remote annotator


def token_char_spans(sentence: TokenSeq) -> list[tuple[int, int]]:
    """Character [start, end) of each token in the single-space-joined text."""
    spans = []
    pos = 0
    for tok in sentence:
        spans.append((pos, pos + len(tok)))
        pos += len(tok) + 1
    return spans


def mentions_from_response(payload: dict, sentence: TokenSeq) -> list[EntityMention]:
    """Convert an annotate-API JSON payload into token-span mentions.

    A mention whose character boundaries do not coincide with token
    boundaries is dropped with a warning (spans must stay faithful to the
    linker, never expanded). Overlapping mentions keep the earlier, longer
    one. A missing resource list means no mentions. A resource whose
    ``@surfaceForm`` is not the joined text at its ``@offset`` raises
    MalformedResponse, as does one of the wrong types.
    """
    resources = payload.get("Resources") or []
    if not isinstance(resources, list):
        raise MalformedResponse("'Resources' is not a list")
    text = " ".join(sentence)
    spans = token_char_spans(sentence)
    start_of = {s: k for k, (s, _) in enumerate(spans)}
    end_of = {e: k for k, (_, e) in enumerate(spans)}
    found = []
    for res in resources:
        try:
            uri = res["@URI"]
            surface = res["@surfaceForm"]
            offset = res["@offset"]
            # @offset is bare decimal digits, as align._link reads an index
            if not (isinstance(uri, str) and isinstance(surface, str)
                    and isinstance(offset, str) and offset.isdecimal()):
                raise TypeError("@URI and @surfaceForm must be strings, @offset digits")
            offset = int(offset)
            if not text.startswith(surface, offset):
                raise ValueError("@surfaceForm is not the text at @offset")
        except (TypeError, KeyError, ValueError) as exc:
            raise MalformedResponse(f"bad resource record: {res!r}") from exc
        end_char = offset + len(surface)
        tok_start = start_of.get(offset)
        tok_end = end_of.get(end_char)
        if tok_start is None or tok_end is None:
            log.warning(
                "dropping mention %r at chars %d-%d: not aligned to token boundaries",
                surface, offset, end_char,
            )
            continue
        found.append(EntityMention(tok_start, tok_end + 1, sentence[tok_start:tok_end + 1], uri))
    found.sort(key=lambda m: (m.start, -(m.end - m.start)))
    kept: list[EntityMention] = []
    for m in found:
        if kept and m.start < kept[-1].end:
            log.warning("dropping mention %r: overlaps an earlier one", " ".join(m.surface))
            continue
        kept.append(m)
    return kept


_RETRIES = 3
_BACKOFF_S = 0.5
_TIMEOUT_S = 10.0


def _default_transport():
    # imported here: the HTTP stack is costly to load and only remote
    # annotation and lookup need it
    import requests

    session = requests.Session()

    def transport(url: str, params: dict | None):
        resp = session.get(
            url, params=params, headers={"Accept": "application/json"}, timeout=_TIMEOUT_S
        )
        return resp.status_code, resp.text

    return transport


def _get_json(transport, url: str, params: dict | None, service: str) -> dict:
    """One GET of ``url`` through ``transport``, its reply read as a JSON
    object. A failed connection (``OSError``) or an HTTP 5xx is retried
    ``_RETRIES`` times, the first after ``_BACKOFF_S`` seconds and each
    next after twice the last delay; any other status, or the last retry
    failing, raises HttpError naming ``service``, and a reply that is not
    a JSON object MalformedResponse."""
    delay = _BACKOFF_S
    for attempt in range(_RETRIES + 1):
        try:
            status, body = transport(url, params)
        except OSError as exc:
            last = f"request failed: {exc}"
        else:
            if status == 200:
                try:
                    data = json.loads(body)
                except ValueError as exc:
                    raise MalformedResponse(f"invalid JSON from {service}: {exc}") from exc
                if not isinstance(data, dict):
                    raise MalformedResponse(f"{service} response is not a JSON object")
                return data
            last = f"HTTP {status}"
            if status < 500:
                break  # a client error will not improve on retry
        if attempt < _RETRIES:
            time.sleep(delay)
            delay *= 2
    raise HttpError(f"{service} request failed: {last}")


class SpotlightClient:
    """Client for a Spotlight-style entity annotation endpoint.

    ``transport`` is a callable ``(url, params) -> (status_code, body_text)``
    so tests can replay recorded responses without a network; it signals a
    failed connection with an ``OSError`` (``requests.RequestException`` is
    one). The client caches nothing: each ``annotate`` of a non-empty
    sentence sends one request, so a caller with repeated text dedups it
    first, as :func:`annotate_corpus` does. Requests are retried as
    :func:`_get_json` says.
    """

    def __init__(self, endpoint: str, confidence: float = 0.5, *, transport=None):
        self.endpoint = endpoint.rstrip("/")
        self.confidence = confidence
        self._transport = transport or _default_transport()

    def annotate(self, sentence: TokenSeq) -> list[EntityMention]:
        text = " ".join(sentence)
        if not text:
            return []
        params = {"text": text, "confidence": str(self.confidence)}
        payload = _get_json(self._transport, self.endpoint, params, "annotator")
        return mentions_from_response(payload, sentence)


def annotate_corpus(client, sentences: list[TokenSeq], max_in_flight: int = 4):
    """Annotate many sentences, at most ``max_in_flight`` requests at a time.

    This is where repeated text is sent once: each distinct non-empty text
    goes to ``client.annotate`` once, in first-seen order. Every input gets
    its own copies of the mentions found for its text, in input order, so
    a later in-place change to one line's mentions leaves the others as
    they were.
    """
    from concurrent.futures import ThreadPoolExecutor  # here: only remote annotation uses it

    texts = [" ".join(s) for s in sentences]
    first: dict[str, TokenSeq] = {}
    for text, sentence in zip(texts, sentences):
        if text:
            first.setdefault(text, sentence)
    with ThreadPoolExecutor(max_workers=max_in_flight) as pool:
        found = dict(zip(first, pool.map(client.annotate, first.values())))
    return [[replace(m) for m in found.get(text, ())] for text in texts]


# ---------------------------------------------------------------------------
# hypernyms

GOLD_HYPERNYM = "http://purl.org/linguistics/gold/hypernym"
RDF_TYPE = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"
ONTOLOGY_PREFIX = "http://dbpedia.org/ontology/"
_GENERIC_LABELS = {"thing", "agent"}


class OfflineHypernyms:
    """uri -> hypernym label map, usually loaded from a two-column TSV."""

    def __init__(self, mapping: dict[str, str]):
        self.mapping = dict(mapping)

    @classmethod
    def from_tsv(cls, path) -> "OfflineHypernyms":
        return cls(dict(read_records(path, lambda uri, label: (uri, label), tsv=2)))

    def lookup(self, uri: str) -> str | None:
        return self.mapping.get(uri)


def _label_from_uri(uri: str) -> str:
    name = uri.rsplit("/", 1)[-1].replace("_", " ")
    return re.sub(r"(?<=[a-z0-9])(?=[A-Z])", " ", name).lower()


class RemoteHypernyms:
    """Hypernym lookup against the knowledge base's per-resource data.

    Prefers an explicit hypernym fact; otherwise falls back to the most
    specific ontology type, approximated as the label with the most words
    (longer, then lexicographically smaller, on ties).
    """

    def __init__(self, data_base: str = "https://dbpedia.org/data", *, transport=None):
        self.data_base = data_base.rstrip("/")
        self._transport = transport or _default_transport()

    def lookup(self, uri: str) -> str | None:
        # the name as one path segment of the data URL: "?", "#", spaces and
        # non-ASCII are escaped; what else RFC 3986 allows in a segment is
        # kept, and so is "%", so a name escaped already is not escaped twice
        name = quote(uri.rsplit("/", 1)[-1], safe="%!$&'()*+,;=:@")
        url = f"{self.data_base}/{name}.json"
        facts = _get_json(self._transport, url, None, "knowledge base").get(uri, {})
        try:
            gold = facts.get(GOLD_HYPERNYM)
            if gold:
                return _label_from_uri(str(gold[0].get("value", ""))) or None
            values = [str(fact.get("value", "")) for fact in facts.get(RDF_TYPE, [])]
        except (AttributeError, KeyError, TypeError) as exc:
            raise MalformedResponse(f"facts of {uri} are not lists of objects: {exc}") from exc
        labels = []
        for value in values:
            if value.startswith(ONTOLOGY_PREFIX):
                label = _label_from_uri(value)
                if label and label not in _GENERIC_LABELS:
                    labels.append(label)
        if not labels:
            return None
        return sorted(labels, key=lambda s: (-len(s.split()), -len(s), s))[0]


def resolve_hypernym(uri: str, resolver) -> TokenSeq | None:
    """Tokenized, lowercased hypernym for a knowledge-base uri; multi-word
    labels are kept whole (every word is returned)."""
    label = resolver.lookup(uri)
    if label is None:
        return None
    return label.lower().split() or None


def fill_hypernyms(mention_lists, resolver) -> int:
    """Look up the hypernym of every mention that has none, each distinct
    uri once per call; returns how many mentions were filled."""
    found: dict[str, TokenSeq | None] = {}
    filled = 0
    for mentions in mention_lists:
        for m in mentions:
            if m.hypernym is None:
                if m.uri not in found:
                    found[m.uri] = resolve_hypernym(m.uri, resolver)
                if found[m.uri] is not None:
                    m.hypernym = list(found[m.uri])
                    filled += 1
    return filled


# ---------------------------------------------------------------------------
# annotations file


def write_annotations(path, annotated: list[tuple[int, list[EntityMention]]]) -> None:
    write_lines(path, (json.dumps({"line_no": n, "mentions": [vars(m) for m in mentions]},
                                  ensure_ascii=False) for n, mentions in annotated))


def _mention(fields: dict) -> EntityMention:
    m = EntityMention(**fields)
    check_json_values(
        spans=([m.start, m.end],),
        tokens=(m.surface,) if m.hypernym is None else (m.surface, m.hypernym),
        text=(m.uri,),
    )
    return m


def read_annotations(path) -> dict[int, list[EntityMention]]:
    """Mentions by line_no; a repeated line_no keeps its last record."""
    return dict(read_records(path, lambda record: (
        operator.index(record["line_no"]), [_mention(m) for m in record["mentions"]]
    )))
