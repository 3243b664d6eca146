import json
import logging
import urllib.parse

import pytest
import requests

from conftest import load_spotlight_fixture
from tagcopy import link
from tagcopy.corpus import NormProfile, tokenize_normalize
from tagcopy.errors import HttpError, InvalidParams, MalformedFile, MalformedResponse
from tagcopy.link import (
    EntityMention,
    Gazetteer,
    OfflineHypernyms,
    RemoteHypernyms,
    SpotlightClient,
    annotate_corpus,
    annotate_gazetteer,
    fill_hypernyms,
    mentions_from_response,
    project_entity_span,
    read_annotations,
    resolve_hypernym,
    token_char_spans,
    write_annotations,
)


class TestGazetteer:
    def test_single_match(self):
        gaz = Gazetteer({("myanmar",): ("kb:M", ["state"])})
        mentions = annotate_gazetteer(["myanmar", "was"], gaz)
        assert len(mentions) == 1
        assert (mentions[0].start, mentions[0].end) == (0, 1)
        assert mentions[0].uri == "kb:M"
        assert mentions[0].hypernym == ["state"]

    def test_longest_match_wins(self):
        gaz = Gazetteer({
            ("new", "york"): ("kb:NY", ["city"]),
            ("new", "york", "times"): ("kb:NYT", ["newspaper"]),
        })
        mentions = annotate_gazetteer(["new", "york", "times"], gaz)
        assert len(mentions) == 1
        assert mentions[0].uri == "kb:NYT"
        assert (mentions[0].start, mentions[0].end) == (0, 3)

    def test_no_match(self):
        gaz = Gazetteer({("myanmar",): ("kb:M", ["state"])})
        assert annotate_gazetteer(["nothing", "here"], gaz) == []

    def test_matches_do_not_overlap_and_are_sorted(self):
        gaz = Gazetteer({("a", "b"): ("kb:AB", None), ("b", "c"): ("kb:BC", None)})
        mentions = annotate_gazetteer(["a", "b", "c", "b", "c"], gaz)
        assert [(m.start, m.end) for m in mentions] == [(0, 2), (3, 5)]

    def test_empty_key_rejected(self):
        with pytest.raises(InvalidParams):
            Gazetteer({(): ("kb:X", None)})

    def test_from_tsv(self, toy_gazetteer):
        assert toy_gazetteer.entries[("new", "york")][0] == "http://example.org/kb/New_York"
        assert toy_gazetteer.entries[("osaka",)][1] == ["port", "city"]
        assert toy_gazetteer.entries[("ruritania",)][1] is None

    def test_surfaces_are_normalized_like_the_corpus(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("New York\tkb:NY\tCity\nÉcole\tkb:E\t\nNEW  york\tkb:NY2\t\n",
                        encoding="utf-8")
        sentence = tokenize_normalize("I saw New York and the École")
        gaz = Gazetteer.from_tsv(path)
        # surfaces that normalize alike keep the last row; labels are only lowercased
        assert gaz.entries == {("new", "york"): ("kb:NY2", None), ("ecole",): ("kb:E", None)}
        assert [(m.start, m.uri) for m in annotate_gazetteer(sentence, gaz)] == [
            (2, "kb:NY2"), (6, "kb:E")]
        profile = NormProfile(lowercase=False)
        cased = Gazetteer.from_tsv(path, profile)
        assert cased.entries[("New", "York")] == ("kb:NY", ["city"])
        assert [(m.start, m.uri) for m in annotate_gazetteer(
            tokenize_normalize("I saw New York and the École", profile), cased)] == [
            (2, "kb:NY"), (6, "kb:E")]

    def test_surface_of_combining_marks_only_is_empty(self, tmp_path):
        path = tmp_path / "gaz.tsv"
        path.write_text("myanmar\tkb:M\tstate\n\u0301\tkb:X\tthing\n", encoding="utf-8")
        with pytest.raises(MalformedFile, match=":2: ValueError: empty surface form"):
            Gazetteer.from_tsv(path)


class TestProjection:
    def test_single_link(self):
        mention = EntityMention(0, 1, ["myanmar"], "kb:M")
        assert project_entity_span(mention, {(0, 2)}, 4) == (2, 3)

    def test_rejects_outside_alignment_inside_candidate(self):
        mention = EntityMention(0, 2, ["new", "york"], "kb:NY")
        links = {(0, 1), (1, 3), (5, 2)}
        assert project_entity_span(mention, links, 6) is None

    def test_no_links(self):
        mention = EntityMention(0, 1, ["myanmar"], "kb:M")
        assert project_entity_span(mention, set(), 4) is None

    def test_contains_all_linked_targets(self):
        mention = EntityMention(1, 3, ["a", "b"], "kb:X")
        links = {(1, 4), (2, 2), (0, 0)}
        assert project_entity_span(mention, links, 6) == (2, 5)

    def test_accepted_spans_are_clean(self):
        # accepted interval covers every linked target and nothing linked outside
        import random

        rng = random.Random(21)
        for _ in range(300):
            n, m = rng.randrange(1, 7), rng.randrange(1, 7)
            start = rng.randrange(n)
            end = rng.randrange(start + 1, n + 1)
            mention = EntityMention(start, end, ["w"] * (end - start), "kb:X")
            links = {
                (rng.randrange(n), rng.randrange(m))
                for _ in range(rng.randrange(0, 8))
            }
            span = project_entity_span(mention, links, m)
            if span is None:
                continue
            lo, hi = span
            inside_targets = {j for i, j in links if start <= i < end}
            assert inside_targets <= set(range(lo, hi))
            assert lo in inside_targets and hi - 1 in inside_targets
            assert not any(
                lo <= j < hi and not (start <= i < end) for i, j in links
            )


class TestSpanArithmetic:
    def test_token_char_spans(self):
        assert token_char_spans(["ab", "c", "def"]) == [(0, 2), (3, 4), (5, 8)]


class TestResponseParsing:
    def test_simple_mention(self):
        payload = load_spotlight_fixture("resp_simple.json")
        sentence = payload["@text"].split()
        mentions = mentions_from_response(payload, sentence)
        assert len(mentions) == 1
        assert (mentions[0].start, mentions[0].end) == (0, 1)
        assert mentions[0].uri == "http://dbpedia.org/resource/Myanmar"
        assert mentions[0].surface == ["myanmar"]

    def test_multiword_and_second_mention(self):
        payload = load_spotlight_fixture("resp_multi.json")
        sentence = payload["@text"].split()
        mentions = mentions_from_response(payload, sentence)
        assert [(m.start, m.end, m.uri) for m in mentions] == [
            (1, 4, "http://dbpedia.org/resource/The_New_York_Times"),
            (5, 6, "http://dbpedia.org/resource/The_Gambia"),
        ]

    def test_missing_resources_means_no_mentions(self):
        payload = load_spotlight_fixture("resp_empty.json")
        assert mentions_from_response(payload, payload["@text"].split()) == []

    def test_boundary_mismatch_dropped_with_warning(self, caplog):
        payload = load_spotlight_fixture("resp_boundary.json")
        sentence = payload["@text"].split()
        with caplog.at_level(logging.WARNING, logger="tagcopy.link"):
            mentions = mentions_from_response(payload, sentence)
        assert [(m.start, m.end, m.uri) for m in mentions] == [
            (3, 4, "http://dbpedia.org/resource/Danube"),
        ]
        assert any("token boundaries" in rec.message for rec in caplog.records)

    def test_overlap_keeps_earlier_longer_mention(self, caplog):
        payload = load_spotlight_fixture("resp_overlap.json")
        sentence = payload["@text"].split()
        with caplog.at_level(logging.WARNING, logger="tagcopy.link"):
            mentions = mentions_from_response(payload, sentence)
        assert [(m.start, m.end, m.uri) for m in mentions] == [
            (2, 4, "http://dbpedia.org/resource/Sierra_Leone"),
        ]

    def test_malformed_resource_record(self):
        with pytest.raises(MalformedResponse):
            mentions_from_response({"Resources": [{"@URI": "u"}]}, ["a"])
        with pytest.raises(MalformedResponse):
            mentions_from_response({"Resources": "nope"}, ["a"])
        # a numeric surface form, and a uri that read_annotations would refuse
        for res in ({"@URI": "u", "@surfaceForm": 7, "@offset": "0"},
                    {"@URI": ["u"], "@surfaceForm": "a", "@offset": "0"}):
            with pytest.raises(MalformedResponse):
                mentions_from_response({"Resources": [res]}, ["a"])
        # an offset that int() reads but that is not bare decimal digits:
        # each would otherwise be a mention of "b"
        for offset in (2.9, " 2 ", "+2", "2_0", True):
            res = {"@URI": "u", "@surfaceForm": "b", "@offset": offset}
            with pytest.raises(MalformedResponse):
                mentions_from_response({"Resources": [res]}, ["a", "b"])
        # a surface form that is not the text at its offset
        with pytest.raises(MalformedResponse):
            res = {"@URI": "u", "@surfaceForm": "zz", "@offset": "0"}
            mentions_from_response({"Resources": [res]}, ["ab", "cd"])
        assert mentions_from_response(
            {"Resources": [{"@URI": "u", "@surfaceForm": "b", "@offset": "2"}]}, ["a", "b"]
        )[0].surface == ["b"]


class FakeTransport:
    def __init__(self, replies):
        self.replies = list(replies)
        self.calls = []

    def __call__(self, url, params):
        self.calls.append((url, dict(params) if params else None))
        reply = self.replies.pop(0) if len(self.replies) > 1 else self.replies[0]
        if isinstance(reply, Exception):
            raise reply
        return reply


def _ok(payload) -> tuple[int, str]:
    return 200, json.dumps(payload)


class TestClient:
    def test_annotate_parses_and_caches(self):
        payload = load_spotlight_fixture("resp_simple.json")
        transport = FakeTransport([_ok(payload)])
        client = SpotlightClient("http://annotator/annotate", transport=transport)
        mentions = client.annotate(payload["@text"].split())
        assert [m.uri for m in mentions] == ["http://dbpedia.org/resource/Myanmar"]
        assert transport.calls[0][1]["confidence"] == "0.5"

    def test_retries_then_succeeds(self, monkeypatch):
        monkeypatch.setattr(link, "_RETRIES", 3)
        payload = load_spotlight_fixture("resp_simple.json")
        transport = FakeTransport([
            requests.ConnectionError("down"),
            (503, "busy"),
            _ok(payload),
        ])
        client = SpotlightClient("http://annotator/annotate", transport=transport)
        mentions = client.annotate(payload["@text"].split())
        assert len(mentions) == 1
        assert len(transport.calls) == 3

    def test_gives_up_after_bounded_retries(self, monkeypatch):
        monkeypatch.setattr(link, "_RETRIES", 2)
        transport = FakeTransport([requests.ConnectionError("down")])
        client = SpotlightClient("http://annotator/annotate", transport=transport)
        with pytest.raises(HttpError):
            client.annotate(["word"])
        assert len(transport.calls) == 3  # initial try + 2 retries

    def test_client_error_fails_fast(self):
        transport = FakeTransport([(400, "bad request")])
        client = SpotlightClient("http://annotator/annotate", transport=transport)
        with pytest.raises(HttpError):
            client.annotate(["word"])
        assert len(transport.calls) == 1

    def test_backoff_doubles_from_the_first_delay(self, monkeypatch):
        monkeypatch.setattr(link, "_BACKOFF_S", 0.5)
        delays = []
        monkeypatch.setattr(link.time, "sleep", delays.append)
        transport = FakeTransport([(503, "busy")])
        with pytest.raises(HttpError, match="annotator request failed: HTTP 503"):
            SpotlightClient("http://annotator/annotate", transport=transport).annotate(["w"])
        assert delays == [0.5, 1.0, 2.0]
        assert len(transport.calls) == 4  # initial try + _RETRIES

    def test_invalid_json_is_malformed(self):
        transport = FakeTransport([(200, "<html>not json</html>")])
        client = SpotlightClient("http://annotator/annotate", transport=transport)
        with pytest.raises(MalformedResponse):
            client.annotate(["word"])

    def test_empty_sentence_short_circuits(self):
        transport = FakeTransport([])
        client = SpotlightClient("http://annotator/annotate", transport=transport)
        assert client.annotate([]) == []
        assert transport.calls == []

    def test_corpus_annotation_preserves_order(self):
        def transport(url, params):
            text = params["text"]
            return _ok({
                "@text": text,
                "Resources": [
                    {"@URI": f"kb:{text.split()[0]}", "@surfaceForm": text.split()[0], "@offset": "0"}
                ],
            })

        client = SpotlightClient("http://annotator/annotate", transport=transport)
        sentences = [[f"w{i}", "tail"] for i in range(20)]
        results = annotate_corpus(client, sentences, max_in_flight=4)
        assert [m[0].uri for m in results] == [f"kb:w{i}" for i in range(20)]

    def test_corpus_annotation_sends_each_distinct_text_once(self):
        def transport(url, params):
            text = params["text"]
            return _ok({"@text": text, "Resources": [
                {"@URI": f"kb:{text.split()[0]}", "@surfaceForm": text.split()[0], "@offset": "0"}
            ]})

        client = SpotlightClient("http://annotator/annotate", transport=transport)
        calls = []
        annotate = client.annotate

        def counted(sentence):
            calls.append(sentence)
            return annotate(sentence)

        client.annotate = counted
        a, b, c = ["a", "x"], ["b", "x"], ["c", "x"]
        results = annotate_corpus(client, [a, a, b, c, c, a, []], max_in_flight=2)
        assert sorted(calls) == [a, b, c]
        assert [[m.uri for m in r] for r in results] == [
            ["kb:a"], ["kb:a"], ["kb:b"], ["kb:c"], ["kb:c"], ["kb:a"], []]
        assert len({id(r) for r in results}) == 7

    def test_repeated_lines_get_their_own_mentions(self):
        def transport(url, params):
            return _ok({"Resources": [{"@URI": "kb:m", "@surfaceForm": "m", "@offset": "0"}]})

        client = SpotlightClient("http://annotator/annotate", transport=transport)
        results = annotate_corpus(client, [["m", "a"], ["m", "a"], ["m", "b"]])
        assert fill_hypernyms(results, OfflineHypernyms({"kb:m": "letter"})) == 3
        assert len({id(m) for r in results for m in r}) == 3
        assert [[m.hypernym for m in r] for r in results] == [[["letter"]]] * 3


class TestHypernyms:
    def test_offline_lookup(self):
        resolver = OfflineHypernyms({"kb:M": "state"})
        assert resolve_hypernym("kb:M", resolver) == ["state"]

    def test_absent_uri(self):
        resolver = OfflineHypernyms({})
        assert resolve_hypernym("kb:Q", resolver) is None

    def test_multiword_label_kept_whole(self):
        resolver = OfflineHypernyms({"kb:M": "Sovereign State"})
        assert resolve_hypernym("kb:M", resolver) == ["sovereign", "state"]

    def test_from_tsv(self, toy_dir):
        resolver = OfflineHypernyms.from_tsv(toy_dir / "hypernyms.tsv")
        assert resolve_hypernym("http://example.org/kb/Osaka", resolver) == ["port", "city"]

    def test_fill_looks_up_each_uri_once(self):
        class Counting(OfflineHypernyms):
            lookups = 0

            def lookup(self, uri):
                self.lookups += 1
                return super().lookup(uri)

        resolver = Counting({"kb:M": "state"})
        mentions = [[EntityMention(0, 1, ["m"], "kb:M")] for _ in range(3)]
        mentions.append([EntityMention(0, 1, ["x"], "kb:X"), EntityMention(1, 2, ["x"], "kb:X")])
        assert fill_hypernyms(mentions, resolver) == 3
        assert resolver.lookups == 2
        filled = [m.hypernym for ms in mentions[:3] for m in ms]
        assert filled == [["state"]] * 3
        assert len({id(h) for h in filled}) == 3
        assert [m.hypernym for m in mentions[3]] == [None, None]

    def test_remote_prefers_gold_fact(self):
        uri = "http://dbpedia.org/resource/Myanmar"
        body = {
            uri: {
                "http://purl.org/linguistics/gold/hypernym": [
                    {"type": "uri", "value": "http://dbpedia.org/resource/State"}
                ],
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type": [
                    {"type": "uri", "value": "http://dbpedia.org/ontology/Country"}
                ],
            }
        }
        resolver = RemoteHypernyms(transport=FakeTransport([_ok(body)]))
        assert resolve_hypernym(uri, resolver) == ["state"]

    def test_remote_falls_back_to_most_specific_type(self):
        uri = "http://dbpedia.org/resource/Osaka"
        body = {
            uri: {
                "http://www.w3.org/1999/02/22-rdf-syntax-ns#type": [
                    {"type": "uri", "value": "http://dbpedia.org/ontology/Place"},
                    {"type": "uri", "value": "http://dbpedia.org/ontology/PopulatedPlace"},
                    {"type": "uri", "value": "http://www.w3.org/2002/07/owl#Thing"},
                ],
            }
        }
        resolver = RemoteHypernyms(transport=FakeTransport([_ok(body)]))
        assert resolve_hypernym(uri, resolver) == ["populated", "place"]

    @pytest.mark.parametrize("facts", [
        ["not", "an", "object"],
        {"http://purl.org/linguistics/gold/hypernym": "http://dbpedia.org/resource/State"},
        {"http://purl.org/linguistics/gold/hypernym": ["http://dbpedia.org/resource/State"]},
        {"http://purl.org/linguistics/gold/hypernym": {"value": "State"}},
        {"http://www.w3.org/1999/02/22-rdf-syntax-ns#type": "http://dbpedia.org/ontology/Place"},
        {"http://www.w3.org/1999/02/22-rdf-syntax-ns#type": ["http://dbpedia.org/ontology/P"]},
        {"http://www.w3.org/1999/02/22-rdf-syntax-ns#type": {"value": "Place"}},
    ], ids=["uri-list", "gold-str", "gold-strs", "gold-object", "type-str", "type-strs",
            "type-object"])
    def test_remote_facts_of_the_wrong_shape(self, facts):
        uri = "http://dbpedia.org/resource/X"
        resolver = RemoteHypernyms(transport=FakeTransport([_ok({uri: facts})]))
        with pytest.raises(MalformedResponse, match="not lists of objects"):
            resolver.lookup(uri)

    def test_remote_http_error(self):
        resolver = RemoteHypernyms(transport=FakeTransport([(500, "boom")]))
        with pytest.raises(HttpError, match="knowledge base request failed: HTTP 500"):
            resolver.lookup("http://dbpedia.org/resource/X")

    @pytest.mark.parametrize("failure", [(503, "busy"), requests.ConnectionError("down")],
                             ids=["503", "oserror"])
    def test_remote_lookup_retries_as_the_annotator_does(self, failure):
        uri = "http://dbpedia.org/resource/Myanmar"
        state = {"type": "uri", "value": "http://dbpedia.org/resource/State"}
        transport = FakeTransport([failure, _ok({uri: {link.GOLD_HYPERNYM: [state]}})])
        assert RemoteHypernyms(transport=transport).lookup(uri) == "state"
        assert [url for url, _ in transport.calls] == ["https://dbpedia.org/data/Myanmar.json"] * 2

    @pytest.mark.parametrize("name, fetched", [
        ("Barack_Obama", "Barack_Obama"),
        ("Python_(programming_language)", "Python_(programming_language)"),
        ("Who?", "Who%3F"),
        ("C#", "C%23"),
        ("Caf%C3%A9", "Caf%C3%A9"),
        ("Café", "Caf%C3%A9"),
    ])
    def test_remote_lookup_escapes_the_resource_name(self, name, fetched):
        # "?" and "#" would end the path of the data URL; an escape already
        # in the name is sent as it is
        uri = f"http://dbpedia.org/resource/{name}"
        transport = FakeTransport([_ok({})])
        assert RemoteHypernyms(transport=transport).lookup(uri) is None
        [(url, _)] = transport.calls
        assert url == f"https://dbpedia.org/data/{fetched}.json"
        parts = urllib.parse.urlsplit(url)
        assert (parts.path, parts.query, parts.fragment) == (f"/data/{fetched}.json", "", "")

    @pytest.mark.parametrize("body", ["[]", '"text"', "null"])
    def test_remote_reply_not_an_object_is_malformed(self, body):
        resolver = RemoteHypernyms(transport=FakeTransport([(200, body)]))
        with pytest.raises(MalformedResponse, match="knowledge base response is not a JSON"):
            resolver.lookup("http://dbpedia.org/resource/X")


class TestAnnotationsFile:
    def test_round_trip(self, tmp_path):
        mentions = [
            EntityMention(0, 1, ["myanmar"], "kb:M", ["state"]),
            EntityMention(3, 5, ["new", "york"], "kb:NY", None),
        ]
        write_annotations(tmp_path / "ann.jsonl", [(0, mentions), (4, [])])
        loaded = read_annotations(tmp_path / "ann.jsonl")
        assert set(loaded) == {0, 4}
        assert loaded[0] == mentions
        assert loaded[4] == []
