import hashlib
import inspect
import json
import logging
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
import yaml

from tagcopy import align, cli, lexicon, link, template
from tagcopy.config import (
    SECTION_KEYS,
    TOP_KEYS,
    AlignerParams,
    LinkerParams,
    PipelineConfig,
    load_config,
)
from tagcopy.corpus import read_parallel
from tagcopy.errors import ConfigError, InvalidParams
from tagcopy.link import EntityMention, read_annotations, write_annotations
from tagcopy.template import read_manifest


def write_config(path, toy_dir, workdir, **overrides):
    cfg = {
        "src": str(toy_dir / "src.en"),
        "tgt": str(toy_dir / "tgt.zz"),
        "workdir": str(workdir),
        "seed": 13,
        "aligner": {"iterations": 5, "tension": 4.0, "p0": 0.08},
        "linker": {
            "mode": "gazetteer",
            "gazetteer": str(toy_dir / "gazetteer.tsv"),
            "hypernyms": str(toy_dir / "hypernyms.tsv"),
        },
        "tagging": {
            "methods": ["baseline", "tag", "add", "trans", "transa", "transr", "hypa"],
            "vocab": "special",
        },
    }
    cfg.update(overrides)
    path.write_text(yaml.safe_dump(cfg), encoding="utf-8")
    return path


@pytest.fixture(autouse=True)
def no_child_left():
    """No command leaves a child process behind, reaped or not."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def prepared(tmp_path, toy_dir):
    """Annotations, alignments, and table files for tag-apply style commands."""
    ann = tmp_path / "annotations.jsonl"
    assert cli.main([
        "link-annotate", "--src", str(toy_dir / "src.en"),
        "--mode", "gazetteer", "--gazetteer", str(toy_dir / "gazetteer.tsv"),
        "--out", str(ann),
    ]) == 0
    table = tmp_path / "table.tsv"
    assert cli.main([
        "lexicon-build", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
        "--alignments", str(toy_dir / "gold.align"), "--out", str(table),
    ]) == 0
    return {"annotations": ann, "alignments": toy_dir / "gold.align", "table": table}


def add_link(alignments, out, line, link):
    """Copy a Pharaoh file, adding ``link`` to its 0-based row ``line``."""
    rows = alignments.read_text(encoding="utf-8").splitlines()
    rows[line] += f" {link}"
    out.write_text("".join(row + "\n" for row in rows), encoding="utf-8")
    return out


# links past the target and past the source side of the toy's 6x6 first pair
OUTSIDE = ["0-9", "9-0"]


def drop_two_pairs(toy_dir, tmp_path, link):
    """The toy target with its first two lines emptied, so read_parallel
    drops those pairs, and the gold alignments of the pairs it keeps with
    ``link`` added to line 1, the pair of source line 2 (0-based)."""
    tgt = tmp_path / "dropped.zz"
    lines = (toy_dir / "tgt.zz").read_text(encoding="utf-8").splitlines()
    tgt.write_text("".join(line + "\n" for line in ["", ""] + lines[2:]), encoding="utf-8")
    kept = tmp_path / "kept.align"
    rows = (toy_dir / "gold.align").read_text(encoding="utf-8").splitlines()
    kept.write_text("".join(row + "\n" for row in rows[2:]), encoding="utf-8")
    return tgt, add_link(kept, tmp_path / "bad.align", 0, link)


class TestSplit:
    def test_writes_three_splits(self, tmp_path, toy_dir):
        outdir = tmp_path / "splits"
        rc = cli.main([
            "split", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
            "--n-valid", "5", "--n-test", "5", "--seed", "3", "--outdir", str(outdir),
        ])
        assert rc == 0
        counts = {
            name: len((outdir / f"{name}.src").read_text(encoding="utf-8").splitlines())
            for name in ("train", "valid", "test")
        }
        assert counts == {"train": 190, "valid": 5, "test": 5}

    def test_same_seed_same_bytes(self, tmp_path, toy_dir):
        outs = []
        for name in ("one", "two"):
            outdir = tmp_path / name
            cli.main([
                "split", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
                "--n-valid", "5", "--n-test", "5", "--seed", "3", "--outdir", str(outdir),
            ])
            outs.append((outdir / "valid.src").read_bytes())
        assert outs[0] == outs[1]


class TestAlignChain:
    def test_train_apply_symmetrize_lexicon(self, tmp_path, toy_dir):
        src, tgt = str(toy_dir / "src.en"), str(toy_dir / "tgt.zz")
        fwd_model = tmp_path / "fwd.model"
        rev_model = tmp_path / "rev.model"
        assert cli.main(["align-train", "--src", src, "--tgt", tgt,
                         "--model-out", str(fwd_model)]) == 0
        assert cli.main(["align-train", "--src", src, "--tgt", tgt, "--direction", "rev",
                         "--model-out", str(rev_model)]) == 0
        fwd = tmp_path / "fwd.align"
        rev = tmp_path / "rev.align"
        assert cli.main(["align-apply", "--model", str(fwd_model), "--src", src,
                         "--tgt", tgt, "--out", str(fwd)]) == 0
        assert cli.main(["align-apply", "--model", str(rev_model), "--src", src,
                         "--tgt", tgt, "--out", str(rev)]) == 0
        sym = tmp_path / "sym.align"
        assert cli.main(["symmetrize", "--fwd", str(fwd), "--rev", str(rev),
                         "--out", str(sym)]) == 0
        table = tmp_path / "table.tsv"
        assert cli.main(["lexicon-build", "--src", src, "--tgt", tgt,
                         "--alignments", str(sym), "--out", str(table)]) == 0
        rows = dict(
            line.split("\t")[:2]
            for line in (table).read_text(encoding="utf-8").splitlines()
        )
        assert rows["myanmar"] == "ramnaym"
        assert rows["state"] == "etats"

    def test_vb_training_smoke(self, tmp_path, toy_dir):
        model_path = tmp_path / "vb.model"
        rc = cli.main([
            "align-train", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
            "--vb", "--iterations", "3", "--model-out", str(model_path),
        ])
        assert rc == 0
        assert model_path.exists()

    def test_non_finite_tension_exits_2_without_a_model(self, tmp_path, toy_dir, capsys):
        model_path = tmp_path / "m.tsv"
        assert cli.main(["align-train", "--src", str(toy_dir / "src.en"),
                         "--tgt", str(toy_dir / "tgt.zz"), "--tension", "nan",
                         "--model-out", str(model_path)]) == 2
        assert "tension" in capsys.readouterr().err
        assert not model_path.exists()

    def test_align_train_writes_the_pruned_model(self, tmp_path, toy_dir, toy_corpus):
        model_path = tmp_path / "m.tsv"
        assert cli.main(["align-train", "--src", str(toy_dir / "src.en"),
                         "--tgt", str(toy_dir / "tgt.zz"), "--model-out", str(model_path)]) == 0
        trained = align.train_alignment(toy_corpus)
        assert align.load_model(model_path).theta == align.prune_model(trained).theta
        assert align.load_model(model_path).theta != trained.theta

    @pytest.mark.parametrize("link", OUTSIDE)
    def test_lexicon_build_names_the_alignments(self, tmp_path, toy_dir, capsys, link):
        bad = add_link(toy_dir / "gold.align", tmp_path / "bad.align", 0, link)
        assert cli.main(["lexicon-build", "--src", str(toy_dir / "src.en"),
                         "--tgt", str(toy_dir / "tgt.zz"), "--alignments", str(bad),
                         "--out", str(tmp_path / "table.tsv")]) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 1: link {link} out of bounds for 6x6 tokens" in err
        assert not (tmp_path / "table.tsv").exists()

    def test_lexicon_build_names_the_alignments_line_past_dropped_pairs(self, tmp_path, toy_dir,
                                                                         capsys):
        tgt, bad = drop_two_pairs(toy_dir, tmp_path, "0-99")
        assert cli.main(["lexicon-build", "--src", str(toy_dir / "src.en"), "--tgt", str(tgt),
                         "--alignments", str(bad), "--out", str(tmp_path / "table.tsv")]) == 2
        assert f"{bad}: line 1: link 0-99 out of bounds" in capsys.readouterr().err

    def test_symmetrize_row_count_mismatch(self, tmp_path):
        (tmp_path / "f").write_text("0-0\n", encoding="utf-8")
        (tmp_path / "r").write_text("0-0\n1-1\n", encoding="utf-8")
        rc = cli.main(["symmetrize", "--fwd", str(tmp_path / "f"),
                       "--rev", str(tmp_path / "r"), "--out", str(tmp_path / "s")])
        assert rc == 2

    def test_symmetrize_malformed_alignment(self, tmp_path, capsys):
        (tmp_path / "f").write_text("0-0\n0-x 1-1\n", encoding="utf-8")
        (tmp_path / "r").write_text("0-0\n1-1\n", encoding="utf-8")
        rc = cli.main(["symmetrize", "--fwd", str(tmp_path / "f"),
                       "--rev", str(tmp_path / "r"), "--out", str(tmp_path / "s")])
        assert rc == 2
        assert f"{tmp_path / 'f'}:2: bad link '0-x'" in capsys.readouterr().err


class TestMalformedFiles:
    # good lines, then one of the wrong shape, and that line's number
    BAD = {
        "table": ("a\tb\t1\t0.5\nc\td\t1\n", 2),
        "manifest": ('{"line_no": 0, "method": "tag", "tag_vocab": {"start": "<s>", "mid1": "<m>", '
                     '"mid2": "<n>", "end": "<e>"}, "bundles": []}\n{"line_no": 1}\n', 2),
        "annotations": ('{"line_no": 0, "mentions": []}\n{"line_no": 1, "mentions": 7}\n', 2),
        "model": ("tension\t4.0\np0\t0.08\na\tb\t0.5\textra\n", 3),
        # well-formed JSON, but a translation that is not a token list
        "manifest_value": ('\n{"line_no": 0, "method": "hypa", "tag_vocab": {"start": "<s>", '
                           '"mid1": "<m>", "mid2": "<n>", "end": "<e>"}, "bundles": [{'
                           '"src_span": [0, 1], "tgt_span": [0, 1], "entity": ["a"], '
                           '"translation": 5, "hypernym": ["h"], "hypernym_tgt": ["h"]}]}\n', 2),
        "subset": ('{"line_no": 0}\n{"line_no": "1"}\n', 2),
    }

    @pytest.mark.parametrize("kind", BAD)
    def test_exits_2_naming_path_and_line(self, tmp_path, toy_dir, capsys, kind):
        text, line = self.BAD[kind]
        bad = tmp_path / kind
        bad.write_text(text, encoding="utf-8")
        out = str(tmp_path / "out")
        argv = {
            "table": ["detag", "--in", str(toy_dir / "tgt.zz"), "--method", "tag",
                      "--table", str(bad), "--out", out],
            "manifest": ["eval-copy", "--outputs", str(toy_dir / "tgt.zz"), "--manifest", str(bad)],
            "manifest_value": ["eval-copy", "--outputs", str(toy_dir / "tgt.zz"),
                               "--manifest", str(bad)],
            "subset": ["eval-bleu", "--hyp", str(toy_dir / "tgt.zz"), "--ref",
                       str(toy_dir / "tgt.zz"), "--subset", "tag-only", "--manifest", str(bad)],
            "annotations": ["link-hypernyms", "--annotations", str(bad),
                            "--hypernyms", str(toy_dir / "hypernyms.tsv"), "--out", out],
            "model": ["align-apply", "--model", str(bad), "--src", str(toy_dir / "src.en"),
                      "--tgt", str(toy_dir / "tgt.zz"), "--out", out],
        }[kind]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{bad}:{line}: " in err
        assert "Traceback" not in err


class TestLinkCommands:
    def test_annotate_gazetteer(self, prepared):
        by_line = read_annotations(prepared["annotations"])
        lines_with_mentions = [ln for ln, ms in by_line.items() if ms]
        assert len(lines_with_mentions) == 53  # 50 eligible + 3 without hypernym
        assert all(
            m.uri.startswith("http://example.org/kb/")
            for ms in by_line.values() for m in ms
        )

    def test_annotate_requires_gazetteer(self, tmp_path, toy_dir, capsys):
        rc = cli.main([
            "link-annotate", "--src", str(toy_dir / "src.en"),
            "--mode", "gazetteer", "--out", str(tmp_path / "a.jsonl"),
        ])
        assert rc == 2
        assert "--gazetteer" in capsys.readouterr().err

    def test_remote_requires_endpoint(self, tmp_path, toy_dir, capsys, monkeypatch):
        monkeypatch.delenv("LINKER_ENDPOINT", raising=False)
        rc = cli.main([
            "link-annotate", "--src", str(toy_dir / "src.en"),
            "--mode", "remote", "--out", str(tmp_path / "a.jsonl"),
        ])
        assert rc == 2
        assert "--endpoint" in capsys.readouterr().err

    def test_fill_hypernyms_offline(self, tmp_path, toy_dir):
        bare = tmp_path / "bare.jsonl"
        write_annotations(bare, [
            (0, [EntityMention(0, 1, ["myanmar"], "http://example.org/kb/Myanmar", None)]),
            (1, [EntityMention(0, 1, ["who"], "http://example.org/kb/Unknown", None)]),
        ])
        out = tmp_path / "filled.jsonl"
        rc = cli.main([
            "link-hypernyms", "--annotations", str(bare),
            "--hypernyms", str(toy_dir / "hypernyms.tsv"), "--out", str(out),
        ])
        assert rc == 0
        filled = read_annotations(out)
        assert filled[0][0].hypernym == ["state"]
        assert filled[1][0].hypernym is None


class TestTagApply:
    def _tag(self, tmp_path, toy_dir, prepared, method, vocab="special"):
        out_src = tmp_path / f"{method}.src"
        out_tgt = tmp_path / f"{method}.tgt"
        manifest = tmp_path / f"{method}.manifest.jsonl"
        rc = cli.main([
            "tag-apply", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
            "--annotations", str(prepared["annotations"]),
            "--alignments", str(prepared["alignments"]),
            "--table", str(prepared["table"]), "--method", method, "--vocab", vocab,
            "--out-src", str(out_src), "--out-tgt", str(out_tgt),
            "--manifest", str(manifest),
        ])
        return rc, out_src, out_tgt, manifest

    def test_baseline_output_is_byte_identical(self, tmp_path, toy_dir, prepared):
        rc, out_src, out_tgt, manifest = self._tag(tmp_path, toy_dir, prepared, "baseline")
        assert rc == 0
        assert out_src.read_bytes() == (toy_dir / "src.en").read_bytes()
        assert out_tgt.read_bytes() == (toy_dir / "tgt.zz").read_bytes()
        assert len(read_manifest(manifest)) == 50

    def test_missing_table_is_config_error(self, tmp_path, toy_dir, prepared, capsys):
        rc = cli.main([
            "tag-apply", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
            "--annotations", str(prepared["annotations"]),
            "--alignments", str(prepared["alignments"]),
            "--method", "trans",
            "--out-src", str(tmp_path / "o.src"), "--out-tgt", str(tmp_path / "o.tgt"),
            "--manifest", str(tmp_path / "m.jsonl"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert "--table" in err and "trans" in err

    def test_unknown_method(self, tmp_path, toy_dir, prepared, capsys):
        rc = cli.main([
            "tag-apply", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
            "--annotations", str(prepared["annotations"]),
            "--alignments", str(prepared["alignments"]),
            "--table", str(prepared["table"]), "--method", "fancy",
            "--out-src", str(tmp_path / "o.src"), "--out-tgt", str(tmp_path / "o.tgt"),
            "--manifest", str(tmp_path / "m.jsonl"),
        ])
        assert rc == 2
        assert "fancy" in capsys.readouterr().err

    def test_detag_restores_target(self, tmp_path, toy_dir, prepared):
        rc, _, out_tgt, _ = self._tag(tmp_path, toy_dir, prepared, "transa")
        assert rc == 0
        detagged = tmp_path / "detagged.tgt"
        rc = cli.main([
            "detag", "--in", str(out_tgt), "--method", "transa",
            "--table", str(prepared["table"]), "--out", str(detagged),
        ])
        assert rc == 0
        assert detagged.read_bytes() == (toy_dir / "tgt.zz").read_bytes()

    def test_detag_table_only_where_read(self, tmp_path, toy_dir, prepared, capsys):
        # trans keeps the translation segment; tag translates the entity
        # through the table, so only tag needs --table
        _, _, out_tgt, _ = self._tag(tmp_path, toy_dir, prepared, "trans")
        detagged = tmp_path / "detagged.tgt"
        argv = ["detag", "--in", str(out_tgt), "--out", str(detagged), "--method"]
        assert cli.main([*argv, "trans"]) == 0
        assert detagged.read_bytes() == (toy_dir / "tgt.zz").read_bytes()
        assert cli.main([*argv, "tag"]) == 2
        assert "--table" in capsys.readouterr().err

    def test_tag_fraction_printed(self, tmp_path, toy_dir, prepared, capsys):
        rc, *_ = self._tag(tmp_path, toy_dir, prepared, "tag")
        assert rc == 0
        assert "tagged 50/200 pairs (fraction 0.2500)" in capsys.readouterr().out


    @pytest.mark.parametrize("link", OUTSIDE)
    def test_refuses_a_link_outside_its_pair(self, tmp_path, toy_dir, prepared, capsys, link):
        bad = add_link(prepared["alignments"], tmp_path / "bad.align", 0, link)
        rc, out_src, *_ = self._tag(tmp_path, toy_dir, {**prepared, "alignments": bad}, "tag")
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{bad}: line 1: link {link} out of bounds for 6x6 tokens" in err
        assert "Traceback" not in err
        assert not out_src.exists()

    def test_names_the_alignments_line_past_dropped_pairs(self, tmp_path, toy_dir, prepared,
                                                          capsys):
        tgt, bad = drop_two_pairs(toy_dir, tmp_path, "0-99")
        rc = cli.main([
            "tag-apply", "--src", str(toy_dir / "src.en"), "--tgt", str(tgt),
            "--annotations", str(prepared["annotations"]), "--alignments", str(bad),
            "--table", str(prepared["table"]), "--method", "tag",
            "--out-src", str(tmp_path / "o.src"), "--out-tgt", str(tmp_path / "o.tgt"),
            "--manifest", str(tmp_path / "o.jsonl"),
        ])
        assert rc == 2
        assert f"{bad}: line 1: link 0-99 out of bounds" in capsys.readouterr().err
        assert not (tmp_path / "o.src").exists()

    def test_refuses_a_reserved_tag_token(self, tmp_path, toy_dir, prepared, capsys):
        src, tgt, ann = tmp_path / "in.en", tmp_path / "in.zz", tmp_path / "in.jsonl"
        lines = ["the river crossed .", "see <special2> myanmar <special5> ."]
        src.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        tgt.write_text("".join(line[::-1] + "\n" for line in lines), encoding="utf-8")
        align_file = tmp_path / "in.align"
        align_file.write_text("0-3 1-2 2-1 3-0\n0-4 1-3 2-2 3-1 4-0\n", encoding="utf-8")
        assert cli.main([
            "link-annotate", "--src", str(src), "--gazetteer", str(toy_dir / "gazetteer.tsv"),
            "--out", str(ann),
        ]) == 0
        argv = [
            "tag-apply", "--src", str(src), "--tgt", str(tgt), "--annotations", str(ann),
            "--alignments", str(align_file), "--table", str(prepared["table"]),
            "--method", "tag", "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"), "--manifest", str(tmp_path / "o.jsonl"),
        ]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert f"{src}:2: holds '<special2>'" in err
        assert "--vocab or tagging.vocab" in err
        assert cli.main([*argv, "--vocab", "plain"]) == 0


    MENTION = {"uri": "kb:X", "hypernym": ["thing"]}
    UNFIT = {
        "overlap": [(0, [(0, 2, ["the", "king"]), (1, 3, ["king", "praised"])])],
        # the surface equals the clipped slice src[4:7]; only the end is wrong
        "end_past_line": [(0, [(4, 7, ["border", "."])])],
        "surface": [(1, [(1, 2, ["queen"])])],
        "far_span": [(0, [(0, 50, ["zzz"])])],
        "line_past_corpus": [(0, []), (7, [])],
    }

    @pytest.mark.parametrize("case", UNFIT)
    def test_refuses_annotations_that_do_not_fit(self, tmp_path, toy_dir, prepared, capsys, case):
        src, tgt = tmp_path / "in.en", tmp_path / "in.zz"
        align_file, ann = tmp_path / "in.align", tmp_path / "in.jsonl"
        for path, fixture in ((src, "src.en"), (tgt, "tgt.zz"), (align_file, "gold.align")):
            lines = (toy_dir / fixture).read_text(encoding="utf-8").splitlines(keepends=True)
            path.write_text("".join(lines[:2]), encoding="utf-8")
        rows = [
            {"line_no": line_no, "mentions": [
                {"start": a, "end": b, "surface": surface, **self.MENTION}
                for a, b, surface in mentions
            ]}
            for line_no, mentions in self.UNFIT[case]
        ]
        ann.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        rc = cli.main([
            "tag-apply", "--src", str(src), "--tgt", str(tgt), "--annotations", str(ann),
            "--alignments", str(align_file), "--table", str(prepared["table"]),
            "--method", "trans", "--vocab", "plain", "--out-src", str(tmp_path / "o.src"),
            "--out-tgt", str(tmp_path / "o.tgt"), "--manifest", str(tmp_path / "o.jsonl"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{ann}: line_no {rows[-1]['line_no']}" in err
        assert "Traceback" not in err
        assert not (tmp_path / "o.src").exists()


class TestEvalCommands:
    def test_bleu_identity(self, toy_dir, capsys):
        rc = cli.main([
            "eval-bleu", "--hyp", str(toy_dir / "tgt.zz"), "--ref", str(toy_dir / "tgt.zz"),
        ])
        assert rc == 0
        assert "BLEU = 100.00" in capsys.readouterr().out

    def test_missing_file_exits_with_diagnostic(self, tmp_path, capsys):
        rc = cli.main([
            "eval-bleu", "--hyp", str(tmp_path / "nope.hyp"), "--ref", str(tmp_path / "nope.ref"),
        ])
        assert rc == 2
        assert "nope.hyp" in capsys.readouterr().err
        # files that are not line-parallel are named too
        hyp, ref, manifest = tmp_path / "two.hyp", tmp_path / "one.ref", tmp_path / "m.jsonl"
        hyp.write_text("a b\nc\n", encoding="utf-8")
        ref.write_text("a b\n", encoding="utf-8")
        assert cli.main(["eval-bleu", "--hyp", str(hyp), "--ref", str(ref)]) == 2
        assert f"{hyp} has 2 lines but {ref} has 1" in capsys.readouterr().err
        manifest.write_text(json.dumps({
            "line_no": 5, "method": "tag", "bundles": [],
            "tag_vocab": {"start": "<s>", "mid1": "<m>", "mid2": "<n>", "end": "<e>"},
        }) + "\n", encoding="utf-8")
        assert cli.main(["eval-copy", "--outputs", str(hyp), "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: line_no 5 outside the 2 output lines" in err
        assert "Traceback" not in err

    def test_bleu_tag_only_needs_manifest(self, tmp_path, toy_dir, capsys):
        argv = ["eval-bleu", "--hyp", str(toy_dir / "tgt.zz"), "--ref", str(toy_dir / "tgt.zz"),
                "--subset", "tag-only"]
        assert cli.main(argv) == 2
        assert "--manifest" in capsys.readouterr().err
        # ... that fits the hypotheses
        manifest = tmp_path / "m.jsonl"
        manifest.write_text('{"line_no": 3}\n{"line_no": 200}\n', encoding="utf-8")
        assert cli.main([*argv, "--manifest", str(manifest)]) == 2
        err = capsys.readouterr().err
        assert f"{manifest}: subset line 200 outside the 200 hypothesis lines" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("max_n", ["0", "-1"])
    def test_bleu_max_n_below_one_exits_2(self, toy_dir, capsys, max_n):
        rc = cli.main([
            "eval-bleu", "--hyp", str(toy_dir / "tgt.zz"), "--ref", str(toy_dir / "tgt.zz"),
            "--max-n", max_n,
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"max_n must be >= 1, got {max_n}" in err
        assert "Traceback" not in err

    def test_bleu_tag_only_subset(self, tmp_path, toy_dir, prepared, capsys):
        tagger = TestTagApply()
        _, _, _, manifest = tagger._tag(tmp_path, toy_dir, prepared, "tag")
        rc = cli.main([
            "eval-bleu", "--hyp", str(toy_dir / "tgt.zz"), "--ref", str(toy_dir / "tgt.zz"),
            "--subset", "tag-only", "--manifest", str(manifest),
            "--tsv", str(tmp_path / "bleu.tsv"),
        ])
        assert rc == 0
        assert "BLEU = 100.00" in capsys.readouterr().out
        header = (tmp_path / "bleu.tsv").read_text(encoding="utf-8").splitlines()[0]
        assert header.startswith("score\tp1")

    def test_bleu_signature(self, tmp_path, toy_dir, prepared, capsys):
        tagger = TestTagApply()
        _, _, _, manifest = tagger._tag(tmp_path, toy_dir, prepared, "tag")
        capsys.readouterr()
        hyp, ref = str(toy_dir / "tgt.zz"), str(toy_dir / "tgt.zz")
        assert cli.main(["eval-bleu", "--hyp", hyp, "--ref", ref, "--max-n", "3"]) == 0
        assert cli.main(["eval-bleu", "--hyp", hyp, "--ref", ref, "--subset", "tag-only",
                         "--manifest", str(manifest)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].startswith("BLEU = 100.00")
        assert lines[1] == "BLEU signature: nrefs:1|max_n:3|tok:as-given|smooth:none|subset:all"
        assert lines[2].startswith("BLEU = 100.00")
        assert lines[3] == (
            "BLEU signature: nrefs:1|max_n:4|tok:as-given|smooth:none|subset:tag-only(50 lines)"
        )

    def test_eval_copy_perfect_run(self, tmp_path, toy_dir, prepared, capsys):
        tagger = TestTagApply()
        _, _, out_tgt, manifest = tagger._tag(tmp_path, toy_dir, prepared, "transa")
        rc = cli.main([
            "eval-copy", "--outputs", str(out_tgt), "--manifest", str(manifest),
            "--tsv", str(tmp_path / "copy.tsv"),
        ])
        assert rc == 0
        out = capsys.readouterr().out
        assert "100.00" in out and "transa" in out

    def test_eval_pos_perfect_run(self, tmp_path, toy_dir, prepared, capsys):
        tagger = TestTagApply()
        _, _, _, manifest = tagger._tag(tmp_path, toy_dir, prepared, "tag")
        rc = cli.main([
            "eval-pos",
            "--system", str(toy_dir / "tgt.zz"), "--baseline", str(toy_dir / "tgt.zz"),
            "--manifest", str(manifest), "--pos", str(toy_dir / "pos.en"),
            "--alignments", str(toy_dir / "gold.align"), "--ref", str(toy_dir / "tgt.zz"),
            "--src", str(toy_dir / "src.en"),
            "--resamples", "50", "--out", str(tmp_path / "pos_report.tsv"),
        ])
        assert rc == 0
        lines = (tmp_path / "pos_report.tsv").read_text(encoding="utf-8").splitlines()
        assert lines[0] == "pos\tposition\tsys_acc\tbase_acc\tdiff\tp\tn"
        for line in lines[1:]:
            fields = line.split("\t")
            assert fields[2] == fields[3]  # identical systems
            assert fields[4] == "+0.00"
            assert float(fields[5]) == 1.0

    def test_eval_pos_length_mismatch(self, tmp_path, toy_dir, prepared, capsys):
        tagger = TestTagApply()
        _, _, _, manifest = tagger._tag(tmp_path, toy_dir, prepared, "tag")
        bad_pos = tmp_path / "bad.pos"
        bad_pos.write_text("NOUN\n" * 200, encoding="utf-8")
        rc = cli.main([
            "eval-pos",
            "--system", str(toy_dir / "tgt.zz"), "--baseline", str(toy_dir / "tgt.zz"),
            "--manifest", str(manifest), "--pos", str(bad_pos),
            "--alignments", str(toy_dir / "gold.align"), "--ref", str(toy_dir / "tgt.zz"),
            "--src", str(toy_dir / "src.en"),
        ])
        assert rc == 2
        assert f"{bad_pos}:1: 1 POS tags for 6 source tokens" in capsys.readouterr().err
        # a line-parallel input one row short is named
        short_ref = tmp_path / "short.zz"
        short_ref.write_text("".join((toy_dir / "tgt.zz").read_text(encoding="utf-8")
                                     .splitlines(keepends=True)[:-1]), encoding="utf-8")
        rc = cli.main([
            "eval-pos",
            "--system", str(toy_dir / "tgt.zz"), "--baseline", str(toy_dir / "tgt.zz"),
            "--manifest", str(manifest), "--pos", str(toy_dir / "pos.en"),
            "--alignments", str(toy_dir / "gold.align"), "--ref", str(short_ref),
            "--src", str(toy_dir / "src.en"),
        ])
        assert rc == 2
        err = capsys.readouterr().err
        assert f"{short_ref} has 199 rows but {toy_dir / 'src.en'} has 200" in err

    def _eval_pos(self, toy_dir, manifest, alignments):
        return cli.main([
            "eval-pos",
            "--system", str(toy_dir / "tgt.zz"), "--baseline", str(toy_dir / "tgt.zz"),
            "--manifest", str(manifest), "--pos", str(toy_dir / "pos.en"),
            "--alignments", str(alignments), "--ref", str(toy_dir / "tgt.zz"),
            "--src", str(toy_dir / "src.en"), "--resamples", "50",
        ])

    @pytest.mark.parametrize("side", ["source", "reference"])
    def test_eval_pos_refuses_a_link_past_its_line(self, tmp_path, toy_dir, prepared, capsys,
                                                   side):
        _, _, _, manifest = TestTagApply()._tag(tmp_path, toy_dir, prepared, "tag")
        ln = read_manifest(manifest)[0].line_no
        n = len((toy_dir / "pos.en").read_text(encoding="utf-8").splitlines()[ln].split())
        link = f"{n}-0" if side == "source" else f"0-{n}"
        bad = add_link(toy_dir / "gold.align", tmp_path / "bad.align", ln, link)
        capsys.readouterr()
        assert self._eval_pos(toy_dir, manifest, bad) == 2
        err = capsys.readouterr().err
        assert f"{bad}: line {ln + 1}: link {link} out of bounds for {n}x{n} tokens" in err
        assert "Traceback" not in err

    def test_eval_pos_refuses_a_span_past_its_line(self, tmp_path, toy_dir, prepared, capsys):
        _, _, _, manifest = TestTagApply()._tag(tmp_path, toy_dir, prepared, "tag")
        records = [json.loads(line) for line in manifest.read_text(encoding="utf-8").splitlines()]
        records[0]["bundles"][0]["src_span"] = [40, 50]
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        ln = records[0]["line_no"]
        n = len((toy_dir / "pos.en").read_text(encoding="utf-8").splitlines()[ln].split())
        capsys.readouterr()
        assert self._eval_pos(toy_dir, manifest, toy_dir / "gold.align") == 2
        err = capsys.readouterr().err
        assert f"{manifest}: line_no {ln}: src_span [40, 50) ends past the {n}" in err
        assert "Traceback" not in err
        # a row past the inputs
        records[0]["line_no"] = 200
        manifest.write_text("".join(json.dumps(r) + "\n" for r in records), encoding="utf-8")
        assert self._eval_pos(toy_dir, manifest, toy_dir / "gold.align") == 2
        err = capsys.readouterr().err
        assert f"{manifest}: line_no 200 outside the 200 input lines" in err
        assert "Traceback" not in err


class TestImperfectModelOutput:
    def test_degraded_output_flows_through_eval(self, tmp_path, toy_dir, prepared, capsys):
        # a "model" that drops one tag region and corrupts another: scoring
        # and detagging both degrade gracefully and the error taxonomy shows up
        tagger = TestTagApply()
        rc, _, out_tgt, manifest = tagger._tag(tmp_path, toy_dir, prepared, "transa")
        assert rc == 0
        from tagcopy.template import SPECIAL_VOCAB, read_manifest

        entries = read_manifest(manifest)
        singles = [e.line_no for e in entries if len(e.bundles) == 1]
        lines = [line.split() for line in out_tgt.read_text(encoding="utf-8").splitlines()]
        marks = SPECIAL_VOCAB.tokens()
        lines[singles[0]] = [t for t in lines[singles[0]] if t not in marks]
        corrupted = lines[singles[1]]
        corrupted[corrupted.index(SPECIAL_VOCAB.start) + 1] = "garbled"
        bad = tmp_path / "model_output.tgt"
        bad.write_text("".join(" ".join(x) + "\n" for x in lines), encoding="utf-8")

        rc = cli.main(["eval-copy", "--outputs", str(bad), "--manifest", str(manifest),
                       "--tsv", str(tmp_path / "copy.tsv")])
        assert rc == 0
        tsv = (tmp_path / "copy.tsv").read_text(encoding="utf-8")
        total = len([b for e in entries for b in e.bundles])
        assert f"breakdown\tcorrect\t{total - 2}\t{total}" in tsv
        assert f"breakdown\tno_tag\t1\t{total}" in tsv
        assert f"breakdown\twrong_tag\t1\t{total}" in tsv

        detagged = tmp_path / "detagged.tgt"
        rc = cli.main(["detag", "--in", str(bad), "--method", "transa",
                       "--table", str(prepared["table"]), "--out", str(detagged)])
        assert rc == 0
        capsys.readouterr()
        rc = cli.main(["eval-bleu", "--hyp", str(detagged), "--ref", str(toy_dir / "tgt.zz")])
        assert rc == 0
        out = capsys.readouterr().out
        score = float(out.split("BLEU = ")[1].split(",")[0])
        assert 0.0 < score < 100.0


class TestPipelineRun:
    def test_produces_all_artifacts(self, tmp_path, toy_dir):
        workdir = tmp_path / "run"
        config = write_config(tmp_path / "config.yaml", toy_dir, workdir)
        assert cli.main(["pipeline-run", "--config", str(config)]) == 0
        manifest = json.loads((workdir / "stage_manifest.json").read_text(encoding="utf-8"))
        assert manifest["stages"] == ["corpus", "align", "lexicon", "link", "tag"]
        assert set(manifest["tag_stats"]) == {
            "baseline", "tag", "add", "trans", "transa", "transr", "hypa",
        }
        for stats in manifest["tag_stats"].values():
            # trained alignments are deterministic and near-perfect on the
            # word-for-word fixture, so exactly the 50 eligible lines tag
            assert stats["total_pairs"] == 200
            assert stats["tagged_pairs"] == 50
            assert stats["tag_fraction"] == pytest.approx(0.25)
        for rel, digest in manifest["artifacts"].items():
            assert (workdir / rel).exists()
            assert len(digest) == 64
        assert len(read_manifest(workdir / "tagged" / "transa.manifest.jsonl")) > 0

    # sha256 of the toy run's annotations and tagged files; a change to how
    # tagging is organised must leave every one of them as it is
    TOY_DIGESTS = {
        # the toy corpus is word-for-word, so the three alignments are equal
        "align/fwd.align": "ab1582644e1c77c1d12d7de5edecc8c32979f69e5334b2e93a223ea08b8e2b09",
        "align/rev.align": "ab1582644e1c77c1d12d7de5edecc8c32979f69e5334b2e93a223ea08b8e2b09",
        "align/sym.align": "ab1582644e1c77c1d12d7de5edecc8c32979f69e5334b2e93a223ea08b8e2b09",
        "lexicon/table.tsv": "269eef149d195b06226dc025ff0f00a648cc6a553ea2314259a3042f97e6b97d",
        "link/annotations.jsonl": "ab0d505af54f12636506394ef47323874f62a86a753a1649fd62f6f5b3f647f7",
        "tagged/add.manifest.jsonl": "439076591af4333460294c7d0f8e3b42de985904f8673c723b10c1e534c48824",
        "tagged/add.src": "179adf48e9ade2459ef84641aa2b52c7f527832824aa542044a80927e8b50f17",
        "tagged/add.tgt": "d3fdec29525838136fe4c84ec27c990ce8eced49e5de18b34fa10305b9ab5797",
        "tagged/baseline.manifest.jsonl": "e72617593c376dd70a24ae8d992ca2eceddd436cbc5a616700ea103d850c51fa",
        "tagged/baseline.src": "fe5e582f409e05f0fdd233b337193b43d7c0a5f01fccef1be869dde0de8022c7",
        "tagged/baseline.tgt": "7538be0c4486bd8f4bcce430d4c28cefc0887c2ed672ef3b0c5778e21426253b",
        "tagged/hypa.manifest.jsonl": "23b0bdc14338985c96eecc1a737ecab2f921ea19f0141e77062de6d3e842a57d",
        "tagged/hypa.src": "0546d0974aa299736fcb6a94400e69bcbefe600cb21dc9e6c100690b666df5b5",
        "tagged/hypa.tgt": "31890fe8046827a0c645a5db9801f4e8a3793930d0992cb582c62579c57730de",
        "tagged/tag.manifest.jsonl": "e741a92e76a8072bdfbc3931aa91d6ecfd9cf3ee9d2404ca0f2fed3b5f02829f",
        "tagged/tag.src": "b16123294430048e10b0a3391251ceb44b6e95b85ab3d7d5b48f8cee86cab1e5",
        "tagged/tag.tgt": "d2fffea2e699fb071a89768a8d7eea27d5c83860beb4a2d15747c00200d19541",
        "tagged/trans.manifest.jsonl": "f0fb5ff4e3ca46f13d3a2c39955c6488156d0ecf487aa8999e40514da97f06d7",
        "tagged/trans.src": "04a4dcbb6c2df5a54deec4525ed13cf75da121d8c1184726d2c605b54e8f5649",
        "tagged/trans.tgt": "6bbf3bebb1e4453340343f8da92bf579d7ecba2eb67dfe3370a2a6744a9eebb7",
        "tagged/transa.manifest.jsonl": "bed4bf77cea799ef088e61d5653710f9756e18ffb5213f1f2c39107d18aea5ae",
        "tagged/transa.src": "8f34971ed815597fe9bd49125ba79c2823443f3ab8069ee61018dbb5cc8001d5",
        "tagged/transa.tgt": "6b5890027e7308478ddd484ae046f5680a7f93d2c2bd3e40146510a68ab82c82",
        "tagged/transr.manifest.jsonl": "606c14172eec283830798c2dace40e92ca6f5a4b7fdb0b6d301b0b2bab7461ef",
        "tagged/transr.src": "8768a4a9355f7e54cc1eccd0c7b24eebb6f6edb8849e94f5fe3ed5994b0dd521",
        "tagged/transr.tgt": "b2a9ee2c13ddf3f6c94511fb0515fd1c32eb6d59b18465290c6fbaf2e2b81b53",
    }

    def test_toy_tag_outputs_are_pinned(self, tmp_path, toy_dir):
        # the float model dumps are left out: their digits may differ
        # across numpy builds
        workdir = tmp_path / "run"
        config = write_config(tmp_path / "config.yaml", toy_dir, workdir)
        assert cli.main(["pipeline-run", "--config", str(config)]) == 0
        digests = {
            rel: hashlib.sha256((workdir / rel).read_bytes()).hexdigest()
            for rel in self.TOY_DIGESTS
        }
        assert digests == self.TOY_DIGESTS
        assert len(list((workdir / "tagged").iterdir())) == 21

    def test_single_method_override(self, tmp_path, toy_dir):
        workdir = tmp_path / "run"
        config = write_config(tmp_path / "config.yaml", toy_dir, workdir)
        assert cli.main(["pipeline-run", "--config", str(config), "--method", "hypa"]) == 0
        manifest = json.loads((workdir / "stage_manifest.json").read_text(encoding="utf-8"))
        assert list(manifest["tag_stats"]) == ["hypa"]

    def test_stage_error_names_stage(self, tmp_path, toy_dir, capsys):
        bad_gaz = tmp_path / "gaz.tsv"
        bad_gaz.write_text("\tkb:X\tthing\n", encoding="utf-8")  # empty surface
        config = write_config(
            tmp_path / "config.yaml", toy_dir, tmp_path / "run",
            linker={"mode": "gazetteer", "gazetteer": str(bad_gaz)},
        )
        rc = cli.main(["pipeline-run", "--config", str(config)])
        assert rc == 2
        assert "[link]" in capsys.readouterr().err

    def test_infinite_tension_stops_the_align_stage(self, tmp_path, toy_dir, capsys):
        config = write_config(
            tmp_path / "config.yaml", toy_dir, tmp_path / "run",
            aligner={"iterations": 5, "tension": float("inf"), "p0": 0.08},
        )
        assert ".inf" in config.read_text(encoding="utf-8")
        assert cli.main(["pipeline-run", "--config", str(config)]) == 2
        assert "[align] tension" in capsys.readouterr().err

    def test_reserved_tag_token_stops_the_run_before_training(self, tmp_path, toy_dir, capsys):
        lines = (toy_dir / "tgt.zz").read_text(encoding="utf-8").splitlines(keepends=True)
        lines[4] = "<special4> " + lines[4]
        tgt = tmp_path / "tgt.zz"
        tgt.write_text("".join(lines), encoding="utf-8")
        workdir = tmp_path / "run"
        config = write_config(tmp_path / "config.yaml", toy_dir, workdir, tgt=str(tgt))
        assert cli.main(["pipeline-run", "--config", str(config)]) == 2
        assert f"[corpus] {tgt}:5: holds '<special4>'" in capsys.readouterr().err
        assert not any((workdir / "align").iterdir())


class TestForkedReverseDirection:
    """pipeline-run aligns the reverse direction in a forked child while it
    aligns the forward one."""

    @staticmethod
    def _run(tmp_path, toy_dir, **overrides) -> int:
        config = write_config(tmp_path / "config.yaml", toy_dir, tmp_path / "run", **overrides)
        return cli.main(["pipeline-run", "--config", str(config)])

    @staticmethod
    def _patch_train(monkeypatch, reverse=None, forward=None):
        """Run ``reverse()`` or ``forward()`` before training that direction."""
        train = align.train_alignment

        def patched(corpus, **kwargs):
            before = reverse if kwargs["direction"] == align.REVERSE else forward
            if before is not None:
                before()
            return train(corpus, **kwargs)

        monkeypatch.setattr(align, "train_alignment", patched)

    def test_reverse_error_exits_2_under_align(self, tmp_path, toy_dir, capsys, monkeypatch):
        def refuse():
            raise InvalidParams("reverse refused")

        self._patch_train(monkeypatch, reverse=refuse)
        assert self._run(tmp_path, toy_dir) == 2
        err = capsys.readouterr().err
        assert "error: [align] reverse refused" in err
        assert "Traceback" not in err

    def test_forward_error_kills_the_child(self, tmp_path, toy_dir, capsys, monkeypatch):
        pid_file = tmp_path / "child.pid"

        def hang():
            (tmp_path / "pid.tmp").write_text(str(os.getpid()), encoding="utf-8")
            os.replace(tmp_path / "pid.tmp", pid_file)
            time.sleep(60)

        def refuse():
            deadline = time.monotonic() + 30
            while not pid_file.exists() and time.monotonic() < deadline:
                time.sleep(0.01)  # until the child is in its reverse training
            raise InvalidParams("forward refused")

        self._patch_train(monkeypatch, reverse=hang, forward=refuse)
        t0 = time.monotonic()
        assert self._run(tmp_path, toy_dir) == 2
        assert time.monotonic() - t0 < 45  # the child was killed, not waited for
        assert "error: [align] forward refused" in capsys.readouterr().err
        child = int(pid_file.read_text(encoding="utf-8"))
        assert child != os.getpid()
        with pytest.raises(ProcessLookupError):
            os.kill(child, 0)

    def test_a_child_that_dies_without_a_result_exits_2(self, tmp_path, toy_dir, capsys,
                                                         monkeypatch):
        self._patch_train(monkeypatch, reverse=lambda: os._exit(3))
        assert self._run(tmp_path, toy_dir) == 2
        err = capsys.readouterr().err
        assert "the tgt-src alignment ended without a result (exit code 3)" in err
        assert "Traceback" not in err

    def test_without_fork_the_tree_is_byte_identical(self, tmp_path, toy_dir, monkeypatch):
        trees = {}
        for name in ("forked", "in-process"):
            if name == "in-process":
                monkeypatch.delattr(os, "fork")
            workdir = tmp_path / name
            config = write_config(tmp_path / f"{name}.yaml", toy_dir, workdir)
            assert cli.main(["pipeline-run", "--config", str(config)]) == 0
            trees[name] = {str(p.relative_to(workdir)): p.read_bytes()
                           for p in workdir.rglob("*") if p.is_file()}
        assert len(trees["forked"]) == 29  # 28 artifacts and the stage manifest
        assert trees["forked"] == trees["in-process"]

    def test_perplexity_lines_come_forward_then_reverse(self, tmp_path, toy_dir, caplog):
        # a word added to every third target line, so the directions differ
        lines = (toy_dir / "tgt.zz").read_text(encoding="utf-8").splitlines()
        tgt = tmp_path / "tgt.zz"
        tgt.write_text("".join(line + (" la" if k % 3 == 0 else "") + "\n"
                               for k, line in enumerate(lines)), encoding="utf-8")
        corpus = read_parallel(toy_dir / "src.en", tgt)
        expected = {
            direction: [f"iteration {k}: perplexity {p:.4f}" for k, p in enumerate(
                align.train_alignment(corpus, iterations=5, tension=4.0, p0=0.08,
                                      direction=direction).perplexity_history)]
            for direction in (align.FORWARD, align.REVERSE)
        }
        assert expected[align.FORWARD] != expected[align.REVERSE]
        with caplog.at_level(logging.INFO, logger="tagcopy.cli"):
            assert self._run(tmp_path, toy_dir, tgt=str(tgt)) == 0
        logged = [r.getMessage() for r in caplog.records if "perplexity" in r.getMessage()]
        assert logged == expected[align.FORWARD] + expected[align.REVERSE]


class TestStageParity:
    def test_subcommands_match_pipeline_run(self, tmp_path, toy_dir):
        # the subcommand chain and pipeline-run share one implementation per
        # stage, so every artifact must come out byte-identical
        root = Path(__file__).resolve().parent.parent
        cfg = yaml.safe_load((toy_dir / "config.yaml").read_text(encoding="utf-8"))
        # the toy corpus plus a pair with an empty target side, inserted as
        # line 3: read_parallel drops it, but its source still gets an
        # annotation row from both paths
        for key in ("src", "tgt"):
            lines = (root / cfg[key]).read_text(encoding="utf-8").splitlines(keepends=True)
            lines.insert(3, lines[2] if key == "src" else "\n")
            cfg[key] = str(tmp_path / Path(cfg[key]).name)
            Path(cfg[key]).write_text("".join(lines), encoding="utf-8")
        # the gazetteer's myanmar row without its label: both paths take it
        # from linker.hypernyms, which pipeline-run reads in either mode
        rows = (root / cfg["linker"]["gazetteer"]).read_text(encoding="utf-8").splitlines()
        surface, uri, _ = rows[0].split("\t")
        assert surface == "myanmar"
        rows[0] = f"{surface}\t{uri}\t"
        cfg["linker"]["gazetteer"] = str(tmp_path / "gazetteer.tsv")
        Path(cfg["linker"]["gazetteer"]).write_text("\n".join(rows) + "\n", encoding="utf-8")
        cfg["linker"]["hypernyms"] = str(root / cfg["linker"]["hypernyms"])
        cfg["workdir"] = str(tmp_path / "run")
        config = tmp_path / "config.yaml"
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli.main(["pipeline-run", "--config", str(config)]) == 0

        run, out = tmp_path / "run", tmp_path / "chain"
        out.mkdir()
        corpus = ["--src", cfg["src"], "--tgt", cfg["tgt"]]
        ap = cfg["aligner"]
        for name in ("fwd", "rev"):
            assert cli.main([
                "align-train", *corpus, "--direction", name,
                "--iterations", str(ap["iterations"]), "--tension", str(ap["tension"]),
                "--p0", str(ap["p0"]), "--model-out", str(out / f"model.{name}.tsv"),
            ]) == 0
            assert cli.main([
                "align-apply", *corpus, "--model", str(out / f"model.{name}.tsv"),
                "--out", str(out / f"{name}.align"),
            ]) == 0
        assert cli.main([
            "symmetrize", "--fwd", str(out / "fwd.align"), "--rev", str(out / "rev.align"),
            "--heuristic", ap["heuristic"], "--out", str(out / "sym.align"),
        ]) == 0
        assert cli.main([
            "lexicon-build", *corpus, "--alignments", str(out / "sym.align"),
            "--out", str(out / "table.tsv"),
        ]) == 0
        assert cli.main([
            "link-annotate", "--src", cfg["src"], "--gazetteer", cfg["linker"]["gazetteer"],
            "--out", str(out / "mentions.jsonl"),
        ]) == 0
        assert cli.main([
            "link-hypernyms", "--annotations", str(out / "mentions.jsonl"),
            "--hypernyms", cfg["linker"]["hypernyms"], "--out", str(out / "annotations.jsonl"),
        ]) == 0
        pairs = {
            f"align/{name}": out / name
            for name in ("model.fwd.tsv", "model.rev.tsv", "fwd.align", "rev.align", "sym.align")
        }
        pairs["lexicon/table.tsv"] = out / "table.tsv"
        pairs["link/annotations.jsonl"] = out / "annotations.jsonl"
        for method in cfg["tagging"]["methods"]:
            files = [out / f"{method}.{ext}" for ext in ("src", "tgt", "manifest.jsonl")]
            assert cli.main([
                "tag-apply", *corpus, "--annotations", str(out / "annotations.jsonl"),
                "--alignments", str(out / "sym.align"), "--table", str(out / "table.tsv"),
                "--method", method, "--vocab", cfg["tagging"]["vocab"],
                "--out-src", str(files[0]), "--out-tgt", str(files[1]),
                "--manifest", str(files[2]),
            ]) == 0
            pairs.update({f"tagged/{f.name}": f for f in files})

        manifest = json.loads((run / "stage_manifest.json").read_text(encoding="utf-8"))
        assert set(pairs) == set(manifest["artifacts"])
        annotations = read_annotations(run / "link/annotations.jsonl")
        assert annotations[3][0].surface == ["osaka"]
        myanmar = [m for ms in annotations.values() for m in ms if m.surface == ["myanmar"]]
        assert myanmar and all(m.hypernym == ["state"] for m in myanmar)
        for rel, chained in pairs.items():
            assert chained.read_bytes() == (run / rel).read_bytes(), rel

    def test_remote_annotation_matches_the_subcommands(self, tmp_path, toy_dir, monkeypatch):
        # an in-process annotate endpoint: the toy gazetteer's mentions sent
        # back as Spotlight resources with character offsets
        gaz = link.Gazetteer.from_tsv(toy_dir / "gazetteer.tsv")
        texts = []

        def endpoint(url, params):
            texts.append(params["text"])
            tokens = params["text"].split(" ")
            spans = link.token_char_spans(tokens)
            return 200, json.dumps({"Resources": [
                {"@URI": m.uri, "@surfaceForm": " ".join(m.surface),
                 "@offset": str(spans[m.start][0])}
                for m in link.annotate_gazetteer(tokens, gaz)
            ]})

        monkeypatch.setattr(link, "_default_transport", lambda timeout: endpoint)
        monkeypatch.delenv("LINKER_ENDPOINT", raising=False)
        url, hypernyms = "http://annotator.invalid/annotate", str(toy_dir / "hypernyms.tsv")
        config = write_config(
            tmp_path / "config.yaml", toy_dir, tmp_path / "run", tagging={"methods": ["hypa"]},
            linker={"mode": "remote", "endpoint": url, "hypernyms": hypernyms},
        )
        assert cli.main(["pipeline-run", "--config", str(config)]) == 0
        # 200 toy lines, one of which repeats an earlier one
        assert (len(texts), len(set(texts))) == (199, 199)

        texts.clear()
        bare, chained = tmp_path / "mentions.jsonl", tmp_path / "annotations.jsonl"
        assert cli.main(["link-annotate", "--src", str(toy_dir / "src.en"), "--mode", "remote",
                         "--endpoint", url, "--out", str(bare)]) == 0
        assert (len(texts), len(set(texts))) == (199, 199)
        assert cli.main(["link-hypernyms", "--annotations", str(bare),
                         "--hypernyms", hypernyms, "--out", str(chained)]) == 0
        piped = (tmp_path / "run" / "link" / "annotations.jsonl").read_bytes()
        assert chained.read_bytes() == piped
        # the endpoint's answers carry the gazetteer's mentions, and the toy
        # hypernym file holds the gazetteer's labels
        direct = tmp_path / "gazetteer.jsonl"
        assert cli.main(["link-annotate", "--src", str(toy_dir / "src.en"),
                         "--gazetteer", str(toy_dir / "gazetteer.tsv"), "--out", str(direct)]) == 0
        assert read_annotations(chained) == read_annotations(direct)


class TestConfig:
    def test_missing_required_key(self, tmp_path, toy_dir):
        path = tmp_path / "c.yaml"
        path.write_text(f"src: {toy_dir / 'src.en'}\nworkdir: w\n", encoding="utf-8")
        with pytest.raises(ConfigError, match="missing required key: tgt"):
            load_config(path)

    def test_unknown_key(self, tmp_path, toy_dir):
        config = write_config(tmp_path / "c.yaml", toy_dir, tmp_path / "w", typo="x")
        with pytest.raises(ConfigError, match="unknown key: typo"):
            load_config(config)

    def test_unknown_method(self, tmp_path, toy_dir):
        config = write_config(
            tmp_path / "c.yaml", toy_dir, tmp_path / "w", tagging={"methods": ["shiny"]}
        )
        with pytest.raises(ConfigError, match="shiny"):
            load_config(config)

    def test_eval_section_is_unknown(self, tmp_path, toy_dir):
        config = write_config(
            tmp_path / "c.yaml", toy_dir, tmp_path / "w", eval={"resamples": 100}
        )
        with pytest.raises(ConfigError, match="unknown key: eval"):
            load_config(config)

    def test_missing_input_file(self, tmp_path, toy_dir):
        config = write_config(tmp_path / "c.yaml", toy_dir, tmp_path / "w", src="nope.txt")
        with pytest.raises(ConfigError, match="src: no such file"):
            load_config(config)

    def test_gazetteer_required_in_gazetteer_mode(self, tmp_path, toy_dir):
        config = write_config(
            tmp_path / "c.yaml", toy_dir, tmp_path / "w", linker={"mode": "gazetteer"}
        )
        with pytest.raises(ConfigError, match="linker.gazetteer"):
            load_config(config)

    def test_endpoint_env_override(self, tmp_path, toy_dir, monkeypatch):
        config = write_config(
            tmp_path / "c.yaml", toy_dir, tmp_path / "w",
            linker={"mode": "remote", "endpoint": "http://file.example/annotate"},
        )
        monkeypatch.setenv("LINKER_ENDPOINT", "http://env.example/annotate")
        assert load_config(config).linker.endpoint == "http://env.example/annotate"

    def test_custom_vocab_mapping(self, tmp_path, toy_dir):
        config = write_config(
            tmp_path / "c.yaml", toy_dir, tmp_path / "w",
            tagging={"vocab": {"start": "<s>", "mid1": "<m1>", "mid2": "<m2>", "end": "<e>"}},
        )
        assert load_config(config).vocab.start == "<s>"

    def test_vocab_mapping_tokens_read_as_strings(self, tmp_path, toy_dir):
        # YAML reads `start: 1` as an int; a token is written and scanned as a str
        config = write_config(
            tmp_path / "c.yaml", toy_dir, tmp_path / "w",
            tagging={"vocab": {"start": 1, "mid1": 2, "mid2": 3, "end": 4}},
        )
        assert load_config(config).vocab.tokens() == {"1", "2", "3", "4"}

    def test_defaults(self, tmp_path, toy_dir):
        config = write_config(tmp_path / "c.yaml", toy_dir, tmp_path / "w")
        cfg = load_config(config)
        assert cfg.aligner.iterations == 5
        assert cfg.aligner.p0 == 0.08
        assert cfg.linker.confidence == 0.5

    @pytest.mark.parametrize("section, name, value", [
        ("aligner", "iterations", "five"),
        (None, "seed", "abc"),
        ("linker", "confidence", "high"),
        ("aligner", "vb", "false"),
        ("aligner", "iterations", 1.9),
        (None, "seed", True),
        ("tagging", "min_count", 2.5),
        ("aligner", "p0", True),
    ])
    def test_value_of_the_wrong_type_exits_2(self, tmp_path, toy_dir, capsys,
                                             section, name, value):
        config = write_config(tmp_path / "c.yaml", toy_dir, tmp_path / "w")
        cfg = yaml.safe_load(config.read_text(encoding="utf-8"))
        (cfg[section] if section else cfg)[name] = value
        config.write_text(yaml.safe_dump(cfg), encoding="utf-8")
        assert cli.main(["pipeline-run", "--config", str(config)]) == 2
        key = f"{section}.{name}" if section else name
        assert f"error: {key}: expected" in capsys.readouterr().err

    def test_library_defaults_match_the_schema(self):
        def defaults(fn):
            return {k: p.default for k, p in inspect.signature(fn).parameters.items()}

        train = defaults(align.train_alignment)
        for name in ("iterations", "tension", "p0", "vb", "alpha"):
            assert train[name] == getattr(AlignerParams, name), name
        assert defaults(align.symmetrize_links)["heuristic"] == AlignerParams.heuristic
        assert defaults(link.SpotlightClient)["confidence"] == LinkerParams.confidence
        assert defaults(lexicon.build_translation_table)["min_count"] == PipelineConfig.min_count
        for fn in (template.render_source_template, template.render_target_template,
                   template.detag):
            assert defaults(fn)["vocab"] == PipelineConfig.vocab

    def test_readme_configuration_block_lists_every_key(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Configuration")[1].split("```yaml\n")[1].split("```")[0]
        documented = yaml.safe_load(block)
        assert set(documented) == set(TOP_KEYS)
        for name, keys in SECTION_KEYS.items():
            assert set(documented[name]) == set(keys), name


def test_cli_import_loads_neither_requests_nor_numpy():
    # both are costly to load; only remote linking and the aligner's array
    # code need them, so they are imported where used
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, tagcopy.cli; print(sorted({'requests', 'numpy'} & set(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "[]"


def test_vb_align_train_loads_no_scipy(tmp_path, toy_dir):
    # the variational-Bayes M-step computes digamma with numpy, so training
    # does not pay for importing scipy
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, tagcopy.cli\n"
        "rc = tagcopy.cli.main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    argv = ["align-train", "--src", str(toy_dir / "src.en"), "--tgt", str(toy_dir / "tgt.zz"),
            "--vb", "--iterations", "2", "--model-out", str(tmp_path / "m.tsv")]
    out = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    assert out.stdout.splitlines()[-1] == "0 []"


def test_fixture_generator_reproduces_the_toy_fixture(tmp_path, toy_dir):
    # the committed fixture is what the generator writes, byte for byte
    root = Path(__file__).resolve().parent.parent
    subprocess.run([sys.executable, str(root / "scripts" / "make_toy_fixture.py"), str(tmp_path)],
                   capture_output=True, check=True, timeout=60)
    written = sorted(path.name for path in tmp_path.iterdir())
    assert written == sorted(path.name for path in toy_dir.iterdir())
    assert len(written) == 7
    for name in written:
        assert (tmp_path / name).read_bytes() == (toy_dir / name).read_bytes(), name
