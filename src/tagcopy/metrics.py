"""Evaluation: corpus BLEU, copy accuracy, per-POS translation accuracy,
and paired randomization significance.

Reports exist in two forms: TSV for machines and an aligned-column text
summary for humans. Percentages are printed with 2 decimals, BLEU with 2
decimals, p-values with 4.
"""

import math
import random
from collections import Counter, defaultdict
from dataclasses import dataclass
from itertools import repeat

from .corpus import TokenSeq
from .align import check_links
from .errors import CountMismatch, EmptyCorpus, EmptyInput, InvalidParams, MalformedFile
from .template import METHODS, ManifestEntry, TemplateMethod, extract_regions, split_region

# the bundle field each scored component appears as in undelimited output
_OUTPUT_FIELD = {"translation": "translation", "hypernym": "hypernym_tgt"}


# ---------------------------------------------------------------------------
# BLEU


@dataclass
class BleuScore:
    score: float  # 0..100
    precisions: list[float]
    brevity_penalty: float
    hyp_len: int
    ref_len: int


def bleu(hypotheses, references, max_n: int = 4, subset=None) -> BleuScore:
    """Corpus-level BLEU with clipped n-gram precisions, single reference.

    Any zero n-gram precision zeroes the score (multi-bleu convention); the
    brevity penalty is min(1, exp(1 - r/c)). ``subset`` restricts scoring to
    the given line indices, which is how tag-only evaluation works; an index
    outside the corpus raises CountMismatch.
    """
    if max_n < 1:
        raise InvalidParams(f"max_n must be >= 1, got {max_n}")
    if len(hypotheses) != len(references):
        raise CountMismatch(
            f"{len(hypotheses)} hypotheses vs {len(references)} references"
        )
    if subset is None:
        lines = range(len(hypotheses))
    else:
        lines = sorted(set(subset))
        for k in lines[:1] + lines[-1:]:
            if not 0 <= k < len(hypotheses):
                raise CountMismatch(
                    f"subset line {k} outside the {len(hypotheses)} hypothesis lines"
                )
    if not lines:
        raise EmptyCorpus("nothing to score")
    matches = [0] * max_n
    totals = [0] * max_n
    hyp_len = 0
    ref_len = 0
    for k in lines:
        hyp = hypotheses[k]
        ref = references[k]
        hyp_len += len(hyp)
        ref_len += len(ref)
        hgrams, rgrams = hyp, ref
        for n in range(1, min(max_n, len(hyp)) + 1):
            if n > 1:
                # order-n grams as (order n-1 gram, next token) pairs
                hgrams = list(zip(hgrams, hyp[n - 1:]))
                rgrams = list(zip(rgrams, ref[n - 1:]))
            total = len(hyp) - n + 1
            totals[n - 1] += total
            distinct = set(hgrams)
            if len(distinct) == total:
                # no repeated hypothesis n-gram: every clip is min(1, count in ref)
                matches[n - 1] += len(distinct.intersection(rgrams))
            else:
                rcounts = Counter(rgrams)
                matches[n - 1] += sum(min(c, rcounts[g]) for g, c in Counter(hgrams).items())
    precisions = [m / t if t else 0.0 for m, t in zip(matches, totals)]
    if hyp_len == 0:
        bp = 0.0
    else:
        bp = 1.0 if hyp_len >= ref_len else math.exp(1.0 - ref_len / hyp_len)
    if min(precisions) <= 0.0:
        score = 0.0
    else:
        score = 100.0 * bp * math.exp(sum(math.log(p) for p in precisions) / max_n)
    return BleuScore(score, precisions, bp, hyp_len, ref_len)


def format_bleu(result: BleuScore) -> str:
    parts = "/".join(f"{100.0 * p:.1f}" for p in result.precisions)
    return (
        f"BLEU = {result.score:.2f}, {parts} "
        f"(BP={result.brevity_penalty:.3f}, hyp_len={result.hyp_len}, ref_len={result.ref_len})"
    )


def write_bleu_tsv(result: BleuScore, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        names = "\t".join(f"p{n}" for n in range(1, len(result.precisions) + 1))
        f.write(f"score\t{names}\tbp\thyp_len\tref_len\n")
        precs = "\t".join(f"{100.0 * p:.2f}" for p in result.precisions)
        f.write(
            f"{result.score:.2f}\t{precs}\t{result.brevity_penalty:.4f}"
            f"\t{result.hyp_len}\t{result.ref_len}\n"
        )


# ---------------------------------------------------------------------------
# copy accuracy


@dataclass
class CopyReport:
    method: TemplateMethod
    total: int
    correct: int
    no_tag: int
    wrong_tag: int
    matched: dict[str, int]  # per scored component

    def accuracy(self, component: str) -> float:
        return self.matched[component] / self.total if self.total else 0.0


def _consume(tokens: TokenSeq, needle: TokenSeq, used: list[bool]) -> bool:
    """Find an unconsumed contiguous occurrence of needle and mark it used."""
    if not needle:
        return False
    n = len(needle)
    for k in range(len(tokens) - n + 1):
        if tokens[k:k + n] == needle and not any(used[k:k + n]):
            for t in range(k, k + n):
                used[t] = True
            return True
    return False


def copy_accuracy(manifest: list[ManifestEntry], outputs, method: TemplateMethod) -> CopyReport:
    """Score how faithfully tagged content reached the raw model output.

    Delimited methods match the k-th balanced region of an output line to
    the k-th manifest bundle and compare segments exactly: a bundle with no
    region is a no_tag error, a region with any scored segment wrong is a
    wrong_tag error. Undelimited methods (baseline, hypa) have no regions:
    the target-side run of each scored component (the translation, and the
    target-side hypernym for hypa) is searched anywhere in the output, each
    occurrence consumable once, and misses land in no_tag.
    """
    spec = METHODS[method]
    components = spec.scored
    matched = {c: 0 for c in components}
    total = correct = no_tag = wrong_tag = 0
    for entry in manifest:
        if not 0 <= entry.line_no < len(outputs):
            raise CountMismatch(
                f"line_no {entry.line_no} outside the {len(outputs)} output lines"
            )
        out = outputs[entry.line_no]
        if spec.delimited:
            regions = extract_regions(out, entry.vocab)
        else:
            used = {c: [False] * len(out) for c in components}
        for k, b in enumerate(entry.bundles):
            total += 1
            if not spec.delimited:
                hits = [_consume(out, getattr(b, _OUTPUT_FIELD[c]), used[c]) for c in components]
            elif k < len(regions):
                segments = split_region(regions[k], method, entry.vocab)
                hits = [segments is not None and segments[c] == getattr(b, c) for c in components]
            else:
                no_tag += 1
                continue
            for c, hit in zip(components, hits):
                matched[c] += hit
            if all(hits):
                correct += 1
            elif spec.delimited:
                wrong_tag += 1
            else:
                no_tag += 1
    return CopyReport(method, total, correct, no_tag, wrong_tag, matched)


def format_copy_report(report: CopyReport) -> str:
    lines = [f"copy accuracy ({report.method.value}), {report.total} tagged entities"]
    for c in ("entity", "translation", "hypernym"):
        shown = f"{100.0 * report.accuracy(c):6.2f}%  ({report.matched[c]}/{report.total})" \
            if c in report.matched else "     -"
        lines.append(f"  {c:<12} {shown}")
    lines.append("  breakdown")
    for name, value in (("correct", report.correct), ("no_tag", report.no_tag),
                        ("wrong_tag", report.wrong_tag)):
        pct = 100.0 * value / report.total if report.total else 0.0
        lines.append(f"  {name:<12} {pct:6.2f}%  ({value}/{report.total})")
    return "\n".join(lines)


def write_copy_tsv(report: CopyReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("kind\tname\tcount\ttotal\tpct\n")
        for c in ("entity", "translation", "hypernym"):
            if c in report.matched:
                pct = 100.0 * report.accuracy(c)
                f.write(f"component\t{c}\t{report.matched[c]}\t{report.total}\t{pct:.2f}\n")
        for name, value in (("correct", report.correct), ("no_tag", report.no_tag),
                            ("wrong_tag", report.wrong_tag)):
            pct = 100.0 * value / report.total if report.total else 0.0
            f.write(f"breakdown\t{name}\t{value}\t{report.total}\t{pct:.2f}\n")


# ---------------------------------------------------------------------------
# per-POS accuracy


@dataclass
class PosRow:
    pos: str
    position: str  # "pre" or "post"
    sys_acc: float
    base_acc: float
    diff: float
    p_value: float
    n: int


@dataclass
class PosReport:
    rows: list[PosRow]


def _claim(candidates: list[str], out_tokens: TokenSeq, used: list[bool]) -> bool:
    for want in candidates:
        for k, tok in enumerate(out_tokens):
            if tok == want and not used[k]:
                used[k] = True
                return True
    return False


def pos_accuracy(
    system_outputs,
    baseline_outputs,
    manifest: list[ManifestEntry],
    pos_tags,
    alignments,
    references,
    *,
    resamples: int = 10000,
    seed: int = 0,
) -> PosReport:
    """Word translation accuracy per (POS, pre/post tag position).

    Runs over tagged sentences only. For each source token outside the tag
    spans that is aligned to at least one reference token, the token counts
    as correct for a system when one of those reference tokens can still be
    found in that system's detagged output; each output occurrence is
    consumed at most once, scanning source tokens left to right. Rows pair
    the system against the baseline and carry a randomization p-value.

    A ``src_span`` past its POS row raises MalformedFile, and a link outside
    the POS row or the reference raises LengthMismatch.
    """
    inputs = (system_outputs, baseline_outputs, pos_tags, alignments, references)
    if len(set(map(len, inputs))) != 1:
        raise CountMismatch(
            "line-parallel inputs differ in length: "
            f"system={len(system_outputs)}, baseline={len(baseline_outputs)}, "
            f"pos={len(pos_tags)}, alignments={len(alignments)}, references={len(references)}"
        )
    cells: dict[tuple[str, str], tuple[list[bool], list[bool]]] = defaultdict(lambda: ([], []))
    for entry in manifest:
        ln = entry.line_no
        if not 0 <= ln < len(references):
            raise CountMismatch(f"line_no {ln} outside the {len(references)} input lines")
        if not entry.bundles:
            continue
        pos_row = pos_tags[ln]
        ref = references[ln]
        spans = [tuple(b.src_span) for b in entry.bundles]
        first_start = min(s for s, _ in spans)
        inside = set()
        for s, e in spans:
            if e > len(pos_row):
                raise MalformedFile(
                    f"line_no {ln}: src_span [{s}, {e}) ends past the "
                    f"{len(pos_row)} source tokens"
                )
            inside.update(range(s, e))
        check_links(alignments[ln], len(pos_row), len(ref), ln)
        ref_of: dict[int, list[int]] = defaultdict(list)
        for i, j in alignments[ln]:
            ref_of[i].append(j)
        sys_used = [False] * len(system_outputs[ln])
        base_used = [False] * len(baseline_outputs[ln])
        for i, tag in enumerate(pos_row):
            if i in inside or i not in ref_of:
                continue
            expected = [ref[j] for j in sorted(ref_of[i])]
            where = "pre" if i < first_start else "post"
            sys_flags, base_flags = cells[(tag, where)]
            sys_flags.append(_claim(expected, system_outputs[ln], sys_used))
            base_flags.append(_claim(expected, baseline_outputs[ln], base_used))
    rows = []
    for tag, where in sorted(cells):
        sys_flags, base_flags = cells[(tag, where)]
        sys_acc = sum(sys_flags) / len(sys_flags)
        base_acc = sum(base_flags) / len(base_flags)
        p = significance(sys_flags, base_flags, resamples=resamples, seed=seed)
        rows.append(PosRow(tag, where, sys_acc, base_acc, sys_acc - base_acc, p, len(sys_flags)))
    return PosReport(rows)


def write_pos_tsv(report: PosReport, path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write("pos\tposition\tsys_acc\tbase_acc\tdiff\tp\tn\n")
        for r in report.rows:
            f.write(
                f"{r.pos}\t{r.position}\t{100.0 * r.sys_acc:.2f}\t{100.0 * r.base_acc:.2f}"
                f"\t{100.0 * r.diff:+.2f}\t{r.p_value:.4f}\t{r.n}\n"
            )


def format_pos_report(report: PosReport) -> str:
    header = f"{'pos':<10}{'position':<10}{'sys':>8}{'base':>8}{'diff':>8}{'p':>8}{'n':>6}"
    lines = [header]
    for r in report.rows:
        star = " *" if r.p_value < 0.05 else ""
        lines.append(
            f"{r.pos:<10}{r.position:<10}{100.0 * r.sys_acc:>8.2f}{100.0 * r.base_acc:>8.2f}"
            f"{100.0 * r.diff:>+8.2f}{r.p_value:>8.4f}{r.n:>6}{star}"
        )
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# significance


def significance(system_flags, baseline_flags, resamples: int = 10000, seed: int = 0) -> float:
    """Two-sided paired approximate-randomization p-value.

    Each resample swaps every pair's labels with probability 1/2 and asks
    whether the absolute accuracy difference reaches the observed one.
    Swapping a pair flips the sign of its contribution to the difference,
    so a resample reduces to drawing random signs over the pairs that
    disagree; ties count as hits. Smoothed as (hits + 1) / (resamples + 1),
    deterministic for a given seed.
    """
    if len(system_flags) != len(baseline_flags):
        raise CountMismatch(
            f"{len(system_flags)} system flags vs {len(baseline_flags)} baseline flags"
        )
    n = len(system_flags)
    if n == 0:
        raise EmptyInput("no paired observations")
    if resamples <= 0:
        raise InvalidParams(f"resamples must be >= 1, got {resamples}")
    diffs = [int(s) - int(b) for s, b in zip(system_flags, baseline_flags)]
    observed = abs(sum(diffs))  # in units of 1/n
    m = sum(1 for d in diffs if d)
    if m == 0:
        return 1.0  # every resample ties the observed 0: (resamples + 1) / (resamples + 1)
    # the same getrandbits(m) per resample, in order, kept as a histogram
    # of how many disagreeing pairs each resample swaps
    draws = map(random.Random(seed).getrandbits, repeat(m, resamples))
    swaps = Counter(map(int.bit_count, draws))
    hits = sum(c for k, c in swaps.items() if abs(2 * k - m) >= observed)
    return (hits + 1) / (resamples + 1)
