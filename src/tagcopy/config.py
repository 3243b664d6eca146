"""Pipeline configuration.

One YAML file with a documented key set; the only environment override is
LINKER_ENDPOINT, because endpoints differ per machine while everything else
should be committed alongside the experiment.

Top-level keys::

    src, tgt            input parallel files (required)
    workdir             output directory (required)
    src_lang, tgt_lang  language codes (default "src"/"tgt")
    seed                integer seed recorded in artifacts (default 0)
    lowercase           bool, default true
    strip_accents       bool, default true
    aligner:            iterations, tension, p0, vb, alpha, heuristic
    linker:             mode (gazetteer|remote), gazetteer, hypernyms,
                        endpoint, confidence
    tagging:            methods (list), vocab (special|plain|{start,mid1,
                        mid2,end}), min_count
"""

import os
from dataclasses import dataclass, field

import yaml

from .align import HEURISTICS
from .corpus import NormProfile
from .errors import ConfigError
from .template import PLAIN_VOCAB, SPECIAL_VOCAB, TAGGED_METHODS, TagVocabulary, TemplateMethod


@dataclass
class AlignerParams:
    iterations: int = 5
    tension: float = 4.0
    p0: float = 0.08
    vb: bool = False
    alpha: float = 0.01
    heuristic: str = "grow-diag-final-and"


@dataclass
class LinkerParams:
    mode: str = "gazetteer"
    gazetteer: str | None = None
    hypernyms: str | None = None
    endpoint: str | None = None
    confidence: float = 0.5


@dataclass
class PipelineConfig:
    src: str
    tgt: str
    workdir: str
    src_lang: str = "src"
    tgt_lang: str = "tgt"
    seed: int = 0
    profile: NormProfile = NormProfile()
    aligner: AlignerParams = field(default_factory=AlignerParams)
    linker: LinkerParams = field(default_factory=LinkerParams)
    methods: list[TemplateMethod] = field(default_factory=lambda: list(TAGGED_METHODS))
    vocab: TagVocabulary = SPECIAL_VOCAB
    min_count: int = 1


_TOP_KEYS = {
    "src", "tgt", "workdir", "src_lang", "tgt_lang", "seed",
    "lowercase", "strip_accents", "aligner", "linker", "tagging",
}


def _section(data: dict, name: str, allowed: set[str]) -> dict:
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a mapping")
    for key in section:
        if key not in allowed:
            raise ConfigError(f"unknown key: {name}.{key}")
    return section


def parse_vocab(spec) -> TagVocabulary:
    if spec in (None, "special"):
        return SPECIAL_VOCAB
    if spec == "plain":
        return PLAIN_VOCAB
    if isinstance(spec, dict):
        missing = {"start", "mid1", "mid2", "end"} - set(spec)
        if missing:
            raise ConfigError(f"tagging.vocab: missing key(s) {sorted(missing)}")
        return TagVocabulary(spec["start"], spec["mid1"], spec["mid2"], spec["end"])
    raise ConfigError(f"tagging.vocab: expected 'special', 'plain', or a mapping, got {spec!r}")


def parse_method(name: str) -> TemplateMethod:
    try:
        return TemplateMethod(str(name).lower())
    except ValueError:
        valid = ", ".join(m.value for m in TemplateMethod)
        raise ConfigError(f"unknown method {name!r} (valid: {valid})") from None


def check_linker(linker: LinkerParams) -> None:
    """The linker mode is known and has what it reads; each complaint names
    both the config key and the CLI option."""
    if linker.mode not in ("gazetteer", "remote"):
        raise ConfigError(f"linker.mode: expected 'gazetteer' or 'remote', got {linker.mode!r}")
    if linker.mode == "gazetteer" and not linker.gazetteer:
        raise ConfigError(
            "missing required key linker.gazetteer or option --gazetteer (mode is 'gazetteer')"
        )
    if linker.mode == "remote" and not linker.endpoint:
        raise ConfigError(
            "missing required key linker.endpoint or option --endpoint "
            "(mode is 'remote'; LINKER_ENDPOINT also accepted)"
        )


def load_config(path) -> PipelineConfig:
    """Parse and validate the YAML config; every complaint names its field."""
    with open(path, encoding="utf-8") as f:
        data = yaml.safe_load(f)
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a YAML mapping at the top level")
    for key in data:
        if key not in _TOP_KEYS:
            raise ConfigError(f"unknown key: {key}")
    for key in ("src", "tgt", "workdir"):
        if not data.get(key):
            raise ConfigError(f"missing required key: {key}")

    aligner_keys = {"iterations", "tension", "p0", "vb", "alpha", "heuristic"}
    linker_keys = {"mode", "gazetteer", "hypernyms", "endpoint", "confidence"}
    tagging_keys = {"methods", "vocab", "min_count"}

    a = _section(data, "aligner", aligner_keys)
    aligner = AlignerParams(
        iterations=int(a.get("iterations", 5)),
        tension=float(a.get("tension", 4.0)),
        p0=float(a.get("p0", 0.08)),
        vb=bool(a.get("vb", False)),
        alpha=float(a.get("alpha", 0.01)),
        heuristic=str(a.get("heuristic", "grow-diag-final-and")),
    )
    if aligner.heuristic not in HEURISTICS:
        raise ConfigError(f"aligner.heuristic: unknown heuristic {aligner.heuristic!r}")

    lk = _section(data, "linker", linker_keys)
    linker = LinkerParams(
        mode=str(lk.get("mode", "gazetteer")),
        gazetteer=lk.get("gazetteer"),
        hypernyms=lk.get("hypernyms"),
        endpoint=os.environ.get("LINKER_ENDPOINT") or lk.get("endpoint"),
        confidence=float(lk.get("confidence", 0.5)),
    )
    check_linker(linker)

    tg = _section(data, "tagging", tagging_keys)
    methods = [parse_method(m) for m in tg.get("methods", [m.value for m in TAGGED_METHODS])]
    vocab = parse_vocab(tg.get("vocab"))

    cfg = PipelineConfig(
        src=str(data["src"]),
        tgt=str(data["tgt"]),
        workdir=str(data["workdir"]),
        src_lang=str(data.get("src_lang", "src")),
        tgt_lang=str(data.get("tgt_lang", "tgt")),
        seed=int(data.get("seed", 0)),
        profile=NormProfile(
            lowercase=bool(data.get("lowercase", True)),
            strip_accents=bool(data.get("strip_accents", True)),
        ),
        aligner=aligner,
        linker=linker,
        methods=methods,
        vocab=vocab,
        min_count=int(tg.get("min_count", 1)),
    )

    for key, value in (("src", cfg.src), ("tgt", cfg.tgt)):
        if not os.path.exists(value):
            raise ConfigError(f"{key}: no such file: {value}")
    for key, value in (("linker.gazetteer", linker.gazetteer), ("linker.hypernyms", linker.hypernyms)):
        if value and not os.path.exists(value):
            raise ConfigError(f"{key}: no such file: {value}")
    return cfg
