"""Pipeline configuration.

One YAML file with a documented key set; the only environment override is
LINKER_ENDPOINT, because endpoints differ per machine while everything else
should be committed alongside the experiment.

The dataclasses are the schema: each setting's key, type and default is a
field of ``AlignerParams`` (section ``aligner``), ``LinkerParams``
(``linker``), ``corpus.NormProfile`` (top-level ``lowercase`` and
``strip_accents``) or ``PipelineConfig`` (the other top-level keys and
section ``tagging``). ``TOP_KEYS`` and ``SECTION_KEYS`` list every key
accepted, and the CLI takes its defaults from the same fields.
"""

import os
from dataclasses import dataclass, field, fields

from .align import HEURISTICS
from .corpus import NormProfile
from .errors import ConfigError, MalformedFile
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
    seed: int = 0
    profile: NormProfile = NormProfile()
    aligner: AlignerParams = field(default_factory=AlignerParams)
    linker: LinkerParams = field(default_factory=LinkerParams)
    methods: list[TemplateMethod] = field(default_factory=lambda: list(TAGGED_METHODS))
    vocab: TagVocabulary = SPECIAL_VOCAB
    min_count: int = 1


SECTION_KEYS = {
    "aligner": tuple(f.name for f in fields(AlignerParams)),
    "linker": tuple(f.name for f in fields(LinkerParams)),
    "tagging": ("methods", "vocab", "min_count"),
}
_REQUIRED = ("src", "tgt", "workdir")
TOP_KEYS = (*_REQUIRED, "seed", *(f.name for f in fields(NormProfile)), *SECTION_KEYS)


def _section(data: dict, name: str) -> dict:
    section = data.get(name) or {}
    if not isinstance(section, dict):
        raise ConfigError(f"{name}: expected a mapping")
    for key in section:
        if key not in SECTION_KEYS[name]:
            raise ConfigError(f"unknown key: {name}.{key}")
    return section


def _get(section: dict, key: str, default):
    """The value at the last part of the dotted ``key``, converted to the
    type of ``default`` (str where that is None), or ``default`` if absent.
    Only a lossless conversion is made: a bool field takes only a YAML
    boolean (``bool("false")`` is true) and no other field takes one
    (``int(True)`` is 1), an int field takes no fraction (``int(1.9)`` is
    1), and a text field only a string or a number (``str([1])`` is a
    string)."""
    value = section.get(key.rpartition(".")[2], default)
    if value is default:  # absent, or null where null is the default
        return value
    kind = str if default is None else type(default)
    lossless = ((kind is bool) == (type(value) is bool)
                and not (kind is int and isinstance(value, float) and not value.is_integer())
                and (kind is not str or isinstance(value, (str, int, float))))
    try:
        if lossless:
            return kind(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"{key}: expected {kind.__name__}, got {value!r}")


def _params(cls, section: dict, prefix: str = ""):
    """``cls`` with each field read from ``section`` by :func:`_get`."""
    return cls(**{f.name: _get(section, prefix + f.name, f.default) for f in fields(cls)})


def parse_vocab(spec) -> TagVocabulary:
    if spec is None:
        return PipelineConfig.vocab
    if spec == "special":
        return SPECIAL_VOCAB
    if spec == "plain":
        return PLAIN_VOCAB
    if isinstance(spec, dict):
        keys = [f.name for f in fields(TagVocabulary)]
        missing = set(keys) - set(spec)
        if missing:
            raise ConfigError(f"tagging.vocab: missing key(s) {sorted(missing)}")
        for key in spec:
            if key not in keys:
                raise ConfigError(f"unknown key: tagging.vocab.{key}")
        return TagVocabulary(*(_get(spec, f"tagging.vocab.{k}", "") for k in keys))
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
    # imported here, as only pipeline-run reads a config, and before the try:
    # the except clause below looks up yaml.YAMLError when open() raises
    import yaml

    try:
        with open(path, encoding="utf-8") as f:
            data = yaml.safe_load(f)
    except UnicodeDecodeError as exc:
        raise MalformedFile(f"{path}: not UTF-8 text ({exc.reason})") from None
    except yaml.YAMLError as exc:
        mark = getattr(exc, "problem_mark", None)  # a syntax error knows its line
        where = f"{path}:{mark.line + 1}" if mark else path
        raise MalformedFile(f"{where}: not YAML ({getattr(exc, 'problem', None) or exc})") from None
    if not isinstance(data, dict):
        raise ConfigError(f"{path}: expected a YAML mapping at the top level")
    for key in data:
        if key not in TOP_KEYS:
            raise ConfigError(f"unknown key: {key}")
    for key in _REQUIRED:
        if not data.get(key):
            raise ConfigError(f"missing required key: {key}")

    aligner = _params(AlignerParams, _section(data, "aligner"), "aligner.")
    if aligner.heuristic not in HEURISTICS:
        raise ConfigError(f"aligner.heuristic: unknown heuristic {aligner.heuristic!r}")
    linker = _params(LinkerParams, _section(data, "linker"), "linker.")
    linker.endpoint = os.environ.get("LINKER_ENDPOINT") or linker.endpoint
    check_linker(linker)

    tg = _section(data, "tagging")
    cfg = PipelineConfig(
        *(_get(data, key, None) for key in _REQUIRED),
        seed=_get(data, "seed", PipelineConfig.seed),
        profile=_params(NormProfile, data),
        aligner=aligner,
        linker=linker,
        vocab=parse_vocab(tg.get("vocab")),
        min_count=_get(tg, "tagging.min_count", PipelineConfig.min_count),
    )
    if "methods" in tg:
        if not isinstance(tg["methods"], list):
            raise ConfigError(f"tagging.methods: expected a list, got {tg['methods']!r}")
        cfg.methods = [parse_method(m) for m in tg["methods"]]
        if repeated := [m.value for k, m in enumerate(cfg.methods) if m in cfg.methods[:k]]:
            raise ConfigError(f"tagging.methods: method {repeated[0]!r} is listed more than once")

    for key, value in (("src", cfg.src), ("tgt", cfg.tgt)):
        if not os.path.exists(value):
            raise ConfigError(f"{key}: no such file: {value}")
    for key, value in (("linker.gazetteer", linker.gazetteer), ("linker.hypernyms", linker.hypernyms)):
        if value and not os.path.exists(value):
            raise ConfigError(f"{key}: no such file: {value}")
    return cfg
