"""Declarative pipeline configuration: one INI-style file with nested
sections, strict key checking, and explicit seeds.  Command-line flags
override file values; defaults follow the standard experiment setup
({3,5,7,9} x {50,100,300,500} grid, 39-wide bottleneck, context +/-4).
"""

from __future__ import annotations

import configparser
import io
import math
import types
import typing
from dataclasses import dataclass, field, fields, is_dataclass, replace

from .corpus import FeatureConfig, SynthSpec
from .initialization import InitConfig
from .labels import open_text
from .mdnn import MdnnConfig
from .reinforce import ReinforceConfig
from .retrieval import valid_fusion_weights
from .tokenizer import GranularityGrid, TokenizerConfig


@dataclass
class RetrievalConfig:
    mode: str = "token"           # token | frame | fusion
    queries: tuple[str, ...] = () # utterance ids used as spoken queries
    weights: tuple[float, ...] = () # fusion weights: token, then frame

    def __post_init__(self):
        if self.mode not in ("token", "frame", "fusion"):
            raise ValueError(f"mode must be token, frame or fusion, got {self.mode!r}")
        repeated = sorted({q for q in self.queries if self.queries.count(q) > 1})
        if repeated:
            raise ValueError(f"queries: {' '.join(repeated)} listed more than once")
        if self.weights and len(self.weights) != 2:
            raise ValueError(f"weights: expected two values (token, then frame), "
                             f"got {len(self.weights)}")
        if self.weights and not valid_fusion_weights(self.weights):
            raise ValueError(f"weights must be non-negative with a positive sum, "
                             f"got {list(self.weights)}")


@dataclass
class PipelineConfig:
    out: str = "runs/default"
    seed: int = 0
    iterations: int = 1
    mr_rounds: int = 1
    audio_dir: str = ""
    relevance: str = ""  # path to a (query_id, doc_id, 0/1) CSV, for eval's MAP
    features: FeatureConfig = field(default_factory=FeatureConfig)
    grid: GranularityGrid = field(
        default_factory=lambda: GranularityGrid((3, 5, 7, 9), (50, 100, 300, 500))
    )
    init: InitConfig = field(default_factory=InitConfig)
    tokenizer: TokenizerConfig = field(default_factory=TokenizerConfig)
    reinforce: ReinforceConfig = field(default_factory=ReinforceConfig)
    mdnn: MdnnConfig = field(default_factory=MdnnConfig)
    retrieval: RetrievalConfig = field(default_factory=RetrievalConfig)
    synth: SynthSpec = field(default_factory=SynthSpec)

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.mr_rounds < 0:
            raise ValueError(f"mr_rounds must be >= 0, got {self.mr_rounds}")


def _parse_value(raw: str, kind, name: str):
    raw = raw.strip()
    if kind is not bool:
        try:
            value = kind(raw)
        except ValueError as err:
            raise ValueError(f"{name}: {err}") from None
        if kind is float and not math.isfinite(value):  # no setting means nan or inf
            raise ValueError(f"{name}: expected a finite number, got {raw!r}")
        return value
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError(f"{name}: expected a boolean, got {raw!r}")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


def _option_type(field_type, where: str) -> tuple[type, bool, bool]:
    """(scalar kind, is a tuple, may be None) of a config field's type."""
    hint = field_type
    optional = typing.get_origin(hint) in (typing.Union, types.UnionType)
    if optional:
        rest = [a for a in typing.get_args(hint) if a is not type(None)]
        hint = rest[0] if len(rest) == 1 else None
    many = typing.get_origin(hint) is tuple
    if many:
        kinds = set(typing.get_args(hint)) - {Ellipsis}
        hint = kinds.pop() if len(kinds) == 1 else None
    if hint not in (bool, int, float, str):
        raise TypeError(f"{where}: unsupported option type {field_type}")
    return hint, many, optional


class _Option(typing.NamedTuple):
    name: str       # dataclass field
    kind: type      # bool, int, float or str
    many: bool      # a space-separated tuple of kind
    optional: bool  # empty text means None


# fields the INI format cannot express (these keep their defaults)
_UNLISTED = {(SynthSpec, "token_sequences")}


def _schema() -> dict[str, dict[str, _Option]]:
    """Section -> INI key -> option.  [run] holds PipelineConfig's own scalar
    fields; every other section is one of its dataclass attributes."""
    hints = typing.get_type_hints(PipelineConfig)
    sections = {"run": PipelineConfig}
    sections.update((f.name, hints[f.name]) for f in fields(PipelineConfig)
                    if is_dataclass(hints[f.name]))
    schema = {}
    for section, cls in sections.items():
        hints = typing.get_type_hints(cls)
        schema[section] = {
            f.name: _Option(f.name, *_option_type(hints[f.name], f"{cls.__name__}.{f.name}"))
            for f in fields(cls)
            if (cls, f.name) not in _UNLISTED and not is_dataclass(hints[f.name])
        }
    return schema


_SCHEMA = _schema()


def load_config(path=None, text: str | None = None) -> PipelineConfig:
    """Read and validate a config file; unknown sections or keys are errors
    that name the file."""
    parser = configparser.ConfigParser()
    source = path if text is None else "<string>"
    if text is None and path is not None:
        text = open_text(path).read()
    try:
        parser.read_string(text or "", source=str(source))
    except configparser.Error as err:
        raise ValueError(f"{source}: {' '.join(str(err).split())}") from None
    cfg = PipelineConfig()
    for section in parser.sections():
        if section not in _SCHEMA:
            raise ValueError(f"{source}: unknown config section [{section}]")
        options = _SCHEMA[section]
        values = {}
        for key, raw in parser.items(section):
            if key not in options:
                raise ValueError(f"{source}: unknown option {key!r} in section [{section}]")
            opt = options[key]
            where = f"{source}: [{section}] {key}"
            if opt.many:
                values[opt.name] = tuple(_parse_value(p, opt.kind, where) for p in raw.split())
            elif raw.strip():
                values[opt.name] = _parse_value(raw, opt.kind, where)
            elif opt.optional:
                values[opt.name] = None
            # an empty scalar keeps the default
        try:  # the dataclasses' own checks run here
            if section == "run":
                cfg = replace(cfg, **values)
            else:
                setattr(cfg, section, replace(getattr(cfg, section), **values))
        except ValueError as err:
            raise ValueError(f"{source}: [{section}] {err}") from None
    return cfg


# What a stage can declare that it reads: every [run] key but out, by key, and
# every other section, by section name.  A run keeps each as its own file.
SETTINGS = (tuple(key for key in _SCHEMA["run"] if key != "out")
            + tuple(section for section in _SCHEMA if section != "run"))


def dump_config(cfg: PipelineConfig, names=None) -> str:
    """Canonical text form of the settings called names (see SETTINGS), or of
    the whole config.  Each setting's text loads on its own."""
    parser = configparser.ConfigParser()
    for section, options in _SCHEMA.items():
        obj = cfg if section == "run" else getattr(cfg, section)
        keys = [key for key in options
                if names is None or (key if section == "run" else section) in names]
        if keys:
            parser[section] = {key: _format(getattr(obj, options[key].name)) for key in keys}
    buf = io.StringIO()
    parser.write(buf)
    return buf.getvalue()


def _format(value) -> str:
    if isinstance(value, tuple):
        return " ".join(_format(v) for v in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return ""
    return str(value)
