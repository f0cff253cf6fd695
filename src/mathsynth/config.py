"""The run configuration: one frozen dataclass tree, parsed strictly from JSON.

Each section is the dataclass its stage takes (PairingConfig, SynthesisConfig,
GateConfig, ProviderConfig), so a key's default and its checks are written
once, on that dataclass. load_run_config checks every JSON value against the
annotations and builds the whole tree at load, so an unknown key, a wrong type
or an out-of-range value is a ConfigError naming its dotted path before any
stage runs.
"""
from __future__ import annotations

import dataclasses
import json
import types
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Union, get_args, get_origin, get_type_hints

from . import jsonl
from .pairing import PairingConfig
from .providers import ProviderConfig
from .solver import GateConfig
from .synthesis import SynthesisConfig


class ConfigError(ValueError):
    """The run configuration file is missing, malformed, or inconsistent."""


@dataclass(frozen=True)
class CorpusEntry:
    """One seed corpus file and the tag its artifacts are filed under."""

    path: str
    tag: str | None = None

    def __post_init__(self) -> None:
        if not Path(self.path).exists():
            raise ValueError(f"path not found: {self.path}")
        if not self.name.replace("-", "").replace("_", "").isalnum():
            raise ValueError(f"tag must be filesystem-safe, got {self.name!r}")
        if self.name in ("all", "blended"):  # the stats total row; artifacts/blended/
            raise ValueError(f"tag must not be the reserved name {self.name!r}")

    @property
    def name(self) -> str:
        """The tag, or the file stem when no tag is given."""
        return Path(self.path).stem if self.tag is None else self.tag


@dataclass(frozen=True)
class QualityConfig:
    sample_rate: float = 0.10
    review_seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.sample_rate <= 1.0:
            raise ValueError(f"sample_rate must be in (0, 1], got {self.sample_rate}")


@dataclass(frozen=True)
class CurriculumConfig:
    grouping: int = 2
    use_scores: bool = False
    blend: bool = False
    allow_empty: bool = False

    def __post_init__(self) -> None:
        if self.grouping < 1:
            raise ValueError(f"grouping must be at least 1, got {self.grouping}")


@dataclass(frozen=True)
class RunConfig:
    """The whole run configuration; each field is one key of the JSON file."""

    seed_corpora: tuple[CorpusEntry, ...] = ()
    out_dir: str = "run"
    seed: int = 0
    pairing: PairingConfig = PairingConfig()
    synthesis: SynthesisConfig = SynthesisConfig()
    quality: QualityConfig = QualityConfig()
    solver: GateConfig = GateConfig()
    curriculum: CurriculumConfig = CurriculumConfig()
    providers: ProviderConfig = ProviderConfig()

    def __post_init__(self) -> None:
        if not self.seed_corpora:
            raise ValueError("seed_corpora must list at least one {path, tag} entry")
        tags = [entry.name for entry in self.seed_corpora]
        if len(set(tags)) != len(tags):
            raise ValueError(f"seed_corpora tags must be unique, got {tags}")


def load_run_config(path: str | Path) -> RunConfig:
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    try:
        loaded = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError) as exc:  # a directory, unreadable, not UTF-8
        raise ConfigError(f"{path}: cannot read: {exc}") from None
    except ValueError as exc:  # a JSONDecodeError, or an integer too long to convert
        raise ConfigError(f"{path}: invalid JSON: {exc}") from None
    try:
        return _parse(RunConfig, loaded, "")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from None


def _parse(tp: Any, value: Any, path: str) -> Any:
    """`value`, decoded from JSON, checked against the annotation `tp` and built into it.

    A dataclass's own ValueError (its range checks) is re-raised as a
    ConfigError prefixed with the dataclass's path; its messages start with
    the field name, so the result reads as a dotted path.
    """
    if dataclasses.is_dataclass(tp):
        if not isinstance(value, dict):
            raise ConfigError(f"{path or 'config'} must be a JSON object")
        prefix = f"{path}." if path else ""
        fields = {f.name: f for f in dataclasses.fields(tp)}
        unknown = sorted(prefix + key for key in value if key not in fields)
        if unknown:
            raise ConfigError(f"unknown config keys: {unknown}")
        for name, f in fields.items():
            if name not in value and f.default is f.default_factory is dataclasses.MISSING:
                raise ConfigError(f"{prefix}{name} is required")
        hints = get_type_hints(tp)
        kwargs = {key: _parse(hints[key], item, prefix + key) for key, item in value.items()}
        try:
            return tp(**kwargs)
        except ValueError as exc:
            raise ConfigError(prefix + str(exc)) from None
    if get_origin(tp) in (Union, types.UnionType):  # `X | None`
        return None if value is None else _parse(get_args(tp)[0], value, path)
    if get_origin(tp) is tuple:  # `tuple[X, ...]`
        if not isinstance(value, list):
            raise ConfigError(f"{path} must be a JSON array, got {value!r}")
        return tuple(_parse(get_args(tp)[0], item, f"{path}[{i}]") for i, item in enumerate(value))
    try:
        jsonl.check(value, tp, path)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    # An integral number is kept as given (a float field may hold 1), so the
    # config copy and the request payloads show it as the file wrote it.
    return value
