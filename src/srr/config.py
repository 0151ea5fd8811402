"""Run configuration: nested schema, presets, canonical JSON, and hashing.

The config is a plain dataclass tree.  ``from_dict`` is strict (unknown keys
and values that do not fit a field's annotation are errors), each section
checks its fields against the intervals they declare with ``_in``, and
``config_hash`` fingerprints the sorted JSON of everything except the output
directory so that two runs of the same experiment into different folders
share a hash.
"""

from __future__ import annotations

import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any

from .errors import ConfigError
from .market_data import is_iso_date

__all__ = [
    "DataConfig", "PeriodConfig", "FeatureConfig", "LabelConfig", "GraphConfig",
    "ModelConfig", "SplitConfig", "EvaluateConfig", "Config",
    "PRESETS", "MODEL_KINDS", "load_config", "config_hash",
]

MODEL_KINDS = ("logistic", "forest", "gcn", "temporal")

PRESETS = {
    "dotcom": ("1998-01-01", "2003-12-31"),
    "gfc": ("2006-01-01", "2011-12-31"),
    "covid": ("2018-01-01", "2021-12-31"),
}


def _fits(value: Any, hint) -> bool:
    """Whether a JSON value (lists already tuples) fits a field annotation; an
    int may stand for a float, a bool for neither."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _dataclass_from(cls, data: Any, section: str = ""):
    """``cls`` built from a decoded JSON mapping, recursing into the fields
    typed as dataclasses (a null section keeps its defaults)."""
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a mapping" if section
                          else "config root must be a mapping")
    unknown = sorted(set(data) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section or 'config'}': {', '.join(unknown)}")
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for f in fields(cls):
        if f.name not in data:
            continue
        value, hint = data[f.name], hints[f.name]
        key = f"{section}.{f.name}" if section else f.name
        if is_dataclass(hint):
            if value is not None:
                kwargs[f.name] = _dataclass_from(hint, value, f.name)
            continue
        if isinstance(value, list):
            value = tuple(value)
        if not _fits(value, hint):
            raise ConfigError(f"{key} must be {f.type}, got {data[f.name]!r}")
        kwargs[f.name] = value
    return cls(**kwargs)


def _in(default, interval: str):
    """A field with ``default`` whose value must lie in ``interval``, written
    like ``"(0, 1]"``; ``inf`` as a bound refuses infinity, and NaN lies in none."""
    return field(default=default, metadata={"in": interval})


class _Ranged:
    """A config section whose ``__post_init__`` checks each ``_in`` field."""

    def __init_subclass__(cls, section: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._prefix = f"{section}." if section else ""

    def __post_init__(self):
        for f in fields(self):
            if "in" in f.metadata:
                interval, value = f.metadata["in"], getattr(self, f.name)
                low, high = map(float, interval[1:-1].split(","))
                if not ((low < value if interval[0] == "(" else low <= value)
                        and (value < high if interval[-1] == ")" else value <= high)):
                    raise ConfigError(f"{self._prefix}{f.name} must lie in {interval}, got {value}")


@dataclass(frozen=True)
class DataConfig:
    prices_csv: str | None = None
    universe_csv: str | None = None
    tickers: tuple[str, ...] | None = None
    macro_csv: str | None = None

    def __post_init__(self):  # an empty list would select every ticker
        if self.tickers is not None and not self.tickers:
            raise ConfigError("data.tickers must name at least one ticker, or be left out")


@dataclass(frozen=True)
class PeriodConfig:
    preset: str | None = None
    start: str | None = None
    end: str | None = None

    def __post_init__(self):
        if self.preset is not None and self.preset not in PRESETS:
            raise ConfigError(
                f"unknown period preset '{self.preset}'; "
                f"expected one of {', '.join(sorted(PRESETS))}")
        for name in ("start", "end"):
            value = getattr(self, name)
            if value is not None and self.preset is not None:
                raise ConfigError(f"period.{name} cannot be set together with period.preset")
            if value is not None and not is_iso_date(value):
                raise ConfigError(f"period.{name} must be a YYYY-MM-DD date, got {value!r}")
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ConfigError(f"period.start {self.start} is after period.end {self.end}")

    def resolve(self) -> tuple[str | None, str | None]:
        return PRESETS[self.preset] if self.preset is not None else (self.start, self.end)


@dataclass(frozen=True)
class FeatureConfig:
    vol_windows: tuple[int, ...] = (20, 60)
    dd_windows: tuple[int, ...] = (20, 60)
    momentum_windows: tuple[int, ...] = (10, 30)
    standardize: bool = True

    def __post_init__(self):
        # a volatility window needs two returns for its sample std
        for name, low in (("vol_windows", 2), ("dd_windows", 1), ("momentum_windows", 1)):
            windows = getattr(self, name)
            if not windows or min(windows) < low or len(set(windows)) < len(windows):
                raise ConfigError(f"features.{name} must list distinct windows >= {low}, "
                                  f"got {list(windows)}")


@dataclass(frozen=True)
class LabelConfig(_Ranged, section="labels"):
    threshold: float = _in(0.10, "(0, 1)")
    horizon: int = _in(60, "[1, inf)")


@dataclass(frozen=True)
class GraphConfig(_Ranged, section="graph"):
    window: int = _in(7, "[3, inf)")
    tau: float = _in(0.5, "(0, 1]")
    sector_layer: bool = False
    weighted_adjacency: bool = False

    @property
    def layers(self) -> tuple[str, ...]:
        """Edge layers the graph kinds read (and the graphs stage writes)."""
        return ("correlation", "sector") if self.sector_layer else ("correlation",)


@dataclass(frozen=True)
class ModelConfig(_Ranged, section="model"):
    kinds: tuple[str, ...] = MODEL_KINDS
    gcn_hidden: int = _in(32, "[1, inf)")
    mlp_hidden: int = _in(16, "[1, inf)")
    gru_hidden: int = _in(64, "[1, inf)")
    sequence_length: int = _in(5, "[1, inf)")
    stride: int = _in(5, "[1, inf)")
    epochs: int = _in(50, "[0, inf)")
    batch_size: int = _in(8, "[1, inf)")
    learning_rate: float = _in(1e-3, "(0, inf)")
    loss: str = "bce"
    focal_gamma: float = _in(2.0, "[0, inf)")
    logistic_lr: float = _in(0.05, "(0, inf)")
    logistic_epochs: int = _in(2000, "[0, inf)")
    logistic_tol: float = _in(1e-6, "[0, inf)")
    forest_trees: int = _in(50, "[1, inf)")
    forest_max_depth: int = _in(6, "[0, inf)")
    forest_min_leaf: int = _in(2, "[1, inf)")

    def __post_init__(self):
        super().__post_init__()
        for kind in self.kinds:
            if kind not in MODEL_KINDS:
                raise ConfigError(
                    f"unknown model kind '{kind}'; expected one of {', '.join(MODEL_KINDS)}")
        if not self.kinds or len(set(self.kinds)) < len(self.kinds):
            raise ConfigError(
                f"model.kinds must list one or more distinct kinds, got {list(self.kinds)}")
        if self.loss not in ("bce", "focal"):
            raise ConfigError(f"model.loss must be 'bce' or 'focal', got '{self.loss}'")


@dataclass(frozen=True)
class SplitConfig(_Ranged, section="split"):
    ratio: float = _in(0.8, "(0, 1)")


@dataclass(frozen=True)
class EvaluateConfig(_Ranged, section="evaluate"):
    threshold: float = _in(0.5, "[0, 1]")
    warn_gamma: float = _in(0.5, "[0, 1]")


@dataclass(frozen=True)
class Config(_Ranged):
    data: DataConfig = field(default_factory=DataConfig)
    period: PeriodConfig = field(default_factory=PeriodConfig)
    features: FeatureConfig = field(default_factory=FeatureConfig)
    labels: LabelConfig = field(default_factory=LabelConfig)
    graph: GraphConfig = field(default_factory=GraphConfig)
    model: ModelConfig = field(default_factory=ModelConfig)
    split: SplitConfig = field(default_factory=SplitConfig)
    evaluate: EvaluateConfig = field(default_factory=EvaluateConfig)
    seed: int = _in(7, "[0, inf)")
    out: str = "srr_out"

    def __post_init__(self):
        super().__post_init__()
        if not self.out:
            raise ConfigError("out must be a non-empty path string")

    @classmethod
    def from_dict(cls, data: dict) -> "Config":
        return _dataclass_from(cls, data)


def config_hash(cfg: Config) -> str:
    payload = asdict(cfg)  # tuples stay tuples, which JSON writes as lists
    del payload["out"]
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"), allow_nan=False)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_config(path: str | None, *, seed: int | None = None,
                preset: str | None = None, out: str | None = None) -> Config:
    """Read a JSON config file (optional), apply CLI overrides, and validate."""
    raw: Any = {}
    if path is not None:
        try:
            with open(path, "r", encoding="utf-8-sig") as fh:
                raw = json.load(fh)
        except FileNotFoundError as exc:
            raise ConfigError(f"config file not found: {path}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        except (OSError, UnicodeDecodeError) as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    overrides = {"seed": seed, "out": out,
                 "period": None if preset is None else {"preset": preset}}
    if isinstance(raw, dict):
        raw = {**raw, **{k: v for k, v in overrides.items() if v is not None}}
    return Config.from_dict(raw)
