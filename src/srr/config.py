"""Run configuration: nested schema, presets, canonical JSON, and hashing.

The config is a plain dataclass tree.  Each section checks the rules its
fields declare (the annotation, read at run time, so annotations here are not
postponed; one or more distinct tuple items; the ``_in`` interval) whether
``from_dict`` builds it, adding the unknown-key check, or Python code does.
``config_hash`` fingerprints the sorted JSON of everything except the output
directory so that two runs of one experiment into different folders share a hash.
"""

import hashlib
import json
import types
import typing
from dataclasses import asdict, dataclass, field, fields, is_dataclass
from typing import Any, Literal

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
    """Whether a value (lists already tuples) fits a field annotation; an int
    may stand for a float, a bool for neither."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is tuple:
        return isinstance(value, tuple) and all(_fits(v, args[0]) for v in value)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, a) for a in args)
    if origin is Literal:  # every allowed value is a string
        return isinstance(value, str) and value in args
    if isinstance(value, bool):
        return hint is bool
    return isinstance(value, (int, float) if hint is float else hint)


def _rule(hint) -> str:
    """A field annotation in words, a ``Literal`` as its allowed values."""
    if typing.get_origin(hint) is tuple:
        return f"a list of {_rule(typing.get_args(hint)[0])}"
    if typing.get_args(hint):  # a union or a Literal
        return " or ".join(map(_rule, typing.get_args(hint)))
    return repr(hint) if isinstance(hint, str) else "null" if hint is type(None) else hint.__name__


def _dataclass_from(cls, data: Any, section: str = ""):
    """``cls`` built from a decoded JSON mapping, recursing into the fields
    typed as sections (a null section keeps its defaults)."""
    if data is None and section:
        return cls()
    if not isinstance(data, dict):
        raise ConfigError(f"section '{section}' must be a mapping" if section
                          else "config root must be a mapping")
    hints = {f.name: f.type for f in fields(cls)}
    unknown = sorted(set(data) - set(hints))
    if unknown:
        raise ConfigError(f"unknown key(s) in '{section or 'config'}': {', '.join(unknown)}")
    return cls(**{name: _dataclass_from(hints[name], value, name)
                  if is_dataclass(hints[name]) else value for name, value in data.items()})


def _in(default, interval: str):
    """A field with ``default`` whose value (each item of a tuple) must lie in
    ``interval``, like ``"(0, 1]"``; an ``inf`` bound refuses infinity, NaN lies in none."""
    return field(default=default, metadata={"in": interval})


class _Section:
    """A config section that turns lists into tuples and checks each field's
    annotation, each tuple for one or more distinct items, and each interval."""

    def __init_subclass__(cls, section: str = "", **kwargs):
        super().__init_subclass__(**kwargs)
        cls._prefix = f"{section}." if section else ""

    def __post_init__(self):
        for f in fields(self):
            key, value = self._prefix + f.name, getattr(self, f.name)
            if isinstance(value, list):
                value = tuple(value)
                object.__setattr__(self, f.name, value)
            if not _fits(value, f.type):
                raise ConfigError(f"{key} must be {_rule(f.type)}, got {value!r}")
            if isinstance(value, tuple) and (not value or len(set(value)) < len(value)):
                raise ConfigError(f"{key} must hold one or more distinct items, got {value!r}")
            if "in" in f.metadata:
                interval = f.metadata["in"]
                low, high = map(float, interval[1:-1].split(","))
                for item in value if isinstance(value, tuple) else (value,):
                    if not ((low < item if interval[0] == "(" else low <= item)
                            and (item < high if interval[-1] == ")" else item <= high)):
                        raise ConfigError(f"{key} must lie in {interval}, got {item}")


@dataclass(frozen=True)
class DataConfig(_Section, section="data"):
    prices_csv: str | None = None
    universe_csv: str | None = None
    tickers: tuple[str, ...] | None = None
    macro_csv: str | None = None


@dataclass(frozen=True)
class PeriodConfig(_Section, section="period"):
    preset: Literal[tuple(PRESETS)] | None = None
    start: str | None = None
    end: str | None = None

    def __post_init__(self):
        super().__post_init__()
        for name, value in (("start", self.start), ("end", self.end)):
            if value is not None and self.preset is not None:
                raise ConfigError(f"period.{name} cannot be set together with period.preset")
            if value is not None and not is_iso_date(value):
                raise ConfigError(f"period.{name} must be a YYYY-MM-DD date, got {value!r}")
        if self.start is not None and self.end is not None and self.start > self.end:
            raise ConfigError(f"period.start {self.start} is after period.end {self.end}")

    def resolve(self) -> tuple[str | None, str | None]:
        return PRESETS[self.preset] if self.preset is not None else (self.start, self.end)


@dataclass(frozen=True)
class FeatureConfig(_Section, section="features"):
    # a volatility window needs two returns for its sample std
    vol_windows: tuple[int, ...] = _in((20, 60), "[2, inf)")
    dd_windows: tuple[int, ...] = _in((20, 60), "[1, inf)")
    momentum_windows: tuple[int, ...] = _in((10, 30), "[1, inf)")
    standardize: bool = True


@dataclass(frozen=True)
class LabelConfig(_Section, section="labels"):
    threshold: float = _in(0.10, "(0, 1)")
    horizon: int = _in(60, "[1, inf)")


@dataclass(frozen=True)
class GraphConfig(_Section, section="graph"):
    window: int = _in(7, "[3, inf)")
    tau: float = _in(0.5, "(0, 1]")
    sector_layer: bool = False
    weighted_adjacency: bool = False

    @property
    def layers(self) -> tuple[str, ...]:
        """Edge layers the graph kinds read (and the graphs stage writes)."""
        return ("correlation", "sector") if self.sector_layer else ("correlation",)


@dataclass(frozen=True)
class ModelConfig(_Section, section="model"):
    kinds: tuple[Literal[MODEL_KINDS], ...] = MODEL_KINDS
    gcn_hidden: int = _in(32, "[1, inf)")
    mlp_hidden: int = _in(16, "[1, inf)")
    gru_hidden: int = _in(64, "[1, inf)")
    sequence_length: int = _in(5, "[1, inf)")
    stride: int = _in(5, "[1, inf)")
    epochs: int = _in(50, "[0, inf)")
    batch_size: int = _in(8, "[1, inf)")
    learning_rate: float = _in(1e-3, "(0, inf)")
    loss: Literal["bce", "focal"] = "bce"
    focal_gamma: float = _in(2.0, "[0, inf)")
    logistic_lr: float = _in(0.05, "(0, inf)")
    logistic_epochs: int = _in(2000, "[0, inf)")
    logistic_tol: float = _in(1e-6, "[0, inf)")
    forest_trees: int = _in(50, "[1, inf)")
    forest_max_depth: int = _in(6, "[0, inf)")
    forest_min_leaf: int = _in(2, "[1, inf)")


@dataclass(frozen=True)
class SplitConfig(_Section, section="split"):
    ratio: float = _in(0.8, "(0, 1)")


@dataclass(frozen=True)
class EvaluateConfig(_Section, section="evaluate"):
    threshold: float = _in(0.5, "[0, 1]")
    warn_gamma: float = _in(0.5, "[0, 1]")


@dataclass(frozen=True)
class Config(_Section):
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
