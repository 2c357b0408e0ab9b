"""Experiment configuration: dataclasses, JSON loading, strict validation.

Unknown fields are rejected with their full path so a typo in a config
file fails loudly instead of silently running defaults.
"""

from __future__ import annotations

import dataclasses
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

from .adapters import AdapterHyperparams
from .errors import BranchclError, ConfigError

ALL_METHODS = ("zero_shot", "lora", "moelora", "branchlora", "multitask")


@dataclass(frozen=True)
class StreamConfig:
    tasks: int = 4
    train_samples: int = 512
    test_samples: int = 256
    dim: int = 32
    classes: int = 8
    separation: float = 6.0
    noise: float = 1.0


@dataclass(frozen=True)
class AdapterConfig:
    rank: int = 16
    alpha: float = 32.0
    experts: int = 4
    top_k: int = 2
    align_weight: float = 1.0
    freeze_width: int = 1
    freeze_by: str = "mass"  # or "count": freeze by selection frequency
    layers: int = 2

    def hyperparams(self) -> AdapterHyperparams:
        return AdapterHyperparams(
            rank=self.rank,
            alpha=self.alpha,
            experts=self.experts,
            top_k=self.top_k,
            align_weight=self.align_weight,
        )


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 30
    batch_size: int = 32
    lr: float = 0.003
    optimizer: str = "adam"


@dataclass(frozen=True)
class ExperimentConfig:
    stream: StreamConfig = field(default_factory=StreamConfig)
    adapter: AdapterConfig = field(default_factory=AdapterConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    methods: tuple[str, ...] = ALL_METHODS
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    out_dir: str | None = None


_SECTIONS = {"stream": StreamConfig, "adapter": AdapterConfig, "train": TrainConfig}


def _coerce(value, target, path: str):
    if target is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{path}: expected an integer, got {value!r}")
        return value
    if target is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{path}: expected a number, got {value!r}")
        return float(value)
    if target is str:
        if not isinstance(value, str):
            raise ConfigError(f"{path}: expected a string, got {value!r}")
        return value
    raise ConfigError(f"{path}: unsupported value {value!r}")


def _build_section(cls, obj, path: str):
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object, got {type(obj).__name__}")
    fields = {f.name: f for f in dataclasses.fields(cls)}
    kwargs = {}
    for key, value in obj.items():
        if key not in fields:
            raise ConfigError(f"{path}.{key}: unknown field")
        fpath = f"{path}.{key}"
        if fields[key].type in ("int", int):
            kwargs[key] = _coerce(value, int, fpath)
        elif fields[key].type in ("float", float):
            kwargs[key] = _coerce(value, float, fpath)
        else:
            kwargs[key] = _coerce(value, str, fpath)
    return cls(**kwargs)


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"config root: expected an object, got {type(obj).__name__}")
    known = set(_SECTIONS) | {"methods", "seeds", "out_dir"}
    for key in obj:
        if key not in known:
            raise ConfigError(f"{key}: unknown field")
    sections = {}
    for name, cls in _SECTIONS.items():
        sections[name] = _build_section(cls, obj.get(name, {}), name)

    methods = obj.get("methods", list(ALL_METHODS))
    if not isinstance(methods, list) or not methods:
        raise ConfigError("methods: expected a non-empty list")
    for i, m in enumerate(methods):
        if m not in ALL_METHODS:
            raise ConfigError(f"methods[{i}]: unknown method {m!r}, valid: {list(ALL_METHODS)}")
    if len(set(methods)) != len(methods):
        raise ConfigError("methods: duplicate entries")

    seeds = obj.get("seeds", [0, 1, 2, 3, 4])
    if not isinstance(seeds, list) or not seeds:
        raise ConfigError("seeds: expected a non-empty list")
    seeds = [_coerce(s, int, f"seeds[{i}]") for i, s in enumerate(seeds)]

    out_dir = obj.get("out_dir")
    if out_dir is not None and not isinstance(out_dir, str):
        raise ConfigError(f"out_dir: expected a string, got {out_dir!r}")

    cfg = ExperimentConfig(
        stream=sections["stream"],
        adapter=sections["adapter"],
        train=sections["train"],
        methods=tuple(methods),
        seeds=tuple(seeds),
        out_dir=out_dir,
    )
    validate_config(cfg)
    return cfg


def validate_config(cfg: ExperimentConfig) -> None:
    """Raise ConfigError naming the first field out of its range.

    JSON's ``NaN`` and ``Infinity`` parse as floats, so each float field's
    range is written so that a NaN, which fails every comparison, and the
    infinities fall outside it.
    """
    s, a, t = cfg.stream, cfg.adapter, cfg.train
    if s.tasks < 1:
        raise ConfigError(f"stream.tasks: must be >= 1, got {s.tasks}")
    if s.dim < 2 or s.dim % 2 != 0:
        raise ConfigError(f"stream.dim: must be even and >= 2, got {s.dim}")
    if s.classes < 2:
        raise ConfigError(f"stream.classes: must be >= 2, got {s.classes}")
    if s.train_samples < s.classes or s.test_samples < s.classes:
        raise ConfigError(
            f"stream.train_samples/test_samples: must cover {s.classes} classes, "
            f"got {s.train_samples}/{s.test_samples}"
        )
    if not 0 < s.noise < math.inf:
        raise ConfigError(f"stream.noise: must be positive and finite, got {s.noise}")
    if not 0 <= s.separation < math.inf:
        raise ConfigError(f"stream.separation: must be >= 0 and finite, got {s.separation}")
    try:
        a.hyperparams()
    except BranchclError as err:
        raise ConfigError(f"adapter: {err}") from err
    if a.layers < 1:
        raise ConfigError(f"adapter.layers: must be >= 1, got {a.layers}")
    if not 0 <= a.freeze_width <= a.experts:
        raise ConfigError(
            f"adapter.freeze_width: must lie in [0, {a.experts}], got {a.freeze_width}"
        )
    if a.freeze_by not in ("mass", "count"):
        raise ConfigError(f"adapter.freeze_by: must be 'mass' or 'count', got {a.freeze_by!r}")
    if t.epochs < 1:
        raise ConfigError(f"train.epochs: must be >= 1, got {t.epochs}")
    if t.batch_size < 1:
        raise ConfigError(f"train.batch_size: must be >= 1, got {t.batch_size}")
    if not 0 < t.lr < math.inf:
        raise ConfigError(f"train.lr: must be positive and finite, got {t.lr}")
    if t.optimizer not in ("adam", "sgd"):
        raise ConfigError(f"train.optimizer: must be 'adam' or 'sgd', got {t.optimizer!r}")
    for i, seed in enumerate(cfg.seeds):
        if seed < 0:
            raise ConfigError(f"seeds[{i}]: must be >= 0, got {seed}")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        raise ConfigError("seeds: duplicate entries")


def load_config(path: str | Path) -> ExperimentConfig:
    path = Path(path)
    try:
        text = path.read_text()
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"config {path} is not valid JSON: {err.msg} at line {err.lineno} column {err.colno}"
        ) from err
    return config_from_dict(obj)


def config_to_dict(cfg: ExperimentConfig) -> dict:
    return {
        "stream": dataclasses.asdict(cfg.stream),
        "adapter": dataclasses.asdict(cfg.adapter),
        "train": dataclasses.asdict(cfg.train),
        "methods": list(cfg.methods),
        "seeds": list(cfg.seeds),
        "out_dir": cfg.out_dir,
    }
