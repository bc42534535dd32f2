"""Model / training configuration and the named preset grid."""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, field, replace

from .errors import ConfigError

VISUAL_MODULES = ("object", "attribute", "relation")
FULL_MODULES = VISUAL_MODULES + ("function",)

STRATEGIES = ("soft", "hard", "uniform")


@dataclass
class ModelConfig:
    vocab_size: int
    d_r: int = 64
    d_v: int = 32
    d_c: int = 32
    d_a: int = 16
    heads: int = 4
    m_units: int = 2
    strategy: str = "soft"
    modules: tuple = FULL_MODULES
    leaky_slope: float = 0.01
    gumbel_tau: float = 1.0

    def __post_init__(self):
        self.modules = tuple(self.modules)

    def validate(self) -> None:
        for name in ("d_r", "d_v", "d_c", "d_a", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vocab_size < 5:
            raise ConfigError(f"vocab_size={self.vocab_size} leaves no room for real words")
        if self.d_v != self.d_c:
            raise ConfigError(
                f"d_v={self.d_v} and d_c={self.d_c} must match: the unit output is "
                "added back onto the running input vector"
            )
        if self.d_r % self.heads != 0:
            raise ConfigError(f"d_r={self.d_r} is not divisible by heads={self.heads}")
        if self.m_units < 1:
            raise ConfigError(f"m_units must be at least 1, got {self.m_units}")
        if self.strategy not in STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}, pick one of {STRATEGIES}")
        if self.modules != FULL_MODULES and not (
            len(self.modules) == 1 and self.modules[0] in VISUAL_MODULES
        ):
            raise ConfigError(
                f"modules must be the full set {FULL_MODULES} or a single visual "
                f"module, got {self.modules}"
            )
        if not 0.0 < self.leaky_slope < 1.0:
            raise ConfigError(f"leaky_slope must lie in (0, 1), got {self.leaky_slope}")

    @property
    def single_module(self) -> str | None:
        return self.modules[0] if len(self.modules) == 1 else None

    def to_dict(self) -> dict:
        d = asdict(self)
        d["modules"] = list(self.modules)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d = dict(d)
        d["modules"] = tuple(d.get("modules", FULL_MODULES))
        return cls(**d)


@dataclass
class TrainConfig:
    xe_epochs: int = 8
    rl_epochs: int = 4
    batch_size: int = 16
    lr: float = 5e-4
    lr_decay: float = 0.8
    decay_every: int = 5
    lambda_xe: float = 1.0
    lambda_rl: float = 0.5
    # Self-critical updates at the full rate undo converged models; the usual
    # remedy is a much smaller step for the fine-tuning phase.
    rl_lr_scale: float = 0.1
    linguistic: bool = True
    grad_clip: float = 5.0
    seed: int = 0
    max_len: int = 16
    # at most this many gold captions per training scene in the XE epochs
    few_shot: int | None = None

    def validate(self) -> None:
        if self.xe_epochs < 0 or self.rl_epochs < 0:
            raise ConfigError("epoch counts cannot be negative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        for name in ("lr", "rl_lr_scale", "grad_clip"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ConfigError(f"{name} must be finite and positive, got {value}")
        for name in ("lambda_xe", "lambda_rl"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ConfigError(f"{name} must be finite and non-negative, got {value}")
        if not 0.0 < self.lr_decay <= 1.0:
            raise ConfigError(f"lr_decay must lie in (0, 1], got {self.lr_decay}")
        if self.decay_every < 1:
            raise ConfigError(f"decay_every must be at least 1, got {self.decay_every}")
        if self.max_len < 2:
            raise ConfigError(f"max_len={self.max_len} cannot fit a word and the end token")
        if self.few_shot is not None and not (
                isinstance(self.few_shot, int) and self.few_shot >= 1):
            raise ConfigError(f"few_shot must be an integer >= 1, got {self.few_shot!r}")

    def lr_at(self, epoch: int) -> float:
        return self.lr * self.lr_decay ** (epoch // self.decay_every)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**d)


def validate_run(model_cfg: ModelConfig, train_cfg: TrainConfig) -> None:
    model_cfg.validate()
    train_cfg.validate()
    if train_cfg.linguistic:
        if model_cfg.single_module is not None:
            raise ConfigError("the word-class loss needs the module controller; "
                              "single-module presets have none")
        if model_cfg.strategy == "uniform":
            raise ConfigError("the word-class loss is undefined under uniform weights: "
                              "there is no controller distribution to supervise")


# -- presets ----------------------------------------------------------------

# Fixed grid used by the ablation runner; #M presets generalize beyond it.
PRESET_GRID = (
    "Module/O",
    "Module/A",
    "Module/R",
    "Module/O#2",
    "Col/1",
    "Col/S",
    "Col/H",
    "Col/S+L",
    "Col/H+L",
    "CNM#2",
)

_SINGLE = {"Module/O": "object", "Module/A": "attribute", "Module/R": "relation"}
_COL = {
    "Col/1": ("uniform", False),
    "Col/S": ("soft", False),
    "Col/H": ("hard", False),
    "Col/S+L": ("soft", True),
    "Col/H+L": ("hard", True),
}


def resolve_preset(name: str) -> dict:
    """Preset name -> overrides for (modules, strategy, m_units, linguistic)."""
    if name in _SINGLE:
        return {"modules": (_SINGLE[name],), "strategy": "soft", "m_units": 1,
                "linguistic": False}
    m = re.fullmatch(r"Module/O#(\d+)", name)
    if m:
        return {"modules": ("object",), "strategy": "soft", "m_units": int(m.group(1)),
                "linguistic": False}
    if name in _COL:
        strategy, linguistic = _COL[name]
        return {"modules": FULL_MODULES, "strategy": strategy, "m_units": 1,
                "linguistic": linguistic}
    m = re.fullmatch(r"CNM#(\d+)", name)
    if m:
        return {"modules": FULL_MODULES, "strategy": "soft", "m_units": int(m.group(1)),
                "linguistic": True}
    raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_GRID)} "
                      "plus Module/O#M and CNM#M for any M")


def apply_preset(name: str, model_cfg: ModelConfig, train_cfg: TrainConfig):
    """Return fresh configs with the preset's overrides applied."""
    ov = resolve_preset(name)
    model_cfg = replace(model_cfg, modules=ov["modules"], strategy=ov["strategy"],
                        m_units=ov["m_units"])
    train_cfg = replace(train_cfg, linguistic=ov["linguistic"])
    validate_run(model_cfg, train_cfg)
    return model_cfg, train_cfg
