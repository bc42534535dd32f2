"""Model / training configuration and the named preset grid."""

from __future__ import annotations

import math
import re
from dataclasses import asdict, dataclass, replace

from .controller import Strategy
from .errors import ConfigError

VISUAL_MODULES = ("object", "attribute", "relation")
FULL_MODULES = VISUAL_MODULES + ("function",)

STRATEGIES = tuple(s.value for s in Strategy)

# Values no run varies.  Training reads its constants as ``config.NAME``,
# so a test patches each in one place.  The decoder units stack
# residually, so the units' LSTM width is the value width ``d_v``.
LEAKY_SLOPE = 0.01      # negative slope of the encoders' and function module's LeakyReLU
LAMBDA_XE = 1.0         # weight of the word-class term in the cross-entropy epochs
LAMBDA_RL = 0.5         # and in the self-critical epochs
# Self-critical updates at the full rate undo converged models; the usual
# remedy is a much smaller step for the fine-tuning phase.
RL_LR_SCALE = 0.1
LR_DECAY = 0.8          # the learning rate is multiplied by LR_DECAY
DECAY_EVERY = 5         # once every DECAY_EVERY epochs
GRAD_CLIP = 5.0         # cap on the global gradient norm of an update

# the training settings version-1 metas store, at the values they must hold
_RETIRED_TRAIN = {"lambda_xe": LAMBDA_XE, "lambda_rl": LAMBDA_RL, "rl_lr_scale": RL_LR_SCALE,
                  "lr_decay": LR_DECAY, "decay_every": DECAY_EVERY, "grad_clip": GRAD_CLIP}


def _drop_retired(d, fixed: dict) -> dict:
    """A stored configuration without the keys of retired settings, which
    version-1 metas still carry; each must hold its fixed value."""
    if not isinstance(d, dict):
        raise TypeError(f"a stored configuration is a JSON object, not {type(d).__name__}")
    d = dict(d)
    for key, value in fixed.items():
        if key in d:
            got = d.pop(key)
            if isinstance(got, bool) or got != value:
                raise ConfigError(f"{key} is no longer a setting and must be {value!r}, "
                                  f"got {got!r}")
    return d


@dataclass
class ModelConfig:
    vocab_size: int
    d_r: int = 64
    d_v: int = 32
    d_a: int = 16
    heads: int = 4
    m_units: int = 2
    strategy: str = "soft"
    modules: tuple = FULL_MODULES
    gumbel_tau: float = 1.0

    def __post_init__(self):
        self.modules = tuple(self.modules)

    def validate(self) -> None:
        for name in ("d_r", "d_v", "d_a", "heads"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be positive, got {getattr(self, name)}")
        if self.vocab_size < 5:
            raise ConfigError(f"vocab_size={self.vocab_size} leaves no room for real words")
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

    @property
    def single_module(self) -> str | None:
        return self.modules[0] if len(self.modules) == 1 else None

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        d_v = d.get("d_v", cls.d_v) if isinstance(d, dict) else None
        return cls(**_drop_retired(d, {"d_c": d_v, "leaky_slope": LEAKY_SLOPE}))


@dataclass
class TrainConfig:
    xe_epochs: int = 8
    rl_epochs: int = 4
    batch_size: int = 16
    lr: float = 5e-4
    linguistic: bool = True
    seed: int = 0
    max_len: int = 16
    # at most this many gold captions per training scene, for all of the run
    few_shot: int | None = None

    def validate(self) -> None:
        if self.xe_epochs < 0 or self.rl_epochs < 0:
            raise ConfigError("epoch counts cannot be negative")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be positive, got {self.batch_size}")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be finite and positive, got {self.lr}")
        if self.max_len < 2:
            raise ConfigError(f"max_len={self.max_len} cannot fit a word and the end token")
        if self.few_shot is not None and not (
                isinstance(self.few_shot, int) and self.few_shot >= 1):
            raise ConfigError(f"few_shot must be an integer >= 1, got {self.few_shot!r}")

    def lr_at(self, epoch: int) -> float:
        return self.lr * LR_DECAY ** (epoch // DECAY_EVERY)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        return cls(**_drop_retired(d, _RETIRED_TRAIN))


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

# preset -> (modules, strategy, word-class loss), on one unit; the _DEEP
# ones take their unit count M after a "#": Module/O#M and CNM#M
_PRESETS = {
    "Module/O": (("object",), "soft", False),
    "Module/A": (("attribute",), "soft", False),
    "Module/R": (("relation",), "soft", False),
    "Col/1": (FULL_MODULES, "uniform", False),
    "Col/S": (FULL_MODULES, "soft", False),
    "Col/H": (FULL_MODULES, "hard", False),
    "Col/S+L": (FULL_MODULES, "soft", True),
    "Col/H+L": (FULL_MODULES, "hard", True),
}
_DEEP = {"Module/O": _PRESETS["Module/O"], "CNM": (FULL_MODULES, "soft", True)}


def apply_preset(name: str, model_cfg: ModelConfig, train_cfg: TrainConfig):
    """Return fresh configs with the preset's modules, strategy, unit count
    and word-class loss applied."""
    m = re.fullmatch(r"(Module/O|CNM)#(\d+)", name)
    if m:
        (modules, strategy, linguistic), m_units = _DEEP[m.group(1)], int(m.group(2))
    elif name in _PRESETS:
        (modules, strategy, linguistic), m_units = _PRESETS[name], 1
    else:
        raise ConfigError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_GRID)} "
                          "plus Module/O#M and CNM#M for any M")
    model_cfg = replace(model_cfg, modules=modules, strategy=strategy, m_units=m_units)
    train_cfg = replace(train_cfg, linguistic=linguistic)
    validate_run(model_cfg, train_cfg)
    return model_cfg, train_cfg
