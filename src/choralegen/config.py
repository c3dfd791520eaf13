"""Run configuration: plain-text key=value files covering every knob.

Unknown keys are errors; missing keys take the typed configs' defaults;
'#' lines and blank lines are ignored. The whole file is checked at load,
in any line order: a value its section rejects is a ConfigError naming
the lines (and CLI flags) that set that section.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .errors import ConfigError
from .network import NetworkConfig
from .optim import GDConfig, RPropConfig
from .pianoroll import DEFAULT_STEP_FRACTION, QuantizationSpec
from .runner import GenerationConfig, TrainConfig


@dataclass(frozen=True)
class RunConfig:
    step_fraction: float = DEFAULT_STEP_FRACTION  # quarter notes per roll step
    optimizer: str = "rprop"  # or "gd"
    network: NetworkConfig = NetworkConfig()
    rprop: RPropConfig = RPropConfig()
    gd: GDConfig = GDConfig()
    train: TrainConfig = TrainConfig()
    generation: GenerationConfig = GenerationConfig()

    def __post_init__(self):
        QuantizationSpec(1, self.step_fraction)  # the grid's own step_fraction check
        if self.optimizer not in ("rprop", "gd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def optimizer_config(self) -> RPropConfig | GDConfig:
        return self.gd if self.optimizer == "gd" else self.rprop


# Config key -> (RunConfig section, field, parser); section None is a
# field of RunConfig itself. truncation_window = 0 means full BPTT.
KEYS = {
    "step_fraction": (None, "step_fraction", float),
    "optimizer": (None, "optimizer", str),
    "num_blocks": ("network", "num_blocks", int),
    "init_scale": ("network", "init_scale", float),
    "seed": ("network", "rng_seed", int),
    "learning_rate": ("gd", "learning_rate", float),
    "delta_zero": ("rprop", "delta_zero", float),
    "delta_min": ("rprop", "delta_min", float),
    "delta_max": ("rprop", "delta_max", float),
    "eta_plus": ("rprop", "eta_plus", float),
    "eta_minus": ("rprop", "eta_minus", float),
    "rprop_variant": ("rprop", "variant", str),
    "max_epochs": ("train", "max_epochs", int),
    "target_mse": ("train", "target_mse", float),
    "truncation_window": ("train", "truncation_window", lambda v: int(v) or None),
    "log_every": ("train", "log_every", int),
    "threshold": ("generation", "threshold", float),
    "seed_frames": ("generation", "seed_frames", int),
    "feedback": ("generation", "feedback", str),
    "fallback": ("generation", "fallback", str),
    "top_k": ("generation", "top_k", int),
}


def parse_run_config(text: str, flags=()) -> RunConfig:
    """Parse config text, then `flags`: (flag, (section, field, parser),
    value) triples, applied after the file's lines as if they were more."""
    settings = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        settings.append((f"line {lineno}", KEYS[key], value))
    values, origin = {}, {}  # (section, field) -> parsed value, where it was set
    for where, (section, name, parse), value in [*settings, *flags]:
        try:
            values[section, name] = parse(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None
        origin.pop((section, name), None)  # keep `origin` in order of setting
        origin[section, name] = where

    def build(base, section):
        fields = {name: v for (s, name), v in values.items() if s == section}
        try:
            return replace(base, **fields)
        except ValueError as exc:
            where = ", ".join(w for (s, _), w in origin.items() if s == section)
            raise ConfigError(f"{where}: {exc}") from None

    default = RunConfig()
    sections = {name: build(getattr(default, name), name)
                for name in ("network", "rprop", "gd", "train", "generation")}
    return build(replace(default, **sections), None)


def load_run_config(path: str | None, flags=()) -> RunConfig:
    """The config file at `path` (defaults when None), overridden by `flags`."""
    if path is None:
        return parse_run_config("", flags)
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start})") from None
    return parse_run_config(text, flags)
