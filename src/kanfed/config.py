"""Experiment configuration with a flat dotted-key text format.

Defaults are the full experiment settings (100 rounds, 15 trials per model,
10% participation, SGD lr 0.1 momentum 0.9). The `desk` preset shrinks the
trial count and round count so a complete comparison fits on a CPU.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from .data import N_CLASSES
from .errors import ConfigurationError
from .federation import FederationConfig
from .models import MODEL_KINDS


@dataclass
class ExperimentConfig:
    models: tuple[str, ...] = ("mlp", "spline_kan", "rbf_kan")
    trials_per_model: int = 15
    master_seed: int = 42
    data_dir: str = "data"
    out_dir: str = "runs"
    n_clients: int = 100
    labels_per_client: int = 2
    fed: FederationConfig = field(default_factory=FederationConfig)

    def __post_init__(self):
        if not self.models or len(set(self.models)) != len(self.models):
            raise ConfigurationError(
                f"models must be one or more distinct kinds, got {','.join(self.models)!r}")
        for m in self.models:
            if m not in MODEL_KINDS:
                raise ConfigurationError(f"unknown model kind {m!r}")
        for name in ("trials_per_model", "n_clients"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if not 1 <= self.labels_per_client <= N_CLASSES:
            raise ConfigurationError(
                f"labels_per_client must be in [1, {N_CLASSES}], got {self.labels_per_client}")


def desk_preset(cfg: ExperimentConfig) -> ExperimentConfig:
    """CPU-sized preset: 3 trials per model, 30 rounds, everything else as-is."""
    return replace(cfg, trials_per_model=3, fed=replace(cfg.fed, n_rounds=30))


def derive_trial_seed(master_seed: int, model: str, trial_index: int) -> int:
    """Stable per-trial seed; each trial is reproducible on its own."""
    digest = hashlib.sha256(f"{master_seed}/{model}/{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _values(cfg: ExperimentConfig) -> dict:
    """Every setting by its dotted key, in field order, `fed` last."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "fed"}
    out.update({f"fed.{f.name}": getattr(cfg.fed, f.name) for f in fields(cfg.fed)})
    return out


def dump_config(cfg: ExperimentConfig) -> str:
    return "".join(
        f"{key} = {','.join(value) if isinstance(value, tuple) else value}\n"
        for key, value in _values(cfg).items()
    )


def differing_keys(a: str, b: str) -> list[str]:
    """Keys whose values differ between two `dump_config` texts, sorted."""
    da, db = (dict(line.partition(" = ")[::2] for line in t.splitlines()) for t in (a, b))
    return sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))


# coercion of each value, from the type of its default
_TYPES = {key: type(value) for key, value in _values(ExperimentConfig()).items()}


def load_config(text: str) -> ExperimentConfig:
    top: dict = {}
    fed: dict = {}
    seen: dict[str, int] = {}  # line number of each key
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, _, raw = line.partition("=")
        key, raw = key.strip(), raw.strip().strip("'\"")
        convert = _TYPES.get(key)
        if convert is None:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"config lines {seen[key]} and {lineno} both set {key}")
        seen[key] = lineno
        if convert is tuple:
            value = tuple(m.strip() for m in raw.split(",") if m.strip())
        else:
            try:
                value = convert(raw)
            except ValueError:
                raise ConfigurationError(
                    f"config line {lineno}: {key} = {raw!r} is not a valid {convert.__name__}"
                ) from None
        if key.startswith("fed."):
            fed[key[4:]] = value
        else:
            top[key] = value
    return ExperimentConfig(fed=FederationConfig(**fed), **top)


def load_config_file(path) -> ExperimentConfig:
    return load_config(Path(path).read_text())
