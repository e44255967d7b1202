"""Experiment configuration with a flat dotted-key text format.

Defaults are the full experiment settings (100 rounds, 15 trials per model,
10% participation, SGD lr 0.1 momentum 0.9). `kanfed run --trials 3
--rounds 30` shrinks the trial and round counts so a complete comparison
fits on a CPU. A CLI flag that sets a setting stores its text under the
setting's dotted key, and `load_config` reads a file's values and the
flags' texts the same way; a flag replaces the file's line. A file value
loses one pair of matching quotes, which `dump_config` puts around a value
that starts or ends with a blank or a quote; a flag's text is read as it is.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field, fields

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
        for name in ("data_dir", "out_dir"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must be a path, got an empty one")
        if not 1 <= self.labels_per_client <= N_CLASSES:
            raise ConfigurationError(
                f"labels_per_client must be in [1, {N_CLASSES}], got {self.labels_per_client}")


def derive_trial_seed(master_seed: int, model: str, trial_index: int) -> int:
    """Stable per-trial seed; each trial is reproducible on its own."""
    digest = hashlib.sha256(f"{master_seed}/{model}/{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _values(cfg: ExperimentConfig) -> dict:
    """Every setting by its dotted key, in field order, `fed` last."""
    out = {f.name: getattr(cfg, f.name) for f in fields(cfg) if f.name != "fed"}
    out.update({f"fed.{f.name}": getattr(cfg.fed, f.name) for f in fields(cfg.fed)})
    return out


def _text(value) -> str:
    text = ",".join(value) if isinstance(value, tuple) else str(value)
    # quoted where the reader would otherwise drop a blank or quote off an end
    return f'"{text}"' if text != text.strip().strip("'\"") else text


def dump_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in _values(cfg).items())


def differing_keys(a: str, b: str) -> list[str]:
    """Keys whose values differ between two `dump_config` texts, sorted."""
    da, db = (dict(line.partition(" = ")[::2] for line in t.splitlines()) for t in (a, b))
    return sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))


# coercion of each value, from the type of its default
_TYPES = {key: type(value) for key, value in _values(ExperimentConfig()).items()}


def _value(key: str, text: str, where: str = ""):
    convert = _TYPES[key]
    if convert is tuple:
        return tuple(m.strip() for m in text.split(",") if m.strip())
    try:
        return convert(text)
    except ValueError:
        raise ConfigurationError(
            f"{where}{key} = {text!r} is not a valid {convert.__name__}") from None


def load_config(text: str = "", flags: dict | None = None) -> ExperimentConfig:
    """The config that a file's text and the flags set, checked as a whole.

    `flags` maps dotted keys to a flag's text, None where the flag is absent,
    as argparse's values by dest do; names that are not keys are ignored.
    """
    values: dict = {}
    seen: dict[str, int] = {}  # line number of each key
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):  # a `#` later on is part of the value
            continue
        if "=" not in line:
            raise ConfigurationError(f"config line {lineno}: expected 'key = value'")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in _TYPES:
            raise ConfigurationError(f"config line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"config lines {seen[key]} and {lineno} both set {key}")
        seen[key] = lineno
        if len(raw) > 1 and raw[0] == raw[-1] and raw[0] in "'\"":
            raw = raw[1:-1]
        values[key] = _value(key, raw, f"config line {lineno}: ")
    values.update({key: _value(key, flag) for key, flag in (flags or {}).items()
                   if key in _TYPES and flag is not None})
    fed = {key[4:]: values.pop(key) for key in list(values) if key.startswith("fed.")}
    return ExperimentConfig(fed=FederationConfig(**fed), **values)
