"""Experiment configuration: seven settings, as `key = value` lines.

A run sets `models`, `trials_per_model`, `master_seed`, `data_dir`,
`out_dir`, `n_rounds` and `lr`. The rest of the paper's protocol is fixed:
the `FederationConfig` defaults and `data.N_CLIENTS` / `LABELS_PER_CLIENT`.
`load_config` reads a flag's text as it reads a file's value, and a flag
replaces the file's line. A file value loses one pair of matching quotes,
which `dump_config` puts around a value that starts or ends with a blank or
a quote; a flag's text is read as it is.
"""

from __future__ import annotations

import hashlib
from dataclasses import asdict, dataclass

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
    n_rounds: int = FederationConfig.n_rounds
    lr: float = FederationConfig.lr

    def __post_init__(self):
        if not self.models or len(set(self.models)) != len(self.models):
            raise ConfigurationError(
                f"models must be one or more distinct kinds, got {','.join(self.models)!r}")
        for m in self.models:
            if m not in MODEL_KINDS:
                raise ConfigurationError(f"unknown model kind {m!r}")
        if self.trials_per_model < 1:
            raise ConfigurationError("trials_per_model must be positive")
        for name in ("data_dir", "out_dir"):
            if not getattr(self, name):
                raise ConfigurationError(f"{name} must be a path, got an empty one")
        # the paper's protocol at this run's round count and lr; its checks cover both
        self.fed = FederationConfig(n_rounds=self.n_rounds, lr=self.lr)


def derive_trial_seed(master_seed: int, model: str, trial_index: int) -> int:
    """Stable per-trial seed; each trial is reproducible on its own."""
    digest = hashlib.sha256(f"{master_seed}/{model}/{trial_index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def _text(value) -> str:
    text = ",".join(value) if isinstance(value, tuple) else str(value)
    # quoted where the reader would otherwise drop a blank or quote off an end
    return f'"{text}"' if text != text.strip().strip("'\"") else text


def dump_config(cfg: ExperimentConfig) -> str:
    return "".join(f"{key} = {_text(value)}\n" for key, value in asdict(cfg).items())


def differing_keys(a: str, b: str) -> list[str]:
    """Keys whose values differ between two `dump_config` texts, sorted."""
    da, db = (dict(line.partition(" = ")[::2] for line in t.splitlines()) for t in (a, b))
    return sorted(k for k in da.keys() | db.keys() if da.get(k) != db.get(k))


# coercion of each value, from the type of its default
_TYPES = {key: type(value) for key, value in asdict(ExperimentConfig()).items()}


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

    `flags` maps keys to a flag's text, None where the flag is absent,
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
    return ExperimentConfig(**values)
