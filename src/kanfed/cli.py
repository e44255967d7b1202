"""Command-line entry point.

Subcommands: run | report | fetch-data.
Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace
from pathlib import Path

from . import config as cfgmod
from . import data as datamod
from . import metrics, numerics, stats
from .errors import ConfigurationError, DataError, KanfedError
from .federation import process_count, run_trial
from .models import default_config
from .numerics import RngStream

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_RUNTIME = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


# the flags that several subcommands share; each declares only those it reads.
# A flag that sets a setting has the setting's config key as its dest, and
# config.load_config reads its text as it reads a config line's value
_SHARED_FLAGS = {
    "--config": {"help": "config file of `key = value` lines"},
    "--data-dir": {"help": "directory with the MNIST IDX files"},
    "--out-dir": {"help": "output directory for logs and reports"},
    "--seed": {"dest": "master_seed", "metavar": "SEED", "help": "master seed"},
}


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kanfed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, help, *flags):
        sp = sub.add_parser(name, help=help)
        for flag in flags:
            sp.add_argument(flag, **_SHARED_FLAGS[flag])
        return sp

    run = command("run", "run federated trials", *_SHARED_FLAGS)
    run.add_argument("--models", help="comma-separated subset of mlp,spline_kan,rbf_kan")
    run.add_argument("--trials", dest="trials_per_model", metavar="TRIALS", help="trials per model")
    run.add_argument("--rounds", dest="n_rounds", metavar="ROUNDS",
                     help="federated rounds per trial")
    run.add_argument("--dump-config", action="store_true",
                     help="print the effective config and exit")

    rep = command("report", "build result tables from trial logs", "--config", "--seed")
    rep.add_argument("log_dir", nargs="?", help="directory of *.jsonl trial logs "
                     "(default: the config's out_dir)")

    fetch = command("fetch-data", "download MNIST with checksum checks", "--config", "--data-dir")
    fetch.add_argument("--mirror", default=datamod.DEFAULT_MIRROR)
    return p


def _effective_config(args) -> cfgmod.ExperimentConfig:
    try:
        text = Path(args.config).read_text(encoding="utf-8") if args.config else ""
    except (OSError, UnicodeDecodeError) as e:
        why = e.strerror if isinstance(e, OSError) else "not UTF-8 text"
        raise ConfigurationError(f"config file {args.config}: {why}") from None
    return cfgmod.load_config(text, vars(args))


def _load_manifest(path: Path) -> dict:
    if not path.exists():
        return {"completed": []}
    try:
        manifest = json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as e:
        raise DataError(f"{path}: not valid JSON ({e}); repair or remove it") from e
    if not (isinstance(manifest, dict) and isinstance(manifest.get("completed"), list)
            and isinstance(manifest.get("config", ""), str)):
        raise DataError(f"{path}: not a kanfed manifest (no \"completed\" list or \"config\" text)")
    return manifest


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    if args.dump_config:
        sys.stdout.write(cfgmod.dump_config(cfg))
        return EXIT_OK
    # recorded and compared resolved, so another spelling of the same directory resumes
    cfg = replace(cfg, data_dir=str(Path(cfg.data_dir).resolve()),
                  out_dir=str(Path(cfg.out_dir).resolve()))
    out = Path(cfg.out_dir)
    manifest_path = out / "manifest.json"
    manifest = _load_manifest(manifest_path)
    effective = cfgmod.dump_config(cfg)
    if manifest.get("config", effective) != effective:
        keys = cfgmod.differing_keys(manifest["config"], effective)
        raise ConfigurationError(
            f"{manifest_path} holds trials run with other settings "
            f"({', '.join(keys)}); resume with the same settings or use a new --out-dir"
        )
    manifest["config"] = effective
    # neither changes the logs; they say how the run used this machine
    manifest["workers"] = process_count(cfg.fed.clients_per_round(datamod.N_CLIENTS)) - 1
    manifest["blas_threads"] = numerics.BLAS_THREADS
    train, test = datamod.load_mnist(cfg.data_dir)
    out.mkdir(parents=True, exist_ok=True)
    for kind in cfg.models:
        for idx in range(cfg.trials_per_model):
            name = f"{kind}_trial{idx:02d}.jsonl"
            log_path = out / name
            if name in manifest["completed"] and log_path.exists():
                print(f"skip {name} (already complete)")
                continue
            seed = cfgmod.derive_trial_seed(cfg.master_seed, kind, idx)
            parts = datamod.pathological_partition(
                train, datamod.N_CLIENTS, datamod.LABELS_PER_CLIENT, RngStream(seed)
            )
            datamod.check_partition(parts, len(train))
            trial = run_trial(
                default_config(kind), cfg.fed, train, test, parts, seed,
                trial_id=f"{kind}:{idx}",
            )
            metrics.write_logs(trial, log_path)
            if name not in manifest["completed"]:  # a re-run of a trial whose log was removed
                manifest["completed"].append(name)
            datamod.write_atomic(manifest_path, lambda f: json.dump(manifest, f, indent=2))
            last = trial.records[-1]
            print(
                f"done {name}: round {last.round} test_acc={last.test_acc:.4f} "
                f"({trial.total_time_s:.1f}s)"
            )
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _effective_config(args)
    log_dir = cfg.out_dir if args.log_dir is None else args.log_dir
    if not log_dir:
        raise ConfigurationError("LOG_DIR must be a path, got an empty one")
    groups = metrics.scan_logs(log_dir)
    report = stats.report_tables(groups, rng=RngStream(cfg.master_seed, ("report",)))
    stats.write_report_csv(report, Path(log_dir) / "report")
    sys.stdout.write(stats.format_report(report))
    return EXIT_OK


def cmd_fetch_data(args) -> int:
    cfg = _effective_config(args)
    datamod.fetch_mnist(cfg.data_dir, args.mirror)
    print(f"MNIST ready under {cfg.data_dir}")
    return EXIT_OK


_COMMANDS = {
    "run": cmd_run,
    "report": cmd_report,
    "fetch-data": cmd_fetch_data,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except (DataError,) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ConfigurationError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except KanfedError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
