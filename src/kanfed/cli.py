"""Command-line entry point.

Subcommands: run | partition | report | fetch-data.
Exit codes: 0 success, 1 usage error, 2 data error, 3 runtime error.
Env overrides: KANFED_DATA_DIR, KANFED_OUT_DIR.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import config as cfgmod
from . import data as datamod
from . import metrics, stats
from .errors import ConfigurationError, DataError, KanfedError
from .federation import run_trial
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


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="kanfed", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--config", help="config file with flat dotted keys")
        sp.add_argument("--data-dir", help="directory with the MNIST IDX files")
        sp.add_argument("--out-dir", help="output directory for logs and reports")
        sp.add_argument("--seed", type=int, help="master seed")

    run = sub.add_parser("run", parents=[], help="run federated trials")
    common(run)
    run.add_argument("--models", help="comma-separated subset of mlp,spline_kan,rbf_kan")
    run.add_argument("--trials", type=int, help="trials per model")
    run.add_argument("--rounds", type=int, help="federated rounds per trial")
    run.add_argument("--preset", choices=["desk"], help="desk = 3 trials, 30 rounds")
    run.add_argument("--parallel-clients", type=int, help="client threads per round")
    run.add_argument("--dump-config", action="store_true",
                     help="print the effective config and exit")

    part = sub.add_parser("partition", help="write the client partition and a summary")
    common(part)

    rep = sub.add_parser("report", help="build result tables from trial logs")
    common(rep)
    rep.add_argument("log_dir", nargs="?", help="directory of *.jsonl trial logs")

    fetch = sub.add_parser("fetch-data", help="download MNIST with checksum checks")
    common(fetch)
    fetch.add_argument("--mirror", default=datamod.DEFAULT_MIRROR)
    return p


def _effective_config(args) -> cfgmod.ExperimentConfig:
    cfg = cfgmod.load_config_file(args.config) if args.config else cfgmod.ExperimentConfig()
    if getattr(args, "preset", None) == "desk":
        cfg = cfgmod.desk_preset(cfg)
    if getattr(args, "models", None) is not None:
        cfg = replace(cfg, models=tuple(m.strip() for m in args.models.split(",") if m.strip()))
    if getattr(args, "trials", None) is not None:
        cfg = replace(cfg, trials_per_model=args.trials)
    if getattr(args, "rounds", None) is not None:
        cfg = replace(cfg, fed=replace(cfg.fed, n_rounds=args.rounds))
    if getattr(args, "parallel_clients", None) is not None:
        cfg = replace(cfg, fed=replace(cfg.fed, parallel_clients=args.parallel_clients))
    if args.seed is not None:
        cfg = replace(cfg, master_seed=args.seed)
    data_dir = args.data_dir or os.environ.get("KANFED_DATA_DIR")
    if data_dir:
        cfg = replace(cfg, data_dir=data_dir)
    out_dir = args.out_dir or os.environ.get("KANFED_OUT_DIR")
    if out_dir:
        cfg = replace(cfg, out_dir=out_dir)
    return cfg


def _load_manifest(path: Path) -> dict:
    if not path.exists():
        return {"completed": []}
    try:
        manifest = json.loads(path.read_text())
    except json.JSONDecodeError as e:
        raise DataError(f"{path}: not valid JSON ({e}); repair or remove it") from e
    if not isinstance(manifest, dict) or not isinstance(manifest.get("completed"), list):
        raise DataError(f"{path}: not a kanfed manifest (no \"completed\" list)")
    return manifest


def cmd_run(args) -> int:
    cfg = _effective_config(args)
    if args.dump_config:
        sys.stdout.write(cfgmod.dump_config(cfg))
        return EXIT_OK
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
                train, cfg.n_clients, cfg.labels_per_client, RngStream(seed)
            )
            datamod.check_partition(parts, len(train), cfg.labels_per_client)
            trial = run_trial(
                default_config(kind), cfg.fed, train, test, parts, seed,
                trial_id=f"{kind}:{idx}",
            )
            metrics.write_logs(trial, log_path)
            manifest["completed"].append(name)
            metrics.write_atomic(manifest_path, lambda f: json.dump(manifest, f, indent=2))
            last = trial.records[-1]
            print(
                f"done {name}: round {last.round} test_acc={last.test_acc:.4f} "
                f"({trial.total_time_s:.1f}s)"
            )
    return EXIT_OK


def cmd_partition(args) -> int:
    cfg = _effective_config(args)
    train, _ = datamod.load_mnist(cfg.data_dir)
    parts = datamod.pathological_partition(
        train, cfg.n_clients, cfg.labels_per_client, RngStream(cfg.master_seed)
    )
    datamod.check_partition(parts, len(train), cfg.labels_per_client)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rows = datamod.partition_report(parts, train)
    datamod.write_partition_csv(rows, out / "partition.csv")
    datamod.write_partition_json(parts, out / "partition.json")
    sizes = np.array([len(p) for p in parts])
    print(
        f"{len(parts)} clients, sizes min={sizes.min()} max={sizes.max()} "
        f"mean={sizes.mean():.1f}"
    )
    return EXIT_OK


def cmd_report(args) -> int:
    cfg = _effective_config(args)
    log_dir = args.log_dir or cfg.out_dir
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
    "partition": cmd_partition,
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
