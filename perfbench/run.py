"""Benchmark: one reference-protocol FedAvg trial per model kind.

    python3 perfbench/run.py --workload spline_kan_fedavg --seed 1 --seconds 30 --trace 0

Run from the repository root. The run generates its MNIST-shaped inputs from
--seed (generate.py, in a child process), then drives the program through
the calls `kanfed run` makes, in the same order: data.load_mnist ->
data.pathological_partition -> data.check_partition -> federation.run_trial
-> metrics.write_logs. It repeats whole trials of the workload's length until
--seconds is spent, checks the outputs (checks.py) and prints, as its last
line, one JSON object: the end-to-end metrics with --trace 0, the per-layer
metrics of a traced run (tracing.py) with --trace 1.

A round fails when local SGD has diverged: its train loss, test loss or
global params are not finite, or after round 1 its test accuracy is near
chance (checks.round_fault). Exit code 2 means the program or its inputs
could not be set up.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

# workload -> (model kind, rounds per trial), as many rounds as fit a 30 s run
# on a 2-core machine: a Spline-KAN round costs ~17 s, an MLP round ~1.5 s and
# an RBF-KAN round ~6 s. Every trial reaches the rounds after round 1, where
# divergence shows as chance accuracy or NaN.
WORKLOADS = {
    "spline_kan_fedavg": ("spline_kan", 2),
    "mlp_fedavg": ("mlp", 6),
    "rbf_kan_fedavg": ("rbf_kan", 4),
}
# the trial seed `kanfed run --seed 42` uses for trial 0 of each model; fixed so
# that every run trains the same clients on the same schedule and only the
# pixel values change with --seed
MASTER_SEED = 42
SETUP_REPEATS = 15
N_CLIENTS, LABELS_PER_CLIENT = 100, 2
FD_BATCH, LOGIT_SUBSET = 64, 64


def env_fingerprint() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = next((line.split(":", 1)[1].strip() for line in _read_lines("/proc/cpuinfo")
                if line.startswith("model name")), platform.processor() or "unknown")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def _read_lines(path) -> list[str]:
    try:
        with open(path) as f:
            return f.read().splitlines()
    except OSError:
        return []


def _blas_threads():
    """Thread count reported by the OpenBLAS library numpy has loaded."""
    libs = {line.split()[-1] for line in _read_lines("/proc/self/maps") if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("openblas_get_num_threads", "scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def log_sha256(path) -> str:
    from kanfed import metrics

    stripped = json.dumps(metrics.strip_timing(path), sort_keys=True)
    return hashlib.sha256(stripped.encode()).hexdigest()


def repeat_for(budget_s: float, fn) -> list:
    """Call fn until the next call would overrun budget_s; at least once."""
    start, out = time.perf_counter(), []
    while True:
        t = time.perf_counter()
        out.append(fn())
        took = time.perf_counter() - t
        if time.perf_counter() - start + took > budget_s:
            return out


def run_workload(kind: str, n_rounds: int, data_dir: Path, work: Path, seconds: float,
                 trace: bool, parallel_clients: int = 1) -> dict:
    """Set up, check and time one workload; failed checks land in result["failures"]."""
    import numpy as np

    import checks
    from generate import FILES
    from kanfed import config, data, federation, metrics, models
    from kanfed.numerics import RngStream
    from tracing import Tracer, layer_metrics

    failures: list[str] = []

    def verify(check, *args, **kwargs):
        try:
            check(*args, **kwargs)
        except checks.CheckFailed as e:
            failures.append(f"{check.__name__}: {e}")

    # the diverging rounds are counted, not printed; a filter, unlike
    # np.seterr, also covers the client threads of --parallel-clients
    warnings.simplefilter("ignore", RuntimeWarning)
    trial_seed = config.derive_trial_seed(MASTER_SEED, kind, 0)
    model_cfg = models.default_config(kind)
    fed_cfg = federation.FederationConfig(
        n_rounds=n_rounds, clients_per_round_fraction=0.1, local_epochs=5,
        batch_size=64, lr=0.1, client_momentum=0.9, server_momentum=0.9,
        parallel_clients=parallel_clients,
    )

    # set-up, as `kanfed run` does it, several times; the last one is kept
    load_s, partition_s = [], []
    for _ in range(SETUP_REPEATS):
        train = test = parts = None  # free the previous set-up first, or peak_rss_mb counts two
        t0 = time.perf_counter()
        train, test = data.load_mnist(data_dir)
        t1 = time.perf_counter()
        parts = data.pathological_partition(train, N_CLIENTS, LABELS_PER_CLIENT, RngStream(trial_seed))
        data.check_partition(parts, len(train), LABELS_PER_CLIENT)
        t2 = time.perf_counter()
        load_s.append(t1 - t0)
        partition_s.append(t2 - t1)
    setup_s = statistics.median(a + b for a, b in zip(load_s, partition_s))

    # checks on the set-up and on the trial's initial params
    for ds, split in ((train, "train"), (test, "test")):
        images_file, labels_file = (data_dir / name for name in FILES[split])
        verify(checks.check_loaded, ds.images, ds.labels, checks.read_idx_images(images_file),
               checks.read_idx_labels(labels_file))
    verify(checks.check_partition, [p.indices for p in parts], train.labels)
    init = models.init_params(model_cfg, RngStream(trial_seed))
    verify(checks.check_param_counts, kind, models.param_count(model_cfg), len(init.params))
    x = test.images[:LOGIT_SUBSET]
    verify(checks.check_logits, models.forward(init, x)[0], checks.reference_forward(kind, init.params, x))
    batch = parts[0].indices[:FD_BATCH]
    logits, cache = models.forward(init, train.images[batch])
    _, grad_logits = checks.mean_cross_entropy(logits, train.labels[batch])
    grad, _ = models.backward(init, cache, grad_logits)
    verify(checks.check_directional_gradient, kind, init.params, grad, train.images[batch],
           train.labels[batch], seed=trial_seed % 2**32)

    # global params after each server step, for the failure count
    params_finite: list[bool] = []
    server_step = federation.server_step

    def observed_server_step(state, *args, **kwargs):
        out = server_step(state, *args, **kwargs)
        params_finite.append(bool(np.isfinite(state.global_model.params).all()))
        return out

    log_path = work / "trial.jsonl"
    faults: list[str | None] = []
    round_elapsed: list[float] = []
    sampled: list[list[int]] = []
    hashes: list[str] = []

    def one_trial() -> float:
        t = time.perf_counter()
        summary = federation.run_trial(model_cfg, fed_cfg, train, test, parts, trial_seed,
                                       trial_id=f"{kind}:0")
        round_s = (time.perf_counter() - t) / len(summary.records)
        metrics.write_logs(summary, log_path)
        hashes.append(log_sha256(log_path))
        finite = params_finite[-len(summary.records):]
        for rec, params_ok in zip(summary.records, finite):
            faults.append(checks.round_fault(rec.round, rec.test_acc, rec.train_loss,
                                             rec.test_loss, params_ok))
            round_elapsed.append(rec.elapsed_s)
            sampled.append(rec.sampled_clients)
        return round_s

    federation.server_step = observed_server_step
    try:
        untraced = repeat_for(seconds / 2 if trace else seconds, one_trial)
        if trace:
            first_traced = len(round_elapsed)
            tracer = Tracer().install()
            try:
                traced = repeat_for(seconds / 2, one_trial)
            finally:
                tracer.restore()
    finally:
        federation.server_step = server_step

    verify(checks.check_sampling, sampled)
    verify(checks.check_same_hash, hashes)

    result = {
        "failures": failures,
        "attempted": len(faults),
        "failed": {fault: faults.count(fault) for fault in ("non-finite", "near chance")},
        "log_sha256": hashes[0],
        "end_to_end": {
            "setup_s": (setup_s, "s"),
            "round_s": (statistics.median(untraced), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        },
    }
    if trace:
        tracemalloc.start()
        metrics.evaluate(init, test)
        eval_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
        units = {"_s": "s", "_bytes": "bytes", "_mb": "MB"}
        layers = layer_metrics(tracer.spans, round_elapsed[first_traced:])
        layers.update({
            "data.load_mnist_s": statistics.median(load_s),
            "data.partition_s": statistics.median(partition_s),
            "data.train_images_bytes": train.images.nbytes,
            "models.eval_alloc_mb": eval_peak / 2**20,
            "trace.overhead_s": statistics.median(traced) - statistics.median(untraced),
        })
        result["per_layer"] = {
            name: (value, next((u for suffix, u in units.items() if name.endswith(suffix)), "count"))
            for name, value in sorted(layers.items())
        }
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--parallel-clients", type=int, choices=range(1, 9), default=1, metavar="{1..8}",
                   help="client threads per round (README's serial/threaded figure; 1 in every workload)")
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be non-negative and --seconds positive")
    if not (SRC / "kanfed" / "__init__.py").is_file():
        print(f"run.py: the kanfed sources are not at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # a terminated run still removes its inputs (the finally below)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    work = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    try:
        data_dir = work / "data"
        subprocess.run([sys.executable, str(HERE / "generate.py"), "--seed", str(args.seed),
                        "--out", str(data_dir)], check=True, timeout=170)
        print("env " + json.dumps(env_fingerprint()), flush=True)
        kind, n_rounds = WORKLOADS[args.workload]
        result = run_workload(kind, n_rounds, data_dir, work, args.seconds, bool(args.trace),
                              args.parallel_clients)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in result["failures"]:
        print(f"CHECK FAILED {failure}", file=sys.stderr)

    e2e = " ".join(f"{k}={v:.4g} {u}" for k, (v, u) in result["end_to_end"].items())
    failed = result["failed"]
    print(f"{args.workload} seed={args.seed}: {e2e} rounds attempted={result['attempted']} "
          f"failed={sum(failed.values())} (non-finite={failed['non-finite']} "
          f"near-chance={failed['near chance']}) log_sha256={result['log_sha256']}")
    shown = result["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": not result["failures"],
        "attempted": result["attempted"],
        "failed": sum(failed.values()),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in shown.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
