"""Golden logs: a 2-round trial of each reference model, pinned by SHA-256.

The logs are bit-reproducible on one numpy and BLAS build and one CPU, so
the hashes are stored with the fingerprint that produced them and the test
skips on any other. A change that moves a log on purpose updates the hash
here and says why.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from kanfed.config import derive_trial_seed
from kanfed.data import LABELS_PER_CLIENT, N_CLIENTS, load_mnist, pathological_partition
from kanfed.federation import FederationConfig, run_trial
from kanfed.metrics import strip_timing, write_logs
from kanfed.models import default_config
from kanfed.numerics import RngStream

GOLDEN_FINGERPRINT = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "cpu": "Intel(R) Xeon(R) Processor",
}
GOLDEN_SHA256 = {
    "mlp": "4483d2b57696e8b0a0e5c59494bc8dc2ec1378d781986ae098c323f3078631e2",
    "spline_kan": "5cba882b2d2bb3d2d0fc2cd35b67981808cbf66e47090894c5c457feb25abbc7",
    "rbf_kan": "96c6d4290539185896dbfaa95790500b6b4d93647acb63e52c7bd14caa2e417f",
}


def fingerprint() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), None)
    except OSError:
        cpu = None
    return {
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu": cpu or platform.processor() or "unknown",
    }


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_golden_log(synth_idx_dir, tmp_path, kind):
    here = fingerprint()
    if here != GOLDEN_FINGERPRINT:
        pytest.skip(f"golden logs were made on {GOLDEN_FINGERPRINT}, this is {here}")
    train, test = load_mnist(synth_idx_dir)
    seed = derive_trial_seed(7, kind, 0)
    parts = pathological_partition(train, N_CLIENTS, LABELS_PER_CLIENT, RngStream(seed))
    # lr 0.003 keeps all three models finite, so no NaN can hide a change
    trial = run_trial(default_config(kind), FederationConfig(n_rounds=2, lr=0.003),
                      train, test, parts, seed, trial_id=f"{kind}:0")
    write_logs(trial, tmp_path / "log.jsonl")
    log = strip_timing(tmp_path / "log.jsonl")
    assert all(np.isfinite([r["test_loss"], r["train_loss"]]).all() for r in log[:-1])
    digest = hashlib.sha256(json.dumps(log, sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[kind]
