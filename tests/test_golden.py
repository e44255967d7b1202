"""Golden logs: an 8-round trial of each reference model, pinned by SHA-256.

Each trial is what `kanfed run --seed 7 --trials 1 --rounds 8` writes at lr
0.003 on `synth_idx_dir`. Every model must learn: its best test accuracy is
at least twice chance. The logs are bit-reproducible on one numpy and BLAS
build, one OpenBLAS kernel (`OPENBLAS_CORETYPE` can choose another) and one
CPU, so the hashes are stored with the fingerprint that produced them and
the hash check skips on any other. A change that moves a log on purpose
updates the hash here and says why.
"""

import hashlib
import json
import platform

import numpy as np
import pytest

from kanfed import cli, numerics
from kanfed.metrics import read_logs, strip_timing

GOLDEN_FINGERPRINT = {
    "numpy": "2.4.6",
    "blas": "scipy-openblas 0.3.31.188.0",
    "blas_core": "SkylakeX",
    "cpu": "Intel(R) Xeon(R) Processor",
}
GOLDEN_SHA256 = {
    "mlp": "4cd02310dcf6327f399a2148cddd5c8afe1f8c009de4eefaa98cb56c5a4e4656",
    "spline_kan": "21bb1ee9a8ca85a08830a0dffb6ac7e690c6fb683e5e0e64f75c8245c707ff80",
    "rbf_kan": "f33c0b95dd2f32a5b05fff872017525581321ffccddf3a219fada5f4b84ddea2",
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
        "blas_core": numerics.BLAS_CORE,
        "cpu": cpu or platform.processor() or "unknown",
    }


@pytest.mark.parametrize("kind", sorted(GOLDEN_SHA256))
def test_golden_log(synth_idx_dir, tmp_path, kind):
    # lr 0.003 keeps all three models finite, so no NaN can hide a change
    (tmp_path / "golden.cfg").write_text("lr = 0.003\n")
    assert cli.main(["run", "--config", str(tmp_path / "golden.cfg"), "--models", kind,
                     "--seed", "7", "--trials", "1", "--rounds", "8",
                     "--data-dir", str(synth_idx_dir), "--out-dir", str(tmp_path / "runs")]) == 0
    path = tmp_path / "runs" / f"{kind}_trial00.jsonl"
    records = read_logs(path).records
    assert all(np.isfinite([r.test_loss, r.train_loss]).all() for r in records)
    assert max(r.test_acc for r in records) >= 0.2  # twice chance: the model learns
    here = fingerprint()
    if here != GOLDEN_FINGERPRINT:
        pytest.skip(f"golden logs were made on {GOLDEN_FINGERPRINT}, this is {here}")
    digest = hashlib.sha256(json.dumps(strip_timing(path), sort_keys=True).encode()).hexdigest()
    assert digest == GOLDEN_SHA256[kind]
