"""Acceptance suite: one test per release criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Criterion 6 (desk-scale accuracy ordering) needs the real MNIST
IDX files; point KANFED_DATA_DIR at them (or put them in ./data), otherwise
it is skipped with an explicit reason.
"""

import os

import numpy as np
import pytest
from scipy import stats as sps

from kanfed.cli import main as cli_main
from kanfed.data import (
    check_partition,
    find_mnist,
    load_mnist,
    pathological_partition,
)
from kanfed.federation import (
    FederationConfig,
    ServerState,
    aggregate,
    local_train,
    server_step,
)
from kanfed.metrics import scan_logs, strip_timing
from kanfed.models import (
    KIND_MLP,
    KIND_RBF,
    KIND_SPLINE,
    MODEL_KINDS,
    ModelConfig,
    backward,
    default_config,
    forward,
    init_params,
    param_count,
)
from kanfed.numerics import RngStream, sgd_momentum_step, softmax_cross_entropy
from kanfed.splines import KNOTS, N_BASIS
from kanfed.stats import bootstrap_ratio_ci, welch_one_sided

from conftest import make_synth_dataset, rel_err
from test_splines import bspline_basis, bspline_basis_derivative, deboor_oracle
from test_models import fd_input_grad, fd_param_grad
from test_federation import full_partition


def _ok(msg):
    print(f"PASS {msg}")


def _mnist_dir():
    for cand in (os.environ.get("KANFED_DATA_DIR"), "data"):
        if cand and find_mnist(cand):
            return cand
    return None


def test_criterion_1_param_count_exact():
    assert param_count(default_config(KIND_MLP)) == 199_210
    assert param_count(default_config(KIND_SPLINE)) == 196_320
    assert param_count(default_config(KIND_RBF)) == 178_410
    _ok("criterion 1: parameter counts 199,210 / 196,320 / 178,410 exact")


def test_criterion_2_gradient_correctness():
    worst = 0.0
    for kind in MODEL_KINDS:
        for widths in [(6, 3, 2), (50, 8, 4)]:
            cfg = ModelConfig(kind=kind, layer_widths=widths)
            state = init_params(cfg, RngStream(100))
            gen = RngStream(101).gen
            x = gen.uniform(-2, 2, (4, widths[0]))
            y = gen.integers(0, widths[-1], 4)
            logits, cache = forward(state, x)
            _, gl = softmax_cross_entropy(logits, y)
            g, gx = backward(state, cache, gl)
            worst = max(worst, rel_err(g, fd_param_grad(state, x, y)))
            worst = max(worst, rel_err(gx, fd_input_grad(state, x, y)))
    assert worst < 1e-4
    _ok(f"criterion 2: gradient checks, max relative error {worst:.2e} < 1e-4")


def test_criterion_3_spline_basis_properties():
    x = RngStream(102).gen.uniform(-0.999, 0.999, 1000)
    b = bspline_basis(x)
    d = bspline_basis_derivative(x)
    pu = np.abs(b.sum(axis=1) - 1.0).max()
    ds = np.abs(d.sum(axis=1)).max()
    assert pu < 1e-9 and ds < 1e-9
    oracle_err = 0.0
    for i, xi in enumerate(x[:50]):
        for j in range(N_BASIS):
            oracle_err = max(oracle_err, abs(b[i, j] - deboor_oracle(j, 3, xi, KNOTS)))
    assert oracle_err < 1e-12
    _ok(
        f"criterion 3: partition of unity {pu:.1e}, derivative sum {ds:.1e}, "
        f"de Boor oracle {oracle_err:.1e}"
    )


def test_criterion_4_partition_invariants(mnist_shaped_labels):
    mins, maxs = [], []
    for seed in range(15):
        parts = pathological_partition(
            mnist_shaped_labels, n_clients=100, labels_per_client=2, rng=RngStream(seed)
        )
        check_partition(parts, len(mnist_shaped_labels), labels_per_client=2)
        sizes = np.array([len(p) for p in parts])
        assert sizes.mean() == 600.0
        assert sizes.min() >= 400 and sizes.max() <= 900
        mins.append(sizes.min())
        maxs.append(sizes.max())
    _ok(
        "criterion 4: 15 seeds, exact coverage, 2 labels/client, mean 600, "
        f"sizes within [{min(mins)}, {max(maxs)}] in [400, 900]"
    )


def test_criterion_5_federated_equals_centralized():
    train = make_synth_dataset(1000, 50)
    mc = ModelConfig(kind=KIND_MLP, layer_widths=(784, 16, 10))
    fed = FederationConfig(
        n_rounds=3, clients_per_round_fraction=1.0, local_epochs=2,
        batch_size=64, server_momentum=0.0,
    )
    part = full_partition(train)
    seed = 51
    rng = RngStream(seed)
    model = init_params(mc, rng)
    srv = ServerState(model, np.zeros(len(model.params)))
    central = init_params(mc, RngStream(seed))
    worst = 0.0
    for rnd in range(1, 4):
        upd = local_train(srv.global_model, part, train, fed, rng.child("local", str(rnd), "0"))
        server_step(srv, aggregate([upd])[0], fed.server_momentum)
        gen = RngStream(seed).child("local", str(rnd), "0").gen
        buf = np.zeros(len(central.params))
        for _ in range(fed.local_epochs):
            order = gen.permutation(len(train))
            for start in range(0, len(order), fed.batch_size):
                sel = part.indices[order[start : start + fed.batch_size]]
                logits, cache = forward(central, train.images[sel])
                _, gl = softmax_cross_entropy(logits, train.labels[sel])
                grads, _ = backward(central, cache, gl)
                sgd_momentum_step(central.params, grads, buf, fed.lr, fed.client_momentum)
        worst = max(worst, float(np.abs(srv.global_model.params - central.params).max()))
    assert worst < 1e-9
    _ok(f"criterion 5: federated == centralized, max param diff {worst:.2e} < 1e-9")


@pytest.mark.slow
def test_criterion_6_desk_scale_accuracy_ordering(tmp_path):
    data_dir = _mnist_dir()
    if data_dir is None:
        pytest.skip(
            "real MNIST IDX files not available (no network in this environment); "
            "run `kanfed fetch-data` where the mirror is reachable and set "
            "KANFED_DATA_DIR to enable this criterion"
        )
    train, _ = load_mnist(data_dir)
    assert len(train) == 60_000
    out_dir = tmp_path / "desk"
    code = cli_main(
        [
            "run", "--trials", "3", "--rounds", "30",
            "--data-dir", data_dir, "--out-dir", str(out_dir), "--seed", "42",
        ]
    )
    assert code == 0
    groups = scan_logs(out_dir)
    at30 = {
        kind: float(np.mean([t.records[29].test_acc for t in trials]))
        for kind, trials in groups.items()
    }
    assert at30["spline_kan"] - at30["mlp"] >= 0.10
    assert at30["rbf_kan"] < at30["mlp"]
    assert at30["rbf_kan"] < at30["spline_kan"]
    _ok(
        "criterion 6: round-30 mean test accuracy "
        f"spline {at30['spline_kan']:.3f} > mlp {at30['mlp']:.3f} (+0.10), "
        f"rbf {at30['rbf_kan']:.3f} below both"
    )


def test_criterion_7_welch_oracle():
    gen = RngStream(52).gen
    worst = 0.0
    for _ in range(20):
        a = gen.normal(gen.uniform(-1, 1), gen.uniform(0.5, 2), 15)
        b = gen.normal(gen.uniform(-1, 1), gen.uniform(0.5, 2), 15)
        res = welch_one_sided(a, b)
        _, p_ref = sps.ttest_ind(a, b, equal_var=False, alternative="greater")
        worst = max(worst, abs(res.p_one_sided - p_ref))
    assert worst < 1e-9
    same = [2.1, 2.5, 2.3, 2.2]
    assert abs(welch_one_sided(same, list(same)).p_one_sided - 0.5) < 1e-12
    _ok(f"criterion 7: Welch p within {worst:.1e} of reference; symmetry p = 0.5")


def test_criterion_8_bootstrap_contract():
    assert bootstrap_ratio_ci([3.0] * 15, [3.0] * 15, RngStream(53)) == (1.0, 1.0)
    a = bootstrap_ratio_ci(
        RngStream(54).gen.normal(10, 1, 15), RngStream(55).gen.normal(5, 0.5, 15),
        RngStream(56),
    )
    b = bootstrap_ratio_ci(
        RngStream(54).gen.normal(10, 1, 15), RngStream(55).gen.normal(5, 0.5, 15),
        RngStream(56),
    )
    assert a == b
    hits = 0
    for rep in range(100):
        gen = RngStream(3000 + rep).gen
        num = gen.normal(10, 1.5, 15)
        den = gen.normal(5, 0.8, 15)
        lo, hi = bootstrap_ratio_ci(num, den, RngStream(4000 + rep), resamples=2000)
        hits += lo <= 2.0 <= hi
    assert 90 <= hits <= 99
    _ok(f"criterion 8: degenerate CI (1,1), bit-reproducible, coverage {hits}/100")


def test_criterion_9_determinism(synth_idx_dir, tmp_path, monkeypatch):
    # full CLI path on IDX files; reduced scale, same code path as desk runs
    args = [
        "run", "--models", "mlp,spline_kan", "--trials", "2", "--rounds", "3",
        "--data-dir", str(synth_idx_dir), "--seed", "7",
    ]
    out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
    assert cli_main(args + ["--out-dir", str(out_a)]) == 0
    assert cli_main(args + ["--out-dir", str(out_b)]) == 0
    # one usable CPU: every client trains in the parent, no worker is forked
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    assert cli_main(args + ["--out-dir", str(out_c)]) == 0
    logs = sorted(p.name for p in out_a.glob("*.jsonl"))
    assert logs
    for name in logs:
        ref = strip_timing(out_a / name)
        assert strip_timing(out_b / name) == ref, f"{name}: rerun differs"
        assert strip_timing(out_c / name) == ref, f"{name}: one process differs"
    _ok(f"criterion 9: {len(logs)} logs byte-identical across reruns and process counts")
