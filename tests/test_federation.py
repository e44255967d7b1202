import tracemalloc
import weakref
from dataclasses import asdict, replace

import numpy as np
import pytest
from scipy.stats import binom

from kanfed import federation
from kanfed.data import ClientPartition, normalize, pathological_partition
from kanfed.errors import InternalError
from kanfed.federation import (
    ClientUpdate,
    FederationConfig,
    ServerState,
    aggregate,
    local_train,
    run_trial,
    sample_clients,
    server_step,
)
from kanfed.metrics import evaluate
from kanfed.models import ModelConfig, backward, default_config, forward, init_params
from kanfed.numerics import RngStream, sgd_momentum_step, softmax_cross_entropy

from conftest import make_synth_dataset


@pytest.fixture(scope="module")
def small_data():
    train = normalize(make_synth_dataset(600, 31))
    test = normalize(make_synth_dataset(200, 32))
    return train, test


def small_model():
    return ModelConfig(kind="mlp", layer_widths=(784, 16, 10))


def full_partition(train):
    return ClientPartition(
        client_id=0,
        indices=np.arange(len(train)),
        label_set=frozenset(np.unique(train.labels)),
    )


class TestSampleClients:
    def test_contract(self):
        ids = sample_clients(100, 10, 3, RngStream(1))
        assert len(ids) == 10 and len(set(ids)) == 10
        assert all(0 <= c < 100 for c in ids)

    def test_deterministic_per_round(self):
        a = sample_clients(100, 10, 7, RngStream(1))
        b = sample_clients(100, 10, 7, RngStream(1))
        c = sample_clients(100, 10, 8, RngStream(1))
        assert a == b
        assert a != c

    def test_selection_counts_within_binomial_band(self):
        counts = np.zeros(100, dtype=int)
        rng = RngStream(5)
        for rnd in range(100):
            for c in sample_clients(100, 10, rnd, rng):
                counts[c] += 1
        lo = binom.ppf(0.005, 100, 0.1)
        hi = binom.ppf(0.995, 100, 0.1)
        assert counts.min() >= lo and counts.max() <= hi
        assert counts.min() >= 1  # every client participates at least once


class TestLocalTrain:
    def test_zero_lr_zero_delta(self, small_data):
        train, _ = small_data
        state = init_params(small_model(), RngStream(2))
        cfg = FederationConfig(n_rounds=1, local_epochs=2, lr=0.0)
        upd = local_train(state, full_partition(train), train, cfg, RngStream(3))
        assert np.all(upd.delta == 0.0)
        assert upd.n_samples == len(train)

    def test_deterministic(self, small_data):
        train, _ = small_data
        state = init_params(small_model(), RngStream(2))
        cfg = FederationConfig(n_rounds=1, local_epochs=1)
        a = local_train(state, full_partition(train), train, cfg, RngStream(4))
        b = local_train(state, full_partition(train), train, cfg, RngStream(4))
        assert np.array_equal(a.delta, b.delta)
        assert a.train_loss == b.train_loss

    def test_single_batch_matches_hand_stepped_oracle(self, small_data):
        train, _ = small_data
        state = init_params(small_model(), RngStream(2))
        part = ClientPartition(0, np.arange(30), frozenset(np.unique(train.labels[:30])))
        cfg = FederationConfig(n_rounds=1, local_epochs=1, batch_size=64)
        upd = local_train(state, part, train, cfg, RngStream(6))
        # oracle: one epoch, one batch, stepped by hand with the same rng
        gen = RngStream(6).gen
        order = gen.permutation(30)
        sel = part.indices[order]
        local = state.clone()
        buf = np.zeros(len(local.params))
        logits, cache = forward(local, train.images[sel])
        _, gl = softmax_cross_entropy(logits, train.labels[sel])
        grads, _ = backward(local, cache, gl)
        sgd_momentum_step(local.params, grads, buf, cfg.lr, cfg.client_momentum)
        assert np.array_equal(upd.delta, local.params - state.params)
        # single momentum step from zero velocity: delta == -lr * grad
        assert np.allclose(upd.delta, -cfg.lr * grads, atol=0)

    def test_one_gradient_buffer_per_client(self, small_data, monkeypatch):
        train, _ = small_data
        buffers = []  # the `out` of every backward call

        def recording(*args, **kwargs):
            buffers.append(kwargs.get("out"))
            return backward(*args, **kwargs)

        monkeypatch.setattr(federation, "backward", recording)
        state = init_params(small_model(), RngStream(2))
        part = ClientPartition(0, np.arange(150), frozenset(np.unique(train.labels[:150])))
        cfg = FederationConfig(n_rounds=1, local_epochs=2, batch_size=64)
        local_train(state, part, train, cfg, RngStream(8))
        assert len(buffers) == 6 and buffers[0] is not None
        assert all(b is buffers[0] for b in buffers)

    def test_previous_step_freed_before_next_forward(self):
        # one Spline-KAN client of 640 samples at the reference widths; its
        # peak is the params, velocity and gradient buffer plus one step
        train = normalize(make_synth_dataset(640, 41))
        state = init_params(default_config("spline_kan"), RngStream(3))
        tracemalloc.start()
        try:
            local_train(state, full_partition(train), train, FederationConfig(), RngStream(4))
            peak = tracemalloc.get_traced_memory()[1]
            grads = np.empty_like(state.params)
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            logits, cache = forward(state, train.model_inputs[:64])
            _, gl = softmax_cross_entropy(logits, train.labels[:64])
            backward(state, cache, gl, out=grads)
            step = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        # a previous step's cache alive would add its layer-0 basis (3.2 MB)
        excess = peak - step - 3 * state.params.nbytes
        assert excess < cache["layers"][0]["basis"].nbytes / 2

    def test_train_stats_average_last_epoch_only(self, small_data, monkeypatch):
        train, _ = small_data
        calls = []  # (logits, labels, loss) of every batch

        def recording(logits, labels):
            loss, grad_logits = softmax_cross_entropy(logits, labels)
            calls.append((logits, labels, loss))
            return loss, grad_logits

        monkeypatch.setattr(federation, "softmax_cross_entropy", recording)
        part = ClientPartition(0, np.arange(150), frozenset(np.unique(train.labels[:150])))
        cfg = FederationConfig(n_rounds=1, local_epochs=3, batch_size=64)
        upd = local_train(init_params(small_model(), RngStream(2)), part, train, cfg,
                          RngStream(7))
        assert [len(y) for _, y, _ in calls] == [64, 64, 22] * 3
        # sample-weighted means over the last epoch's three batches, bit-exact
        last = calls[-3:]
        loss = sum(l * len(y) for _, y, l in last) / 150
        acc = sum(float((np.argmax(z, axis=1) == y).mean()) * len(y) for z, y, _ in last) / 150
        assert upd.train_loss == loss and upd.train_acc == acc
        assert loss != sum(l * len(y) for _, y, l in calls) / 450

    def test_empty_partition_rejected(self, small_data):
        train, _ = small_data
        state = init_params(small_model(), RngStream(2))
        part = ClientPartition(0, np.array([], dtype=int), frozenset())
        with pytest.raises(InternalError):
            local_train(part=part, global_model=state, train=train,
                        cfg=FederationConfig(), rng=RngStream(1))


class TestAggregate:
    def test_identical_deltas(self):
        d = np.array([1.0, -2.0, 3.0])
        ups = [ClientUpdate(0, d, 600, 0, 0), ClientUpdate(1, d.copy(), 150, 0, 0)]
        assert np.allclose(aggregate(ups), d, atol=1e-15)

    def test_opposite_deltas_cancel(self):
        d = np.array([1.0, -2.0])
        ups = [ClientUpdate(0, d, 300, 0, 0), ClientUpdate(1, -d, 300, 0, 0)]
        assert np.all(aggregate(ups) == 0.0)

    def test_weighted_mean(self):
        d1 = np.array([3.0])
        d2 = np.array([0.0])
        ups = [ClientUpdate(0, d1, 600, 0, 0), ClientUpdate(1, d2, 300, 0, 0)]
        assert abs(aggregate(ups)[0] - 2.0) < 1e-15

    def test_weight_conservation(self):
        gen = RngStream(7).gen
        ups = [
            ClientUpdate(i, np.ones(4), int(gen.integers(100, 900)), 0, 0)
            for i in range(10)
        ]
        # weighted mean of all-ones vectors must be exactly ones
        assert np.abs(aggregate(ups) - 1.0).max() < 1e-12

    def test_inconsistent_lengths(self):
        ups = [ClientUpdate(0, np.zeros(3), 10, 0, 0), ClientUpdate(1, np.zeros(4), 10, 0, 0)]
        with pytest.raises(InternalError):
            aggregate(ups)


class TestServerStep:
    def _server(self, n=3):
        state = init_params(ModelConfig(kind="mlp", layer_widths=(2, 2)), RngStream(8))
        return ServerState(state, np.zeros(len(state.params)))

    def test_no_momentum_is_plain_fedavg(self):
        srv = self._server()
        before = srv.global_model.params.copy()
        delta = np.full(len(before), 0.25)
        server_step(srv, delta, server_momentum=0.0)
        assert np.allclose(srv.global_model.params, before + delta, atol=1e-15)

    def test_coasting_on_zero_delta(self):
        srv = self._server()
        srv.momentum_buf[:] = 1.0
        before = srv.global_model.params.copy()
        server_step(srv, np.zeros_like(before), server_momentum=0.9)
        assert np.allclose(srv.global_model.params, before + 0.9, atol=1e-15)

    def test_three_round_trace_matches_hand_unroll(self):
        srv = self._server()
        w0 = srv.global_model.params.copy()
        deltas = [np.full_like(w0, v) for v in (0.1, -0.2, 0.05)]
        beta = 0.9
        m, w = np.zeros_like(w0), w0.copy()
        for d in deltas:
            server_step(srv, d, server_momentum=beta)
            m = beta * m + d
            w = w + m
        assert np.abs(srv.global_model.params - w).max() < 1e-12


class TestRunTrial:
    def test_federated_equals_centralized(self, small_data):
        train, _ = small_data
        mc = small_model()
        seed = 99
        fed = FederationConfig(
            n_rounds=3, clients_per_round_fraction=1.0, local_epochs=2,
            batch_size=32, server_momentum=0.0,
        )
        part = full_partition(train)
        # federated path, driven op by op, against a centralized SGD oracle
        # that replays the same schedule with a fresh buffer per round
        rng = RngStream(seed)
        fed_model = init_params(mc, rng)
        srv = ServerState(fed_model, np.zeros(len(fed_model.params)))
        central = init_params(mc, RngStream(seed))
        for rnd in range(1, 4):
            upd = local_train(srv.global_model, part, train, fed,
                              rng.child("local", str(rnd), "0"))
            server_step(srv, aggregate([upd]), fed.server_momentum)

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
            assert np.abs(srv.global_model.params - central.params).max() < 1e-9

    def test_initial_model_near_chance(self, small_data):
        # a single init can favor one class, so average over several inits
        train, test = small_data
        for kind in ("mlp", "spline_kan", "rbf_kan"):
            widths = (784, 16, 10) if kind == "mlp" else (784, 12, 10)
            accs = []
            for seed in range(10):
                state = init_params(
                    ModelConfig(kind=kind, layer_widths=widths), RngStream(seed)
                )
                accs.append(evaluate(state, test)[0])
            assert 0.05 <= np.mean(accs) <= 0.2

    def test_records_and_determinism(self, small_data):
        train, test = small_data
        parts = pathological_partition(train, 10, 2, RngStream(11))
        fed = FederationConfig(n_rounds=2, local_epochs=1)
        a = run_trial(small_model(), fed, train, test, parts, 12, "a")
        b = run_trial(small_model(), fed, train, test, parts, 12, "b")
        assert [r.round for r in a.records] == [1, 2]
        for ra, rb in zip(a.records, b.records):
            assert ra.test_acc == rb.test_acc
            assert ra.test_loss == rb.test_loss
            assert ra.train_loss == rb.train_loss
            assert ra.sampled_clients == rb.sampled_clients

    @pytest.mark.parametrize("kind", ["mlp", "spline_kan", "rbf_kan"])
    def test_pixel_codes_match_float_images(self, small_data, kind):
        # training and evaluation read the uint8 codes; dropping them forces the
        # float path on the very same normalized images. Batch 8 takes enough
        # steps that a one-ulp change to the silu or basis tables shows here, and
        # lr 0.02 keeps every model finite, so NaN records cannot hide a difference.
        train, test = small_data
        assert train.codes is not None and test.codes is not None
        parts = pathological_partition(train, 10, 2, RngStream(15))
        fed = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=0.3,
                               batch_size=8, lr=0.02)
        cfg = ModelConfig(kind=kind, layer_widths=(784, 8, 6, 10))
        runs = [
            run_trial(cfg, fed, tr, te, parts, 16, kind)
            for tr, te in ((train, test), (replace(train, codes=None), replace(test, codes=None)))
        ]
        assert all(np.isfinite(r.test_loss) for r in runs[0].records)
        records = [[repr({**asdict(r), "elapsed_s": None}) for r in run.records] for run in runs]
        assert len(records[0]) == 2 and records[0] == records[1]

    def test_parallel_matches_serial(self, small_data):
        train, test = small_data
        parts = pathological_partition(train, 10, 2, RngStream(13))
        serial = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=0.5)
        parallel = FederationConfig(
            n_rounds=2, local_epochs=1, clients_per_round_fraction=0.5, parallel_clients=4
        )
        a = run_trial(small_model(), serial, train, test, parts, 14, "s")
        b = run_trial(small_model(), parallel, train, test, parts, 14, "p")
        for ra, rb in zip(a.records, b.records):
            assert ra.test_acc == rb.test_acc
            assert ra.test_loss == rb.test_loss
            assert ra.train_loss == rb.train_loss

    @pytest.mark.parametrize("parallel_clients", [1, 2])
    def test_no_client_update_alive_during_evaluate(self, small_data, monkeypatch,
                                                    parallel_clients):
        train, test = small_data
        parts = pathological_partition(train, 10, 2, RngStream(17))
        fed = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=0.3,
                               parallel_clients=parallel_clients)
        # ClientUpdate is an unhashable dataclass, so weak references, not a WeakSet
        updates = []
        evaluated = []
        local_train, evaluate = federation.local_train, federation.evaluate

        def recording_local_train(*args):
            update = local_train(*args)
            updates.append(weakref.ref(update))
            return update

        def checking_evaluate(*args):
            alive = sum(ref() is not None for ref in updates)
            assert alive == 0, f"{alive} client updates alive during evaluate"
            evaluated.append(True)
            return evaluate(*args)

        monkeypatch.setattr(federation, "local_train", recording_local_train)
        monkeypatch.setattr(federation, "evaluate", checking_evaluate)
        run_trial(small_model(), fed, train, test, parts, 18, "w")
        assert len(evaluated) == 2
