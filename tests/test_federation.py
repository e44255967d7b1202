import math
import multiprocessing
import operator
import os
import signal
import subprocess
import sys
import time
import tracemalloc
import weakref
from dataclasses import asdict, replace
from functools import reduce
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import binom

from kanfed import federation, metrics, numerics
from kanfed.data import ClientPartition, pathological_partition
from kanfed.errors import ConfigurationError, InternalError
from kanfed.federation import (
    ClientUpdate,
    FederationConfig,
    ServerState,
    aggregate,
    local_train,
    process_count,
    run_trial,
    sample_clients,
    server_step,
    split_shares,
)
from kanfed.metrics import evaluate
from kanfed.models import ModelConfig, backward, default_config, forward, init_params
from kanfed.numerics import RngStream, sgd_momentum_step, softmax_cross_entropy

from conftest import make_synth_dataset


@pytest.fixture(scope="module")
def small_data():
    train = make_synth_dataset(600, 31)
    test = make_synth_dataset(200, 32)
    return train, test


def small_model():
    return ModelConfig(kind="mlp", layer_widths=(784, 16, 10))


def left_to_right(terms):
    return reduce(operator.add, terms)


# compensated summation (builtin sum() from Python 3.12 on) adds these to 2.0,
# left to right they add to 0.0
CANCELLING_LOSSES = [1.0, 1e100, 1.0, -1e100]


def full_partition(train):
    return ClientPartition(
        client_id=0,
        indices=np.arange(len(train)),
        label_set=frozenset(np.unique(train.labels)),
    )


class TestFederationConfig:
    # the protocol values are not config keys, but the benchmark and direct
    # callers still set them, so each is still checked
    @pytest.mark.parametrize("field, value", [
        ("client_momentum", np.inf), ("client_momentum", 1.0),
        ("server_momentum", -0.1), ("server_momentum", np.nan),
        ("parallel_clients", 0), ("parallel_clients", -2), ("parallel_clients", 2),
        ("clients_per_round_fraction", 0.0), ("local_epochs", 0), ("batch_size", 0),
    ])
    def test_nonsense_value_rejected(self, field, value):
        with pytest.raises(ConfigurationError, match=f"^{field} must be"):
            FederationConfig(**{field: value})


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


class TestSplitShares:
    @staticmethod
    def partitions(sizes):
        return [ClientPartition(c, np.arange(n), frozenset()) for c, n in enumerate(sizes)]

    @pytest.mark.parametrize("n_procs, expected", [
        (1, [[1, 2, 4, 0, 5, 3]]),
        (2, [[1, 4, 3], [2, 0, 5]]),
        (3, [[1, 5], [2, 3], [4, 0]]),
    ])
    def test_largest_first_to_fewest_samples(self, n_procs, expected):
        # dealt 1 and 2 (9 samples each, the lower id first), 4 (7), 0 and 5
        # (5 each), 3 (3); each to the share with the fewest samples so far,
        # ties to the lower share, whatever order the clients were sampled in
        parts = self.partitions([5, 9, 9, 3, 7, 5])
        for sampled in ([0, 1, 2, 3, 4, 5], [5, 3, 1, 0, 4, 2]):
            assert split_shares(sampled, parts, n_procs) == expected

    def test_each_client_once_and_balanced(self):
        gen = RngStream(21).gen
        parts = self.partitions(gen.integers(1, 900, 100))
        sampled = sample_clients(100, 10, 1, RngStream(22))
        for n_procs in (1, 2, 3, 4):
            shares = split_shares(sampled, parts, n_procs)
            assert split_shares(sampled, parts, n_procs) == shares
            assert sorted(c for share in shares for c in share) == sampled
            # the fullest share was the emptiest when it took its last client
            samples = [sum(len(parts[c]) for c in share) for share in shares]
            assert max(samples) - min(samples) <= max(len(parts[c]) for c in sampled)


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
        train = make_synth_dataset(640, 41)
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
        loss = left_to_right(l * len(y) for _, y, l in last) / 150
        acc = left_to_right(float((np.argmax(z, axis=1) == y).mean()) * len(y)
                            for z, y, _ in last) / 150
        assert upd.train_loss == loss and upd.train_acc == acc
        assert loss != left_to_right(l * len(y) for _, y, l in calls) / 450

    def test_train_stats_added_left_to_right(self, small_data, monkeypatch):
        train, _ = small_data
        losses = iter(CANCELLING_LOSSES)
        monkeypatch.setattr(federation, "softmax_cross_entropy",
                            lambda logits, labels: (next(losses), np.zeros_like(logits)))
        part = ClientPartition(0, np.arange(4), frozenset(np.unique(train.labels[:4])))
        cfg = FederationConfig(n_rounds=1, local_epochs=1, batch_size=1)
        upd = local_train(init_params(small_model(), RngStream(2)), part, train, cfg,
                          RngStream(7))
        assert upd.train_loss == left_to_right(CANCELLING_LOSSES) / 4
        assert upd.train_loss != math.fsum(CANCELLING_LOSSES) / 4

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
        mean, _, _ = aggregate(ups)
        assert np.allclose(mean, d, atol=1e-15)

    def test_opposite_deltas_cancel(self):
        d = np.array([1.0, -2.0])
        ups = [ClientUpdate(0, d, 300, 0, 0), ClientUpdate(1, -d, 300, 0, 0)]
        mean, _, _ = aggregate(ups)
        assert np.all(mean == 0.0)

    def test_weighted_mean(self):
        d1 = np.array([3.0])
        d2 = np.array([0.0])
        ups = [ClientUpdate(0, d1, 600, 0, 0), ClientUpdate(1, d2, 300, 0, 0)]
        mean, _, _ = aggregate(ups)
        assert abs(mean[0] - 2.0) < 1e-15

    def test_weight_conservation(self):
        gen = RngStream(7).gen
        ups = [
            ClientUpdate(i, np.ones(4), int(gen.integers(100, 900)), 0, 0)
            for i in range(10)
        ]
        # weighted mean of all-ones vectors must be exactly ones
        mean, _, _ = aggregate(ups)
        assert np.abs(mean - 1.0).max() < 1e-12

    def test_inconsistent_lengths(self):
        ups = [ClientUpdate(0, np.zeros(3), 10, 0, 0), ClientUpdate(1, np.zeros(4), 10, 0, 0)]
        with pytest.raises(InternalError):
            aggregate(ups)

    def test_sums_in_client_id_order(self):
        # the updates of a round arrive in process order; every sum runs in
        # client-id order, so any arrival order gives the same bits
        gen = RngStream(9).gen
        ups = [ClientUpdate(i, gen.standard_normal(5), int(gen.integers(100, 900)),
                            float(gen.uniform(0, 3)), float(gen.uniform(0, 1)))
               for i in range(10)]
        mean, loss, acc = aggregate(ups)
        total = sum(u.n_samples for u in ups)
        assert loss == left_to_right(u.train_loss * u.n_samples for u in ups) / total
        assert acc == left_to_right(u.train_acc * u.n_samples for u in ups) / total
        for order in (ups[::-1], ups[1::2] + ups[::2]):
            shuffled_mean, shuffled_loss, shuffled_acc = aggregate(order)
            assert shuffled_mean.tobytes() == mean.tobytes()
            assert (shuffled_loss, shuffled_acc) == (loss, acc)

    def test_train_stats_added_left_to_right(self):
        ups = [ClientUpdate(i, np.zeros(2), 1, loss, loss)
               for i, loss in enumerate(CANCELLING_LOSSES)]
        _, loss, acc = aggregate(ups)
        assert loss == acc == left_to_right(CANCELLING_LOSSES) / 4
        assert loss != math.fsum(CANCELLING_LOSSES) / 4


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
    # federated equals centralized: tests/test_acceptance.py criterion 5
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

    def test_elapsed_spans_phase_and_next_evaluation(self, small_data, monkeypatch):
        # round r spans phase r, which evaluates round r - 1; the last round
        # also spans the phase that evaluates it
        train, test = small_data
        monkeypatch.setattr(numerics, "BLAS_THREADS", "unpinned")  # one process
        pause = 0.2
        evaluate = federation.evaluate

        def slow_evaluate(*args):
            time.sleep(pause)
            return evaluate(*args)

        monkeypatch.setattr(federation, "evaluate", slow_evaluate)
        parts = pathological_partition(train, 10, 2, RngStream(11))
        trial = run_trial(small_model(), FederationConfig(n_rounds=3, local_epochs=1),
                          train, test, parts, 12)
        elapsed = [r.elapsed_s for r in trial.records]
        assert min(elapsed[1:]) >= pause
        assert elapsed[-1] >= 2 * pause
        assert left_to_right(elapsed) <= trial.total_time_s

    @pytest.mark.parametrize("kind", ["mlp", "spline_kan", "rbf_kan"])
    def test_pixel_codes_match_float_images(self, small_data, kind):
        # training and evaluation read the uint8 codes; decoded float images force
        # the float path on the very same normalized values. Batch 8 takes enough
        # steps that a one-ulp change to the silu or basis tables shows here, and
        # lr 0.02 keeps every model finite, so NaN records cannot hide a difference.
        train, test = small_data
        floats = replace(train, images=train.images[:]), replace(test, images=test.images[:])
        assert train.model_inputs.dtype == test.model_inputs.dtype == np.uint8
        assert floats[0].model_inputs.dtype == floats[1].model_inputs.dtype == np.float64
        parts = pathological_partition(train, 10, 2, RngStream(15))
        fed = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=0.3,
                               batch_size=8, lr=0.02)
        cfg = ModelConfig(kind=kind, layer_widths=(784, 8, 6, 10))
        runs = [
            run_trial(cfg, fed, tr, te, parts, 16, kind)
            for tr, te in ((train, test), floats)
        ]
        assert all(np.isfinite(r.test_loss) for r in runs[0].records)
        records = [[repr({**asdict(r), "elapsed_s": None}) for r in run.records] for run in runs]
        assert len(records[0]) == 2 and records[0] == records[1]

    def test_parallel_matches_serial(self, small_data, monkeypatch):
        # one process, then the parent and one to three forked workers, each
        # evaluating its share of the test set's four batches: the same records
        train, test = small_data
        monkeypatch.setattr(metrics, "EVAL_BATCH", 64)
        parts = pathological_partition(train, 10, 2, RngStream(13))
        fed = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=0.5)
        runs = []
        for cpus in ({0}, {0, 1}, {0, 1, 2}, {0, 1, 2, 3}):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, cpus=cpus: cpus)
            assert process_count(5) == len(cpus)
            trial = run_trial(small_model(), fed, train, test, parts, 14, "s")
            runs.append([repr({**asdict(r), "elapsed_s": None}) for r in trial.records])
            assert multiprocessing.active_children() == []
        assert len(runs[0]) == 2 and runs[0] == runs[1] == runs[2] == runs[3]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_no_client_update_alive_during_evaluate(self, small_data, monkeypatch, processes):
        # each process evaluates its batches before it trains its clients, and
        # the parent frees the last round's updates before it forks the next
        # phase, so no update is alive in a process while it evaluates; no
        # child outlives its phase
        train, test = small_data
        parts = pathological_partition(train, 10, 2, RngStream(17))
        fed = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=0.3)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(processes)))
        parent = os.getpid()
        # every update this process trained; ClientUpdate is an unhashable
        # dataclass, so weak references, not a WeakSet
        updates = []
        evaluated, phases = [], []
        local_train, evaluate = federation.local_train, federation.evaluate
        fork_phase = federation._fork_phase

        def recording_local_train(*args):
            update = local_train(*args)
            updates.append(weakref.ref(update))
            return update

        def checking_evaluate(*args):
            # a child's failed assertion is its reply, raised in the parent
            alive = sum(ref() is not None for ref in updates)
            assert alive == 0, f"{alive} client updates alive during evaluate"
            if os.getpid() == parent:
                evaluated.append(True)
            return evaluate(*args)

        def checking_fork_phase(*args):
            replies = fork_phase(*args)
            assert multiprocessing.active_children() == []
            phases.append(True)
            return replies

        monkeypatch.setattr(federation, "local_train", recording_local_train)
        monkeypatch.setattr(federation, "evaluate", checking_evaluate)
        monkeypatch.setattr(federation, "_fork_phase", checking_fork_phase)
        run_trial(small_model(), fed, train, test, parts, 18, "w")
        # phases 2 and 3 evaluate rounds 1 and 2; the parent trains at least
        # one of each round's three clients
        assert len(phases) == 3 and len(evaluated) == 2 and len(updates) >= 2


def four_clients(train, sizes=(150, 150, 150, 150)):
    """Four clients of the given sizes over the first rows of the train split."""
    ends = np.cumsum(sizes)
    return [ClientPartition(client_id=c, indices=ix, label_set=frozenset(train.labels[ix]))
            for c, ix in enumerate(np.arange(e - n, e) for n, e in zip(sizes, ends))]


SRC, TESTS = (Path(__file__).resolve().parent.parent / d for d in ("src", "tests"))
# a trial whose parent, with two usable CPUs, writes its worker's pid to
# argv[1] from inside its own local_train, mid-round, and then SIGKILLs itself
KILLED_PARENT = """import multiprocessing, os, signal, sys
import numpy as np
from conftest import make_synth_dataset
from kanfed import federation
from kanfed.data import ClientPartition
from kanfed.models import ModelConfig

parent, local_train = os.getpid(), federation.local_train

def dying_local_train(*args):
    if os.getpid() != parent:
        return local_train(*args)
    (worker,) = multiprocessing.active_children()
    with open(sys.argv[1], "w") as f:
        f.write(str(worker.pid))
    os.kill(os.getpid(), signal.SIGKILL)

os.sched_getaffinity = lambda pid: {0, 1}
federation.local_train = dying_local_train
train, test = make_synth_dataset(600, 31), make_synth_dataset(200, 32)
parts = [ClientPartition(client_id=c, indices=ix, label_set=frozenset(train.labels[ix]))
         for c, ix in enumerate(np.array_split(np.arange(len(train)), 4))]
fed = federation.FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=1.0)
federation.run_trial(ModelConfig(kind="mlp", layer_widths=(784, 16, 10)), fed, train, test,
                     parts, 19)
"""


def alive(pid):
    """Whether process pid runs; a zombie, whose exit no process has reaped, does not."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


class TestWorkers:
    """The parent trains clients 0 and 2 of four; one forked worker trains 1 and 3."""

    FED = FederationConfig(n_rounds=2, local_epochs=1, clients_per_round_fraction=1.0)

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})

        def hung(signum, frame):
            raise TimeoutError("run_trial still running after 60 s")

        previous = signal.signal(signal.SIGALRM, hung)
        signal.alarm(60)
        try:
            yield
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("empty_id", [1, 2, 3])
    def test_worker_error_raised_in_parent(self, small_data, empty_id):
        # three clients of 200 samples and an empty one, dealt last to the
        # worker: it fails there after the worker trained 2 (for 1) or 1 (for
        # 2 and 3); the parent raises the same error
        train, test = small_data
        sizes = [200] * 4
        sizes[empty_id] = 0
        parts = four_clients(train, sizes)
        assert split_shares([0, 1, 2, 3], parts, 2)[1][-1] == empty_id
        with pytest.raises(InternalError, match=f"^client {empty_id} has no data$"):
            run_trial(small_model(), self.FED, train, test, parts, 19)

    def test_parent_error_ends_worker(self, small_data):
        # clients of 200, 100, 100 and 0 samples: the parent trains client 0
        # and then fails on client 3, which the tie dealt to it
        train, test = small_data
        parts = four_clients(train, (200, 100, 100, 0))
        assert split_shares([0, 1, 2, 3], parts, 2) == [[0, 3], [1, 2]]
        with pytest.raises(InternalError, match="^client 3 has no data$"):
            run_trial(small_model(), self.FED, train, test, parts, 19)

    def test_worker_killed_mid_round_raises(self, small_data, monkeypatch):
        train, test = small_data
        parent = os.getpid()
        local_train = federation.local_train

        def dying_in_worker(*args):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return local_train(*args)

        monkeypatch.setattr(federation, "local_train", dying_in_worker)
        with pytest.raises(InternalError, match="worker exited mid-round"):
            run_trial(small_model(), self.FED, train, test, four_clients(train), 19)

    def test_sigterm_in_parent_ends_workers(self, small_data, monkeypatch):
        # a SIGTERM handler that exits, as the benchmark installs, mid-round:
        # the parent trains its own share while the worker trains the other
        train, test = small_data
        parent = os.getpid()
        local_train = federation.local_train

        def terminated_in_parent(*args):
            if os.getpid() == parent:
                assert len(multiprocessing.active_children()) == 1
                os.kill(parent, signal.SIGTERM)
            return local_train(*args)

        monkeypatch.setattr(federation, "local_train", terminated_in_parent)
        previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
        try:
            with pytest.raises(SystemExit):
                run_trial(small_model(), self.FED, train, test, four_clients(train), 19)
        finally:
            signal.signal(signal.SIGTERM, previous)

    def test_parent_killed_ends_worker(self, tmp_path):
        # no exit path of the parent runs when it is SIGKILLed mid-round; the
        # worker must find no reader for its reply and leave by itself
        pid_file = tmp_path / "worker.pid"
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(map(str, (SRC, TESTS)))}
        child = subprocess.run([sys.executable, "-c", KILLED_PARENT, str(pid_file)], env=env,
                               stdout=subprocess.DEVNULL, timeout=50)
        assert child.returncode == -signal.SIGKILL
        worker = int(pid_file.read_text())
        deadline = time.monotonic() + 30
        while alive(worker) and time.monotonic() < deadline:
            time.sleep(0.1)
        if alive(worker):
            os.kill(worker, signal.SIGKILL)
            pytest.fail("the worker outlived its SIGKILLed parent by 30 s")

    def test_unpinned_blas_trains_in_one_process(self, small_data, monkeypatch):
        train, test = small_data
        monkeypatch.setattr(numerics, "BLAS_THREADS", "unpinned")
        assert process_count(4) == 1
        trained = []
        local_train = federation.local_train

        def recording_local_train(model, part, *args):
            trained.append(part.client_id)
            return local_train(model, part, *args)

        monkeypatch.setattr(federation, "local_train", recording_local_train)
        run_trial(small_model(), self.FED, train, test, four_clients(train), 19)
        assert trained == [0, 1, 2, 3] * 2
