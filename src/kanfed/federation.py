"""The federated round loop: client sampling, local training, aggregation.

Each round samples 10% of the clients, trains the global model locally for
5 epochs of SGD with momentum, then applies the sample-size-weighted mean
of the client deltas through a server-side momentum buffer. The server step is
the clients' momentum step, `sgd_momentum_step`, taken on that mean delta as a
pseudo-gradient (FedAvgM). Client optimizer state never survives a round;
server momentum persists for the whole trial.

Each round is trained, and the round before it evaluated, on every CPU the
process may use. Phase r forks one child per further CPU (`process_count`)
after round r - 1's server step, so each child holds that step's global
params through the fork. Each process, the parent too, first evaluates (from
phase 2 on) every n-th `EVAL_BATCH` batch of the test set, then trains its
share of round r's clients (`split_shares` deals them by sample count). A
child sends one reply, its batches' sums and its share's updates, and exits,
so no child outlives its phase. One evaluation-only phase follows the last
round. Combining the sums, aggregation and the server step stay in the
parent.

Determinism contract: every random decision comes from a substream keyed by
(seed, round, client), each process runs BLAS on one thread, `aggregate`
sums the round in client-id order, and `combine_batches` adds the batches'
sums in batch order, as `evaluate` does, and the train loss and accuracy
are added left to right in the loops that make them (builtin `sum()`
compensates from Python 3.12 on). So the logs depend neither on which
process trained a client or evaluated a batch, nor on how many processes
there are, nor on the Python version.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import time
from dataclasses import dataclass

import numpy as np

from . import numerics
from .data import ClientPartition, Dataset
from .errors import ConfigurationError, InternalError
from .metrics import RoundRecord, TrialSummary, batch_starts, combine_batches, evaluate
from .models import ModelConfig, ModelState, backward, forward, init_params
from .numerics import RngStream, sgd_momentum_step, softmax_cross_entropy


@dataclass
class FederationConfig:
    n_rounds: int = 100
    clients_per_round_fraction: float = 0.10
    local_epochs: int = 5
    batch_size: int = 64
    lr: float = 0.1
    client_momentum: float = 0.9
    server_momentum: float = 0.9
    # only 1: kept so that callers passing it still work
    parallel_clients: int = 1

    def __post_init__(self):
        if not 0.0 < self.clients_per_round_fraction <= 1.0:
            raise ConfigurationError("clients_per_round_fraction must be in (0, 1]")
        for name in ("n_rounds", "local_epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ConfigurationError(f"{name} must be positive")
        if self.parallel_clients != 1:
            raise ConfigurationError(
                f"parallel_clients must be 1, got {self.parallel_clients}: "
                "a round's clients train on every usable CPU")
        # the negated comparisons also reject NaN
        for name, high, rule in (("lr", np.inf, "finite and >= 0"),
                                 ("client_momentum", 1.0, "in [0, 1)"),
                                 ("server_momentum", 1.0, "in [0, 1)")):
            value = getattr(self, name)
            if not 0.0 <= value < high:
                raise ConfigurationError(f"{name} must be {rule}, got {value}")

    def clients_per_round(self, n_clients: int) -> int:
        return max(1, round(n_clients * self.clients_per_round_fraction))


@dataclass
class ClientUpdate:
    client_id: int
    delta: np.ndarray
    n_samples: int
    train_loss: float
    train_acc: float


@dataclass
class ServerState:
    global_model: ModelState
    momentum_buf: np.ndarray


def sample_clients(
    n_clients: int, n_sampled: int, round_index: int, rng: RngStream
) -> list[int]:
    """Distinct client ids, uniform without replacement, keyed by round."""
    gen = rng.child("sample", str(round_index)).gen
    ids = gen.choice(n_clients, size=n_sampled, replace=False)
    return sorted(int(c) for c in ids)


def local_train(
    global_model: ModelState,
    part: ClientPartition,
    train: Dataset,
    cfg: FederationConfig,
    rng: RngStream,
) -> ClientUpdate:
    """5 epochs of minibatch SGD from the global params; returns the delta."""
    if len(part) == 0:
        raise InternalError(f"client {part.client_id} has no data")
    local = global_model.clone()
    velocity = np.zeros(len(local.params))
    grads = np.empty(len(local.params))  # every backward overwrites it
    gen = rng.gen
    indices = part.indices
    inputs = train.model_inputs
    # the last epoch's sample-weighted loss and accuracy, added batch by batch
    loss_sum = acc_sum = 0
    for epoch in range(cfg.local_epochs):
        order = gen.permutation(len(indices))
        for start in range(0, len(order), cfg.batch_size):
            sel = indices[order[start : start + cfg.batch_size]]
            imgs = inputs[sel]
            labs = train.labels[sel]
            logits, cache = forward(local, imgs)
            loss, grad_logits = softmax_cross_entropy(logits, labs)
            backward(local, cache, grad_logits, out=grads)
            if epoch == cfg.local_epochs - 1:
                acc = float((np.argmax(logits, axis=1) == labs).mean())
                loss_sum += loss * len(sel)
                acc_sum += acc * len(sel)
            sgd_momentum_step(local.params, grads, velocity, cfg.lr, cfg.client_momentum)
            del logits, cache, grad_logits  # else alive while the next forward runs
    return ClientUpdate(
        client_id=part.client_id,
        delta=local.params - global_model.params,
        n_samples=len(part),
        train_loss=loss_sum / len(part),  # the last epoch visits each sample once
        train_acc=acc_sum / len(part),
    )


def aggregate(updates: list[ClientUpdate]) -> tuple[np.ndarray, float, float]:
    """Sample-size-weighted means over the clients in id order: the client
    delta (the pseudo-gradient), the train loss and the train accuracy."""
    if not updates:
        raise InternalError("aggregate needs at least one update")
    updates = sorted(updates, key=lambda u: u.client_id)
    length = len(updates[0].delta)
    if any(len(u.delta) != length for u in updates):
        raise InternalError("client deltas have inconsistent lengths")
    total = sum(u.n_samples for u in updates)
    out = np.zeros(length, dtype=np.float64)
    loss_sum = acc_sum = 0
    for u in updates:
        out += (u.n_samples / total) * u.delta
        loss_sum += u.train_loss * u.n_samples
        acc_sum += u.train_acc * u.n_samples
    return out, loss_sum / total, acc_sum / total


def server_step(
    state: ServerState, pseudo_gradient: np.ndarray, server_momentum: float
) -> ServerState:
    """m <- beta*m + avg_delta; global <- global + m (in place)."""
    # the mean delta points downhill, unlike a gradient, hence the lr of -1
    sgd_momentum_step(state.global_model.params, pseudo_gradient, state.momentum_buf,
                      -1.0, server_momentum)
    return state


def process_count(n_sampled: int) -> int:
    """Processes that train a round's n_sampled clients: one per CPU this
    process may use, at most one per client. One where BLAS is unpinned,
    since its thread count could then differ between processes."""
    if numerics.BLAS_THREADS == "unpinned":
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), n_sampled))


def split_shares(sampled: list[int], partitions: list[ClientPartition],
                 n_procs: int) -> list[list[int]]:
    """The sampled clients dealt out to n_procs shares, largest client first
    (ties to the lower client id), each to the share with the fewest samples
    so far (ties to the lower share), so that the shares train about equally
    long. Each share lists its clients in the order they were dealt."""
    shares: list[list[int]] = [[] for _ in range(n_procs)]
    samples = [0] * n_procs
    for cid in sorted(sampled, key=lambda c: (-len(partitions[c]), c)):
        k = samples.index(min(samples))
        shares[k].append(cid)
        samples[k] += len(partitions[cid])
    return shares


def _fork_phase(n_procs: int, work) -> list:
    """[work(0), ..., work(n_procs - 1)]. This process runs work(0); one child
    is forked for each other k, runs work(k) on what this process held at the
    fork (the round's global params among it), replies once, with the result
    or the exception that work(k) raised, and exits. Only after work(0) does
    this process read the replies, in order. So a child sends its whole
    result at once: a share's deltas outgrow the pipe's buffer, and a send
    per client would stall the child until then. The children are killed and
    joined on every way out."""
    ctx = multiprocessing.get_context("fork")
    conns, procs = [], []

    def child(conn, k):
        for end in conns:  # else a child's reply to a dead parent blocks, not fails
            end.close()
        signal.signal(signal.SIGINT, signal.SIG_IGN)  # ^C is the parent's to handle
        try:
            reply = work(k)
        except Exception as e:
            reply = e
        try:
            conn.send(reply)
        except BrokenPipeError:  # the parent is gone
            pass

    try:
        for k in range(1, n_procs):
            parent_end, child_end = ctx.Pipe(duplex=False)
            conns.append(parent_end)
            proc = ctx.Process(target=child, args=(child_end, k))
            proc.start()
            procs.append(proc)
            child_end.close()  # else a dead child's pipe never reads as EOF here
        replies = [work(0)]
        for conn in conns:
            try:
                got = conn.recv()
            except EOFError:
                raise InternalError("a client worker exited mid-round") from None
            if isinstance(got, Exception):
                raise got
            replies.append(got)
        return replies
    finally:
        for proc in procs:
            proc.kill()
        for proc in procs:
            proc.join()
        for conn in conns:
            conn.close()


def run_trial(
    model_config: ModelConfig,
    fed_cfg: FederationConfig,
    train: Dataset,
    test: Dataset,
    partitions: list[ClientPartition],
    trial_seed: int,
    trial_id: str = "trial",
) -> TrialSummary:
    """One complete federated run; metrics fully determined by the seeds.

    Phase r evaluates round r - 1's global params and trains round r's
    clients; phase n_rounds + 1 only evaluates. Round r's `elapsed_s` spans
    phase r, and the last round's also the phase that evaluates it."""
    t0 = time.perf_counter()
    rng = RngStream(trial_seed)
    global_model = init_params(model_config, rng)
    server = ServerState(
        global_model=global_model,
        momentum_buf=np.zeros(len(global_model.params)),
    )
    n_clients = len(partitions)
    n_sampled = fed_cfg.clients_per_round(n_clients)
    n_procs = process_count(n_sampled)
    # process k evaluates every n_procs-th batch of the test set, from the k-th
    eval_shares = [batch_starts(len(test))[k::n_procs] for k in range(n_procs)]
    records: list[RoundRecord] = []
    starts = []  # each phase's start
    for rnd in range(1, fed_cfg.n_rounds + 2):
        starts.append(time.perf_counter())
        # no client trains in the phase after the last round
        sampled = (sample_clients(n_clients, n_sampled, rnd, rng)
                   if rnd <= fed_cfg.n_rounds else [])
        shares = split_shares(sampled, partitions, n_procs)

        def work(k):
            # evaluate before training, so no delta of this phase is alive meanwhile;
            # each client trains from the global params on its (round, client) substream
            sums = evaluate(global_model, test, eval_shares[k]) if records else []
            return sums, [local_train(global_model, partitions[cid], train, fed_cfg,
                                      rng.child("local", str(rnd), str(cid)))
                          for cid in shares[k]]

        replies = _fork_phase(n_procs, work)
        if records:
            records[-1].test_acc, records[-1].test_loss = combine_batches(
                [s for sums, _ in replies for s in sums], len(test))
        if sampled:
            pseudo_gradient, train_loss, train_acc = aggregate(
                [u for _, updates in replies for u in updates])
            del replies  # the next phase's evaluation holds no client delta
            server_step(server, pseudo_gradient, fed_cfg.server_momentum)
            del pseudo_gradient
            # its test metrics come in the next phase, its elapsed_s after the last
            records.append(RoundRecord(round=rnd, test_acc=np.nan, test_loss=np.nan,
                                       train_acc=train_acc, train_loss=train_loss,
                                       sampled_clients=sampled, elapsed_s=np.nan))
    starts[-1] = time.perf_counter()  # the last round spans the phase that evaluates it
    for record, start, end in zip(records, starts, starts[1:]):
        record.elapsed_s = end - start
    return TrialSummary(
        trial_id=trial_id,
        model=model_config.kind,
        seed=trial_seed,
        records=records,
        total_time_s=time.perf_counter() - t0,
    )
